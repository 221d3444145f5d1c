"""Client-verifiable proofs and the transparency log (:mod:`repro.proofs`).

Covers the head log's format and crash semantics (torn tails, catch-up,
the dual-master fallback, rollback detection), Merkle inclusion and
non-membership proofs built from the location map's own nodes, the
server-side proof service, the wire verbs, the verifying client's head
pinning, replica proof serving, and the stats/heads/audit tooling.
"""

from __future__ import annotations

import contextlib
import os
import shutil

import pytest

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig
from repro.crypto import create_hash_engine, create_payload_cipher
from repro.db import Database
from repro.errors import (
    ChunkNotFoundError,
    InvalidProofError,
    ProofError,
    TamperDetectedError,
)
from repro.platform import (
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)
from repro.proofs import (
    HAVE_ED25519,
    HEAD_LOG_FILE,
    HeadVerifier,
    ProofService,
    SignedHead,
    TransparencyLog,
    VerifyingClient,
    verify_proof,
)
from repro.replication import ReplicaApplier
from repro.server import TdbClient, TdbServer

SECRET = b"proofs-test-secret-0123456789abc"


def make_store(**config_kwargs):
    untrusted = MemoryUntrustedStore()
    secret = MemorySecretStore(SECRET)
    counter = MemoryOneWayCounter()
    config = ChunkStoreConfig(**config_kwargs) if config_kwargs else None
    store = ChunkStore.format(untrusted, secret, counter, config)
    return store, untrusted, secret, counter


def write_chunks(store, count, start=0, size=64):
    ids = []
    for i in range(start, start + count):
        cid = store.allocate_chunk_id()
        store.write(cid, f"chunk-{i}-".encode() * (size // 8 + 1))
        ids.append(cid)
    return ids


def client_verify_kit(secret, config=None):
    """(hash engine, cipher) a trusted client derives on its own."""
    config = config or ChunkStoreConfig()
    profile = config.security
    engine = create_hash_engine(profile.hash_name)
    cipher = create_payload_cipher(
        profile.cipher_name,
        secret.derive_key("tdb-chunk-encryption", 32),
    )
    return engine, cipher


def local_verify(proof, head, secret, config=None):
    config = config or ChunkStoreConfig()
    engine, cipher = client_verify_kit(secret, config)
    return verify_proof(
        proof,
        head,
        fanout=config.map_fanout,
        hash_size=engine.digest_size,
        digest=engine.digest,
        decrypt=cipher.decrypt,
    )


class TestHeadLog:
    def test_every_checkpoint_appends_a_chained_head(self):
        store, untrusted, secret, _ = make_store()
        write_chunks(store, 10)
        store.checkpoint(force=True)
        write_chunks(store, 10, start=10)
        store.checkpoint(force=True)
        log = store.transparency
        heads = log.heads()
        assert len(heads) >= 3  # format + two forced checkpoints
        verifier = HeadVerifier(
            secret, store.db_uuid, store.hash_size
        )
        chain = verifier.verify_chain([h.raw for h in heads])
        assert [h.generation for h in chain] == sorted(
            {h.generation for h in chain}
        )
        tip = log.tip()
        assert tip.generation == store.generation
        assert tip.seqno == store.commit_seqno
        root = store.location_map.root_locator
        assert tip.root_digest == root.hash_value
        store.close()

    def test_reopen_verifies_and_continues_the_chain(self):
        store, untrusted, secret, counter = make_store()
        write_chunks(store, 5)
        store.close()  # close checkpoints and appends
        length_before = None
        store = ChunkStore.open(untrusted, secret, counter)
        assert store.transparency is not None
        length_before = len(store.transparency)
        write_chunks(store, 5, start=5)
        store.close()
        store = ChunkStore.open(untrusted, secret, counter)
        assert len(store.transparency) > length_before
        store.close()

    def test_torn_tail_is_truncated_on_writable_open(self):
        store, untrusted, secret, counter = make_store()
        write_chunks(store, 5)
        store.close()
        data = untrusted.read(HEAD_LOG_FILE)
        untrusted.truncate(HEAD_LOG_FILE, len(data) - 7)  # tear the tail
        store = ChunkStore.open(untrusted, secret, counter)
        # The torn entry is gone; the open caught the log back up to the
        # master, so the tip matches exactly.
        tip = store.transparency.tip()
        assert tip.generation == store.generation
        store.close()

    def test_bit_flip_in_an_entry_is_tampering(self):
        store, untrusted, secret, counter = make_store()
        write_chunks(store, 5)
        store.checkpoint(force=True)
        store.close()
        data = bytearray(untrusted.read(HEAD_LOG_FILE))
        # Flip one bit in the middle of the file: inside some full
        # entry, well past the header.
        mid = (len(data) + 62) // 2
        data[mid] ^= 0x10
        untrusted.truncate(HEAD_LOG_FILE, 0)
        untrusted.write(HEAD_LOG_FILE, 0, bytes(data))
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted, secret, counter)

    def test_deleted_log_is_tampering_not_an_upgrade(self):
        # format() writes head.log before the first master, so a master
        # without a log means the signed history was deleted.  A writable
        # open must refuse rather than start a fresh log; a read-only
        # open still loads the image (a replica's staged copy).
        store, untrusted, secret, counter = make_store()
        write_chunks(store, 5)
        store.close()
        untrusted.delete(HEAD_LOG_FILE)
        with pytest.raises(TamperDetectedError, match="head log is missing"):
            ChunkStore.open(untrusted, secret, counter)
        assert not untrusted.exists(HEAD_LOG_FILE)
        store = ChunkStore.open(untrusted, secret, counter, read_only=True)
        assert store.transparency is None
        assert len(store.chunk_ids()) == 5
        store.close()

    def test_rollback_without_matching_history_is_detected(self):
        store, untrusted, secret, counter = make_store()
        write_chunks(store, 5)
        store.close()
        # Forge a log whose heads are all *newer* than the master and
        # that carries no entry for the master's generation: whatever
        # image this log was signing, it is not the one on disk.
        store = ChunkStore.open(untrusted, secret, counter)
        generation = store.generation
        store.close()  # appends generation+1 on the close checkpoint
        log = TransparencyLog.create(
            untrusted, secret, self._uuid(untrusted, secret, counter),
            create_hash_engine(ChunkStoreConfig().security.hash_name).digest_size,
        )
        log.append(generation + 10, 99, 99, 1, None)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted, secret, counter)

    @staticmethod
    def _uuid(untrusted, secret, counter):
        store = ChunkStore.open(untrusted, secret, counter)
        try:
            return store.db_uuid
        finally:
            store.close()

    def test_dual_master_fallback_truncates_orphan_heads(self):
        # Losing the newest master copy engages the fallback to the
        # older one; the orphaned newer head must be dropped, not
        # reported as a rollback (the counter rules out lost commits).
        from repro.chunkstore.master import MASTER_FILES

        store, untrusted, secret, counter = make_store()
        ids = write_chunks(store, 5)
        store.checkpoint(force=True)
        store.checkpoint(force=True)  # same data, newer generation
        generation = store.generation
        store.close()
        newest = MASTER_FILES[generation % 2]
        untrusted.truncate(newest, 0)
        store = ChunkStore.open(untrusted, secret, counter)
        assert store.generation < generation
        tip = store.transparency.tip()
        assert tip.generation == store.generation
        assert store.read(ids[0])
        store.close()

    def test_platform_without_ed25519_signs_hmac_only(self, monkeypatch):
        monkeypatch.setattr("repro.proofs.headlog.HAVE_ED25519", False)
        store, untrusted, secret, counter = make_store()
        write_chunks(store, 3)
        store.checkpoint(force=True)
        assert store.transparency.scheme == "hmac"
        tip = store.transparency.tip()
        assert not tip.has_ed_signature
        store.close()

    @pytest.mark.skipif(not HAVE_ED25519, reason="needs cryptography")
    def test_auto_scheme_uses_ed25519_when_available(self):
        store, *_ = make_store()
        write_chunks(store, 3)
        store.checkpoint(force=True)
        assert store.transparency.tip().has_ed_signature
        store.close()

    def test_log_of_other_database_is_rejected(self):
        store_a, untrusted_a, secret, counter_a = make_store()
        store_b, untrusted_b, _, counter_b = make_store()
        write_chunks(store_a, 3)
        write_chunks(store_b, 3)
        store_a.close()
        store_b.close()
        log_b = untrusted_b.read(HEAD_LOG_FILE)
        untrusted_a.truncate(HEAD_LOG_FILE, 0)
        untrusted_a.write(HEAD_LOG_FILE, 0, log_b)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(untrusted_a, secret, counter_a)

    def test_insecure_store_has_no_log(self):
        untrusted = MemoryUntrustedStore()
        secret = MemorySecretStore(SECRET)
        counter = MemoryOneWayCounter()
        from repro.config import SecurityProfile

        config = ChunkStoreConfig(security=SecurityProfile.insecure())
        store = ChunkStore.format(untrusted, secret, counter, config)
        assert store.transparency is None
        assert not untrusted.exists(HEAD_LOG_FILE)
        with pytest.raises(ProofError):
            ProofService(store)
        store.close()


class TestProofs:
    def test_inclusion_proof_verifies_and_decrypts(self):
        store, _, secret, _ = make_store()
        ids = write_chunks(store, 40)
        store.checkpoint(force=True)
        service = ProofService(store)
        for cid in (ids[0], ids[17], ids[-1]):
            head, proof = service.prove(cid)
            assert proof.present
            plaintext = local_verify(proof, head, secret)
            assert plaintext == store.read(cid)
        service.close()
        store.close()

    def test_non_membership_in_and_out_of_capacity(self):
        store, _, secret, _ = make_store(map_fanout=8)
        ids = write_chunks(store, 20)
        removed = ids[3]
        store.deallocate(removed)
        store.checkpoint(force=True)
        service = ProofService(store)
        config = ChunkStoreConfig(map_fanout=8)
        # Removed id: absence proven by a walk to an empty slot.
        head, proof = service.prove(removed)
        assert not proof.present
        assert local_verify(proof, head, secret, config) is None
        # Far outside the tree's capacity: empty-path absence.
        head, far = service.prove(10 ** 9)
        assert not far.present and not far.nodes
        assert local_verify(far, head, secret, config) is None
        service.close()
        store.close()

    def test_proof_against_wrong_head_fails(self):
        store, _, secret, _ = make_store()
        ids = write_chunks(store, 10)
        store.checkpoint(force=True)
        service = ProofService(store)
        head, proof = service.prove(ids[0])
        write_chunks(store, 10, start=10)
        store.checkpoint(force=True)
        new_tip = store.transparency.tip()
        assert new_tip.raw != head.raw
        with pytest.raises(InvalidProofError):
            local_verify(proof, new_tip, secret)
        service.close()
        store.close()

    def test_anchor_is_reused_until_the_store_moves(self):
        store, *_ = make_store()
        ids = write_chunks(store, 10)
        store.checkpoint(force=True)
        service = ProofService(store)
        for cid in ids:
            service.prove(cid)
        first = service.stats_snapshot()["anchors_created"]
        assert first == 1
        write_chunks(store, 5, start=10)
        store.checkpoint(force=True)
        service.prove(ids[0])
        assert service.stats_snapshot()["anchors_created"] == 2
        service.close()
        store.close()


@contextlib.contextmanager
def running_server(db=None):
    db = db or Database.in_memory(secret=SECRET)
    server = TdbServer(db).start()
    try:
        yield server, db
    finally:
        server.stop()
        db.close()


def populate_chunks(db, count, start=0):
    ids = []
    store = db.chunk_store
    for i in range(start, start + count):
        cid = store.allocate_chunk_id()
        store.write(cid, f"wire-chunk-{i}".encode() * 3)
        ids.append(cid)
    store.checkpoint(force=True)
    return ids


class TestWireVerbs:
    def test_verified_read_and_absent_end_to_end(self):
        with running_server() as (server, db):
            ids = populate_chunks(db, 25)
            secret = MemorySecretStore(SECRET)
            with VerifyingClient(*server.address, secret) as vc:
                head = vc.latest_head()
                assert head.generation == db.chunk_store.generation
                for cid in ids[:5]:
                    assert vc.verified_read(cid) == db.chunk_store.read(cid)
                missing = max(ids) + 3
                assert vc.verified_absent(missing)
                with pytest.raises(ChunkNotFoundError):
                    vc.verified_read(missing)
                assert vc.proofs_verified >= 7

    def test_pin_advances_across_commits(self):
        with running_server() as (server, db):
            ids = populate_chunks(db, 5)
            secret = MemorySecretStore(SECRET)
            with VerifyingClient(*server.address, secret) as vc:
                vc.verified_read(ids[0])
                first_pin = vc.pinned.index
                populate_chunks(db, 5, start=5)
                vc.verified_read(ids[1])
                assert vc.pinned.index > first_pin

    def test_fetch_log_returns_verified_chain(self):
        with running_server() as (server, db):
            populate_chunks(db, 5)
            populate_chunks(db, 5, start=5)
            secret = MemorySecretStore(SECRET)
            with VerifyingClient(*server.address, secret) as vc:
                chain = vc.fetch_log()
                assert len(chain) == len(db.chunk_store.transparency)
                assert chain[-1].raw == vc.pinned.raw
                assert all(isinstance(h, SignedHead) for h in chain)

    def test_stats_verb_exposes_the_head(self):
        with running_server() as (server, db):
            populate_chunks(db, 5)
            with TdbClient(*server.address) as client:
                stats = client.call("stats")
            head = stats["head"]
            assert head is not None
            store = db.chunk_store
            assert head["generation"] == store.generation
            assert head["seqno"] == store.commit_seqno
            assert head["log_length"] == len(store.transparency)
            root = store.location_map.root_locator
            assert head["root"] == root.hash_value.hex()

    def test_verifying_client_requires_secure_profile(self):
        from repro.config import SecurityProfile

        secret = MemorySecretStore(SECRET)
        insecure = ChunkStoreConfig(security=SecurityProfile.insecure())
        with pytest.raises(ProofError):
            VerifyingClient("127.0.0.1", 1, secret, config=insecure)


CHUNK = ChunkStoreConfig(
    segment_size=8192, checkpoint_residual_bytes=8192, initial_segments=4
)


def populate_objects(server, count=20, start=0):
    with TdbClient(*server.address) as client:
        with client.transaction() as txn:
            for i in range(start, start + count):
                txn.put({"n": i, "pad": "x" * 200})


class TestReplicaProofs:
    def test_replica_serves_verifiable_proofs(self, tmp_path):
        pdir = os.path.join(str(tmp_path), "primary")
        db = Database.create(pdir, CHUNK)
        server = TdbServer(db).start()
        try:
            populate_objects(server, 20)
            rdir = os.path.join(str(tmp_path), "replica")
            os.makedirs(rdir, exist_ok=True)
            shutil.copy(
                os.path.join(pdir, "secret.key"),
                os.path.join(rdir, "secret.key"),
            )
            with ReplicaApplier(
                rdir, *server.address, chunk_config=CHUNK
            ) as applier:
                assert applier.sync_once() is True
                stats = applier.stats_snapshot()
                assert stats["heads_mirrored"] > 0
                assert stats["head_forks"] == 0
                replica_server = applier.serve("127.0.0.1", 0)
                from repro.platform import FileSecretStore

                secret = FileSecretStore(
                    os.path.join(rdir, "secret.key"), create=False
                )
                with VerifyingClient(
                    *replica_server.address, secret, config=CHUNK
                ) as vc:
                    head = vc.latest_head()
                    cids = sorted(db.chunk_store.chunk_ids())
                    plaintext = vc.verified_read(cids[0])
                    assert plaintext == db.chunk_store.read(cids[0])
                    assert vc.verified_absent(max(cids) + 5)
                    # The replica's chain is the primary's chain.
                    replica_chain = vc.fetch_log()
                primary_heads = db.chunk_store.transparency.heads()
                assert [h.raw for h in replica_chain] == [
                    h.raw
                    for h in primary_heads[: len(replica_chain)]
                ]
        finally:
            server.stop()
            db.close()

    def test_replica_resync_keeps_mirroring(self, tmp_path):
        pdir = os.path.join(str(tmp_path), "primary")
        db = Database.create(pdir, CHUNK)
        server = TdbServer(db).start()
        try:
            populate_objects(server, 10)
            rdir = os.path.join(str(tmp_path), "replica")
            os.makedirs(rdir, exist_ok=True)
            shutil.copy(
                os.path.join(pdir, "secret.key"),
                os.path.join(rdir, "secret.key"),
            )
            with ReplicaApplier(
                rdir, *server.address, chunk_config=CHUNK
            ) as applier:
                assert applier.sync_once() is True
                first = applier.stats_snapshot()["heads_mirrored"]
                populate_objects(server, 10, start=10)
                assert applier.sync_once() is True
                assert applier.stats_snapshot()["heads_mirrored"] > first
                assert applier.sync_once() is False  # converged
        finally:
            server.stop()
            db.close()


class TestTools:
    def _make_db(self, tmp_path, count=10):
        directory = os.path.join(str(tmp_path), "db")
        db = Database.create(directory)
        store = db.chunk_store
        for i in range(count):
            cid = store.allocate_chunk_id()
            store.write(cid, f"tool-chunk-{i}".encode() * 2)
        db.close()
        return directory

    def test_stats_prints_head(self, tmp_path, capsys):
        from repro import tools

        directory = self._make_db(tmp_path)
        assert tools.main(["stats", directory]) == 0
        out = capsys.readouterr().out
        assert "head log length" in out
        assert "head root" in out

    def test_heads_lists_the_chain(self, tmp_path, capsys):
        from repro import tools

        directory = self._make_db(tmp_path)
        assert tools.main(["heads", directory]) == 0
        out = capsys.readouterr().out
        assert "signed head(s)" in out
        assert "head #0" in out

    def test_inspect_mentions_the_head(self, tmp_path, capsys):
        from repro import tools

        directory = self._make_db(tmp_path)
        assert tools.main(["inspect", directory]) == 0
        assert "signed head" in capsys.readouterr().out

    def test_audit_local_ok(self, tmp_path, capsys):
        from repro import tools

        directory = self._make_db(tmp_path)
        assert tools.main(["audit", directory]) == 0
        out = capsys.readouterr().out
        assert "AUDIT OK" in out
        assert "tip binding: OK" in out

    def test_audit_against_live_primary(self, tmp_path, capsys):
        from repro import tools

        directory = self._make_db(tmp_path)
        db = Database.open_existing(directory)
        server = TdbServer(db).start()
        try:
            host, port = server.address
            # Audit a mirror copy of the primary's directory against the
            # live server: one history, no forks.
            mirror = os.path.join(str(tmp_path), "mirror")
            shutil.copytree(directory, mirror)
            code = tools.main(
                ["audit", mirror, "--primary", f"{host}:{port}"]
            )
        finally:
            server.stop()
            db.close()
        out = capsys.readouterr().out
        assert code == 0, out
        assert "cross-check: OK" in out

    def test_audit_flags_truncated_log(self, tmp_path, capsys):
        from repro import tools
        from repro.platform import FileSecretStore, FileUntrustedStore

        directory = self._make_db(tmp_path)
        # Push the database a few generations forward so truncating the
        # log back to its first head lags the master past the one-
        # checkpoint crash window.
        db = Database.open_existing(directory)
        store = db.chunk_store
        for _ in range(3):
            cid = store.allocate_chunk_id()
            store.write(cid, b"advance" * 4)
            store.checkpoint(force=True)
        uuid = store.db_uuid
        hash_size = store.hash_size
        db.close()
        untrusted = FileUntrustedStore(os.path.join(directory, "data"))
        secret = FileSecretStore(
            os.path.join(directory, "secret.key"), create=False
        )
        log = TransparencyLog.load(
            untrusted, secret, uuid, hash_size, writable=True
        )
        assert len(log) > 2
        log.truncate_to(0)
        code = tools.main(["audit", directory])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL binding" in out

    def _advanced_log(self, tmp_path, checkpoints):
        """A closed database ``checkpoints`` forced checkpoints past
        creation, and its head log opened writable behind its back."""
        from repro.platform import FileSecretStore, FileUntrustedStore

        directory = self._make_db(tmp_path)
        db = Database.open_existing(directory)
        store = db.chunk_store
        for _ in range(checkpoints):
            cid = store.allocate_chunk_id()
            store.write(cid, b"advance" * 4)
            store.checkpoint(force=True)
        uuid, hash_size = store.db_uuid, store.hash_size
        db.close()
        untrusted = FileUntrustedStore(os.path.join(directory, "data"))
        secret = FileSecretStore(
            os.path.join(directory, "secret.key"), create=False
        )
        log = TransparencyLog.load(
            untrusted, secret, uuid, hash_size, writable=True
        )
        return directory, untrusted, log

    def test_open_refuses_a_log_lagging_by_more_than_one(self, tmp_path, capsys):
        from repro import tools

        directory, untrusted, log = self._advanced_log(tmp_path, 4)
        log.truncate_to(0)
        untrusted.close()
        # Only a crash between a master write and its head append makes
        # the log lag, and by one generation: signing over a longer gap
        # would launder a truncated history.
        with pytest.raises(TamperDetectedError, match="truncated"):
            Database.open_existing(directory)
        assert tools.main(["audit", directory]) == 1
        assert "FAIL binding" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["depth", "counter"])
    def test_tip_binds_every_signed_field(self, tmp_path, capsys, field):
        from repro import tools

        directory, untrusted, log = self._advanced_log(tmp_path, 1)
        tip = log.tip()
        log.truncate_to(tip.index - 1)
        log.append(
            generation=tip.generation,
            seqno=tip.seqno,
            counter=tip.counter + (field == "counter"),
            depth=tip.depth + (field == "depth"),
            root_digest=None if tip.empty_root else tip.root_digest,
        )
        untrusted.close()
        assert tools.main(["audit", directory]) == 1
        assert "FAIL binding" in capsys.readouterr().out
        with pytest.raises(TamperDetectedError, match="does not match"):
            Database.open_existing(directory)
