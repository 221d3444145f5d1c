"""Adversarial tests for the proof subsystem.

The property the transparency log and Merkle proofs must deliver: a
verifier that holds only the device secret and its own configuration
rejects *every* tampered proof, head, payload, or chain link with a
typed security error — and catches forked and rolled-back servers.
Hypothesis drives the single-bit-flip property; the fork and rollback
scenarios run over real servers and real directory copies.
"""

from __future__ import annotations

import contextlib
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig
from repro.crypto import create_hash_engine, create_payload_cipher
from repro.db import Database
from repro.errors import (
    ForkDetectedError,
    ProofError,
    RollbackDetectedError,
    TamperDetectedError,
)
from repro.platform import (
    FileSecretStore,
    MemoryOneWayCounter,
    MemorySecretStore,
    MemoryUntrustedStore,
)
from repro.proofs import (
    HEAD_LOG_FILE,
    ChunkProof,
    HeadVerifier,
    ProofService,
    TransparencyLog,
    VerifyingClient,
    verify_proof,
)
from repro.proofs.client import reconcile_heads
from repro.replication import ReplicaApplier
from repro.server import TdbClient, TdbServer

SECRET = b"hostile-proofs-secret-0123456789"

SECURITY_ERRORS = (TamperDetectedError, ProofError)


class ProofFixture:
    """One store, one served proof, one consistency chain — attack bait."""

    def __init__(self):
        self.untrusted = MemoryUntrustedStore()
        self.secret = MemorySecretStore(SECRET)
        self.counter = MemoryOneWayCounter()
        self.config = ChunkStoreConfig()
        self.store = ChunkStore.format(
            self.untrusted, self.secret, self.counter
        )
        self.ids = []
        for i in range(30):
            cid = self.store.allocate_chunk_id()
            self.store.write(cid, f"hostile-{i}-".encode() * 8)
            self.ids.append(cid)
        self.store.checkpoint(force=True)
        self.service = ProofService(self.store)
        self.head, self.proof = self.service.prove(self.ids[11])
        log = self.store.transparency
        self.chain_raws = self.service.consistency(0, len(log) - 1)
        profile = self.config.security
        self.engine = create_hash_engine(profile.hash_name)
        self.cipher = create_payload_cipher(
            profile.cipher_name,
            self.secret.derive_key("tdb-chunk-encryption", 32),
        )
        self.verifier = HeadVerifier(
            self.secret, self.store.db_uuid, self.engine.digest_size
        )

    def verify(self, proof, head_raw):
        """Exactly what a verifying client does with served material."""
        head = self.verifier.verify_signature(head_raw)
        return verify_proof(
            proof,
            head,
            fanout=self.config.map_fanout,
            hash_size=self.engine.digest_size,
            digest=self.engine.digest,
            decrypt=self.cipher.decrypt,
        )


_FIXTURE = None


def fixture() -> ProofFixture:
    global _FIXTURE
    if _FIXTURE is None:
        _FIXTURE = ProofFixture()
    return _FIXTURE


def flip(data: bytes, position: float, bit: int) -> bytes:
    """Flip one bit at a position scaled into the buffer."""
    index = min(int(position * len(data)), len(data) - 1)
    out = bytearray(data)
    out[index] ^= 1 << bit
    return bytes(out)


class TestBitFlipProperty:
    def test_clean_material_verifies(self):
        fx = fixture()
        plaintext = fx.verify(fx.proof, fx.head.raw)
        assert plaintext == fx.store.read(fx.proof.chunk_id)
        assert fx.verifier.verify_chain(fx.chain_raws)

    @settings(max_examples=120, deadline=None)
    @given(position=st.floats(min_value=0.0, max_value=0.999),
           bit=st.integers(min_value=0, max_value=7))
    def test_any_flip_in_the_head_is_rejected(self, position, bit):
        fx = fixture()
        tampered = flip(fx.head.raw, position, bit)
        with pytest.raises(SECURITY_ERRORS):
            fx.verify(fx.proof, tampered)

    @settings(max_examples=120, deadline=None)
    @given(node=st.integers(min_value=0, max_value=10 ** 6),
           position=st.floats(min_value=0.0, max_value=0.999),
           bit=st.integers(min_value=0, max_value=7))
    def test_any_flip_in_a_proof_node_is_rejected(self, node, position, bit):
        fx = fixture()
        nodes = list(fx.proof.nodes)
        target = node % len(nodes)
        nodes[target] = flip(nodes[target], position, bit)
        tampered = ChunkProof(
            chunk_id=fx.proof.chunk_id,
            depth=fx.proof.depth,
            present=fx.proof.present,
            nodes=nodes,
            payload=fx.proof.payload,
        )
        with pytest.raises(SECURITY_ERRORS):
            fx.verify(tampered, fx.head.raw)

    @settings(max_examples=120, deadline=None)
    @given(position=st.floats(min_value=0.0, max_value=0.999),
           bit=st.integers(min_value=0, max_value=7))
    def test_any_flip_in_the_payload_is_rejected(self, position, bit):
        fx = fixture()
        tampered = ChunkProof(
            chunk_id=fx.proof.chunk_id,
            depth=fx.proof.depth,
            present=fx.proof.present,
            nodes=fx.proof.nodes,
            payload=flip(fx.proof.payload, position, bit),
        )
        with pytest.raises(SECURITY_ERRORS):
            fx.verify(tampered, fx.head.raw)

    @settings(max_examples=120, deadline=None)
    @given(entry=st.integers(min_value=0, max_value=10 ** 6),
           position=st.floats(min_value=0.0, max_value=0.999),
           bit=st.integers(min_value=0, max_value=7))
    def test_any_flip_in_a_chain_link_is_rejected(self, entry, position, bit):
        fx = fixture()
        raws = list(fx.chain_raws)
        target = entry % len(raws)
        raws[target] = flip(raws[target], position, bit)
        with pytest.raises(SECURITY_ERRORS):
            fx.verifier.verify_chain(raws)

    def test_forged_absence_is_rejected(self):
        # A server claiming a *present* chunk is absent cannot produce a
        # verifying proof: the nodes still walk to a live leaf.
        fx = fixture()
        forged = ChunkProof(
            chunk_id=fx.proof.chunk_id,
            depth=fx.proof.depth,
            present=False,
            nodes=fx.proof.nodes,
            payload=None,
        )
        with pytest.raises(SECURITY_ERRORS):
            fx.verify(forged, fx.head.raw)

    def test_swapped_payload_from_other_chunk_is_rejected(self):
        fx = fixture()
        _, other = fx.service.prove(fx.ids[12])
        forged = ChunkProof(
            chunk_id=fx.proof.chunk_id,
            depth=fx.proof.depth,
            present=True,
            nodes=fx.proof.nodes,
            payload=other.payload,
        )
        with pytest.raises(SECURITY_ERRORS):
            fx.verify(forged, fx.head.raw)


# ---------------------------------------------------------------------------
# The one pin reconciler
# ---------------------------------------------------------------------------

_UUID = bytes(range(16))
_HASH = 20


def signed_chain(seqnos):
    """Raw entries of a head log signing one head per seqno."""
    log = TransparencyLog.create(
        MemoryUntrustedStore(), MemorySecretStore(SECRET), _UUID, _HASH
    )
    for generation, seqno in enumerate(seqnos, start=1):
        log.append(generation, seqno, seqno, 1, bytes([seqno]) * _HASH)
    return [head.raw for head in log.heads()]


#: Two histories sharing heads #0..#2 and diverging from #3 on.
CHAIN = signed_chain([1, 2, 3, 4, 5])
FORK = signed_chain([1, 2, 3, 40, 50])


def _flipped(raws, index):
    out = list(raws)
    out[index] = flip(out[index], 0.5, 3)
    return out


def _refusing(lo, hi):
    raise ProofError(f"head-log range [{lo}, {hi}] is not held")


# (case, pinned index or None, served head, served chain, outcome):
# an outcome is the number of new heads returned, or the error class.
RECONCILE_CASES = [
    ("first contact", None, CHAIN[4], CHAIN, 5),
    ("first contact, chain ends elsewhere", None, CHAIN[4], FORK, TamperDetectedError),
    ("first contact, broken link", None, CHAIN[4], _flipped(CHAIN, 2), TamperDetectedError),
    ("same index, equal", 3, CHAIN[3], CHAIN, 0),
    ("same index, different", 3, FORK[3], FORK, ForkDetectedError),
    ("newer, extending", 1, CHAIN[4], CHAIN, 3),
    ("newer, not extending", 3, FORK[4], FORK, ForkDetectedError),
    ("newer, broken link", 1, CHAIN[4], _flipped(CHAIN, 3), TamperDetectedError),
    ("older, ancestor", 4, CHAIN[1], CHAIN, 0),
    ("older, not an ancestor", 4, CHAIN[3], FORK, ForkDetectedError),
    ("older, chain misses the pin", 4, CHAIN[1], FORK, RollbackDetectedError),
    ("older, server cannot prove", 4, CHAIN[1], None, RollbackDetectedError),
    ("forged served head", 1, _flipped(CHAIN, 4)[4], CHAIN, TamperDetectedError),
]


class TestReconcileHeads:
    @pytest.mark.parametrize(
        "pin_index,served,chain,outcome",
        [case[1:] for case in RECONCILE_CASES],
        ids=[case[0] for case in RECONCILE_CASES],
    )
    def test_case(self, pin_index, served, chain, outcome):
        verifier = HeadVerifier(MemorySecretStore(SECRET), _UUID, _HASH)
        pin = (
            verifier.verify_chain(CHAIN)[pin_index]
            if pin_index is not None
            else None
        )
        fetch = (
            _refusing if chain is None else lambda lo, hi: chain[lo:hi + 1]
        )
        if isinstance(outcome, int):
            head, fresh = reconcile_heads(verifier, pin, served, fetch)
            assert head.raw == served
            assert [h.raw for h in fresh] == (CHAIN[5 - outcome:] if outcome else [])
        else:
            with pytest.raises(outcome):
                reconcile_heads(verifier, pin, served, fetch)


# ---------------------------------------------------------------------------
# Fork and rollback over real servers
# ---------------------------------------------------------------------------

def grow(db, count=5, tag="x"):
    store = db.chunk_store
    for i in range(count):
        cid = store.allocate_chunk_id()
        store.write(cid, f"{tag}-{i}-".encode() * 16)
    store.checkpoint(force=True)


@contextlib.contextmanager
def served(directory):
    db = Database.open_existing(directory)
    server = TdbServer(db).start()
    try:
        yield server, db
    finally:
        server.stop()
        db.close()


def repoint(vc: VerifyingClient, server) -> None:
    """Aim an existing verifying client (and its pin) at another server."""
    vc.client.close()
    vc.client = TdbClient(*server.address)


class TestForkAndRollback:
    def _fork_dirs(self, tmp_path):
        """Two databases sharing one history prefix, then diverging."""
        dir_a = os.path.join(str(tmp_path), "node-a")
        db = Database.create(dir_a)
        grow(db, 5, tag="common")
        db.close()
        dir_b = os.path.join(str(tmp_path), "node-b")
        shutil.copytree(dir_a, dir_b)
        db = Database.open_existing(dir_a)
        grow(db, 3, tag="fork-a")
        db.close()
        db = Database.open_existing(dir_b)
        grow(db, 3, tag="fork-b")
        db.close()
        return dir_a, dir_b

    def test_auditor_catches_divergent_signed_heads(self, tmp_path):
        # The path ``tools audit --primary`` takes: a verifying client
        # pinned to node A's local tip asks node B for its head.
        dir_a, dir_b = self._fork_dirs(tmp_path)
        untrusted, secret, counter, _ = Database._file_parts(dir_a)
        store = ChunkStore.open(untrusted, secret, counter, read_only=True)
        try:
            uuid, tip = store.db_uuid, store.transparency.tip()
        finally:
            store.close()
        with served(dir_b) as (server_b, _):
            with VerifyingClient(*server_b.address, secret) as vc:
                vc.db_uuid, vc.pinned = uuid, tip
                with pytest.raises(ForkDetectedError):
                    vc.latest_head()
                assert vc.pinned is tip  # B's chain never replaced the pin

    def test_client_rejects_equivocating_server(self, tmp_path):
        dir_a, dir_b = self._fork_dirs(tmp_path)
        secret = FileSecretStore(
            os.path.join(dir_a, "secret.key"), create=False
        )
        vc = VerifyingClient("127.0.0.1", 1, secret, client=_DeadClient())
        try:
            with served(dir_a) as (server_a, _):
                repoint(vc, server_a)
                vc.latest_head()
                pinned = vc.pinned.index
            with served(dir_b) as (server_b, _):
                repoint(vc, server_b)
                with pytest.raises((ForkDetectedError,
                                    RollbackDetectedError)):
                    vc.latest_head()
            assert vc.pinned.index == pinned  # the pin never regressed
        finally:
            vc.client.close()

    def test_client_rejects_rolled_back_server(self, tmp_path):
        directory = os.path.join(str(tmp_path), "primary")
        db = Database.create(directory)
        grow(db, 5, tag="before")
        db.close()
        stale = os.path.join(str(tmp_path), "stale")
        shutil.copytree(directory, stale)  # the attacker's snapshot
        db = Database.open_existing(directory)
        grow(db, 5, tag="after")
        db.close()
        secret = FileSecretStore(
            os.path.join(directory, "secret.key"), create=False
        )
        vc = VerifyingClient("127.0.0.1", 1, secret, client=_DeadClient())
        try:
            with served(directory) as (server, _):
                repoint(vc, server)
                vc.latest_head()
                pinned = vc.pinned.index
            # The server comes back on the attacker's stale snapshot —
            # image, head log, and counter all rolled back together.
            with served(stale) as (server, _):
                repoint(vc, server)
                with pytest.raises(RollbackDetectedError):
                    vc.latest_head()
            assert vc.pinned.index == pinned
        finally:
            vc.client.close()

    def test_replica_applier_catches_forked_primary(self, tmp_path):
        dir_a, dir_b = self._fork_dirs(tmp_path)
        # node-b is ahead of node-a so the applier cannot dismiss it as
        # merely stale: it must fetch heads and hit the fork.
        db = Database.open_existing(dir_b)
        grow(db, 3, tag="fork-b-more")
        db.close()
        rdir = os.path.join(str(tmp_path), "replica")
        os.makedirs(rdir, exist_ok=True)
        shutil.copy(
            os.path.join(dir_a, "secret.key"),
            os.path.join(rdir, "secret.key"),
        )
        with served(dir_a) as (server_a, _):
            with ReplicaApplier(rdir, *server_a.address) as applier:
                assert applier.sync_once() is True
        with served(dir_b) as (server_b, _):
            with ReplicaApplier(rdir, *server_b.address) as applier:
                with pytest.raises(ForkDetectedError):
                    applier.sync_once()
                assert applier.stats_snapshot()["head_forks"] == 1

    def test_audit_primary_catches_a_fork(self, tmp_path, capsys):
        from repro import tools

        dir_a, dir_b = self._fork_dirs(tmp_path)
        with served(dir_b) as (server_b, _):
            host, port = server_b.address
            code = tools.main(["audit", dir_a, "--primary", f"{host}:{port}"])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "FAIL remote: ForkDetectedError" in out

    def test_audit_primary_catches_a_rollback(self, tmp_path, capsys):
        from repro import tools

        directory = os.path.join(str(tmp_path), "primary")
        db = Database.create(directory)
        grow(db, 5, tag="before")
        db.close()
        stale = os.path.join(str(tmp_path), "stale")
        shutil.copytree(directory, stale)
        db = Database.open_existing(directory)
        grow(db, 5, tag="after")
        db.close()
        with served(stale) as (server, _):
            host, port = server.address
            code = tools.main(["audit", directory, "--primary", f"{host}:{port}"])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "FAIL remote: RollbackDetectedError" in out


class _DeadClient:
    """Placeholder wire client; tests repoint before the first call."""

    def close(self) -> None:  # pragma: no cover - trivial
        pass


class TestHeadLogByteSweep:
    def test_every_flip_is_detected_or_healed(self, tmp_path):
        """Sweep bit-flips across the whole head.log of a closed store:
        each one must either raise a typed security error at open or
        open into the exact committed state (torn-tail healing)."""
        directory = os.path.join(str(tmp_path), "db")
        db = Database.create(directory)
        grow(db, 8, tag="sweep")
        db.close()
        data_dir = os.path.join(directory, "data")
        log_path = os.path.join(data_dir, HEAD_LOG_FILE)
        with open(log_path, "rb") as fh:
            baseline = fh.read()
        db = Database.open_existing(directory)
        expected_ids = sorted(db.chunk_store.chunk_ids())
        expected = {
            cid: db.chunk_store.read(cid) for cid in expected_ids[:3]
        }
        db.close()
        with open(log_path, "rb") as fh:
            baseline = fh.read()
        detected = healed = 0
        step = max(1, len(baseline) // 96)
        for offset in range(0, len(baseline), step):
            tampered = bytearray(baseline)
            tampered[offset] ^= 0x04
            with open(log_path, "wb") as fh:
                fh.write(bytes(tampered))
            try:
                db = Database.open_existing(directory)
            except (TamperDetectedError, ProofError):
                detected += 1
            else:
                for cid, payload in expected.items():
                    assert db.chunk_store.read(cid) == payload
                tip = db.chunk_store.transparency.tip()
                assert tip.generation == db.chunk_store.generation
                db.close()
                healed += 1
            finally:
                with open(log_path, "wb") as fh:
                    fh.write(baseline)
        # Flips in entry bodies must dominate; healing is only for the
        # few offsets that make the tail look torn (or dead header
        # bytes like the advisory scheme byte).
        assert detected > 0
        assert detected + healed == len(range(0, len(baseline), step))
