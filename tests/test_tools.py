"""Tests for the admin CLI (inspect / verify)."""

from __future__ import annotations

import pytest

from repro import (
    BufferReader,
    BufferWriter,
    ClassRegistry,
    Database,
    Indexer,
    Persistent,
)
from repro.tools import main as tools_main


class Track(Persistent):
    class_id = "tools.track"

    def __init__(self, name="", plays=0):
        self.name = name
        self.plays = plays

    def pickle(self) -> bytes:
        return BufferWriter().write_str(self.name).write_int(self.plays).getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "Track":
        reader = BufferReader(data)
        return cls(reader.read_str(), reader.read_int())


def name_indexer():
    return Indexer("track-name", Track, lambda t: t.name, unique=True, kind="btree")


@pytest.fixture
def populated_db_dir(tmp_path):
    directory = str(tmp_path / "db")
    registry = ClassRegistry()
    registry.register(Track)
    db = Database.create(directory, registry=registry)
    db.register_indexer(name_indexer())
    with db.ctransaction() as ct:
        handle = ct.create_collection("tracks", name_indexer())
        for name in ("So What", "Freddie Freeloader", "Blue in Green"):
            handle.insert(Track(name, 1))
    backups = db.backup_store()
    backups.create_full(db.chunk_store, "full-1")
    backups.close()
    db.close()
    return directory


class TestInspect:
    def test_inspect_prints_summary(self, populated_db_dir, capsys):
        assert tools_main(["inspect", populated_db_dir]) == 0
        out = capsys.readouterr().out
        assert "security        : on" in out
        assert "tracks -> object" in out
        assert "collection of 3" in out
        assert "full-1: full" in out

    def test_inspect_missing_directory_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nothing")
        # StoreError is a TDBError: main converts it to exit code 2.
        assert tools_main(["inspect", missing]) == 2
        assert "secret store file missing" in capsys.readouterr().err
        # An open creates nothing: no directory, no secret, no data dir.
        assert not (tmp_path / "nothing").exists()


class TestVerify:
    def test_verify_clean_database(self, populated_db_dir, capsys):
        assert tools_main(["verify", populated_db_dir]) == 0
        out = capsys.readouterr().out
        assert "VERIFY OK" in out
        assert "chunks:" in out

    def test_verify_detects_corruption(self, populated_db_dir, capsys):
        import os

        data_dir = os.path.join(populated_db_dir, "data")
        # Corrupt the middle of the biggest segment file.
        segments = [
            name for name in os.listdir(data_dir) if name.startswith("seg-")
        ]
        target = max(
            segments, key=lambda n: os.path.getsize(os.path.join(data_dir, n))
        )
        path = os.path.join(data_dir, target)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size // 2)
            handle.write(b"\xde\xad\xbe\xef")
        code = tools_main(["verify", populated_db_dir])
        out = capsys.readouterr().out + capsys.readouterr().err
        assert code != 0

    def test_verify_detects_corrupt_backup(self, populated_db_dir, capsys):
        import os

        backup_path = os.path.join(populated_db_dir, "archive", "full-1")
        with open(backup_path, "r+b") as handle:
            handle.seek(150)
            handle.write(b"\x00\x00\x00\x00")
        code = tools_main(["verify", populated_db_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL backup full-1" in out
        assert "VERIFY FAILED" in out


def _corrupt_biggest_segment(directory):
    import os

    data_dir = os.path.join(directory, "data")
    segments = [n for n in os.listdir(data_dir) if n.startswith("seg-")]
    target = max(
        segments, key=lambda n: os.path.getsize(os.path.join(data_dir, n))
    )
    path = os.path.join(data_dir, target)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        original = handle.read(1)
        handle.seek(-1, 1)
        handle.write(bytes([original[0] ^ 0xFF]))


class TestScrubCommand:
    def test_scrub_clean_database(self, populated_db_dir, capsys):
        assert tools_main(["scrub", populated_db_dir]) == 0
        assert "clean" in capsys.readouterr().out

    def test_scrub_reports_damage(self, populated_db_dir, capsys):
        _corrupt_biggest_segment(populated_db_dir)
        assert tools_main(["scrub", populated_db_dir, "--salvage"]) == 1
        out = capsys.readouterr().out
        assert "damaged" in out


class TestRepairCommand:
    def test_repair_heals_from_backup(self, populated_db_dir, capsys):
        _corrupt_biggest_segment(populated_db_dir)
        assert tools_main(["repair", populated_db_dir]) == 0
        out = capsys.readouterr().out
        assert "repair action:" in out
        assert "clean" in out
        # The healed store verifies end to end.
        assert tools_main(["verify", populated_db_dir]) == 0

    def test_repair_without_backups(self, tmp_path, capsys):
        directory = str(tmp_path / "db")
        db = Database.create(directory)
        db.close()
        assert tools_main(["repair", directory]) == 2
        assert "no usable backups" in capsys.readouterr().out


class TestSalvageExportCommand:
    def test_export_surviving_chunks(self, populated_db_dir, tmp_path, capsys):
        import os

        _corrupt_biggest_segment(populated_db_dir)
        out_dir = str(tmp_path / "rescued")
        code = tools_main(["salvage-export", populated_db_dir, out_dir])
        out = capsys.readouterr().out
        assert code in (0, 1)  # 1 when the flipped byte hit live data
        assert "exported" in out
        names = os.listdir(out_dir)
        assert "MANIFEST.tsv" in names
        chunks = [n for n in names if n.startswith("chunk-")]
        with open(os.path.join(out_dir, "MANIFEST.tsv")) as fh:
            manifest = fh.read().splitlines()
        assert len(manifest) == len(chunks)


class TestScrubSalvageDegraded:
    def test_rolled_back_image_exits_nonzero_even_with_clean_tree(
        self, tmp_path, capsys
    ):
        """A replayed (rolled-back) image Merkle-verifies perfectly — the
        damage lives in the counter skew, and the exit code must say so."""
        import os
        import shutil

        directory = str(tmp_path / "db")
        db = Database.create(directory)
        cid = db.chunk_store.allocate_chunk_id()
        db.chunk_store.commit({cid: b"epoch-one" * 8}, durable=True)
        db.close()

        data_dir = os.path.join(directory, "data")
        stale = str(tmp_path / "stale-data")
        shutil.copytree(data_dir, stale)

        db = Database.open_existing(directory)
        cid2 = db.chunk_store.allocate_chunk_id()
        db.chunk_store.commit({cid2: b"epoch-two" * 8}, durable=True)
        db.close()

        # The replay attack: put the old image back; the hardware counter
        # (outside data/) kept its advanced value.
        shutil.rmtree(data_dir)
        shutil.copytree(stale, data_dir)

        # A plain open refuses outright; salvage opens read-only but must
        # still report an unhealthy store through the exit code.
        assert tools_main(["scrub", directory]) == 2
        capsys.readouterr()
        assert tools_main(["scrub", directory, "--salvage"]) == 1
        out = capsys.readouterr().out
        assert "counter skew" in out
        assert "clean" in out  # the surviving tree itself verifies


class TestServeCommand:
    def test_serve_database_serves_the_wire_protocol(self, tmp_path):
        import threading

        from repro.server import TdbClient
        from repro.tools import serve_database

        directory = str(tmp_path / "served-db")
        Database.create(directory).close()

        ready: dict = {}
        got_ready = threading.Event()
        stop = threading.Event()

        def on_ready(host, port):
            ready["addr"] = (host, port)
            got_ready.set()

        thread = threading.Thread(
            target=serve_database,
            args=(directory, "127.0.0.1", 0),
            kwargs={"ready_callback": on_ready, "stop_event": stop},
            daemon=True,
        )
        thread.start()
        try:
            assert got_ready.wait(10), "server never reported ready"
            host, port = ready["addr"]
            with TdbClient(host, port) as client:
                with client.transaction("collection") as ct:
                    ct.create_collection("notes", "title")
                    ct.insert("notes", {"title": "remote", "body": "works"})
                with client.transaction("collection") as ct:
                    titles = [v["title"] for v in ct.iterate("notes")]
                assert titles == ["remote"]
                with client.transaction() as txn:
                    oid = txn.put({"added": "remotely"})
                with client.transaction() as txn:
                    assert txn.get(oid) == {"added": "remotely"}
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

        # What the remote clients wrote is durably on disk.
        db = Database.open_existing(directory)
        from repro.server.server import RemoteRecord

        db.register_class(RemoteRecord)
        with db.transaction() as txn:
            assert txn.open_readonly(oid, RemoteRecord).deref().value == {
                "added": "remotely"
            }
        db.close()

    def test_serve_help_lists_tuning_flags(self, capsys):
        with pytest.raises(SystemExit):
            tools_main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--resume-grace" in out
        assert "--idle-timeout" in out

    @pytest.mark.parametrize("flag", ["--max-delay", "--max-pending"])
    def test_serve_refuses_group_commit_flags(self, flag, capsys):
        # The batching window and the commit queue bound are constants
        # of the group-commit coordinator, not serve options.
        with pytest.raises(SystemExit) as refused:
            tools_main(["serve", "unused-dir", flag, "1"])
        assert refused.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReplicationCommands:
    @staticmethod
    def _serve_in_thread(directory):
        import threading

        from repro.tools import serve_database

        ready: dict = {}
        got_ready = threading.Event()
        stop = threading.Event()

        def on_ready(host, port):
            ready["addr"] = (host, port)
            got_ready.set()

        thread = threading.Thread(
            target=serve_database,
            args=(directory, "127.0.0.1", 0),
            kwargs={"ready_callback": on_ready, "stop_event": stop},
            daemon=True,
        )
        thread.start()
        assert got_ready.wait(10), "server never reported ready"
        return ready["addr"], stop, thread

    def test_replicate_once_then_promote(self, tmp_path, capsys):
        import os
        import shutil

        from repro.server import TdbClient

        pdir = str(tmp_path / "primary")
        Database.create(pdir).close()
        (host, port), stop, thread = self._serve_in_thread(pdir)
        rdir = str(tmp_path / "replica")
        os.makedirs(rdir)
        shutil.copy(
            os.path.join(pdir, "secret.key"), os.path.join(rdir, "secret.key")
        )
        try:
            with TdbClient(host, port) as client:
                with client.transaction() as txn:
                    oid = txn.put({"city": "Osaka"})
            primary = f"{host}:{port}"
            assert tools_main(["replicate", rdir, "--primary", primary,
                               "--once"]) == 0
            assert "installed new image" in capsys.readouterr().out
            assert tools_main(["replicate", rdir, "--primary", primary,
                               "--once"]) == 0
            assert "already up to date" in capsys.readouterr().out
        finally:
            stop.set()
            thread.join(timeout=10)

        # The primary is gone; this node takes over and accepts writes.
        assert tools_main(["promote", rdir]) == 0
        assert "promoted" in capsys.readouterr().out
        db = Database.open_existing(rdir)
        from repro.server.server import RemoteRecord

        db.register_class(RemoteRecord)
        with db.transaction() as txn:
            assert txn.open_readonly(oid, RemoteRecord).deref().value == {
                "city": "Osaka"
            }
            txn.insert(RemoteRecord({"written": "after promote"}))
        db.close()

    def test_stats_and_inspect_open_a_replica_directory(self, tmp_path, capsys):
        import os
        import shutil

        from repro.replication import ReplicaApplier
        from repro.server import TdbClient, TdbServer

        pdir = str(tmp_path / "primary")
        db = Database.create(pdir)
        server = TdbServer(db).start()
        rdir = str(tmp_path / "replica")
        os.makedirs(rdir)
        shutil.copy(
            os.path.join(pdir, "secret.key"), os.path.join(rdir, "secret.key")
        )
        try:
            with TdbClient(*server.address) as client:
                with client.transaction() as txn:
                    txn.bind("k", txn.put({"n": 1}))
            with ReplicaApplier(rdir, *server.address) as app:
                assert app.sync_once() is True
            seqno = db.chunk_store.commit_seqno
        finally:
            server.stop()
            db.close()
        capsys.readouterr()
        for command in ("stats", "inspect"):
            assert tools_main([command, rdir]) == 0
            out = capsys.readouterr().out
            assert f"commit seqno    : {seqno}" in out

    def test_replicate_follow_serves_read_only(self, tmp_path):
        import os
        import shutil
        import threading

        from repro.errors import ReadOnlyReplicaError
        from repro.server import TdbClient
        from repro.tools import replicate_database

        pdir = str(tmp_path / "primary")
        Database.create(pdir).close()
        (host, port), pstop, pthread = self._serve_in_thread(pdir)
        rdir = str(tmp_path / "replica")
        os.makedirs(rdir)
        shutil.copy(
            os.path.join(pdir, "secret.key"), os.path.join(rdir, "secret.key")
        )
        try:
            with TdbClient(host, port) as client:
                with client.transaction() as txn:
                    oid = txn.put({"n": 1})
                    txn.bind("the-object", oid)

            rready: dict = {}
            rgot = threading.Event()
            rstop = threading.Event()

            def on_ready(rhost, rport):
                rready["addr"] = (rhost, rport)
                rgot.set()

            rthread = threading.Thread(
                target=replicate_database,
                args=(rdir, f"{host}:{port}"),
                kwargs={
                    "serve_port": 0,
                    "poll": 0.05,
                    "ready_callback": on_ready,
                    "stop_event": rstop,
                },
                daemon=True,
            )
            rthread.start()
            try:
                assert rgot.wait(10), "replica never reported ready"
                rhost, rport = rready["addr"]
                with TdbClient(rhost, rport) as client:
                    with client.transaction() as txn:
                        assert txn.get(txn.lookup("the-object"))["n"] == 1
                        with pytest.raises(ReadOnlyReplicaError):
                            txn.put({"write": "refused"})
                    # The follower picks up new primary commits.
                    with TdbClient(host, port) as pclient:
                        with pclient.transaction() as txn:
                            txn.put({"n": 2}, oid=oid)
                    deadline = threading.Event()
                    for _ in range(100):
                        with client.transaction() as txn:
                            if txn.get(oid)["n"] == 2:
                                break
                        deadline.wait(0.05)
                    with client.transaction() as txn:
                        assert txn.get(oid)["n"] == 2
            finally:
                rstop.set()
                rthread.join(timeout=10)
        finally:
            pstop.set()
            pthread.join(timeout=10)

    def test_cli_help_lists_replication_flags(self, capsys):
        with pytest.raises(SystemExit):
            tools_main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--max-pending" not in out
        assert "--no-quorum-seal" not in out
        assert "--shards" not in out  # the sharded layout is gone
        assert "--max-results" in out
        with pytest.raises(SystemExit) as refused:
            tools_main(["serve", "unused-dir", "--shards", "2"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            tools_main(["replicate", "--help"])
        out = capsys.readouterr().out
        assert "--primary" in out
        assert "--once" in out
        assert "--seed" in out
