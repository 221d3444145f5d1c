"""The ``repro.tools`` subcommand table, driven row by row.

Every row that opens its directory read-only or in salvage mode must
leave the directory's bytes alone and hold no descriptor under it once
it returns, on a healthy store and on one that does not open.  A store
formatted with its own segment size and fanout opens without being told
them, through the library and through the CLI.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from repro import tools
from repro.chunkstore.master import MASTER_FILES
from repro.config import ChunkStoreConfig
from repro.db import Database

FD_DIR = "/proc/self/fd"


def fingerprint(directory):
    """Relative path -> content digest of every file under ``directory``."""
    found = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
    return found


def held_under(directory):
    """Descriptors this process holds on files under ``directory``."""
    held = []
    for fd in os.listdir(FD_DIR):
        try:
            target = os.readlink(os.path.join(FD_DIR, fd))
        except OSError:
            continue
        if target.startswith(directory + os.sep):
            held.append(target)
    return held


def read_only_invocations(directory, out_dir):
    """``argv`` of every row, and every row flag, that opens the
    directory read-only or in salvage mode."""
    parser = tools._parser()
    for command in tools.COMMANDS:
        if command.opens is None:
            continue
        extra = [out_dir for flags, _ in command.args if not flags[0].startswith("-")]
        base = [command.name, directory, *extra]
        variants = [base] + [
            base + [flags[0]]
            for flags, options in command.args
            if options.get("dest") == "opens"
        ]
        for argv in variants:
            if parser.parse_args(argv).opens in (tools.READ_ONLY, tools.SALVAGE):
                yield argv


@pytest.fixture
def populated_dir(tmp_path):
    directory = str(tmp_path / "db")
    db = Database.create(directory)
    store = db.chunk_store
    for i in range(20):
        store.write(store.allocate_chunk_id(), f"chunk-{i}".encode() * 20)
    backups = db.backup_store()
    backups.create_full(store, "full-1")
    backups.close()
    store.write(store.allocate_chunk_id(), b"after the backup" * 8)
    db.close()
    return directory


def test_the_table_declares_read_only_rows():
    names = {argv[0] for argv in read_only_invocations("d", "o")}
    assert names == {"inspect", "verify", "scrub", "salvage-export", "stats", "heads", "audit"}


@pytest.mark.skipif(not os.path.isdir(FD_DIR), reason="needs /proc/self/fd")
def test_read_only_rows_write_nothing_and_close_the_store(populated_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "exported")
    before = fingerprint(populated_dir)
    for argv in read_only_invocations(populated_dir, out_dir):
        assert tools.main(argv) == 0, (argv, capsys.readouterr())
        assert fingerprint(populated_dir) == before, argv
        assert held_under(populated_dir) == [], argv
    capsys.readouterr()


@pytest.mark.skipif(not os.path.isdir(FD_DIR), reason="needs /proc/self/fd")
def test_a_failing_open_leaves_no_store_open(populated_dir, tmp_path, capsys):
    # Both master records fail their MAC: the open reads them through
    # held descriptors, then refuses the store.
    for name in MASTER_FILES:
        path = os.path.join(populated_dir, "data", name)
        if os.path.exists(path):
            with open(path, "r+b") as handle:
                handle.seek(20)
                byte = handle.read(1)
                handle.seek(20)
                handle.write(bytes([byte[0] ^ 0xFF]))
    out_dir = str(tmp_path / "exported")
    before = fingerprint(populated_dir)
    for argv in read_only_invocations(populated_dir, out_dir):
        command = next(row for row in tools.COMMANDS if row.name == argv[0])
        code = tools.main(argv)
        out = capsys.readouterr()
        if command.open_fails_check:
            assert code == 1 and "FAIL open" in out.out, argv
        else:
            assert code == 2 and "Error" in out.err, argv
        assert fingerprint(populated_dir) == before, argv
        assert held_under(populated_dir) == [], argv


def test_store_reads_its_format_from_the_master(tmp_path):
    directory = str(tmp_path / "db")
    config = ChunkStoreConfig(segment_size=16 * 1024, map_fanout=16)
    Database.create(directory, chunk_config=config).close()

    db = Database.open_existing(directory)  # no chunk config given
    store = db.chunk_store
    assert (store.config.segment_size, store.config.map_fanout) == (16 * 1024, 16)
    for i in range(160):
        store.write(store.allocate_chunk_id(), bytes([i]) * 600)
    db.close()

    data = os.path.join(directory, "data")
    sizes = [
        os.path.getsize(os.path.join(data, name))
        for name in os.listdir(data)
        if name.startswith("seg-")
    ]
    # ~96 KB of payload: more segments than the format made, none of
    # them past the store's own 16 KB (the default is 64 KB).
    assert len(sizes) > config.initial_segments
    assert max(sizes) <= 16 * 1024

    result = subprocess.run(
        [sys.executable, "-m", "repro.tools", "verify", directory],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "VERIFY OK" in result.stdout
