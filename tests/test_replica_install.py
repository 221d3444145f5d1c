"""Replica install under crashes, and reads while a sync runs.

A replica builds each shipment in ``data.tmp/`` beside its served
``data/``, renames it to ``data.next/`` once verified, advances its
one-way counter, and only then switches directories.  The sweep here
crashes a second sync after each of its filesystem boundaries in turn
(every untrusted-store write, sync, truncate and delete, every hard
link, every rename, every directory removal, and every counter write), the systematic
schedule GlassDB (PAPERS.md) applies to a verifiable store.  After each
crash no sync runs again and no primary is reachable:
``open_replica_database`` and ``promote_replica`` must each open a copy
of the directory, and every object must read back as in the old image
or as in the new one.  Two planted bugs must each fail the sweep.
"""

from __future__ import annotations

import base64
import contextlib
import copy
import os
import shutil
import threading

import pytest

from repro.config import ChunkStoreConfig
from repro.db import Database
from repro.platform import FileOneWayCounter, FileUntrustedStore
from repro.replication import ReplicaApplier, open_replica_database, promote_replica
from repro.replication import applier as applier_module
from repro.server import TdbClient, TdbServer
from repro.server.server import RemoteRecord
from repro.testing.faults import InjectedCrash

CHUNK = ChunkStoreConfig(
    segment_size=8192, checkpoint_residual_bytes=8192, initial_segments=4
)
OLD_NAMES = [f"obj-{i}" for i in range(120)]
NEW_NAMES = [f"new-{i}" for i in range(6)]


def commit(server, values):
    """Bind each name to its value, updating the object a name already has."""
    with TdbClient(*server.address) as client:
        with client.transaction() as txn:
            for name, value in values.items():
                txn.bind(name, txn.put(value, oid=txn.lookup(name)))


def read_all(db):
    """Name -> value (``None`` when unbound) of every name either image binds."""
    db.register_class(RemoteRecord)
    with db.transaction() as txn:
        values = {}
        for name in OLD_NAMES + NEW_NAMES:
            oid = txn.lookup_name(name)
            values[name] = None if oid is None else txn.open_readonly(oid).value
    return values


def held_under(directory):
    prefix = os.path.realpath(directory) + os.sep
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", fd))
        except OSError:
            continue
        if target.startswith(prefix):
            held.append(target)
    return held


class RecordingClient:
    """Passes calls to the primary and keeps the last reply to each verb."""

    def __init__(self, inner):
        self.inner = inner
        self.replies = {}

    def call(self, op, **params):
        reply = self.inner.call(op, **params)
        self.replies[op] = copy.deepcopy(reply)
        return reply

    def close(self):
        self.inner.close()


class ReplayingClient:
    """Answers any sync of one recorded shipment, with the primary gone:
    a replica whose local bytes differ asks for other ranges."""

    def __init__(self, replies, segments, heads):
        self.replies = replies
        self.segments = segments
        self.heads = heads

    def call(self, op, **params):
        if op == "repl.segments":
            start = params["offset"]
            data = self.segments[params["segment"]][start:start + params["length"]]
            return {"data": base64.b64encode(data).decode("ascii")}
        if op == "log.consistency":
            entries = self.heads[params["from_index"]:params["to_index"] + 1]
            return {"entries": [base64.b64encode(raw).decode("ascii") for raw in entries]}
        return copy.deepcopy(self.replies[op])

    def close(self):
        pass


class CrashPlan:
    """Counts the filesystem boundaries under ``root``; crashes after the
    ``at``-th.  After the crash every boundary raises, as a dead process
    changes nothing more."""

    def __init__(self, root, at=None):
        self.root = os.path.realpath(root) + os.sep
        self.at = at
        self.count = 0
        self.dead = False

    def boundary(self, path, operation):
        if not os.path.realpath(path).startswith(self.root):
            return operation()
        if self.dead:
            raise InjectedCrash(f"the process is dead: {path}")
        result = operation()
        self.count += 1
        if self.count == self.at:
            self.dead = True
            raise InjectedCrash(f"crash after boundary {self.count}: {path}")
        return result


@contextlib.contextmanager
def boundaries(plan):
    """Route every filesystem boundary of an install through ``plan``."""
    with pytest.MonkeyPatch.context() as patch:
        for method in ("write", "sync", "truncate", "delete"):
            real = getattr(FileUntrustedStore, method)

            def store_op(self, name, *args, _real=real):
                return plan.boundary(
                    os.path.join(self.root, name), lambda: _real(self, name, *args)
                )

            patch.setattr(FileUntrustedStore, method, store_op)
        real_rename = applier_module._rename
        real_link = applier_module._link
        real_remove = applier_module._remove_tree
        real_persist = FileOneWayCounter._persist

        def remove_tree(path):
            if not os.path.isdir(path):
                return real_remove(path)  # nothing to remove: no boundary
            return plan.boundary(path, lambda: real_remove(path))

        patch.setattr(
            applier_module,
            "_rename",
            lambda source, target: plan.boundary(
                source, lambda: real_rename(source, target)
            ),
        )
        patch.setattr(
            applier_module,
            "_link",
            lambda source, target: plan.boundary(target, lambda: real_link(source, target)),
        )
        patch.setattr(applier_module, "_remove_tree", remove_tree)
        patch.setattr(
            FileOneWayCounter,
            "_persist",
            lambda self, value: plan.boundary(
                self.path, lambda: real_persist(self, value)
            ),
        )
        yield plan


def crashed_sync(directory, replay, at=None):
    """Run one replayed sync on ``directory``, crashing after boundary ``at``;
    returns the number of boundaries it passed."""
    with boundaries(CrashPlan(directory, at)) as plan:
        applier = ReplicaApplier(directory, client=replay, chunk_config=CHUNK)
        try:
            applier.sync_once()
        except InjectedCrash:
            assert at is not None, "the dry run crashed"
        else:
            assert at is None, f"the sync passed boundary {at} without crashing"
    applier.close()  # releases descriptors only: a read-only image writes nothing
    return plan.count


@pytest.fixture(scope="module")
def shipment(tmp_path_factory):
    """A replica holding the old image, the recorded sync to the new one,
    and the values each image binds."""
    root = str(tmp_path_factory.mktemp("install"))
    pdir = os.path.join(root, "primary")
    base = os.path.join(root, "base")
    db = Database.create(pdir, CHUNK)
    server = TdbServer(db).start()
    try:
        old = {name: {"name": name, "v": 1, "pad": "o" * 300} for name in OLD_NAMES}
        commit(server, old)
        os.makedirs(base)
        shutil.copy(os.path.join(pdir, "secret.key"), os.path.join(base, "secret.key"))
        with ReplicaApplier(base, *server.address, chunk_config=CHUNK) as applier:
            assert applier.sync_once() is True
        changed = {name: dict(old[name], v=2) for name in OLD_NAMES[::3]}
        changed.update({name: {"name": name, "v": 2} for name in NEW_NAMES})
        commit(server, changed)
        dry = os.path.join(root, "dry")
        shutil.copytree(base, dry)
        recorder = RecordingClient(TdbClient(*server.address))
        with ReplicaApplier(dry, client=recorder, chunk_config=CHUNK) as applier:
            assert applier.sync_once() is True
        store = db.chunk_store
        segments = {
            entry["number"]: store.read_segment_bytes(entry["number"], 0, entry["file_bytes"])
            for entry in recorder.replies["repl.subscribe"]["segments"]
        }
        heads = [head.raw for head in store.transparency.heads()]
    finally:
        server.stop()
        db.close()
    shutil.rmtree(dry)
    old_values = dict(old, **{name: None for name in NEW_NAMES})
    replay = ReplayingClient(recorder.replies, segments, heads)
    return base, replay, old_values, dict(old_values, **changed)


def sweep(shipment, scratch, stop_at_first=False):
    """Crash the recorded sync at every boundary; return the boundary
    count, the failures, and how many opens read each image."""
    base, replay, old, new = shipment
    dry = os.path.join(scratch, "dry")
    shutil.copytree(base, dry)
    points = crashed_sync(dry, replay)
    failures, images = [], {"old": 0, "new": 0}
    for at in range(1, points + 1):
        work = os.path.join(scratch, f"crash-{at}")
        shutil.copytree(base, work)
        crashed_sync(work, replay, at)
        for opener in (open_replica_database, promote_replica):
            where = f"boundary {at}, {opener.__name__}"
            check = f"{work}-{opener.__name__}"
            shutil.copytree(work, check)
            try:
                db = opener(check, CHUNK)
                try:
                    values = read_all(db)
                finally:
                    db.close()
            except Exception as exc:  # every failure is a finding
                failures.append(f"{where}: {exc!r}")
            else:
                if values in (old, new):
                    images["old" if values == old else "new"] += 1
                else:
                    failures.append(f"{where}: a mixed image")
            if os.path.isdir("/proc/self/fd") and held_under(check):
                failures.append(f"{where}: descriptors held")
            shutil.rmtree(check)
        shutil.rmtree(work)
        if failures and stop_at_first:
            break
    return points, failures, images


def test_every_crash_point_of_an_install_opens_old_or_new(shipment, tmp_path, capsys):
    points, failures, images = sweep(shipment, str(tmp_path))
    with capsys.disabled():
        print(
            f"\nreplica install sweep: {points} crash points, opens read "
            f"{images['old']} old / {images['new']} new images, {len(failures)} failures"
        )
    assert not failures, "\n".join(failures)
    assert points >= 12, f"the sweep found only {points} boundaries"
    assert images["old"] and images["new"], images


def test_mutation_guard_install_in_place_fails_the_sweep(shipment, tmp_path, monkeypatch):
    """A planted bug: the shipment is written over the served ``data/``."""
    real = ReplicaApplier._path
    monkeypatch.setattr(
        ReplicaApplier,
        "_path",
        lambda self, name: real(self, applier_module.DATA if name == applier_module.TMP else name),
    )
    _, failures, _ = sweep(shipment, str(tmp_path), stop_at_first=True)
    assert failures, "an install that rewrites data/ in place passed the sweep"


def test_mutation_guard_counter_before_next_fails_the_sweep(shipment, tmp_path, monkeypatch):
    """A planted bug: the counter advances before ``data.next/`` exists."""
    real = ReplicaApplier._verify_candidate

    def verify_then_advance(self, manifest, staged):
        master = real(self, manifest, staged)
        FileOneWayCounter.initialize(self.counter.path, manifest["expected_counter"])
        return master

    monkeypatch.setattr(ReplicaApplier, "_verify_candidate", verify_then_advance)
    _, failures, _ = sweep(shipment, str(tmp_path), stop_at_first=True)
    assert failures, "an install that advances the counter early passed the sweep"


def test_reads_are_served_from_the_old_image_during_a_sync(tmp_path, monkeypatch):
    pdir = os.path.join(str(tmp_path), "primary")
    rdir = os.path.join(str(tmp_path), "replica")
    db = Database.create(pdir, CHUNK)
    server = TdbServer(db).start()
    try:
        commit(server, {"song": {"v": 1, "pad": "a" * 2000}})
        os.makedirs(rdir)
        shutil.copy(os.path.join(pdir, "secret.key"), os.path.join(rdir, "secret.key"))
        with ReplicaApplier(rdir, *server.address, chunk_config=CHUNK) as applier:
            applier.sync_once()
            replica = applier.serve()
            commit(server, {"song": {"v": 2, "pad": "b" * 2000}})

            paused, resume, roots = threading.Event(), threading.Event(), []
            real_write = FileUntrustedStore.write
            prefix = os.path.realpath(rdir) + os.sep

            def pausing_write(self, name, offset, data):
                if not paused.is_set() and self.root.startswith(prefix):
                    roots.append(self.root)
                    paused.set()
                    resume.wait(30)
                return real_write(self, name, offset, data)

            monkeypatch.setattr(FileUntrustedStore, "write", pausing_write)
            errors = []

            def sync():
                try:
                    applier.sync_once()
                except Exception as exc:  # reported below
                    errors.append(exc)

            syncer = threading.Thread(target=sync)
            syncer.start()
            try:
                assert paused.wait(30), "the sync never wrote under the replica"
                answers = []

                def read():
                    with TdbClient(*replica.address) as client:
                        with client.transaction() as txn:
                            answers.append(txn.get(txn.lookup("song"))["v"])

                reader = threading.Thread(target=read, daemon=True)
                reader.start()
                reader.join(2.0)
                during = list(answers)
            finally:
                resume.set()
                syncer.join(30)
            reader.join(10)
            assert not syncer.is_alive() and not reader.is_alive()
            assert during == [1], "a read waited for the sync instead of the old image"
            assert os.path.basename(roots[0]) == applier_module.TMP
            assert not errors, errors
            with TdbClient(*replica.address) as client:
                with client.transaction() as txn:
                    assert txn.get(txn.lookup("song"))["v"] == 2
    finally:
        server.stop()
        db.close()
