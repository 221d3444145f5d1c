"""The four workloads: inputs, set-up, one transaction each, and checks.

Every workload runs under the same fixed conditions — a file-backed
``Database.create`` in a fresh directory, ``ChunkStoreConfig(fsync=True)``
and shipping defaults otherwise (TDB-S, engine ``auto``) — and is a
*closed loop*: a caller sends its next transaction when the previous
one returned.  Key streams come from ``random.Random`` seeded with the
run's seed, the workload's name, the round and the caller, so the same
seed gives the same inputs.  Records are 100 bytes.

* ``tpcb_embedded`` — the paper's Figure 10 transaction through
  ``db.ctransaction()``; one caller; the commit path does the work.
* ``tpcb_served`` — the same logical transaction as nine round trips of
  object verbs; two connections owning disjoint ids, so group commit is
  used and locks never conflict.
* ``read_cold_embedded`` — four unique-key lookups per read-only
  transaction over a data set about three times the cache; the read
  path does the work and nothing is written.
* ``read_served`` — the same four lookups over the wire on rows that
  fit the cache; framing and sessions are almost the whole cost.

``README.md`` says why each exists and what it bypasses.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    BufferReader,
    BufferWriter,
    ChunkStoreConfig,
    ClassRegistry,
    Database,
    Indexer,
    ObjectStoreConfig,
    Persistent,
    TDBError,
)
from repro.server import RemoteRecord, TdbClient

from benchmarks.e2e.hostinfo import cpu_seconds, snapshot_db

__all__ = [
    "ROOT",
    "WORKLOADS",
    "FULL",
    "QUICK",
    "Sizes",
    "WrongResult",
    "fixed_chunk_config",
    "closed_loop",
    "host_cpu_seconds",
]

#: The repository root; the benchmark reads and writes only below it.
ROOT = Path(__file__).resolve().parents[2]

RECORD_BYTES = 100
MIB = 1024 * 1024
#: The TPC-B data set is ~1.6 MB charged at the start and ~4 MB once
#: History has grown; the default 4 MiB would begin evicting mid-run and
#: change what the workload measures.  The served child gets the same:
#: a ``RemoteRecord`` is charged ~0.9 KB, so 5 000 rows need more than
#: the default to fit as ``read_served`` says they do.
WARM_CACHE_BYTES = 16 * MIB
COLD_LOAD_CACHE_BYTES = 64 * MIB


class WrongResult(Exception):
    """The program answered, but not with the row that was asked for."""


def fixed_chunk_config() -> ChunkStoreConfig:
    """The flush policy every run uses: durable commits really sync."""
    return ChunkStoreConfig(fsync=True)


@dataclass(frozen=True)
class Sizes:
    """Row and warm-up counts.  ``FULL`` is what numbers are quoted at."""

    accounts: int
    tellers: int
    branches: int
    cold_rows: int
    cold_cache_bytes: int
    served_rows: int
    #: Warm-up transactions per caller and round, by workload.
    warmup: Dict[str, int]
    #: Measured transactions per caller and round, by workload.  Fixed:
    #: every round of every run, traced or not, measures this many, so
    #: one metric name always means a window of one length on a database
    #: of one age.
    measured: Dict[str, int]


#: The issue's row counts.  Its warm-up counts (1 000 / 500 / 2 000 /
#: 1 000) times 0.3 and its measured counts (15 000 / 5 000 / 20 000 /
#: 9 000) divided by 6, the same factors on all four workloads, because
#: the driver's time cap has every run set up three times: a run of
#: three rounds measures half the issue's counts.  A served round makes
#: at most 3 611 commits, so it ends before the server's commit-result
#: cache is full (4 096), after which every commit costs more (README,
#: finding 5).
FULL = Sizes(
    accounts=10_000, tellers=100, branches=10,
    cold_rows=20_000, cold_cache_bytes=1 * MIB,
    served_rows=5_000,
    warmup={"tpcb_embedded": 300, "tpcb_served": 150,
            "read_cold_embedded": 600, "read_served": 300},
    measured={"tpcb_embedded": 2_500, "tpcb_served": 833,
              "read_cold_embedded": 3_333, "read_served": 1_500},
)
#: A tenth of the rows and warm-up and about 300 measured transactions
#: a workload, for the smoke test.
QUICK = Sizes(
    accounts=1_000, tellers=10, branches=2,
    cold_rows=2_000, cold_cache_bytes=128 * 1024,
    served_rows=500,
    warmup={"tpcb_embedded": 30, "tpcb_served": 15,
            "read_cold_embedded": 60, "read_served": 30},
    measured={"tpcb_embedded": 300, "tpcb_served": 150,
              "read_cold_embedded": 300, "read_served": 150},
)


# ----------------------------------------------------------------------
# Records (defined here: the benchmark imports nothing from repro.bench)
# ----------------------------------------------------------------------

class _BalanceRow(Persistent):
    """Account / Teller / Branch: id, balance, filler to 100 bytes."""

    _FILLER = b"." * (RECORD_BYTES - 8 - 8 - 4)

    def __init__(self, rec_id: int = 0, balance: int = 0) -> None:
        self.rec_id = rec_id
        self.balance = balance

    def pickle(self) -> bytes:
        return (
            BufferWriter().write_int(self.rec_id).write_int(self.balance)
            .write_bytes(self._FILLER).getvalue()
        )

    @classmethod
    def unpickle(cls, data: bytes):
        reader = BufferReader(data)
        row = cls(reader.read_int(), reader.read_int())
        reader.read_bytes()
        return row

    def cache_charge(self) -> int:
        return 160


class Account(_BalanceRow):
    class_id = "e2e.account"


class Teller(_BalanceRow):
    class_id = "e2e.teller"


class Branch(_BalanceRow):
    class_id = "e2e.branch"


class History(Persistent):
    """One row per TPC-B transaction: the ids it touched and the delta."""

    class_id = "e2e.history"
    _FILLER = b"." * (RECORD_BYTES - 5 * 8 - 4)

    def __init__(self, hist_id=0, account=0, teller=0, branch=0, delta=0) -> None:
        self.hist_id = hist_id
        self.account = account
        self.teller = teller
        self.branch = branch
        self.delta = delta

    def pickle(self) -> bytes:
        writer = BufferWriter()
        for value in (self.hist_id, self.account, self.teller, self.branch, self.delta):
            writer.write_int(value)
        return writer.write_bytes(self._FILLER).getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "History":
        reader = BufferReader(data)
        row = cls(*(reader.read_int() for _ in range(5)))
        reader.read_bytes()
        return row

    def cache_charge(self) -> int:
        return 160


class Row(Persistent):
    """The read workloads' row: a key and filler to 100 bytes."""

    class_id = "e2e.row"
    _FILLER = b"." * (RECORD_BYTES - 8 - 4)

    def __init__(self, key: int = 0) -> None:
        self.key = key

    def pickle(self) -> bytes:
        return BufferWriter().write_int(self.key).write_bytes(self._FILLER).getvalue()

    @classmethod
    def unpickle(cls, data: bytes) -> "Row":
        reader = BufferReader(data)
        row = cls(reader.read_int())
        reader.read_bytes()
        return row

    def cache_charge(self) -> int:
        return 160


TPCB_TABLES = (("account", Account), ("teller", Teller), ("branch", Branch))
INDEXERS = {
    "account": Indexer("e2e-account-id", Account, lambda row: row.rec_id, unique=True, kind="hash"),
    "teller": Indexer("e2e-teller-id", Teller, lambda row: row.rec_id, unique=True, kind="hash"),
    "branch": Indexer("e2e-branch-id", Branch, lambda row: row.rec_id, unique=True, kind="hash"),
    "history": Indexer("e2e-history-account", History, lambda row: row.account, kind="list"),
    "rows": Indexer("e2e-row-key", Row, lambda row: row.key, unique=True, kind="hash"),
}
#: JSON rows of the served workloads come to about 100 bytes with this.
_JSON_PAD = "." * 58


def _open_database(directory: str, cache_bytes: int, create: bool) -> Database:
    registry = ClassRegistry()
    for cls in (Account, Teller, Branch, History, Row, RemoteRecord):
        registry.register(cls)
    opener = Database.create if create else Database.open_existing
    db = opener(
        directory,
        fixed_chunk_config(),
        ObjectStoreConfig(cache_bytes=cache_bytes),
        registry=registry,
    )
    for indexer in INDEXERS.values():
        db.register_indexer(indexer)
    return db


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

class Caller:
    """One closed-loop caller: ``txn()`` runs one whole transaction."""

    def txn(self) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        """Leave no transaction open after ``txn()`` raised."""


def closed_loop(
    callers: List[Caller], txns: int, tracer=None
) -> Tuple[List[float], int, int, float]:
    """Run ``txns`` transactions on every caller, each caller sending
    its next one when the previous returned.

    A fixed count, not a time: every run then does the same work on a
    database of the same age, whatever the machine's speed that minute.

    Returns ``(latencies in ms of the transactions that committed,
    attempted, failed, wall seconds)``.  A transaction that raises a
    ``TDBError`` or returns a wrong row counts as failed; anything else
    is a bug in the benchmark and propagates.
    """
    results: List[Optional[Tuple[List[float], int]]] = [None] * len(callers)
    crashes: List[BaseException] = []
    start_line = threading.Barrier(len(callers))
    clock = time.perf_counter

    def run(index: int, caller: Caller) -> None:
        latencies: List[float] = []
        failed = 0
        txn = caller.txn if tracer is None else tracer.wrap("generator.txn", caller.txn)
        start_line.wait()
        try:
            for number in range(txns):
                if tracer is not None:
                    tracer.set_txn(number)
                started = clock()
                try:
                    txn()
                except (TDBError, WrongResult):
                    failed += 1
                    caller.recover()
                else:
                    latencies.append((clock() - started) * 1e3)
        except BaseException as exc:  # re-raised by the caller of closed_loop
            crashes.append(exc)
        results[index] = (latencies, failed)

    began = clock()
    if len(callers) == 1:
        run(0, callers[0])
    else:
        threads = [
            threading.Thread(target=run, args=(i, caller), name=f"e2e-caller-{i}")
            for i, caller in enumerate(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = clock() - began
    if crashes:
        raise crashes[0]
    latencies = [ms for result in results for ms in result[0]]
    failed = sum(result[1] for result in results)
    return latencies, len(latencies) + failed, failed, wall


class Ledger:
    """What the generator knows the database must hold: every
    acknowledged TPC-B commit's delta, and the History rows it wrote."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = 0
        self.commits = 0
        self.history_oids: List[int] = []

    def acknowledge(self, delta: int, history_oid: Optional[int] = None) -> None:
        with self._lock:
            self.total += delta
            self.commits += 1
            if history_oid is not None:
                self.history_oids.append(history_oid)

    def mismatches(
        self, when: str, balance_totals: Dict[str, int], history_total: int, history_rows: int
    ) -> List[str]:
        """The TPC-B invariant: every table's balances and the History
        deltas sum to the acknowledged deltas, one History row a commit."""
        errors = [
            f"{when}: sum of {table} balances is {total}, "
            f"acknowledged deltas sum to {self.total}"
            for table, total in balance_totals.items()
            if total != self.total
        ]
        if history_total != self.total or history_rows != self.commits:
            errors.append(
                f"{when}: history holds {history_rows} rows summing to {history_total}, "
                f"acknowledged {self.commits} commits summing to {self.total}"
            )
        return errors


def _tpcb_user_bytes(sizes: Sizes, ledger: Ledger) -> int:
    """Live user bytes of a TPC-B database: the loaded rows plus one
    History row per acknowledged commit."""
    return (sizes.accounts + sizes.tellers + sizes.branches + ledger.commits) * RECORD_BYTES


def _draw_tpcb(rng: random.Random, sizes: Sizes, stride: int = 1, offset: int = 0):
    """One TPC-B input; with ``stride`` 2 a caller draws only ids
    congruent to its ``offset``, so two callers never share a row."""
    return (
        rng.randrange(sizes.accounts // stride) * stride + offset,
        rng.randrange(sizes.tellers // stride) * stride + offset,
        rng.randrange(sizes.branches // stride) * stride + offset,
        rng.randrange(-99_999, 100_000),
    )


# ----------------------------------------------------------------------
# Workload environments
# ----------------------------------------------------------------------

class Workload:
    """One set-up of one workload: build, warm, hand out callers, check.

    ``host_pid`` is the process holding the ``Database``; ``snapshot()``
    its cumulative public counters; ``user_bytes()`` the bytes of live
    user records the generator knows the database holds.
    """

    name = ""
    callers_count = 1
    host_pid = 0

    def __init__(self, workdir: str, sizes: Sizes, seed: str, traced: bool) -> None:
        self.workdir = workdir
        self.sizes = sizes
        self.seed = seed
        self.traced = traced
        self.callers: List[Caller] = []

    def rng(self, caller: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{caller}")

    def warm_up(self) -> None:
        count = self.sizes.warmup[self.name]
        _latencies, _attempted, failed, _wall = closed_loop(self.callers, count)
        if failed:
            raise RuntimeError(f"{self.name}: {failed} warm-up transactions failed")

    def setup(self) -> None:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        raise NotImplementedError

    def user_bytes(self) -> int:
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Check the final state, restart from disk, check again."""
        raise NotImplementedError

    def set_server_tracing(self, on: bool) -> None:
        """Start or stop span recording in the server child, if any."""

    def server_spans(self, path: str) -> Optional[Dict[str, Any]]:
        """Have the server child write its spans; returns their summary."""
        return None

    def close(self) -> None:
        raise NotImplementedError


# -- embedded ------------------------------------------------------------

class _Embedded(Workload):
    db: Optional[Database] = None
    host_pid = os.getpid()

    def snapshot(self) -> Dict[str, Any]:
        return snapshot_db(self.db)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


class _EmbeddedCaller(Caller):
    def __init__(self, workload: "_Embedded", rng: random.Random) -> None:
        self.workload = workload
        self.rng = rng
        self.ct = None

    def recover(self) -> None:
        if self.ct is not None and self.ct.active:
            self.ct.abort()


class _TpcbEmbeddedCaller(_EmbeddedCaller):
    def txn(self) -> None:
        workload = self.workload
        account, teller, branch, delta = _draw_tpcb(self.rng, workload.sizes)
        self.ct = ct = workload.db.ctransaction()
        for table, rec_id in (("account", account), ("teller", teller), ("branch", branch)):
            iterator = ct.write_collection(table).query_match(INDEXERS[table], rec_id)
            if iterator.end():
                raise WrongResult(f"{table} {rec_id} not found")
            row = iterator.write().deref()
            if row.rec_id != rec_id:
                raise WrongResult(f"{table} {rec_id} returned row {row.rec_id}")
            row.balance += delta
            iterator.close()
        ledger = workload.ledger
        ct.write_collection("history").insert(
            History(ledger.commits, account, teller, branch, delta)
        )
        ct.commit(durable=True)
        ledger.acknowledge(delta)


class TpcbEmbedded(_Embedded):
    name = "tpcb_embedded"

    def setup(self) -> None:
        sizes = self.sizes
        self.ledger = Ledger()
        self.db = _open_database(self.workdir, WARM_CACHE_BYTES, create=True)
        for (table, cls), count in zip(
            TPCB_TABLES, (sizes.accounts, sizes.tellers, sizes.branches)
        ):
            with self.db.ctransaction() as ct:
                handle = ct.create_collection(table, INDEXERS[table])
                for rec_id in range(count):
                    handle.insert(cls(rec_id, 0))
        with self.db.ctransaction() as ct:
            ct.create_collection("history", INDEXERS["history"])
        self.callers = [_TpcbEmbeddedCaller(self, self.rng(0))]
        self.warm_up()

    def user_bytes(self) -> int:
        return _tpcb_user_bytes(self.sizes, self.ledger)

    def _check(self, when: str) -> List[str]:
        ct = self.db.ctransaction()

        def scan(table: str):
            iterator = ct.read_collection(table).query(INDEXERS[table])
            while not iterator.end():
                yield iterator.read().deref()
                iterator.next()
            iterator.close()

        try:
            balances = {
                table: sum(row.balance for row in scan(table)) for table, _cls in TPCB_TABLES
            }
            deltas = [row.delta for row in scan("history")]
        finally:
            ct.abort()  # read-only: nothing to keep, and safe mid-iteration
        return self.ledger.mismatches(when, balances, sum(deltas), len(deltas))

    def verify(self) -> List[str]:
        errors = self._check("before restart")
        self.db.close()
        self.db = _open_database(self.workdir, WARM_CACHE_BYTES, create=False)
        return errors + self._check("after close and reopen")


class _ReadColdCaller(_EmbeddedCaller):
    LOOKUPS = 4

    def txn(self) -> None:
        workload = self.workload
        self.ct = ct = workload.db.ctransaction()
        handle = ct.read_collection("rows")
        for _ in range(self.LOOKUPS):
            key = self.rng.randrange(workload.sizes.cold_rows)
            iterator = handle.query_match(INDEXERS["rows"], key)
            if iterator.end():
                raise WrongResult(f"row {key} not found")
            row = iterator.read().deref()
            iterator.close()
            if row.key != key:
                raise WrongResult(f"asked for row {key}, got {row.key}")
        ct.commit(durable=False)


class ReadColdEmbedded(_Embedded):
    name = "read_cold_embedded"

    def setup(self) -> None:
        # Loaded through a cache larger than the data (loading through a
        # smaller one is ~15x slower; see README), then reopened small.
        self.db = _open_database(self.workdir, COLD_LOAD_CACHE_BYTES, create=True)
        with self.db.ctransaction() as ct:
            handle = ct.create_collection("rows", INDEXERS["rows"])
            for key in range(self.sizes.cold_rows):
                handle.insert(Row(key))
        self.db.close()
        self.db = _open_database(self.workdir, self.sizes.cold_cache_bytes, create=False)
        self.callers = [_ReadColdCaller(self, self.rng(0))]
        self.warm_up()

    def user_bytes(self) -> int:
        return self.sizes.cold_rows * RECORD_BYTES

    def verify(self) -> List[str]:
        # Every returned row's key was checked as it was read.
        return []


# -- served ----------------------------------------------------------------

class ServerChild:
    """The server process (``serve_child.py``) and its JSON-lines pipe."""

    def __init__(self, directory: str, traced: bool) -> None:
        env = dict(os.environ)
        paths = [str(ROOT), str(ROOT / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        command = [sys.executable, "-m", "benchmarks.e2e.serve_child", "--dir", directory]
        if traced:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.port = self._reply()["port"]
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _reply(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.process.wait()} without answering"
            )
        return json.loads(line)

    def command(self, line: str) -> Dict[str, Any]:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        return self._reply()

    def kill(self) -> None:
        """``SIGKILL``: the process crash of the durability check."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        """Clean shutdown (end of input); killed if it does not follow."""
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self._reap()

    def _reap(self) -> None:
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


class _Served(Workload):
    callers_count = 2
    child: Optional[ServerChild] = None

    def start_child(self) -> None:
        self.child = ServerChild(self.workdir, self.traced)
        self.clients: List[TdbClient] = []

    def connect(self) -> TdbClient:
        client = TdbClient("127.0.0.1", self.child.port).connect()
        self.clients.append(client)
        return client

    @property
    def host_pid(self) -> int:
        return self.child.pid

    def snapshot(self) -> Dict[str, Any]:
        return self.child.command("report")

    def set_server_tracing(self, on: bool) -> None:
        self.child.command("trace on" if on else "trace off")

    def server_spans(self, path: str) -> Optional[Dict[str, Any]]:
        return self.child.command(f"spans {path}")

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.child is not None:
            self.child.stop()
            self.child = None


class _RemoteCaller(Caller):
    def __init__(self, client: TdbClient) -> None:
        self.client = client
        self.remote = None

    def recover(self) -> None:
        if self.remote is not None:
            try:
                self.remote.abort()
            except TDBError:
                pass  # it was not open any more, or the abort itself failed


class _TpcbServedCaller(_RemoteCaller):
    def __init__(self, workload: "TpcbServed", client: TdbClient, index: int) -> None:
        super().__init__(client)
        self.workload = workload
        self.index = index
        self.rng = workload.rng(index)

    def txn(self) -> None:
        workload = self.workload
        account, teller, branch, delta = _draw_tpcb(
            self.rng, workload.sizes, stride=workload.callers_count, offset=self.index
        )
        self.remote = remote = self.client.transaction("object").begin()
        for table, rec_id in (("account", account), ("teller", teller), ("branch", branch)):
            oid = workload.oids[table][rec_id]
            value = remote.get(oid)
            if value["id"] != rec_id:
                raise WrongResult(f"{table} {rec_id} returned row {value['id']}")
            value["balance"] += delta
            remote.put(value, oid=oid)
        history_oid = remote.put({
            "account": account, "teller": teller, "branch": branch,
            "delta": delta, "pad": _JSON_PAD[:30],
        })
        remote.commit(durable=True)
        workload.ledger.acknowledge(delta, history_oid)


class TpcbServed(_Served):
    name = "tpcb_served"
    LOAD_BATCH = 500

    def setup(self) -> None:
        sizes = self.sizes
        self.ledger = Ledger()
        self.start_child()
        # Loaded over the wire, on the first caller's connection: an
        # idle third session would raise the group-commit quorum and
        # make every batch of two wait out the full max_delay.
        callers = [
            _TpcbServedCaller(self, self.connect(), index)
            for index in range(self.callers_count)
        ]
        loader = callers[0].client
        self.oids: Dict[str, List[int]] = {}
        for (table, _cls), count in zip(
            TPCB_TABLES, (sizes.accounts, sizes.tellers, sizes.branches)
        ):
            oids = self.oids[table] = []
            for base in range(0, count, self.LOAD_BATCH):
                with loader.transaction("object") as remote:
                    for rec_id in range(base, min(count, base + self.LOAD_BATCH)):
                        oids.append(
                            remote.put({"id": rec_id, "balance": 0, "pad": _JSON_PAD})
                        )
        self.callers = callers
        self.warm_up()

    def user_bytes(self) -> int:
        return _tpcb_user_bytes(self.sizes, self.ledger)

    def _check(self, when: str, get: Callable[[int], Any], tables) -> List[str]:
        ledger = self.ledger
        balances = {
            table: sum(get(oid)["balance"] for oid in self.oids[table]) for table in tables
        }
        deltas = [get(oid)["delta"] for oid in ledger.history_oids]
        return ledger.mismatches(when, balances, sum(deltas), len(deltas))

    def verify(self) -> List[str]:
        # Over the wire only the small tables: every account is a round
        # trip, and all of them are read from disk below anyway.
        with self.clients[0].transaction("object") as remote:
            errors = self._check("over the wire", remote.get, ("teller", "branch"))
        # The crash: no shutdown path runs, so everything read below
        # was made durable by the commits that were acknowledged.
        self.child.kill()
        db = _open_database(self.workdir, WARM_CACHE_BYTES, create=False)
        try:
            with db.transaction() as txn:
                errors += self._check(
                    "after SIGKILL and reopen",
                    lambda oid: txn.open_readonly(oid, RemoteRecord).deref().value,
                    ("account", "teller", "branch"),
                )
        except TDBError as exc:
            errors.append(f"after SIGKILL and reopen: {type(exc).__name__}: {exc}")
        finally:
            db.close()
        return errors


class _ReadServedCaller(_RemoteCaller):
    LOOKUPS = 4

    def __init__(self, workload: "ReadServed", client: TdbClient, index: int) -> None:
        super().__init__(client)
        self.rows = workload.sizes.served_rows
        self.rng = workload.rng(index)

    def txn(self) -> None:
        self.remote = remote = self.client.transaction("collection").begin()
        for _ in range(self.LOOKUPS):
            key = self.rng.randrange(self.rows)
            values = remote.get_match("rows", key)
            if len(values) != 1 or values[0]["key"] != key:
                raise WrongResult(f"asked for row {key}, got {values!r}")
        remote.commit(durable=False)


class ReadServed(_Served):
    name = "read_served"
    LOAD_BATCH = 500

    def setup(self) -> None:
        self.start_child()
        callers = [
            _ReadServedCaller(self, self.connect(), index)
            for index in range(self.callers_count)
        ]
        loader = callers[0].client
        with loader.transaction("collection") as remote:
            remote.create_collection("rows", "key", kind="hash", unique=True)
        for base in range(0, self.sizes.served_rows, self.LOAD_BATCH):
            with loader.transaction("collection") as remote:
                for key in range(base, min(self.sizes.served_rows, base + self.LOAD_BATCH)):
                    remote.insert("rows", {"key": key, "pad": _JSON_PAD + "." * 20})
        self.callers = callers
        self.warm_up()

    def user_bytes(self) -> int:
        return self.sizes.served_rows * RECORD_BYTES

    def verify(self) -> List[str]:
        # Every returned row's key was checked as it was read.
        return []


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (TpcbEmbedded, TpcbServed, ReadColdEmbedded, ReadServed)
}


def host_cpu_seconds(workload: Workload) -> float:
    """CPU seconds so far of the generator plus, when served, the child."""
    total = time.process_time()
    if workload.host_pid != os.getpid():
        total += cpu_seconds(workload.host_pid)
    return total
