"""One shard worker process of the sharded TDB service.

A worker owns one :class:`~repro.db.Database` under
``<root>/shard-<k>/`` — its own segments, location map, one-way
counter, and group-commit coordinator — and serves the front door over
a single loopback connection using the same length-prefixed JSON
framing as the public protocol (:mod:`repro.server.protocol`).  It is
launched as ``python -m repro.server.shardworker`` with a JSON
bootstrap blob in the ``TDB_SHARD_BOOTSTRAP`` environment variable and
*connects back* to the front door's private worker port, authenticating
with the boot nonce.

Internal wire ops (never exposed to clients)::

    w.hello     worker -> front door: shard, nonce, pid, prepared tokens
    s.begin     open a session-scoped transaction   {sid, mode}
    s.exec      run one data verb in a session      {sid, req}
    s.commit    single-shard commit                 {sid, durable, token?}
    s.prepare   2PC phase one                       {sid, token}
    s.decide    2PC phase two                       {token, verdict}
    s.abort     abort the session transaction       {sid}
    w.stats     per-shard stats payload
    w.token.query  ledger/prepared state of a token {token}
    w.fault     arm a crash fault (tests only)      {mode}
    w.shutdown  clean exit

Threading: the main thread reads frames.  ``s.begin`` spawns one thread
per session (data verbs block on strict-2PL lock waits, so sessions
must not share the reader thread); subsequent ``s.*`` frames for that
session are queued to it, and responses are serialized by a writer
lock.  ``w.*`` ops and recovery-path decides run inline.

Durable commit tokens (the exactly-once contract): every commit token
is recorded in a small persistent *ledger* — a fixed set of slot
objects, one slot per token hash — and the ledger append always rides
*inside* the recording transaction's write set, so "the token is in
its ledger slot" and "the transaction committed" are one atomic fact.
Tokened single-shard commits (``s.commit`` with ``token``) use this so
the front door can ask a respawned worker, via ``w.token.query``,
whether a commit that was in flight when the worker died actually
reached the log.  Slotting keeps concurrent committers off each
other's locks: only tokens hashing to the same slot serialize.

Crash recovery (the 2PC participant contract):

* **prepare** appends the commit token to its ledger slot (same-slot
  prepares serialize per shard; the front door acquires shards in
  ascending id order, so equal-slot rounds cannot deadlock), captures
  the transaction's chunk-level write set via
  ``Transaction.materialize()``, and fsyncs it as a redo record under
  ``prepared/``.
* **decide commit** on the live transaction just commits it (group
  commit batches it like any other) and unlinks the redo record.
* a worker that restarts reports its surviving redo records in
  ``w.hello``; the front door re-drives each from its decision log
  (presumed abort when unlogged).  A decided-commit redo whose token is
  already in the ledger is discarded; otherwise the worker re-adopts
  the chunk ids and applies the batch directly to the chunk store —
  byte-identical to the commit that was lost — and evicts the applied
  object ids from the object cache (the catalog is cached from startup
  and must not shadow a recovered ``name.bind``).
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import queue
import socket
import sys
import threading
from typing import Any, Dict, List, Optional

from repro.db import Database
from repro.errors import (
    ProtocolError,
    ServerError,
    SessionStateError,
    TDBError,
)
from repro.server import protocol
from repro.server.sharding import BOOTSTRAP_ENV, config_from_dict
from repro.server.verbs import RemoteRecord, VerbExecutor

__all__ = ["ShardWorker", "LEDGER_NAME", "BOOTSTRAP_ENV", "main"]

#: Catalog-name prefix of the per-shard token-ledger slot objects
#: (``__2pc:ledger:<slot>``).
LEDGER_NAME = "__2pc:ledger"

#: Number of ledger slot objects per shard.  A token lives in the slot
#: its hash picks, so two concurrent tokened commits only contend on a
#: lock when their tokens collide — one shared object would serialize
#: every tokened commit and defeat group-commit batching.
LEDGER_SLOTS = 32

#: Tokens kept per slot before pruning (bounds the object's size; a
#: token only needs to survive the crash-settlement window — until its
#: redo record is unlinked or the front door's in-doubt query lands).
LEDGER_KEEP = 64

def prepared_path(directory: str, token: str) -> str:
    """Redo-record path for a token (hashed: tokens are client strings)."""
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()[:32]
    return os.path.join(directory, f"{digest}.json")


class _WorkerSession:
    __slots__ = ("sid", "mode", "txn", "queue", "thread", "prepared_token",
                 "readonly_prepared")

    def __init__(self, sid: int, mode: str, txn) -> None:
        self.sid = sid
        self.mode = mode
        self.txn = txn
        self.queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self.thread: Optional[threading.Thread] = None
        self.prepared_token: Optional[str] = None
        self.readonly_prepared = False


class ShardWorker:
    """The worker process body (see module docstring)."""

    def __init__(self, bootstrap: Dict[str, Any]) -> None:
        self.shard = int(bootstrap["shard"])
        self.shards = int(bootstrap["shards"])
        self.directory = bootstrap["directory"]
        self.nonce = bootstrap["nonce"]
        self.connect_host, self.connect_port = bootstrap["connect"]
        self.chunk_config = config_from_dict(bootstrap.get("config"))
        gc = bootstrap.get("group_commit") or {}
        self.gc_max_batch = int(gc.get("max_batch", 32))
        self.gc_max_delay = float(gc.get("max_delay", 0.005))
        self.gc_max_pending = int(gc.get("max_pending", 256))
        self.executor = VerbExecutor(
            max_results=int(bootstrap.get("max_results", 1000))
        )
        self.db: Optional[Database] = None
        self.ledger_oids: List[int] = []
        self.coordinator = None
        self._fault_mode = ""
        self.sock: Optional[socket.socket] = None
        self._write_lock = threading.Lock()
        self._sessions: Dict[int, _WorkerSession] = {}
        self._sessions_lock = threading.Lock()
        self._prepared_dir = os.path.join(self.directory, "prepared")
        self._stop = False
        self._counters = {
            "commits": 0,
            "prepares": 0,
            "decided_commits": 0,
            "decided_aborts": 0,
            "recovered_applies": 0,
            "recovered_discards": 0,
        }
        self._counters_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def run(self) -> int:
        self._open_database()
        prepared = self._scan_prepared()
        self.sock = socket.create_connection(
            (self.connect_host, self.connect_port), timeout=10.0
        )
        self.sock.settimeout(None)
        protocol.write_frame(
            self.sock,
            {
                "op": "w.hello",
                "shard": self.shard,
                "shards": self.shards,
                "nonce": self.nonce,
                "pid": os.getpid(),
                "prepared": prepared,
            },
        )
        ack = protocol.read_frame(self.sock)
        if ack is None or not ack.get("ok"):
            raise ServerError(f"front door refused worker handshake: {ack!r}")
        try:
            self._serve()
        finally:
            self._shutdown()
        return 0

    def _open_database(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        os.makedirs(self._prepared_dir, exist_ok=True)
        if os.path.exists(os.path.join(self.directory, "data")):
            self.db = Database.open_existing(self.directory, self.chunk_config)
        else:
            self.db = Database.create(self.directory, self.chunk_config)
        self.db.object_store.registry.register(RemoteRecord)
        self.ledger_oids = []
        with self.db.transaction() as txn:
            for slot in range(LEDGER_SLOTS):
                name = f"{LEDGER_NAME}:{slot}"
                oid = txn.lookup_name(name)
                if oid is None:
                    oid = txn.insert(RemoteRecord({"tokens": []}))
                    txn.bind_name(name, oid)
                self.ledger_oids.append(oid)
        self.coordinator = self.db.enable_group_commit(
            max_batch=self.gc_max_batch,
            max_delay=self.gc_max_delay,
            max_pending=self.gc_max_pending,
        )

    def _scan_prepared(self) -> List[str]:
        tokens = []
        for entry in sorted(os.listdir(self._prepared_dir)):
            if not entry.endswith(".json"):
                continue
            try:
                with open(os.path.join(self._prepared_dir, entry), "rb") as fh:
                    record = json.loads(fh.read().decode("utf-8"))
                tokens.append(record["token"])
            except (OSError, ValueError, KeyError):
                # A torn redo record means prepare's fsync never finished,
                # so no decision can reference it: drop it (presumed abort).
                os.unlink(os.path.join(self._prepared_dir, entry))
        return tokens

    def _slot_oid(self, token: str) -> int:
        """Ledger slot object owning ``token``."""
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return self.ledger_oids[int.from_bytes(digest[:8], "big") % LEDGER_SLOTS]

    def _ledger_tokens(self, token: str) -> List[str]:
        """Committed state of ``token``'s slot, read off the chunk store."""
        payload = self.db.chunk_store.read(self._slot_oid(token))
        # The stored form carries the registry's class-id header, so it
        # must be decoded by the registry, not RemoteRecord.unpickle.
        record = self.db.object_store.registry.unpickle_object(payload)
        return list(record.value.get("tokens", []))

    # ------------------------------------------------------------------
    # Frame loop
    # ------------------------------------------------------------------

    def _serve(self) -> None:
        while not self._stop:
            try:
                request = protocol.read_frame(self.sock)
            except (OSError, ProtocolError):
                break
            if request is None:
                break  # front door went away; its restart respawns us
            self._route(request)

    def _route(self, request: Dict[str, Any]) -> None:
        op = request.get("op")
        rid = request.get("id")
        try:
            if op == "s.begin":
                self._respond(rid, self._op_begin(request))
                return
            if op in ("s.exec", "s.commit", "s.prepare", "s.abort"):
                session = self._session_for(request)
                session.queue.put(request)
                return
            if op == "s.decide":
                token = str(request.get("token"))
                session = self._session_for_token(token)
                if session is not None:
                    session.queue.put(request)
                else:
                    self._respond(rid, self._recovery_decide(request))
                return
            if op == "w.stats":
                self._respond(rid, self._op_stats())
                return
            if op == "w.token.query":
                self._respond(rid, self._op_token_query(request))
                return
            if op == "w.fault":
                # Test-only crash injection, driven by the chaos suites
                # through ShardedTdbServer.inject_worker_fault.
                self._fault_mode = str(request.get("mode") or "")
                self._respond(rid, {"armed": self._fault_mode})
                return
            if op == "w.shutdown":
                self._stop = True
                self._respond(rid, {"stopping": True})
                return
            raise ProtocolError(f"unknown worker op {op!r}")
        except TDBError as exc:
            self._respond_error(rid, exc)
        except Exception as exc:  # never kill the frame loop on one frame
            self._respond_error(rid, ServerError(f"worker fault: {exc}"))

    def _respond(self, rid, result: Dict[str, Any]) -> None:
        with self._write_lock:
            protocol.write_frame(
                self.sock, {"id": rid, "ok": True, "result": result}
            )

    def _respond_error(self, rid, exc: TDBError) -> None:
        with self._write_lock:
            protocol.write_frame(self.sock, protocol.error_payload(rid, exc))

    def _count(self, name: str) -> None:
        with self._counters_lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def _session_for(self, request) -> _WorkerSession:
        sid = int(request.get("sid", -1))
        with self._sessions_lock:
            session = self._sessions.get(sid)
        if session is None:
            raise SessionStateError(f"worker has no session {sid}")
        return session

    def _session_for_token(self, token: str) -> Optional[_WorkerSession]:
        with self._sessions_lock:
            for session in self._sessions.values():
                if session.prepared_token == token:
                    return session
        return None

    def _op_begin(self, request) -> Dict[str, Any]:
        sid = int(request.get("sid", -1))
        mode = request.get("mode", "object")
        if mode not in ("object", "collection"):
            raise ProtocolError(f"unknown transaction mode {mode!r}")
        with self._sessions_lock:
            if sid in self._sessions:
                raise SessionStateError(f"worker session {sid} already open")
            txn = (
                self.db.transaction() if mode == "object"
                else self.db.ctransaction()
            )
            session = _WorkerSession(sid, mode, txn)
            self._sessions[sid] = session
            if self.coordinator is not None:
                # Open sessions are this worker's committer population;
                # without the hint quorum sealing assumes a lone client
                # and group commit never batches.
                self.coordinator.concurrency_hint = len(self._sessions)
        session.thread = threading.Thread(
            target=self._session_loop,
            args=(session,),
            name=f"shard{self.shard}-s{sid}",
            daemon=True,
        )
        session.thread.start()
        return {"sid": sid, "mode": mode}

    def _finish_session(self, session: _WorkerSession) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.sid, None)
            if self.coordinator is not None:
                self.coordinator.concurrency_hint = len(self._sessions)

    def _session_loop(self, session: _WorkerSession) -> None:
        """Per-session executor: drains frames until the txn terminates."""
        while True:
            request = session.queue.get()
            if request is None:
                break
            rid = request.get("id")
            op = request.get("op")
            done = False
            try:
                if op == "s.exec":
                    result = self.executor.execute(
                        self.db, request.get("req") or {}, session.txn,
                        session.mode,
                    )
                elif op == "s.commit":
                    result = self._session_commit(session, request)
                    done = True
                elif op == "s.prepare":
                    result = self._session_prepare(session, request)
                elif op == "s.decide":
                    result = self._session_decide(session, request)
                    done = True
                elif op == "s.abort":
                    result = self._session_abort(session)
                    done = True
                else:
                    raise ProtocolError(f"op {op!r} not valid inside a session")
                # Unregister *before* responding: the front door may send
                # the next s.begin the instant it sees this response.
                if done:
                    self._finish_session(session)
                self._respond(rid, result)
            except TDBError as exc:
                if op == "s.commit":
                    done = True  # _session_commit aborted on failure
                if done:
                    self._finish_session(session)
                self._respond_error(rid, exc)
            except Exception as exc:
                if done:
                    self._finish_session(session)
                self._respond_error(rid, ServerError(f"worker fault: {exc}"))
            if done:
                return

    # -- commit paths ----------------------------------------------------

    def _session_commit(self, session: _WorkerSession, request) -> Dict[str, Any]:
        """Single-shard fast path: a plain group-committed commit.

        A tokened write commit first appends its token to the ledger
        slot *inside* the transaction's write set, making "did this
        commit reach the log?" durably answerable (``w.token.query``)
        after a crash.  Read-only transactions skip the append — they
        have no effects to duplicate, so a retry is always safe.
        """
        durable = bool(request.get("durable", True))
        token = request.get("token")
        txn = session.txn
        try:
            recorded = False
            if isinstance(token, str) and token:
                writes, deallocs = txn.materialize()
                if writes or deallocs:
                    self._append_ledger_token(session, token)
                    recorded = True
            txn.commit(durable=durable)
        except TDBError:
            if getattr(txn, "active", False):
                try:
                    txn.abort()
                except TDBError:
                    pass
            raise
        if self._fault_mode == "exit_after_commit":
            os._exit(42)  # the commit is durable, the ack is lost
        self._count("commits")
        return {"durable": durable, "token_recorded": recorded}

    def _inner_txn(self, session: _WorkerSession):
        if session.mode == "collection":
            return session.txn.object_transaction
        return session.txn

    def _append_ledger_token(self, session: _WorkerSession, token: str) -> None:
        """Append ``token`` to its ledger slot inside the session's
        transaction, so the append commits (or vanishes) atomically with
        the transaction's own effects."""
        ref = self._inner_txn(session).open_writable(
            self._slot_oid(token), RemoteRecord
        )
        tokens = ref.deref().value.setdefault("tokens", [])
        tokens.append(token)
        del tokens[:-LEDGER_KEEP]

    def _session_prepare(self, session: _WorkerSession, request) -> Dict[str, Any]:
        token = request.get("token")
        if not isinstance(token, str) or not token:
            raise ProtocolError("prepare needs a string commit token")
        if session.prepared_token is not None:
            raise SessionStateError("session is already prepared")
        writes, deallocs = session.txn.materialize()
        if not writes and not deallocs:
            # Read-only participant: nothing to redo, no ledger entry —
            # decide(commit) simply releases its locks.
            session.prepared_token = token
            session.readonly_prepared = True
            return {"prepared": True, "readonly": True}
        # The ledger append rides inside this transaction's write set:
        # the slot's exclusive lock serializes equal-slot commits on
        # this shard, and commit atomically records "token applied".
        self._append_ledger_token(session, token)
        writes, deallocs = session.txn.materialize()
        path = prepared_path(self._prepared_dir, token)
        blob = json.dumps(
            {
                "token": token,
                "shard": self.shard,
                "writes": {
                    str(oid): base64.b64encode(data).decode("ascii")
                    for oid, data in writes.items()
                },
                "deallocs": deallocs,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        dir_fd = os.open(self._prepared_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        session.prepared_token = token
        self._count("prepares")
        return {"prepared": True, "readonly": False}

    def _session_decide(self, session: _WorkerSession, request) -> Dict[str, Any]:
        verdict = request.get("verdict")
        if session.prepared_token is None:
            raise SessionStateError("decide on an unprepared session")
        token = session.prepared_token
        if verdict == "commit":
            if session.readonly_prepared:
                session.txn.abort()  # nothing to write; releases locks
            else:
                session.txn.commit(durable=True)
                self._unlink_prepared(token)
            self._count("decided_commits")
            return {"decided": "commit"}
        if verdict == "abort":
            session.txn.abort()
            if not session.readonly_prepared:
                self._unlink_prepared(token)
            self._count("decided_aborts")
            return {"decided": "abort"}
        raise ProtocolError(f"unknown verdict {verdict!r}")

    def _session_abort(self, session: _WorkerSession) -> Dict[str, Any]:
        if session.prepared_token is not None and not session.readonly_prepared:
            self._unlink_prepared(session.prepared_token)
        if getattr(session.txn, "active", True):
            session.txn.abort()
        return {}

    def _unlink_prepared(self, token: str) -> None:
        try:
            os.unlink(prepared_path(self._prepared_dir, token))
        except OSError:
            pass

    # -- recovery-path decide --------------------------------------------

    def _recovery_decide(self, request) -> Dict[str, Any]:
        """Decide a token that has no live session: redo or discard.

        Runs inline on the reader thread before the front door routes
        any traffic at us, so the direct chunk-store apply cannot race a
        live commit.
        """
        token = str(request.get("token"))
        verdict = request.get("verdict")
        path = prepared_path(self._prepared_dir, token)
        if not os.path.exists(path):
            return {"decided": verdict, "recovered": False}
        if verdict == "abort":
            os.unlink(path)
            self._count("decided_aborts")
            return {"decided": "abort", "recovered": True}
        if verdict != "commit":
            raise ProtocolError(f"unknown verdict {verdict!r}")
        with open(path, "rb") as fh:
            record = json.loads(fh.read().decode("utf-8"))
        if token in self._ledger_tokens(token):
            # The commit landed before the crash; only the unlink was lost.
            self._count("recovered_discards")
        else:
            writes = {
                int(oid): base64.b64decode(data)
                for oid, data in record["writes"].items()
            }
            deallocs = [int(oid) for oid in record["deallocs"]]
            for oid in writes:
                if not self.db.chunk_store.contains(oid):
                    self.db.chunk_store.adopt_chunk_id(oid)
            self.db.chunk_store.commit(writes, deallocs, durable=True)
            # The apply bypassed the object layer, whose cache may hold
            # stale unpickled instances of these ids — the catalog in
            # particular is cached by _open_database, and serving reads
            # (or re-committing it) from the stale copy would silently
            # erase a recovered name.bind/set_root.
            for oid in writes:
                self.db.object_store.evict(oid)
            for oid in deallocs:
                self.db.object_store.evict(oid)
            self._count("recovered_applies")
        os.unlink(path)
        self._count("decided_commits")
        return {"decided": "commit", "recovered": True}

    # ------------------------------------------------------------------
    # Admin ops
    # ------------------------------------------------------------------

    def _op_stats(self) -> Dict[str, Any]:
        with self._counters_lock:
            counters = dict(self._counters)
        with self._sessions_lock:
            counters["open_sessions"] = len(self._sessions)
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "chunk_store": dataclasses.asdict(self.db.stats()),
            "io": self.db.io_stats().as_dict(),
            "group_commit": (
                self.coordinator.stats_snapshot().as_dict()
                if self.coordinator is not None
                else None
            ),
            "counters": counters,
        }

    def _op_token_query(self, request) -> Dict[str, Any]:
        token = str(request.get("token"))
        return {
            "token": token,
            "in_ledger": token in self._ledger_tokens(token),
            "prepared": os.path.exists(
                prepared_path(self._prepared_dir, token)
            ),
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def _shutdown(self) -> None:
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.queue.put(None)
        for session in sessions:
            if session.thread is not None:
                session.thread.join(timeout=2.0)
            try:
                if getattr(session.txn, "active", False):
                    session.txn.abort()
            except TDBError:
                pass
        try:
            if self.db is not None:
                self.db.close()
        except TDBError:
            pass
        try:
            if self.sock is not None:
                self.sock.close()
        except OSError:
            pass


def main(argv=None) -> int:
    blob = os.environ.get(BOOTSTRAP_ENV)
    if not blob:
        print(f"{BOOTSTRAP_ENV} is not set; this process is launched by "
              "the sharded front door", file=sys.stderr)
        return 2
    bootstrap = json.loads(blob)
    return ShardWorker(bootstrap).run()


if __name__ == "__main__":
    raise SystemExit(main())
