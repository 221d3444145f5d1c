"""The threaded TDB socket server: concurrent sessions over one Database.

Turns the embedded stack into a service (the step GlassDB takes in
front of its verifiable ledger store): a listener thread accepts
connections under admission control, and each connection gets a
:class:`Session` — a thread that reads protocol frames and hands them
to the shared :class:`~repro.server.session.SessionCore`, which owns
the session contract (one open transaction, exactly-once commits,
request replay, park/resume, hub auth).  :class:`TdbServer` is the
core's in-process backend: verbs map straight onto
``Database.transaction()`` / ``ctransaction()`` under the existing
strict-2PL locks, and nothing in it ever suspends, so the session
thread runs every handler to completion itself.

Concurrency model:

* isolation comes entirely from the object store's strict two-phase
  locking — the server adds no locking of its own around data access,
* the shared commit path is serialized by the chunk store's internal
  writer mutex, and commits are routed through the group-commit
  coordinator so concurrent sessions share one log append + sync +
  counter advance (:mod:`repro.server.groupcommit`),
* a session that times out idle or mid-request has its transaction
  aborted — releasing its locks so other sessions stop blocking on a
  dead client — and its connection closed
  (:mod:`repro.server.backpressure`),
* a session whose connection *drops* (rather than timing out or closing
  cleanly) is parked by the core for a bounded grace window.

Besides sockets and threads this module keeps the verbs that exist only
on a single store: the ``repl.*`` replication stream and the
``proof.*`` / ``log.*`` transparency verbs.

The remote data model is JSON: values live in :class:`RemoteRecord`
persistent objects and collections are indexed by record fields, so a
remote client needs no Python class registry.
"""

from __future__ import annotations

import base64
import dataclasses
import socket
import threading
from typing import Any, Dict, Optional

from repro.errors import (
    ConfigError,
    ProtocolError,
    ReadOnlyReplicaError,
    ReplicationError,
    TDBError,
)
from repro.server.backpressure import AdmissionControl, BackpressureConfig
from repro.server.groupcommit import GroupCommitCoordinator
from repro.server import protocol
from repro.server.session import (
    SessionBackend,
    SessionCore,
    SessionState,
    run_to_completion,
)
from repro.server.verbs import (
    MUTATING_DATA_VERBS,
    RemoteRecord,
    VerbExecutor,
    field_indexer,
    param,
)

__all__ = ["RemoteRecord", "TdbServer", "field_indexer"]


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


class Session:
    """One connection: a thread feeding request frames to the session core."""

    def __init__(
        self, server: "TdbServer", sock: socket.socket, session_id: int
    ) -> None:
        self.server = server
        self.sock = sock
        self.session_id = session_id
        self.state = SessionState(session_id)
        self._stop = False
        self.thread = threading.Thread(
            target=self._run, name=f"tdb-session-{session_id}", daemon=True
        )

    def stop(self) -> None:
        """Ask the session to exit; unblocks its pending recv."""
        self._stop = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _run(self) -> None:
        config = self.server.backpressure
        core = self.server.core
        parked = False
        try:
            while not self._stop:
                try:
                    request = protocol.read_frame(
                        self.sock,
                        idle_timeout=config.idle_timeout,
                        body_timeout=config.request_timeout,
                    )
                except socket.timeout:
                    # Idle or mid-request timeout: the session ends and
                    # its transaction is aborted below.
                    if self.state.txn is not None:
                        self.server.admission.record_timeout_abort()
                    break
                if request is None:
                    break  # clean EOF
                response, state = run_to_completion(
                    core.serve(self.state, request)
                )
                if state is not self.state:
                    # session.resume adopted a parked session; the
                    # shipper's pins stay keyed by this connection.
                    state.id = self.session_id
                    self.state = state
                protocol.write_frame(self.sock, response)
        except (OSError, ProtocolError):
            # The peer vanished mid-conversation (or a frame was cut
            # short).  Instead of instantly aborting the transaction,
            # park the session state for the resume grace window so the
            # client can reconnect with its token and carry on — unless
            # the session was stopped deliberately.
            parked = (
                not self._stop
                and not self.server._stopping
                and core.park(self.state)
            )
        finally:
            if not parked:
                run_to_completion(core.end(self.state))
            try:
                self.sock.close()
            except OSError:
                pass
            self.server._session_finished(self)


class TdbServer(SessionBackend):
    """Threaded socket server over one :class:`~repro.db.Database`."""

    def __init__(
        self,
        db,
        host: str = "127.0.0.1",
        port: int = 0,
        backpressure: Optional[BackpressureConfig] = None,
        max_batch: int = 32,
        max_delay: float = 0.005,
        max_results: int = 1000,
        read_only: bool = False,
        txn_gate=None,
        replication_stats=None,
        tenancy=None,
    ) -> None:
        if tenancy is not None:
            if db is not None:
                raise ConfigError(
                    "pass either a database or a TenancyHub, not both: a "
                    "multi-tenant hub serves the registry's databases"
                )
            if read_only:
                raise ConfigError(
                    "a multi-tenant hub cannot run read-only: audit and "
                    "metering write through the tenants' own databases"
                )
        elif db is None:
            raise ConfigError("a server needs a database (or a TenancyHub)")
        #: Swapped wholesale by a replica applier installing a shipped
        #: image, so every use reads it afresh.
        self.db = db
        self.tenancy = tenancy
        self.host = host
        self.port = port
        self.backpressure = backpressure or BackpressureConfig()
        self.max_results = max_results
        self.read_only = read_only
        self.txn_gate = txn_gate
        self.replication_stats = replication_stats
        self.admission = AdmissionControl(self.backpressure.max_sessions)
        self.executor = VerbExecutor(max_results=max_results)
        self.core = SessionCore(self, self.backpressure, tenancy)
        if read_only or tenancy is not None:
            # A replica commits nothing, so there is nothing to batch —
            # and its store would refuse the coordinator's commits anyway.
            # A tenancy hub has no single database to batch or ship:
            # commits go through each tenant's own stack.
            self.coordinator: Optional[GroupCommitCoordinator] = None
            self.shipper = None
        else:
            self.coordinator = db.enable_group_commit(
                max_batch=max_batch,
                max_delay=max_delay,
                max_pending=self.backpressure.max_pending_commits,
            )
            from repro.replication.shipper import ReplicationShipper

            self.shipper = ReplicationShipper(db.chunk_store)
        self.register_data_model()
        # Built lazily on the first proof/log verb (insecure stores have
        # none to serve) and rebuilt when a replica applier swaps db.
        self._proof_service = None
        self._proof_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: Dict[int, Session] = {}
        self._sessions_lock = threading.Lock()
        self._next_session_id = 1
        self._stopping = False
        self._started = False
        self._reaper_thread: Optional[threading.Thread] = None
        self._reaper_wake = threading.Event()

    @property
    def epoch(self) -> str:
        """The session core's boot nonce (see ``SessionCore.epoch``)."""
        return self.core.epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "TdbServer":
        """Bind, listen, and serve in background threads."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.backpressure.max_sessions + 8)
        listener.settimeout(0.25)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tdb-accept", daemon=True
        )
        self._started = True
        self._accept_thread.start()
        if self.backpressure.effective_resume_grace > 0:
            self._reaper_thread = threading.Thread(
                target=self._reaper_loop, name="tdb-park-reaper", daemon=True
            )
            self._reaper_thread.start()
        return self

    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 resolves at start)."""
        return (self.host, self.port)

    def stop(self) -> None:
        """Stop accepting, drain sessions (aborting open transactions)."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.stop()
        for session in sessions:
            session.thread.join(timeout=5.0)
        self._reaper_wake.set()
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=5.0)
            self._reaper_thread = None
        run_to_completion(self.core.close())
        if self.shipper is not None:
            self.shipper.close()
        with self._proof_lock:
            if self._proof_service is not None:
                self._proof_service.close()
                self._proof_service = None
        if self.coordinator is not None:
            self.db.disable_group_commit()
        self._started = False

    def __enter__(self) -> "TdbServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept loop
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _address = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed
            if not self.admission.try_admit():
                self._reject(sock)
                continue
            with self._sessions_lock:
                session_id = self._next_session_id
                self._next_session_id += 1
                session = Session(self, sock, session_id)
                self._sessions[session_id] = session
            if self.coordinator is not None:
                self.coordinator.concurrency_hint = self.admission.active
            session.thread.start()

    def _reject(self, sock: socket.socket) -> None:
        try:
            protocol.write_frame(sock, self.admission.refusal())
        except OSError:
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _session_finished(self, session: Session) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.session_id, None)
        if self.shipper is not None:
            self.shipper.release(session.session_id)
        self.admission.release()
        if self.coordinator is not None:
            self.coordinator.concurrency_hint = self.admission.active

    def _reaper_loop(self) -> None:
        """The timer behind the core's parked-session expiry sweep."""
        while not self._stopping:
            self._reaper_wake.wait(self.core.sweep_interval)
            if self._stopping:
                break
            run_to_completion(self.core.expire_parked())

    # ------------------------------------------------------------------
    # The session core's in-process backend
    # ------------------------------------------------------------------

    def _session_db(self, state: SessionState):
        """The database a session's verbs run against, read per call."""
        if self.tenancy is not None:
            return self.tenancy.session_db(state.identity)
        return self.db

    def _release_gate(self) -> None:
        if self.txn_gate is not None:
            self.txn_gate.release_shared()

    async def begin_txn(self, state: SessionState, mode: str):
        if self.txn_gate is not None:
            # Replica mode: the transaction pins the current image so the
            # applier cannot swap it mid-transaction.  The gate is held
            # exactly as long as the transaction is open.
            self.txn_gate.acquire_shared()
        try:
            db = self._session_db(state)
            return db.transaction() if mode == "object" else db.ctransaction()
        except BaseException:
            self._release_gate()
            raise

    async def execute(self, state: SessionState, request) -> Dict[str, Any]:
        if self.read_only and request["op"] in MUTATING_DATA_VERBS:
            # ``begin`` / ``commit`` / ``abort`` stay allowed: a
            # read-only transaction's commit carries no writes, so it
            # never reaches the chunk store's commit path.
            raise ReadOnlyReplicaError(
                f"verb {request['op']!r} refused: this server is a "
                "read-only replica; write to the primary or promote this node"
            )
        return self.executor.execute(
            self._session_db(state), request, state.txn, state.mode
        )

    async def commit_txn(
        self, state: SessionState, txn, durable: bool, token: Optional[str]
    ) -> Dict[str, Any]:
        try:
            txn.commit(durable=durable)
        except TDBError:
            # Release the locks so the failed session cannot wedge its
            # neighbours.
            try:
                if getattr(txn, "active", False):
                    txn.abort()
            except TDBError:
                pass
            raise
        finally:
            self._release_gate()
        return {"durable": durable}

    async def abort_txn(self, state: SessionState, txn) -> None:
        try:
            txn.abort()
        finally:
            self._release_gate()

    async def hub_call(self, fn, *args):
        return fn(*args)

    def internal_fault(self, exc: Exception) -> TDBError:
        # Crash injection or an interpreter-level failure: the session
        # ends, and the outcome of a commit it interrupted is genuinely
        # unknown — its token stays pending.
        raise exc

    def describe(self) -> Dict[str, Any]:
        features = []
        if self.tenancy is None:
            features.append("proofs")
            if self.shipper is not None:
                features.append("replication")
        return {
            "mode": "replica" if self.read_only else "primary",
            "sharded": False,
            "shards": 1,
            "features": features,
        }

    async def serve_verb(self, state: SessionState, request) -> Dict[str, Any]:
        # The core has checked the verb against protocol.VERBS and kept
        # its own, so what arrives here is stats or a per-store verb.
        handler = getattr(self, "_op_" + request["op"].replace(".", "_"))
        return handler(state, request)

    def _op_stats(self, state: SessionState, request) -> Dict[str, Any]:
        return self.stats_payload()

    # -- replication -------------------------------------------------------

    def _require_shipper(self):
        if self.shipper is None:
            raise ReplicationError(
                "this server does not ship: it is itself a read-only replica"
            )
        return self.shipper

    def _op_repl_subscribe(self, state: SessionState, request) -> Dict[str, Any]:
        return self._require_shipper().subscribe(
            state.id,
            param(request, "last_generation", int, None),
            param(request, "last_seqno", int, None),
        )

    def _op_repl_segments(self, state: SessionState, request) -> Dict[str, Any]:
        shipper = self._require_shipper()
        segment = param(request, "segment", int)
        offset = param(request, "offset", int)
        length = param(request, "length", int)
        data = shipper.read_segment(state.id, segment, offset, length)
        return {"segment": segment, "offset": offset, "data": _b64(data)}

    def _op_repl_master(self, state: SessionState, request) -> Dict[str, Any]:
        payload = self._require_shipper().master_blob(state.id)
        return {"name": payload["name"], "data": _b64(payload["blob"])}

    # -- proofs / transparency log ----------------------------------------

    def _op_proof_read(self, state: SessionState, request) -> Dict[str, Any]:
        chunk_id = param(request, "chunk_id", int)
        head, proof = self.proof_service().prove(chunk_id)
        return {
            "uuid": _b64(self.db.chunk_store.db_uuid),
            "head": _b64(head.raw),
            "chunk_id": proof.chunk_id,
            "depth": proof.depth,
            "present": proof.present,
            "nodes": [_b64(node) for node in proof.nodes],
            "payload": (
                _b64(proof.payload) if proof.payload is not None else None
            ),
        }

    # Same walk as proof.read; kept as its own verb so audits can ask
    # "prove you do NOT have this" without ambiguity.
    _op_proof_absent = _op_proof_read

    def _op_log_head(self, state: SessionState, request) -> Dict[str, Any]:
        head, length = self.proof_service().head()
        return {
            "uuid": _b64(self.db.chunk_store.db_uuid),
            "head": _b64(head.raw),
            "length": length,
        }

    def _op_log_consistency(self, state: SessionState, request) -> Dict[str, Any]:
        from_index = param(request, "from_index", int)
        to_index = param(request, "to_index", int)
        entries = self.proof_service().consistency(from_index, to_index)
        return {
            "uuid": _b64(self.db.chunk_store.db_uuid),
            "entries": [_b64(entry) for entry in entries],
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def register_data_model(self) -> None:
        """(Re-)register the remote data model with the current database.

        Called at construction and again by the replica applier after it
        swaps ``self.db`` for a freshly installed image.
        """
        if self.db is not None and self.db.object_store is not None:
            self.db.object_store.registry.register(RemoteRecord)

    def proof_service(self):
        """The (lazily built) proof service for the *current* database.

        A replica applier swaps ``self.db`` wholesale when it installs a
        shipped image; a service anchored to the old store would serve
        proofs for a closed tree, so the accessor rebuilds whenever the
        store identity changed.
        """
        from repro.proofs.service import ProofService

        with self._proof_lock:
            service = self._proof_service
            if service is not None and service.store is not self.db.chunk_store:
                service.close()
                service = None
            if service is None:
                service = ProofService(self.db.chunk_store)
                self._proof_service = service
            return service

    def stats_payload(self) -> Dict[str, Any]:
        """The admin ``stats`` verb: one JSON-able view of the stack."""
        if self.tenancy is not None:
            payload: Dict[str, Any] = {
                "chunk_store": None,
                "io": None,
                "group_commit": None,
                "sessions": self.admission.as_dict(),
                "read_only": self.read_only,
                "tenancy": self.tenancy.stats(),
            }
        else:
            chunk = dataclasses.asdict(self.db.stats())
            payload = {
                "chunk_store": chunk,
                "io": self.db.io_stats().as_dict(),
                "group_commit": (
                    self.coordinator.stats_snapshot().as_dict()
                    if self.coordinator is not None
                    else None
                ),
                "sessions": self.admission.as_dict(),
                "read_only": self.read_only,
            }
        payload["resilience"] = self.core.resilience_snapshot()
        if self.tenancy is not None:
            payload["replication"] = None
            payload["head"] = None
            return payload
        replication: Dict[str, Any] = {"role": "replica" if self.read_only else "primary"}
        if self.shipper is not None:
            replication["shipper"] = self.shipper.stats_snapshot()
        if self.replication_stats is not None:
            replication["applier"] = self.replication_stats()
        payload["replication"] = replication
        head: Optional[Dict[str, Any]] = None
        store = self.db.chunk_store
        log = getattr(store, "transparency", None)
        if log is not None:
            tip = log.tip()
            head = {
                "log_length": len(log),
                "scheme": log.scheme,
                "generation": tip.generation if tip else None,
                "seqno": tip.seqno if tip else None,
                "root": tip.root_digest.hex() if tip else None,
            }
            with self._proof_lock:
                if self._proof_service is not None:
                    head["proofs"] = self._proof_service.stats_snapshot()
        payload["head"] = head
        return payload
