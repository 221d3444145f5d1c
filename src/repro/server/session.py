"""The session core: what a TDB session guarantees over the wire.

:mod:`repro.server.server` moves frames and threads; the session
contract it serves is written down only here:

* who may send what before ``auth`` binds an identity on a multi-tenant
  hub, and which verbs a hub cannot serve at all;
* ``begin`` / ``commit`` / ``abort`` scoping **exactly one** open
  transaction per session;
* exactly-once commits: a ``commit`` carrying a token records its
  authoritative outcome in the server-wide
  :class:`~repro.server.commitcache.CommitResultCache`; a re-sent token
  replays that outcome, and ``commit.result`` answers it even from a
  brand-new connection;
* the one-slot request replay (see :class:`SessionState`);
* park / resume: a session whose connection *drops* keeps its
  transaction, locks and identity for a bounded grace window, and
  ``session.resume`` hands the parked state to the connection that
  presents its token;
* the transaction lifecycle: opening, running, committing and aborting
  transactions (with the replica's ``txn_gate`` and a hub session's
  tenant database);
* ``hello``, the tenant verbs, and the session-level ``resilience``
  counters of ``stats``.

Every request goes through one dispatch point, :meth:`SessionCore._dispatch`,
which finds the verb's row in :data:`repro.server.protocol.VERBS`,
applies the gates the row implies and calls the handler it names.  A
handler is a plain method run on the session's own thread.  A
:class:`~repro.errors.TDBError` is the client's answer; anything else
escaping a verb ends the session, and a commit it interrupted leaves
its token pending, because that commit's outcome is genuinely unknown.
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    AuthFailedError,
    AuthRequiredError,
    FeatureUnavailableError,
    ProtocolError,
    ReadOnlyReplicaError,
    SessionStateError,
    TDBError,
    TransientStoreError,
)
from repro.server import protocol
from repro.server.backpressure import BackpressureConfig
from repro.server.commitcache import CommitResultCache
from repro.server.protocol import DATA, STORE, VERBS, Verb
from repro.server.verbs import VerbExecutor, param
from repro.tenancy import value_bytes as _tenant_value_bytes

__all__ = ["SessionCore", "SessionState", "failed_outcome"]


def failed_outcome(exc: TDBError) -> Dict[str, Any]:
    """The commit-cache outcome recording that a commit failed with ``exc``."""
    payload = protocol.error_payload(None, exc)
    return {
        "status": "failed",
        "error": payload["error"],
        "message": payload["message"],
        "transient": payload["transient"],
    }


class SessionState:
    """Everything one client session owns, on a live connection or parked.

    The parked object *is* the state: ``session.resume`` hands this very
    object to the resuming connection, so nothing is copied and the
    open transaction keeps its identity.
    """

    __slots__ = (
        "id", "resume_token", "txn", "mode", "txn_bytes", "identity",
        "pending_auth", "last_request", "last_response", "deadline",
    )

    def __init__(self, session_id: int) -> None:
        #: The connection's key for this session (the replication
        #: shipper keys its segment pins by it).
        self.id = session_id
        #: Token a disconnected client presents to ``session.resume``.
        self.resume_token = secrets.token_hex(16)
        #: The open object or collection transaction (``None``: no
        #: transaction open) and its mode.
        self.txn: Any = None
        self.mode: Optional[str] = None
        #: Tenancy: accounting bytes of the open transaction's mutating
        #: verbs, the bound ``(tenant, principal)`` identity, and the
        #: pending auth challenge.
        self.txn_bytes = 0
        self.identity: Any = None
        self.pending_auth: Optional[Dict[str, Any]] = None
        # One-slot response cache: a re-delivered request (chaos
        # duplicate, or the in-flight request re-sent after a resume)
        # replays the stored response instead of executing twice.  The
        # whole request is matched, not just its id: a *new* client
        # adopting a parked session starts its own id sequence, and a
        # colliding id on a different request must execute, not replay.
        self.last_request: Optional[Dict[str, Any]] = None
        self.last_response: Optional[Dict[str, Any]] = None
        self.deadline = 0.0  # parked-until, set when parked


class SessionCore:
    """The server-wide half of the session contract (see module docstring)."""

    def __init__(self, server) -> None:
        #: The :class:`~repro.server.server.TdbServer`: its database,
        #: replica gate and store verbs.
        self.server = server
        self.backpressure: BackpressureConfig = server.backpressure
        #: Optional :class:`repro.tenancy.TenancyHub`.  When set, every
        #: session must bind a ``(tenant, principal)`` identity via the
        #: auth challenge-response before touching data.
        self.tenancy = server.tenancy
        #: Boot nonce: lets a client distinguish "this server never saw
        #: your commit token" from "the server restarted and lost its
        #: token cache" — the latter makes an unknown token *in doubt*.
        self.epoch = secrets.token_hex(8)
        self.commit_results = CommitResultCache()
        self.executor = VerbExecutor(max_results=server.max_results)
        # Guards the parked registry and the counters: the threaded
        # server reaches both from every session thread.
        self._lock = threading.Lock()
        self._parked: Dict[str, SessionState] = {}
        self._closed = False
        self._counters: Dict[str, int] = {
            "sessions_parked": 0,
            "sessions_resumed": 0,
            "resume_failures": 0,
            "grace_expired": 0,
            "request_replays": 0,
            "commit_replays": 0,
            "indoubt_hits": 0,
            "indoubt_misses": 0,
        }

    def count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    # ------------------------------------------------------------------
    # One request
    # ------------------------------------------------------------------

    def serve(
        self, state: SessionState, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], SessionState]:
        """Answer one request frame: the response and the session's
        state — a different object once ``session.resume`` adopted a
        parked session."""
        request_id = request.get("id")
        if (
            request_id is not None
            and state.last_response is not None
            and request == state.last_request
        ):
            self.count("request_replays")
            return state.last_response, state
        try:
            result, state = self._dispatch(state, request)
            response = {"id": request_id, "ok": True, "result": result}
        except TDBError as exc:
            response = protocol.error_payload(request_id, exc)
        # Cache before the server writes: if the write dies the
        # session parks with the response, and the resumed client's
        # re-send replays it.  A resume response must not clobber the
        # slot it just adopted — the slot still holds the dropped
        # connection's in-flight response, which the client is about to
        # ask for.
        if request.get("op") != "session.resume":
            state.last_request = dict(request)
            state.last_response = response
        return response, state

    def _dispatch(
        self, state: SessionState, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], SessionState]:
        """The one dispatch point: find the verb's row, apply the gates
        it implies, call the handler it names."""
        op = request.get("op")
        if not isinstance(op, str):
            raise ProtocolError("request needs a string 'op' field")
        verb = VERBS.get(op)
        if self.tenancy is not None:
            if state.identity is None and not (verb and verb.preauth):
                raise AuthRequiredError(
                    "this server is a multi-tenant hub; bind an identity "
                    "with the auth challenge-response first"
                )
            if verb and verb.kind == STORE:
                raise FeatureUnavailableError(
                    f"verb {op!r} is unavailable on a multi-tenant hub: it "
                    "is per-database (no single replication stream or "
                    "transparency head spans tenants; per-tenant heads are "
                    "a roadmap item)"
                )
        if verb is None:
            raise ProtocolError(f"unknown verb {op!r}")
        if verb.kind == DATA:
            return self._run_data_verb(verb, state, request), state
        handler = getattr(self.server if verb.kind == STORE else self, verb.handler)
        if op == "session.resume":  # the one verb that swaps the state
            return handler(state, request)
        return handler(state, request), state

    def _run_data_verb(
        self, verb: Verb, state: SessionState, request
    ) -> Dict[str, Any]:
        hub = self.tenancy
        if hub is not None:
            hub.check(state.identity, verb, request)
        if verb.mutating and self.server.read_only:
            # ``begin`` / ``commit`` / ``abort`` stay allowed: a
            # read-only transaction's commit carries no writes, so it
            # never reaches the chunk store's commit path.
            raise ReadOnlyReplicaError(
                f"verb {verb.name!r} refused: this server is a read-only "
                "replica; write to the primary or promote this node"
            )
        result = self.executor.execute(
            verb, self._session_db(state), request, state.txn, state.mode
        )
        if hub is not None and verb.mutating:
            state.txn_bytes += _tenant_value_bytes(request)
        return result

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def _op_begin(self, state: SessionState, request) -> Dict[str, Any]:
        mode = param(request, "mode", default="object")
        if mode not in ("object", "collection"):
            raise ProtocolError(f"unknown transaction mode {mode!r}")
        if state.txn is not None:
            raise SessionStateError(
                "a transaction is already open in this session"
            )
        if self.tenancy is not None:
            # Tenancy: charge the tenant's txn/s token bucket first; a
            # refused begin opens nothing.
            self.tenancy.on_begin(state.identity)
        gate = self.server.txn_gate
        if gate is not None:
            # Replica mode: the transaction pins the current image so the
            # applier cannot swap it mid-transaction.  The gate is held
            # exactly as long as the transaction is open.
            gate.acquire_shared()
        try:
            db = self._session_db(state)
            state.txn = db.transaction() if mode == "object" else db.ctransaction()
        except BaseException:
            self._release_gate()
            raise
        state.mode = mode
        state.txn_bytes = 0
        return {
            "mode": mode,
            "session": state.resume_token,
            "epoch": self.epoch,
        }

    def _op_commit(self, state: SessionState, request) -> Dict[str, Any]:
        token = param(request, "token", str, None)
        durable = bool(param(request, "durable", default=True))
        cache = self.commit_results
        if token is not None:
            prior = cache.begin(token)
            if prior is not None:
                return self._replay_commit_outcome(prior)
        if state.txn is None:
            if token is not None:
                cache.cancel(token)
            raise SessionStateError("no open transaction to commit")
        txn, txn_bytes = self._detach(state)
        hub, identity = self.tenancy, state.identity
        quota_held = False
        committed = False
        try:
            if hub is not None:
                # Tenancy: the pending-commit and stored-bytes budgets
                # gate the commit.  A refusal aborts the transaction so
                # nothing keeps its locks, and resolves the token as a
                # transient failure below.
                try:
                    hub.on_commit_start(identity, txn_bytes)
                except Exception:
                    self._abort_txn(txn)
                    raise
                quota_held = True
            self._commit_txn(txn, durable)
            committed = True
        except TDBError as exc:
            # The commit failed (queue full, store fault, deferred index
            # violation, quota...); the server released the locks.  Any
            # other exception (crash injection, a bug) leaves the outcome
            # genuinely unknown: the token stays pending, commit.result
            # says so, and the session ends.
            if token is not None:
                cache.resolve(token, failed_outcome(exc))
            raise
        finally:
            if quota_held:
                # Releases the pending-commit slot; on success it also
                # settles the stored-bytes meter and the audit trail.
                # (An in-doubt outcome releases without recording —
                # metering is accounting, not a ledger.)
                hub.on_commit_end(identity, txn_bytes, committed)
        if token is not None:
            cache.resolve(token, {"status": "committed", "durable": durable})
        return {"durable": durable}

    def _replay_commit_outcome(self, prior: Dict[str, Any]) -> Dict[str, Any]:
        """A commit re-sent with an already-seen token: replay, never re-run."""
        status = prior.get("status")
        if status == "pending":
            # Another session (or a crashed one) holds this token's
            # commit in flight; the client should poll commit.result.
            raise TransientStoreError(
                "a commit with this token is already in flight; "
                "query commit.result for the outcome"
            )
        self.count("commit_replays")
        if status == "failed":
            raise protocol.exception_from_payload(prior)
        return {"durable": prior.get("durable", True), "replayed": True}

    def _op_commit_result(self, state: SessionState, request) -> Dict[str, Any]:
        token = param(request, "token", str)
        payload = self.commit_results.lookup(token)
        self.count(
            "indoubt_misses" if payload["status"] == "unknown"
            else "indoubt_hits"
        )
        payload["epoch"] = self.epoch
        return payload

    def _op_abort(self, state: SessionState, request) -> Dict[str, Any]:
        if state.txn is None:
            raise SessionStateError("no open transaction to abort")
        self._abort_txn(self._detach(state)[0])
        return {}

    @staticmethod
    def _detach(state: SessionState) -> Tuple[Any, int]:
        """Take the open transaction and its accounted bytes off the
        session: whatever happens to it next, the session has none."""
        taken = state.txn, state.txn_bytes
        state.txn, state.mode, state.txn_bytes = None, None, 0
        return taken

    def _session_db(self, state: SessionState):
        """The database a session's verbs run against, read per call:
        a replica applier swaps ``server.db``, and a hub session's
        tenant database is looked up from its leased identity."""
        if self.tenancy is not None:
            return self.tenancy.session_db(state.identity)
        return self.server.db

    def _commit_txn(self, txn, durable: bool) -> None:
        """Commit ``txn`` (already detached from its session).  The
        transaction is over either way: a failed commit has released its
        locks before the error propagates."""
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

    def _abort_txn(self, txn) -> None:
        try:
            txn.abort()
        finally:
            self._release_gate()

    def _release_gate(self) -> None:
        if self.server.txn_gate is not None:
            self.server.txn_gate.release_shared()

    # ------------------------------------------------------------------
    # hello / tenancy
    # ------------------------------------------------------------------

    def _op_hello(self, state: SessionState, request) -> Dict[str, Any]:
        """Protocol version + capability negotiation.

        ``absent_verbs`` names protocol verbs this server cannot serve
        (they fail with ``FeatureUnavailableError``) so a new client can
        route around a capability gap before tripping over it.
        """
        features = ["resume", "commit-tokens"]
        absent = []
        if self.tenancy is not None:
            # Replication streams and transparency heads belong to one
            # store; a hub has none (per-tenant heads are a roadmap item).
            features.append("tenancy")
            absent = [verb.name for verb in VERBS.values() if verb.kind == STORE]
        else:
            features.append("proofs")
            if self.server.shipper is not None:
                features.append("replication")
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "server": "tdb",
            "mode": "replica" if self.server.read_only else "primary",
            "epoch": self.epoch,
            "features": features,
            "absent_verbs": absent,
        }

    def _require_hub(self):
        if self.tenancy is None:
            raise FeatureUnavailableError(
                "this server is not a multi-tenant hub; it serves one "
                "anonymous database (start it with a TenancyHub / "
                "serve --tenants for per-principal auth)"
            )
        return self.tenancy

    def release_identity(self, state: SessionState) -> None:
        """Drop a session's hub identity: its tenant lease and quota
        slot."""
        if self.tenancy is not None and state.identity is not None:
            self.tenancy.release(state.identity)
            state.identity = None

    def _op_auth(self, state: SessionState, request) -> Dict[str, Any]:
        hub = self._require_hub()
        if state.txn is not None:
            raise SessionStateError(
                "authenticate before opening a transaction"
            )
        tenant = param(request, "tenant", str)
        principal = param(request, "principal", str)
        proof = param(request, "proof", default=None)
        if proof is None:
            state.pending_auth = hub.begin_auth(tenant, principal)
            return {"challenge": state.pending_auth["challenge"]}
        # The pending challenge is consumed by the attempt, success or
        # not: replaying an observed proof finds no challenge and fails.
        pending, state.pending_auth = state.pending_auth, None
        if (
            pending is None
            or pending["tenant"] != tenant
            or pending["principal"] != principal
        ):
            raise AuthFailedError("authentication failed")
        identity = hub.finish_auth(pending, proof)
        self.release_identity(state)
        state.identity = identity
        return {
            "authenticated": True,
            "tenant": identity.tenant,
            "principal": identity.principal,
        }

    def _op_tenant_edit(self, state: SessionState, request):
        # tenant.grant and tenant.revoke: the hub method is named by the verb.
        edit = getattr(self._require_hub(), request["op"].rpartition(".")[2])
        return edit(
            state.identity.tenant,
            param(request, "principal", str),
            param(request, "scope", str),
            param(request, "right", str),
            caller=state.identity,
        )

    def _op_tenant_meter(self, state: SessionState, request):
        return self._require_hub().meter(state.identity.tenant)

    def _op_stats(self, state: SessionState, request) -> Dict[str, Any]:
        return self.server.stats_payload()

    # ------------------------------------------------------------------
    # Park / resume / end
    # ------------------------------------------------------------------

    def park(self, state: SessionState) -> bool:
        """Preserve a dropped session's state for the grace window.

        Strict 2PL locks are keyed by transaction, not by thread, so the
        open transaction simply waits in the registry.  ``False`` (the
        caller ends the session) when parking is disabled, the core is
        closed, nothing is worth preserving, or the registry is full.
        The server releases its admission slot either way — a parked
        session must not starve live connections.
        """
        grace = self.backpressure.effective_resume_grace
        if grace <= 0:
            return False
        if state.txn is None and state.last_response is None:
            return False
        with self._lock:
            if self._closed or len(self._parked) >= self.backpressure.max_sessions:
                return False
            state.deadline = time.monotonic() + grace
            self._parked[state.resume_token] = state
        self.count("sessions_parked")
        return True

    def _op_session_resume(
        self, state: SessionState, request
    ) -> Tuple[Dict[str, Any], SessionState]:
        """``session.resume``: adopt the parked session wholesale."""
        token = param(request, "session", str)
        if state.txn is not None:
            raise SessionStateError(
                "cannot resume into a session with an open transaction"
            )
        with self._lock:
            parked = self._parked.pop(token, None)
        if parked is None:
            self.count("resume_failures")
            raise SessionStateError(
                "unknown, expired, or already-resumed session token"
            )
        self.count("sessions_resumed")
        # Identity and quota lease ride along with the
        # parked state (the resume token is the bearer credential); what
        # the fresh connection held itself is dropped.
        self.end(state)
        return {
            "resumed": True,
            "txn_open": parked.txn is not None,
            "mode": parked.mode,
            "epoch": self.epoch,
        }, parked

    def end(self, state: SessionState) -> None:
        """A session is over for good (closed, timed out, grace expired,
        server stopping): abort what it left open — releasing its locks
        so other sessions stop blocking on a dead client — and drop its
        hub identity."""
        txn = self._detach(state)[0]
        if txn is not None:
            try:
                self._abort_txn(txn)
            except TDBError:
                pass
        self.release_identity(state)

    @property
    def sweep_interval(self) -> float:
        """How often the server's timer should call :meth:`expire_parked`."""
        grace = self.backpressure.effective_resume_grace
        return max(0.02, min(grace / 4.0, 0.25))

    def expire_parked(self) -> None:
        """End every parked session whose grace window has passed."""
        now = time.monotonic()
        with self._lock:
            expired = [
                self._parked.pop(token)
                for token, entry in list(self._parked.items())
                if entry.deadline <= now
            ]
        for entry in expired:
            self.count("grace_expired")
            self.end(entry)

    def close(self) -> None:
        """Server stopping: refuse further parking, end what is parked."""
        with self._lock:
            self._closed = True
            parked = list(self._parked.values())
            self._parked.clear()
        for entry in parked:
            self.end(entry)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def resilience_snapshot(self) -> Dict[str, Any]:
        """The session-level ``resilience`` section of ``stats``."""
        with self._lock:
            resilience: Dict[str, Any] = dict(self._counters)
            resilience["parked_sessions"] = len(self._parked)
        resilience["resume_grace"] = self.backpressure.effective_resume_grace
        resilience["epoch"] = self.epoch
        resilience["commit_tokens"] = self.commit_results.stats_snapshot()
        return resilience
