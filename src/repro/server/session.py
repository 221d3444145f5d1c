"""The session core: what a TDB session guarantees over the wire.

Both frontends — the threaded :mod:`repro.server.server` and the
asyncio front door of :mod:`repro.server.sharded` — serve one session
contract, written down only here:

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
* ``hello``, the tenant verbs, and the session-level ``resilience``
  counters of ``stats``.

Every handler is a coroutine function over :class:`SessionBackend`.
The asyncio front door awaits them on its loop with a backend that
routes to shard workers; the threaded server's in-process backend
never suspends, so its session threads drive the same coroutines with
:func:`run_to_completion` — no event loop, extra thread or hop.
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import Any, Coroutine, Dict, List, Optional, Tuple

from repro.errors import (
    AuthFailedError,
    AuthRequiredError,
    FeatureUnavailableError,
    ProtocolError,
    SessionStateError,
    TDBError,
    TransientStoreError,
)
from repro.server import protocol
from repro.server.backpressure import BackpressureConfig
from repro.server.commitcache import CommitResultCache
from repro.server.verbs import DATA_VERBS, MUTATING_DATA_VERBS, param
from repro.tenancy import value_bytes as _tenant_value_bytes

__all__ = [
    "SessionBackend",
    "SessionCore",
    "SessionState",
    "failed_outcome",
    "run_to_completion",
]

#: Verbs a multi-tenant hub answers before ``auth`` binds an identity.
#: Everything else on a hub requires an authenticated session.
_PREAUTH_VERBS = ("hello", "auth", "stats", "commit.result", "session.resume")

#: Verbs that are inherently per-database: replication streams and
#: transparency heads belong to one store.  Neither a multi-tenant hub
#: (per-tenant heads are a roadmap item) nor a sharded root has one;
#: both advertise these as ``absent_verbs`` in ``hello``.
PER_STORE_VERBS = (
    "repl.subscribe",
    "repl.segments",
    "repl.master",
    "proof.read",
    "proof.absent",
    "log.head",
    "log.consistency",
)


def run_to_completion(coro: Coroutine) -> Any:
    """Drive a coroutine that never suspends, on the calling thread:
    the threaded server's backend only ever blocks, so the first
    ``send`` runs a handler to its end."""
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError("a session handler suspended outside an event loop")


def failed_outcome(exc: TDBError) -> Dict[str, Any]:
    """The commit-cache outcome recording that a commit failed with ``exc``."""
    payload = protocol.error_payload(None, exc)
    outcome = {
        "status": "failed",
        "error": payload["error"],
        "message": payload["message"],
        "transient": payload["transient"],
    }
    # A sharded backend tags an in-doubt commit with the shard whose
    # durable ledger can still settle it (see ``settle_token``).
    shard = getattr(exc, "shard", None)
    if shard is not None:
        outcome["shard"] = shard
    return outcome


class SessionState:
    """Everything one client session owns, on a live connection or parked.

    The parked object *is* the state: ``session.resume`` hands this very
    object to the resuming connection, so nothing is copied and the
    backend's transaction handle keeps its identity.
    """

    __slots__ = (
        "id", "resume_token", "txn", "mode", "txn_bytes", "identity",
        "pending_auth", "last_request", "last_response", "deadline",
    )

    def __init__(self, session_id: int) -> None:
        #: The transport's key for this session (the sharded backend
        #: keys worker-side transactions by it).
        self.id = session_id
        #: Token a disconnected client presents to ``session.resume``.
        self.resume_token = secrets.token_hex(16)
        #: The backend's handle on the open transaction (``None``: no
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


class SessionBackend:
    """What the session core needs from the store behind a frontend.

    Coroutine functions throughout, so one handler text serves a
    backend that awaits worker processes and one that only ever blocks.
    """

    async def begin_txn(self, state: SessionState, mode: str) -> Any:
        """Open a transaction; the returned handle becomes ``state.txn``."""
        raise NotImplementedError

    async def execute(self, state: SessionState, request) -> Dict[str, Any]:
        """Run one data verb in the session's transaction."""
        raise NotImplementedError

    async def commit_txn(
        self, state: SessionState, txn: Any, durable: bool,
        token: Optional[str],
    ) -> Dict[str, Any]:
        """Commit ``txn`` (already detached from ``state``); returns the
        ``commit`` result.  The transaction is over either way: a
        backend that raises has released its locks first."""
        raise NotImplementedError

    async def abort_txn(self, state: SessionState, txn: Any) -> None:
        """Abort ``txn`` (already detached from ``state``)."""
        raise NotImplementedError

    async def settle_token(self, token: str, payload) -> Optional[Dict[str, Any]]:
        """Settle a token the cache cannot answer (``payload`` says
        ``unknown`` or records an in-doubt failure) from the backend's
        durable state; ``None`` when it has nothing better."""
        return None

    async def hub_call(self, fn, *args) -> Any:
        """Call one blocking :class:`~repro.tenancy.TenancyHub` method."""
        raise NotImplementedError

    async def serve_verb(self, state: SessionState, request) -> Dict[str, Any]:
        """Serve ``stats`` or a per-store verb (the core defines neither)."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """The frontend's part of ``hello``: ``mode``, ``sharded``,
        ``shards`` and its own ``features``."""
        raise NotImplementedError

    def internal_fault(self, exc: Exception) -> TDBError:
        """Policy for a non-:class:`TDBError` escaping a verb: return
        the error to answer (and resolve a tokened commit) with, or
        re-raise to end the session and leave the token pending."""
        raise NotImplementedError


class SessionCore:
    """The server-wide half of the session contract (see module docstring)."""

    def __init__(
        self,
        backend: SessionBackend,
        backpressure: BackpressureConfig,
        tenancy=None,
    ) -> None:
        self.backend = backend
        self.backpressure = backpressure
        #: Optional :class:`repro.tenancy.TenancyHub`.  When set, every
        #: session must bind a ``(tenant, principal)`` identity via the
        #: auth challenge-response before touching data.
        self.tenancy = tenancy
        #: Boot nonce: lets a client distinguish "this server never saw
        #: your commit token" from "the server restarted and lost its
        #: token cache" — the latter makes an unknown token *in doubt*.
        self.epoch = secrets.token_hex(8)
        self.commit_results = CommitResultCache()
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

    async def serve(
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
            result, state = await self._dispatch(state, request)
            response = {"id": request_id, "ok": True, "result": result}
        except TDBError as exc:
            response = protocol.error_payload(request_id, exc)
        except Exception as exc:  # noqa: BLE001 — the backend's policy
            response = protocol.error_payload(
                request_id, self.backend.internal_fault(exc)
            )
        # Cache before the transport writes: if the write dies the
        # session parks with the response, and the resumed client's
        # re-send replays it.  A resume response must not clobber the
        # slot it just adopted — the slot still holds the dropped
        # connection's in-flight response, which the client is about to
        # ask for.
        if request.get("op") != "session.resume":
            state.last_request = dict(request)
            state.last_response = response
        return response, state

    async def _dispatch(
        self, state: SessionState, request: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], SessionState]:
        op = request.get("op")
        if not isinstance(op, str):
            raise ProtocolError("request needs a string 'op' field")
        hub = self.tenancy
        if hub is not None:
            if state.identity is None and op not in _PREAUTH_VERBS:
                raise AuthRequiredError(
                    "this server is a multi-tenant hub; bind an identity "
                    "with the auth challenge-response first"
                )
            if op in PER_STORE_VERBS:
                raise FeatureUnavailableError(
                    f"verb {op!r} is unavailable on a multi-tenant hub: it "
                    "is per-database (no single replication stream or "
                    "transparency head spans tenants; per-tenant heads are "
                    "a roadmap item)"
                )
        if op in DATA_VERBS:
            if hub is not None:
                await self.backend.hub_call(hub.check, state.identity, op, request)
            result = await self.backend.execute(state, request)
            if hub is not None and op in MUTATING_DATA_VERBS:
                state.txn_bytes += _tenant_value_bytes(request)
            return result, state
        if op == "session.resume":
            state = self._resume(state, request)
            return {
                "resumed": True,
                "txn_open": state.txn is not None,
                "mode": state.mode,
                "epoch": self.epoch,
            }, state
        if op not in protocol.VERBS:
            raise ProtocolError(f"unknown verb {op!r}")
        handler = getattr(self, "_op_" + op.replace(".", "_"), None)
        if handler is None:  # stats and the per-store verbs
            handler = self.backend.serve_verb
        return await handler(state, request), state

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    async def _op_begin(self, state: SessionState, request) -> Dict[str, Any]:
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
            await self.backend.hub_call(self.tenancy.on_begin, state.identity)
        state.txn = await self.backend.begin_txn(state, mode)
        state.mode = mode
        state.txn_bytes = 0
        return {
            "mode": mode,
            "session": state.resume_token,
            "epoch": self.epoch,
        }

    async def _op_commit(self, state: SessionState, request) -> Dict[str, Any]:
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
        txn, state.txn, state.mode = state.txn, None, None
        txn_bytes, state.txn_bytes = state.txn_bytes, 0
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
                    await self.backend.hub_call(
                        hub.on_commit_start, identity, txn_bytes
                    )
                except Exception:
                    await self.backend.abort_txn(state, txn)
                    raise
                quota_held = True
            result = await self.backend.commit_txn(state, txn, durable, token)
            committed = True
        except TDBError as exc:
            # The commit failed (queue full, store fault, deferred index
            # violation, quota...); the backend released the locks.
            if token is not None:
                cache.resolve(token, failed_outcome(exc))
            raise
        except Exception as exc:
            # Crash injection, disk-full in a decision log, a bug.  A
            # backend that answers such faults says the commit did not
            # happen, so the token must not stay pending forever; one
            # that re-raises leaves the outcome genuinely unknown —
            # the token stays pending and commit.result says so.
            fault = self.backend.internal_fault(exc)
            if token is not None:
                cache.resolve(token, failed_outcome(fault))
            raise fault from exc
        finally:
            if quota_held:
                # Releases the pending-commit slot; on success it also
                # settles the stored-bytes meter and the audit trail.
                # (An in-doubt outcome releases without recording —
                # metering is accounting, not a ledger.)
                await self.backend.hub_call(
                    hub.on_commit_end, identity, txn_bytes, committed
                )
        if token is not None:
            cache.resolve(
                token, {"status": "committed", "durable": result["durable"]}
            )
        return result

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

    async def _op_commit_result(self, state: SessionState, request) -> Dict[str, Any]:
        token = param(request, "token", str)
        payload = self.commit_results.lookup(token)
        if (
            payload["status"] == "unknown"
            or payload.get("error") == "CommitInDoubtError"
        ):
            outcome = await self.backend.settle_token(token, payload)
            if outcome is not None:
                self.commit_results.resolve(token, outcome)
                payload = {**outcome, "token": token}
        self.count(
            "indoubt_misses" if payload["status"] == "unknown"
            else "indoubt_hits"
        )
        payload["epoch"] = self.epoch
        return payload

    async def _op_abort(self, state: SessionState, request) -> Dict[str, Any]:
        if state.txn is None:
            raise SessionStateError("no open transaction to abort")
        txn, state.txn, state.mode = state.txn, None, None
        state.txn_bytes = 0
        await self.backend.abort_txn(state, txn)
        return {}

    # ------------------------------------------------------------------
    # hello / tenancy
    # ------------------------------------------------------------------

    async def _op_hello(self, state: SessionState, request) -> Dict[str, Any]:
        """Protocol version + capability negotiation.

        ``absent_verbs`` names protocol verbs this frontend cannot serve
        (they fail with ``FeatureUnavailableError``) so a new client can
        route around a capability gap before tripping over it.
        """
        info = self.backend.describe()
        features = ["resume", "commit-tokens"] + info["features"]
        if self.tenancy is not None:
            features.append("tenancy")
        absent = PER_STORE_VERBS if self.tenancy or info["sharded"] else ()
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "server": "tdb",
            "mode": info["mode"],
            "sharded": info["sharded"],
            "shards": info["shards"],
            "epoch": self.epoch,
            "features": features,
            "absent_verbs": list(absent),
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
        slot (memory-only, so safe on an event loop)."""
        if self.tenancy is not None and state.identity is not None:
            self.tenancy.release(state.identity)
            state.identity = None

    async def _op_auth(self, state: SessionState, request) -> Dict[str, Any]:
        hub = self._require_hub()
        if state.txn is not None:
            raise SessionStateError(
                "authenticate before opening a transaction"
            )
        tenant = param(request, "tenant", str)
        principal = param(request, "principal", str)
        proof = param(request, "proof", default=None)
        if proof is None:
            state.pending_auth = await self.backend.hub_call(
                hub.begin_auth, tenant, principal
            )
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
        identity = await self.backend.hub_call(hub.finish_auth, pending, proof)
        self.release_identity(state)
        state.identity = identity
        return {
            "authenticated": True,
            "tenant": identity.tenant,
            "principal": identity.principal,
        }

    async def _op_tenant_grant(self, state: SessionState, request):
        # Also tenant.revoke: the hub method is named by the verb.
        edit = getattr(self._require_hub(), request["op"].rpartition(".")[2])
        return await self.backend.hub_call(
            edit,
            state.identity,
            param(request, "principal", str),
            param(request, "scope", str),
            param(request, "right", str),
        )

    _op_tenant_revoke = _op_tenant_grant

    async def _op_tenant_meter(self, state: SessionState, request):
        return await self.backend.hub_call(
            self._require_hub().meter, state.identity.tenant
        )

    # ------------------------------------------------------------------
    # Park / resume / end
    # ------------------------------------------------------------------

    def park(self, state: SessionState) -> bool:
        """Preserve a dropped session's state for the grace window.

        Strict 2PL locks are keyed by transaction, not by thread, so the
        open transaction simply waits in the registry.  ``False`` (the
        caller ends the session) when parking is disabled, the core is
        closed, nothing is worth preserving, or the registry is full.
        The transport releases its admission slot either way — a parked
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

    def _resume(self, state: SessionState, request) -> SessionState:
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
        # Identity and quota lease ride along with the parked state (the
        # resume token is the bearer credential); an identity the fresh
        # connection bound itself is dropped.
        self.release_identity(state)
        return parked

    def parked_states(self) -> List[SessionState]:
        with self._lock:
            return list(self._parked.values())

    async def end(self, state: SessionState) -> None:
        """A session is over for good (closed, timed out, grace expired,
        server stopping): abort what it left open — releasing its locks
        so other sessions stop blocking on a dead client — and drop its
        hub identity."""
        txn, state.txn, state.mode = state.txn, None, None
        state.txn_bytes = 0
        if txn is not None:
            try:
                await self.backend.abort_txn(state, txn)
            except TDBError:
                pass
        self.release_identity(state)

    @property
    def sweep_interval(self) -> float:
        """How often the transport's timer should call :meth:`expire_parked`."""
        grace = self.backpressure.effective_resume_grace
        return max(0.02, min(grace / 4.0, 0.25))

    async def expire_parked(self) -> None:
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
            await self.end(entry)

    async def close(self) -> None:
        """Server stopping: refuse further parking, end what is parked."""
        with self._lock:
            self._closed = True
            parked = list(self._parked.values())
            self._parked.clear()
        for entry in parked:
            await self.end(entry)

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
