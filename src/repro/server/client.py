"""Remote TDB client: context-managed transactions over the wire protocol.

A :class:`TdbClient` speaks :mod:`repro.server.protocol` to one
:class:`~repro.server.server.TdbServer`.  The API mirrors the embedded
:class:`~repro.db.Database` surface so applications can switch between
embedded and remote use::

    with TdbClient(host, port) as client:
        with client.transaction() as txn:
            oid = txn.put({"balance": 10})
            txn.bind("account", oid)

Error handling reuses the :class:`~repro.errors.TransientStoreError`
taxonomy: connection failures and transient server rejections
(:class:`~repro.errors.ServerBusyError`, admission refusals) surface as
transient errors, and :meth:`TdbClient.run_transaction` retries them a
bounded number of times — the same discipline the chunk store applies
to its own flaky untrusted store.  Backoff between retries follows a
:class:`~repro.platform.resilient.RetryPolicy`: capped exponential with
deterministic CRC32 jitter, so sweeps replay identically.  Non-transient
errors (lock timeouts, tamper detection, schema violations) are
re-raised as the exception class the server named and are never retried
silently.

Exactly-once semantics over a lossy network:

* ``begin`` hands back a session resume token; when the connection
  drops mid-transaction the client reconnects, ``session.resume``\\ s,
  and re-sends the in-flight request **with its original id** — the
  server replays the cached response instead of executing twice,
* every commit carries a fresh commit token; if the connection dies
  during ``commit`` (and resume cannot settle it) the client polls
  ``commit.result`` for the authoritative outcome.  ``unknown`` from
  the *same* server epoch means the commit never ran (safe to retry);
  ``unknown`` after an epoch change means the server restarted and the
  outcome must be reconciled by the application —
  :class:`~repro.errors.CommitInDoubtError`, deliberately not
  retryable.

One client owns one socket and one session; the session scopes at most
one open transaction, enforced on both ends.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import socket
import time
import zlib
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    AuthRequiredError,
    CommitInDoubtError,
    LockTimeoutError,
    ProtocolError,
    ServerBusyError,
    ServerError,
    SessionStateError,
    TDBError,
    TransientStoreError,
)
from repro.platform.resilient import RetryPolicy
from repro.server import protocol

__all__ = ["TdbClient", "RemoteTransaction"]

#: How many stale (id-mismatched) responses a client skips before it
#: declares the stream corrupt.  Stale responses are the residue of a
#: duplicated request frame: the server replays its cached response for
#: the duplicate, leaving one extra response in the pipe.
_MAX_STALE_RESPONSES = 8


class _TransportLost(Exception):
    """Internal: the request/response exchange died at the transport
    level (as opposed to the server answering with an error).  Carries
    the public exception to surface if recovery fails."""

    def __init__(self, error: Exception) -> None:
        super().__init__(str(error))
        self.error = error


class TdbClient:
    """A connection to a :class:`~repro.server.server.TdbServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retry_policy: Optional[RetryPolicy] = None,
        resume_sessions: bool = True,
        resolve_timeout: float = 5.0,
    ) -> None:
        if resolve_timeout <= 0:
            raise ValueError("resolve_timeout must be positive")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.resume_sessions = resume_sessions
        self.resolve_timeout = resolve_timeout
        #: The one backoff schedule: connect attempts, session resumes,
        #: commit resolution and ``run_transaction`` all sleep by it.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=4,
            base_delay=0.05,
            max_delay=1.0,
            jitter=0.25,
            seed=zlib.crc32(f"{host}:{port}".encode("utf-8")),
        )
        self._sock: Optional[socket.socket] = None
        self._next_id = 1
        self._in_txn = False
        self._closed = False
        self._ever_connected = False
        self._session_token: Optional[str] = None
        self._session_epoch: Optional[str] = None
        self._server_info: Optional[Dict[str, Any]] = None
        self._op_counter = 0
        #: Client-side resilience counters (mirrors the server's view).
        self.counters: Dict[str, int] = {
            "reconnects": 0,
            "session_resumes": 0,
            "resume_failures": 0,
            "indoubt_queries": 0,
            "indoubt_committed": 0,
            "indoubt_failed": 0,
            "stale_responses_skipped": 0,
            "reauths": 0,
        }
        #: Multi-tenant hub credentials, remembered by authenticate();
        #: used to transparently re-authenticate after a reconnect whose
        #: session resume did not carry the identity over.
        self._credentials: Optional[tuple] = None
        self._reauthing = False

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self) -> "TdbClient":
        """Connect (capped exponential backoff on transient errors)."""
        if self._sock is not None:
            return self
        if self._closed:
            raise ServerError("client is closed")
        attempts = self.retry_policy.max_attempts
        self._op_counter += 1
        op_id = self._op_counter
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sock = sock
                if self._ever_connected:
                    self.counters["reconnects"] += 1
                self._ever_connected = True
                return self
            except OSError as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    time.sleep(self.retry_policy.delay(attempt + 1, op_id))
        raise TransientStoreError(
            f"cannot connect to {self.host}:{self.port} after {attempts} "
            f"attempts: {last_error}"
        ) from last_error

    def close(self) -> None:
        """Close the connection.  Idempotent."""
        self._closed = True
        self._drop_connection()

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        self._in_txn = False
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "TdbClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Multi-tenant authentication
    # ------------------------------------------------------------------

    def authenticate(
        self, tenant: str, principal: str, secret: str
    ) -> Dict[str, Any]:
        """Bind this session to ``(tenant, principal)`` on a hub.

        Runs the two-phase challenge–response: fetch a single-use
        challenge, answer with ``HMAC-SHA256(secret, challenge)``.
        ``secret`` is the hex string ``tenant create`` / ``tenant
        grant`` printed.  Credentials are remembered so a reconnect that
        could not resume its session re-authenticates transparently.
        """
        secret_bytes = bytes.fromhex(secret)
        self._credentials = (tenant, principal, secret_bytes)
        return self._authenticate_now()

    def _authenticate_now(self) -> Dict[str, Any]:
        tenant, principal, secret_bytes = self._credentials
        challenge = self._call_once(
            "auth", tenant=tenant, principal=principal
        )["challenge"]
        proof = hmac.new(
            secret_bytes, bytes.fromhex(challenge), hashlib.sha256
        ).hexdigest()
        return self._call_once(
            "auth", tenant=tenant, principal=principal, proof=proof
        )

    # ------------------------------------------------------------------
    # The RPC core
    # ------------------------------------------------------------------

    def call(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send one request, wait for its response, unwrap errors.

        Connection-level failures surface as
        :class:`~repro.errors.TransientStoreError` — but first, if the
        client holds a session resume token, it reconnects, resumes the
        parked session, and re-sends the request with its original id
        (the server replays its cached response if the request already
        executed, so nothing runs twice).  Only when resume is disabled,
        impossible, or refused does the transient error escape; the
        connection is dropped and an open transaction not covered by a
        resume is gone — retrying is then only safe from a transaction
        boundary, which is what :meth:`run_transaction` implements.

        On a multi-tenant hub, a session that lost its identity (the
        resume grace window expired) answers with ``AuthRequiredError``;
        when :meth:`authenticate` stored credentials the client re-runs
        the challenge-response once and retries the request.
        """
        try:
            return self._call_once(op, **params)
        except AuthRequiredError:
            if self._credentials is None or self._reauthing or op == "auth":
                raise
            self._reauthing = True
            try:
                self._authenticate_now()
            finally:
                self._reauthing = False
            self.counters["reauths"] += 1
            return self._call_once(op, **params)

    def _call_once(self, op: str, **params: Any) -> Dict[str, Any]:
        request = {"id": self._next_id, "op": op}
        request.update(params)
        self._next_id += 1
        try:
            return self._roundtrip(request)
        except _TransportLost as lost:
            recovered = self._resume_and_replay(request)
            if recovered is not None:
                return recovered[0]
            raise lost.error from lost

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response exchange on the current connection.

        Transport failures raise :class:`_TransportLost` (internal);
        server-reported errors raise the reconstructed exception class.
        """
        op = request["op"]
        self.connect()
        try:
            protocol.write_frame(self._sock, request)
            response = self._read_matching(request["id"])
        except socket.timeout as exc:
            self._drop_connection()
            raise _TransportLost(
                TransientStoreError(
                    f"server did not answer {op!r} within {self.timeout}s"
                )
            ) from exc
        except ProtocolError as exc:
            self._drop_connection()
            raise _TransportLost(exc) from exc
        except OSError as exc:
            self._drop_connection()
            raise _TransportLost(
                TransientStoreError(f"connection lost during {op!r}: {exc}")
            ) from exc
        if response is None:
            self._drop_connection()
            raise _TransportLost(
                TransientStoreError(f"server closed the connection on {op!r}")
            )
        if not response.get("ok") and response.get("id") is None:
            # A session-level rejection (admission control answers before
            # reading any request, so it cannot echo an id).
            self._drop_connection()
            raise protocol.exception_from_payload(response)
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        raise protocol.exception_from_payload(response)

    def _read_matching(self, want: Any) -> Optional[Dict[str, Any]]:
        """Read responses until one matches the request id.

        A duplicated request frame (hostile network) makes the server
        emit one extra response; skipping id-mismatched responses keeps
        the stream in sync instead of failing every later call.
        """
        for _ in range(_MAX_STALE_RESPONSES + 1):
            response = protocol.read_frame(self._sock)
            if response is None:
                return None
            if response.get("id") == want or response.get("id") is None:
                return response
            self.counters["stale_responses_skipped"] += 1
        raise ProtocolError(
            f"no response matching request id {want!r} within "
            f"{_MAX_STALE_RESPONSES} frames"
        )

    def _resume_and_replay(
        self, request: Dict[str, Any]
    ) -> Optional[tuple]:
        """Reconnect, resume the parked session, re-send ``request``.

        Returns a 1-tuple with the replayed result, or ``None`` when the
        session cannot be resumed (caller surfaces the original error).
        A legitimate server-side error from the replayed request
        propagates — the exchange itself succeeded.
        """
        if (
            not self.resume_sessions
            or self._closed
            or self._session_token is None
            or request["op"] in ("begin", "session.resume")
        ):
            return None
        token = self._session_token
        self._op_counter += 1
        op_id = self._op_counter
        unknown_token_retries = 0
        for attempt in range(1, 4):
            resume_request = {
                "id": self._next_id,
                "op": "session.resume",
                "session": token,
            }
            self._next_id += 1
            try:
                self._roundtrip(resume_request)
            except _TransportLost:
                time.sleep(
                    self.retry_policy.delay(
                        min(attempt, self.retry_policy.max_attempts), op_id
                    )
                )
                continue
            except SessionStateError:
                # Unknown token — but possibly only *not yet parked*: the
                # server parks a session when the dead socket surfaces on
                # its side, and a fast reconnect can outrun that.  Give
                # it one backoff tick before declaring the grace window
                # closed.
                unknown_token_retries += 1
                if unknown_token_retries <= 1:
                    time.sleep(
                        self.retry_policy.delay(
                            min(attempt, self.retry_policy.max_attempts), op_id
                        )
                    )
                    continue
                self._session_token = None
                self.counters["resume_failures"] += 1
                return None
            self.counters["session_resumes"] += 1
            try:
                return (self._roundtrip(request),)
            except _TransportLost:
                # Dropped again mid-replay; go around and resume again.
                continue
        self.counters["resume_failures"] += 1
        return None

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self, mode: str = "object") -> "RemoteTransaction":
        """Open a remote transaction as a context manager.

        Commits on clean exit, aborts on exception — the same contract
        as the embedded :meth:`~repro.db.Database.transaction`.
        """
        return RemoteTransaction(self, mode)

    def run_transaction(
        self,
        fn: Callable[["RemoteTransaction"], Any],
        mode: str = "object",
        attempts: int = 5,
    ) -> Any:
        """Run ``fn(txn)`` in a transaction, retrying transient failures.

        Retries cover connection loss, :class:`ServerBusyError`
        admission rejections, and lock-timeout aborts — each attempt is
        a fresh transaction, so ``fn`` must be safe to re-run.  Tokened
        commits make "connection died during commit" safe to classify:
        a commit whose outcome resolves to *committed* returns normally,
        one that provably never ran retries, and an irresolvable one
        raises :class:`~repro.errors.CommitInDoubtError` — which is
        **not** retried, because re-running could double-apply.  Backoff
        between attempts is capped exponential with deterministic
        jitter; the last error is re-raised once the budget is spent.
        """
        if attempts < 1:
            raise ValueError("attempts must be at least 1")
        policy = self.retry_policy
        self._op_counter += 1
        op_id = self._op_counter
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                with self.transaction(mode) as txn:
                    return fn(txn)
            except TDBError as exc:
                retryable = isinstance(
                    exc, (TransientStoreError, ServerBusyError, LockTimeoutError)
                ) and not isinstance(exc, CommitInDoubtError)
                if not retryable:
                    raise
                last_error = exc
                if attempt + 1 < attempts:
                    time.sleep(
                        policy.delay(
                            min(attempt + 1, policy.max_attempts), op_id
                        )
                    )
        raise last_error

    # ------------------------------------------------------------------
    # Commit-token resolution
    # ------------------------------------------------------------------

    def resolve_commit(self, token: str) -> Dict[str, Any]:
        """Query the authoritative outcome of a tokened commit."""
        self.counters["indoubt_queries"] += 1
        return self.call("commit.result", token=token)

    def _settle_commit(
        self, token: str, epoch: Optional[str], cause: Exception
    ) -> Dict[str, Any]:
        """The connection died during a tokened commit: find the truth.

        Polls ``commit.result`` until the resolution deadline.  Returns
        the commit result on *committed*; re-raises the server's
        recorded error on *failed*; raises
        :class:`~repro.errors.TransientStoreError` when the commit
        provably never ran (same server epoch, token unknown — safe to
        retry the transaction); raises
        :class:`~repro.errors.CommitInDoubtError` when the server
        restarted (epoch changed, token cache lost) or stayed
        unreachable or *pending* past the deadline.
        """
        deadline = time.monotonic() + self.resolve_timeout
        self._op_counter += 1
        op_id = self._op_counter
        attempt = 0
        while True:
            attempt += 1
            try:
                payload = self.resolve_commit(token)
            except (TransientStoreError, ProtocolError) as exc:
                if time.monotonic() >= deadline:
                    raise CommitInDoubtError(
                        f"commit outcome unknown: server unreachable within "
                        f"{self.resolve_timeout}s of the connection dying "
                        f"({cause})"
                    ) from exc
                time.sleep(
                    self.retry_policy.delay(
                        min(attempt, self.retry_policy.max_attempts), op_id
                    )
                )
                continue
            status = payload.get("status")
            if status == "committed":
                self.counters["indoubt_committed"] += 1
                return {"durable": payload.get("durable", True), "resolved": True}
            if status == "failed":
                self.counters["indoubt_failed"] += 1
                raise protocol.exception_from_payload(payload)
            if status == "unknown":
                if epoch is not None and payload.get("epoch") != epoch:
                    raise CommitInDoubtError(
                        "server restarted and lost its commit-token cache; "
                        "reconcile against database state before retrying"
                    ) from cause
                raise TransientStoreError(
                    "commit never reached the server (token unknown, same "
                    "server epoch); safe to retry the transaction"
                ) from cause
            # status == "pending": the commit is still in flight.
            if time.monotonic() >= deadline:
                raise CommitInDoubtError(
                    f"commit still in flight after {self.resolve_timeout}s; "
                    "query commit.result again or reconcile state"
                ) from cause
            time.sleep(
                self.retry_policy.delay(
                    min(attempt, self.retry_policy.max_attempts), op_id
                )
            )

    # ------------------------------------------------------------------
    # Admin
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The server's composite stats payload (admin verb)."""
        return self.call("stats")

    def hello(self) -> Dict[str, Any]:
        """Negotiate protocol version and capabilities (cached)."""
        if self._server_info is None:
            self._server_info = self.call("hello")
        return self._server_info


class RemoteTransaction:
    """One open transaction on the server, driven from the client."""

    def __init__(self, client: TdbClient, mode: str) -> None:
        self.client = client
        self.mode = mode
        self._open = False

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> "RemoteTransaction":
        if self._open:
            raise SessionStateError("transaction already begun")
        result = self.client.call("begin", mode=self.mode)
        self.client._session_token = result.get("session")
        self.client._session_epoch = result.get("epoch")
        self.client._in_txn = True
        self._open = True
        return self

    def commit(self, durable: bool = True) -> None:
        """Commit with a fresh commit token: exactly-once over the wire.

        If the connection dies mid-commit (and a session resume cannot
        settle it), the client polls ``commit.result`` with the token —
        so a durably committed transaction is reported committed, a
        failed one re-raises the recorded error, and one that never ran
        surfaces as a retryable transient error.
        """
        if not self._open:
            raise SessionStateError("no open transaction to commit")
        token = secrets.token_hex(16)
        epoch = self.client._session_epoch
        self._open = False
        self.client._in_txn = False
        try:
            self.client.call("commit", durable=durable, token=token)
        except (TransientStoreError, ProtocolError) as exc:
            self.client._settle_commit(token, epoch, exc)

    def abort(self) -> None:
        self._finish("abort")

    def _finish(self, op: str, **params: Any) -> None:
        if not self._open:
            raise SessionStateError(f"no open transaction to {op}")
        self._open = False
        self.client._in_txn = False
        self.client.call(op, **params)

    def __enter__(self) -> "RemoteTransaction":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._open:
            return
        if exc_type is None:
            self.commit()
            return
        try:
            self.abort()
        except TDBError:
            pass  # the original exception matters more

    # -- object verbs ------------------------------------------------------

    def put(self, value: Any, oid: Optional[int] = None) -> int:
        """Insert (``oid=None``) or overwrite a JSON value; returns oid."""
        return self.client.call("obj.put", oid=oid, value=value)["oid"]

    def get(self, oid: int) -> Any:
        return self.client.call("obj.get", oid=oid)["value"]

    def remove(self, oid: int) -> None:
        self.client.call("obj.remove", oid=oid)

    def bind(self, name: str, oid: int) -> None:
        self.client.call("name.bind", name=name, oid=oid)

    def lookup(self, name: str) -> Optional[int]:
        return self.client.call("name.lookup", name=name)["oid"]

    # -- collection verbs --------------------------------------------------

    def create_collection(
        self,
        name: str,
        field: str,
        kind: str = "btree",
        unique: bool = False,
    ) -> None:
        self.client.call(
            "col.create", name=name, field=field, kind=kind, unique=unique
        )

    def insert(self, collection: str, value: Dict[str, Any]) -> int:
        return self.client.call("col.insert", name=collection, value=value)["oid"]

    def get_match(
        self, collection: str, key: Any, field: Optional[str] = None
    ) -> List[Any]:
        return self.client.call(
            "col.get", name=collection, key=key, field=field
        )["values"]

    def remove_match(
        self, collection: str, key: Any, field: Optional[str] = None
    ) -> int:
        return self.client.call(
            "col.remove", name=collection, key=key, field=field
        )["removed"]

    def iterate(
        self,
        collection: str,
        field: Optional[str] = None,
        lo: Any = None,
        hi: Any = None,
        limit: Optional[int] = None,
    ) -> List[Any]:
        params: Dict[str, Any] = {"name": collection, "field": field}
        if lo is not None:
            params["lo"] = lo
        if hi is not None:
            params["hi"] = hi
        if limit is not None:
            params["limit"] = limit
        return self.client.call("col.iterate", **params)["values"]
