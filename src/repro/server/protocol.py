"""The TDB service wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Requests carry ``{"id": n, "op": "<verb>", ...params}``;
responses echo the id as ``{"id": n, "ok": true, "result": {...}}`` or
``{"id": n, "ok": false, "error": "<class>", "message": "...",
"transient": bool}``.  The ``error`` field names the
:class:`~repro.errors.TDBError` subclass the server raised; the client
re-raises the same class so remote and embedded use look identical to
the application.  ``transient`` marks faults worth retrying (admission
rejections, transient store faults, and lock timeouts: a deadlock
victim's retry can succeed once the other transaction ends) even for
clients that do not know the class name.

Verbs
-----

The verbs are :data:`VERBS`, the one verb table: each row names the
verb, its handler, its class (session, data, store or admin verb),
whether a multi-tenant hub answers it before ``auth``, and for a data
verb the tenancy scope kind and right it needs (the right also says
whether it writes).  Its parameters are noted beside the row.

Exactly-once commits: ``begin`` returns a ``session`` resume token and
the server's boot ``epoch``.  A client that loses its connection
mid-transaction reconnects and issues ``session.resume`` to adopt the
parked session — open transaction, locks, and the last cached response
(re-sending the in-flight request id replays that response without
re-execution).  A ``commit`` carrying a ``token`` records its outcome
in a bounded result cache; ``commit.result`` returns the authoritative
outcome (``committed`` / ``failed`` / ``pending`` / ``unknown``) plus
the current ``epoch`` so clients can tell a fresh token from one lost
to a server restart.

The ``repl.*`` verbs implement verified log shipping
(:mod:`repro.replication`).  ``repl.subscribe`` checkpoints, pins every
live segment in a snapshot, and returns the shipment manifest (database
uuid, generation, commit seqno, expected counter, master-record file
name and length, per-segment sizes and content digests) — or
``{"up_to_date": true}`` when the subscriber's image (all three
optional: ``last_uuid`` identity, ``last_generation``, ``last_seqno``)
is the primary's current one.  ``repl.segments`` returns raw
segment bytes (base64, clipped to the manifest's recorded size) and
``repl.master`` the sealed master-record blob captured at subscribe
time.  Re-subscribing acknowledges the previous shipment and releases
its pins.

The ``proof.*`` / ``log.*`` verbs expose client-verifiable proofs
(:mod:`repro.proofs`): Merkle inclusion / non-membership proofs for a
chunk id against a signed commit head, the newest signed head, and
hash-chained head-log ranges (consistency proofs).  They are read-only,
served by primaries and replicas alike, and everything they return is
authenticated end to end — the server is untrusted.

On a multi-tenant hub (:mod:`repro.tenancy`) the ``auth`` verb binds
the session to a ``(tenant, principal)`` identity: the first call
(without ``proof``) returns a single-use ``challenge`` nonce, the
second carries ``proof`` = HMAC-SHA256(principal secret, challenge
bytes) as hex.  ``tenant.grant`` / ``tenant.revoke`` mutate DDH-style
policy records (admin right required) and ``tenant.meter`` reports the
tenant's quota usage and audit-trail length.

The payload model is JSON values: the server stores them in
:class:`~repro.server.server.RemoteRecord` persistent objects, so a
remote client needs no Python class registry.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Type

from repro import errors as _errors
from repro.errors import (
    LockTimeoutError,
    ProtocolError,
    ServerBusyError,
    TransientStoreError,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
    "read_frame",
    "write_frame",
    "recv_exact",
    "error_payload",
    "exception_from_payload",
    "Verb",
    "VERBS",
]

_LENGTH = struct.Struct(">I")

#: Upper bound on one frame's body; a peer announcing more is treated as
#: a protocol violation, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Wire protocol version announced by the ``hello`` verb.  Version 1
#: clients predate ``hello`` and never send it; their frames are served
#: unchanged.  No version 1 server exists, so clients carry no fallback.
PROTOCOL_VERSION = 2

# ---------------------------------------------------------------------------
# The verb table
# ---------------------------------------------------------------------------

#: Verb classes: ``session`` verbs run the session contract, ``data``
#: verbs the open transaction, ``store`` verbs belong to one database
#: (a multi-tenant hub has none), ``admin`` verbs report and administer.
SESSION, DATA, STORE, ADMIN = "session", "data", "store", "admin"

#: A data verb's tenancy scope kind: the ``"objects"`` pseudo-scope, or
#: the collection its ``name`` parameter names.
OBJECTS, COLLECTION = "objects", "collection"


@dataclass(frozen=True)
class Verb:
    """One row of :data:`VERBS`.  ``handler`` names the method that
    answers the verb: on ``SessionCore`` for session and admin verbs,
    ``VerbExecutor`` for data verbs, ``TdbServer`` for store verbs.
    ``preauth`` verbs are answered on a hub before ``auth``; only data
    verbs have a ``scope`` and ``right``."""

    name: str
    kind: str
    handler: str
    preauth: bool = False
    scope: Optional[str] = None
    right: Optional[str] = None

    @property
    def mutating(self) -> bool:
        """Writes data: refused on a replica, metered on a hub."""
        return self.right in ("write", "admin")


_R, _W, _A = "read", "write", "admin"

#: verb name -> :class:`Verb`.  The comment on a row lists the verb's
#: parameters; ``?`` marks an optional one.
VERBS: Dict[str, Verb] = {verb.name: verb for verb in (
    Verb("hello", SESSION, "_op_hello", preauth=True),
    Verb("auth", SESSION, "_op_auth", preauth=True),  # tenant principal proof?
    Verb("begin", SESSION, "_op_begin"),  # mode? ("object" | "collection")
    Verb("commit", SESSION, "_op_commit"),  # durable? (default true) token?
    Verb("commit.result", SESSION, "_op_commit_result", preauth=True),  # token
    Verb("session.resume", SESSION, "_op_session_resume", preauth=True),  # session
    Verb("abort", SESSION, "_op_abort"),
    Verb("obj.put", DATA, "_op_obj_put", scope=OBJECTS, right=_W),  # oid (null inserts) value
    Verb("obj.get", DATA, "_op_obj_get", scope=OBJECTS, right=_R),  # oid
    Verb("obj.remove", DATA, "_op_obj_remove", scope=OBJECTS, right=_W),  # oid
    Verb("name.bind", DATA, "_op_name_bind", scope=OBJECTS, right=_W),  # name oid
    Verb("name.lookup", DATA, "_op_name_lookup", scope=OBJECTS, right=_R),  # name
    # col.create: name field kind? unique?
    Verb("col.create", DATA, "_op_col_create", scope=COLLECTION, right=_A),
    Verb("col.insert", DATA, "_op_col_insert", scope=COLLECTION, right=_W),  # name value
    Verb("col.get", DATA, "_op_col_get", scope=COLLECTION, right=_R),  # name key field?
    Verb("col.remove", DATA, "_op_col_remove", scope=COLLECTION, right=_W),  # name key field?
    # col.iterate: name field? lo? hi? limit?
    Verb("col.iterate", DATA, "_op_col_iterate", scope=COLLECTION, right=_R),
    Verb("stats", ADMIN, "_op_stats", preauth=True),
    Verb("tenant.grant", ADMIN, "_op_tenant_edit"),  # principal scope right
    Verb("tenant.revoke", ADMIN, "_op_tenant_edit"),  # principal scope right
    Verb("tenant.meter", ADMIN, "_op_tenant_meter"),
    Verb("repl.subscribe", STORE, "_op_repl_subscribe"),  # last_uuid? last_generation? last_seqno?
    Verb("repl.segments", STORE, "_op_repl_segments"),  # segment offset length
    Verb("repl.master", STORE, "_op_repl_master"),
    Verb("proof.read", STORE, "_op_proof_read"),  # chunk_id
    Verb("proof.absent", STORE, "_op_proof_read"),  # chunk_id
    Verb("log.head", STORE, "_op_log_head"),
    Verb("log.consistency", STORE, "_op_log_consistency"),  # from_index to_index
)}


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its on-wire form (length + JSON body)."""
    try:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return _LENGTH.pack(len(body)) + body


def recv_exact(
    sock: socket.socket,
    nbytes: int,
    deadline: Optional[float] = None,
) -> Optional[bytes]:
    """Read exactly ``nbytes`` from ``sock``.

    Returns ``None`` on a clean EOF *before the first byte* (peer went
    away between frames); raises :class:`ProtocolError` on EOF inside a
    frame.  With ``deadline`` (a ``time.monotonic()`` instant) the
    *whole* read must finish by that moment: each recv gets only the
    remaining budget, so a peer trickling one byte per call cannot
    reset the clock and hold the slot forever.  Socket timeouts and OS
    errors propagate to the caller, which owns the reconnect/abort
    policy.
    """
    chunks = []
    remaining = nbytes
    while remaining > 0:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise socket.timeout(
                    f"frame read deadline exceeded ({nbytes - remaining}/{nbytes}"
                    " bytes received)"
                )
            sock.settimeout(budget)
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == nbytes:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({nbytes - remaining}/{nbytes}"
                " bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket,
    idle_timeout: Optional[float] = None,
    body_timeout: Optional[float] = None,
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF between frames.

    With timeouts given, ``idle_timeout`` bounds the wait for the first
    byte of the frame header (the time a peer may sit idle) and
    ``body_timeout`` bounds the arrival of the rest of the frame once
    started — enforced as an absolute deadline across partial reads, so
    a slow-loris peer dribbling bytes cannot stretch it.
    ``socket.timeout`` propagates to the caller.
    """
    if idle_timeout is not None:
        sock.settimeout(idle_timeout)
    first = recv_exact(sock, 1)
    if first is None:
        return None
    deadline = None
    if body_timeout is not None:
        deadline = time.monotonic() + body_timeout
    rest = recv_exact(sock, _LENGTH.size - 1, deadline)
    if rest is None:
        raise ProtocolError("connection closed inside frame header")
    (length,) = _LENGTH.unpack(first + rest)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    body = recv_exact(sock, length, deadline)
    if body is None:
        raise ProtocolError("connection closed between frame header and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


def write_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


# ---------------------------------------------------------------------------
# Error marshalling
# ---------------------------------------------------------------------------

def _is_transient(exc: BaseException) -> bool:
    return isinstance(
        exc, (TransientStoreError, ServerBusyError, LockTimeoutError)
    )


def error_payload(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """Build the error-response message for an exception."""
    return {
        "id": request_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
        "transient": _is_transient(exc),
    }


def _error_classes() -> Dict[str, Type[BaseException]]:
    classes: Dict[str, Type[BaseException]] = {}
    for name in _errors.__all__:
        obj = getattr(_errors, name, None)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            classes[name] = obj
    return classes


_ERROR_CLASSES = _error_classes()


def exception_from_payload(payload: Dict[str, Any]) -> BaseException:
    """Reconstruct the server-side exception from an error response."""
    name = payload.get("error", "ServerError")
    message = payload.get("message", "remote error")
    cls = _ERROR_CLASSES.get(name)
    if cls is None:
        if payload.get("transient"):
            return TransientStoreError(f"{name}: {message}")
        return _errors.ServerError(f"{name}: {message}")
    try:
        return cls(message)
    except TypeError:
        # Classes with mandatory extra arguments degrade to the base.
        return _errors.ServerError(f"{name}: {message}")
