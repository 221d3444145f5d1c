"""Exception hierarchy for the TDB reproduction.

Every error raised by the library derives from :class:`TDBError`, so an
embedding application can catch one type at its top level.  Security
failures (tampering, replay) form their own branch because DRM
applications typically treat them very differently from ordinary
programming or resource errors: the paper's chunk store *signals tamper
detection* rather than returning corrupt data.
"""

from __future__ import annotations

__all__ = [
    "TDBError",
    "ConfigError",
    "SecurityError",
    "TamperDetectedError",
    "ReplayDetectedError",
    "CryptoError",
    "StoreError",
    "TransientStoreError",
    "ChunkStoreError",
    "ChunkNotFoundError",
    "RecoveryError",
    "SnapshotError",
    "BackupError",
    "RestoreSequenceError",
    "RepairError",
    "ReadOnlyStoreError",
    "SalvageReadOnlyError",
    "ObjectStoreError",
    "ObjectNotFoundError",
    "TransactionError",
    "TransactionInactiveError",
    "StaleRefError",
    "ReadOnlyViolationError",
    "TypeCheckError",
    "LockTimeoutError",
    "PicklingError",
    "UnknownClassError",
    "CollectionStoreError",
    "DuplicateKeyError",
    "IndexIntegrityError",
    "IteratorStateError",
    "SchemaError",
    "BaselineError",
    "ServerError",
    "ProtocolError",
    "ServerBusyError",
    "SessionStateError",
    "CommitInDoubtError",
    "FeatureUnavailableError",
    "TenancyError",
    "AuthRequiredError",
    "AuthFailedError",
    "PermissionDeniedError",
    "QuotaExceededError",
    "ReplicationError",
    "ReadOnlyReplicaError",
    "ProofError",
    "InvalidProofError",
    "RollbackDetectedError",
    "ForkDetectedError",
]


class TDBError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(TDBError, ValueError):
    """A configuration object was built with invalid knob values.

    Raised *at profile construction time* — an unknown cipher, hash, or
    crypto-engine name fails here with the list of valid names, instead
    of surfacing later as a cryptic error deep inside cipher or store
    construction.  Subclasses :class:`ValueError` so pre-existing
    callers that caught ``ValueError`` keep working.
    """


# ---------------------------------------------------------------------------
# Security failures
# ---------------------------------------------------------------------------

class SecurityError(TDBError):
    """Base class for secrecy / integrity failures."""


class TamperDetectedError(SecurityError):
    """Persistent state failed hash or MAC validation.

    Raised when a chunk, a location-map node, a commit record, the master
    record, or a backup stream does not match its authenticated digest,
    i.e. an attacker (or bit rot) modified the untrusted store.
    """


class ReplayDetectedError(TamperDetectedError):
    """The database image is internally consistent but *old*.

    Detected by comparing the one-way counter value bound into the latest
    durable commit with the actual hardware counter: a consumer restored a
    saved copy of the database to roll back purchases (paper section 3).
    """


class CryptoError(SecurityError):
    """Malformed ciphertext, bad padding, wrong key size, etc."""


# ---------------------------------------------------------------------------
# Storage layers
# ---------------------------------------------------------------------------

class StoreError(TDBError):
    """Base class for platform-store errors (untrusted/archival/counter)."""


class TransientStoreError(StoreError):
    """A media operation failed in a way that may succeed if retried.

    Removable or flaky media (the paper's consumer devices) produce
    transient I/O faults — interrupted system calls, busy devices,
    recoverable read errors.  The resilient store wrapper retries these
    with bounded backoff; only when retries are exhausted does the error
    escape to the caller, still as a :class:`StoreError` subclass.
    """


class ChunkStoreError(TDBError):
    """Base class for chunk-store errors."""


class ChunkNotFoundError(ChunkStoreError, KeyError):
    """The chunk id is not allocated or has no written state."""

    def __str__(self) -> str:  # KeyError quotes its argument; keep message readable
        return Exception.__str__(self)


class RecoveryError(ChunkStoreError):
    """The residual log or master record is structurally unusable."""


class SnapshotError(ChunkStoreError):
    """Invalid snapshot handle or snapshot-related misuse."""


class BackupError(TDBError):
    """Base class for backup-store errors."""


class RestoreSequenceError(BackupError):
    """Incremental backups presented out of order or on the wrong base."""


class RepairError(TDBError):
    """Damage could not be healed from the available backup chain."""


class ReadOnlyStoreError(ChunkStoreError):
    """Mutation attempted on a store opened in a read-only mode."""


class SalvageReadOnlyError(ReadOnlyStoreError):
    """Mutation attempted on a store opened in read-only salvage mode."""


# ---------------------------------------------------------------------------
# Object store
# ---------------------------------------------------------------------------

class ObjectStoreError(TDBError):
    """Base class for object-store errors."""


class ObjectNotFoundError(ObjectStoreError, KeyError):
    """No object is stored under the given object id."""

    def __str__(self) -> str:
        return Exception.__str__(self)


class TransactionError(ObjectStoreError):
    """Transaction-level misuse (commit twice, use after abort, ...)."""


class TransactionInactiveError(TransactionError):
    """Operation attempted on a committed or aborted transaction."""


class StaleRefError(TransactionError):
    """A Ref outlived the transaction that created it (paper section 4.1)."""


class ReadOnlyViolationError(ObjectStoreError):
    """Attempt to mutate an object through a ReadonlyRef."""


class TypeCheckError(ObjectStoreError, TypeError):
    """Dynamic type check failed when dereferencing or inserting."""


class LockTimeoutError(ObjectStoreError):
    """A transactional lock could not be acquired within the timeout.

    The paper breaks potential deadlocks with lock timeouts; applications
    are expected to retry the operation or abort the transaction.
    """


class PicklingError(ObjectStoreError):
    """Object could not be pickled or unpickled."""


class UnknownClassError(PicklingError):
    """No unpickler registered for the stored class id."""


# ---------------------------------------------------------------------------
# Collection store
# ---------------------------------------------------------------------------

class CollectionStoreError(TDBError):
    """Base class for collection-store errors."""


class DuplicateKeyError(CollectionStoreError):
    """Immediate uniqueness violation on insert or index creation."""

    def __init__(self, message: str, key: object = None) -> None:
        super().__init__(message)
        self.key = key


class IndexIntegrityError(CollectionStoreError):
    """Deferred uniqueness violation detected at iterator close.

    The collection store removed the violating objects from the collection
    (paper section 5.2.3); their ids are carried so the application can
    re-integrate them.
    """

    def __init__(self, message: str, removed_object_ids: list) -> None:
        super().__init__(message)
        self.removed_object_ids = list(removed_object_ids)


class IteratorStateError(CollectionStoreError):
    """Iterator misuse: second writable iterator, dereference past end, ..."""


class SchemaError(CollectionStoreError):
    """Object or key does not conform to the collection schema."""


# ---------------------------------------------------------------------------
# Baseline engine
# ---------------------------------------------------------------------------

class BaselineError(TDBError):
    """Base class for errors from the Berkeley-DB-style baseline engine."""


# ---------------------------------------------------------------------------
# Service layer (repro.server)
# ---------------------------------------------------------------------------

class ServerError(TDBError):
    """Base class for errors of the networked service layer."""


class ProtocolError(ServerError):
    """Malformed frame, unknown verb, or missing / ill-typed parameters."""


class ServerBusyError(ServerError):
    """Admission control rejected the request (session or commit-queue
    limit reached).  Transient by design: clients back off and retry."""


class SessionStateError(ServerError):
    """Verb issued in the wrong session state (no open transaction, a
    transaction already open, or a verb of the other transaction mode)."""


class CommitInDoubtError(ServerError):
    """The outcome of a tokened commit could not be determined.

    Raised client-side when the connection died during ``commit`` and
    ``commit.result`` cannot produce an authoritative answer — the
    server restarted (losing its in-memory token cache) or stayed
    unreachable past the resolution deadline.  Deliberately *not*
    transient: retrying the transaction could double-apply it, so the
    application must reconcile against database state before retrying.
    """


class FeatureUnavailableError(ServerError):
    """The verb exists in the protocol but this server cannot serve it.

    Structured refusal for capability gaps — e.g. ``repl.*`` /
    ``proof.*`` / ``log.*`` on a multi-tenant hub, whose stores are
    per-tenant so there is no single replication stream or transparency
    head to serve.  Not transient: retrying the same verb against the
    same server cannot succeed; clients should consult the ``hello``
    feature list (absent verbs are advertised there) and route to a
    server that has the feature.
    """


# ---------------------------------------------------------------------------
# Multi-tenant hub (repro.tenancy)
# ---------------------------------------------------------------------------

class TenancyError(ServerError):
    """Base class for multi-tenant hub errors (registry, identity, policy)."""


class AuthRequiredError(TenancyError):
    """A verb needing a ``(tenant, principal)`` identity arrived on a
    session that has not completed the ``auth`` challenge–response."""


class AuthFailedError(TenancyError):
    """The ``auth`` challenge–response failed.

    Deliberately one class and one shape of message for every failure
    mode — unknown tenant, unknown principal, wrong key, replayed or
    missing challenge — so the wire leaks nothing about *which* part was
    wrong (a DRM hub must not be a tenant-name oracle)."""


class PermissionDeniedError(TenancyError):
    """The session's principal holds no grant covering the verb's scope.

    Policy is deny-by-default: absence of a matching ``read`` / ``write``
    / ``admin`` grant (exact collection scope, the ``objects`` scope, or
    the ``*`` wildcard) refuses the verb.  Not transient — retrying
    cannot succeed until an admin grants the right."""


class QuotaExceededError(ServerBusyError):
    """A per-tenant quota refused the operation (sessions, pending
    commits, stored bytes, or the txn/s token bucket).

    A :class:`ServerBusyError` subclass so it is marshalled transient:
    well-behaved clients back off and retry, and one tenant saturating
    its budget degrades only that tenant."""


# ---------------------------------------------------------------------------
# Replication (repro.replication)
# ---------------------------------------------------------------------------

class ReplicationError(TDBError):
    """Base class for replication-layer errors (shipper / applier)."""


class ReadOnlyReplicaError(ReplicationError):
    """A mutating verb reached a server running in read-only replica mode.

    Permanent by design: the client must talk to the primary (or wait for
    a ``promote``), so it is *not* marshalled as transient."""


# ---------------------------------------------------------------------------
# Client-verifiable proofs (repro.proofs)
# ---------------------------------------------------------------------------

class ProofError(SecurityError):
    """Base class for proof / transparency-log verification failures.

    A :class:`SecurityError` subclass deliberately — a proof that does
    not verify means the server (or the path to it) cannot be trusted,
    the same severity class as on-media tamper detection."""


class InvalidProofError(ProofError):
    """A Merkle inclusion or non-membership proof failed verification.

    The proof's node chain does not hash up to the signed commit head:
    a digest mismatch, a node identity mismatch, a wrong walk shape, or
    a payload that does not match its leaf locator."""


class RollbackDetectedError(ProofError):
    """The server presented an older commit head than one already verified.

    The client-side analogue of :class:`ReplayDetectedError`: monotonic
    head pinning refuses any head whose index regresses below the pin."""


class ForkDetectedError(ProofError):
    """Two different signed heads claim the same head-log index.

    Equivocation: the signer produced divergent histories (or an attacker
    holds the device secret).  Caught by head gossip between clients,
    auditors, and replicas."""
