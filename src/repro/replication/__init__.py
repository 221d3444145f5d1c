"""Verified log-shipping replication: primary, read replicas, promote.

TDB's log-structured store is unusually replication-friendly: segments
are immutable once sealed, the location map *is* the Merkle tree, and
the one-way counter already defends against replay.  A replica can
therefore hold a byte-for-byte copy of the primary's untrusted store and
**verify every shipped byte before trusting it** — the same tamper
checks `ChunkStore.open` runs against a local attacker run against the
shipping channel for free.

Roles:

* :class:`ReplicationShipper` — primary side.  Anchors each shipment in
  a pinned snapshot (so the cleaner can never recycle a segment a slow
  replica still needs), and serves the ``repl.subscribe`` /
  ``repl.segments`` / ``repl.master`` verbs of the wire protocol.
* :class:`ReplicaApplier` — replica side.  Fetches a shipment into
  ``data.tmp/`` beside the served image, verifies it there (master MAC,
  residual-log chain, strict counter equality, deep Merkle scrub,
  monotonicity against its own one-way counter and installed image),
  renames it to ``data.next/``, advances its counter, and only then
  switches directories and swaps the read-only serving database.
* :func:`seed_replica` — bootstrap a replica from a PR 2 backup chain so
  it can serve (stale) reads before its first contact with the primary.
* :func:`promote_replica` — reopen the replica image writable when the
  primary dies; it already sits under the replica's own one-way counter.

The replica shares the primary's device secret: copy ``secret.key`` into
the replica directory out of band (a real deployment provisions it into
the replica's trusted hardware).  Without it the replica could not check
a single MAC — an unverified replica is exactly what this module exists
to prevent.
"""

from repro.replication.shipper import ReplicationShipper
from repro.replication.applier import (
    ReplicaApplier,
    TransactionGate,
    open_replica_database,
    promote_replica,
    seed_replica,
)

__all__ = [
    "ReplicationShipper",
    "ReplicaApplier",
    "TransactionGate",
    "open_replica_database",
    "promote_replica",
    "seed_replica",
]
