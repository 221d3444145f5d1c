"""The chunk store: TDB's log-structured trusted storage layer.

The chunk store stores a set of named, variable-sized byte sequences
(*chunks*) on untrusted storage with secrecy and tamper detection
(section 3 of the paper):

* the **log is the only storage** — committed chunks are appended to the
  tail of a segmented log; there are no copies outside the log,
* a hierarchical **location map** finds the current version of each chunk;
  the Merkle hash tree is embedded in the map, so validating a chunk and
  locating it are the same tree walk,
* multiple chunk writes commit **atomically**; commits may be durable
  (fsync + one-way-counter bump) or nondurable (guaranteed *not* to
  survive a crash until a later durable commit),
* the **master record** authenticates the map root, the residual-log hash
  chain and the expected one-way-counter value with a MAC under the
  secret key; replaying an old database image trips the counter check,
* a **cleaner** reclaims obsolete chunk versions, growing the store
  instead when the configured maximum utilization is reached,
* **snapshots** freeze the map root copy-on-write; one snapshot is the
  only pin there is — backups, replication shipments and proofs all
  take one.

Modules, one job each (the paper's Figure 2 interface is
:class:`ChunkStore` in :mod:`.store`):

* :mod:`.store` — the public API, the commit path and the read path,
* :mod:`.recovery` — residual-log scan and the one replay every open
  runs, including the one-way counter check,
* :mod:`.checkpoint` — format, map-node writeback, the master write and
  the signed head log,
* :mod:`.cleaner` — cleaning passes and the space policy (grow or
  clean, idle maintenance, deferred dead-space credits),
* :mod:`.snapshot` — the pin and incremental-backup diffs,
* :mod:`.scrub` — full Merkle verification with damage localization,
* :mod:`.keys`, :mod:`.format`, :mod:`.master`, :mod:`.locmap`,
  :mod:`.segments`, :mod:`.chunkids` — key derivation, record framing,
  the master record, the location map, segment files, chunk-id
  allocation.

This package is the *trusted core*: the code that holds the secret
key, advances and checks the one-way counter, and decides that a root
is valid.  It imports nothing from the layers built on it (object and
collection stores, server, tenancy, replication, proofs other than the
head signer, bench); ``tests/test_trusted_core.py`` walks its import
graph to keep it that way.
"""

from repro.chunkstore.store import ChunkStore, ChunkStoreStats, SalvageInfo
from repro.chunkstore.scrub import DamagedChunk, DamagedNode, DamageReport
from repro.chunkstore.snapshot import Snapshot

__all__ = [
    "ChunkStore",
    "ChunkStoreStats",
    "SalvageInfo",
    "DamagedChunk",
    "DamagedNode",
    "DamageReport",
    "Snapshot",
]
