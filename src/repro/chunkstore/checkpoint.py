"""Writing the image: format, checkpoints, and the signed head log.

A checkpoint is the paper's "opportunistic" location-map flush (section
3): every dirty map node is appended to the log, a CHECKPOINT record
closes the residual log, and a fresh master record binds the new map
root, the hash-chain anchor and the expected one-way counter under the
master MAC.  Recovery afterwards replays only the log written after
this point.  A new database is a forced checkpoint over an empty log
(:func:`format_image`).

With the secure profile each master is then signed into the head log
(:mod:`repro.proofs.headlog`).  The head goes to the log only after the
master reaches the media, so a crash can leave the log *lagging* the
master but never ahead of it; :func:`attach_head_log` relies on that at
open to tell a crash from a rolled-back image.

The functions here run on a :class:`~repro.chunkstore.store.ChunkStore`
whose lock the caller holds.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.chunkstore.format import (
    CheckpointBody,
    Locator,
    MapNodeBody,
    RecordCodec,
    RecordKind,
)
from repro.chunkstore.locmap import LocationMap, MapNode, NodeIO
from repro.chunkstore.master import MasterRecord
from repro.chunkstore.segments import SegmentManager
from repro.errors import TamperDetectedError
from repro.proofs.headlog import TIP_AHEAD, TIP_LAGS, TransparencyLog, bind_tip

__all__ = [
    "StoreNodeIO",
    "attach_head_log",
    "build_log",
    "format_image",
    "write_checkpoint",
]


class StoreNodeIO(NodeIO):
    """Loads and appends location-map nodes on behalf of the map."""

    def __init__(self, store) -> None:
        self.store = store

    def load_node(self, locator: Locator, level: int, index: int) -> MapNode:
        plaintext = self.store.read_payload(locator)
        node = MapNode.deserialize(plaintext, self.store.hash_size)
        if (node.level, node.index) != (level, index):
            raise TamperDetectedError(
                f"map node identity mismatch: stored ({node.level}, {node.index}),"
                f" expected ({level}, {index})"
            )
        return node

    def append_node(self, level: int, index: int, plaintext: bytes) -> Locator:
        store = self.store
        payload = store.cipher.encrypt(plaintext)
        body = MapNodeBody(level=level, index=index, payload=payload).encode()
        segment, offset = store.segments.append_record(
            RecordKind.MAP_NODE, body, accountable_bytes=len(payload)
        )
        store._residual_bytes += store.codec.record_size(len(body))
        payload_offset = offset + MapNodeBody.payload_offset_in_record(
            store.codec.header_size
        )
        return store._locator(segment, payload_offset, payload)


def build_log(store, chain: bytes, depth: int = 1, root: Optional[Locator] = None) -> None:
    """Give ``store`` its record codec, segment manager and location map."""
    config = store.config
    store.codec = RecordCodec(store.hash_engine, store._record_mac, chain=chain)
    store.segments = SegmentManager(store.untrusted, store.codec, config.segment_size)
    store.segments.sync_enabled = config.fsync
    store.location_map = LocationMap(
        node_io=store.node_io,
        fanout=config.map_fanout,
        hash_size=store.hash_size,
        cache=store.cache,
        depth=depth,
        root_locator=root,
    )


def format_image(store) -> None:
    """Write a fresh database onto an empty untrusted store.

    A new database is a forced checkpoint over an empty log: the first
    segment and any preallocated free slots, then (secure profile) the
    head log, created and synced before the first master so that no
    master this code writes lacks one.
    """
    config = store.config
    store.db_uuid = os.urandom(16)
    genesis = (
        store.hash_engine.digest(b"tdb-genesis" + store.db_uuid)
        if store.secure
        else b""
    )
    build_log(store, genesis)
    store.segments.create_first_segment()
    if config.initial_segments > 1:
        store.segments.preallocate_free_slots(config.initial_segments - 1)
    if store.secure:
        store._counter_value = store.counter.read()
        store.transparency = TransparencyLog.create(
            store.untrusted, store.secret_store, store.db_uuid, store.hash_size
        )
    store.checkpoint(force=True)


def write_checkpoint(store, force: bool) -> None:
    """Write dirty map nodes and a fresh master record.

    Without ``force`` a store with no dirty node and no residual log
    writes nothing.
    """
    if (
        not force
        and not store.location_map.has_dirty_nodes()
        and store._residual_bytes == 0
    ):
        return
    root, retired = store.location_map.checkpoint(store.node_io.append_node)
    for locator in retired:
        store.cleaner.retire(locator, commit_durable=True)
    store._seqno += 1
    checkpoint_body = CheckpointBody(
        seqno=store._seqno,
        expected_counter=store._counter_value,
        next_chunk_id=store.ids.next_id,
        depth=store.location_map.depth,
        root=root,
    )
    store.segments.append_record(
        RecordKind.CHECKPOINT, checkpoint_body.encode(store.hash_size)
    )
    store.segments.sync_dirty()
    # The checkpoint is a durability barrier: nondurable commits
    # captured by the flushed map can no longer roll back, so their
    # deferred retirements must land *before* the segment table is
    # snapshotted into the master.  Flushing after the master write
    # under-counts dead bytes on disk, and replay then mistakes a
    # legitimately recycled segment for one the attacker truncated (a
    # false TamperDetectedError).
    store.cleaner.flush_nondurable()
    store._generation += 1
    config = store.config
    master = MasterRecord(
        generation=store._generation,
        db_uuid=store.db_uuid,
        segment_size=config.segment_size,
        map_fanout=config.map_fanout,
        hash_size=store.hash_size,
        secure=store.secure,
        depth=store.location_map.depth,
        root=root,
        next_chunk_id=store.ids.next_id,
        commit_seqno=store._seqno,
        expected_counter=store._counter_value,
        next_segment_number=store.segments.next_segment_number,
        anchor_segment=store.segments.tail_segment,
        anchor_offset=store.segments.tail_offset,
        chain_anchor=store.codec.chain,
        segments=store.segments.snapshot_infos(),
    )
    store.master_io.write(master, sync=config.fsync)
    # The head goes to the log only after the master is on the media, so
    # a crash leaves the log lagging by one generation at most (bind_tip).
    if store.transparency is not None:
        _append_head(store, master)
    store.segments.end_checkpoint()
    store._residual_bytes = 0
    store._checkpoints_total += 1


# ----------------------------------------------------------------------
# The signed head log
# ----------------------------------------------------------------------


def attach_head_log(store, master: MasterRecord) -> None:
    """Load, verify, and catch up the signed head log at open.

    A writable open acts on :func:`~repro.proofs.headlog.bind_tip`: a
    tip that lags by one generation is caught up from the authenticated
    master, the dual-master fallback drops the orphaned newer heads, and
    anything else raises.  A missing log is tampering too: :func:`format_image`
    creates it before the first master, so no master this code wrote
    lacks one, and recreating it would let the device owner erase the
    signed history.  Read-only opens (replicas serving verified shipped
    images, tools reading a directory) only load: the applier binds the
    primary's log itself, and a replica image staged without a log is
    still bound by the counter check.
    """
    if not store.secure:
        return
    read_only = store.read_only
    if not TransparencyLog.exists(store.untrusted):
        if read_only:
            return
        raise TamperDetectedError(
            "the signed head log is missing but a master record exists: "
            "format writes the log before the first master, so it was "
            "deleted (refusing to recreate it over erased history)"
        )
    log = TransparencyLog.load(
        store.untrusted,
        store.secret_store,
        store.db_uuid,
        store.hash_size,
        writable=not read_only,
    )
    store.transparency = log
    if read_only:
        return
    outcome, head = bind_tip(log.heads(), master, store.hash_size)
    if outcome == TIP_AHEAD:
        log.truncate_to(head.index)
    elif outcome == TIP_LAGS:
        _append_head(store, master)


def _append_head(store, master: MasterRecord) -> None:
    store.transparency.append(
        generation=master.generation,
        seqno=master.commit_seqno,
        counter=master.expected_counter,
        depth=master.depth,
        root_digest=master.root.hash_value if master.root is not None else None,
    )
