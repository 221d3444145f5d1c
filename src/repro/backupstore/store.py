"""The :class:`BackupStore`: create and restore validated backups.

Creation uses the chunk store's copy-on-write snapshots: a full backup
streams every chunk of one snapshot; an incremental backup retains the
previous snapshot and streams only the Merkle-diff against it.  The
retained snapshot is what makes "compare two location-map snapshots"
cheap (paper section 3.2.1).

Restore validates each stream's MAC, checks that it belongs to the same
database, and enforces the creation order: a full backup first, then its
incrementals chained by base-backup UUID with consecutive sequence
numbers.  The result is a freshly formatted chunk store bound to the
*current* one-way counter value, so a restored database cannot itself be
used as a replay vehicle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.backupstore.stream import (
    BACKUP_FULL,
    BACKUP_INCREMENTAL,
    BackupHeader,
    decode_backup,
    encode_backup,
)
from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig
from repro.crypto.mac import create_mac
from repro.errors import BackupError, RestoreSequenceError
from repro.platform.archival import ArchivalStore
from repro.platform.counter import OneWayCounter
from repro.platform.secret import SecretStore
from repro.platform.untrusted import UntrustedStore

__all__ = ["BackupStore", "BackupInfo"]

_ZERO_UUID = b"\x00" * 16


@dataclass(frozen=True)
class BackupInfo:
    """Metadata describing one backup stream."""

    name: str
    backup_type: int
    backup_uuid: bytes
    db_uuid: bytes
    base_uuid: bytes
    sequence: int
    commit_seqno: int
    entry_count: int
    stream_bytes: int

    @property
    def is_full(self) -> bool:
        return self.backup_type == BACKUP_FULL


class BackupStore:
    """Creates and restores backups of one chunk store."""

    def __init__(self, archival: ArchivalStore, secret_store: SecretStore) -> None:
        self.archival = archival
        self.secret_store = secret_store
        self._encryption_key = secret_store.derive_key("tdb-backup-encryption", 16)
        self._mac = create_mac(
            secret_store.derive_key("tdb-backup-mac", 32), "sha256"
        )
        self._retained_snapshot = None
        self._last_backup_uuid: Optional[bytes] = None
        self._next_sequence = 1

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def create_full(self, store: ChunkStore, name: str) -> BackupInfo:
        """Stream a full backup of the store's current state."""
        snapshot = store.snapshot()
        try:
            writes = [(cid, snapshot.read(cid)) for cid in snapshot.chunk_ids()]
        except Exception:
            snapshot.release()
            raise
        header = BackupHeader(
            backup_type=BACKUP_FULL,
            backup_uuid=os.urandom(16),
            db_uuid=store.db_uuid,
            base_uuid=_ZERO_UUID,
            sequence=self._next_sequence,
            commit_seqno=snapshot.commit_seqno,
            entry_count=0,
            body_length=0,
        )
        info = self._write_stream(name, header, writes, [])
        self._swap_retained(snapshot)
        self._last_backup_uuid = header.backup_uuid
        self._next_sequence += 1
        return info

    def create_incremental(self, store: ChunkStore, name: str) -> BackupInfo:
        """Stream only the changes since the previous backup.

        Requires a previous :meth:`create_full` or :meth:`create_incremental`
        in this backup store's lifetime (the previous snapshot is retained
        for the Merkle diff).
        """
        if self._retained_snapshot is None or self._last_backup_uuid is None:
            raise BackupError(
                "no base snapshot retained: take a full backup first"
            )
        snapshot = store.snapshot()
        try:
            diff = snapshot.diff_from(self._retained_snapshot)
            writes = [(cid, snapshot.read(cid)) for cid in diff.changed]
            removes = list(diff.removed)
        except Exception:
            snapshot.release()
            raise
        header = BackupHeader(
            backup_type=BACKUP_INCREMENTAL,
            backup_uuid=os.urandom(16),
            db_uuid=store.db_uuid,
            base_uuid=self._last_backup_uuid,
            sequence=self._next_sequence,
            commit_seqno=snapshot.commit_seqno,
            entry_count=0,
            body_length=0,
        )
        info = self._write_stream(name, header, writes, removes)
        self._swap_retained(snapshot)
        self._last_backup_uuid = header.backup_uuid
        self._next_sequence += 1
        return info

    def _swap_retained(self, snapshot) -> None:
        if self._retained_snapshot is not None:
            self._retained_snapshot.release()
        self._retained_snapshot = snapshot

    def close(self) -> None:
        """Release the retained snapshot (stops pinning the store's log)."""
        if self._retained_snapshot is not None:
            self._retained_snapshot.release()
            self._retained_snapshot = None

    def _write_stream(
        self,
        name: str,
        header: BackupHeader,
        writes: List,
        removes: List[int],
    ) -> BackupInfo:
        blob = encode_backup(header, writes, removes, self._encryption_key, self._mac)
        stream = self.archival.create_stream(name)
        try:
            stream.write(blob)
        finally:
            stream.close()
        return BackupInfo(
            name=name,
            backup_type=header.backup_type,
            backup_uuid=header.backup_uuid,
            db_uuid=header.db_uuid,
            base_uuid=header.base_uuid,
            sequence=header.sequence,
            commit_seqno=header.commit_seqno,
            entry_count=len(writes) + len(removes),
            stream_bytes=len(blob),
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def inspect(self, name: str) -> BackupInfo:
        """Validate one stream and return its metadata."""
        header, writes, removes = self._load(name)
        with self.archival.open_stream(name) as stream:
            size = len(stream.read())
        return BackupInfo(
            name=name,
            backup_type=header.backup_type,
            backup_uuid=header.backup_uuid,
            db_uuid=header.db_uuid,
            base_uuid=header.base_uuid,
            sequence=header.sequence,
            commit_seqno=header.commit_seqno,
            entry_count=header.entry_count,
            stream_bytes=size,
        )

    def _load(self, name: str):
        with self.archival.open_stream(name) as stream:
            blob = stream.read()
        return decode_backup(blob, self._encryption_key, self._mac)

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def load_chain_state(
        self, names_in_order: List[str]
    ) -> "tuple[Dict[int, bytes], bytes]":
        """Validate a backup chain and fold it into one logical state.

        ``names_in_order`` must start with a full backup; each following
        incremental must chain to its predecessor by base-backup UUID
        with consecutive sequence numbers.  Returns the folded
        ``{chunk_id: plaintext}`` state and the database UUID the chain
        belongs to.  Shared by :meth:`restore` and the repair engine's
        selective restore.
        """
        if not names_in_order:
            raise BackupError("a backup chain needs at least one stream")
        state: Dict[int, bytes] = {}
        previous_uuid: Optional[bytes] = None
        previous_sequence: Optional[int] = None
        db_uuid: Optional[bytes] = None
        for position, name in enumerate(names_in_order):
            header, writes, removes = self._load(name)
            if position == 0:
                if header.backup_type != BACKUP_FULL:
                    raise RestoreSequenceError(
                        f"restore must start from a full backup; {name!r} is "
                        "incremental"
                    )
                db_uuid = header.db_uuid
            else:
                if header.backup_type != BACKUP_INCREMENTAL:
                    raise RestoreSequenceError(
                        f"{name!r} is a full backup in the middle of a chain"
                    )
                if header.db_uuid != db_uuid:
                    raise RestoreSequenceError(
                        f"{name!r} belongs to a different database"
                    )
                if header.base_uuid != previous_uuid:
                    raise RestoreSequenceError(
                        f"{name!r} does not chain to the previous backup"
                    )
                if header.sequence != previous_sequence + 1:
                    raise RestoreSequenceError(
                        f"{name!r} is out of sequence: expected "
                        f"{previous_sequence + 1}, found {header.sequence}"
                    )
            for chunk_id, data in writes.items():
                state[chunk_id] = data
            for chunk_id in removes:
                state.pop(chunk_id, None)
            previous_uuid = header.backup_uuid
            previous_sequence = header.sequence
        return state, db_uuid

    def restore(
        self,
        names_in_order: List[str],
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: Optional[ChunkStoreConfig] = None,
    ) -> ChunkStore:
        """Rebuild a chunk store from a full backup plus incrementals.

        ``names_in_order`` must start with a full backup; each following
        incremental must chain to its predecessor (validated against the
        creation sequence).  Returns the restored, open chunk store.
        """
        state, _ = self.load_chain_state(names_in_order)
        store = ChunkStore.format(untrusted, secret_store, counter, config)
        for chunk_id in state:
            store.adopt_chunk_id(chunk_id)
        store.commit(state, durable=True)
        store.checkpoint()
        return store
