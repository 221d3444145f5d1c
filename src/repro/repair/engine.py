"""The repair engine: scrub-guided selective healing with full-restore fallback.

Strategy ladder, cheapest rung first:

1. **Clean** — the store opens and scrubs clean; nothing to do.
2. **Selective repair** — the store opens but the scrub reports damage
   below an intact map root: damaged map nodes are pruned from their
   (verified) parents, and every damaged or pruned-away chunk that the
   backup chain knows is committed back with fresh payload bytes.  A
   second scrub must come back clean or the engine escalates.
3. **Full restore** — the map root is gone, the store does not open at
   all (tampered residual log, unusable master, replayed image), or
   selective repair did not converge: the untrusted store is wiped and
   rebuilt from the whole chain.

Every path ends bound to the *current* one-way counter — selective
repair runs inside a store whose counter check already passed, and a
full restore formats a fresh store around ``counter.read()`` — so a
repair can never be used to smuggle an old image past replay detection.

Honest limitations, accepted and surfaced in :class:`RepairResult`:
chunks written after the newest backup and then damaged are lost
(``lost_chunks`` / ``pruned_ranges``), and a selective repair may
resurrect the backup's version of a chunk that was deallocated after
the backup was taken — the result is a verified hybrid of live and
backup state, which is why the second scrub is mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.backupstore.store import BackupStore
from repro.chunkstore import ChunkStore, DamageReport
from repro.config import ChunkStoreConfig
from repro.errors import RepairError, ReplayDetectedError, TDBError
from repro.platform.counter import OneWayCounter
from repro.platform.secret import SecretStore
from repro.platform.untrusted import UntrustedStore

__all__ = ["RepairEngine", "RepairResult"]


@dataclass
class RepairResult:
    """Outcome of one :meth:`RepairEngine.heal` run.

    ``store`` is the healed, *open* chunk store — the caller owns
    closing it.  ``action`` is ``"clean"``, ``"selective"`` or
    ``"full_restore"``.
    """

    action: str
    store: ChunkStore
    report_before: Optional[DamageReport]
    report_after: Optional[DamageReport]
    repaired_chunks: List[int] = field(default_factory=list)
    lost_chunks: List[int] = field(default_factory=list)
    pruned_ranges: List[Tuple[int, int]] = field(default_factory=list)
    replay_detected: bool = False
    open_error: Optional[str] = None

    @property
    def healthy(self) -> bool:
        return self.report_after is not None and self.report_after.clean


class RepairEngine:
    """Heals one untrusted store from an ordered backup chain."""

    def __init__(self, backup_store: BackupStore, backup_names: List[str]) -> None:
        if not backup_names:
            raise RepairError("repair needs at least one backup stream")
        self.backup_store = backup_store
        self.backup_names = list(backup_names)

    def heal(
        self,
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: Optional[ChunkStoreConfig] = None,
    ) -> RepairResult:
        """Diagnose the store and repair it as locally as the damage allows."""
        store: Optional[ChunkStore] = None
        replay_detected = False
        open_error: Optional[str] = None
        try:
            store = ChunkStore.open(untrusted, secret_store, counter, config)
        except ReplayDetectedError as exc:
            replay_detected = True
            open_error = f"{type(exc).__name__}: {exc}"
        except TDBError as exc:
            open_error = f"{type(exc).__name__}: {exc}"

        report: Optional[DamageReport] = None
        if store is not None:
            report = store.scrub()
            if report.clean:
                return RepairResult(
                    action="clean",
                    store=store,
                    report_before=report,
                    report_after=report,
                )
            if not report.root_lost:
                try:
                    return self._selective(store, report)
                except TDBError:
                    pass  # escalate to the full restore below
            try:
                store.close()
            except TDBError:
                pass

        store = self._full_restore(untrusted, secret_store, counter, config)
        report_after = store.scrub()
        if not report_after.clean:
            raise RepairError(
                "store still damaged after a full restore: "
                + report_after.summary()
            )
        return RepairResult(
            action="full_restore",
            store=store,
            report_before=report,
            report_after=report_after,
            replay_detected=replay_detected,
            open_error=open_error,
        )

    # ------------------------------------------------------------------
    # Rungs
    # ------------------------------------------------------------------

    def _selective(self, store: ChunkStore, report: DamageReport) -> RepairResult:
        state, db_uuid = self.backup_store.load_chain_state(self.backup_names)
        if db_uuid != store._db_uuid:
            raise RepairError("backup chain belongs to a different database")

        # Detach every damaged map node from its (verified) parent; the
        # ids it covered now read as unmapped.  Reported nodes are never
        # each other's ancestors, so every prune path is intact.
        pruned_ranges: List[Tuple[int, int]] = []
        for node in report.damaged_nodes:
            store.location_map.prune_child(node.level, node.index)
            pruned_ranges.append((node.id_lo, node.id_hi))

        writes: Dict[int, bytes] = {}
        lost: List[int] = []
        for damaged in report.damaged_chunks:
            if damaged.chunk_id in state:
                writes[damaged.chunk_id] = state[damaged.chunk_id]
            else:
                # Written after the newest backup, then damaged: gone.
                lost.append(damaged.chunk_id)
        for lo, hi in pruned_ranges:
            for chunk_id, payload in state.items():
                if lo <= chunk_id < hi:
                    writes[chunk_id] = payload

        for chunk_id in writes:
            if store.location_map.lookup(chunk_id) is None:
                store.adopt_chunk_id(chunk_id)
        if writes or lost:
            store.commit(writes, deallocs=lost, durable=True)
        store.checkpoint(force=True)

        report_after = store.scrub()
        if not report_after.clean:
            raise RepairError(
                "selective repair did not converge: " + report_after.summary()
            )
        return RepairResult(
            action="selective",
            store=store,
            report_before=report,
            report_after=report_after,
            repaired_chunks=sorted(writes),
            lost_chunks=sorted(lost),
            pruned_ranges=sorted(pruned_ranges),
        )

    def _full_restore(
        self,
        untrusted: UntrustedStore,
        secret_store: SecretStore,
        counter: OneWayCounter,
        config: Optional[ChunkStoreConfig],
    ) -> ChunkStore:
        for name in list(untrusted.list_files()):
            untrusted.delete(name)
        return self.backup_store.restore(
            self.backup_names, untrusted, secret_store, counter, config
        )
