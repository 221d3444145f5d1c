"""Ready-made crash scenarios for the sweep harness.

:class:`ChunkStoreCrashScenario` drives a TPC-B-shaped workload (branch,
tellers, accounts, append-only history — the paper's own benchmark
family) against a :class:`~repro.chunkstore.ChunkStore`, reporting every
durability barrier to the sweep's :class:`~repro.testing.sweeper.CommitLedger`.

Durability bookkeeping mirrors the store's recovery contract
(`chunkstore.recovery`): recovery rolls back to the last *durable* commit or
checkpoint, so nondurable commits are only acknowledged once a later
durable commit, explicit/auto checkpoint, or cleaner pass folds them in.
Barriers are detected from ``stats()`` deltas (``durable_commits_total``,
``checkpoints_total``) rather than from the arguments we passed, so
auto-checkpoints triggered by residual-log growth are counted exactly
like explicit ones.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.chunkstore import ChunkStore
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.platform import MemoryOneWayCounter, MemorySecretStore
from repro.testing.faults import FaultyUntrustedStore
from repro.testing.sweeper import CommitLedger, CrashScenario

__all__ = ["ChunkStoreCrashScenario"]

_SECRET = b"fault-sweep-secret-0123456789abc"


def _payload(tag: int, seq: int, size: int) -> bytes:
    """Deterministic chunk content (no randomness: sweeps must replay)."""
    pattern = bytes((tag * 37 + seq * 11 + i) % 256 for i in range(min(size, 64)))
    reps = size // len(pattern) + 1
    return (pattern * reps)[:size]


class ChunkStoreCrashScenario(CrashScenario):
    """TPC-B-style transactions over a small, churn-heavy chunk store.

    ``transactions`` durable/nondurable update rounds run after an
    initial durable population; the round mix includes a mid-run
    checkpoint, a history-chunk deallocation, and payloads sized to roll
    the 4 KiB segments so the sweep crosses segment-header and
    master-record writes, not just commit records.
    """

    def __init__(self, *, secure: bool = True, transactions: int = 8) -> None:
        self.secure = secure
        self.transactions = transactions
        self.config = ChunkStoreConfig(
            segment_size=4096,
            initial_segments=3,
            checkpoint_residual_bytes=8192,
            map_fanout=8,
            fsync=True,  # memory-store syncs are free but give the sweep
                         # real sync boundaries to crash at

            security=(
                SecurityProfile() if secure else SecurityProfile.insecure()
            ),
        )
        self.secret_store = MemorySecretStore(_SECRET)
        self.counter = MemoryOneWayCounter()
        self.store: Optional[ChunkStore] = None
        self.model: Dict[int, bytes] = {}

    # -- CrashScenario interface -------------------------------------------

    def build(self, store: FaultyUntrustedStore) -> None:
        self.untrusted = store
        self.store = ChunkStore.format(
            store, self.secret_store, self.counter, self.config
        )

    def workload(self, ledger: CommitLedger) -> None:
        store = self.store
        branch = store.allocate_chunk_id()
        tellers = [store.allocate_chunk_id() for _ in range(2)]
        accounts = [store.allocate_chunk_id() for _ in range(4)]

        setup = {branch: _payload(1, 0, 160)}
        setup.update({t: _payload(2, i, 120) for i, t in enumerate(tellers)})
        setup.update({a: _payload(3, i, 200) for i, a in enumerate(accounts)})
        self._commit(ledger, setup, durable=True)

        history: list = []
        for txn in range(1, self.transactions + 1):
            account = accounts[txn % len(accounts)]
            teller = tellers[txn % len(tellers)]
            hist = store.allocate_chunk_id()
            history.append(hist)
            writes = {
                account: _payload(3, txn, 200 + 40 * (txn % 3)),
                teller: _payload(2, txn, 120),
                branch: _payload(1, txn, 160),
                hist: _payload(4, txn, 300),
            }
            deallocs = ()
            if txn == self.transactions - 2 and len(history) > 2:
                deallocs = (history.pop(0),)
            self._commit(ledger, writes, deallocs=deallocs, durable=(txn % 3 != 1))
            if txn == self.transactions // 2:
                self._barrier_call(ledger, lambda: store.checkpoint(force=True))
        self._barrier_call(ledger, lambda: store.clean(max_segments=1))

    def recover(self) -> Dict[int, bytes]:
        store = ChunkStore.open(
            self.untrusted, self.secret_store, self.counter, self.config
        )
        try:
            return {cid: store.read(cid) for cid in store.chunk_ids()}
        finally:
            try:
                store.close()
            except Exception:  # noqa: BLE001 - state was already captured
                pass

    # -- tamper-matrix plumbing --------------------------------------------

    def run_to_image(self, clean_close: bool = True):
        """Fault-free run; the tamper-matrix baseline.

        Returns ``(image, expected_states)``: a media snapshot and every
        committed state recovery may legally land on (all durable
        prefixes plus the final folded state).  With ``clean_close`` the
        snapshot is taken after ``close()`` — the master covers the whole
        log and commit framing is dead data.  Without it the snapshot is
        a crash image with a live residual log, so tampering must get
        past the record hash chain too.
        """
        store = FaultyUntrustedStore()
        ledger = CommitLedger()
        self.build(store)
        ledger.format_complete = True
        self.workload(ledger)
        self.tag_size = self.store.codec.tag_size
        final = dict(self._target())
        if clean_close:
            self.store.close()  # the close checkpoint folds pending commits
            self.model, self._pending = final, None
        states = [dict(s) for s in ledger.durable_states]
        if final not in states:
            states.append(final)
        return store.save_image(), states

    def recover_image(self, image) -> Dict[int, bytes]:
        """Open a fresh store over ``image`` and return its state."""
        fresh = FaultyUntrustedStore()
        fresh.load_image(image)
        self.untrusted = fresh
        return self.recover()

    # -- durability bookkeeping --------------------------------------------

    def _commit(
        self,
        ledger: CommitLedger,
        writes: Dict[int, bytes],
        deallocs=(),
        durable: bool = True,
    ) -> None:
        target = dict(self._target())
        target.update(writes)
        for cid in deallocs:
            target.pop(cid, None)
        self._run_tracked(
            ledger,
            target,
            lambda: self.store.commit(writes, deallocs, durable=durable),
        )

    def _barrier_call(self, ledger: CommitLedger, call: Callable[[], None]) -> None:
        """A call that adds no state but may make pending commits durable."""
        self._run_tracked(ledger, dict(self._target()), call)

    def _target(self) -> Dict[int, bytes]:
        # The state a durability barrier would persist right now: the last
        # acknowledged model plus every pending nondurable commit, which is
        # exactly what ``attempted`` tracked since the last barrier.
        return self._pending if self._pending is not None else self.model

    def _run_tracked(self, ledger: CommitLedger, target, call) -> None:
        before = self.store.stats()
        ledger.attempting(target)
        self._pending = target
        call()
        after = self.store.stats()
        if (
            after.durable_commits_total > before.durable_commits_total
            or after.checkpoints_total > before.checkpoints_total
        ):
            self.model = target
            self._pending = None
            ledger.acknowledged()

    _pending: Optional[Dict[int, bytes]] = None
