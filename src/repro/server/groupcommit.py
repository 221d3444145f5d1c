"""Group commit: batch concurrent commits into one chunk-store commit.

A durable chunk-store commit pays three fixed costs regardless of how
much data it carries: one log append (record framing, hash chain, MAC),
one durable sync, and one one-way-counter advance.  With many sessions
committing small transactions those fixed costs dominate — the classic
group-commit amortization shared by enclave-backed authenticated stores
(see PAPERS: *Authenticated Key-Value Stores with Hardware Enclaves*)
applies directly, because under strict 2PL the write sets of
concurrently committing transactions are disjoint and can be merged
into a single atomic batch.

The coordinator implements the leader/follower discipline:

* the first committer to arrive becomes the **leader** of the open
  batch and waits up to ``max_delay`` for followers (skipped when the
  concurrency hint says nobody else commits),
* followers merge their write sets into the open batch and block,
* once the batch is full (:data:`MAX_BATCH`, or every possible
  committer is aboard) or the window closes, the
  leader seals it, performs **one** ``ChunkStore.commit`` for the whole
  batch, and wakes every member.

Atomicity across the batch is inherited from the chunk store: the
merged batch is a single commit record, and recovery applies a commit
record all-or-nothing (a torn record discards the whole batch).  If the
merged commit fails with a :class:`~repro.errors.TDBError` and the
batch has several members, the leader retries each member individually
so one session's invalid write set cannot poison its neighbours'
commits; non-TDB failures (injected crashes, real power loss) propagate
to every member unchanged.

Admission control: at most ``max_pending`` commit requests may be
queued or in flight; beyond that :class:`~repro.errors.ServerBusyError`
(transient, retryable) is raised instead of growing the queue without
bound.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import ServerBusyError, TDBError

__all__ = ["GroupCommitCoordinator", "GroupCommitStats", "MAX_BATCH"]

#: Most members one batch takes.  The concurrency hint seals a batch
#: long before this with fewer committers.
MAX_BATCH = 32


@dataclass
class GroupCommitStats:
    """Counters of the coordinator's batching behaviour.

    ``requests`` counts transaction commits submitted; ``batches``
    counts chunk-store commits performed.  Their difference is exactly
    the number of log appends, syncs, and counter advances the batching
    saved.  ``batch_sizes`` is a histogram (size -> count).
    """

    requests: int = 0
    batches: int = 0
    failed_batches: int = 0
    individual_retries: int = 0
    rejected: int = 0
    quorum_seals: int = 0
    max_batch_size: int = 0
    batch_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        committed = sum(size * count for size, count in self.batch_sizes.items())
        return committed / self.batches

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "failed_batches": self.failed_batches,
            "individual_retries": self.individual_retries,
            "rejected": self.rejected,
            "quorum_seals": self.quorum_seals,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_sizes": {str(k): v for k, v in sorted(self.batch_sizes.items())},
        }


class _Member:
    """One transaction's commit request inside a batch."""

    __slots__ = ("writes", "deallocs", "durable", "error")

    def __init__(self, writes, deallocs, durable) -> None:
        self.writes = dict(writes)
        self.deallocs = list(deallocs)
        self.durable = durable
        self.error: Optional[BaseException] = None


class _Batch:
    """A forming (then flushing) group of commit requests."""

    __slots__ = ("members", "sealed", "done")

    def __init__(self) -> None:
        self.members: List[_Member] = []
        self.sealed = False
        self.done = threading.Event()


class GroupCommitCoordinator:
    """Merges concurrent commit requests into shared chunk-store commits.

    Drop-in for :meth:`ChunkStore.commit` (install as an object store's
    ``commit_sink``); single-threaded callers pass straight through with
    no added latency when :attr:`concurrency_hint` is below 2.
    """

    def __init__(
        self,
        chunk_store,
        max_delay: float = 0.005,
        max_pending: int = 256,
    ) -> None:
        if max_delay < 0:
            raise ValueError("max_delay cannot be negative")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.chunk_store = chunk_store
        self.max_delay = max_delay
        self.max_pending = max_pending
        #: How many potential committers exist right now (the session
        #: core keeps this at the number of sessions that have begun a
        #: transaction).  Below 2 the leader skips the batching window —
        #: group commit never taxes a lone client with ``max_delay`` of
        #: pure latency.  From 2 up, a batch seals as soon as every
        #: committer has joined it instead of waiting out ``max_delay``:
        #: with N committers and N < ``MAX_BATCH`` the batch can never
        #: grow past N, so once all N are aboard further waiting is pure
        #: latency — at 8 clients that dead wait cost ~40% of throughput.
        self.concurrency_hint = 0
        self.stats = GroupCommitStats()
        self._mutex = threading.Lock()
        self._filled = threading.Condition(self._mutex)
        self._open: Optional[_Batch] = None
        self._pending = 0
        self._closed = False

    # ------------------------------------------------------------------
    # The ChunkStore.commit-compatible entry point
    # ------------------------------------------------------------------

    def commit(
        self,
        writes: Mapping[int, bytes],
        deallocs: Iterable[int] = (),
        durable: bool = True,
    ) -> None:
        """Commit atomically, sharing the flush with concurrent callers.

        Blocks until the batch containing this request has been
        committed (and synced, for durable batches).  Raises whatever
        the underlying commit raised for *this* request.
        """
        member = _Member(writes, deallocs, durable)
        if not member.writes and not member.deallocs:
            return
        with self._mutex:
            if self._closed:
                raise ServerBusyError("group-commit coordinator is closed")
            if self._pending >= self.max_pending:
                self.stats.rejected += 1
                raise ServerBusyError(
                    f"commit queue full ({self.max_pending} pending); retry"
                )
            self._pending += 1
            self.stats.requests += 1
            batch = self._open
            leader = batch is None
            if leader:
                batch = _Batch()
                self._open = batch
            batch.members.append(member)
            if len(batch.members) >= self._seal_threshold():
                batch.sealed = True
                self._open = None
                if len(batch.members) < MAX_BATCH:
                    self.stats.quorum_seals += 1
                self._filled.notify_all()
        try:
            if leader:
                self._lead(batch)
            else:
                batch.done.wait()
        finally:
            with self._mutex:
                self._pending -= 1
        if member.error is not None:
            raise member.error

    def _seal_threshold(self) -> int:
        """Batch size that seals immediately (caller holds ``_mutex``).

        A leader whose batch never reaches ``MAX_BATCH`` would
        otherwise wait out the whole ``max_delay`` window — at 8
        clients every batch of 8 slept the full 5 ms.  The committer
        count bounds how many *can* join, so once that many are in the
        batch there is nobody left to wait for.
        """
        if self.concurrency_hint < 2:
            return MAX_BATCH
        return min(MAX_BATCH, self.concurrency_hint)

    # ------------------------------------------------------------------
    # Leader path
    # ------------------------------------------------------------------

    def _lead(self, batch: _Batch) -> None:
        deadline = time.monotonic() + self.max_delay
        with self._mutex:
            if self.concurrency_hint >= 2:
                while not batch.sealed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._filled.wait(remaining)
            if not batch.sealed:
                batch.sealed = True
                if self._open is batch:
                    self._open = None
        try:
            self._flush(batch)
        finally:
            batch.done.set()

    def _flush(self, batch: _Batch) -> None:
        writes: Dict[int, bytes] = {}
        deallocs: List[int] = []
        durable = False
        for member in batch.members:
            writes.update(member.writes)
            deallocs.extend(member.deallocs)
            durable = durable or member.durable
        size = len(batch.members)
        try:
            self.chunk_store.commit(writes, deallocs, durable=durable)
        except TDBError as exc:
            self._record(size, failed=True)
            if size == 1:
                batch.members[0].error = exc
                return
            # One member's invalid write set fails the merged commit for
            # everyone; fall back to individual commits so only the
            # guilty request errors.  The chunk store rejected the batch
            # before writing anything, so no partial state exists.
            for member in batch.members:
                try:
                    self.chunk_store.commit(
                        member.writes, member.deallocs, durable=member.durable
                    )
                    with self._mutex:
                        self.stats.individual_retries += 1
                except TDBError as member_exc:
                    member.error = member_exc
            return
        except BaseException as exc:
            # Crash-like failures (injected or real): every member sees
            # the same outcome; recovery decides what survived.
            self._record(size, failed=True)
            for member in batch.members:
                member.error = exc
            return
        self._record(size, failed=False)

    def _record(self, size: int, failed: bool) -> None:
        with self._mutex:
            if failed:
                self.stats.failed_batches += 1
                return
            self.stats.batches += 1
            self.stats.max_batch_size = max(self.stats.max_batch_size, size)
            self.stats.batch_sizes[size] = self.stats.batch_sizes.get(size, 0) + 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Refuse new commits; in-flight batches finish normally."""
        with self._mutex:
            self._closed = True

    def stats_snapshot(self) -> GroupCommitStats:
        with self._mutex:
            copy = GroupCommitStats(
                requests=self.stats.requests,
                batches=self.stats.batches,
                failed_batches=self.stats.failed_batches,
                individual_retries=self.stats.individual_retries,
                rejected=self.stats.rejected,
                quorum_seals=self.stats.quorum_seals,
                max_batch_size=self.stats.max_batch_size,
                batch_sizes=dict(self.stats.batch_sizes),
            )
        return copy
