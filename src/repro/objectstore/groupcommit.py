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

Every object store commits through the coordinator it owns, embedded
or served.  The first committer to arrive **leads** the open batch and
waits up to :data:`MAX_DELAY` for followers, who merge their write sets
into it and block; the leader then seals it, performs **one**
``ChunkStore.commit`` for the whole batch and wakes every member.

A batch seals at :data:`MAX_BATCH` members, or once no other writer
can join it: the object store counts its open write transactions and
leaves out any blocked on a lock or run by the committing thread.
Readers, idle sessions and members of a batch already committing are
not writers, so no batch waits for them, and a lone writer's batch
seals as it joins.  An abort or a lock wait wakes the leader to count
again.  While the previous batch is still committing, the open one
keeps taking members (its leader could not commit sooner anyway).

Atomicity across the batch is inherited from the chunk store: the
merged batch is a single commit record, and recovery applies a commit
record all-or-nothing (a torn record discards the whole batch).  If the
merged commit fails with a :class:`~repro.errors.TDBError` and the
batch has several members, the leader retries each member individually
so one session's invalid write set cannot poison its neighbours'
commits; non-TDB failures (injected crashes, real power loss) propagate
to every member unchanged.

Admission control: at most :data:`MAX_PENDING` commit requests may be
queued or in flight; beyond that :class:`~repro.errors.ServerBusyError`
(transient, retryable) is raised instead of growing the queue without
bound.  Each transaction commits once, so the bound cannot bind while
fewer than ``MAX_PENDING`` transactions are open.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.errors import ServerBusyError, TDBError

__all__ = [
    "GroupCommitCoordinator",
    "GroupCommitStats",
    "MAX_BATCH",
    "MAX_DELAY",
    "MAX_PENDING",
]

#: Most members one batch takes.  The writer count seals a batch long
#: before this with fewer writers.
MAX_BATCH = 32
#: Seconds a leader waits for the rest of its quorum.
MAX_DELAY = 0.005
#: Most commit requests queued or in flight at once.
MAX_PENDING = 256


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
        self.writes = writes
        self.deallocs = list(deallocs)
        self.durable = durable
        self.error: Optional[BaseException] = None


class _Batch:
    """A forming (then flushing) group of commit requests."""

    __slots__ = ("members", "sealed", "done")

    def __init__(self) -> None:
        self.members: List[_Member] = []
        self.sealed = False
        self.done = False


class GroupCommitCoordinator:
    """Merges concurrent commit requests into shared chunk-store commits.

    Drop-in for :meth:`ChunkStore.commit`.  ``writers`` returns how many
    open transactions could still join the calling thread's batch
    (``ObjectStore.joinable_writers``); at 0 a batch seals once no
    earlier batch is committing, so a lone writer's commit passes
    straight through.
    """

    def __init__(self, chunk_store, writers: Callable[[], int]) -> None:
        self.chunk_store = chunk_store
        self.writers = writers
        self.stats = GroupCommitStats()
        self._mutex = threading.Lock()
        self._filled = threading.Condition(self._mutex)
        self._flushed = threading.Condition(self._mutex)
        self._open: Optional[_Batch] = None
        self._flushing = 0  # sealed batches not yet committed
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
            if self._pending >= MAX_PENDING:
                self.stats.rejected += 1
                raise ServerBusyError(
                    f"commit queue full ({MAX_PENDING} pending); retry"
                )
            self._pending += 1
            self.stats.requests += 1
            batch = self._open
            leader = batch is None
            if leader:
                batch = _Batch()
                self._open = batch
            batch.members.append(member)
            self._seal_if_complete(batch)
            if not leader:
                while not batch.done:
                    self._flushed.wait()
                self._pending -= 1
        if leader:
            self._lead(batch)
        if member.error is not None:
            raise member.error

    def writers_dropped(self) -> None:
        """Wake the leader: a writer it may be waiting for cannot join."""
        with self._mutex:
            self._filled.notify_all()

    # ------------------------------------------------------------------
    # Leader path
    # ------------------------------------------------------------------

    def _seal_if_complete(self, batch: _Batch, timed_out: bool = False) -> bool:
        """Seal ``batch`` if it is full, no writer is left to join it or
        its window is over; whether it is sealed.  The caller holds the
        mutex."""
        if batch.sealed:
            return True
        size = len(batch.members)
        if size < MAX_BATCH:
            if self._flushing:
                return False  # the store is busy: keep taking members
            if not timed_out and self.writers() > 0:
                return False
            if not timed_out and size > 1:
                self.stats.quorum_seals += 1
        batch.sealed = True
        self._flushing += 1
        if self._open is batch:
            self._open = None
        self._filled.notify_all()
        return True

    def _lead(self, batch: _Batch) -> None:
        if not batch.sealed:  # a lone writer's batch sealed as it joined
            with self._mutex:
                deadline = time.monotonic() + MAX_DELAY
                timed_out = False
                while not self._seal_if_complete(batch, timed_out):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 and not timed_out:
                        timed_out = True
                        continue
                    # A flush that ends wakes the leader, as does a
                    # member joining or a writer dropping out.
                    self._filled.wait(remaining if remaining > 0 else None)
        size = len(batch.members)
        failed = True
        try:
            failed = self._flush(batch)
        finally:
            with self._mutex:
                self._pending -= 1
                self._flushing -= 1
                batch.done = True
                self._flushed.notify_all()
                self._filled.notify_all()
                if failed:
                    self.stats.failed_batches += 1
                else:
                    self.stats.batches += 1
                    self.stats.max_batch_size = max(self.stats.max_batch_size, size)
                    self.stats.batch_sizes[size] = self.stats.batch_sizes.get(size, 0) + 1

    def _flush(self, batch: _Batch) -> bool:
        """One chunk-store commit for the batch; whether it failed."""
        size = len(batch.members)
        if size == 1:
            # No merged copy: a bulk load's write set is large.
            member = batch.members[0]
            writes, deallocs, durable = member.writes, member.deallocs, member.durable
        else:
            writes, deallocs, durable = {}, [], False
            for member in batch.members:
                writes.update(member.writes)
                deallocs.extend(member.deallocs)
                durable = durable or member.durable
        try:
            self.chunk_store.commit(writes, deallocs, durable=durable)
        except TDBError as exc:
            if size == 1:
                batch.members[0].error = exc
                return True
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
            return True
        except BaseException as exc:
            # Crash-like failures (injected or real): every member sees
            # the same outcome; recovery decides what survived.
            for member in batch.members:
                member.error = exc
            return True
        return False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Refuse new commits with a transient error (a service layer
        draining its clients); in-flight batches finish normally."""
        with self._mutex:
            self._closed = True

    def stats_snapshot(self) -> GroupCommitStats:
        with self._mutex:
            return replace(self.stats, batch_sizes=dict(self.stats.batch_sizes))
