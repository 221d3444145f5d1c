"""Spans recorded from outside the program, and their self times.

The benchmark may not edit ``src/``, so the layer boundaries are traced
by replacing public callables with timing wrappers while a traced run
lasts (:meth:`Tracer.install`) and restoring them afterwards.  One span
is ``name, start ns, end ns, span id, parent span id, thread id,
transaction id`` plus one optional count (bytes or items) the wrapper
reads off the call; spans stay in memory until :meth:`Tracer.dump`
writes them as JSON lines.

A span name is ``<layer>.<Class>.<method>``; the layer is the first
component.  :func:`summarize` folds the spans into per-name totals with
*self time* — a span's duration minus the time its child spans cover —
so the layers' self times add up to the transaction time instead of
counting nested work twice.

Targets are resolved by dotted path and a missing one is skipped and
reported: the ruler has to survive the refactors it is meant to judge,
and a renamed method should cost its span, not the whole run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["TARGETS", "Tracer", "summarize"]

_now = time.perf_counter_ns


def _len_of_result(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _commit_user_bytes(args, kwargs, result) -> int:
    writes = args[1] if len(args) > 1 else kwargs.get("writes", {})
    return sum(len(data) for data in writes.values())


def _payload_bytes(args, kwargs, result) -> int:
    return len(args[1])


#: ``(span name, module, attribute path, count reader)``.  The count is
#: what the per-layer metrics need beside the time: bytes through a
#: frame or cipher, user bytes handed to a commit.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # platform: the substrates under the chunk store
    ("platform.FileUntrustedStore.write", "repro.platform.untrusted", "FileUntrustedStore.write", None),
    ("platform.FileUntrustedStore.read", "repro.platform.untrusted", "FileUntrustedStore.read", None),
    ("platform.FileUntrustedStore.sync", "repro.platform.untrusted", "FileUntrustedStore.sync", None),
    ("platform.FileOneWayCounter.increment", "repro.platform.counter", "FileOneWayCounter.increment", None),
    # crypto: the instrumented kernels the chunk store drives
    ("crypto.cipher.encrypt", "repro.crypto.instrument", "InstrumentedPayloadCipher.encrypt", _payload_bytes),
    ("crypto.cipher.decrypt", "repro.crypto.instrument", "InstrumentedPayloadCipher.decrypt", _payload_bytes),
    ("crypto.hash.digest", "repro.crypto.instrument", "InstrumentedHashEngine.digest", _payload_bytes),
    ("crypto.hash.digest_many", "repro.crypto.instrument", "InstrumentedHashEngine.digest_many", None),
    # chunkstore
    ("chunkstore.ChunkStore.commit", "repro.chunkstore.store", "ChunkStore.commit", _commit_user_bytes),
    ("chunkstore.ChunkStore.read", "repro.chunkstore.store", "ChunkStore.read", None),
    ("chunkstore.ChunkStore.read_payload", "repro.chunkstore.store", "ChunkStore.read_payload", None),
    ("chunkstore.ChunkStore.checkpoint", "repro.chunkstore.store", "ChunkStore.checkpoint", None),
    ("chunkstore.Cleaner.clean_pass", "repro.chunkstore.cleaner", "Cleaner.clean_pass", None),
    ("chunkstore.MapNode.deserialize", "repro.chunkstore.locmap", "MapNode.deserialize", None),
    # cache: not traced.  ``SharedLruCache.get`` ran 50-100 times per
    # transaction for ~0.2 us of work each; its spans were a third of
    # all spans and cost their parents more self time than the cache
    # used.  The cache is reported from its ``CacheStats`` counts and
    # its time is inside the objectstore and chunkstore self times.
    # objectstore
    ("objectstore.ObjectStore.transaction", "repro.objectstore.store", "ObjectStore.transaction", None),
    ("objectstore.Transaction.open_readonly", "repro.objectstore.transaction", "Transaction.open_readonly", None),
    ("objectstore.Transaction.open_writable", "repro.objectstore.transaction", "Transaction.open_writable", None),
    ("objectstore.Transaction.insert", "repro.objectstore.transaction", "Transaction.insert", None),
    ("objectstore.Transaction.commit", "repro.objectstore.transaction", "Transaction.commit", None),
    ("objectstore.Transaction.abort", "repro.objectstore.transaction", "Transaction.abort", None),
    ("objectstore.LockManager.acquire", "repro.objectstore.locks", "LockManager.acquire", None),
    # collectionstore
    ("collectionstore.CollectionStore.transaction", "repro.collectionstore.store", "CollectionStore.transaction", None),
    ("collectionstore.CTransaction.read_collection", "repro.collectionstore.ctransaction", "CTransaction.read_collection", None),
    ("collectionstore.CTransaction.write_collection", "repro.collectionstore.ctransaction", "CTransaction.write_collection", None),
    ("collectionstore.CTransaction.commit", "repro.collectionstore.ctransaction", "CTransaction.commit", None),
    ("collectionstore.CollectionHandle.query_match", "repro.collectionstore.collection", "CollectionHandle.query_match", None),
    ("collectionstore.CollectionHandle.insert", "repro.collectionstore.collection", "CollectionHandle.insert", None),
    ("collectionstore.CollectionIterator.read", "repro.collectionstore.iterators", "CollectionIterator.read", None),
    ("collectionstore.CollectionIterator.write", "repro.collectionstore.iterators", "CollectionIterator.write", None),
    ("collectionstore.CollectionIterator.close", "repro.collectionstore.iterators", "CollectionIterator.close", None),
    # server: framing is shared by both ends; the process tells which
    ("server.protocol.encode_frame", "repro.server.protocol", "encode_frame", _len_of_result),
    ("server.protocol.write_frame", "repro.server.protocol", "write_frame", None),
    ("server.protocol.read_frame", "repro.server.protocol", "read_frame", None),
    ("server.protocol.recv_exact", "repro.server.protocol", "recv_exact", _len_of_result),
    ("server.VerbExecutor.execute", "repro.server.verbs", "VerbExecutor.execute", None),
    ("server.GroupCommitCoordinator.commit", "repro.server.groupcommit", "GroupCommitCoordinator.commit", None),
    ("server.TdbClient.call", "repro.server.client", "TdbClient.call", None),
)


class Tracer:
    """Records spans from wrappers it installs over :data:`TARGETS`."""

    def __init__(self) -> None:
        #: ``(name, start, end, span id, parent id, thread id, txn id, count)``
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        #: Wrappers pass calls straight through while this is false, so
        #: set-up and warm-up cost neither memory nor much time.
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _thread_state(self) -> list:
        """``[innermost open span id, thread id, transaction id]`` of
        the calling thread."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = [0, threading.get_ident(), -1]
            return state

    def set_txn(self, txn_id: int) -> None:
        """Tag the calling thread's following spans with a transaction id."""
        self._thread_state()[2] = txn_id

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that every call records one span.

        The wrapper is the trace's overhead (under a microsecond a span,
        charged to the parent span's self time), so it does nothing it
        can avoid: the thread's state is one list, the parent is a slot
        in it rather than a stack, and only targets with a ``count``
        reader pay for one.
        """
        tracer, local, ids = self, self._local, self._ids
        append, thread_state = self.spans.append, self._thread_state

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = thread_state()
            span_id = next(ids)
            parent = state[0]
            state[0] = span_id
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                state[0] = parent
                append((name, start, end, span_id, parent, state[1], state[2], 0))

        def traced_counting(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = thread_state()
            span_id = next(ids)
            parent = state[0]
            state[0] = span_id
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                state[0] = parent
                append((name, start, end, span_id, parent, state[1], state[2],
                        count(args, kwargs, result)))

        wrapper = traced if count is None else traced_counting
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing ----------------------------------------------------

    def install(self, targets: Iterable[tuple] = TARGETS) -> None:
        """Replace every resolvable target with its tracing wrapper."""
        for name, module_name, path, count in targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(name, raw.__func__, count))
            else:
                wrapped = self.wrap(name, raw, count)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original callables back (objects built meanwhile may
        still hold bound wrappers; they keep recording harmlessly)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write the spans as JSON lines; returns how many."""
        keys = ("name", "start_ns", "end_ns", "span", "parent", "thread", "txn", "count")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")))
                out.write("\n")
        return len(self.spans)


def summarize(spans: List[tuple]) -> Dict[str, Any]:
    """Fold spans into what the per-layer metrics are computed from.

    Returns ``{"names": {name: {calls, total_ns, self_ns, count,
    max_ns}}, "opens_under_query_match": n, "writes_under_commit": n,
    "session_gap_ns": n, "service_ns": n}``.  ``session_gap_ns`` is a server thread's time
    between a ``read_frame`` returning and the matching ``write_frame``
    starting that no traced call covers — the session's own dispatch
    and bookkeeping; ``service_ns`` is ``read_frame`` return to
    ``write_frame`` return.
    """
    child_ns: Dict[int, int] = {}
    by_id: Dict[int, tuple] = {}
    for span in spans:
        by_id[span[3]] = span
        if span[4]:
            child_ns[span[4]] = child_ns.get(span[4], 0) + span[2] - span[1]
    names: Dict[str, Dict[str, int]] = {}
    for name, start, end, span_id, _parent, _thread, _txn, count in spans:
        entry = names.get(name)
        if entry is None:
            entry = names[name] = {
                "calls": 0, "total_ns": 0, "self_ns": 0, "count": 0, "max_ns": 0
            }
        duration = end - start
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns.get(span_id, 0)
        entry["count"] += count
        if duration > entry["max_ns"]:
            entry["max_ns"] = duration

    opens = committed_writes = 0
    for span in spans:
        if span[0] == "crypto.cipher.encrypt":
            # ChunkStore.commit encrypts each written chunk itself, so
            # these are exactly the objects a commit was handed.
            parent_span = by_id.get(span[4])
            if parent_span and parent_span[0] == "chunkstore.ChunkStore.commit":
                committed_writes += 1
        if not span[0].startswith("objectstore.Transaction.open_"):
            continue
        parent = span[4]
        while parent:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor[0] == "collectionstore.CollectionHandle.query_match":
                opens += 1
                break
            parent = ancestor[4]

    # Server threads: walk each thread's top-level spans in time order.
    gap_ns = service_ns = 0
    top_level: Dict[int, List[tuple]] = {}
    for span in spans:
        if span[4] == 0:
            top_level.setdefault(span[5], []).append(span)
    for thread_spans in top_level.values():
        thread_spans.sort(key=lambda s: s[1])
        request_end = None  # end of the read_frame that opened a request
        covered = 0
        for span in thread_spans:
            if span[0] == "server.protocol.read_frame":
                request_end, covered = span[2], 0
            elif request_end is not None:
                if span[0] == "server.protocol.write_frame":
                    service_ns += span[2] - request_end
                    gap_ns += span[1] - request_end - covered
                    request_end = None
                else:
                    covered += span[2] - span[1]
    return {
        "names": names,
        "opens_under_query_match": opens,
        "writes_under_commit": committed_writes,
        "session_gap_ns": gap_ns,
        "service_ns": service_ns,
    }
