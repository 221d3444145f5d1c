"""The sharded TDB service: an asyncio front door over worker processes.

``ShardedTdbServer`` speaks the *same* length-prefixed JSON protocol as
the threaded :class:`~repro.server.server.TdbServer` — sharding is
invisible to clients — but escapes the GIL by partitioning the store
into N :mod:`repro.server.shardworker` processes (layout and routing in
:mod:`repro.server.sharding`).  One asyncio event loop (running in a
background thread so ``start()``/``stop()`` match the threaded server's
API) owns:

* the **client listener** — per-connection coroutines that read frames
  and await the shared :class:`~repro.server.session.SessionCore`, which
  owns the session contract (one open transaction, exactly-once commits,
  request replay, park/resume, hub auth); this class is the core's
  shard-routing backend;
* the **worker supervisor** — spawns workers via ``subprocess``, each
  of which connects back to a private loopback listener and
  authenticates with the boot nonce; a worker crash fails in-flight
  calls with :class:`~repro.errors.TransientStoreError`, poisons the
  sessions that touched it, respawns the process, and re-drives any
  prepared-but-undecided commits from the decision log before the
  shard serves traffic again;
* the **cross-shard coordinator** — single-shard transactions commit
  directly on their owning worker (pipelined over one duplex
  connection per shard); transactions that touched several shards go
  through the ordered 2PC round in
  :mod:`repro.server.coordinator`, keyed by the client's idempotent
  commit token so retries stay exactly-once across worker restarts.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import secrets
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set

from repro.errors import (
    CommitInDoubtError,
    FeatureUnavailableError,
    ObjectNotFoundError,
    ProtocolError,
    ServerError,
    TDBError,
    TransientStoreError,
)
from repro.server import protocol
from repro.server.backpressure import AdmissionControl, BackpressureConfig
from repro.server.coordinator import (
    CrossShardCoordinator,
    DecisionLog,
    ensure_single_writer,
    release_single_writer,
)
from repro.server.sharding import (
    BOOTSTRAP_ENV,
    ShardLayout,
    ShardRouter,
    config_to_dict,
)
from repro.server.session import (
    SessionBackend,
    SessionCore,
    SessionState,
    failed_outcome,
)
from repro.server.verbs import param, require_txn

__all__ = ["ShardedTdbServer"]

#: Required transaction mode per data-verb prefix.
_VERB_MODE = {"obj": "object", "name": "object", "col": "collection"}

#: Key under which the owning tenant is recorded inside every object
#: value a hub session stores on the shared shards.  The front door
#: wraps on ``obj.put`` and unwraps (with an ownership check) on
#: ``obj.get``, so raw virtual oids never cross tenants.
_TENANT_WRAP_KEY = "__tdbt"


def _tenant_prefix(tenant: str, name: str) -> str:
    """Shard-visible name for a tenant's name/collection.

    ``!`` never appears in a valid tenant name and keeps ``:`` free for
    the executor's ``field:{collection}:{field}`` descriptor syntax.
    """
    return f"t!{tenant}!{name}"


async def _read_wire_frame(
    reader: asyncio.StreamReader,
    idle_timeout: Optional[float] = None,
    body_timeout: Optional[float] = None,
) -> Optional[Dict[str, Any]]:
    """One frame off an asyncio stream; ``None`` on clean EOF.

    ``idle_timeout`` bounds the wait for the header and ``body_timeout``
    the arrival of the body; ``asyncio.TimeoutError`` propagates.
    """
    try:
        header = await asyncio.wait_for(
            reader.readexactly(protocol.HEADER_BYTES), timeout=idle_timeout
        )
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed inside frame header") from exc
    try:
        body = await asyncio.wait_for(
            reader.readexactly(protocol.frame_length(header)),
            timeout=body_timeout,
        )
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed inside frame body") from exc
    return protocol.decode_body(body)


class ShardLink:
    """One pipelined duplex connection to a shard worker."""

    def __init__(
        self,
        server: "ShardedTdbServer",
        shard: int,
        proc: subprocess.Popen,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        generation: int,
    ) -> None:
        self.server = server
        self.shard = shard
        self.proc = proc
        self.reader = reader
        self.writer = writer
        self.generation = generation
        self.alive = True
        self.superseded = False
        self._next_id = 1
        self._futures: Dict[int, asyncio.Future] = {}
        self.pump_task: Optional[asyncio.Task] = None

    def start_pump(self) -> None:
        self.pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def call(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send one op, await its correlated response (requests pipeline)."""
        if not self.alive:
            raise TransientStoreError(
                f"shard {self.shard} worker is restarting; retry"
            )
        rid = self._next_id
        self._next_id += 1
        fut = asyncio.get_running_loop().create_future()
        self._futures[rid] = fut
        frame = {"id": rid, "op": op}
        frame.update(params)
        try:
            self.writer.write(protocol.encode_frame(frame))
            await self.writer.drain()
        except (OSError, ConnectionError) as exc:
            self._futures.pop(rid, None)
            raise TransientStoreError(
                f"shard {self.shard} worker connection lost: {exc}"
            ) from exc
        response = await fut
        if response.get("ok"):
            return response.get("result") or {}
        raise protocol.exception_from_payload(response)

    async def _pump(self) -> None:
        try:
            while True:
                message = await _read_wire_frame(self.reader)
                if message is None:
                    break
                fut = self._futures.pop(message.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(message)
        except (ProtocolError, OSError, ConnectionError):
            pass
        finally:
            self.alive = False
            for fut in self._futures.values():
                if not fut.done():
                    fut.set_exception(
                        TransientStoreError(
                            f"shard {self.shard} worker died mid-call"
                        )
                    )
            self._futures.clear()
            try:
                self.writer.close()
            except Exception:
                pass
            await self.server._worker_died(self)


class ShardTxn:
    """The front door's handle on one open transaction.

    The transaction itself lives on the workers, keyed by the session's
    id; the front door tracks which shards it touched (``begun``),
    whether a worker died under it, and where its next keyless insert
    goes."""

    __slots__ = ("begun", "poisoned", "insert_counter")

    def __init__(self, insert_counter: int) -> None:
        self.begun: Set[int] = set()
        self.poisoned = False
        self.insert_counter = insert_counter

    def next_insert_shard(self, shards: int) -> int:
        shard = self.insert_counter % shards
        self.insert_counter += 1
        return shard


class ShardedTdbServer(SessionBackend):
    """Asyncio front door over N shard worker processes."""

    def __init__(
        self,
        root: str,
        shards: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backpressure: Optional[BackpressureConfig] = None,
        max_batch: int = 32,
        max_delay: float = 0.005,
        max_results: int = 1000,
        chunk_config=None,
        worker_spawn_timeout: float = 30.0,
        tenancy=None,
    ) -> None:
        self.root = os.path.abspath(root)
        #: Optional :class:`repro.tenancy.TenancyHub`.  When set, names
        #: and collections are namespaced per tenant on the shared
        #: shards, and quotas/audit run against the hub's control plane.
        #: The hub's lifecycle belongs to the caller (close it after
        #: stop()).
        self.tenancy = tenancy
        self._requested_shards = shards
        self.host = host
        self.port = port
        self.backpressure = backpressure or BackpressureConfig()
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.max_results = max_results
        self.chunk_config = chunk_config
        self.worker_spawn_timeout = worker_spawn_timeout
        self.admission = AdmissionControl(self.backpressure.max_sessions)
        self.core = SessionCore(self, self.backpressure, tenancy)
        self.layout: Optional[ShardLayout] = None
        self.router: Optional[ShardRouter] = None
        self.decision_log: Optional[DecisionLog] = None
        self.coordinator: Optional[CrossShardCoordinator] = None
        #: Observation hook for the crash-sweep tests: called as
        #: ``hook(stage, token, shard)`` at every 2PC boundary.
        self.on_stage = None
        self._nonce = secrets.token_hex(16)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._client_server = None
        self._worker_server = None
        self._links: Dict[int, ShardLink] = {}
        self._link_generation = 0
        self._pending_handshakes: Dict[int, asyncio.Future] = {}
        self._sessions: Dict[int, SessionState] = {}
        self._next_session_id = 1
        #: Seeds each transaction's keyless-insert placement, so
        #: consecutive transactions start on consecutive shards.
        self._placement = itertools.count()
        self._reaper_task: Optional[asyncio.Task] = None
        self._started = False
        self._stopping = False
        #: Counters of this backend; the session-level ones are the
        #: core's, and ``stats`` reports both under ``resilience``.
        self._counters: Dict[str, int] = {
            "single_shard_commits": 0,
            "cross_shard_commits": 0,
            "empty_commits": 0,
            "worker_restarts": 0,
            "commit_settlements": 0,
            "poisoned_sessions": 0,
            "recovered_decisions": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedTdbServer":
        if self._started:
            return self
        if self._requested_shards is not None:
            self.layout = ShardLayout.open_or_create(
                self.root, self._requested_shards
            )
        else:
            self.layout = ShardLayout.open(self.root)
        self.router = ShardRouter(self.layout)
        # One front door per layout: concurrent servers would interleave
        # decision-log appends and 2PC rounds.
        ensure_single_writer(self.layout.coord_dir)
        self.decision_log = DecisionLog(
            os.path.join(self.layout.coord_dir, "decisions.log")
        )
        self.coordinator = CrossShardCoordinator(
            self.decision_log,
            call=self._coordinator_call,
            restart_worker=self._coordinator_restart,
            on_stage=self._stage_hook,
        )
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="tdb-sharded-loop", daemon=True
        )
        self._loop_thread.start()
        boot = asyncio.run_coroutine_threadsafe(self._boot(), self._loop)
        try:
            boot.result(timeout=self.worker_spawn_timeout * (self.layout.shards + 1))
        except BaseException:
            self.stop()
            raise
        self._started = True
        return self

    def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        if self._loop is not None:
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                ).result(timeout=15.0)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=5.0)
            if not self._loop.is_running():
                self._loop.close()
        if self.decision_log is not None:
            self.decision_log.close()
        if self.layout is not None:
            release_single_writer(self.layout.coord_dir)
        self._started = False

    def __enter__(self) -> "ShardedTdbServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self):
        return (self.host, self.port)

    def _stage_hook(self, stage: str, token: str, shard: Optional[int]) -> None:
        hook = self.on_stage
        if hook is not None:
            hook(stage, token, shard)

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Boot: worker listener, workers, client listener
    # ------------------------------------------------------------------

    async def _boot(self) -> None:
        self._worker_server = await asyncio.start_server(
            self._on_worker_connect, "127.0.0.1", 0
        )
        self._worker_port = self._worker_server.sockets[0].getsockname()[1]
        for shard in range(self.layout.shards):
            await self._spawn_worker(shard)
        self._client_server = await asyncio.start_server(
            self._on_client_connect, self.host, self.port
        )
        sockname = self._client_server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.backpressure.effective_resume_grace > 0:
            self._reaper_task = asyncio.get_running_loop().create_task(
                self._reaper_loop()
            )

    async def _reaper_loop(self) -> None:
        """The timer behind the core's parked-session expiry sweep."""
        while not self._stopping:
            await asyncio.sleep(self.core.sweep_interval)
            await self.core.expire_parked()

    def _worker_env(self, shard: int) -> Dict[str, str]:
        import repro

        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env[BOOTSTRAP_ENV] = json.dumps(
            {
                "shard": shard,
                "shards": self.layout.shards,
                "directory": self.layout.shard_dir(shard),
                "nonce": self._nonce,
                "connect": ["127.0.0.1", self._worker_port],
                "config": config_to_dict(self.chunk_config),
                "group_commit": {
                    "max_batch": self.max_batch,
                    "max_delay": self.max_delay,
                    "max_pending": self.backpressure.max_pending_commits,
                },
                "max_results": self.max_results,
            }
        )
        return env

    async def _spawn_worker(self, shard: int) -> ShardLink:
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._pending_handshakes[shard] = fut
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.shardworker",
             "--shard", str(shard)],
            env=self._worker_env(shard),
            stdin=subprocess.DEVNULL,
        )
        try:
            hello, reader, writer = await asyncio.wait_for(
                fut, timeout=self.worker_spawn_timeout
            )
        except asyncio.TimeoutError:
            self._pending_handshakes.pop(shard, None)
            proc.kill()
            raise ServerError(
                f"shard {shard} worker did not connect back within "
                f"{self.worker_spawn_timeout}s"
            ) from None
        self._link_generation += 1
        link = ShardLink(self, shard, proc, reader, writer,
                         self._link_generation)
        link.start_pump()
        await self._redrive_decisions(link, hello.get("prepared") or [])
        self._links[shard] = link
        return link

    async def _on_worker_connect(self, reader, writer) -> None:
        try:
            hello = await asyncio.wait_for(_read_wire_frame(reader), timeout=10.0)
        except (asyncio.TimeoutError, ProtocolError):
            writer.close()
            return
        if (
            hello is None
            or hello.get("op") != "w.hello"
            or hello.get("nonce") != self._nonce
        ):
            writer.close()
            return
        shard = hello.get("shard")
        fut = self._pending_handshakes.pop(shard, None)
        if fut is None or fut.done():
            writer.close()
            return
        writer.write(protocol.encode_frame({"ok": True}))
        await writer.drain()
        fut.set_result((hello, reader, writer))

    async def _redrive_decisions(self, link: ShardLink, prepared: List[str]) -> None:
        """Resolve a (re)started worker's in-doubt tokens before traffic.

        Every redo record the worker reported is decided from the log
        (presumed abort when unlogged); logged-but-unacknowledged tokens
        the worker did *not* report were already applied (the redo file
        is unlinked after apply), so re-deciding them is a harmless
        no-op the worker discards.
        """
        tokens = dict.fromkeys(prepared)
        for token in self.decision_log.pending_for_shard(link.shard):
            tokens.setdefault(token)
        for token in tokens:
            verdict = (
                "commit" if self.decision_log.committed(token) else "abort"
            )
            await link.call("s.decide", token=token, verdict=verdict)
            self._count("recovered_decisions")

    async def _worker_died(self, link: ShardLink) -> None:
        """Pump exit handler: poison touched sessions, respawn."""
        if link.superseded or self._links.get(link.shard) is not link:
            return
        self._links.pop(link.shard, None)
        link.superseded = True
        try:
            link.proc.kill()
        except OSError:
            pass
        if self._stopping:
            return
        self._count("worker_restarts")
        # Sessions that touched the dead shard lost their transaction:
        # poison them (their next verb fails transient) and release the
        # locks they still hold on the surviving shards.
        for session in list(self._sessions.values()) + self.core.parked_states():
            txn = session.txn
            if txn is not None and link.shard in txn.begun:
                others = [s for s in txn.begun if s != link.shard]
                txn.begun = set()
                txn.poisoned = True
                self._count("poisoned_sessions")
                for shard in others:
                    other = self._links.get(shard)
                    if other is not None and other.alive:
                        try:
                            await other.call("s.abort", sid=session.id)
                        except TDBError:
                            pass
        for attempt in range(3):
            try:
                await self._spawn_worker(link.shard)
                return
            except (ServerError, OSError):
                await asyncio.sleep(0.2 * (attempt + 1))
        # Left unspawned: routing to this shard raises transient errors
        # until a later restart attempt succeeds via kill_worker/stop.

    async def _link_for(self, shard: int) -> ShardLink:
        link = self._links.get(shard)
        if link is not None and link.alive:
            return link
        # A respawn may be in flight; wait briefly for it.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            await asyncio.sleep(0.05)
            link = self._links.get(shard)
            if link is not None and link.alive:
                return link
        raise TransientStoreError(
            f"shard {shard} worker is unavailable; retry"
        )

    async def _coordinator_call(self, shard: int, op: str, **params):
        link = await self._link_for(shard)
        return await link.call(op, **params)

    async def _coordinator_restart(self, shard: int) -> None:
        link = self._links.get(shard)
        if link is not None and link.alive:
            try:
                link.proc.kill()
            except OSError:
                pass

    def kill_worker(self, shard: int) -> None:
        """Test hook: SIGKILL a shard worker process (supervisor respawns)."""
        link = self._links.get(shard)
        if link is not None:
            try:
                link.proc.kill()
            except OSError:
                pass

    def worker_pid(self, shard: int) -> Optional[int]:
        link = self._links.get(shard)
        return link.proc.pid if link is not None else None

    def inject_worker_fault(self, shard: int, mode: str) -> None:
        """Test hook: arm a crash fault (e.g. ``exit_after_commit``) on
        ``shard``'s worker."""
        link = self._links.get(shard)
        if link is None or self._loop is None:
            raise ServerError(f"no live worker for shard {shard}")
        asyncio.run_coroutine_threadsafe(
            link.call("w.fault", mode=mode), self._loop
        ).result(timeout=5.0)

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------

    async def _on_client_connect(self, reader, writer) -> None:
        if not self.admission.try_admit():
            try:
                writer.write(protocol.encode_frame(self.admission.refusal()))
                await writer.drain()
            except (OSError, ConnectionError):
                pass
            writer.close()
            return
        session = SessionState(self._next_session_id)
        self._next_session_id += 1
        self._sessions[session.id] = session
        config = self.backpressure
        parked = False
        try:
            while not self._stopping:
                try:
                    request = await _read_wire_frame(
                        reader, config.idle_timeout, config.request_timeout
                    )
                except asyncio.TimeoutError:
                    if session.txn is not None:
                        self.admission.record_timeout_abort()
                    break
                except (ProtocolError, OSError, ConnectionError):
                    parked = not self._stopping and self.core.park(session)
                    break
                if request is None:
                    break  # clean EOF
                response, adopted = await self.core.serve(session, request)
                if adopted is not session:
                    # session.resume: worker transactions are keyed by
                    # the parked session's id, which now lives here.
                    self._sessions.pop(session.id, None)
                    self._sessions[adopted.id] = session = adopted
                try:
                    writer.write(protocol.encode_frame(response))
                    await writer.drain()
                except (OSError, ConnectionError):
                    parked = not self._stopping and self.core.park(session)
                    break
        finally:
            self._sessions.pop(session.id, None)
            if not parked:
                await self.core.end(session)
            try:
                writer.close()
            except Exception:
                pass
            self.admission.release()

    # ------------------------------------------------------------------
    # The session core's shard-routing backend
    # ------------------------------------------------------------------

    async def hub_call(self, fn, *args):
        return await asyncio.to_thread(fn, *args)

    def internal_fault(self, exc: Exception) -> TDBError:
        # A non-TDB fault (disk-full in the decision log, a bug) must
        # not kill the connection coroutine mid-commit: prepared
        # participants would hold their ledger locks forever.  The
        # commit path has already aborted what it could (the
        # coordinator aborts prepared participants before re-raising);
        # report the fault and keep serving.
        return ServerError(f"internal server fault: {exc}")

    def describe(self) -> Dict[str, Any]:
        return {
            "mode": "primary",
            "sharded": True,
            "shards": self.layout.shards,
            "features": ["sharding", "cross-shard-commit"],
        }

    async def serve_verb(self, state: SessionState, request) -> Dict[str, Any]:
        if request["op"] == "stats":
            return await self.stats_payload()
        raise FeatureUnavailableError(
            f"verb {request['op']!r} is unavailable on a sharded layout: "
            "replication streams and transparency heads are per-store "
            "features and a sharded root has no single store to serve "
            "them from (hello lists them under absent_verbs)"
        )

    # -- transaction lifecycle ------------------------------------------

    async def begin_txn(self, state: SessionState, mode: str) -> ShardTxn:
        # Nothing reaches a worker yet: each shard's transaction is
        # begun on first touch (see ``_route_exec``).
        return ShardTxn(next(self._placement))

    async def abort_txn(self, state: SessionState, txn: ShardTxn) -> None:
        begun, txn.begun = txn.begun, set()
        for shard in sorted(begun):
            link = self._links.get(shard)
            if link is None or not link.alive:
                continue
            try:
                await link.call("s.abort", sid=state.id)
            except TDBError:
                pass

    async def commit_txn(
        self, state: SessionState, txn: ShardTxn, durable: bool,
        token: Optional[str],
    ) -> Dict[str, Any]:
        if txn.poisoned:
            raise TransientStoreError(
                "a shard worker restarted under this transaction; retry"
            )
        participants = sorted(txn.begun)
        txn.begun = set()
        if not participants:
            self._count("empty_commits")
            return {"durable": durable}
        if len(participants) == 1:
            return await self._single_shard_commit(
                state, participants[0], durable, token
            )
        return await self._cross_shard_commit(state, participants, token)

    async def _single_shard_commit(
        self, session: SessionState, shard: int, durable: bool,
        token: Optional[str],
    ) -> Dict[str, Any]:
        link = self._links.get(shard)
        if link is None or not link.alive:
            # Nothing was sent: the commit definitely did not happen.
            raise TransientStoreError(
                f"shard {shard} worker is unavailable; retry the transaction"
            )
        try:
            result = await link.call(
                "s.commit", sid=session.id, durable=durable, token=token
            )
        except TransientStoreError as exc:
            # The call was in flight when the worker died: the outcome
            # is momentarily unknown (its group commit may or may not
            # have reached the log).  The token rode the write set into
            # the worker's durable ledger, so the respawned worker's
            # recovered state answers the truth — ask it.
            if token is not None:
                verdict = await self._query_token_on_worker(shard, token)
                if verdict is True:
                    self._count("single_shard_commits")
                    self._count("commit_settlements")
                    return {"durable": True, "settled": True}
                if verdict is False:
                    self._count("commit_settlements")
                    raise self._died_before_durable(shard) from exc
            # No token, or the respawned worker stayed unreachable:
            # report honestly in-doubt.  The recorded outcome remembers
            # the owning shard so a later ``commit.result`` can still
            # settle against the worker's ledger once it is back.
            doubt = CommitInDoubtError(
                f"shard {shard} worker died with the commit in flight: {exc}"
            )
            doubt.shard = shard
            raise doubt from exc
        self._count("single_shard_commits")
        return {"durable": result.get("durable", durable)}

    @staticmethod
    def _died_before_durable(shard: int) -> TransientStoreError:
        return TransientStoreError(
            f"shard {shard} worker died before the commit became durable; "
            "retry the transaction"
        )

    async def _query_token_on_worker(
        self, shard: int, token: str, deadline_s: float = 15.0
    ) -> Optional[bool]:
        """Ask ``shard``'s (respawned) worker whether ``token`` is in its
        durable commit ledger.  ``None`` if the worker stayed down."""
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            try:
                link = await self._link_for(shard)
                state = await link.call("w.token.query", token=token)
                return bool(state.get("in_ledger"))
            except TDBError:
                await asyncio.sleep(0.1)
        return None

    async def _cross_shard_commit(
        self, session: SessionState, participants: List[int],
        token: Optional[str],
    ) -> Dict[str, Any]:
        # 2PC needs a durable transaction id even if the client sent no
        # token; the generated one never collides with client tokens
        # (clients cannot query it, but recovery still converges).
        txn_token = token if token is not None else "auto:" + secrets.token_hex(12)
        result = await self.coordinator.commit(
            session.id, txn_token, participants
        )
        self._count("cross_shard_commits")
        return {"durable": True, "shards": result["shards"]}

    async def settle_token(
        self, token: str, payload: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if payload["status"] == "unknown":
            # The front door restarted after logging the decision: the
            # log is the durable source of truth for cross-shard commits.
            if self.decision_log.committed(token):
                return {"status": "committed", "durable": True}
            return None
        shard = payload.get("shard")
        if not isinstance(shard, int):
            return None
        # The owning worker was unreachable when the commit went
        # in-doubt; its durable ledger may be answerable by now.
        verdict = await self._query_token_on_worker(shard, token, deadline_s=3.0)
        if verdict is None:
            return None
        self._count("commit_settlements")
        if verdict:
            return {"status": "committed", "durable": True, "settled": True}
        return failed_outcome(self._died_before_durable(shard))

    # -- data verbs ------------------------------------------------------

    async def execute(self, session: SessionState, request) -> Dict[str, Any]:
        needed = _VERB_MODE[request["op"].split(".", 1)[0]]
        if require_txn(session.txn, session.mode, needed).poisoned:
            raise TransientStoreError(
                "a shard worker restarted under this transaction; "
                "abort and retry"
            )
        if self.tenancy is not None:
            return await self._tenant_data_verb(session, request)
        return await self._route_exec(session, request)

    async def _route_exec(self, session: SessionState, request) -> Dict[str, Any]:
        """Route one (already-authorised) data verb to its shard."""
        txn = session.txn
        shard, wreq = self.router.route(
            request, txn.next_insert_shard(self.layout.shards)
        )
        link = await self._link_for(shard)
        if shard not in txn.begun:
            await link.call("s.begin", sid=session.id, mode=session.mode)
            txn.begun.add(shard)
        wreq.pop("id", None)
        result = await link.call("s.exec", sid=session.id, req=wreq)
        return self.router.translate_response(
            request["op"], request, shard, result
        )

    async def _tenant_data_verb(
        self, session: SessionState, request
    ) -> Dict[str, Any]:
        """Namespace one (already policy-checked) data verb for the hub.

        Tenant data shares the shards: names and collections are
        rewritten to ``t!{tenant}!{name}`` (stable-hash routing still
        applies, to the prefixed key), and object values are wrapped
        with the owning tenant so a guessed virtual oid from another
        tenant reads as absent rather than leaking data.  Reads of the
        reserved ``_``-collections (``_audit`` et al.) are answered from
        the tenant's own control-plane database, where the hub writes
        them; they are never sharded.
        """
        op = request["op"]
        identity = session.identity
        name = request.get("name")
        if (
            op in ("col.get", "col.iterate")
            and isinstance(name, str)
            and name.startswith("_")
        ):
            return await asyncio.to_thread(
                self.tenancy.read_reserved, identity, request
            )
        wreq = dict(request)
        if op.startswith(("col.", "name.")):
            wreq["name"] = _tenant_prefix(
                identity.tenant, param(request, "name", str)
            )
        elif op == "obj.put":
            oid = param(request, "oid", int, None)
            if oid is not None:
                await self._assert_owned(session, oid, identity.tenant)
            wreq["value"] = {
                _TENANT_WRAP_KEY: identity.tenant,
                "v": request.get("value"),
            }
        elif op == "obj.remove":
            await self._assert_owned(
                session, param(request, "oid", int), identity.tenant
            )
        result = await self._route_exec(session, wreq)
        if op == "obj.get":
            value = result.get("value")
            if not (
                isinstance(value, dict)
                and value.get(_TENANT_WRAP_KEY) == identity.tenant
            ):
                raise ObjectNotFoundError(
                    f"object {request.get('oid')} not found"
                )
            result = {**result, "value": value.get("v")}
        if isinstance(name, str) and isinstance(result.get("name"), str):
            result = {**result, "name": name}
        return result

    async def _assert_owned(
        self, session: SessionState, oid: int, tenant: str
    ) -> None:
        """Refuse obj.put/obj.remove on an oid another tenant owns.

        Uniform ``not found`` whether the object is absent or foreign —
        no existence oracle across tenants."""
        try:
            probe = await self._route_exec(
                session, {"op": "obj.get", "oid": oid}
            )
        except ObjectNotFoundError:
            raise ObjectNotFoundError(f"object {oid} not found") from None
        value = probe.get("value")
        if not (
            isinstance(value, dict) and value.get(_TENANT_WRAP_KEY) == tenant
        ):
            raise ObjectNotFoundError(f"object {oid} not found")

    # -- admin -----------------------------------------------------------

    async def stats_payload(self) -> Dict[str, Any]:
        per_shard: Dict[str, Any] = {}
        for shard in range(self.layout.shards):
            link = self._links.get(shard)
            if link is None or not link.alive:
                per_shard[str(shard)] = None
                continue
            try:
                per_shard[str(shard)] = await link.call("w.stats")
            except TDBError:
                per_shard[str(shard)] = None
        resilience = {**self._counters, **self.core.resilience_snapshot()}
        tenancy = None
        if self.tenancy is not None:
            tenancy = await asyncio.to_thread(self.tenancy.stats)
        return {
            "sharded": True,
            "shards": self.layout.shards,
            "per_shard": per_shard,
            "sessions": self.admission.as_dict(),
            "resilience": resilience,
            "read_only": False,
            "tenancy": tenancy,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def _shutdown(self) -> None:
        if self._client_server is not None:
            self._client_server.close()
        if self._worker_server is not None:
            self._worker_server.close()
        if self._reaper_task is not None:
            self._reaper_task.cancel()
        await self.core.close()
        for link in list(self._links.values()):
            link.superseded = True
            try:
                await asyncio.wait_for(link.call("w.shutdown"), timeout=2.0)
            except (TDBError, asyncio.TimeoutError):
                pass
            if link.pump_task is not None:
                link.pump_task.cancel()
            try:
                link.writer.close()
            except Exception:
                pass
        for link in list(self._links.values()):
            try:
                link.proc.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                link.proc.kill()
        self._links.clear()
