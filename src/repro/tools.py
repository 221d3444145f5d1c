"""Command-line administration tools for TDB databases.

Every subcommand is one row of :data:`COMMANDS`: its name, a one-line
help (``python -m repro.tools --help`` lists them), how it opens the
database directory (the layout ``Database.create`` produces), its
extra arguments and its handler.  One dispatcher builds the parsers
from the table, opens the directory in the row's mode, runs the
handler and closes the store whatever happens.

Usage (``python -m repro.tools COMMAND --help`` lists a row's arguments)::

    python -m repro.tools inspect /path/to/dbdir
    python -m repro.tools verify  /path/to/dbdir [--insecure]
    python -m repro.tools scrub   /path/to/dbdir [--salvage]
    python -m repro.tools salvage-export /path/to/dbdir /path/to/outdir
    python -m repro.tools serve   /path/to/dbdir [--host H] [--port P] [--tenants]
    python -m repro.tools tenant  grant /path/to/hubroot NAME P SCOPE RIGHT
    python -m repro.tools replicate /path/to/replicadir --primary H:P [--once]
    python -m repro.tools audit   /path/to/dbdir [--primary H:P]

Segment size and map fanout are the store's own: every open reads them
from the master record.  ``--insecure`` opens a store formatted with the
insecure profile (plain TDB); the profile is never read from the media.

The rows that open ``READ_ONLY`` or ``SALVAGE`` (``scrub --salvage``
too) write nothing, so they are safe against a served primary's live
directory and a replica directory (its image sits under its own one-way
counter, like a primary's).  The others may change the files.

Exit codes: 0 success; 1 a check failed (damage, a bad backup, a
rejected shipment, a fork; for ``verify`` and ``audit`` also a store
that does not open, ``FAIL open``); 2 any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.backupstore import BackupStore
from repro.chunkstore import ChunkStore
from repro.collectionstore.collection import Collection
from repro.collectionstore.store import register_collection_classes
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.db import Database
from repro.errors import TamperDetectedError, TDBError
from repro.objectstore import ClassRegistry, ObjectStore
from repro.proofs.headlog import TIP_AHEAD, TIP_LAGS, TIP_SIGNED, bind_tip
from repro.repair import RepairEngine

__all__ = [
    "main",
    "verify_database",
    "serve_database",
    "replicate_database",
    "promote_database",
    "stats_database",
    "heads_database",
    "audit_database",
]

#: How a row opens what it administers.  ``READ_ONLY`` makes no media
#: writes (no log truncation, counter resync, checkpoint or signed head
#: on close); ``SALVAGE`` is as read-only and tolerates damage;
#: ``WRITABLE`` recovers and repairs the media; ``HUB`` opens a tenant
#: hub root offline, where holding the directory is the credential and
#: mutations still land in the tenant's ``_audit`` trail (``via: cli``).
READ_ONLY, SALVAGE, WRITABLE, HUB = "read-only", "salvage", "writable", "hub"

_NO_HEAD_LOG = "(insecure profile, or head.log deleted: a writable open refuses it)"


def _arg(*flags, **options):
    """One ``add_argument`` call of a table row."""
    return flags, options


@dataclass(frozen=True)
class Command:
    """One row of :data:`COMMANDS`.

    Each parsed argument reaches ``run`` as the keyword its ``dest``
    names.  With ``opens`` set (an argument with ``dest="opens"`` may
    override it) the dispatcher opens the directory and calls
    ``run(store, archival, **arguments)`` (``run(hub, ...)`` for
    ``HUB``), else ``run(**arguments)``.  ``open_fails_check``: a store
    that does not open fails the check (``FAIL open``, exit 1).  A row
    with ``actions`` runs one of those nested rows instead.
    """

    name: str
    help: str
    opens: Optional[str]
    run: Optional[Callable[..., int]]
    args: Tuple = ()
    open_fails_check: bool = False
    actions: Tuple["Command", ...] = ()


def _open(mode: str, arguments: dict) -> tuple:
    """What a row opens."""
    if mode == HUB:
        from repro.tenancy import TenancyHub

        return (TenancyHub(arguments.pop("root")),)
    config = arguments.pop("config")
    untrusted, secret, counter, archival = Database._file_parts(arguments["directory"])
    if mode == SALVAGE:
        store = ChunkStore.open_salvage(untrusted, secret, counter, config)
    else:
        store = ChunkStore.open(untrusted, secret, counter, config, read_only=mode == READ_ONLY)
    return store, archival


def _run(command: Command, opens: Optional[str], **arguments) -> int:
    """Open what ``opens`` says, run the row, and close it."""
    if opens is None:
        return command.run(**arguments)
    try:
        opened = _open(opens, arguments)
    except TDBError as exc:
        if not command.open_fails_check:
            raise
        print(f"FAIL open: {type(exc).__name__}: {exc}")
        return 1
    try:
        return command.run(*opened, **arguments)
    finally:
        opened[0].close()


def _call(run: Callable[..., int], **arguments) -> int:
    """Run the row whose handler is ``run`` as its subcommand would."""
    command = next(row for row in COMMANDS if row.run is run)
    return _run(command, command.opens, **arguments)


def _print_summary(directory: str, store: ChunkStore):
    """The store summary ``inspect`` and ``stats`` open with."""
    stats = store.stats()
    print(f"database: {directory}")
    print(f"  security        : {'on' if store.secure else 'off'}")
    print(f"  chunks          : {len(store.chunk_ids())}")
    print(f"  live bytes      : {stats.live_bytes}")
    print(f"  on-disk bytes   : {stats.db_file_bytes}")
    print(f"  segments        : {stats.segment_count} ({stats.free_slots} free)")
    print(f"  commit seqno    : {stats.commit_seqno}")
    print(f"  counter value   : {stats.counter_value}")
    print(f"  checkpoints     : {stats.checkpoints_total}")
    return stats


def _walk_backups(backups: BackupStore) -> List[tuple]:
    """``(name, header, None)`` or ``(name, None, error)`` per stream."""
    walked = []
    for name in backups.archival.list_streams():
        try:
            walked.append((name, backups.inspect(name), None))
        except TDBError as exc:
            walked.append((name, None, exc))
    return walked


def _endpoint(text: str) -> Optional[Tuple[str, int]]:
    """``(host, port)``, or ``None`` after saying why ``text`` is not."""
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--primary must be host:port, got {text!r}", file=sys.stderr)
        return None
    return host, int(port_text)


def _serve_until_stopped(address, ready_callback, stop_event) -> None:
    """Hand ``address`` to ``ready_callback``, then block until
    ``stop_event`` is set (tests) or the process is interrupted."""
    if ready_callback is not None:
        ready_callback(*address)
    try:
        (stop_event or threading.Event()).wait()
    except KeyboardInterrupt:
        print("interrupted; shutting down")


def _verdict(label: str, failures: int) -> int:
    if failures:
        print(f"{label} FAILED: {failures} problem(s)")
        return 1
    print(f"{label} OK")
    return 0


def _print_report(report) -> None:
    print(f"scrub: {report.summary()}")
    for chunk in report.damaged_chunks:
        print(
            f"  damaged chunk {chunk.chunk_id} "
            f"(segment {chunk.segment} @ {chunk.offset}+{chunk.length}): "
            f"{chunk.error}"
        )
    for node in report.damaged_nodes:
        print(
            f"  damaged map node L{node.level}#{node.index} "
            f"covering ids [{node.id_lo}, {node.id_hi}): {node.error}"
        )
    if report.root_lost:
        print("  map root unreadable: the whole tree is unreachable")


def _inspect(store: ChunkStore, archival, directory: str) -> int:
    stats = _print_summary(directory, store)
    print(f"  capacity        : {stats.capacity_bytes}")
    print(f"  utilization     : {stats.utilization:.3f}")
    log = store.transparency
    if log is not None and log.tip() is not None:
        print(f"  signed head     : {log.tip().describe()} "
              f"({len(log)} in log, scheme {log.scheme})")

    # Named objects via the object-store catalog, if present.
    registry = ClassRegistry()
    register_collection_classes(registry)
    try:
        object_store = ObjectStore.attach(store, registry=registry)
        with object_store.transaction() as txn:
            catalog = txn.open_readonly(object_store.catalog_oid).deref()
            print(f"  root object     : {catalog.root_oid}")
            if catalog.names:
                print("  named objects:")
                for name, oid in sorted(catalog.names.items()):
                    detail = ""
                    try:
                        obj = txn.open_readonly(oid).deref()
                        if isinstance(obj, Collection):
                            indexes = ", ".join(d.name for d in obj.indexes)
                            detail = (
                                f" [collection of {obj.count} "
                                f"{obj.schema_class_id}; indexes: {indexes}]"
                            )
                    except TDBError:
                        detail = " [not decodable without application classes]"
                    print(f"    {name} -> object {oid}{detail}")
            txn.abort()
    except TDBError as exc:
        print(f"  (no object-store catalog: {exc})")

    walked = _walk_backups(BackupStore(archival, store.secret_store))
    print(f"  backups         : {len(walked)}")
    for name, info, exc in walked:
        if info is None:
            print(f"    {name}: INVALID ({exc})")
            continue
        kind = "full" if info.is_full else "incremental"
        print(
            f"    {name}: {kind}, seq {info.sequence}, "
            f"{info.entry_count} entries, {info.stream_bytes} bytes"
        )
    return 0


def _verify(store: ChunkStore, archival, directory: str) -> int:
    print("master record, residual log, and counter: OK (validated at open)")
    failures = 0
    report = store.scrub()
    if not report.clean:
        _print_report(report)
        failures += (
            len(report.damaged_chunks) + len(report.damaged_nodes) + report.root_lost
        )
    checked = report.verified_chunks
    print(f"chunks: {checked}/{checked + len(report.damaged_chunks)} validated")

    walked = _walk_backups(BackupStore(archival, store.secret_store))
    for name, info, exc in walked:
        if info is None:
            failures += 1
            print(f"FAIL backup {name}: {type(exc).__name__}: {exc}")
    valid = sum(info is not None for _, info, _ in walked)
    print(f"backups: {valid}/{len(walked)} validated")
    return _verdict("VERIFY", failures)


def verify_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """Audit every chunk and backup; return a process exit code."""
    return _call(_verify, directory=directory, config=config)


def _scrub(store: ChunkStore, archival, directory: str) -> int:
    """Merkle-walk the store; exit 0 only if every byte verifies.

    A degraded salvage open (counter skew, discarded residual commits)
    is damage even when every surviving chunk verifies: a health check
    must not take a rolled-back or truncated store for a healthy one.
    """
    info = store.salvage_info
    degraded = info is not None and info.degraded
    if degraded:
        if info.counter_skew:
            print(
                f"salvage: counter skew {info.counter_skew} "
                f"(expected {info.counter_expected}, found {info.counter_actual})"
                + (" — replay suspected" if info.replay_suspected else "")
            )
        if info.commits_discarded:
            print(
                f"salvage: discarded {info.commits_discarded} residual "
                f"commit(s): {info.scan_stop_reason or info.apply_stop_reason}"
            )
    report = store.scrub()
    _print_report(report)
    return 0 if report.clean and not degraded else 1


def _repair(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """Heal the store from its archive's backup chain."""
    untrusted, secret, counter, archival = Database._file_parts(directory)
    backups = BackupStore(archival, secret)
    chain = []
    for name, info, exc in _walk_backups(backups):
        if info is None:
            print(f"skipping invalid backup {name}: {exc}")
        else:
            chain.append((info.sequence, name))
    names = [name for _, name in sorted(chain)]
    if not names:
        print("no usable backups in the archive; cannot repair")
        return 2
    print(f"backup chain: {', '.join(names)}")
    result = RepairEngine(backups, names).heal(untrusted, secret, counter, config)
    if result.open_error:
        print(f"store did not open: {result.open_error}")
    if result.replay_detected:
        print("NOTE: replay detected — the image had been rolled back")
    print(f"repair action: {result.action}")
    if result.repaired_chunks:
        print(f"  repaired chunks : {result.repaired_chunks}")
    if result.lost_chunks:
        print(f"  lost chunks     : {result.lost_chunks} (newer than any backup)")
    if result.pruned_ranges:
        print(f"  pruned id ranges: {result.pruned_ranges}")
    _print_report(result.report_after)
    result.store.close()
    return 0 if result.healthy else 1


def _salvage_export(store: ChunkStore, archival, directory: str, out_dir: str) -> int:
    """Dump every surviving chunk of a damaged store to ``out_dir``."""
    report, payloads = store.export_surviving()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "MANIFEST.tsv"), "w") as manifest:
        for chunk_id in sorted(payloads):
            data = payloads[chunk_id]
            name = f"chunk-{chunk_id:08d}.bin"
            with open(os.path.join(out_dir, name), "wb") as fh:
                fh.write(data)
            manifest.write(f"{chunk_id}\t{name}\t{len(data)}\n")
    _print_report(report)
    print(f"exported {len(payloads)} chunk(s) to {out_dir}")
    return 0 if report.clean else 1


def serve_database(
    directory: str,
    host: str,
    port: int,
    config: Optional[ChunkStoreConfig] = None,
    max_sessions: int = 64,
    idle_timeout: float = 30.0,
    resume_grace: float = 2.0,
    max_results: int = 1000,
    tenants: bool = False,
    ready_callback=None,
    stop_event=None,
) -> int:
    """Serve a file-backed database over the wire protocol.

    Opens (and crash-recovers) the database, starts a
    :class:`~repro.server.server.TdbServer`, and blocks until
    ``stop_event`` is set (tests) or the process is interrupted.
    ``ready_callback``, when given, receives the bound ``(host, port)``
    once the listener is up (with ``port=0`` the only way to learn the
    port).  With ``tenants`` the directory is a hub root: per-tenant
    databases live under ``<directory>/tenants/`` (:mod:`repro.tenancy`).
    """
    from repro.server import BackpressureConfig, TdbServer

    backpressure = BackpressureConfig(
        max_sessions=max_sessions,
        idle_timeout=idle_timeout,
        resume_grace=resume_grace,
    )
    if tenants:
        from repro.tenancy import TenancyHub

        db, hub = None, TenancyHub(directory, chunk_config=config)
    else:
        db, hub = Database.open_existing(directory, chunk_config=config), None
    server = TdbServer(
        db,
        host=host,
        port=port,
        backpressure=backpressure,
        max_results=max_results,
        tenancy=hub,
    )
    server.start()
    bound_host, bound_port = server.address
    label = "tenant hub " if tenants else ""
    print(f"serving {label}{directory} on {bound_host}:{bound_port}")
    try:
        _serve_until_stopped(server.address, ready_callback, stop_event)
    finally:
        server.stop()
        (db if hub is None else hub).close()
    return 0


def replicate_database(
    directory: str,
    primary: str,
    once: bool = False,
    serve_host: str = "127.0.0.1",
    serve_port: Optional[int] = None,
    poll: float = 1.0,
    seed: Optional[List[str]] = None,
    config: Optional[ChunkStoreConfig] = None,
    ready_callback=None,
    stop_event=None,
) -> int:
    """Run a verifying read replica against ``primary`` (``host:port``).

    With ``--once`` a single shipment is synced and the process exits
    (0 = installed or already current, 1 = shipment rejected).  Otherwise
    the applier polls every ``poll`` seconds until interrupted and, when
    ``serve_port`` is given, serves read-only clients from the last
    verified image the whole time.  ``seed`` restores the named backup
    chain into the replica first, so a cold replica can serve stale reads
    before its first contact with the primary.
    """
    from repro.replication import ReplicaApplier, seed_replica

    endpoint = _endpoint(primary)
    if endpoint is None:
        return 2
    if seed:
        master = seed_replica(directory, seed, chunk_config=config)
        print(
            f"seeded from {len(seed)} backup(s): generation "
            f"{master.generation}, commit seqno {master.commit_seqno}"
        )
    applier = ReplicaApplier(directory, *endpoint, chunk_config=config, poll_interval=poll)
    try:
        if once:
            try:
                installed = applier.sync_once()
            except TDBError as exc:
                print(f"shipment rejected: {type(exc).__name__}: {exc}")
                return 1
            print("installed new image" if installed else "already up to date")
            stats = applier.stats_snapshot()
            print(
                f"  applied seqno {stats['applied_seqno']}, "
                f"fetched {stats['bytes_fetched']} bytes, "
                f"reused {stats['segments_reused']} segment(s)"
            )
            return 0
        bound = None
        if serve_port is not None:
            # Serving needs an installed image: sync one shipment up
            # front (a rejected shipment is tolerable if a previously
            # verified image is already on disk).
            try:
                applier.sync_once()
            except TDBError as exc:
                print(f"initial sync failed: {type(exc).__name__}: {exc}")
            try:
                server = applier.serve(serve_host, serve_port)
            except TDBError as exc:
                print(f"cannot serve: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                return 1
            bound = server.address
            print(f"replica serving read-only on {bound[0]}:{bound[1]}")
        applier.start()
        print(f"following {primary} (poll every {poll:.3g}s)")
        _serve_until_stopped(bound or (None, None), ready_callback, stop_event)
        return 0
    finally:
        applier.close()


def promote_database(
    directory: str, config: Optional[ChunkStoreConfig] = None
) -> int:
    """Promote a replica image to a writable primary."""
    from repro.replication import promote_replica

    db = promote_replica(directory, config)
    try:
        stats = db.stats()
        print(
            f"promoted {directory}: commit seqno {stats.commit_seqno}, "
            f"counter {stats.counter_value}"
        )
        print("serve this directory normally")
    finally:
        db.close()
    return 0


def _stats(store: ChunkStore, archival, directory: str) -> int:
    _print_summary(directory, store)
    print(f"  generation      : {store.generation}")
    log = store.transparency
    if log is None or log.tip() is None:
        print(f"  signed head     : none {_NO_HEAD_LOG}")
    else:
        tip = log.tip()
        print(f"  head log length : {len(log)} (scheme {log.scheme})")
        print(f"  head generation : {tip.generation}")
        print(f"  head seqno      : {tip.seqno}")
        print(f"  head root       : {tip.root_digest.hex() or '-'}")
    return 0


def stats_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """Print store statistics and the current signed commit head."""
    return _call(_stats, directory=directory, config=config)


def _heads(store: ChunkStore, archival, directory: str) -> int:
    log = store.transparency
    if log is None:
        print(f"no head log {_NO_HEAD_LOG}")
        return 1
    print(f"head log: {len(log)} signed head(s), scheme {log.scheme}")
    for head in log.heads():
        print(f"  {head.describe()}")
    return 0


def heads_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """List every signed head in the transparency log, oldest first."""
    return _call(_heads, directory=directory, config=config)


_TIP_REPORTS = {
    TIP_SIGNED: "tip binding: OK ({head})",
    TIP_LAGS: "tip binding: log lags the master by one checkpoint (crash "
              "window; a writable open will catch it up)",
    TIP_AHEAD: "tip binding: {head} signs the master and newer heads "
               "follow it (dual-master fallback; a writable open drops them)",
}


def _audit(store: ChunkStore, archival, directory: str, primary: Optional[str]) -> int:
    log = store.transparency
    if log is None:
        print(f"no head log to audit {_NO_HEAD_LOG}")
        return 1
    print(f"head log: {len(log)} signed head(s) verified "
          f"(scheme {log.scheme})")
    failures = 0
    # The master, not the replayed state: commits the residual log
    # holds past it are not signed yet.
    master = store.master_io.load_latest()
    try:
        outcome, head = bind_tip(log.heads(), master, store.hash_size)
    except TamperDetectedError as exc:
        print(f"FAIL binding: {exc}")
        failures += 1
    else:
        print(_TIP_REPORTS[outcome].format(
            head=head.describe() if head is not None else "no head"
        ))

    if primary:
        endpoint = _endpoint(primary)
        if endpoint is None:
            return 2
        from repro.proofs.client import VerifyingClient

        client = VerifyingClient(*endpoint, store.secret_store, config=store.config)
        # Pinned to the local tip, the client fetches only the delta
        # past it, and a remote chain that does not extend it is a
        # fork or a rollback.
        client.db_uuid, client.pinned = store.db_uuid, log.tip()
        try:
            head = client.latest_head()
            print(f"remote log: verified through head #{head.index}")
            print("cross-check: OK (local log is a prefix of the "
                  "primary's)")
        except TDBError as exc:
            print(f"FAIL remote: {type(exc).__name__}: {exc}")
            failures += 1
        finally:
            client.close()
    return _verdict("AUDIT", failures)


def audit_database(
    directory: str,
    primary: Optional[str] = None,
    config: Optional[ChunkStoreConfig] = None,
) -> int:
    """Audit the head log locally and, optionally, against a primary.

    The open already verified every signature and chain link; this
    prints how the tip binds to the master (``bind_tip``) and, with
    ``primary``, reconciles the served chain with the local tip.
    """
    return _call(_audit, directory=directory, config=config, primary=primary)


def _tenant_create(hub, name: str, admin: str, **quotas) -> int:
    from repro.tenancy import TenantQuotas

    overrides = {k: v for k, v in quotas.items() if v is not None}
    result = hub.create_tenant(
        name, TenantQuotas(**overrides) if overrides else None, admin=admin or None
    )
    print(f"tenant {result['tenant']} created")
    if "secret" in result:
        print(f"  admin principal : {result['admin']}")
        print(f"  admin secret    : {result['secret']}")
        print("  (the secret is shown exactly once; store it now)")
    return 0


def _tenant_list(hub) -> int:
    for name in hub.list_tenants():
        print(name)
    return 0


def _tenant_grant(hub, name: str, principal: str, scope: str, right: str) -> int:
    result = hub.grant(name, principal, scope, right)
    print(f"granted {right} on {scope!r} to {principal} in tenant {name}")
    if result.get("secret"):
        print(f"  new principal secret: {result['secret']}")
        print("  (shown exactly once; store it now)")
    return 0


def _tenant_revoke(hub, name: str, principal: str, scope: str, right: str) -> int:
    result = hub.revoke(name, principal, scope, right)
    print(
        f"revoked {result.get('removed', 0)} grant(s) of {right} on "
        f"{scope!r} from {principal} in tenant {name}"
    )
    return 0


def _tenant_meter(hub, name: str) -> int:
    print(json.dumps(hub.meter(name), indent=2, sort_keys=True))
    return 0


_SALVAGE_ARG = _arg("--salvage", dest="opens", action="store_const", const=SALVAGE,
                    help="open read-only; works on damaged stores")
_PRIMARY_ARG = _arg("--primary", default=None,
                    help="also cross-check the head log against "
                         "this primary server (host:port)")
_SERVE_ARGS = (
    _arg("--host", default="127.0.0.1"),
    _arg("--port", type=int, default=7807,
         help="TCP port (0 picks an ephemeral port)"),
    _arg("--max-sessions", type=int, default=64),
    _arg("--idle-timeout", type=float, default=30.0,
         help="seconds before an idle session is dropped"),
    _arg("--resume-grace", type=float, default=2.0,
         help="seconds a dropped session stays resumable "
              "(0 disables session parking)"),
    _arg("--max-results", type=int, default=1000,
         help="cap on rows returned per query verb"),
    _arg("--tenants", action="store_true", default=False,
         help="serve the directory as a multi-tenant hub root: sessions "
              "authenticate as (tenant, principal) and data verbs are "
              "policy-gated and metered per tenant"),
)
_REPLICATE_ARGS = (
    _arg("--primary", required=True, help="primary server as host:port"),
    _arg("--once", action="store_true", default=False,
         help="sync a single shipment and exit"),
    _arg("--serve-host", default="127.0.0.1"),
    _arg("--serve-port", type=int, default=None,
         help="serve read-only clients on this port (0 picks an ephemeral port)"),
    _arg("--poll", type=float, default=1.0, help="seconds between catch-up polls"),
    _arg("--seed", nargs="+", default=None, metavar="BACKUP",
         help="seed the image from this backup chain "
              "(names in chain order) before syncing"),
)
_NAME = _arg("name")
_CREATE_ARGS = (
    _NAME,
    _arg("--admin", default="admin",
         help="bootstrap admin principal (empty string skips creating one)"),
    _arg("--max-sessions", type=int, default=None),
    _arg("--max-pending", type=int, default=None, dest="max_pending_commits",
         metavar="MAX_PENDING"),
    _arg("--max-bytes", type=int, default=None),
    _arg("--txn-rate", type=float, default=None,
         help="transactions per second (0 = unlimited)"),
    _arg("--burst", type=int, default=None, help="token-bucket burst size"),
)
_GRANT_ARGS = (
    _NAME, _arg("principal"), _arg("scope"),
    _arg("right", choices=["read", "write", "admin"]),
)

#: Every subcommand, in ``--help`` order; ``tenant`` runs one of its
#: nested rows, each on a hub root.
COMMANDS: Tuple[Command, ...] = (
    Command("inspect", "print statistics, named objects and backups", READ_ONLY, _inspect),
    Command("verify", "read and check every chunk and every backup", READ_ONLY, _verify,
            open_fails_check=True),
    Command("scrub", "Merkle-walk the store and report all damage", WRITABLE, _scrub,
            args=(_SALVAGE_ARG,)),
    Command("repair", "heal the store from its archive's backup chain", None, _repair),
    Command("salvage-export", "dump every chunk that still verifies", SALVAGE,
            _salvage_export, args=(_arg("out_dir"),)),
    Command("serve", "serve the database over the wire protocol", None, serve_database,
            args=_SERVE_ARGS),
    Command("replicate", "run a verifying read replica of a primary", None,
            replicate_database, args=_REPLICATE_ARGS),
    Command("promote", "open a replica image as a writable primary", None, promote_database),
    Command("stats", "print store statistics and the signed commit head", READ_ONLY, _stats),
    Command("heads", "print the signed head log, oldest first", READ_ONLY, _heads),
    Command("audit", "verify the head log and its binding to the master", READ_ONLY, _audit,
            open_fails_check=True, args=(_PRIMARY_ARG,)),
    Command("tenant", "administer a multi-tenant hub root", None, None, actions=(
        Command("create", "create a tenant", HUB, _tenant_create, args=_CREATE_ARGS),
        Command("list", "list the tenants", HUB, _tenant_list),
        Command("grant", "grant a right on a scope", HUB, _tenant_grant, args=_GRANT_ARGS),
        Command("revoke", "revoke a right on a scope", HUB, _tenant_revoke, args=_GRANT_ARGS),
        Command("meter", "print a tenant's quotas and usage", HUB, _tenant_meter,
                args=(_NAME,)),
    )),
)


def _parser() -> argparse.ArgumentParser:
    """The argument parser :data:`COMMANDS` declares."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    insecure = ChunkStoreConfig(security=SecurityProfile.insecure())
    for command in COMMANDS:
        cmd = sub.add_parser(command.name, help=command.help)
        if command.actions:
            actions = cmd.add_subparsers(dest="command", required=True)
            for action in command.actions:
                act = actions.add_parser(action.name, help=action.help)
                act.add_argument("root")
                for flags, options in action.args:
                    act.add_argument(*flags, **options)
                act.set_defaults(row=action, opens=action.opens)
        else:
            cmd.add_argument("directory")
            cmd.add_argument("--insecure", dest="config", action="store_const",
                             const=insecure, default=None,
                             help="the store uses the insecure profile")
        for flags, options in command.args:
            cmd.add_argument(*flags, **options)
        cmd.set_defaults(row=command, opens=command.opens)
    return parser


def main(argv=None) -> int:
    arguments = vars(_parser().parse_args(argv))
    del arguments["command"]
    try:
        return _run(arguments.pop("row"), **arguments)
    except TDBError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
