"""Command-line administration tools for TDB databases.

Subcommands over a file-backed database directory (the layout
``Database.create`` produces):

* ``inspect`` — open the database (which already validates the master
  record, the residual log, and the replay counter) and print a summary:
  store statistics, segment table, named objects, backups in the archive.
* ``verify``  — full integrity audit: walk the location map and read
  every chunk, forcing every Merkle path and payload digest to be
  checked; then validate every backup stream in the archive.  Exits
  non-zero if anything fails.
* ``scrub``   — Merkle-walk the whole store and print a structured
  damage report instead of stopping at the first bad byte; with
  ``--salvage`` the store is opened read-only so a damaged image can be
  diagnosed without touching it.
* ``repair``  — heal a damaged store from the backup chain in its
  archive (selective restore when the damage is local, full
  restore when it is not).
* ``salvage-export`` — open the store read-only in salvage mode and
  dump every chunk that still Merkle-verifies to files in an output
  directory, with a manifest.
* ``serve`` — open the database and serve it over the TCP wire
  protocol (:mod:`repro.server`) until interrupted; group-commit and
  backpressure tuning via ``--max-delay`` / ``--max-pending`` /
  ``--max-results``.
  ``--tenants`` turns the server into a multi-tenant hub
  (:mod:`repro.tenancy`): sessions must authenticate as a
  ``(tenant, principal)`` pair and data verbs are policy-gated and
  metered per tenant.
* ``tenant`` — administer a multi-tenant hub root offline:
  ``create`` / ``list`` / ``grant`` / ``revoke`` / ``meter``.
* ``replicate`` — run a read replica of a serving primary: sync once
  (``--once``), keep following, and optionally serve read-only clients
  (``--serve-port``); ``--seed`` bootstraps the image from the backup
  chain first.
* ``promote`` — open a replica image writable under the replica's own
  one-way counter (the primary is gone; this node takes over).
* ``stats`` — open read-only and print store statistics plus the
  current signed commit head (generation, seqno, root digest, head-log
  length) from the transparency log.
* ``heads`` — print the full signed head log (:mod:`repro.proofs`):
  one line per head, oldest first; loading already verifies every
  signature and chain link.
* ``audit`` — verify the local head log end to end (signatures, hash
  chain, tip-vs-master binding) and, with ``--primary``, reconcile the
  remote server's chain with the local tip through a verifying client
  (fetching only the heads past it); a fork or a rollback fails.  Exits
  non-zero if anything fails.

Usage::

    python -m repro.tools inspect /path/to/dbdir
    python -m repro.tools verify  /path/to/dbdir [--secure/--insecure]
    python -m repro.tools scrub   /path/to/dbdir [--salvage]
    python -m repro.tools repair  /path/to/dbdir
    python -m repro.tools salvage-export /path/to/dbdir /path/to/outdir
    python -m repro.tools serve   /path/to/dbdir [--host H] [--port P]
    python -m repro.tools serve   /path/to/hubroot --tenants
    python -m repro.tools tenant  create /path/to/hubroot NAME [--admin P]
    python -m repro.tools tenant  list   /path/to/hubroot
    python -m repro.tools tenant  grant  /path/to/hubroot NAME P SCOPE RIGHT
    python -m repro.tools tenant  revoke /path/to/hubroot NAME P SCOPE RIGHT
    python -m repro.tools tenant  meter  /path/to/hubroot NAME
    python -m repro.tools replicate /path/to/replicadir --primary H:P \\
        [--once] [--serve-port P] [--poll SECONDS] [--seed NAME ...]
    python -m repro.tools promote /path/to/replicadir
    python -m repro.tools stats   /path/to/dbdir
    python -m repro.tools heads   /path/to/dbdir
    python -m repro.tools audit   /path/to/dbdir [--primary H:P]

``inspect``, ``verify``, ``scrub --salvage``, ``salvage-export``,
``stats``, ``heads`` and ``audit`` open their database read-only and
write nothing to it, so they are safe to run against a served
primary's live directory and against a replica directory (which holds
its image under its own one-way counter, like a primary).  ``scrub``
without ``--salvage`` recovers and checkpoints like a writable open,
``repair`` rewrites the untrusted store, ``replicate`` maintains the
replica image and its counter, and ``promote`` opens the replica
writable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.backupstore import BackupStore
from repro.chunkstore import ChunkStore
from repro.collectionstore.collection import Collection
from repro.collectionstore.store import register_collection_classes
from repro.config import ChunkStoreConfig, SecurityProfile
from repro.db import Database
from repro.errors import TamperDetectedError, TDBError
from repro.objectstore import ClassRegistry, ObjectStore
from repro.platform import FileArchivalStore
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


def _open_store(
    directory: str, config: Optional[ChunkStoreConfig], mode: str = "read-only"
):
    """``(chunk store, archival store)`` of a database directory.

    ``mode`` picks the open.  ``"read-only"`` (the default) makes no
    media writes at all: no log truncation, no counter resync, no
    checkpoint or signed head on close, so it is safe against a
    primary's live directory.  ``"salvage"`` is just as read-only and
    also tolerates damage.  ``"writable"`` recovers and repairs the
    media, which ``scrub`` without ``--salvage`` intends.
    """
    untrusted, secret, counter, archival = Database._file_parts(directory)
    if mode == "salvage":
        store = ChunkStore.open_salvage(untrusted, secret, counter, config)
    else:
        store = ChunkStore.open(
            untrusted, secret, counter, config, read_only=mode == "read-only"
        )
    return store, archival


def inspect_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    chunk_store, archival = _open_store(directory, config)
    stats = chunk_store.stats()
    print(f"database: {directory}")
    print(f"  security        : {'on' if chunk_store.secure else 'off'}")
    print(f"  chunks          : {len(chunk_store.chunk_ids())}")
    print(f"  live bytes      : {stats.live_bytes}")
    print(f"  capacity        : {stats.capacity_bytes}")
    print(f"  utilization     : {stats.utilization:.3f}")
    print(f"  on-disk bytes   : {stats.db_file_bytes}")
    print(f"  segments        : {stats.segment_count} ({stats.free_slots} free)")
    print(f"  commit seqno    : {stats.commit_seqno}")
    print(f"  counter value   : {stats.counter_value}")
    print(f"  checkpoints     : {stats.checkpoints_total}")
    log = getattr(chunk_store, "transparency", None)
    if log is not None and log.tip() is not None:
        print(f"  signed head     : {log.tip().describe()} "
              f"({len(log)} in log, scheme {log.scheme})")

    # Named objects via the object-store catalog, if present.
    registry = ClassRegistry()
    register_collection_classes(registry)
    try:
        object_store = ObjectStore.attach(chunk_store, registry=registry)
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

    streams = archival.list_streams()
    print(f"  backups         : {len(streams)}")
    backups = BackupStore(archival, chunk_store.secret_store)
    for name in streams:
        try:
            info = backups.inspect(name)
            kind = "full" if info.is_full else "incremental"
            print(
                f"    {name}: {kind}, seq {info.sequence}, "
                f"{info.entry_count} entries, {info.stream_bytes} bytes"
            )
        except TDBError as exc:
            print(f"    {name}: INVALID ({exc})")
    chunk_store.close()
    return 0


def verify_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """Audit every chunk and backup; return a process exit code."""
    failures = 0
    try:
        chunk_store, archival = _open_store(directory, config)
    except TDBError as exc:
        print(f"FAIL open: {type(exc).__name__}: {exc}")
        return 1
    print("master record, residual log, and counter: OK (validated at open)")

    report = chunk_store.scrub()
    if not report.clean:
        _print_report(report)
        failures += (
            len(report.damaged_chunks) + len(report.damaged_nodes) + report.root_lost
        )
    checked = report.verified_chunks
    print(f"chunks: {checked}/{checked + len(report.damaged_chunks)} validated")

    backups = BackupStore(archival, chunk_store.secret_store)
    streams = archival.list_streams()
    valid_streams = 0
    for name in streams:
        try:
            backups.inspect(name)
            valid_streams += 1
        except TDBError as exc:
            failures += 1
            print(f"FAIL backup {name}: {type(exc).__name__}: {exc}")
    print(f"backups: {valid_streams}/{len(streams)} validated")
    chunk_store.close()
    if failures:
        print(f"VERIFY FAILED: {failures} problem(s)")
        return 1
    print("VERIFY OK")
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


def scrub_database(
    directory: str, config: Optional[ChunkStoreConfig], salvage: bool
) -> int:
    """Merkle-walk the store; exit 0 only if every byte verifies.

    A degraded salvage open (counter skew, discarded residual commits)
    is damage even when every surviving chunk verifies — the exit code
    reflects it so scripted health checks cannot mistake a rolled-back
    or truncated store for a healthy one.
    """
    store, _ = _open_store(directory, config, "salvage" if salvage else "writable")
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
    store.close()
    return 0 if report.clean and not degraded else 1


def _chain_names(backups: BackupStore, archival: FileArchivalStore) -> List[str]:
    """Valid backup streams in chain order (by sequence number)."""
    ordered = []
    for name in archival.list_streams():
        try:
            info = backups.inspect(name)
        except TDBError as exc:
            print(f"skipping invalid backup {name}: {exc}")
            continue
        ordered.append((info.sequence, name))
    return [name for _, name in sorted(ordered)]


def repair_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """Heal the store from its archive's backup chain."""
    untrusted, secret, counter, archival = Database._file_parts(directory)
    backups = BackupStore(archival, secret)
    names = _chain_names(backups, archival)
    if not names:
        print("no usable backups in the archive; cannot repair")
        return 2
    print(f"backup chain: {', '.join(names)}")
    engine = RepairEngine(backups, names)
    result = engine.heal(untrusted, secret, counter, config)
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


def salvage_export(
    directory: str, out_dir: str, config: Optional[ChunkStoreConfig]
) -> int:
    """Dump every surviving chunk of a damaged store to ``out_dir``."""
    store, _ = _open_store(directory, config, "salvage")
    report, payloads = store.export_surviving()
    os.makedirs(out_dir, exist_ok=True)
    manifest_lines = []
    for chunk_id in sorted(payloads):
        data = payloads[chunk_id]
        name = f"chunk-{chunk_id:08d}.bin"
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        manifest_lines.append(f"{chunk_id}\t{name}\t{len(data)}\n")
    with open(os.path.join(out_dir, "MANIFEST.tsv"), "w") as fh:
        fh.writelines(manifest_lines)
    _print_report(report)
    print(f"exported {len(payloads)} chunk(s) to {out_dir}")
    store.close()
    return 0 if report.clean else 1


def serve_database(
    directory: str,
    host: str,
    port: int,
    config: Optional[ChunkStoreConfig] = None,
    max_sessions: int = 64,
    idle_timeout: float = 30.0,
    resume_grace: float = 2.0,
    max_delay: float = 0.005,
    max_pending: int = 256,
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
    once the listener is up — with ``port=0`` that is the only way to
    learn the ephemeral port.

    With ``tenants`` the directory is a multi-tenant hub root instead
    of a single database: per-tenant databases live under
    ``<directory>/tenants/`` and every session authenticates before
    touching data (see :mod:`repro.tenancy`).
    """
    import threading

    from repro.server import BackpressureConfig, TdbServer

    db = None
    hub = None
    backpressure = BackpressureConfig(
        max_sessions=max_sessions,
        idle_timeout=idle_timeout,
        resume_grace=resume_grace,
        max_pending_commits=max_pending,
    )
    if tenants:
        from repro.tenancy import TenancyHub

        hub = TenancyHub(directory, chunk_config=config)
        server = TdbServer(
            None,
            host=host,
            port=port,
            backpressure=backpressure,
            max_delay=max_delay,
            max_results=max_results,
            tenancy=hub,
        )
    else:
        db = Database.open_existing(directory, chunk_config=config)
        server = TdbServer(
            db,
            host=host,
            port=port,
            backpressure=backpressure,
            max_delay=max_delay,
            max_results=max_results,
        )
    server.start()
    bound_host, bound_port = server.address
    label = "tenant hub " if tenants else ""
    print(f"serving {label}{directory} on {bound_host}:{bound_port}")
    if ready_callback is not None:
        ready_callback(bound_host, bound_port)
    if stop_event is None:
        stop_event = threading.Event()
    try:
        stop_event.wait()
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        server.stop()
        if hub is not None:
            hub.close()
        if db is not None:
            db.close()
    return 0


def replicate_database(
    directory: str,
    primary: str,
    once: bool = False,
    serve_host: str = "127.0.0.1",
    serve_port: Optional[int] = None,
    poll: float = 1.0,
    max_backoff: float = 0.0,
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
    import threading

    from repro.replication import ReplicaApplier, seed_replica

    host, _, port_text = primary.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--primary must be host:port, got {primary!r}", file=sys.stderr)
        return 2
    if seed:
        master = seed_replica(directory, seed, chunk_config=config)
        print(
            f"seeded from {len(seed)} backup(s): generation "
            f"{master.generation}, commit seqno {master.commit_seqno}"
        )
    retry_policy = None
    if max_backoff > 0:
        from repro.platform.resilient import RetryPolicy

        retry_policy = RetryPolicy(
            max_attempts=6,
            base_delay=max(poll, 0.01),
            multiplier=2.0,
            max_delay=max_backoff,
            jitter=0.25,
        )
    applier = ReplicaApplier(
        directory,
        host,
        int(port_text),
        chunk_config=config,
        poll_interval=poll,
        retry_policy=retry_policy,
    )
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
        if ready_callback is not None:
            ready_callback(*(bound or (None, None)))
        if stop_event is None:
            stop_event = threading.Event()
        try:
            stop_event.wait()
        except KeyboardInterrupt:
            print("interrupted; shutting down")
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


def stats_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """Print store statistics and the current signed commit head."""
    store, _ = _open_store(directory, config)
    stats = store.stats()
    print(f"database: {directory}")
    print(f"  security        : {'on' if store.secure else 'off'}")
    print(f"  generation      : {store.generation}")
    print(f"  commit seqno    : {stats.commit_seqno}")
    print(f"  counter value   : {stats.counter_value}")
    print(f"  chunks          : {len(store.chunk_ids())}")
    print(f"  live bytes      : {stats.live_bytes}")
    print(f"  on-disk bytes   : {stats.db_file_bytes}")
    print(f"  segments        : {stats.segment_count} ({stats.free_slots} free)")
    print(f"  checkpoints     : {stats.checkpoints_total}")
    log = getattr(store, "transparency", None)
    if log is None or log.tip() is None:
        print("  signed head     : none "
              "(insecure profile, or head.log deleted: a writable open refuses it)")
    else:
        tip = log.tip()
        print(f"  head log length : {len(log)} (scheme {log.scheme})")
        print(f"  head generation : {tip.generation}")
        print(f"  head seqno      : {tip.seqno}")
        print(f"  head root       : {tip.root_digest.hex() or '-'}")
    store.close()
    return 0


def heads_database(directory: str, config: Optional[ChunkStoreConfig]) -> int:
    """List every signed head in the transparency log, oldest first."""
    store, _ = _open_store(directory, config)
    try:
        log = getattr(store, "transparency", None)
        if log is None:
            print("no head log (insecure profile, or head.log deleted: "
                  "a writable open refuses it)")
            return 1
        print(f"head log: {len(log)} signed head(s), scheme {log.scheme}")
        for head in log.heads():
            print(f"  {head.describe()}")
        return 0
    finally:
        store.close()


_TIP_REPORTS = {
    TIP_SIGNED: "tip binding: OK ({head})",
    TIP_LAGS: "tip binding: log lags the master by one checkpoint (crash "
              "window; a writable open will catch it up)",
    TIP_AHEAD: "tip binding: {head} signs the master and newer heads "
               "follow it (dual-master fallback; a writable open drops them)",
}


def audit_database(
    directory: str,
    primary: Optional[str] = None,
    config: Optional[ChunkStoreConfig] = None,
) -> int:
    """Audit the head log locally and, optionally, against a primary.

    The read-only open already verifies every signature and chain link
    in the local log (loading raises on anything that fails); the audit
    then prints how the tip binds to the master record
    (:func:`~repro.proofs.headlog.bind_tip`), and with ``--primary``
    reconciles the served chain with the local tip through a
    :class:`VerifyingClient`, which raises on a fork or a rollback.
    """
    failures = 0
    try:
        store, _ = _open_store(directory, config)
    except TDBError as exc:
        print(f"FAIL open: {type(exc).__name__}: {exc}")
        return 1
    try:
        log = getattr(store, "transparency", None)
        if log is None:
            print("no head log to audit (insecure profile, or head.log "
                  "deleted: a writable open refuses it)")
            return 1
        print(f"head log: {len(log)} signed head(s) verified "
              f"(scheme {log.scheme})")
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
            host, _, port_text = primary.rpartition(":")
            if not host or not port_text.isdigit():
                print(f"--primary must be host:port, got {primary!r}",
                      file=sys.stderr)
                return 2
            from repro.proofs.client import VerifyingClient

            client = VerifyingClient(
                host, int(port_text), store.secret_store, config=config
            )
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
    finally:
        store.close()
    if failures:
        print(f"AUDIT FAILED: {failures} problem(s)")
        return 1
    print("AUDIT OK")
    return 0


def tenant_admin(args) -> int:
    """The ``tenant`` subcommand: offline hub-root administration.

    Operates directly on the hub root (no server round trip), so there
    is no admin gate — possession of the directory is the credential.
    Every mutation still lands in the tenant's ``_audit`` trail with
    ``via: cli``.
    """
    import json

    from repro.tenancy import TenancyHub, TenantQuotas

    hub = TenancyHub(args.root)
    try:
        if args.tenant_command == "create":
            quotas = None
            overrides = {
                "max_sessions": args.max_sessions,
                "max_pending_commits": args.max_pending,
                "max_bytes": args.max_bytes,
                "txn_rate": args.txn_rate,
                "burst": args.burst,
            }
            overrides = {k: v for k, v in overrides.items() if v is not None}
            if overrides:
                from dataclasses import replace as _dc_replace

                quotas = _dc_replace(TenantQuotas(), **overrides)
            result = hub.create_tenant(
                args.name, quotas, admin=args.admin or None
            )
            print(f"tenant {result['tenant']} created")
            if "secret" in result:
                print(f"  admin principal : {result['admin']}")
                print(f"  admin secret    : {result['secret']}")
                print("  (the secret is shown exactly once; store it now)")
            return 0
        if args.tenant_command == "list":
            for name in hub.list_tenants():
                print(name)
            return 0
        if args.tenant_command == "grant":
            result = hub.grant(
                args.name, args.principal, args.scope, args.right
            )
            print(
                f"granted {args.right} on {args.scope!r} to "
                f"{args.principal} in tenant {args.name}"
            )
            if result.get("secret"):
                print(f"  new principal secret: {result['secret']}")
                print("  (shown exactly once; store it now)")
            return 0
        if args.tenant_command == "revoke":
            result = hub.revoke(
                args.name, args.principal, args.scope, args.right
            )
            print(
                f"revoked {result.get('removed', 0)} grant(s) of "
                f"{args.right} on {args.scope!r} from {args.principal} "
                f"in tenant {args.name}"
            )
            return 0
        # meter
        print(json.dumps(hub.meter(args.name), indent=2, sort_keys=True))
        return 0
    finally:
        hub.close()


def _config_from_args(args) -> Optional[ChunkStoreConfig]:
    if args.segment_kb is None and args.fanout is None and args.secure is None:
        return None
    base = ChunkStoreConfig()
    return ChunkStoreConfig(
        segment_size=(args.segment_kb or base.segment_size // 1024) * 1024,
        map_fanout=args.fanout or base.map_fanout,
        security=(
            SecurityProfile.insecure()
            if args.secure is False
            else SecurityProfile()
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "inspect",
        "verify",
        "scrub",
        "repair",
        "salvage-export",
        "serve",
        "replicate",
        "promote",
        "stats",
        "heads",
        "audit",
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("directory")
        if name == "audit":
            cmd.add_argument("--primary", default=None,
                             help="also cross-check the head log against "
                                  "this primary server (host:port)")
        if name == "scrub":
            cmd.add_argument("--salvage", action="store_true", default=False,
                             help="open read-only; works on damaged stores")
        if name == "salvage-export":
            cmd.add_argument("out_dir")
        if name == "serve":
            cmd.add_argument("--host", default="127.0.0.1")
            cmd.add_argument("--port", type=int, default=7807,
                             help="TCP port (0 picks an ephemeral port)")
            cmd.add_argument("--max-sessions", type=int, default=64)
            cmd.add_argument("--idle-timeout", type=float, default=30.0,
                             help="seconds before an idle session is dropped")
            cmd.add_argument("--resume-grace", type=float, default=2.0,
                             help="seconds a dropped session stays resumable "
                                  "(0 disables session parking)")
            cmd.add_argument("--max-delay", type=float, default=0.005,
                             help="group-commit batching window in seconds")
            cmd.add_argument("--max-pending", type=int, default=256,
                             help="pending-commit admission limit")
            cmd.add_argument("--max-results", type=int, default=1000,
                             help="cap on rows returned per query verb")
            cmd.add_argument("--tenants", action="store_true", default=False,
                             help="serve the directory as a multi-tenant "
                                  "hub root: sessions authenticate as "
                                  "(tenant, principal) and data verbs are "
                                  "policy-gated and metered per tenant")
        if name == "replicate":
            cmd.add_argument("--primary", required=True,
                             help="primary server as host:port")
            cmd.add_argument("--once", action="store_true", default=False,
                             help="sync a single shipment and exit")
            cmd.add_argument("--serve-host", default="127.0.0.1")
            cmd.add_argument("--serve-port", type=int, default=None,
                             help="serve read-only clients on this port "
                                  "(0 picks an ephemeral port)")
            cmd.add_argument("--poll", type=float, default=1.0,
                             help="seconds between catch-up polls")
            cmd.add_argument("--max-backoff", type=float, default=0.0,
                             help="cap on the link-failure backoff in "
                                  "seconds (0 uses the default cap)")
            cmd.add_argument("--seed", nargs="+", default=None,
                             metavar="BACKUP",
                             help="seed the image from this backup chain "
                                  "(names in chain order) before syncing")
        cmd.add_argument("--segment-kb", type=int, default=None,
                         help="segment size in KB if non-default")
        cmd.add_argument("--fanout", type=int, default=None,
                         help="map fanout if non-default")
        secure_group = cmd.add_mutually_exclusive_group()
        secure_group.add_argument("--secure", dest="secure",
                                  action="store_true", default=None)
        secure_group.add_argument("--insecure", dest="secure",
                                  action="store_false")

    tenant = sub.add_parser(
        "tenant", help="administer a multi-tenant hub root"
    )
    tsub = tenant.add_subparsers(dest="tenant_command", required=True)
    t_create = tsub.add_parser("create")
    t_create.add_argument("root")
    t_create.add_argument("name")
    t_create.add_argument("--admin", default="admin",
                          help="bootstrap admin principal (empty string "
                               "skips creating one)")
    t_create.add_argument("--max-sessions", type=int, default=None)
    t_create.add_argument("--max-pending", type=int, default=None)
    t_create.add_argument("--max-bytes", type=int, default=None)
    t_create.add_argument("--txn-rate", type=float, default=None,
                          help="transactions per second (0 = unlimited)")
    t_create.add_argument("--burst", type=int, default=None,
                          help="token-bucket burst size")
    t_list = tsub.add_parser("list")
    t_list.add_argument("root")
    for vname in ("grant", "revoke"):
        t_cmd = tsub.add_parser(vname)
        t_cmd.add_argument("root")
        t_cmd.add_argument("name")
        t_cmd.add_argument("principal")
        t_cmd.add_argument("scope")
        t_cmd.add_argument("right", choices=["read", "write", "admin"])
    t_meter = tsub.add_parser("meter")
    t_meter.add_argument("root")
    t_meter.add_argument("name")

    args = parser.parse_args(argv)
    if args.command == "tenant":
        try:
            return tenant_admin(args)
        except TDBError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    config = _config_from_args(args)
    try:
        if args.command == "inspect":
            return inspect_database(args.directory, config)
        if args.command == "scrub":
            return scrub_database(args.directory, config, args.salvage)
        if args.command == "repair":
            return repair_database(args.directory, config)
        if args.command == "salvage-export":
            return salvage_export(args.directory, args.out_dir, config)
        if args.command == "serve":
            return serve_database(
                args.directory,
                args.host,
                args.port,
                config,
                max_sessions=args.max_sessions,
                idle_timeout=args.idle_timeout,
                resume_grace=args.resume_grace,
                max_delay=args.max_delay,
                max_pending=args.max_pending,
                max_results=args.max_results,
                tenants=args.tenants,
            )
        if args.command == "replicate":
            return replicate_database(
                args.directory,
                args.primary,
                once=args.once,
                serve_host=args.serve_host,
                serve_port=args.serve_port,
                poll=args.poll,
                max_backoff=args.max_backoff,
                seed=args.seed,
                config=config,
            )
        if args.command == "promote":
            return promote_database(args.directory, config)
        if args.command == "stats":
            return stats_database(args.directory, config)
        if args.command == "heads":
            return heads_database(args.directory, config)
        if args.command == "audit":
            return audit_database(args.directory, args.primary, config)
        return verify_database(args.directory, config)
    except TDBError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
