"""Read-scaling driver: a write-busy primary plus N read replicas.

The paper-level claim under test: a TDB primary saturated with durable
commits is a poor read server — every group-commit batch holds the store
lock across a real ``fsync`` — while read replicas, which never sync,
serve verified reads at full speed.  The driver therefore measures
*system* read throughput for the same client population pointed at

* the primary alone (0 replicas), versus
* the primary plus 1..N verifying replicas (readers spread round-robin),

with an identical background writer hammering the primary in every
configuration, and it samples each replica's commit-seqno lag while the
writer runs (the staleness bound that makes the extra throughput
honest).

Every server and every load generator is a separate **process** (spawned
via ``python -m repro.tools`` / ``python -m repro.bench.replload``), not
a thread: a single Python process time-slices its threads under the GIL
and would serialize exactly the parallelism replication exists to buy.

Runnable:

* ``python -m repro.bench.replload`` — full scaling run, JSON to stdout.
* ``python -m repro.bench.replload --reader H:P --seconds S`` — one
  reader process (used by the orchestrator; prints its own counts).
* ``python -m repro.bench.replload --writer H:P --seconds S`` — the
  background writer process.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["ReplicationScalingResult", "run_replication_scaling"]

_POPULATE = 64  # named objects the readers cycle over
_VALUE_PAD = 120


# ---------------------------------------------------------------------------
# Subprocess plumbing
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


def _spawn(args: Sequence[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m"] + list(args),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_child_env(),
    )


def _wait_for_server(port: int, deadline_s: float = 30.0) -> None:
    from repro.server import TdbClient

    deadline = time.monotonic() + deadline_s
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with TdbClient("127.0.0.1", port, timeout=5) as client:
                client.stats()
                return
        except Exception as exc:  # noqa: BLE001 — retried until deadline
            last = exc
            time.sleep(0.1)
    raise RuntimeError(f"server on port {port} never came up: {last}")


def _stop(proc: Optional[subprocess.Popen]) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# Reader / writer child processes
# ---------------------------------------------------------------------------


def _run_reader(endpoint: str, seconds: float) -> None:
    """Loop ``obj.get`` over the populated names; print counts as JSON."""
    from repro.server import TdbClient

    host, _, port = endpoint.rpartition(":")
    reads = 0
    started = time.monotonic()
    with TdbClient(host, int(port), timeout=30) as client:
        with client.transaction() as txn:
            oids = [
                txn.lookup(f"bench-{i}") for i in range(_POPULATE)
            ]
        deadline = started + seconds
        index = 0
        while time.monotonic() < deadline:
            with client.transaction() as txn:
                for _ in range(16):
                    txn.get(oids[index % len(oids)])
                    index += 1
                    reads += 1
    print(json.dumps({"reads": reads, "elapsed": time.monotonic() - started}))


def _run_writer(endpoint: str, seconds: float) -> None:
    """Durably update objects on the primary until the clock runs out."""
    from repro.server import TdbClient

    host, _, port = endpoint.rpartition(":")
    commits = 0
    started = time.monotonic()
    with TdbClient(host, int(port), timeout=30) as client:
        with client.transaction() as txn:
            oids = [txn.lookup(f"bench-{i}") for i in range(8)]
        deadline = started + seconds
        while time.monotonic() < deadline:
            with client.transaction() as txn:
                oid = oids[commits % len(oids)]
                txn.put({"n": commits, "pad": "w" * _VALUE_PAD}, oid=oid)
            commits += 1
    print(json.dumps({"commits": commits, "elapsed": time.monotonic() - started}))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class ReplicationScalingResult:
    """One configuration's numbers (``replicas`` read servers + primary)."""

    replicas: int
    readers: int
    reads: int
    elapsed_s: float
    reads_per_s: float
    writer_commits: int
    lag_seqno_samples: List[int] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        samples = self.lag_seqno_samples
        return {
            "replicas": self.replicas,
            "readers": self.readers,
            "reads": self.reads,
            "elapsed_s": round(self.elapsed_s, 3),
            "reads_per_s": round(self.reads_per_s, 1),
            "writer_commits": self.writer_commits,
            "lag_seqno_mean": (
                round(sum(samples) / len(samples), 2) if samples else 0.0
            ),
            "lag_seqno_max": max(samples, default=0),
        }


def _replica_lag(port: int) -> int:
    from repro.server import TdbClient

    with TdbClient("127.0.0.1", port, timeout=10) as client:
        applier = client.stats()["replication"]["applier"]
        return max(0, int(applier["lag_seqno"]))


def _wait_caught_up(primary_port: int, replica_ports: List[int],
                    deadline_s: float = 60.0) -> float:
    """Seconds until every replica reports zero lag against the primary."""
    from repro.server import TdbClient

    started = time.monotonic()
    deadline = started + deadline_s
    with TdbClient("127.0.0.1", primary_port, timeout=10) as client:
        target = client.stats()["replication"]["shipper"]["commit_seqno"]
    while time.monotonic() < deadline:
        laggards = []
        for port in replica_ports:
            with TdbClient("127.0.0.1", port, timeout=10) as client:
                applier = client.stats()["replication"]["applier"]
                if applier["applied_seqno"] < target:
                    laggards.append(port)
        if not laggards:
            return time.monotonic() - started
        time.sleep(0.1)
    raise RuntimeError(f"replicas {laggards} never caught up to {target}")


def run_replication_scaling(
    replica_counts: Sequence[int] = (0, 1, 2),
    readers: int = 6,
    seconds: float = 4.0,
    poll: float = 0.5,
    workdir: Optional[str] = None,
) -> Dict[str, object]:
    """Measure read throughput and lag for each replica count."""
    from repro.config import ChunkStoreConfig
    from repro.db import Database

    own_tmp = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="tdb-repl-bench-")
    pdir = os.path.join(workdir, "primary")
    procs: List[subprocess.Popen] = []
    try:
        # Populate the primary with durable commits enabled: the writer
        # load must pay real syncs or the primary has nothing to escape.
        db = Database.create(pdir, ChunkStoreConfig(fsync=True))
        from repro.server.server import RemoteRecord

        db.register_class(RemoteRecord)
        with db.transaction() as txn:
            for i in range(_POPULATE):
                oid = txn.insert(
                    RemoteRecord({"n": i, "pad": "x" * _VALUE_PAD})
                )
                txn.bind_name(f"bench-{i}", oid)
        primary_secret = db.chunk_store.secret_store.path
        db.close()

        primary_port = _free_port()
        procs.append(
            _spawn(["repro.tools", "serve", pdir,
                    "--port", str(primary_port)])
        )
        _wait_for_server(primary_port)

        max_replicas = max(replica_counts)
        replica_ports: List[int] = []
        results: Dict[str, object] = {}
        for count in sorted(replica_counts):
            # Grow the replica fleet to the requested size.
            while len(replica_ports) < count:
                index = len(replica_ports)
                rdir = os.path.join(workdir, f"replica-{index}")
                # A replica shares the primary's device secret.
                _, replica_secret, _, _ = Database._file_parts(rdir, create=True)
                shutil.copy(primary_secret, replica_secret.path)
                rport = _free_port()
                procs.append(
                    _spawn(["repro.tools", "replicate", rdir,
                            "--primary", f"127.0.0.1:{primary_port}",
                            "--serve-port", str(rport),
                            "--poll", str(poll)])
                )
                _wait_for_server(rport)
                replica_ports.append(rport)
            if replica_ports:
                _wait_caught_up(primary_port, replica_ports)

            endpoints = [f"127.0.0.1:{primary_port}"] + [
                f"127.0.0.1:{port}" for port in replica_ports
            ]
            writer = _spawn(["repro.bench.replload",
                             "--writer", f"127.0.0.1:{primary_port}",
                             "--seconds", str(seconds + 1.0)])
            reader_procs = [
                _spawn(["repro.bench.replload",
                        "--reader", endpoints[i % len(endpoints)],
                        "--seconds", str(seconds)])
                for i in range(readers)
            ]
            lag_samples: List[int] = []
            sample_deadline = time.monotonic() + seconds
            while time.monotonic() < sample_deadline:
                time.sleep(max(seconds / 4, 0.5))
                for port in replica_ports:
                    try:
                        lag_samples.append(_replica_lag(port))
                    except Exception:  # noqa: BLE001 — sampling is best-effort
                        pass
            total_reads, elapsed = 0, 0.0
            for proc in reader_procs:
                out, _ = proc.communicate(timeout=seconds * 10 + 60)
                line = out.strip().splitlines()[-1]
                payload = json.loads(line)
                total_reads += payload["reads"]
                elapsed = max(elapsed, payload["elapsed"])
            out, _ = writer.communicate(timeout=seconds * 10 + 60)
            writer_commits = json.loads(out.strip().splitlines()[-1])["commits"]

            result = ReplicationScalingResult(
                replicas=count,
                readers=readers,
                reads=total_reads,
                elapsed_s=elapsed,
                reads_per_s=total_reads / elapsed if elapsed else 0.0,
                writer_commits=writer_commits,
                lag_seqno_samples=lag_samples,
            )
            results[str(count)] = result.as_dict()

        # Bounded staleness: with the writer stopped, every replica must
        # drain its lag to zero within the catch-up deadline.
        catch_up_s = (
            _wait_caught_up(primary_port, replica_ports)
            if replica_ports
            else 0.0
        )
        baseline = results[str(min(replica_counts))]["reads_per_s"]
        top = results[str(max_replicas)]["reads_per_s"]
        return {
            "configurations": results,
            "speedup_max_vs_single": round(top / baseline, 3) if baseline else 0.0,
            "catch_up_s": round(catch_up_s, 3),
            "readers": readers,
            "seconds": seconds,
            "cpu_count": os.cpu_count(),
        }
    finally:
        for proc in procs:
            _stop(proc)
        if own_tmp:
            shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reader", metavar="HOST:PORT", default=None)
    parser.add_argument("--writer", metavar="HOST:PORT", default=None)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--readers", type=int, default=6)
    parser.add_argument("--replicas", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--poll", type=float, default=0.5)
    args = parser.parse_args(argv)
    if args.reader:
        _run_reader(args.reader, args.seconds)
        return 0
    if args.writer:
        _run_writer(args.writer, args.seconds)
        return 0
    report = run_replication_scaling(
        replica_counts=args.replicas,
        readers=args.readers,
        seconds=args.seconds,
        poll=args.poll,
    )
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
