"""The benchmark's one command.

``python -m benchmarks.e2e.run`` (or ``python3 benchmarks/e2e/run.py``)
runs every workload ``--repeat`` times untraced and once traced, prints
each end-to-end metric by name with its unit, median, quartiles and
spread, then the per-layer metrics and the layer budget, and writes
``benchmarks/e2e/results/<git sha>.json``.  It exits non-zero when an
output was wrong, a transaction failed, or the same code's spread on an
end-to-end metric is wider than the metric's bound.

With ``--trace 0|1`` it is the driver's form instead: one run of one
workload whose last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics for
``--trace 1``.

One run is several *rounds*, each a fresh set-up (create, load, reopen
or child start, warm-up) and a measured phase: three rounds when
untraced, so ``setup_s`` is a median of three; one untraced and one
traced round when traced.  End-to-end numbers never come from a traced
round.  A measured phase is a fixed number of transactions per workload
(``workloads.FULL.measured``), the same in every round of every form:
the same work, on a database of the same age, on any machine.  The three
measured phases of a run take about ``RUN_SECONDS`` on the box the
counts were sized on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

try:
    import repro
except ImportError as exc:
    raise SystemExit(
        f"benchmarks.e2e: cannot import the program under test from {_ROOT / 'src'}: {exc}"
    )
if _ROOT / "src" not in Path(repro.__file__).resolve().parents:
    raise SystemExit(
        f"benchmarks.e2e: 'repro' resolves to {repro.__file__}, not to this checkout's src/; "
        "refusing to measure another program"
    )

from repro import SecurityProfile  # noqa: E402
from repro.crypto import HAVE_NATIVE_BACKEND  # noqa: E402

from benchmarks.e2e import metrics as M  # noqa: E402
from benchmarks.e2e.hostinfo import peak_rss_mb  # noqa: E402
from benchmarks.e2e.trace import Tracer, summarize  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    FULL,
    QUICK,
    ROOT,
    WORKLOADS,
    Sizes,
    closed_loop,
    host_cpu_seconds,
)

#: ``run_seconds`` in BENCHMARK.json (the smoke test checks): about what
#: the three measured phases of a run take here (8-16 s by workload).
#: The work is a fixed count, so ``--seconds`` takes no other value.
RUN_SECONDS = 15
DEFAULT_SEED = 2002
UNTRACED_ROUNDS = 3

WORK_ROOT = ROOT / ".bench_work"
RESULTS_DIR = Path(__file__).resolve().parent / "results"

WHY = {
    "tpcb_embedded": "paper's Figure 10 transaction in process: commit path, checkpoint and "
                     "cleaner do the work; no server, reads hit the cache",
    "tpcb_served": "same transaction as 9 round trips over 2 connections: framing, sessions, "
                   "locks and group commit dominate; chunk-store work is amortised",
    "read_cold_embedded": "read-only lookups on data 3x the cache: chunk read, map walk, hash, "
                          "decrypt and unpickle do the work; the commit path is bypassed",
    "read_served": "read-only lookups over the wire on cached rows: framing and sessions are "
                   "the cost; group commit, syncs and the read path are bypassed",
}


# ----------------------------------------------------------------------
# One round, one run
# ----------------------------------------------------------------------

def run_round(name: str, sizes: Sizes, seed: int, round_index: int, traced: bool) -> Dict[str, Any]:
    """Set one workload up from scratch, measure it once, check it."""
    txns = sizes.measured[name]
    workdir = WORK_ROOT / f"{os.getpid()}-{name}-{round_index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer: Optional[Tracer] = None
    if traced:
        # Before the database exists: the object store binds its commit
        # sink when it is built.  Wrappers pass through until enabled.
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name](str(workdir), sizes, f"{seed}:{round_index}", traced)
    try:
        started = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - started

        before = workload.snapshot()
        if tracer is not None:
            workload.set_server_tracing(True)
            tracer.enabled = True
        cpu_before = host_cpu_seconds(workload)
        latencies, attempted, failed, wall_s = closed_loop(workload.callers, txns, tracer)
        cpu_s = host_cpu_seconds(workload) - cpu_before
        if tracer is not None:
            tracer.enabled = False
            workload.set_server_tracing(False)
        after = workload.snapshot()

        result: Dict[str, Any] = {
            "traced": traced,
            "setup_s": setup_s,
            "wall_s": wall_s,
            "committed": len(latencies),
            "attempted": attempted,
            "failed": failed,
            "latencies_ms": latencies,
            "cpu_s": cpu_s,
            "rss_mb": peak_rss_mb(workload.host_pid),
            "user_bytes": workload.user_bytes(),
            "before": before,
            "after": after,
        }
        if not latencies:
            raise RuntimeError(f"{name}: no transaction committed in the measured phase")
        if tracer is not None:
            RESULTS_DIR.mkdir(exist_ok=True)
            summaries = {"generator": summarize(tracer.spans)}
            summaries["generator"]["missing"] = tracer.missing
            tracer.dump(str(RESULTS_DIR / f"spans-{name}-generator.jsonl"))
            server = workload.server_spans(str(RESULTS_DIR / f"spans-{name}-server.jsonl"))
            if server is not None:
                summaries["server"] = server
            result["span_summaries"] = summaries
        result["errors"] = workload.verify()
        return result
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def one_run(name: str, sizes: Sizes, seed: int, rounds_per_run: int, trace: int) -> Dict[str, Any]:
    """One run of one workload: its tally and every metric of its kind.

    Untraced: ``rounds_per_run`` rounds and the end-to-end metrics.
    Traced: one untraced round (the counts, and the base of the
    overhead), one traced round with the same inputs, and the per-layer
    metrics with the layer budget.
    """
    if trace:
        rounds = [
            run_round(name, sizes, seed, 0, traced=False),
            run_round(name, sizes, seed, 0, traced=True),
        ]
        run: Dict[str, Any] = {
            "values": M.per_layer_metrics(rounds[:1], rounds[1]),
            "layer_budget_ms_per_txn": M.layer_budget(rounds[1]),
            "untraceable": sorted({
                missing
                for summary in rounds[1]["span_summaries"].values()
                for missing in summary.get("missing", [])
            }),
        }
    else:
        rounds = [
            run_round(name, sizes, seed, index, traced=False)
            for index in range(rounds_per_run)
        ]
        run = {"values": M.end_to_end_metrics(rounds)}
    run["errors"] = [error for r in rounds for error in r["errors"]]
    run["failed"] = sum(r["failed"] for r in rounds) + len(run["errors"])
    run["attempted"] = sum(r["attempted"] for r in rounds)
    run["correct"] = run["failed"] == 0
    return run


# ----------------------------------------------------------------------
# The driver's form
# ----------------------------------------------------------------------

def driver_run(run: Dict[str, Any], name: str, trace: int, details: Optional[str]) -> int:
    """Print one run as the driver reads it; ``details`` also gets all
    of it (the full report reads that file)."""
    for error in run["errors"]:
        print(f"{name}: {error}", file=sys.stderr)
    if details:
        with open(details, "w", encoding="utf-8") as out:
            json.dump(run, out)
    specs = M.PER_LAYER if trace else M.MANIFEST_END_TO_END
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            spec.name: {"value": run["values"][spec.name], "unit": spec.unit}
            for spec in specs
        },
    }))
    return 0 if run["correct"] else 1


# ----------------------------------------------------------------------
# The full report
# ----------------------------------------------------------------------

def environment(seed: int) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "crypto_engine": SecurityProfile().resolved_kernel,
        "crypto_backend": "openssl" if HAVE_NATIVE_BACKEND else "fallback",
        "seed": seed,
        "conditions": (
            "file-backed Database.create in a fresh directory, ChunkStoreConfig(fsync=True), "
            "shipping defaults otherwise (TDB-S, engine auto), TdbServer defaults in one "
            "child process, closed loop, at most 2 callers"
        ),
        "note": (
            "latencies are this sandbox's (OS cache, cheap fsync), not a device's; a "
            "process kill leaves the OS cache intact"
        ),
    }


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.4f}"


def _spawn_run(args, name: str, trace: int) -> Dict[str, Any]:
    """One run in a process of its own, exactly as the driver starts it,
    so that memory high-water marks and heap state never carry over
    from one run into the next."""
    RESULTS_DIR.mkdir(exist_ok=True)
    details = RESULTS_DIR / f"run-{os.getpid()}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--trace", str(trace), "--details", str(details),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
    try:
        with open(details, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise RuntimeError(
            f"{name}: run exited with code {done.returncode} without a result\n{done.stderr}"
        ) from None
    finally:
        details.unlink(missing_ok=True)


def report_workload(name: str, args, sizes: Sizes) -> Dict[str, Any]:
    """Run one workload ``--repeat`` times untraced and once traced;
    print and return its section of the results file."""
    print(f"\n== {name} ==\n   {WHY[name]}", flush=True)
    runs = [_spawn_run(args, name, trace=0) for _ in range(args.repeat)]
    traced = _spawn_run(args, name, trace=1)
    budget_ms = traced["layer_budget_ms_per_txn"]

    section: Dict[str, Any] = {
        "why": WHY[name],
        "rows": {k: v for k, v in vars(sizes).items() if k not in ("warmup", "measured")},
        "warmup_txns_per_caller_and_round": sizes.warmup[name],
        "measured_txns_per_caller_and_round": sizes.measured[name],
        "callers": WORKLOADS[name].callers_count,
        "committed_per_run": [run["values"]["latency_samples"] for run in runs],
        "attempted": sum(run["attempted"] for run in runs + [traced]),
        "failed": sum(run["failed"] for run in runs + [traced]),
        "errors": [error for run in runs + [traced] for error in run["errors"]],
        "end_to_end": {},
        "per_layer": {},
        "layer_budget_ms_per_txn": budget_ms,
        "untraceable": traced["untraceable"],
    }
    print(f"   {'end-to-end metric':<28}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>8}{'bound':>7}  verdict")
    ok = not section["failed"]
    for spec in M.END_TO_END:
        values = [run["values"][spec.name] for run in runs]
        stats = M.spread(values)
        bound = M.bound_for(spec, name)
        steady = stats["spread"] <= bound
        ok = ok and steady
        section["end_to_end"][spec.name] = {
            "unit": spec.unit, "better": spec.better, "bound": bound, "values": values, **stats,
        }
        note = f" (n={section['committed_per_run'][0]})" if spec.name == "txn_ms_p99" else ""
        print(f"   {spec.name:<28}{spec.unit:>6}{_fmt(stats['median']):>12}{_fmt(stats['q1']):>12}"
              f"{_fmt(stats['q3']):>12}{stats['spread']:>8.3f}{bound:>7.2f}  "
              f"{'steady' if steady else 'UNRESOLVED: spread wider than bound'}{note}")
    print(f"\n   {'per-layer metric':<44}{'unit':>6}{'value':>14}")
    for spec in M.PER_LAYER:
        value = traced["values"][spec.name]
        section["per_layer"][spec.name] = {
            "unit": spec.unit, "better": spec.better, "value": value,
        }
        print(f"   {spec.name:<44}{spec.unit:>6}{_fmt(value):>14}")
    total = sum(budget_ms.values())
    print(f"\n   layer budget of one traced transaction ({_fmt(total)} ms, self time):")
    for layer, value in sorted(budget_ms.items(), key=lambda item: -item[1]):
        print(f"   {layer:<20}{_fmt(value):>10} ms{value / total:>8.1%}")
    for missing in section["untraceable"]:
        print(f"   note: span target {missing} not found; its time is in its caller's self time")
    for error in section["errors"]:
        print(f"   WRONG: {error}")
    section["ok"] = ok
    return section


def full_report(names: List[str], args, sizes: Sizes, rounds_per_run: int) -> int:
    env = environment(args.seed)
    print("TDB end-to-end benchmark")
    for key, value in env.items():
        print(f"  {key}: {value}")
    results = {
        "env": env,
        "settings": {
            "repeat": args.repeat, "rounds_per_run": rounds_per_run, "quick": args.quick,
            "measured_txns_per_caller_and_round": sizes.measured,
        },
        "workloads": {name: report_workload(name, args, sizes) for name in names},
    }
    out_path = RESULTS_DIR / f"{env['git_sha']}{'-quick' if args.quick else ''}.json"
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(results, out, indent=1)
    print(f"\nwrote {out_path.relative_to(ROOT)}")
    failed = [name for name, section in results["workloads"].items() if not section["ok"]]
    if failed:
        print("NOT OK: " + ", ".join(failed))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"drives every key stream (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"driver form: must be {RUN_SECONDS}, which the fixed transaction "
                             "counts were sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: one run, one JSON line (needs --workload)")
    parser.add_argument("--details", metavar="PATH",
                        help="driver form: also write the run, with every metric, to PATH")
    parser.add_argument("--repeat", type=int, default=3,
                        help="untraced runs per workload in the full report (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the rows and ~300 transactions, one round and one "
                             "repeat; for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}: a run measures a fixed number of "
                     "transactions, not a time")
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")

    sizes, rounds_per_run = (QUICK, 1) if args.quick else (FULL, UNTRACED_ROUNDS)
    if args.quick:
        args.repeat = 1
    if args.trace is None:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return full_report(names, args, sizes, rounds_per_run)

    name = args.workload
    try:
        run = one_run(name, sizes, args.seed, rounds_per_run, args.trace)
    finally:
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return driver_run(run, name, args.trace, args.details)


if __name__ == "__main__":
    sys.exit(main())
