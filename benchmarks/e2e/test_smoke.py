"""Smoke test of the benchmark itself (not part of the tier-1 ``tests/`` run).

``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py`` runs
every workload at ``--quick`` size in the driver's two forms and checks
that each metric ``BENCHMARK.json`` names is present, finite and carries
its unit — and that the manifest, the metric tables and the record
sizes still agree with each other.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _drive(workload: str, trace: int) -> dict:
    command = [sys.executable, *MANIFEST["command"][1:], "--quick",
               "--workload", workload, "--seed", "7", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(workload, trace, section):
    result = _drive(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST[section]}
    for spec in MANIFEST[section]:
        emitted = result["metrics"][spec["name"]]
        assert emitted["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(emitted["value"]), spec["name"]
        if section == "end_to_end":
            assert emitted["value"] > 0, spec["name"]
    if trace:
        assert result["metrics"]["server.wire_ms_per_txn"]["value"] >= 0
        assert 0.9 <= result["metrics"]["trace.layer_sum_frac"]["value"] <= 1.1


def test_manifest_matches_the_metric_tables():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e import metrics, run, workloads

    def rows(specs, bounded):
        keys = ("name", "unit", "better") + (("bound",) if bounded else ())
        return [{key: getattr(spec, key) for key in keys} for spec in specs]

    assert MANIFEST["end_to_end"] == rows(metrics.MANIFEST_END_TO_END, bounded=True)
    assert MANIFEST["per_layer"] == rows(metrics.PER_LAYER, bounded=False)
    assert MANIFEST["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == run.WHY


def test_records_are_100_bytes():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e import workloads

    for row in (workloads.Account(1, 2), workloads.History(1, 2, 3, 4, 5), workloads.Row(1)):
        assert len(row.pickle()) == workloads.RECORD_BYTES
        assert type(row).unpickle(row.pickle()).__dict__ == row.__dict__
