"""Compare two results files: ``python -m benchmarks.e2e.compare A.json B.json``.

Prints one row per (workload, end-to-end metric): the base median, the
new median, their ratio with its base, and a verdict —

* ``unresolved``: either side's own run-to-run spread is wider than the
  metric's bound, so the two medians cannot be told apart;
* ``worse`` / ``better``: the new median differs from the base by more
  than the bound, in that direction;
* ``within-bound`` otherwise.

``better`` here is a pointer, not a claim: a gain is claimed from paired
runs as the choosing-metrics guide says.  Runs whose crypto backend
differs are refused — OpenSSL and the pure-Python fallback differ by
two orders of magnitude and would make every row meaningless.  Exits 1
when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional


def verdict(base: Dict[str, Any], new: Dict[str, Any]) -> str:
    """Classify one metric from its two result entries."""
    bound = base["bound"]
    if max(base["spread"], new["spread"]) > bound > 0:
        return "unresolved"
    worsening = new["median"] - base["median"]
    if base["better"] == "higher":
        worsening = -worsening
    allowed = bound * abs(base["median"])
    if worsening > allowed:
        return "worse"
    if worsening < -allowed:
        return "better"
    return "within-bound"


def compare(base: Dict[str, Any], new: Dict[str, Any], out=sys.stdout) -> int:
    for key in ("crypto_backend", "crypto_engine"):
        if base["env"][key] != new["env"][key]:
            raise SystemExit(
                f"refusing to compare: {key} is {base['env'][key]!r} in the base run "
                f"and {new['env'][key]!r} in the new one"
            )
    for key in ("quick", "measured_txns_per_caller_and_round"):
        if base["settings"][key] != new["settings"][key]:
            raise SystemExit(
                f"refusing to compare: setting {key} is {base['settings'][key]!r} in the "
                f"base run and {new['settings'][key]!r} in the new one"
            )
    print(f"base {base['env']['git_sha'][:12]}  new {new['env']['git_sha'][:12]}", file=out)
    print(f"{'workload':<20}{'metric':<28}{'unit':>6}{'base':>12}{'new':>12}"
          f"{'new/base':>10}  verdict", file=out)
    worse = 0
    for name, base_section in base["workloads"].items():
        new_section = new["workloads"].get(name)
        if new_section is None:
            print(f"{name:<20}(not in the new run)", file=out)
            continue
        for metric, base_entry in base_section["end_to_end"].items():
            new_entry = new_section["end_to_end"][metric]
            ratio: Optional[float] = (
                new_entry["median"] / base_entry["median"] if base_entry["median"] else None
            )
            outcome = verdict(base_entry, new_entry)
            worse += outcome == "worse"
            print(
                f"{name:<20}{metric:<28}{base_entry['unit']:>6}"
                f"{base_entry['median']:>12.4g}{new_entry['median']:>12.4g}"
                f"{'n/a' if ratio is None else format(ratio, '.3f'):>10}  {outcome}",
                file=out,
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results JSON of the base commit")
    parser.add_argument("new", help="results JSON of the changed commit")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
