"""What the benchmark reads off a process hosting a ``Database``.

The same functions run in the generator (embedded workloads) and in the
server child (served workloads), so a counter means the same thing on
both sides.  Everything comes from public stats objects; ``/proc`` gives
CPU time and the resident-set high-water mark of any pid.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict

__all__ = ["snapshot_db", "cpu_seconds", "peak_rss_mb"]

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def snapshot_db(db) -> Dict[str, Any]:
    """Cumulative public counters of one database, as JSON-able dicts."""
    coordinator = db.group_commit
    return {
        # includes the chunk store's PerfStats under "perf"
        "io": db.io_stats().as_dict(),
        "chunk_store": dataclasses.asdict(db.stats()),
        "cache": dataclasses.asdict(db.object_store.cache.stats),
        "group_commit": (
            coordinator.stats_snapshot().as_dict() if coordinator is not None else None
        ),
    }


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid``, all threads, so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may hold spaces; fields are counted after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB: the most memory it has held resident."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
