"""Deterministic fault-injection and tamper-sweep harness.

Testing machinery for the paper's threat model, reusable from the test
suite, examples, and benchmarks:

* :mod:`repro.testing.faults` — :class:`FaultyUntrustedStore` /
  :class:`FaultyArchivalStore` wrap the platform stores and inject
  scheduled crashes, torn writes, bit-flips, zeroing, image replay, and
  transient (retryable) failures (:class:`FaultSchedule`),
* :mod:`repro.testing.sweeper` — :class:`CrashSweeper` enumerates every
  write/sync boundary of a workload and checks recovery against a
  :class:`CommitLedger`; :meth:`CrashSweeper.sweep_replays` sweeps
  rollback attacks against the one-way counter,
* :mod:`repro.testing.tamper` — :class:`TamperMatrix` corrupts every
  typed byte region of a media image (:func:`map_image_regions`) and
  demands detection or clean recovery, never silent acceptance,
* :mod:`repro.testing.netfaults` — :class:`ChaosProxy`, a deterministic
  in-process TCP proxy that drops, delays, truncates, trickles,
  duplicates, and black-holes protocol frames on an exact
  ``(connection, frame)`` schedule (:class:`NetFaultSchedule`) — the
  network-layer mirror of the storage fault harness,
* :mod:`repro.testing.scenarios` — ready-made workloads
  (:class:`ChunkStoreCrashScenario`),
* :mod:`repro.testing.shipping` — in-flight replication-channel attacks
  (:class:`TamperingReplicationClient`, record/replay clients) and the
  :class:`ShipmentTamperMatrix` proving a replica rejects every one.
"""

from repro.testing.faults import (
    Fault,
    FaultSchedule,
    FaultyArchivalStore,
    FaultyUntrustedStore,
    InjectedCrash,
)
from repro.testing.netfaults import (
    ChaosProxy,
    NET_FAULT_ACTIONS,
    NetFault,
    NetFaultSchedule,
)
from repro.testing.scenarios import ChunkStoreCrashScenario
from repro.testing.shipping import (
    RecordingReplicationClient,
    ReplayShipmentClient,
    SHIPMENT_TAMPER_KINDS,
    ShipmentCaseResult,
    ShipmentRecording,
    ShipmentTamper,
    ShipmentTamperMatrix,
    ShipmentTamperReport,
    TamperingReplicationClient,
)
from repro.testing.sweeper import (
    CommitLedger,
    CrashPointResult,
    CrashScenario,
    CrashSweeper,
    ReplayPointResult,
    ReplayReport,
    SweepReport,
)
from repro.testing.tamper import (
    Mutation,
    Region,
    REQUIRED_REGION_KINDS,
    TamperMatrix,
    TamperReport,
    map_image_regions,
)

__all__ = [
    "Fault",
    "FaultSchedule",
    "FaultyArchivalStore",
    "FaultyUntrustedStore",
    "InjectedCrash",
    "ChaosProxy",
    "NET_FAULT_ACTIONS",
    "NetFault",
    "NetFaultSchedule",
    "ChunkStoreCrashScenario",
    "RecordingReplicationClient",
    "ReplayShipmentClient",
    "SHIPMENT_TAMPER_KINDS",
    "ShipmentCaseResult",
    "ShipmentRecording",
    "ShipmentTamper",
    "ShipmentTamperMatrix",
    "ShipmentTamperReport",
    "TamperingReplicationClient",
    "CommitLedger",
    "CrashPointResult",
    "CrashScenario",
    "CrashSweeper",
    "ReplayPointResult",
    "ReplayReport",
    "SweepReport",
    "Mutation",
    "Region",
    "REQUIRED_REGION_KINDS",
    "TamperMatrix",
    "TamperReport",
    "map_image_regions",
]
