"""Exhaustive offline-tamper sweep over every on-disk region type.

The adversary of the paper edits the untrusted store while the database
is down.  :class:`TamperMatrix` partitions a recorded media image into
typed byte regions — master records, segment headers, commit-record
framing, chunk payloads, location-map nodes, checkpoint/link records —
and corrupts each one (bit-flips across the region, whole-region
zeroing).  Every mutation must either raise ``TamperDetectedError`` (or
its replay subclass) or recover to a known committed state; silent
acceptance of corrupted data fails the sweep.

Two baselines are swept: a *crash image* (live residual log, so the
record hash chain is in the verification path) and a *clean-close image*
(master covers everything; corruption of now-dead log framing must be
invisible, while payload and map corruption is still caught lazily
through the Merkle-backed map on read).
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import repro.chunkstore.store as store_mod
from repro.testing import (
    ChunkStoreCrashScenario,
    REQUIRED_REGION_KINDS,
    TamperMatrix,
)

OFFSETS_PER_REGION = 4


pytestmark = pytest.mark.usefixtures("store_aes")


@lru_cache(maxsize=None)
def baseline(clean_close: bool):
    """(image, expected states, tag size) for one secure workload run."""
    scenario = ChunkStoreCrashScenario(secure=True)
    image, states = scenario.run_to_image(clean_close=clean_close)
    return image, tuple(states), scenario.tag_size


@lru_cache(maxsize=None)
def swept_report(clean_close: bool):
    image, states, tag_size = baseline(clean_close)
    matrix = TamperMatrix(image, tag_size, offsets_per_region=OFFSETS_PER_REGION)
    return matrix.sweep(_recoverer(clean_close), list(states))


def _recoverer(clean_close: bool):
    """A recovery callback whose counter matches the baseline image.

    The workload is deterministic, so re-running it leaves this
    scenario's own one-way counter at exactly the value the baseline
    image was written against.
    """
    scenario = ChunkStoreCrashScenario(secure=True)
    scenario.run_to_image(clean_close=clean_close)
    return scenario.recover_image


@pytest.mark.parametrize("clean_close", [False, True],
                         ids=["crash-image", "clean-close-image"])
def test_matrix_covers_all_required_region_kinds(clean_close):
    report = swept_report(clean_close)
    assert REQUIRED_REGION_KINDS <= report.kinds_covered(), (
        f"sweep covered only {sorted(report.kinds_covered())}"
    )


@pytest.mark.parametrize("clean_close", [False, True],
                         ids=["crash-image", "clean-close-image"])
@pytest.mark.parametrize("kind", sorted(REQUIRED_REGION_KINDS | {
    "commit-record", "checkpoint", "link",
}))
def test_no_silent_corruption_per_region_kind(clean_close, kind):
    """Every mutation of this region kind: detected, structural, or a
    recovery onto a known committed state — never silent acceptance."""
    report = swept_report(clean_close)
    mine = [o for o in report.outcomes if o.mutation.region.kind == kind]
    bad = [o for o in mine if o.outcome == "failed"]
    assert not bad, "\n".join(
        f"{o.mutation.describe()}: {o.detail}" for o in bad[:10]
    )


def test_crash_image_detects_across_the_verification_path():
    """With a live residual log the hash chain must actually fire:
    payload, commit framing, link, and master corruption all produce
    detections somewhere in the sweep (not only clean recoveries)."""
    report = swept_report(False)
    tally = report.tally()
    for kind in ("chunk-payload", "commit-record", "link", "master"):
        assert tally.get(kind, {}).get("detected", 0) > 0, (
            f"no mutation of {kind} was ever detected: {tally}"
        )


def test_clean_close_image_still_guards_payloads_and_map():
    """After a clean shutdown the log framing is dead data, but chunk
    payloads and live map nodes stay hash-guarded through the map."""
    report = swept_report(True)
    tally = report.tally()
    assert tally.get("chunk-payload", {}).get("detected", 0) > 0
    assert tally.get("map-node", {}).get("detected", 0) > 0


def test_whole_region_zeroing_never_passes_silently():
    """Sector-zeroing any live region is caught; dead regions are clean."""
    report = swept_report(False)
    zeroed = [o for o in report.outcomes if o.mutation.action == "zero"]
    assert zeroed
    assert all(o.outcome != "failed" for o in zeroed), [
        o.mutation.describe() for o in zeroed if o.outcome == "failed"
    ]


def test_mutation_guard_matrix_catches_disabled_payload_check(monkeypatch):
    """Meta-test: remove the payload hash check and the matrix must
    report silent corruption — proving the sweep has teeth."""
    image, states, tag_size = baseline(False)

    def unchecked_read_payload(self, locator):
        data = self.segments.read(locator.segment, locator.offset, locator.length)
        return self.cipher.decrypt(data)

    monkeypatch.setattr(
        store_mod.ChunkStore, "read_payload", unchecked_read_payload
    )
    matrix = TamperMatrix(image, tag_size, offsets_per_region=OFFSETS_PER_REGION)
    payload_regions = [r for r in matrix.regions if r.kind == "chunk-payload"]
    matrix.regions = payload_regions
    report = matrix.sweep(_recoverer(False), list(states))
    assert report.failures, (
        "tamper matrix accepted every payload flip with hash validation "
        "disabled — the harness failed its mutation test"
    )
