"""Repair: heal a damaged chunk store from its archival backup chain.

The paper's only remedy for tampering is a full restore (section 6);
this package narrows that hammer.  Given a scrub's
:class:`~repro.chunkstore.scrub.DamageReport`, the
:class:`~repro.repair.engine.RepairEngine` restores only the
damaged chunks from the newest backup containing them, falling back to
a full restore when the Merkle root itself (or the store's ability to
open at all) is gone.
"""

from repro.repair.engine import RepairEngine, RepairResult

__all__ = ["RepairEngine", "RepairResult"]
