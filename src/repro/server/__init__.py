"""The TDB service layer: a networked front end over one Database.

The embedded stack (chunk store -> object store -> collection store)
serves one process; this package turns it into a small multi-client
service:

* :mod:`repro.server.protocol` — length-prefixed JSON frame protocol
  and the verb table, which declares each of the 28 verbs once,
* :mod:`repro.server.verbs` — the JSON data model, the data-verb
  executor and the typed request-parameter helper,
* :mod:`repro.server.session` — the session core: the one dispatch
  point and the one definition of the wire contract (auth gates, the
  transaction lifecycle, commit tokens over
  :mod:`repro.server.commitcache`, request replay, park/resume, tenant
  verbs, ``hello``),
* :mod:`repro.server.server` — the threaded server: one session
  thread per connection over one database (or a tenancy hub), plus
  the per-store ``repl.*`` / ``proof.*`` / ``log.*`` verbs,
* :mod:`repro.server.groupcommit` — re-exports the group-commit
  coordinator every object store commits through,
* :mod:`repro.server.backpressure` — bounded sessions, idle/request
  timeouts that abort and release locks,
* :mod:`repro.server.client` — context-managed remote transactions
  with bounded reconnect/retry on transient errors.
"""

from repro.server.backpressure import AdmissionControl, BackpressureConfig
from repro.server.client import RemoteTransaction, TdbClient
from repro.server.groupcommit import GroupCommitCoordinator, GroupCommitStats
from repro.server.server import RemoteRecord, TdbServer, field_indexer

__all__ = [
    "AdmissionControl",
    "BackpressureConfig",
    "GroupCommitCoordinator",
    "GroupCommitStats",
    "RemoteRecord",
    "RemoteTransaction",
    "TdbClient",
    "TdbServer",
    "field_indexer",
]
