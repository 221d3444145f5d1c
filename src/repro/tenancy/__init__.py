"""repro.tenancy — the multi-tenant DRM hub.

Turns the server into a hub serving many tenants from one
root directory: per-tenant databases opened lazily and LRU-evicted
(:mod:`~repro.tenancy.registry`), per-principal HMAC challenge–response
authentication, DDH-style policy grants persisted as ordinary TDB
records (:mod:`~repro.tenancy.policy`), per-tenant quotas enforced
through the backpressure layer (:mod:`~repro.tenancy.quotas`), and a
durable ``_audit`` trail written into each tenant's own database — the
DRM workload the paper targets, dogfooded through the store itself.

Entry point: :class:`~repro.tenancy.hub.TenancyHub`, passed as the
``tenancy`` argument of :class:`~repro.server.server.TdbServer` (see
``tools.py serve --tenants``).
"""

from repro.tenancy.hub import Identity, TenancyHub, compute_proof, value_bytes
from repro.tenancy.policy import OBJECT_SCOPE, RIGHTS, WILDCARD_SCOPE
from repro.tenancy.quotas import QuotaState, TenantQuotas
from repro.tenancy.records import (
    AUDIT,
    META_NAME,
    METER_NAME,
    POLICY,
    PRINCIPALS,
    RESERVED_COLLECTIONS,
    TenancyRecord,
    tenancy_indexer,
)
from repro.tenancy.registry import TenantRegistry, TenantState

__all__ = [
    "Identity",
    "TenancyHub",
    "TenantRegistry",
    "TenantState",
    "TenantQuotas",
    "QuotaState",
    "TenancyRecord",
    "tenancy_indexer",
    "compute_proof",
    "value_bytes",
    "RIGHTS",
    "OBJECT_SCOPE",
    "WILDCARD_SCOPE",
    "PRINCIPALS",
    "POLICY",
    "AUDIT",
    "RESERVED_COLLECTIONS",
    "META_NAME",
    "METER_NAME",
]
