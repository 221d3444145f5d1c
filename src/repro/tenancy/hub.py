"""TenancyHub: the multi-tenant control plane behind the server.

The hub owns the :class:`~repro.tenancy.registry.TenantRegistry` and
exposes everything the session core needs:

- ``begin_auth`` / ``finish_auth`` / ``release`` — the HMAC
  challenge–response and the session lease it produces.
- ``check`` — policy gate for one data verb (deny-by-default).
- ``grant`` / ``revoke`` / ``meter`` — the ``tenant.*`` verbs.
- ``on_begin`` / ``on_commit_start`` / ``on_commit_end`` — quota hooks
  the transaction lifecycle threads through (token bucket at begin,
  pending-commit and stored-bytes budgets around commit, durable
  metering after).
- ``session_db`` — the tenant's database, which serves the session's
  data verbs.

Authentication protocol: the first ``auth`` call (no ``proof``) makes
the hub look up the principal's secret and mint a single-use random
challenge; the reply carries only the challenge.  The second call
proves possession with ``HMAC-SHA256(secret, challenge-bytes)`` in hex.
The pending challenge is consumed by the *attempt*, success or not, so
replaying an observed exchange fails closed.  Every failure mode —
unknown tenant, unknown principal, wrong key, missing or stale
challenge — raises the same :class:`~repro.errors.AuthFailedError`
with the same message: the hub is not a tenant-name oracle.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets as _secrets
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.config import ChunkStoreConfig
from repro.errors import (
    AuthFailedError,
    PermissionDeniedError,
    ProtocolError,
    QuotaExceededError,
    TDBError,
    TenancyError,
)
from repro.tenancy import policy as _policy
from repro.tenancy.quotas import TenantQuotas
from repro.tenancy.registry import TenantRegistry, TenantState

__all__ = ["Identity", "TenancyHub", "value_bytes", "compute_proof"]


@dataclass(frozen=True)
class Identity:
    """The ``(tenant, principal)`` a session is bound to after ``auth``."""

    tenant: str
    principal: str


def value_bytes(request: Dict[str, Any]) -> int:
    """Accounting size of one mutating data verb.

    The stored-bytes quota is accounting-based: the JSON size of the
    payload the verb carried, known before the commit runs, so the
    budget gates a commit up front.  Verbs without a payload (``name.bind``, ``obj.remove``) cost a
    small flat fee for their metadata write.
    """
    if "value" not in request:
        return 16
    try:
        return len(json.dumps(request["value"], separators=(",", ":")))
    except (TypeError, ValueError):
        return 16


def compute_proof(secret_hex: str, challenge_hex: str) -> str:
    """The client-side half of the challenge–response."""
    return hmac.new(
        bytes.fromhex(secret_hex), bytes.fromhex(challenge_hex), hashlib.sha256
    ).hexdigest()


class TenancyHub:
    """The multi-tenant control plane (thread-safe)."""

    def __init__(
        self,
        root: str,
        max_open: int = 8,
        default_quotas: Optional[TenantQuotas] = None,
        chunk_config: Optional[ChunkStoreConfig] = None,
        meter_flush_every: int = 16,
    ) -> None:
        self.registry = TenantRegistry(
            root,
            max_open=max_open,
            default_quotas=default_quotas,
            chunk_config=chunk_config,
            meter_flush_every=meter_flush_every,
        )

    # ------------------------------------------------------------------
    # Tenant administration (CLI and wire)
    # ------------------------------------------------------------------

    def create_tenant(
        self,
        name: str,
        quotas: Optional[TenantQuotas] = None,
        admin: Optional[str] = "admin",
    ) -> Dict[str, Any]:
        """Create a tenant; with ``admin`` set, also create that
        principal with a wildcard admin grant and return its secret."""
        self.registry.create(name, quotas)
        result: Dict[str, Any] = {"tenant": name}
        if admin:
            _policy.validate_grant(admin, _policy.WILDCARD_SCOPE, "admin")
            with self.registry.using(name) as state:
                secret, _created = state.upsert_principal(admin)
                state.insert_grant(admin, _policy.WILDCARD_SCOPE, "admin")
                state.audit_event(
                    "grant",
                    None,
                    {
                        "principal": admin,
                        "scope": _policy.WILDCARD_SCOPE,
                        "right": "admin",
                        "via": "create",
                    },
                )
            result["admin"] = admin
            result["secret"] = secret
        return result

    def list_tenants(self) -> list:
        return self.registry.list()

    # ------------------------------------------------------------------
    # Authentication
    # ------------------------------------------------------------------

    def begin_auth(self, tenant: str, principal: str) -> Dict[str, Any]:
        """Phase one: mint a single-use challenge for the principal.

        The returned dict is the session's pending-auth state; only its
        ``challenge`` field may go on the wire.
        """
        if not isinstance(tenant, str) or not isinstance(principal, str):
            raise ProtocolError("tenant and principal must be strings")
        secret = None
        try:
            with self.registry.using(tenant) as state:
                secret = state.read_principal_secret(principal)
                if secret is None:
                    state.audit_event(
                        "auth.fail", principal, {"stage": "challenge"}
                    )
        except AuthFailedError:
            raise
        except TenancyError as exc:
            raise AuthFailedError("authentication failed") from exc
        if secret is None:
            raise AuthFailedError("authentication failed")
        return {
            "tenant": tenant,
            "principal": principal,
            "secret": secret,
            "challenge": _secrets.token_hex(16),
        }

    def finish_auth(self, pending: Dict[str, Any], proof: Any) -> Identity:
        """Phase two: verify the proof, enforce the session quota, lease
        the tenant, and audit the outcome."""
        tenant = pending["tenant"]
        principal = pending["principal"]
        try:
            expected = compute_proof(pending["secret"], pending["challenge"])
            ok = isinstance(proof, str) and hmac.compare_digest(
                expected, proof.lower()
            )
        except (ValueError, TypeError):
            ok = False
        if not ok:
            try:
                with self.registry.using(tenant) as state:
                    state.audit_event(
                        "auth.fail", principal, {"stage": "proof"}
                    )
            except TDBError:
                pass
            raise AuthFailedError("authentication failed")
        state = self.registry.acquire(tenant)
        try:
            state.quota.admit_session()
        except QuotaExceededError as exc:
            state.quota_trip(principal, getattr(exc, "kind", "sessions"))
            raise
        try:
            self.registry.lease(state)
            state.audit_event("auth", principal)
        except BaseException:
            state.quota.release_session()
            self.registry.unlease(state)
            raise
        return Identity(tenant, principal)

    def release(self, identity: Identity) -> None:
        """Drop the session lease and quota slot (memory-only; safe to
        call during shutdown after the registry closed the tenant)."""
        state = self.registry.peek(identity.tenant)
        if state is None:
            return
        state.quota.release_session()
        self.registry.unlease(state)

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------

    def check(self, identity: Identity, verb, request: Dict[str, Any]) -> None:
        """Gate one data verb (its verb-table row); raises
        PermissionDeniedError on refusal."""
        scope, right = _policy.required_access(verb, request)
        with self.registry.using(identity.tenant) as state:
            grants = state.load_policy().get(identity.principal, ())
        _policy.check(grants, identity.principal, scope, right)

    def grant(
        self,
        tenant: str,
        principal: str,
        scope: str,
        right: str,
        caller: Optional[Identity] = None,
    ) -> Dict[str, Any]:
        """Grant ``right`` on ``scope``, creating the principal if needed
        (its secret is returned exactly once, on creation).

        The wire verb passes the calling identity and is admin-gated;
        ``tools tenant grant`` passes none (the operator owns the root
        directory) and is audited ``via: cli``.
        """
        _policy.validate_grant(principal, scope, right)
        with self.registry.using(tenant) as state:
            self._require_admin(state, caller)
            secret, created = state.upsert_principal(principal)
            granted = state.insert_grant(principal, scope, right)
            self._audit_edit(state, "grant", caller, {
                "principal": principal,
                "scope": scope,
                "right": right,
                "created_principal": created,
            })
            result = {
                "tenant": tenant,
                "principal": principal,
                "scope": scope,
                "right": right,
                "granted": granted,
                "created_principal": created,
            }
            if created:
                result["secret"] = secret
            return result

    def revoke(
        self,
        tenant: str,
        principal: str,
        scope: str,
        right: str,
        caller: Optional[Identity] = None,
    ) -> Dict[str, Any]:
        """Revoke matching grants, gated and audited like :meth:`grant`;
        effective next txn (the policy cache is dropped here and on
        every commit)."""
        _policy.validate_grant(principal, scope, right)
        with self.registry.using(tenant) as state:
            self._require_admin(state, caller)
            removed = state.revoke_grants(principal, scope, right)
            self._audit_edit(state, "revoke", caller, {
                "principal": principal,
                "scope": scope,
                "right": right,
                "removed": removed,
            })
            return {
                "tenant": tenant,
                "principal": principal,
                "scope": scope,
                "right": right,
                "removed": removed,
            }

    @staticmethod
    def _audit_edit(
        state: TenantState,
        event: str,
        caller: Optional[Identity],
        detail: Dict[str, Any],
    ) -> None:
        if caller is None:
            detail["via"] = "cli"
        state.audit_event(
            event, None if caller is None else caller.principal, detail
        )

    @staticmethod
    def _require_admin(
        state: TenantState, identity: Optional[Identity]
    ) -> None:
        if identity is None:
            return  # the offline CLI: possession of the root is the credential
        grants = state.load_policy().get(identity.principal, ())
        if not _policy.grants_allow(grants, _policy.WILDCARD_SCOPE, "admin"):
            raise PermissionDeniedError(
                "tenant administration requires the 'admin' right on "
                "scope '*'"
            )

    # ------------------------------------------------------------------
    # Quota hooks (transaction lifecycle)
    # ------------------------------------------------------------------

    def on_begin(self, identity: Identity) -> None:
        """Charge the tenant's txn/s token bucket for one ``begin``."""
        with self.registry.using(identity.tenant) as state:
            try:
                state.quota.take_txn_token()
            except QuotaExceededError as exc:
                state.quota_trip(
                    identity.principal, getattr(exc, "kind", "txn_rate")
                )
                raise

    def on_commit_start(self, identity: Identity, txn_bytes: int) -> None:
        """Enforce the pending-commit and stored-bytes budgets."""
        with self.registry.using(identity.tenant) as state:
            try:
                state.quota.begin_commit(txn_bytes)
            except QuotaExceededError as exc:
                state.quota_trip(
                    identity.principal, getattr(exc, "kind", "pending")
                )
                raise

    def on_commit_end(
        self, identity: Identity, txn_bytes: int, committed: bool
    ) -> None:
        """Settle the commit: release the pending slot, and on success
        meter it durably and invalidate the tenant's policy cache."""
        with self.registry.using(identity.tenant) as state:
            state.quota.end_commit(txn_bytes, committed)
            if committed:
                state.record_commit(identity.principal, txn_bytes)

    # ------------------------------------------------------------------
    # Data-plane access
    # ------------------------------------------------------------------

    def session_db(self, identity: Identity):
        """The tenant's database (the session's data plane).  The
        session's lease — taken at ``finish_auth`` — pins it open."""
        return self.registry.acquire(identity.tenant).db

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def meter(self, tenant: str) -> Dict[str, Any]:
        """Quota configuration, live usage, cumulative meter, and audit
        length for one tenant (the ``tenant.meter`` verb and the CLI)."""
        with self.registry.using(tenant) as state:
            usage = state.quota.usage()
            with state.lock:
                usage["commits"] = state.meter_commits
                usage["metered_bytes"] = state.meter_bytes
                audit_records = state.audit_seq
            return {
                "tenant": tenant,
                "quotas": state.quota.quotas.as_dict(),
                "usage": usage,
                "audit_records": audit_records,
            }

    def stats(self) -> Dict[str, Any]:
        return {"root": self.registry.root, **self.registry.stats()}

    def close(self) -> None:
        self.registry.close()

    def __enter__(self) -> "TenancyHub":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
