"""DDH-style policy: scoped read/write/admin grants, deny-by-default.

A grant is ``(principal, scope, right)``:

scope
    A collection name (gates the ``col.*`` verbs on that collection),
    the pseudo-scope ``"objects"`` (gates ``obj.*`` and ``name.*``), or
    the wildcard ``"*"``.  Scopes starting with ``_`` are *reserved*:
    the wildcard never covers them, so reading a tenant's ``_audit``
    trail over the wire needs an explicit ``read`` grant on
    ``"_audit"`` — and no grant at all permits *writing* a reserved
    scope through data verbs.
right
    ``read`` < ``write`` < ``admin``; a stronger right implies the
    weaker ones within its scope.  Tenant administration over the wire
    (``tenant.grant`` / ``tenant.revoke``) requires ``admin`` on
    ``"*"``.

Evaluation order for a data verb:

1. Classify the verb into ``(scope, right)`` from its row of the verb
   table (:data:`repro.server.protocol.VERBS`: scope kind and right) —
   reserved *mutations* (and any ``name.*`` touching a ``_``-prefixed
   name) are refused here, before policy is even consulted.
2. Look for a grant of the principal whose right implies the required
   right and whose scope matches: exact scope first, then ``"*"``
   (skipped for reserved scopes).
3. No match → :class:`~repro.errors.PermissionDeniedError`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.errors import PermissionDeniedError, ProtocolError

__all__ = [
    "RIGHTS",
    "OBJECT_SCOPE",
    "WILDCARD_SCOPE",
    "required_access",
    "grants_allow",
    "validate_grant",
]

RIGHTS = ("read", "write", "admin")
OBJECT_SCOPE = "objects"
WILDCARD_SCOPE = "*"

#: right → the set of rights it satisfies.
_IMPLIES = {
    "read": frozenset({"read"}),
    "write": frozenset({"read", "write"}),
    "admin": frozenset({"read", "write", "admin"}),
}

def reserved(scope: str) -> bool:
    return scope.startswith("_")


def required_access(verb, request: Dict[str, Any]) -> Tuple[str, str]:
    """Classify a data verb into the ``(scope, right)`` it requires.

    ``verb`` is the verb's row of the verb table; its scope kind
    ``objects`` maps to the pseudo-scope, ``collection`` takes the
    request's ``name``.  Raises :class:`PermissionDeniedError` outright
    for operations no grant can permit (mutating reserved collections
    or names): a reserved collection admits read verbs only.
    """
    right = verb.right
    if verb.scope == OBJECT_SCOPE:
        name = request.get("name")
        if verb.name.startswith("name.") and isinstance(name, str) and reserved(name):
            raise PermissionDeniedError(
                f"names starting with '_' are reserved for the tenancy "
                f"control plane ({name!r})"
            )
        return OBJECT_SCOPE, right
    name = str(request.get("name"))
    if reserved(name) and right != "read":
        raise PermissionDeniedError(
            f"collection {name!r} is reserved for the tenancy control "
            "plane; it is read-only over the wire"
        )
    return name, right


def grants_allow(
    grants: Iterable[Tuple[str, str]], scope: str, right: str
) -> bool:
    """Whether any grant covers ``right`` on ``scope`` (deny-by-default)."""
    for granted_scope, granted_right in grants:
        if right not in _IMPLIES.get(granted_right, ()):
            continue
        if granted_scope == scope:
            return True
        if granted_scope == WILDCARD_SCOPE and not reserved(scope):
            return True
    return False


def check(
    grants: Iterable[Tuple[str, str]],
    principal: str,
    scope: str,
    right: str,
) -> None:
    if not grants_allow(grants, scope, right):
        raise PermissionDeniedError(
            f"principal {principal!r} holds no {right!r} grant on scope "
            f"{scope!r}"
        )


def validate_grant(principal: str, scope: str, right: str) -> None:
    """Shape checks for grant/revoke parameters (wire and CLI)."""
    if not isinstance(principal, str) or not principal or len(principal) > 128:
        raise ProtocolError("principal must be a non-empty string (<=128 chars)")
    if not isinstance(scope, str) or not scope or len(scope) > 128:
        raise ProtocolError("scope must be a non-empty string (<=128 chars)")
    if right not in RIGHTS:
        raise ProtocolError(f"right must be one of {RIGHTS}, got {right!r}")
