"""Hostile-client drills against the multi-tenant hub (satellite S3).

Every scenario must fail *closed* — a typed refusal on the attacker's
session, no credential oracle, no wedged server, and no collateral
damage to well-behaved tenants.  The storm test drives its attack
traffic through the frame-synchronous :class:`ChaosProxy` so transport
faults land mid-handshake, not just between clean requests.
"""

from __future__ import annotations

import contextlib
import threading
import time

import pytest

from repro.errors import (
    AuthFailedError,
    ProtocolError,
    QuotaExceededError,
    SessionStateError,
    TDBError,
)
from repro.server import TdbClient, TdbServer
from repro.tenancy import TenancyHub, TenantQuotas, compute_proof
from repro.testing.netfaults import ChaosProxy, NetFaultSchedule


@contextlib.contextmanager
def running_hub(root, tenants=(), **server_kwargs):
    hub = TenancyHub(str(root))
    secrets = {}
    for name, quotas in tenants:
        secrets[name] = hub.create_tenant(name, quotas)["secret"]
    server = TdbServer(None, tenancy=hub, **server_kwargs).start()
    try:
        yield server, hub, secrets
    finally:
        server.stop()
        hub.close()


def connect(server, timeout=5.0) -> TdbClient:
    host, port = server.address
    return TdbClient(host, port, timeout=timeout)


class TestChallengeReplay:
    def test_challenge_consumed_by_failed_attempt(self, tmp_path):
        """One challenge answers at most one proof — success or not."""
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            with connect(server) as c:
                challenge = c.call("auth", tenant="acme",
                                   principal="admin")["challenge"]
                good = compute_proof(secrets["acme"], challenge)
                with pytest.raises(AuthFailedError):
                    c.call("auth", tenant="acme", principal="admin",
                           proof="0" * 64)
                # The *correct* proof is now worthless: the failed
                # attempt consumed the challenge.
                with pytest.raises(AuthFailedError):
                    c.call("auth", tenant="acme", principal="admin",
                           proof=good)

    def test_observed_proof_replayed_on_fresh_connection(self, tmp_path):
        """A sniffed (challenge, proof) pair is useless elsewhere."""
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            with connect(server) as victim:
                challenge = victim.call("auth", tenant="acme",
                                        principal="admin")["challenge"]
                proof = compute_proof(secrets["acme"], challenge)
                victim.call("auth", tenant="acme", principal="admin",
                            proof=proof)  # the legitimate login
            with connect(server) as attacker:
                # Replay without a pending challenge: refused.
                with pytest.raises(AuthFailedError):
                    attacker.call("auth", tenant="acme",
                                  principal="admin", proof=proof)
                # Replay after requesting a fresh challenge: the old
                # proof answers the wrong nonce.
                attacker.call("auth", tenant="acme", principal="admin")
                with pytest.raises(AuthFailedError):
                    attacker.call("auth", tenant="acme",
                                  principal="admin", proof=proof)

    def test_phase_two_must_match_phase_one(self, tmp_path):
        """Swapping tenant or principal between phases is refused."""
        tenants = [("acme", None), ("globex", None)]
        with running_hub(tmp_path, tenants) as (server, _, secrets):
            with connect(server) as c:
                challenge = c.call("auth", tenant="acme",
                                   principal="admin")["challenge"]
                proof = compute_proof(secrets["acme"], challenge)
                with pytest.raises(AuthFailedError):
                    c.call("auth", tenant="globex", principal="admin",
                           proof=proof)


class TestWrongKey:
    def test_other_tenants_key_is_refused(self, tmp_path):
        """Tenant A's admin secret never opens tenant B — and the
        refusal is indistinguishable from any other auth failure."""
        tenants = [("acme", None), ("globex", None)]
        with running_hub(tmp_path, tenants) as (server, _, secrets):
            with connect(server) as c:
                challenge = c.call("auth", tenant="globex",
                                   principal="admin")["challenge"]
                stolen = compute_proof(secrets["acme"], challenge)
                with pytest.raises(AuthFailedError) as info:
                    c.call("auth", tenant="globex", principal="admin",
                           proof=stolen)
                assert str(info.value) == "authentication failed"

    def test_unknown_tenant_and_principal_same_error(self, tmp_path):
        """Probing for tenant / principal existence learns nothing."""
        with running_hub(tmp_path, [("acme", None)]) as (server, _, _s):
            with connect(server) as c:
                messages = set()
                for tenant, principal in (
                    ("acme", "nosuch"),      # real tenant, fake principal
                    ("nosuch", "admin"),     # fake tenant, real principal
                    ("nosuch", "nosuch"),
                ):
                    with pytest.raises(AuthFailedError) as info:
                        c.call("auth", tenant=tenant, principal=principal)
                    messages.add(str(info.value))
                assert messages == {"authentication failed"}


class TestTamperedFrames:
    def test_flipped_proof_byte(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            with connect(server) as c:
                challenge = c.call("auth", tenant="acme",
                                   principal="admin")["challenge"]
                proof = compute_proof(secrets["acme"], challenge)
                flipped = ("0" if proof[0] != "0" else "1") + proof[1:]
                with pytest.raises(AuthFailedError):
                    c.call("auth", tenant="acme", principal="admin",
                           proof=flipped)

    def test_malformed_proof_types_fail_closed(self, tmp_path):
        """Garbage in the proof field is a typed refusal, never a
        server-side crash, and the connection stays serviceable."""
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            with connect(server) as c:
                for garbage in (12345, {"hmac": "yes"}, ["p"], True,
                                "not-hex", "", "zz" * 32):
                    c.call("auth", tenant="acme", principal="admin")
                    with pytest.raises((AuthFailedError, ProtocolError)):
                        c.call("auth", tenant="acme", principal="admin",
                               proof=garbage)
                # After seven mangled handshakes the session still
                # completes a legitimate one.
                challenge = c.call("auth", tenant="acme",
                                   principal="admin")["challenge"]
                result = c.call(
                    "auth", tenant="acme", principal="admin",
                    proof=compute_proof(secrets["acme"], challenge),
                )
                assert result["authenticated"] is True

    def test_missing_and_non_string_parameters(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, _, _s):
            with connect(server) as c:
                with pytest.raises(ProtocolError):
                    c.call("auth", tenant="acme")  # no principal
                with pytest.raises(ProtocolError):
                    c.call("auth", principal="admin")  # no tenant
                # Non-string identities coerce to unknown names, not 500s.
                with pytest.raises((AuthFailedError, ProtocolError)):
                    c.call("auth", tenant=7, principal="admin")

    def test_reauth_refused_mid_transaction(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            c = connect(server)
            c.authenticate("acme", "admin", secrets["acme"])
            c.call("begin", mode="object")
            with pytest.raises(SessionStateError):
                c.call("auth", tenant="acme", principal="admin")
            c.call("abort")
            c.close()


class TestQuotaStorm:
    def test_storm_through_chaos_proxy_leaves_neighbours_alive(self, tmp_path):
        """A hostile swarm hammers one tenant's auth through a faulty
        network while a neighbour keeps committing.  The swarm must be
        contained by the session quota, every refusal must be typed, and
        the hub must stay fully serviceable afterwards."""
        tenants = [
            ("target", TenantQuotas(max_sessions=2)),
            ("bystander", None),
        ]
        with running_hub(tmp_path, tenants) as (server, hub, secrets):
            host, port = server.address
            schedule = (
                NetFaultSchedule()
                .truncate(2, 2)       # cut an auth frame mid-write
                .drop_after(3, 1)     # kill a connection post-challenge
                .drop_before(5, 2)    # kill one pre-proof
                .duplicate(6, 1)      # double-send a challenge request
            )
            outcomes = {"ok": 0, "quota": 0, "auth": 0, "transport": 0}
            lock = threading.Lock()

            def attacker(index):
                try:
                    client = TdbClient(proxy.address[0], proxy.address[1],
                                       timeout=3.0)
                    try:
                        client.authenticate(
                            "target", "admin", secrets["target"]
                        )
                        with lock:
                            outcomes["ok"] += 1
                        time.sleep(0.3)  # squat on the session slot
                    finally:
                        client.close()
                except QuotaExceededError:
                    with lock:
                        outcomes["quota"] += 1
                except AuthFailedError:
                    with lock:
                        outcomes["auth"] += 1
                except TDBError:
                    with lock:
                        outcomes["transport"] += 1

            with ChaosProxy(host, port, schedule) as proxy:
                threads = [
                    threading.Thread(target=attacker, args=(i,))
                    for i in range(10)
                ]
                bystander_done = threading.Event()
                bystander_oids = []

                def bystander():
                    with connect(server) as c:
                        c.authenticate(
                            "bystander", "admin", secrets["bystander"]
                        )
                        for n in range(5):
                            c.call("begin", mode="object")
                            oid = c.call("obj.put", value={"n": n})["oid"]
                            c.call("commit")
                            bystander_oids.append(oid)
                    bystander_done.set()

                b = threading.Thread(target=bystander)
                for t in threads:
                    t.start()
                b.start()
                for t in threads:
                    t.join(timeout=30)
                b.join(timeout=30)
                assert bystander_done.is_set(), "bystander was starved"
                assert not any(t.is_alive() for t in threads)

            # Every attacker resolved to a *typed* outcome; the quota
            # never admitted more than its two slots at once.
            assert sum(outcomes.values()) == 10
            assert outcomes["quota"] + outcomes["transport"] > 0
            state = hub.registry.peek("target")
            assert state is not None and state.quota.sessions <= 2

            # The hub is not wedged: fresh logins work for both tenants
            # once the storm's slots drain.
            deadline = time.monotonic() + 10
            while True:
                try:
                    with connect(server) as c:
                        c.authenticate("target", "admin", secrets["target"])
                        c.call("begin", mode="object")
                        c.call("obj.put", value={"after": "storm"})
                        c.call("commit")
                        # Reading the audit trail takes an explicit grant,
                        # which the tenant's admin can give itself.
                        c.call("tenant.grant", principal="admin",
                               scope="_audit", right="read")
                        c.call("begin", mode="collection")
                        rows = c.call("col.iterate", name="_audit")["values"]
                        c.call("abort")
                    break
                except QuotaExceededError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            # The storm is on the record: quota refusals were audited
            # (rate-limited, so at least one) in the tenant's own trail.
            if outcomes["quota"]:
                assert "quota" in [r["event"] for r in rows]
