"""The multi-tenant DRM hub: registry lifecycle, auth, policy, quotas,
metered audit, and the three-tenant end-to-end contract on the server.
"""

from __future__ import annotations

import contextlib
import threading
import time

import pytest

from repro.errors import (
    AuthFailedError,
    AuthRequiredError,
    ConfigError,
    FeatureUnavailableError,
    PermissionDeniedError,
    QuotaExceededError,
    ServerBusyError,
    TDBError,
    TenancyError,
)
from repro.objectstore import groupcommit
from repro.server import TdbClient, TdbServer
from repro.server.protocol import DATA, STORE, VERBS
from repro.tenancy import (
    Identity,
    QuotaState,
    TenancyHub,
    TenantQuotas,
    TenantRegistry,
    compute_proof,
    value_bytes,
)
from repro.tenancy import policy as tenancy_policy

DATA_VERBS = [verb for verb in VERBS.values() if verb.kind == DATA]
STORE_VERBS = {verb.name for verb in VERBS.values() if verb.kind == STORE}


@contextlib.contextmanager
def running_hub(root, tenants=(), **server_kwargs):
    """A threaded hub server over ``root``; yields ``(server, hub, secrets)``.

    ``tenants`` is a list of ``(name, quotas)`` pairs created up front;
    ``secrets`` maps tenant name to its bootstrap admin secret.
    """
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


def connect(server, tenant=None, principal=None, secret=None) -> TdbClient:
    host, port = server.address
    client = TdbClient(host, port)
    if tenant is not None:
        client.authenticate(tenant, principal, secret)
    return client


# ---------------------------------------------------------------------------
# Unit: quotas
# ---------------------------------------------------------------------------


class TestQuotas:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TenantQuotas(max_sessions=-1)
        with pytest.raises(ConfigError):
            TenantQuotas(txn_rate=-0.5)
        TenantQuotas()  # defaults are valid

    def test_session_quota(self):
        state = QuotaState(TenantQuotas(max_sessions=2))
        state.admit_session()
        state.admit_session()
        with pytest.raises(QuotaExceededError) as info:
            state.admit_session()
        assert info.value.kind == "sessions"
        state.release_session()
        state.admit_session()  # slot freed

    def test_token_bucket_refills(self):
        clock = [0.0]
        state = QuotaState(
            TenantQuotas(txn_rate=2.0, burst=1), clock=lambda: clock[0]
        )
        state.take_txn_token()
        with pytest.raises(QuotaExceededError) as info:
            state.take_txn_token()
        assert info.value.kind == "txn_rate"
        clock[0] += 0.5  # 2 tokens/s -> one token back
        state.take_txn_token()

    def test_bytes_and_pending_quotas(self):
        state = QuotaState(
            TenantQuotas(max_pending_commits=1, max_bytes=100)
        )
        state.begin_commit(60)
        with pytest.raises(QuotaExceededError) as info:
            state.begin_commit(10)  # pending slot exhausted
        assert info.value.kind == "pending"
        state.end_commit(60, committed=True)
        with pytest.raises(QuotaExceededError) as info:
            state.begin_commit(50)  # 60 committed + 50 > 100
        assert info.value.kind == "bytes"
        # An aborted commit releases its reservation.
        state.begin_commit(40)
        state.end_commit(40, committed=False)
        assert state.usage()["bytes_committed"] == 60

    def test_quota_exceeded_is_transient_busy(self):
        assert issubclass(QuotaExceededError, ServerBusyError)

    def test_value_bytes_currency(self):
        assert value_bytes({"op": "col.insert", "value": {"k": 1}}) > 0
        assert value_bytes({"op": "obj.remove", "oid": 3}) == 16


# ---------------------------------------------------------------------------
# Unit: policy
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_rights_imply(self):
        assert tenancy_policy.grants_allow([("docs", "admin")], "docs", "read")
        assert not tenancy_policy.grants_allow([("docs", "read")], "docs", "write")

    def test_wildcard_never_covers_reserved(self):
        assert tenancy_policy.grants_allow([("*", "admin")], "docs", "admin")
        assert not tenancy_policy.grants_allow([("*", "admin")], "_audit", "read")
        assert tenancy_policy.grants_allow([("_audit", "read")], "_audit", "read")

    def test_reserved_mutation_refused_outright(self):
        with pytest.raises(PermissionDeniedError):
            tenancy_policy.required_access(
                VERBS["col.insert"], {"name": "_audit", "value": {}}
            )
        with pytest.raises(PermissionDeniedError):
            tenancy_policy.required_access(VERBS["name.bind"], {"name": "_tenant"})
        # Reads of reserved collections classify fine.
        scope, right = tenancy_policy.required_access(
            VERBS["col.iterate"], {"name": "_audit"}
        )
        assert (scope, right) == ("_audit", "read")
        # Every data verb of the table: a reserved collection admits
        # read verbs only, a reserved name no name verb at all.
        for verb in DATA_VERBS:
            request = {"name": "_audit", "value": {}}
            if verb.name.startswith("name.") or (
                verb.scope == "collection" and verb.mutating
            ):
                with pytest.raises(PermissionDeniedError):
                    tenancy_policy.required_access(verb, request)
            else:
                assert tenancy_policy.required_access(verb, request)[1] == verb.right

    def test_verb_classification(self):
        assert tenancy_policy.required_access(
            VERBS["obj.put"], {}
        ) == ("objects", "write")
        assert tenancy_policy.required_access(
            VERBS["col.create"], {"name": "docs"}
        ) == ("docs", "admin")
        # Every data verb of the table is policed on its row's scope and
        # right; the writing ones are exactly the six that store data.
        for verb in DATA_VERBS:
            scope = "objects" if verb.scope == "objects" else "docs"
            assert tenancy_policy.required_access(
                verb, {"name": "docs"}
            ) == (scope, verb.right), verb.name
        assert {verb.name for verb in DATA_VERBS if verb.mutating} == {
            "obj.put", "obj.remove", "name.bind",
            "col.create", "col.insert", "col.remove",
        }


# ---------------------------------------------------------------------------
# Registry lifecycle
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_create_list_and_name_validation(self, tmp_path):
        registry = TenantRegistry(str(tmp_path))
        registry.create("acme")
        registry.create("globex-2")
        assert registry.list() == ["acme", "globex-2"]
        with pytest.raises(TenancyError):
            registry.create("acme")  # duplicate
        for bad in ("", "UPPER", "has space", "a" * 65, "-leading", "a:b"):
            with pytest.raises(TenancyError):
                registry.create(bad)
        registry.close()

    def test_lru_eviction_and_reopen(self, tmp_path):
        registry = TenantRegistry(str(tmp_path), max_open=1)
        registry.create("a")
        registry.create("b")
        state_a = registry.acquire("a")
        db_a = state_a.db
        registry.acquire("b")  # evicts a (no leases held)
        stats = registry.stats()
        assert stats["evicted_total"] >= 1
        assert "a" not in stats["tenants"]
        # The evicted database was closed; re-acquiring opens a fresh one.
        state_a2 = registry.acquire("a")
        assert state_a2.db is not db_a
        registry.close()

    def test_leased_tenant_survives_eviction_pressure(self, tmp_path):
        registry = TenantRegistry(str(tmp_path), max_open=1)
        registry.create("a")
        registry.create("b")
        with registry.using("a") as state_a:
            registry.acquire("b")  # over budget, but "a" is leased
            assert registry.peek("a") is state_a
        registry.close()

    def test_meter_persists_across_close(self, tmp_path):
        registry = TenantRegistry(str(tmp_path))
        registry.create("acme")
        with registry.using("acme") as state:
            state.record_commit("p", 123)
            state.flush_meter()
        registry.close()
        registry2 = TenantRegistry(str(tmp_path))
        with registry2.using("acme") as state:
            assert state.meter_commits == 1
            assert state.meter_bytes == 123
        registry2.close()


# ---------------------------------------------------------------------------
# Hub auth (direct, no wire)
# ---------------------------------------------------------------------------


class TestHubAuth:
    def test_challenge_response_roundtrip(self, tmp_path):
        with TenancyHub(str(tmp_path)) as hub:
            secret = hub.create_tenant("acme")["secret"]
            pending = hub.begin_auth("acme", "admin")
            proof = compute_proof(secret, pending["challenge"])
            identity = hub.finish_auth(pending, proof)
            assert identity == Identity("acme", "admin")
            hub.release(identity)

    def test_unknown_tenant_and_principal_uniform_failure(self, tmp_path):
        with TenancyHub(str(tmp_path)) as hub:
            hub.create_tenant("acme")
            with pytest.raises(AuthFailedError):
                hub.begin_auth("nosuch", "admin")
            with pytest.raises(AuthFailedError):
                hub.begin_auth("acme", "nosuch")

    def test_wrong_proof_fails_and_audits(self, tmp_path):
        with TenancyHub(str(tmp_path)) as hub:
            hub.create_tenant("acme")
            pending = hub.begin_auth("acme", "admin")
            with pytest.raises(AuthFailedError):
                hub.finish_auth(pending, "00" * 32)
            meter = hub.meter("acme")
            assert meter["audit_records"] >= 2  # bootstrap grant + auth.fail


# ---------------------------------------------------------------------------
# Threaded server end-to-end
# ---------------------------------------------------------------------------


class TestThreadedHub:
    def test_hello_advertises_tenancy_and_absent_verbs(self, tmp_path):
        with running_hub(tmp_path) as (server, _hub, _):
            with connect(server) as client:
                hello = client.hello()
                assert "tenancy" in hello["features"]
                assert "repl.subscribe" in hello["absent_verbs"]
                assert set(hello["absent_verbs"]) == STORE_VERBS

    def test_preauth_verbs_refused(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, _hub, _):
            with connect(server) as client:
                with pytest.raises(AuthRequiredError):
                    client.call("begin", mode="object")
                with pytest.raises(AuthRequiredError):
                    client.call("obj.get", oid=1)
                # hello and stats remain answerable pre-auth.
                assert "tenancy" in client.hello()["features"]
                assert client.stats()["tenancy"]["open"] >= 0
                # Every verb of the table: a pre-auth verb is answered
                # (perhaps with a parameter error), any other is refused.
                for verb in VERBS.values():
                    try:
                        client.call(verb.name)
                        refused = False
                    except AuthRequiredError:
                        refused = True
                    except TDBError:
                        refused = False
                    assert refused is not verb.preauth, verb.name
        assert {verb.name for verb in VERBS.values() if verb.preauth} == {
            "hello", "auth", "stats", "commit.result", "session.resume",
        }

    def test_per_store_verbs_unavailable(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            with connect(server, "acme", "admin", secrets["acme"]) as client:
                for name in sorted(STORE_VERBS):
                    with pytest.raises(FeatureUnavailableError):
                        client.call(name)
        assert STORE_VERBS == {
            "repl.subscribe", "repl.segments", "repl.master",
            "proof.read", "proof.absent", "log.head", "log.consistency",
        }

    def test_three_tenant_isolation(self, tmp_path):
        tenants = [("acme", None), ("globex", None), ("initech", None)]
        with running_hub(tmp_path, tenants) as (server, _, secrets):
            # Each tenant writes its own collection and object graph.
            oids = {}
            for name in ("acme", "globex", "initech"):
                with connect(server, name, "admin", secrets[name]) as c:
                    with c.transaction("collection") as ct:
                        ct.create_collection("docs", "k")
                        ct.insert("docs", {"k": 1, "owner": name})
                    with c.transaction() as txn:
                        oids[name] = txn.put({"secret": name})
                        txn.bind("root", oids[name])
            # No tenant can read or write another tenant's data through
            # any verb family: collections, objects, or names.
            with connect(server, "acme", "admin", secrets["acme"]) as c:
                with c.transaction() as txn:
                    assert txn.lookup("root") == oids["acme"]
                    assert txn.get(oids["acme"]) == {"secret": "acme"}
                    if oids["globex"] != oids["acme"]:
                        with pytest.raises(TDBError):
                            txn.get(oids["globex"])
                with c.transaction("collection") as ct:
                    rows = ct.get_match("docs", 1)
                    assert rows == [{"k": 1, "owner": "acme"}]

    def test_names_and_collections_are_per_tenant(self, tmp_path):
        tenants = [("acme", None), ("globex", None)]
        with running_hub(tmp_path, tenants) as (server, _, secrets):
            with connect(server, "acme", "admin", secrets["acme"]) as c:
                with c.transaction("collection") as ct:
                    ct.create_collection("vault", "k")
                    ct.insert("vault", {"k": 7})
                with c.transaction() as txn:
                    txn.bind("only-acme", txn.put({"x": 1}))
            with connect(server, "globex", "admin", secrets["globex"]) as c:
                with c.transaction() as txn:
                    assert txn.lookup("only-acme") is None
                with pytest.raises(TDBError):
                    with c.transaction("collection") as ct:
                        ct.get_match("vault", 7)

    def test_policy_gates_and_revocation_next_txn(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, hub, secrets):
            writer_secret = hub.grant(
                "acme", "writer", "docs", "write"
            )["secret"]
            with connect(server, "acme", "admin", secrets["acme"]) as admin:
                with admin.transaction("collection") as ct:
                    ct.create_collection("docs", "k")
            with connect(server, "acme", "writer", writer_secret) as w:
                with w.transaction("collection") as ct:
                    ct.insert("docs", {"k": 1})
                # No grant on the objects scope: obj verbs refused.
                with pytest.raises(PermissionDeniedError):
                    with w.transaction() as txn:
                        txn.put({"x": 1})
                # col.create needs admin on the collection.
                with pytest.raises(PermissionDeniedError):
                    with w.transaction("collection") as ct:
                        ct.create_collection("other", "k")
                # Revoke lands mid-session: the next transaction fails.
                with connect(server, "acme", "admin", secrets["acme"]) as a:
                    a.call("tenant.revoke", principal="writer",
                           scope="docs", right="write")
                with pytest.raises(PermissionDeniedError):
                    with w.transaction("collection") as ct:
                        ct.insert("docs", {"k": 2})

    def test_admin_gate_on_tenant_verbs(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, hub, secrets):
            reader_secret = hub.grant(
                "acme", "reader", "docs", "read"
            )["secret"]
            with connect(server, "acme", "reader", reader_secret) as c:
                with pytest.raises(PermissionDeniedError):
                    c.call("tenant.grant", principal="reader",
                           scope="*", right="admin")

    def test_session_quota_isolated_per_tenant(self, tmp_path):
        tenants = [
            ("small", TenantQuotas(max_sessions=1)),
            ("big", None),
        ]
        with running_hub(tmp_path, tenants) as (server, _, secrets):
            c1 = connect(server, "small", "admin", secrets["small"])
            try:
                c2 = connect(server)
                with pytest.raises(QuotaExceededError):
                    c2.authenticate("small", "admin", secrets["small"])
                c2.close()
                # The other tenant is unaffected by small's saturation.
                with connect(server, "big", "admin", secrets["big"]) as c3:
                    with c3.transaction() as txn:
                        txn.put({"ok": True})
            finally:
                c1.close()
            # Closing the session frees the slot.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                c4 = connect(server)
                try:
                    c4.authenticate("small", "admin", secrets["small"])
                    c4.close()
                    break
                except QuotaExceededError:
                    c4.close()
                    time.sleep(0.05)
            else:
                pytest.fail("session slot never freed")

    def test_txn_rate_quota_trips_transient(self, tmp_path):
        tenants = [("noisy", TenantQuotas(txn_rate=1.0, burst=1))]
        with running_hub(tmp_path, tenants) as (server, _, secrets):
            with connect(server, "noisy", "admin", secrets["noisy"]) as c:
                c.call("begin", mode="object")
                c.call("abort")
                with pytest.raises(QuotaExceededError):
                    c.call("begin", mode="object")
                # The refusal is marshalled transient over the wire.
                meter = c.call("tenant.meter")
                assert meter["usage"]["trips"]["txn_rate"] >= 1

    def test_bytes_quota_refuses_commit(self, tmp_path):
        tenants = [("tiny", TenantQuotas(max_bytes=64))]
        with running_hub(tmp_path, tenants) as (server, _, secrets):
            with connect(server, "tiny", "admin", secrets["tiny"]) as c:
                c.call("begin", mode="object")
                c.call("obj.put", value={"blob": "x" * 200})
                with pytest.raises(QuotaExceededError):
                    c.call("commit")
                # The transaction was aborted server-side; the session
                # is reusable and small writes still fit.
                c.call("begin", mode="object")
                c.call("obj.put", value={"s": 1})
                c.call("commit")

    def test_audit_trail_survives_server_restart(self, tmp_path):
        root = tmp_path / "hub"
        quotas = TenantQuotas(max_bytes=128)
        with running_hub(root, [("acme", quotas)]) as (server, _, secrets):
            secret = secrets["acme"]
            with connect(server, "acme", "admin", secret) as c:
                c.call("tenant.grant", principal="admin",
                       scope="_audit", right="read")
                with c.transaction("collection") as ct:
                    ct.create_collection("docs", "k")
                # Trip the stored-bytes quota so the restart check covers
                # all three audited families: auth, grant, and quota.
                c.call("begin", mode="object")
                c.call("obj.put", value={"blob": "x" * 400})
                with pytest.raises(QuotaExceededError):
                    c.call("commit")
        # Fresh hub + server over the same root: the audit collection is
        # ordinary durable tenant data.
        with running_hub(root) as (server, _hub, _):
            with connect(server, "acme", "admin", secret) as c:
                c.call("begin", mode="collection")
                rows = c.call("col.iterate", name="_audit")["values"]
                c.call("abort")
                events = [r["event"] for r in rows]
                assert "auth" in events
                assert "grant" in events
                assert "quota" in events
                # Sequence numbers keep ascending after restart.
                seqs = [r["seq"] for r in rows]
                assert seqs == sorted(seqs)
                meter = c.call("tenant.meter")
                assert meter["audit_records"] >= len(rows)

    def test_audit_needs_explicit_grant_and_stays_read_only(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            with connect(server, "acme", "admin", secrets["acme"]) as c:
                # Wildcard admin does not cover reserved scopes; the admin
                # can mint the explicit grant (tenant.grant needs admin).
                c.call("begin", mode="collection")
                with pytest.raises(PermissionDeniedError):
                    c.call("col.iterate", name="_audit")
                c.call("abort")
                c.call("tenant.grant", principal="admin",
                       scope="_audit", right="read")
                with c.transaction() as txn:
                    txn.put({"metered": True})
                c.call("begin", mode="collection")
                rows = c.call("col.iterate", name="_audit")["values"]
                c.call("abort")
                events = [r["event"] for r in rows]
                assert "auth" in events and "grant" in events
                # Reserved collections stay read-only over the wire.
                c.call("begin", mode="collection")
                with pytest.raises(PermissionDeniedError):
                    c.call("col.insert", name="_audit",
                           value={"event": "forged"})
                c.call("abort")
                meter = c.call("tenant.meter")
                assert meter["usage"]["commits"] >= 1
                assert meter["audit_records"] >= len(rows)

    def test_stats_count_sessions_and_release_on_disconnect(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, hub, secrets):
            c = connect(server, "acme", "admin", secrets["acme"])
            assert c.stats()["tenancy"]["tenants"]["acme"]["sessions"] == 1
            c.close()
            # The identity's quota slot frees when the connection drains.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                state = hub.registry.peek("acme")
                if state is not None and state.quota.sessions == 0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("session quota slot never released")

    def test_stats_payload_has_tenancy_section(self, tmp_path):
        with running_hub(tmp_path, [("acme", None)]) as (server, _, secrets):
            with connect(server, "acme", "admin", secrets["acme"]) as c:
                stats = c.stats()
                assert stats["tenancy"]["open"] >= 1
                assert "acme" in stats["tenancy"]["tenants"]

    def test_config_conflicts(self, tmp_path):
        from repro.db import Database

        hub = TenancyHub(str(tmp_path))
        db = Database.in_memory()
        try:
            with pytest.raises(ConfigError):
                TdbServer(db, tenancy=hub)
            with pytest.raises(ConfigError):
                TdbServer(None, tenancy=hub, read_only=True)
            with pytest.raises(ConfigError):
                TdbServer(None)
        finally:
            db.close()
            hub.close()


class TestHubGroupCommit:
    def test_two_sessions_of_one_tenant_share_one_chunk_commit(
        self, tmp_path, monkeypatch
    ):
        # A tenant database commits through its own coordinator, so two
        # of its sessions that commit at once cost one chunk-store
        # commit: one log append, one sync, one counter advance.
        monkeypatch.setattr(groupcommit, "MAX_DELAY", 10.0)
        with running_hub(tmp_path, [("acme", None)]) as (server, hub, secrets):
            clients = [connect(server, "acme", "admin", secrets["acme"]) for _ in range(2)]
            try:
                for i, client in enumerate(clients):
                    client.call("begin", mode="object")
                    client.call("obj.put", oid=None, value={"session": i})
                db = hub.registry.peek("acme").db
                assert db.object_store.writers == 2
                commits_before = db.stats().commits_total
                barrier = threading.Barrier(2)

                def commit(client):
                    barrier.wait()
                    client.call("commit")

                threads = [
                    threading.Thread(target=commit, args=(c,)) for c in clients
                ]
                started = time.monotonic()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive(), "a commit never returned"
                assert time.monotonic() - started < 5.0
                assert db.stats().commits_total == commits_before + 1
                assert db.object_store.writers == 0
            finally:
                for client in clients:
                    client.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTenantCli:
    def test_create_grant_revoke_meter_list(self, tmp_path, capsys):
        from repro.tools import main

        root = str(tmp_path)
        assert main(["tenant", "create", root, "acme",
                     "--max-sessions", "4"]) == 0
        out = capsys.readouterr().out
        assert "tenant acme created" in out
        assert "admin secret" in out
        assert main(["tenant", "list", root]) == 0
        assert "acme" in capsys.readouterr().out
        assert main(["tenant", "grant", root, "acme",
                     "writer", "docs", "write"]) == 0
        assert "new principal secret" in capsys.readouterr().out
        assert main(["tenant", "revoke", root, "acme",
                     "writer", "docs", "write"]) == 0
        assert "revoked 1 grant(s)" in capsys.readouterr().out
        assert main(["tenant", "meter", root, "acme"]) == 0
        out = capsys.readouterr().out
        assert '"max_sessions": 4' in out
        assert '"audit_records"' in out

    def test_duplicate_create_fails_cleanly(self, tmp_path, capsys):
        from repro.tools import main

        root = str(tmp_path)
        assert main(["tenant", "create", root, "acme"]) == 0
        capsys.readouterr()
        assert main(["tenant", "create", root, "acme"]) == 2
        assert "TenancyError" in capsys.readouterr().err

    def test_serve_tenants_flag(self, tmp_path):
        import threading

        from repro.tools import main, serve_database

        root = str(tmp_path)
        assert main(["tenant", "create", root, "acme"]) == 0
        bound = {}
        stop = threading.Event()

        def ready(host, port):
            bound["addr"] = (host, port)
            stop.set()

        rc = serve_database(root, "127.0.0.1", 0, tenants=True,
                            ready_callback=ready, stop_event=stop)
        assert rc == 0
        assert bound["addr"][1] > 0
