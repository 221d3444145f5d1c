"""Frontend parity: one scripted conversation, every frontend.

The session contract (who may send what, begin/commit/abort, commit
tokens, request replay, park/resume, parameter checking) lives in one
place, :mod:`repro.server.session`.  This suite plays the same raw-frame
conversation against the server over one database and the server as a
tenancy hub, and requires the transcripts to be *equal* — not merely
each one plausible.

Raw frames over a plain socket, no :class:`TdbClient`: its transparent
reconnect / resume / re-auth would paper over exactly the differences
this suite exists to catch.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import time

import pytest

from repro.db import Database
from repro.server import BackpressureConfig, TdbServer, protocol
from repro.server.protocol import VERBS
from repro.tenancy import TenancyHub, compute_proof

BACKPRESSURE = BackpressureConfig(
    idle_timeout=15.0, request_timeout=10.0, resume_grace=5.0
)

#: The session-level ``resilience`` counters every frontend must report
#: (and, the script being identical, report identically).
SESSION_COUNTERS = {
    "sessions_parked", "sessions_resumed", "resume_failures", "grace_expired",
    "request_replays", "commit_replays", "indoubt_hits", "indoubt_misses",
}
SESSION_KEYS = SESSION_COUNTERS | {
    "parked_sessions", "resume_grace", "epoch", "commit_tokens",
}

FRONTENDS = ["threaded", "threaded-hub"]

#: The per-store verbs' malformed-parameter rows (threaded server only).
STORE_VERB_ROWS = [
    ("proof.read", {"chunk_id": "abc"}),
    ("proof.absent", {"chunk_id": None}),
    ("repl.segments", {"segment": "x", "offset": 0, "length": 1}),
    ("repl.subscribe", {"last_generation": "new"}),
    ("log.consistency", {"from_index": "0", "to_index": 1}),
]

#: Verbs of the verb table this suite does not play, and why.
UNPLAYED = {
    "tenant.grant": "hub administration, answered differently by design "
                    "on each frontend; tests/test_tenancy.py plays it",
    "tenant.revoke": "as tenant.grant",
    "log.head": "has no parameter to get wrong; tests/test_proofs.py "
                "plays it against a signed head",
}


@contextlib.contextmanager
def frontend(kind: str, tmp_path):
    """Yield ``(server, secret)``; ``secret`` is the hub admin's or None."""
    root = str(tmp_path / kind)
    hub = secret = db = None
    if kind == "threaded-hub":
        hub = TenancyHub(root)
        secret = hub.create_tenant("acme", None)["secret"]
    else:
        db = Database.in_memory()
    server = TdbServer(db, backpressure=BACKPRESSURE, tenancy=hub)
    server.start()
    try:
        yield server, secret
    finally:
        server.stop()
        if hub is not None:
            hub.close()
        if db is not None:
            db.close()


class Wire:
    """One raw connection that records a normalised transcript."""

    def __init__(self, address, transcript, names):
        self.address = address
        self.transcript = transcript
        self.names = names  # volatile value -> stable placeholder
        self.sock = socket.create_connection(address, timeout=10.0)
        self.next_id = 1
        self.sent = set()  # every verb sent, recorded or not

    def reconnect(self) -> None:
        self.sock = socket.create_connection(self.address, timeout=10.0)

    def drop(self) -> None:
        """Kill the socket with an RST — the wire's view of a vanished
        peer, which is what makes the server park the session."""
        self.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        self.sock.close()

    def close(self) -> None:
        self.sock.close()

    def frame(self, op: str, **params):
        request = {"id": self.next_id, "op": op, **params}
        self.next_id += 1
        return request

    def send(self, request, record: bool = True):
        """Send one frame, return the raw response, record it normalised."""
        protocol.write_frame(self.sock, request)
        self.sent.add(request["op"])
        response = protocol.read_frame(self.sock, 10.0, 10.0)
        assert response is not None, f"connection closed on {request!r}"
        if record:
            self.transcript.append(
                (request["op"], self._normalise(response))
            )
        return response

    def call(self, op: str, **params):
        return self.send(self.frame(op, **params))

    def _placeholder(self, kind: str, value):
        key = (kind, value)
        if key not in self.names:
            count = sum(1 for k in self.names if k[0] == kind)
            self.names[key] = f"<{kind}{count}>"
        return self.names[key]

    def _normalise(self, response):
        if not response["ok"]:
            return (response["id"], response["error"], response["message"],
                    response["transient"])
        result = dict(response["result"])
        # hello's capability fields.
        for key in ("features", "absent_verbs"):
            result.pop(key, None)
        for key, kind in (("epoch", "epoch"), ("session", "session"),
                          ("oid", "oid"), ("challenge", "challenge")):
            if result.get(key) is not None:
                result[key] = self._placeholder(kind, result[key])
        return (response["id"], "ok", result)


def wait_for_parked(address, count: int) -> None:
    """Poll ``stats`` (a pre-auth verb) until ``count`` sessions are parked."""
    deadline = time.monotonic() + 10.0
    while True:
        with socket.create_connection(address, timeout=10.0) as sock:
            protocol.write_frame(sock, {"id": 1, "op": "stats"})
            stats = protocol.read_frame(sock, 10.0, 10.0)["result"]
        if stats["resilience"]["parked_sessions"] == count:
            return
        assert time.monotonic() < deadline, "the dropped session never parked"
        time.sleep(0.05)


def play(kind: str, tmp_path):
    """Run the script; returns ``(hub prologue, transcript, resilience,
    verbs sent)``."""
    with frontend(kind, tmp_path) as (server, secret):
        transcript = []
        wire = Wire(server.address, transcript, {})

        # -- hub prologue: the pre-auth gate, auth, a per-store verb ------
        if secret is not None:
            wire.call("obj.get", oid=1)            # data verb before auth
            wire.call("repl.master")               # the auth gate comes first
            wire.call("tenant.meter")
            challenge = wire.call("auth", tenant="acme", principal="admin")
            proof = compute_proof(secret, challenge["result"]["challenge"])
            wire.call("auth", tenant="acme", principal="admin", proof=proof)
            wire.call("repl.subscribe")            # authenticated: unavailable
            wire.call("proof.read", chunk_id="abc")
        prologue, transcript[:] = list(transcript), []
        wire.next_id = 1  # so the common script's ids line up everywhere

        # -- hello, verbs out of order ------------------------------------
        wire.call("hello")
        wire.call("obj.get", oid=1)                # data verb before begin
        wire.call("commit")                        # nothing open
        wire.call("commit", token="ghost")         # ...and the token is freed
        wire.call("commit.result", token="ghost")
        wire.call("abort")                         # nothing open
        wire.call("begin", mode="sideways")
        wire.call("begin", mode="object")
        wire.call("begin", mode="object")          # begin twice

        # -- put / bind / tokened commit, re-sent ------------------------
        oid = wire.call("obj.put", oid=None, value={"n": 1})["result"]["oid"]
        wire.call("name.bind", name="parity", oid=oid)
        wire.call("commit", token=7)               # mistyped: txn stays open
        wire.call("commit", durable=True, token="tok-1")
        wire.call("commit", durable=True, token="tok-1")   # new id: replayed
        wire.call("commit.result", token="tok-1")
        wire.call("commit.result", token="never-seen")
        wire.call("commit.result")                 # missing parameter

        # -- malformed parameters: answered, connection and txn survive ---
        wire.call("begin", mode="object")
        wire.call("obj.get", oid="abc")
        wire.call("obj.put", oid="abc", value=1)
        wire.call("obj.remove", oid=[1])
        wire.call("obj.get", oid=True)
        wire.call("obj.get", oid=None)
        wire.call("obj.get")
        wire.call("name.bind", name="x", oid="abc")
        wire.call("name.lookup", name=5)
        wire.call("obj.get", oid=oid)              # the transaction still works
        wire.call("name.lookup", name="parity")
        wire.call("commit")

        # -- collection verbs ---------------------------------------------
        wire.call("begin", mode="collection")
        wire.call("col.create", name="docs", field="k")
        wire.call("col.insert", name="docs", value={"k": 1, "v": "a"})
        wire.call("col.insert", name="docs", value={"k": 2, "v": "b"})
        wire.call("col.get", name="docs", key=1)
        wire.call("col.iterate", name="docs", lo=1, hi=2)
        wire.call("col.remove", name="docs", key=2)
        wire.call("obj.get", oid=oid)              # wrong transaction mode
        wire.call("commit")

        # -- drop mid-transaction, resume, re-send the in-flight request --
        session = wire.call("begin", mode="object")["result"]["session"]
        in_flight = wire.frame("obj.put", oid=None, value={"n": 2})
        first = wire.send(in_flight)
        wire.drop()
        wait_for_parked(server.address, 1)
        wire.reconnect()
        wire.call("session.resume", session=session)
        again = wire.send(in_flight)               # replayed, not re-executed
        assert again == first
        wire.call("abort")
        wire.call("session.resume", session=session)       # single use
        wire.call("session.resume", session="no-such-token")
        wire.call("session.resume", session=12)

        stats = wire.send(wire.frame("stats"), record=False)["result"]
        wire.close()
        return prologue, transcript, stats["resilience"], wire.sent


@pytest.fixture(scope="module")
def played(tmp_path_factory):
    return {
        kind: play(kind, tmp_path_factory.mktemp(kind.replace("-", "_")))
        for kind in FRONTENDS
    }


class TestFrontendParity:
    @pytest.mark.parametrize("kind", FRONTENDS[1:])
    def test_transcript_equals_the_threaded_servers(self, played, kind):
        assert played[kind][1] == played["threaded"][1]

    def test_hub_prologue_gates_auth_then_store_verbs(self, played):
        outcomes = [row[1][1] for row in played["threaded-hub"][0]]
        assert outcomes == [
            "AuthRequiredError", "AuthRequiredError", "AuthRequiredError",
            "ok", "ok", "FeatureUnavailableError", "FeatureUnavailableError",
        ]

    def test_malformed_parameters_answer_protocol_error(self, played):
        transcript = played["threaded"][1]
        start = next(
            i for i, (op, row) in enumerate(transcript)
            if op == "obj.get" and "abc" in str(row)
        )
        malformed = transcript[start:start + 8]
        assert [row[1] for _op, row in malformed] == ["ProtocolError"] * 8
        assert all(row[3] is False for _op, row in malformed)  # not transient
        # ...and the same transaction served the next request.
        assert transcript[start + 8][1][1] == "ok"

    @pytest.mark.parametrize("kind", FRONTENDS)
    def test_resilience_has_the_session_level_keys(self, played, kind):
        resilience = played[kind][2]
        assert SESSION_KEYS <= set(resilience)
        reference = played["threaded"][2]
        for name in SESSION_COUNTERS:
            assert resilience[name] == reference[name], name
        assert resilience["sessions_parked"] == 1
        assert resilience["sessions_resumed"] == 1
        assert resilience["resume_failures"] == 2
        assert resilience["request_replays"] == 1
        assert resilience["commit_replays"] == 1


class TestStoreVerbParameters:
    """The per-store verbs exist only on the threaded server, so their
    malformed-parameter rows cannot be a parity check."""

    def test_malformed_store_verb_parameters_keep_the_connection(self):
        db = Database.in_memory()
        server = TdbServer(db, backpressure=BACKPRESSURE).start()
        try:
            transcript = []
            wire = Wire(server.address, transcript, {})
            for op, params in STORE_VERB_ROWS:
                wire.call(op, **params)
            assert [row[1] for _op, row in transcript] == ["ProtocolError"] * 5
            assert wire.call("hello")["ok"]
            wire.close()
        finally:
            server.stop()
            db.close()


class TestVerbCoverage:
    def test_every_table_verb_is_played_or_excused(self, played):
        sent = {op for op, _params in STORE_VERB_ROWS}
        for kind in FRONTENDS:
            sent |= played[kind][3]
        assert set(VERBS) - sent == set(UNPLAYED)
