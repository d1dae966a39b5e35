"""RetryPolicy unit tests: backoff/jitter bounds and idempotent-only
replay, deterministic via an injected seeded RNG.

The replay tests drive :meth:`Client._invoke` against a stubbed
``request`` so the retry decision logic is exercised without sockets;
the ones about rejections and deadlines run against both clients — a
:class:`ClusterClient` over stubbed per-endpoint clients goes through
the same loop.
"""

import random

import pytest

from repro.server import protocol
from repro.server.client import (
    BusyError,
    Client,
    ClusterClient,
    ConnectionLost,
    DeadlineExceeded,
    RetryPolicy,
    ServerError,
    StaleReadError,
)


def make_client(policy):
    """A Client with no socket — only the retry layer is under test."""
    client = Client.__new__(Client)
    client.retry = policy
    client.deadline = None
    client.trace_sample = 0.0  # keep retry-layer tests stamp-free
    client._trace_rng = random.Random(0)
    client._closed = False
    client._in_txn = False
    client.sock = object()  # non-None: request() is stubbed anyway
    return client


class Direct:
    """``Client._invoke`` over a stubbed ``request``."""

    def __init__(self, policy):
        self.client = make_client(policy)

    def stub(self, request):
        self.client.request = request

    def set(self, **kw):
        return self.client._invoke("set", root="x", value=1, **kw)

    def get(self, **kw):
        return self.client._invoke("get", roots=["x"], **kw)


class Routed:
    """A ``ClusterClient`` whose one endpoint is a stubbed client."""

    ENDPOINT = ("stub", 1)

    def __init__(self, policy):
        self.cluster = ClusterClient([self.ENDPOINT], retry=policy, trace_sample=0.0)
        self.client = self.cluster._clients[self.ENDPOINT] = make_client(None)
        self.cluster._primary = self.ENDPOINT

    def stub(self, request):
        self.client.request = request

    def set(self, **kw):
        return self.cluster.set("x", 1, **kw)

    def get(self, **kw):
        return self.cluster.get("x", **kw)


both_clients = pytest.mark.parametrize("harness", [Direct, Routed])


class TestBackoffBounds:
    def test_delay_is_within_jitter_envelope(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.5,
            rng=random.Random(42),
        )
        for attempt in range(1, 12):
            raw = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            delay = policy.delay(attempt)
            # full-jitter envelope: [raw * (1 - jitter), raw]
            assert raw * 0.5 <= delay <= raw

    def test_delay_caps_at_max_delay(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=10.0, max_delay=0.7, jitter=0.0,
            rng=random.Random(7),
        )
        assert policy.delay(50) == pytest.approx(0.7)

    def test_seeded_rng_makes_delays_reproducible(self):
        a = RetryPolicy(jitter=0.5, rng=random.Random(123))
        b = RetryPolicy(jitter=0.5, rng=random.Random(123))
        assert [a.delay(i) for i in range(1, 8)] == [
            b.delay(i) for i in range(1, 8)
        ]

    def test_zero_jitter_is_deterministic_without_rng(self):
        policy = RetryPolicy(base_delay=0.05, multiplier=2.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.1)


class TestIdempotentReplay:
    FAST = dict(base_delay=0.0, max_delay=0.0, jitter=0.0)

    def test_connection_lost_replays_only_idempotent_ops(self):
        policy = RetryPolicy(max_attempts=4, rng=random.Random(1), **self.FAST)
        client = make_client(policy)
        calls = []

        def flaky(op, **operands):
            calls.append(op)
            raise ConnectionLost("link died mid-request")

        client.request = flaky
        # idempotent: replayed until the budget is exhausted
        with pytest.raises(ConnectionLost):
            client._invoke("get", roots=["x"])
        assert calls == ["get"] * 4
        # mutating: the first attempt may have committed — never replayed
        calls.clear()
        with pytest.raises(ConnectionLost):
            client._invoke("set", root="x", value=1)
        assert calls == ["set"]

    @both_clients
    def test_rejections_are_replayed_even_for_writes(self, harness):
        policy = RetryPolicy(max_attempts=3, rng=random.Random(1), **self.FAST)
        client = harness(policy)
        calls = []

        def busy_then_ok(op, **operands):
            calls.append(op)
            if len(calls) < 3:
                raise BusyError(protocol.E_BUSY, "lock timeout")
            return {"oid": 5}

        client.stub(busy_then_ok)
        # busy is a pre-execution rejection: side-effect-free to retry
        assert client.set() == {"oid": 5}
        assert calls == ["set"] * 3

    def test_no_replay_inside_explicit_transaction(self):
        policy = RetryPolicy(max_attempts=5, rng=random.Random(1), **self.FAST)
        client = make_client(policy)
        client._in_txn = True
        calls = []

        def flaky(op, **operands):
            calls.append(op)
            raise ConnectionLost("link died")

        client.request = flaky
        with pytest.raises(ConnectionLost):
            client._invoke("get", roots=["x"])
        assert calls == ["get"]  # replay would drop earlier txn effects

    @both_clients
    def test_client_side_deadline_stops_retries(self, harness):
        policy = RetryPolicy(
            max_attempts=50, base_delay=0.02, max_delay=0.02, jitter=0.0,
            multiplier=1.0, rng=random.Random(1),
        )
        client = harness(policy)
        seen = []

        def flaky(op, **operands):
            seen.append(operands.get("deadline"))
            raise BusyError(protocol.E_BUSY, "lock timeout")

        client.stub(flaky)
        with pytest.raises(DeadlineExceeded):
            client.get(deadline=0.05)
        # far fewer than 50 attempts: the 50ms budget ran out first,
        # and every attempt shipped its remaining budget to the server
        assert 1 <= len(seen) < 50
        assert all(d is not None and d <= 0.05 for d in seen)


class TestClusterClassifiesByTheErrorTable:
    """A primary + replica cluster of stubbed clients: which failures move
    a read to the next node is the error table's call, not a catch-all."""

    PRIMARY, REPLICA = ("stub", 1), ("stub", 2)

    def make_cluster(self, answers):
        """``answers`` maps endpoint → what its ``get`` raises or returns."""
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0, jitter=0.0)
        cluster = ClusterClient(
            [self.PRIMARY, self.REPLICA], retry=policy, trace_sample=0.0
        )
        requests = []
        for endpoint, answer in answers.items():
            client = cluster._clients[endpoint] = make_client(None)

            def request(op, endpoint=endpoint, answer=answer, **operands):
                requests.append((endpoint, op))
                if isinstance(answer, Exception):
                    raise answer
                return answer

            client.request = request
        cluster._primary, cluster._replicas = self.PRIMARY, [self.REPLICA]
        cluster.discover = lambda: pytest.fail("a final answer needs no rediscovery")
        return cluster, requests

    def test_a_deterministic_error_is_final_on_the_first_endpoint(self):
        missing = ServerError(protocol.E_NOT_FOUND, "unknown root 'missing'")
        cluster, requests = self.make_cluster(
            {self.REPLICA: missing, self.PRIMARY: missing}
        )
        with pytest.raises(ServerError) as err:
            cluster.get("missing")
        assert err.value.code == protocol.E_NOT_FOUND
        # one request, to the replica; its healthy connection is kept
        assert requests == [(self.REPLICA, "get")]
        assert set(cluster._clients) == {self.PRIMARY, self.REPLICA}

    def test_an_endpoint_error_moves_to_the_next_candidate(self):
        stale = StaleReadError(protocol.E_STALE_READ, "replica is behind")
        cluster, requests = self.make_cluster(
            {self.REPLICA: stale, self.PRIMARY: {"values": {"x": 7}}}
        )
        assert cluster.get("x", min_version=3) == {"x": 7}
        assert requests == [(self.REPLICA, "get"), (self.PRIMARY, "get")]
        assert set(cluster._clients) == {self.PRIMARY, self.REPLICA}
