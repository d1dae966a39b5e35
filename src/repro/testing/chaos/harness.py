"""The one live-cluster harness: daemons, links, a write ledger, a verdict.

Every live-daemon suite is the same experiment: spawn real
:class:`~repro.server.daemon.ReproServer` instances in-process on
loopback, drive a workload while faults are injected, record exactly
which writes were *acknowledged*, then stop everything and compare the
images with the record.  :class:`Cluster` is that experiment's fixed
part:

* named daemons spawned from one table of :data:`DEFAULTS`, optionally
  reached through :class:`~repro.testing.chaos.proxy.ChaosProxy` links
  (:meth:`Cluster.link`) and/or opened over a
  :class:`~repro.store.faults.FaultPlan` ``io_factory`` (a spawn override);
* ``kill`` (graceful ``stop()`` or SIGKILL-like ``crash()``), ``restart``
  in the previous role on the previous port, ``teardown``;
* the :class:`Ledger` — per key, every value a write was *attempted* with
  and the last one the server *acknowledged* (an ``ok`` response: a typed
  rejection, a timeout or a dead socket is not an ack);
* the post-mortem :meth:`Cluster.verify`: every live node's image passes
  ``fsck`` clean and holds the ledger — no acknowledged write lost, no
  value nobody attempted.

The suites configure it (:mod:`.replication` adds roles and promotion,
:mod:`.exhaustion` a fault plan under the pager, :mod:`.recovery` a
replicating primary; :mod:`.sharding` composes several groups and a
coordinator) and add the invariants only they can state.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Mapping

from repro.server.client import ClientError, ServerError
from repro.server.daemon import ReproServer, ServerConfig
from repro.store.fsck import fsck_image
from repro.store.heap import ObjectHeap
from repro.testing.chaos.proxy import ChaosProxy
from repro.testing.chaos.runner import InvariantViolation

__all__ = ["DEFAULTS", "Cluster", "Ledger", "read_roots"]

#: what every harness daemon runs with unless the suite overrides it: a
#: small pool, a short lock timeout, and every background writer (PGO,
#: profiling, history snapshots) off — the only commits in an image are
#: the workload's own
DEFAULTS: Mapping[str, Any] = {
    "workers": 2,
    "queue_size": 32,
    "lock_timeout": 5.0,
    "pgo_interval": None,
    "profile": False,
    "history_interval": None,
}


class Ledger:
    """What the workload was told: attempts and acknowledgements per key.

    Values are ints (or any codec-native value) for the single-key
    suites and whole ``{root: value}`` batches, keyed by batch index, for
    sharding.  Attempts are kept in submission order, so "at or after the
    acknowledged write" needs no ordering on the values themselves.
    """

    def __init__(self) -> None:
        self.attempted: dict[Any, list] = {}
        self.acked: dict[Any, Any] = {}
        self._lock = threading.Lock()

    def attempt(self, key, value) -> None:
        with self._lock:
            self.attempted.setdefault(key, []).append(value)

    def ack(self, key, value) -> None:
        with self._lock:
            self.acked[key] = value

    def record(self, key, value) -> None:
        """A write the scenario made itself and saw succeed."""
        self.attempt(key, value)
        self.ack(key, value)

    def check(self, final: Mapping, where: str) -> int:
        """``final`` (key → value, absent if unbound) must hold, for every
        acknowledged key, the acknowledged value or one attempted later:
        an earlier one means an acked write was rolled back (lost); a
        later one is legal only for a post-commit-point failure (durable
        but unacked); a value never attempted means corruption."""
        for key, acked in self.acked.items():
            if key not in final:
                raise InvariantViolation(
                    f"{where}: acked write lost: {key!r} is missing"
                )
            value, tries = final[key], self.attempted[key]
            if value not in tries:
                raise InvariantViolation(
                    f"{where}: {key!r} holds {value!r}, which no attempt ever wrote"
                )
            if _last_index(tries, value) < _last_index(tries, acked):
                raise InvariantViolation(
                    f"{where}: acked write lost: {key!r} is {value!r}, "
                    f"last acked was {acked!r}"
                )
        return len(self.acked)


def _last_index(values: list, value) -> int:
    return len(values) - 1 - values[::-1].index(value)


def read_roots(image: str, names) -> dict:
    """The named roots' values in a closed image; unbound names omitted."""
    heap = ObjectHeap(image)
    try:
        bound = set(heap.root_names())
        return {name: heap.load_root(name) for name in names if name in bound}
    finally:
        heap.close()


class Cluster:
    """Named in-process daemons under one scratch directory."""

    def __init__(self, root: str):
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.servers: dict[str, ReproServer] = {}
        self.live: set[str] = set()
        self.proxies: dict[str, ChaosProxy] = {}
        self.ledger = Ledger()
        self._overrides: dict[str, dict] = {}

    # ------------------------------------------------------------- lifecycle

    def image(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.tyc")

    def spawn(self, name: str, port: int = 0, **overrides) -> ReproServer:
        """Start daemon ``name`` over ``<root>/<name>.tyc``; the overrides
        are remembered so :meth:`restart` brings it back in the same role."""
        self._overrides[name] = overrides
        config = ServerConfig(
            **{**DEFAULTS, "node_id": name, "port": port, **overrides}
        )
        server = ReproServer(self.image(name), config)
        server.start()
        self.servers[name] = server
        self.live.add(name)
        return server

    def link(self, name: str, port: int) -> ChaosProxy:
        """A fault-injectable relay to loopback ``port``, closed at teardown."""
        proxy = self.proxies[name] = ChaosProxy(("127.0.0.1", port))
        return proxy

    def kill(self, name: str, crash: bool = False) -> None:
        server = self.servers[name]
        if crash:
            server.crash()
        else:
            server.stop()
        self.live.discard(name)

    def restart(self, name: str) -> ReproServer:
        """Bring a node back in its previous role, on its old port."""
        old = self.servers[name]
        try:  # make sure the old state is down: a failpoint crash() runs
            old.stop()  # on a background thread and may still be in flight
        except Exception:
            pass
        deadline = time.monotonic() + 15.0
        while True:
            try:
                return self.spawn(name, port=old.port, **self._overrides[name])
            except OSError:  # the old listener has not released the port yet
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)

    def teardown(self) -> None:
        """Best-effort cleanup on every exit path, the failing ones included."""
        for server in self.servers.values():
            try:
                server.stop()
            except Exception:
                pass
        self.live.clear()
        for proxy in self.proxies.values():
            proxy.close()

    # -------------------------------------------------------------- workload

    def write(self, db, key: str, value) -> bool:
        """One ledgered ``set``; acknowledged only on an ``ok`` response."""
        self.ledger.attempt(key, value)
        try:
            db.set(key, value)
        except (ClientError, ServerError):
            return False  # not acknowledged: the write may or may not exist
        self.ledger.ack(key, value)
        return True

    # ------------------------------------------------------------ post-mortem

    def verify(self) -> dict:
        """Stop everything; every node live until now must have left an
        fsck-clean image that holds the ledger."""
        live = sorted(self.live)
        for server in self.servers.values():
            server.stop()  # unlike teardown's: a failing shutdown is a finding
        self.live.clear()
        for name in live:
            result = fsck_image(self.image(name))
            if not result.ok:
                raise InvariantViolation(
                    f"fsck {name}: " + "; ".join(f.message for f in result.errors)
                )
            self.ledger.check(read_roots(self.image(name), self.ledger.acked), name)
        return {"acked_writes": len(self.ledger.acked), "fsck": "clean"}
