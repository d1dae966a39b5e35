"""A fault-injecting TCP relay: the link a chaos scenario cuts.

Replication links and coordinator→shard links are routed through a
:class:`ChaosProxy` each, so a scenario can partition, slow, truncate or
reset exactly one link while the daemons on both ends stay up.  Faults:
``blackhole`` (partition: packets silently stop), ``delay`` (slow link),
``truncate`` (connection cut mid-frame after N bytes), ``drop-connect``
(existing connections killed and new ones refused), ``reset`` (one-shot
connection kill, immediate reconnect allowed).
"""

from __future__ import annotations

import socket
import threading
import time

from repro.obs.metrics import METRICS

__all__ = ["ChaosProxy"]

_FAULTS = METRICS.counter("chaos.proxy.faults", "link faults injected")

_CHUNK = 4096


class ChaosProxy:
    """A fault-injecting TCP relay for one link."""

    def __init__(self, target: tuple[str, int]):
        self.target = target  # mutable: restarts may move the upstream
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._closed = False
        # fault state (all cleared by heal())
        self.drop_connect = False
        self.blackhole = False
        self.delay = 0.0
        self.truncate_after: int | None = None
        threading.Thread(
            target=self._accept_loop, name="chaos-proxy", daemon=True
        ).start()

    # ---------------------------------------------------------------- faults

    def inject(self, kind: str, **params) -> None:
        """Arm one fault; kinds double as scenario labels."""
        _FAULTS.inc()
        if kind == "blackhole":
            self.blackhole = True
        elif kind == "delay":
            self.delay = float(params.get("seconds", 0.05))
        elif kind == "truncate":
            self.truncate_after = int(params.get("after_bytes", 64))
            self.kill_connections()  # next connection hits the budget
        elif kind == "drop-connect":
            self.drop_connect = True
            self.kill_connections()
        elif kind == "reset":
            self.kill_connections()  # one-shot: reconnect succeeds
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    def heal(self) -> None:
        self.drop_connect = False
        self.blackhole = False
        self.delay = 0.0
        self.truncate_after = None

    def kill_connections(self) -> None:
        with self._lock:
            victims = list(self._conns)
            self._conns.clear()
        for sock in victims:
            # shutdown, not just close: a pump thread blocked in recv holds
            # the file description open, so close() alone would never send
            # FIN and the peers would block forever on a dead link
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    # --------------------------------------------------------------- pumping

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            if self.drop_connect:
                client.close()
                continue
            try:
                upstream = socket.create_connection(self.target, timeout=5.0)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._conns.add(client)
                self._conns.add(upstream)
            budget = [self.truncate_after]  # shared by both directions
            for a, b in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump, args=(a, b, budget), daemon=True
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket, budget: list) -> None:
        try:
            while True:
                chunk = src.recv(_CHUNK)
                if not chunk:
                    break
                while self.blackhole and not self._closed:
                    time.sleep(0.02)  # partition: hold the data back
                if self.delay:
                    time.sleep(self.delay)
                if budget[0] is not None:
                    if len(chunk) >= budget[0]:
                        # forward the final partial bytes, then cut the
                        # connection: the receiver holds a torn frame
                        dst.sendall(chunk[: budget[0]])
                        break
                    budget[0] -= len(chunk)
                dst.sendall(chunk)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                with self._lock:
                    self._conns.discard(sock)
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        self.kill_connections()
