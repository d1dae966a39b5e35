"""The daemon's one background-task runner.

Everything the daemon does on a timer — history, reaper, degraded probe,
scrub, memory watchdog, PGO, the coordinator's resolver — is a
:class:`Periodic`.  The server starts them from one list and stops *and
joins* them before it closes the heap: no tick runs on a closed image.
"""

from __future__ import annotations

import sys
import threading
import traceback
from typing import Callable

from repro.obs.trace import TRACER

__all__ = ["Periodic"]


class Periodic(threading.Thread):
    """Call ``tick()`` every ``interval`` seconds on a thread named ``name``.

    ``interval`` may be reassigned while running and ``None`` means "only
    when woken".  A tick that raises is logged and the task carries on.
    """

    def __init__(self, name: str, interval: float | None, tick: Callable[[], None]):
        super().__init__(name=name, daemon=True)
        self.interval = interval
        self.tick = tick
        self._wake = threading.Event()
        self._stopping = False

    def wake(self) -> None:
        """Run the next tick now instead of after the interval."""
        self._wake.set()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop and join (bounded); a tick in flight finishes first."""
        self._stopping = True
        self._wake.set()
        self.join(timeout)

    def _sleep(self) -> bool:
        """Wait one interval or until woken; True once stopped."""
        self._wake.wait(self.interval)
        # clear before reading the flag: stop() sets the flag first, so a
        # stop racing this clear is either seen here or re-sets the event
        self._wake.clear()
        return self._stopping

    def run(self) -> None:
        while not self._sleep():
            try:
                self.tick()
            except Exception as exc:  # a bad tick must not kill the task
                traceback.print_exc(file=sys.stderr)
                TRACER.event(
                    "server.periodic.error", task=self.name,
                    error=f"{type(exc).__name__}: {exc}",
                )
