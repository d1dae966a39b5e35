"""Background profile-guided optimization over the live image.

The paper's reflective loop (§4.1) run as a service: every execution
request — whether it returns, raises or runs out of steps — feeds its
per-closure invocation and instruction counts into one aggregate
:class:`~repro.obs.profile.ClosureProfile`.  The VM credits those once per
activation, so collecting them leaves the request in the compiled tier.
Periodically this worker takes the accumulated evidence, opens a *write*
transaction on the shared image and runs
:func:`repro.reflect.pgo.optimize_hot` on the measured-hottest stored
functions.  Each result is written into its module's record as the
function's variant and the transaction commits it, like any redefinition:
the next ``call`` from any session links the optimized code, and so do a
restart and a replica — the clients never stop, the code under them just
gets faster.

Each round takes the profile with reset semantics, so evidence is spent
once.  A variant's code is named ``module.fn'``, whose profile entries
match no export, and a function running its variant is not optimized
again — no rewrite thrash.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

if TYPE_CHECKING:
    from repro.reflect.pgo import PgoReport

__all__ = ["PgoWorker"]

_ROUNDS = METRICS.counter("server.pgo.rounds", "completed background PGO rounds")
_RELINKED = METRICS.counter(
    "server.pgo.relinked", "variants background PGO wrote into the image"
)
_ERRORS = METRICS.counter("server.pgo.errors", "background PGO rounds that failed")
_SKIPPED = METRICS.counter(
    "server.pgo.skipped", "PGO wakeups with no profile evidence to act on"
)

#: per round: rewrite at most this many functions, and only those that
#: executed at least this many instructions since the last round
TOP = 2
MIN_INSTRUCTIONS = 1_000


class PgoWorker:
    """Optimize-the-hot-functions worker over a :class:`ReproServer`.

    The daemon runs :meth:`tick` on its periodic runner every
    ``pgo_interval`` seconds; rounds can also be driven explicitly through
    :meth:`run_round` (the ``pgo`` op uses this for deterministic tests
    and demos).
    """

    def __init__(self, server):
        self.server = server
        self._lock = threading.Lock()  # one round at a time (timer vs. op)
        self.rounds = 0
        self.relinked = 0
        self.errors = 0
        self.last_selected: list[str] = []

    def tick(self) -> None:
        if self.server.health.shedding:
            # load shedding: optimizing code is the first work to drop
            # when disk or memory is scarce
            _SKIPPED.inc()
            return
        self.run_round()

    # ---------------------------------------------------------------- round

    def run_round(
        self, top: int | None = None, min_instructions: int = MIN_INSTRUCTIONS
    ) -> PgoReport | None:
        """Run one optimization round now; None when there was no evidence.

        Takes the server's aggregated profile (reset semantics) and
        rewrites up to ``top`` hot functions inside one write transaction,
        which commits their variants.
        """
        # the reflective optimizer loads with the first round, not the daemon
        from repro.reflect.pgo import optimize_hot

        server = self.server
        with self._lock:
            profile = server.take_profile()
            if not profile.closures:
                _SKIPPED.inc()
                return None
            try:
                with server.txns.write():
                    report = optimize_hot(
                        server.system,
                        profile,
                        top=TOP if top is None else top,
                        min_instructions=min_instructions,
                    )
            except Exception:
                self.errors += 1
                _ERRORS.inc()
                raise
            self.rounds += 1
            _ROUNDS.inc()
            self.relinked += len(report.selected)
            _RELINKED.inc(len(report.selected))
            self.last_selected = [c.qualified for c in report.selected]
            TRACER.event(
                "server.pgo.round",
                selected=self.last_selected,
                profiled=len(profile.closures),
            )
            return report

    def stats(self) -> dict:
        return {
            "rounds": self.rounds,
            "relinked": self.relinked,
            "errors": self.errors,
            "last_selected": list(self.last_selected),
            "interval": self.server.config.pgo_interval,
            "paused": self.server.health.shedding,
        }
