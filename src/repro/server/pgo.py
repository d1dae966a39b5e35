"""Background profile-guided optimization over the live image.

The paper's reflective loop (§4.1) run as a service: every execution
request — whether it returns, raises or runs out of steps — feeds its
per-closure invocation and instruction counts into one aggregate
:class:`~repro.obs.profile.ClosureProfile`.  The VM credits those once per
activation, so collecting them leaves the request in the compiled tier.
Periodically this worker takes the accumulated evidence, opens a *write*
transaction on the shared image and runs
:func:`repro.reflect.pgo.optimize_hot` on the measured-hottest stored
functions.  The rewritten code (and its new PTML) is committed to the
image, the compiled-code cache entries of the replaced functions are
invalidated, and the next ``call`` from any session links the optimized
code — the clients never stop, the code under them just gets faster.

Each round takes the profile with reset semantics, so evidence is spent
once: an already-optimized function must earn its next rewrite with fresh
measurements (``optimize_hot`` names regenerated code ``module.fn'``,
whose profile entries no longer match any export — no rewrite thrash).
"""

from __future__ import annotations

import threading

from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.reflect.pgo import PgoReport, optimize_hot

__all__ = ["PgoWorker"]

_ROUNDS = METRICS.counter("server.pgo.rounds", "completed background PGO rounds")
_RELINKED = METRICS.counter(
    "server.pgo.relinked", "stored functions replaced by background PGO"
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

        Takes the server's aggregated profile (reset semantics), rewrites
        up to ``top`` hot functions inside one write transaction, then
        invalidates their code-cache entries and persists the refreshed
        image-resident code table.
        """
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
                        relink=True,
                        facts=server.fact_store,
                    )
                    for candidate in report.selected:
                        server.invalidate_function(candidate.module, candidate.function)
                    server.code_cache.flush(server.heap)
                    server.fact_store.flush(server.heap)
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
