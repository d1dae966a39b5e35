"""A stateful model of code in one file image: definitions, calls and PGO.

A :class:`TycoonSystem` over a file image is driven through redefining
``lib`` (a function and a constant ``app`` reads) and ``app`` (each
persisted), calls of ``app.g``, profile-guided
optimization rounds and commit + reopen.  The oracle is a fresh
``TycoonSystem`` compiled from the latest sources: every call answers what
it answers.  A reopen is a restart, so it keeps what a call runs, to the
instruction; and after a round that gave ``app.g`` a variant, with no
redefinition since, the call runs that variant — in this process and after
a reopen.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.lang import TycoonSystem
from repro.obs.profile import ClosureProfile, profile_call
from repro.reflect import optimize_hot
from repro.store.heap import ObjectHeap

LIB = "module lib export f c let c = {c} let f(n: Int): Int = n * {k} + 1 end"
APPS = {
    "loop": """module app export g import lib
        let g(n: Int): Int =
          var s := 0 in var i := 0 in
          begin while i < n do begin s := s + lib.f(i) + lib.c; i := i + 1 end end; s end
        end""",
    "twice": """module app export g import lib
        let g(n: Int): Int = lib.f(n) + lib.f(n + 1)
        end""",
    "sibling": """module app export g h import lib
        let h(n: Int): Int = lib.f(n) * 2 + lib.c
        let g(n: Int): Int = h(n) + h(1)
        end""",
}

_ORACLES: dict = {}


def oracle(lib: tuple[int, int], app: str, n: int):
    """``app.g(n)`` in a fresh system compiled from these sources."""
    system = _ORACLES.get((lib, app))
    if system is None:
        system = _ORACLES[(lib, app)] = TycoonSystem()
        system.compile(LIB.format(k=lib[0], c=lib[1]))
        system.compile(APPS[app])
    return system.call("app", "g", [n]).value


class CodeModel(RuleBasedStateMachine):
    #: rounds, over the whole run, that gave app.g a variant
    optimized_rounds = 0

    def __init__(self):
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="code-model-")
        self.path = f"{self.workdir}/image.tyc"
        self.system = TycoonSystem(heap=ObjectHeap(self.path))
        self.profile = ClosureProfile()
        #: app.g has a variant from a round, and nothing was redefined since
        self.optimized = False

    @initialize(k=st.integers(1, 3), c=st.integers(0, 2), app=st.sampled_from(sorted(APPS)))
    def define(self, k, c, app):
        self.define_lib(k, c)
        self.define_app(app)

    def teardown(self):
        self.system.heap.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    @rule(k=st.integers(1, 3), c=st.integers(0, 2))
    def define_lib(self, k, c):
        self.system.compile(LIB.format(k=k, c=c))
        self.system.persist("lib")
        self.lib, self.optimized = (k, c), False

    @rule(c=st.integers(0, 2))
    def define_lib_constant(self, c):
        """Redefine ``lib`` with its function's source unchanged."""
        self.define_lib(self.lib[0], c)

    @rule(app=st.sampled_from(sorted(APPS)))
    def define_app(self, app):
        if "lib" not in self.system.interfaces:
            # interfaces are not stored: a reopened system type-checks an
            # import against lib only once it compiled lib's source again
            # (a redefinition: lib's variant, if any, is gone)
            self.system.compile(LIB.format(k=self.lib[0], c=self.lib[1]))
            self.system.persist("lib")
        self.system.compile(APPS[app])
        self.system.persist("app")
        self.app, self.optimized = app, False

    @rule(n=st.integers(0, 12))
    def call(self, n):
        result, _ = profile_call(self.system, "app", "g", [n], profiler=self.profile)
        assert result.value == oracle(self.lib, self.app, n)
        assert result.value == self.system.call("app", "g", [n]).value
        if self.optimized:
            assert self.system.closure("app", "g").code.name == "app.g'"

    @rule(top=st.integers(1, 2), n=st.integers(0, 12))
    def pgo(self, top, n):
        """A round over the profile of the calls since the last round, a
        call of ``app.g(n)`` included."""
        self.call(n)
        report = optimize_hot(self.system, self.profile, top=top)
        self.profile = ClosureProfile()
        assert set(report.refused.values()) <= {"it runs its variant"}
        if "app.g" in {c.qualified for c in report.selected}:
            self.optimized = True
            CodeModel.optimized_rounds += 1

    @rule(n=st.integers(0, 12))
    def commit_and_reopen(self, n):
        self.system.commit()
        before = self.system.call("app", "g", [n])
        self.system.heap.close()
        self.system = TycoonSystem(heap=ObjectHeap(self.path))
        after = self.system.call("app", "g", [n])
        assert (after.value, after.instructions) == (before.value, before.instructions)
        assert after.value == oracle(self.lib, self.app, n)
        if self.optimized:
            assert self.system.closure("app", "g").code.name == "app.g'"


def test_code_in_an_image_follows_the_model():
    CodeModel.optimized_rounds = 0
    run_state_machine_as_test(
        CodeModel,
        settings=settings(
            max_examples=50, stateful_step_count=25, deadline=None, derandomize=True
        ),
    )
    assert CodeModel.optimized_rounds > 5
