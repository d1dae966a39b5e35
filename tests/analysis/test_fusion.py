"""Tests for the fusion-safety certifier over profiled opcode pairs."""

import pytest

from repro.analysis.fusion import (
    FusionReport,
    certify_pair,
    certify_pairs,
    certify_profile,
)
from repro.bench.stanford import PROGRAMS
from repro.lang import TycoonSystem
from repro.machine.isa import OPS
from repro.obs import profile_call


class TestCertifyPair:
    def test_const_then_anything_known_is_safe(self):
        # const writes one register, cannot trap, observes nothing
        assert certify_pair("const", "add") is None
        assert certify_pair("const", "tailcall") is None
        assert certify_pair("free", "aget") is None

    def test_negative_control_trapping_first(self):
        # band can trap (typeError) to the handler stack mid-pair: the
        # intermediate state (handler dispatch) would be observable
        reason = certify_pair("band", "const")
        assert reason is not None and "trap" in reason
        # add is rejected even earlier: its overflow edge is a branch
        assert certify_pair("add", "const") is not None

    def test_negative_control_observable_first(self):
        reason = certify_pair("print", "const")
        assert reason is not None and "observable" in reason

    def test_negative_control_handler_delta(self):
        assert certify_pair("pushh", "const") is not None
        assert certify_pair("const", "pushh") is not None
        assert certify_pair("const", "poph") is not None

    def test_negative_control_branching_first(self):
        assert certify_pair("lt", "const") is not None
        assert certify_pair("case", "const") is not None

    def test_negative_control_memory_writer_first(self):
        reason = certify_pair("aset", "const")
        assert reason is not None

    def test_unknown_opcode_rejected(self):
        assert certify_pair("frobnicate", "const") is not None
        assert certify_pair("const", "frobnicate") is not None

    def test_every_certifiable_first_op_is_pure_register_traffic(self):
        # exhaustively: any opcode certify_pair accepts in first position
        # must have the no-observable-intermediate-state trait profile
        for op, traits in OPS.items():
            if certify_pair(op, "const") is None:
                assert not traits.terminal
                assert not traits.branches
                assert not traits.can_trap
                assert not traits.observable
                assert not traits.writes_memory
                assert traits.handler_delta == 0


class TestCertifyPairs:
    def test_ranked_by_count(self):
        report = certify_pairs(
            {("const", "add"): 5, ("free", "add"): 50, ("add", "const"): 99}
        )
        assert isinstance(report, FusionReport)
        certified = [(c.first, c.second) for c in report.certified]
        assert certified == [("free", "add"), ("const", "add")]
        assert [(r.first, r.second) for r in report.rejected] == [("add", "const")]
        assert report.rejected[0].reason

    def test_top_bounds_the_candidates(self):
        report = certify_pairs(
            {("const", "add"): 5, ("free", "add"): 50}, top=1
        )
        assert len(report.certified) + len(report.rejected) == 1

    def test_as_dict_shape(self):
        data = certify_pairs({("const", "add"): 3}).as_dict()
        assert data["certified"][0]["pair"] == ["const", "add"]
        assert data["certified"][0]["count"] == 3


@pytest.mark.parametrize("program", ["fib", "sieve", "queens"])
def test_stanford_profiles_certify_nonempty(program):
    """Acceptance: the certifier finds real fusion candidates in hot code."""
    spec = PROGRAMS[program]
    system = TycoonSystem()
    system.compile(spec.source)
    module = spec.source.split()[1]
    _, profiler = profile_call(system, module, "run", [spec.test_n])
    assert profiler.pairs, "VM must record adjacent-pair counts"
    report = certify_profile(profiler, top=16)
    assert report.certified, "hot Stanford code must yield certified pairs"
    for cert in report.certified:
        # every emitted pair independently re-passes the safety rules
        assert certify_pair(cert.first, cert.second) is None
        assert cert.count > 0


def test_certified_pairs_match_observed_adjacency():
    """A certified pair must actually occur as fall-through adjacency."""
    system = TycoonSystem()
    system.compile(PROGRAMS["fib"].source)
    _, profiler = profile_call(system, "fib", "run", [8])
    report = certify_profile(profiler)
    observed = set(profiler.pairs)
    for cert in report.certified:
        assert (cert.first, cert.second) in observed
