"""One chaos framework: five suites, one runner, one live-cluster harness.

The chaos sims are the oracle for the store and the cluster: each suite
injects one family of faults into real code paths and asserts the
invariants that must survive it, and each carries one *negative control*
— the same check with the protection under test switched off — that
MUST fail, proving the detector still detects.  The suites are ``crash``,
``replication``, ``sharding``, ``exhaustion`` and ``recovery``;
docs/durability.md tabulates what each injects, asserts and switches off.

:mod:`.runner` holds the sweep loop and report schema, :mod:`.harness`
the daemon-spawning :class:`~repro.testing.chaos.harness.Cluster` with
its write ledger and post-mortem verdict, :mod:`.proxy` the
fault-injecting TCP relay; the suites live in the modules named after
them.  Drive it with ``scripts/sim.py --suite NAME`` / ``make sim-NAME``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submodules=["crash", "exhaustion", "recovery", "replication", "sharding"],
    submod_attrs={
        ".runner": ["InvariantViolation", "ScenarioResult", "Suite", "print_progress", "run"],
        ".suites": ["SUITES"],
    },
)
