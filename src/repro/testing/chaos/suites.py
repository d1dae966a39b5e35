"""The five chaos suites by name (``scripts/sim.py --suite NAME``)."""

from __future__ import annotations

from repro.testing.chaos import crash, exhaustion, recovery, replication, sharding
from repro.testing.chaos.runner import Suite

__all__ = ["SUITES"]

SUITES: dict[str, Suite] = {
    "crash": crash.SUITE,
    "replication": replication.SUITE,
    "sharding": sharding.SUITE,
    "exhaustion": exhaustion.SUITE,
    "recovery": recovery.SUITE,
}
