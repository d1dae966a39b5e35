"""Horizontal partitioning of the persistent store across shard groups.

A *sharded deployment* is N independent replicated units (each a primary
plus replicas, exactly as in :mod:`repro.server.replication`) plus one or
more *coordinator* daemons.  Root names are assigned to shard groups by a
consistent-hash ring (:mod:`repro.server.sharding.ring`); the ring is
itself persisted under the replicated ``__topology__`` root on every
image, so topology survives restarts and ships to replicas for free.

Coordinators route single-shard operations, run cross-shard writes as
two-phase commit layered on the fenced commit log
(:mod:`repro.server.sharding.twopc`,
:mod:`repro.server.sharding.coordinator`), and evaluate scatter-gather
reads by shipping plan fragments to every shard and merging the partial
results.  See docs/sharding.md for the full design and failure matrix.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".ring": ["HashRing", "ShardTopology", "TOPOLOGY_ROOT", "is_system_root"],
        ".twopc": ["DECISION_PREFIX", "STAGING_PREFIX", "decision_root", "staging_root"],
    },
)
