"""Fusion-safety certification for VM superinstruction candidates.

The profiler's dynamic pair counts (:class:`~repro.obs.profile.VMProfiler`,
``pairs``) say which *adjacent* opcode pairs dominate execution; this module
says which of them a tiering VM may legally fuse into one superinstruction.
The certificate is derived from the instruction table the VM itself is
checked against (:data:`repro.machine.isa.OPS`), and the claim is
deliberately strong — a certified pair ``(a, b)`` satisfies:

* **no observable intermediate state** — after ``a`` and before ``b`` there
  is nothing another observer could see: ``a`` neither writes memory, nor
  emits output, nor traps into a handler.  A fused implementation is free
  to reorder or combine the two register writes;
* **no error edge in the middle** — ``a`` cannot leave the instruction
  stream (no trap, no branch target, not terminal), so the fused opcode has
  exactly ``b``'s error behavior and ``b``'s successor set;
* **handler-depth neutral** — neither half touches the handler stack, so
  fusing cannot move a push/pop across an instruction boundary where a trap
  could unwind to the wrong handler.

That leaves ``const/free/closure/fix/arr/vec`` as legal first halves —
exactly the register-shuffling prefixes that dominate CPS bytecode — and
any known opcode as the second half (the pair inherits its behavior).

The empirical half of the contract lives in the fusion test suite: every
safety-relevant trait the certificate relies on is re-derived there by
running single instructions on a live VM and observing traps, output and
handler-stack movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.isa import OPS

__all__ = [
    "CertifiedPair",
    "RejectedPair",
    "FusionReport",
    "certify_pair",
    "certify_pairs",
    "certify_profile",
]


@dataclass(frozen=True, slots=True)
class CertifiedPair:
    """A provably fusable adjacent opcode pair, with its dynamic weight."""

    first: str
    second: str
    count: int

    @property
    def name(self) -> str:
        return f"{self.first}+{self.second}"


@dataclass(frozen=True, slots=True)
class RejectedPair:
    first: str
    second: str
    count: int
    reason: str


@dataclass
class FusionReport:
    """Certification verdicts over one profile's hot pairs."""

    certified: list[CertifiedPair] = field(default_factory=list)
    rejected: list[RejectedPair] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "certified": [
                {"pair": [p.first, p.second], "count": p.count}
                for p in self.certified
            ],
            "rejected": [
                {"pair": [p.first, p.second], "count": p.count, "reason": p.reason}
                for p in self.rejected
            ],
        }


def certify_pair(first: str, second: str) -> str | None:
    """Why ``(first, second)`` may NOT fuse, or None when it is safe."""
    t1 = OPS.get(first)
    t2 = OPS.get(second)
    if t1 is None:
        return f"unknown opcode {first!r}"
    if t2 is None:
        return f"unknown opcode {second!r}"
    if t1.terminal:
        return "first op is terminal: control leaves the pair"
    if t1.branches:
        return "first op may branch: second op is not its unique successor"
    if t1.can_trap:
        return "first op may trap: error edge inside the pair"
    if t1.observable:
        return "first op emits observable output: intermediate state is visible"
    if t1.writes_memory:
        return "first op writes memory: intermediate state is visible"
    if t1.handler_delta != 0 or t2.handler_delta != 0:
        return "pair is not handler-depth neutral"
    return None


def certify_pairs(pairs: dict, top: int | None = None) -> FusionReport:
    """Certify ``{(first, second): count}`` pairs, hottest first."""
    report = FusionReport()
    ranked = sorted(pairs.items(), key=lambda item: (-item[1], item[0]))
    if top is not None:
        ranked = ranked[:top]
    for (first, second), count in ranked:
        reason = certify_pair(first, second)
        if reason is None:
            report.certified.append(CertifiedPair(first, second, int(count)))
        else:
            report.rejected.append(RejectedPair(first, second, int(count), reason))
    return report


def certify_profile(profiler, top: int = 16) -> FusionReport:
    """Certify a live profiler's hottest adjacent pairs."""
    pairs = getattr(profiler, "pairs", None) or {}
    return certify_pairs(dict(pairs), top=top)
