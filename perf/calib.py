"""A speed reference measured in the same instants as the work.

The sandbox this benchmark runs in changes speed under it.  Each CPU is in
one of two states, quiet or about 1.65 times slower, for milliseconds or for
ten seconds at a stretch, each CPU on its own, and not because of anything
the program does (a neighbour on the host, most likely; CPU time moves with
wall time, steal does not).  Raw timings of two runs of one commit differ by
more than any bound worth gating on.

So every timed piece of work is bracketed by a fixed *reference kernel*,
and its duration is reported relative to the kernel's duration in the same
instants, scaled by :data:`REFERENCE_S` so that it still reads as seconds:

    calibrated = raw / mean(kernel before, kernel after) * REFERENCE_S

The kernel is a miniature register interpreter (tuple decode, string
dispatch, list registers, small allocations) because what slows down is not
arithmetic but memory traffic: a tight arithmetic loop tracks the VM's
slow-downs half as well as this does.  It lives here, not under ``src/``, so
no change to the program can move it.

Short requests to a daemon (a millisecond or less) are part interpreter work
and part system calls and wake-ups on another CPU, which a noisy neighbour
slows by a different factor.  Around those, a second kernel is sampled too:
the round trip of one line through a pipe to the :class:`Helper` process on
the daemon's CPU and back.  The caller says how much of the reference is the
round trip's slow-down (``echo_weight``): half for sub-millisecond requests,
where it leaves half the run-to-run scatter either kernel leaves alone; none
for work that is all computing (a set-up, a restart, a 50 ms commit), which
goes on at full speed while wake-ups take eight times longer.

A calibrated time is what the work would take on a machine on which the
kernel takes exactly :data:`REFERENCE_S` (and the round trip
:data:`ECHO_REFERENCE_S`), which is this sandbox when quiet; ratios between
commits are unaffected, drift of the machine cancels.  The raw values and
the observed speed factor are printed beside every result.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

__all__ = [
    "REFERENCE_S", "ECHO_REFERENCE_S", "SPINS", "LONG_SPINS", "spin_seconds", "blend", "Bracket",
    "Helper",
]

#: nominal duration of one kernel run (this sandbox, quiet): fixed, so that
#: calibrated values are comparable across runs, machines and commits
REFERENCE_S = 0.0009
#: nominal duration of one round trip to the helper process and back
ECHO_REFERENCE_S = 0.00005
#: the round trip's slow-down counts up to this multiple of the kernel's:
#: for seconds at a time wake-ups on the other CPU take ten times longer
#: (the hypervisor's doing) while CPU-bound work goes on at full speed, and
#: an uncapped mean would then "correct" that work to a third of its time
ECHO_CAP = 1.5
#: kernel runs per bracket sample around work of up to a few hundred ms
SPINS = 4
#: ... and around work that takes a second (a set-up, a restart): one short
#: sample on either side of a long interval says little about the interval
LONG_SPINS = 32

_PROGRAM = (
    ("const", 0, 0),
    ("const", 1, 1),
    ("const", 2, 1200),
    ("lt", 3, 0, 2),
    ("case", 3, 9),
    ("add", 0, 0, 1),
    ("vec", 4, 0, 1),
    ("get", 5, 4, 0),
    ("jump", 3),
    ("halt",),
)


def _kernel() -> int:
    regs: list = [None] * 8
    program = _PROGRAM
    pc = count = 0
    while True:
        instr = program[pc]
        op = instr[0]
        count += 1
        if op == "const":
            regs[instr[1]] = instr[2]
            pc += 1
        elif op == "add":
            regs[instr[1]] = regs[instr[2]] + regs[instr[3]]
            pc += 1
        elif op == "lt":
            regs[instr[1]] = regs[instr[2]] < regs[instr[3]]
            pc += 1
        elif op == "case":
            pc = pc + 1 if regs[instr[1]] else instr[2]
        elif op == "vec":
            regs[instr[1]] = [regs[instr[2]], regs[instr[3]], {"k": count}]
            pc += 1
        elif op == "get":
            regs[instr[1]] = regs[instr[2]][0]
            pc += 1
        elif op == "jump":
            pc = instr[1]
        else:
            return count


def spin_seconds(spins: int = SPINS) -> float:
    """Mean seconds per kernel run over ``spins`` runs, right now."""
    start = time.perf_counter()
    for _ in range(spins):
        _kernel()
    return (time.perf_counter() - start) / spins


def blend(here: float, there: float, echo: float, helper_share: float,
          echo_weight: float = 0.0) -> float:
    """One machine-speed factor from the three slow-downs: the two CPUs'
    kernels weighted by where the work's CPU time went (``helper_share`` on
    the helper's CPU), and ``echo_weight`` of the result the round trip's
    slow-down instead, for requests that are part system calls and
    wake-ups."""
    compute = (1 - helper_share) * here + helper_share * there
    return (1 - echo_weight) * compute + echo_weight * min(echo, ECHO_CAP * compute)


class Bracket:
    """Alternate ``sample()`` with pieces of work; ``close(raw)`` converts
    the work's raw seconds using the samples on either side of it.

    With a helper, each sample measures two CPUs at once: this process's
    and the helper's (the daemon's).  ``helper_share`` says how much of the
    work's time was spent on the helper's CPU."""

    def __init__(self, helper: "Helper | None" = None, spins: int = SPINS):
        self.helper = helper
        self.spins = spins
        #: kernel seconds per sample, on this CPU and on the helper's
        self.here: list[float] = []
        self.there: list[float] = []
        #: seconds per round trip to the helper, per sample
        self.echo: list[float] = []
        self.sample()

    def sample(self) -> None:
        """Measure the kernel now (on the helper's CPU too, at once), then
        the round trip between the two."""
        if self.helper is None:
            here = there = spin_seconds(self.spins)
        else:
            self.helper.start(self.spins)
            here = spin_seconds(self.spins)
            there = self.helper.finish()
            self.echo.append(self.helper.echo_seconds())
        self.here.append(here)
        self.there.append(there)

    def slowdowns(self) -> tuple[float, float, float]:
        """Over the last piece of work, each against its reference (above 1
        is slower): the kernel on this CPU, on the helper's, and the round
        trip between them (the kernel's where there is no helper)."""
        here = (self.here[-2] + self.here[-1]) / 2 / REFERENCE_S
        there = (self.there[-2] + self.there[-1]) / 2 / REFERENCE_S
        if self.helper is None:
            return here, there, here
        return here, there, (self.echo[-2] + self.echo[-1]) / 2 / ECHO_REFERENCE_S

    def factor(self, helper_share: float = 0.0) -> float:
        """Machine speed over the last piece of computing."""
        return blend(*self.slowdowns(), helper_share)

    def close(self, raw_seconds: float, helper_share: float = 0.0) -> float:
        """Take the closing sample of a piece of computing that took
        ``raw_seconds``; returns its calibrated seconds."""
        self.sample()
        return raw_seconds / self.factor(helper_share)

    def mean_factor(self) -> float:
        """Mean speed of this process's CPU over every sample taken."""
        return sum(self.here) / len(self.here) / REFERENCE_S


class Helper:
    """The same kernel in a process pinned to another CPU (the daemon's),
    run on request while the traffic pauses."""

    def __init__(self, cpu: int):
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def start(self, spins: int = SPINS) -> None:
        self.process.stdin.write(f"{spins}\n")
        self.process.stdin.flush()

    def finish(self) -> float:
        return float(self.process.stdout.readline())

    def echo_seconds(self, rounds: int = 40) -> float:
        """Median seconds of one round trip to the helper and back."""
        laps = []
        for _ in range(rounds):
            start = time.perf_counter()
            self.process.stdin.write("echo\n")
            self.process.stdin.flush()
            self.process.stdout.readline()
            laps.append(time.perf_counter() - start)
        laps.sort()
        return laps[len(laps) // 2]

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=30)
        self.process.stdout.close()


def _serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    for line in sys.stdin:
        sys.stdout.write(line if line == "echo\n" else f"{spin_seconds(int(line))!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
