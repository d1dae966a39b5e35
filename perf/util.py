"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time

__all__ = [
    "median",
    "percentile",
    "geomean",
    "proc_cpu_s",
    "proc_peak_rss_mb",
    "CPUS",
    "DAEMON_CPU",
    "pin_benchmark",
    "filesystem_type",
    "fingerprint",
]

median = statistics.median


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int | None = None) -> float:
    """utime + stime of a process (this one when ``pid`` is None)."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat", encoding="ascii") as fp:
        # the command name may hold spaces: split after its closing paren
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` of a process in MB."""
    with open(f"/proc/{pid or os.getpid()}/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


#: the CPUs this process may use, read before any pinning narrows them
CPUS = sorted(os.sched_getaffinity(0))
#: where the daemon (and the helper that calibrates its CPU) runs; None
#: when there is a single CPU and nothing to separate
DAEMON_CPU = CPUS[-1] if len(CPUS) > 1 else None


def pin_benchmark() -> None:
    """Keep this process on one CPU, away from the daemon's.

    The reference kernel and the work it brackets must see the same core;
    and left to the scheduler, daemon and load generator share a core in
    some runs and not in others, which moves every round trip of the run by
    the same factor."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[0]})


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fp:
        for line in fp:
            _, mount, kind, *_ = line.split()
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def fingerprint(workdir: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "filesystem": filesystem_type(workdir),
    }
