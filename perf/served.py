"""The three server workloads: ``kv_read``, ``kv_write`` and ``mixed_rw``.

One ``python -m repro serve`` subprocess with ``--no-pgo
--history-interval 0`` and otherwise default flags (request profiling stays
on: it is what users get).  Load is **closed loop**: two blocking sessions,
each sending its next request when the reply arrives, because that is what
callers of ``repro.server.client`` are (the one exception, ``mixed_rw``'s
writer, says why).  Flush policy: real ``os.fsync`` on a fresh directory.

Traffic runs in short *slices*.  Between two slices the sessions pause and
the reference kernel of ``calib`` runs on both CPUs, the load generator's
and the daemon's, so that each slice's numbers can be read against the
machine's speed while it ran.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.server.client import ClientError, ServerError, connect

import corpus
import replay
from calib import LONG_SPINS, Bracket, Helper, blend
from inproc import Outcome, layer_shares
from trace import Recorder
from util import DAEMON_CPU, median, percentile, proc_cpu_s, proc_peak_rss_mb

__all__ = ["KvRead", "KvWrite", "MixedRw"]

_SRC = os.path.join(corpus.REPO_ROOT, "src")
_WAIT = 60.0
#: seconds of traffic between two samples of the reference kernel
SLICE_S = 0.4
#: kernel runs per sample: the machine's speed changes within milliseconds,
#: and a sample of a few runs says little about the 0.4 s on either side
SLICE_SPINS = 12
#: how much of a slice's speed reference is the round trip to the helper
#: rather than the kernel (``calib.blend``), for sub-millisecond requests:
#: over ten runs with the round trip 1.2 to 8 times its nominal, ``get``
#: latency spread 0.09 at 0, 0.06 at 0.5; ``mixed_rw``'s 0.20 and 0.06
SHORT_REQUESTS = 0.5
#: ... and for ``kv_write``: a ``set`` on 10 000 roots is 50 ms of the daemon
#: re-encoding its object table, computing, which the round trip's slow-down
#: says nothing about (ten runs spread 0.20 at 0.5, 0.06 at 0)
COMPUTING = 0.0


class Daemon:
    """One daemon subprocess on one image, on its own CPU."""

    def __init__(self, image: str, replicate: bool):
        argv = [sys.executable, "-m", "repro", "serve", image, "--no-pgo",
                "--history-interval", "0"]
        if replicate:
            argv.append("--replicate")
        # PYTHONHASHSEED comes from run.py's own environment (fixed there)
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.spawned = time.perf_counter()
        self._log = open(image + ".daemon.log", "ab")
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env, text=True
        )
        self.pid = self.process.pid
        if DAEMON_CPU is not None:
            os.sched_setaffinity(self.pid, {DAEMON_CPU})
        line = self.process.stdout.readline()  # "listening on HOST:PORT"
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"daemon did not start: {line!r} (see {image}.daemon.log)")
        self.port = int(line.rsplit(":", 1)[1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        """Graceful shutdown; SIGKILL when that does not end the process."""
        if self.process.poll() is None:
            try:
                with connect(self.port, timeout=10.0) as client:
                    client.shutdown()
                self.process.wait(timeout=20.0)
            except (ClientError, ServerError, OSError, subprocess.TimeoutExpired):
                self.process.send_signal(signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        self.process.wait(timeout=_WAIT)
        self.process.stdout.close()
        self._log.close()


@dataclass
class Served:
    """A booted daemon and what was loaded into it."""

    daemon: Daemon
    image: str
    data: corpus.KvData
    seed: int
    workdir: str
    replicate: bool


def _boot(seed: int, workdir: str, data: corpus.KvData, replicate: bool) -> Served:
    image = os.path.join(workdir, "image.tyc")
    replay.build_image(image, data.values)
    daemon = Daemon(image, replicate)
    try:
        with connect(daemon.port) as client:
            client.run(corpus.APP_SOURCE)
            client.ping()
    except BaseException:
        daemon.kill()
        raise
    return Served(daemon, image, data, seed, workdir, replicate)


def _warm(served: Served, keys: list[str]) -> None:
    """Read ``keys`` into the daemon's heap cache, 500 per request."""
    try:
        with connect(served.daemon.port) as client:
            for offset in range(0, len(keys), 500):
                client.get(*keys[offset : offset + 500])
    except BaseException:
        served.daemon.kill()
        raise


# ---------------------------------------------------------------------------
# sliced closed-loop traffic
# ---------------------------------------------------------------------------


@dataclass
class Samples:
    """Latencies of one operation class, with the slice each completed in."""

    latencies: list[float] = field(default_factory=list)
    slices: list[int] = field(default_factory=list)
    #: ``call`` replies by what they say of the code cache
    cache: dict[str, int] = field(default_factory=lambda: {"hit": 0, "miss": 0})

    def p(self, q: float) -> float:
        return percentile(sorted(self.latencies), q) * 1e3

    @property
    def p50(self) -> float:
        return median(self.latencies) * 1e3 if self.latencies else 0.0


class _Gate:
    """Opens and closes the traffic; sessions park at it between slices."""

    def __init__(self, sessions: int):
        self.cond = threading.Condition()
        self.sessions = sessions
        self.open = False
        self.finished = False
        self.slice = -1
        self.opened_at = 0.0
        self.parked = 0
        self.gone = 0

    def enter(self) -> bool:
        """Block while the gate is closed; False once traffic is over."""
        with self.cond:
            if not self.open and not self.finished:
                self.parked += 1
                self.cond.notify_all()
                while not self.open and not self.finished:
                    self.cond.wait()
                self.parked -= 1
            return not self.finished

    def leave(self) -> None:
        with self.cond:
            self.gone += 1
            self.cond.notify_all()

    def run_slice(self, seconds: float) -> tuple[float, float]:
        """Open for ``seconds``, close, wait until every session has
        finished its request in flight.  Returns (opened, drained) times."""
        with self.cond:
            self.slice += 1
            self.open = True
            self.opened_at = opened = time.perf_counter()
            self.cond.notify_all()
        time.sleep(seconds)
        with self.cond:
            self.open = False
            if not self.cond.wait_for(
                lambda: self.parked + self.gone >= self.sessions, timeout=_WAIT
            ):
                raise RuntimeError("a session did not finish its request in flight")
        return opened, time.perf_counter()

    def finish(self) -> None:
        with self.cond:
            self.finished = True
            self.cond.notify_all()


class _Session(threading.Thread):
    """One blocking client session: ``body(client, rng, gate)`` per request,
    returning False for a failed operation."""

    def __init__(self, port: int, seed: int, body, gate: _Gate, until_failure: bool):
        super().__init__()
        self.port, self.body, self.gate = port, body, gate
        self.rng = random.Random(seed)
        #: end the session at its first failed operation (the kill burst:
        #: once the daemon is gone nothing more was ever in flight)
        self.until_failure = until_failure
        self.attempted = self.failed = 0
        self.crash: BaseException | None = None

    def run(self) -> None:
        try:
            with connect(self.port) as client:
                while self.gate.enter():
                    self.attempted += 1
                    try:
                        ok = self.body(client, self.rng, self.gate)
                    except (ClientError, ServerError):
                        ok = False  # refused, timed out or lost: a failed operation
                    if not ok:
                        self.failed += 1
                        if self.until_failure:
                            break
        except BaseException as exc:  # re-raised by Traffic.stop in the main thread
            self.crash = exc
        finally:
            self.gate.leave()


@dataclass
class Slice:
    traffic_s: float
    #: machine speed while it ran (``Bracket.slowdowns``): the reference
    #: kernel on the load generator's CPU and on the daemon's, and the round
    #: trip between the two
    speed_here: float
    speed_there: float
    speed_echo: float
    client_cpu_s: float
    daemon_cpu_s: float


@dataclass
class Stretch:
    """What a stretch of sliced traffic produced."""

    attempted: int
    failed: int
    classes: dict[str, Samples]
    slices: list[Slice]
    wall_s: float
    #: share of the speed reference that is the round trip's slow-down
    echo_weight: float

    def daemon_share(self) -> float:
        """Share of the stretch's CPU seconds the daemon spent: how much of
        an operation's time moves with the daemon's CPU and not with the
        load generator's (0.96 on ``kv_write``, 0.64 on ``mixed_rw``)."""
        daemon = sum(piece.daemon_cpu_s for piece in self.slices)
        client = sum(piece.client_cpu_s for piece in self.slices)
        return daemon / (daemon + client) if daemon + client > 0 else 0.5

    def factors(self) -> list[float]:
        """Machine speed per slice: the two CPUs' speeds, weighted by where
        the stretch's CPU time went, and the round trip's at its weight."""
        share = self.daemon_share()
        return [
            blend(piece.speed_here, piece.speed_there, piece.speed_echo, share, self.echo_weight)
            for piece in self.slices
        ]

    def typical_ms(self, name: str) -> float:
        """Calibrated latency of one operation class: the median over the
        slices of the slice's median latency, each read against the
        machine's speed in that slice."""
        samples = self.classes[name]
        per_slice: list[list[float]] = [[] for _ in self.slices]
        for latency, index in zip(samples.latencies, samples.slices):
            per_slice[index].append(latency)
        medians = [
            median(values) / factor for values, factor in zip(per_slice, self.factors()) if values
        ]
        return median(medians) * 1e3 if medians else 0.0

    def ops(self) -> int:
        return sum(len(samples.latencies) for samples in self.classes.values())

    def rate(self) -> float:
        """Calibrated completed operations per second, median over slices."""
        counts = [0] * len(self.slices)
        for samples in self.classes.values():
            for index in samples.slices:
                counts[index] += 1
        return median(
            n / piece.traffic_s * factor
            for n, piece, factor in zip(counts, self.slices, self.factors())
        )


def run_traffic(
    served: Served,
    bodies: list,
    seeds: list[int],
    classes: dict[str, Samples],
    seconds: float,
    helper: Helper | None,
    echo_weight: float,
    until_failure: bool = False,
    on_slice=None,
) -> Stretch:
    """Drive one session per body for ``seconds``, in slices bracketed by
    the reference kernel.  ``on_slice(index, opened_at)`` runs before each
    slice opens (the open-loop writer resets its schedule there)."""
    gate = _Gate(len(bodies))
    sessions = [
        _Session(served.daemon.port, seed, body, gate, until_failure)
        for body, seed in zip(bodies, seeds)
    ]
    for session in sessions:
        session.start()
    slices: list[Slice] = []
    start = time.perf_counter()
    try:
        bracket = Bracket(helper, SLICE_SPINS)
        count = max(1, round(seconds / SLICE_S))
        for index in range(count):
            if on_slice is not None:
                on_slice(index, count)
            # the kill burst ends with the daemon gone: no CPU to read there
            there0 = proc_cpu_s(served.daemon.pid) if not until_failure else 0.0
            here0 = proc_cpu_s()
            opened, drained = gate.run_slice(seconds / count)
            here = proc_cpu_s() - here0
            there = proc_cpu_s(served.daemon.pid) - there0 if not until_failure else 0.0
            bracket.sample()
            slices.append(Slice(drained - opened, *bracket.slowdowns(), here, there))
            if gate.gone >= len(sessions):
                break
    finally:
        gate.finish()
        for session in sessions:
            session.join(timeout=_WAIT)
    for session in sessions:
        if session.crash is not None:
            raise session.crash
    return Stretch(
        attempted=sum(s.attempted for s in sessions),
        failed=sum(s.failed for s in sessions),
        classes=classes,
        slices=slices,
        wall_s=time.perf_counter() - start,
        echo_weight=echo_weight,
    )


def _timed(samples: Samples, gate: _Gate, rec: Recorder | None, span: str, call,
           due: float | None = None):
    """Run one client call, recording its latency (and a span when traced).
    An open-loop caller passes the time the request was ``due``: its
    latency counts the wait a stall imposed on it."""
    started = time.perf_counter() if due is None else due
    if rec is None:
        result = call()
    else:
        with rec.span(span):
            result = call()
    samples.latencies.append(time.perf_counter() - started)
    samples.slices.append(gate.slice)
    return result


def _end_to_end(served: Served, stretch: Stretch, primary: str, secondary_ms: float) -> dict:
    return {
        "primary_ms": stretch.typical_ms(primary),
        "secondary_ms": secondary_ms,
        "ops_per_s": stretch.rate(),
        "peak_rss_mb": proc_peak_rss_mb(served.daemon.pid),
        "image_bytes": os.path.getsize(served.image),
    }


def _raw_info(stretch: Stretch) -> dict:
    """Uncalibrated client-side view, printed beside the result."""
    info: dict = {"slices": len(stretch.slices), "speed_factor": median(stretch.factors()),
                  "round_trip_factor": median(piece.speed_echo for piece in stretch.slices),
                  "daemon_cpu_share": stretch.daemon_share(), "wall_s": stretch.wall_s}
    for name, samples in stretch.classes.items():
        if samples.latencies:
            info[f"{name}s"] = len(samples.latencies)
            info[f"raw_{name}_p50_ms"] = samples.p50
            info[f"raw_{name}_p95_ms"] = samples.p(0.95)
            info[f"raw_{name}_p99_ms"] = samples.p(0.99)
    return info


# ---------------------------------------------------------------------------
# what the daemon's own counters say about a window of traffic
# ---------------------------------------------------------------------------


def _hist_p50(before: dict | None, after: dict | None) -> float:
    """p50 (bucket upper bound) of the observations between two snapshots."""
    if not after:
        return 0.0
    old = (before or {}).get("buckets", {})
    delta = {
        float("inf") if k == "+inf" else int(k): n - old.get(k, 0)
        for k, n in after["buckets"].items()
    }
    count = sum(delta.values())
    if count <= 0:
        return 0.0
    seen = 0
    for bound in sorted(delta):
        seen += delta[bound]
        if seen * 2 >= count:
            return float(min(bound, after["max"]))
    return float(after["max"])


class _Window:
    """Daemon counters before and after a stretch of traffic."""

    def __init__(self, served: Served):
        self.served = served
        with connect(served.daemon.port) as client:
            self.before = client.stats(metrics=True)
        self.cpu0 = proc_cpu_s(served.daemon.pid)

    def close(self) -> None:
        self.cpu = proc_cpu_s(self.served.daemon.pid) - self.cpu0
        with connect(self.served.daemon.port) as client:
            self.after = client.stats(metrics=True)

    def delta(self, name: str) -> float:
        def value(stats):
            entry = stats["metrics"].get(name)
            if entry is None:
                return 0
            return entry.get("value", entry.get("count", 0))

        return value(self.after) - value(self.before)

    def op_p50_us(self, op: str) -> float:
        name = f"server.op.{op}.latency_us"
        return _hist_p50(self.before["metrics"].get(name), self.after["metrics"].get(name))

    def metrics(self, ops: int, gets: int) -> dict[str, float]:
        loads, faults = self.delta("store.heap.loads"), self.delta("store.heap.faults")
        shed = sum(
            self.after["shed"][k] - self.before["shed"][k]
            for k in ("deadline", "overloaded", "memory")
        )
        out = {
            "store.heap.cache_hit_rate": 1 - faults / loads if loads else 0.0,
            "store.heap.evictions": self.delta("store.heap.evictions"),
            "store.pager.page_reads_per_get": (
                self.delta("store.pager.page_reads") / gets if gets else 0.0
            ),
            "server.cpu_s_per_kop": self.cpu / ops * 1e3 if ops else 0.0,
            "server.refused": shed + self.delta("server.request_errors"),
        }
        for op in ("get", "set", "call", "run"):
            out[f"server.op.{op}.server_p50_us"] = self.op_p50_us(op)
        return out


def _client_metrics(stretch: Stretch) -> dict[str, float]:
    out: dict[str, float] = {}
    traffic_s = sum(piece.traffic_s for piece in stretch.slices)
    for op in ("get", "call", "set"):
        samples = stretch.classes.get(op)
        if samples and samples.latencies:
            out[f"client.{op}_p50_ms"] = samples.p50
            out[f"client.{op}_p95_ms"] = samples.p(0.95)
            out[f"client.{op}_p99_ms"] = samples.p(0.99)
            if op != "call":
                out[f"client.{op}_per_s"] = len(samples.latencies) / traffic_s
    if "call" in stretch.classes:
        # what the replies say: a call after a redefinition re-links (miss)
        cache = stretch.classes["call"].cache
        out["server.codecache.hit_rate"] = cache["hit"] / max(1, cache["hit"] + cache["miss"])
    return out


def _ping_p50_ms(port: int, count: int = 200) -> float:
    with connect(port) as client:
        laps = []
        for _ in range(count):
            started = time.perf_counter()
            client.ping()
            laps.append(time.perf_counter() - started)
    return median(laps) * 1e3


def _traced_common(served: Served, window: _Window, plain: Stretch, traced: Stretch) -> dict:
    """Per-layer metrics every server workload derives the same way."""
    gets = len(traced.classes["get"].latencies) if "get" in traced.classes else 0
    layer = window.metrics(traced.ops(), gets)
    layer.update(_client_metrics(traced))
    for op in ("get", "set", "call"):
        if f"client.{op}_p50_ms" in layer:
            layer[f"server.wire_overhead_ms.{op}"] = (
                layer[f"client.{op}_p50_ms"] - layer[f"server.op.{op}.server_p50_us"] / 1e3
            )
    layer["server.ping_p50_ms"] = _ping_p50_ms(served.daemon.port)
    encode, decode = replay.codec_probe(
        {"id": 7, "ok": True,
         "result": {"values": {"k00042": "v" * 512}, "version": 12, "repl_version": 12}}
    )
    layer["server.protocol.encode_us"], layer["server.protocol.decode_us"] = encode, decode
    layer["store.pager.bytes_stored_per_user_byte"] = (
        os.path.getsize(served.image) / served.data.user_bytes
    )
    # calibrated rates on both sides: machine drift is not tracing cost
    layer["trace_overhead"] = plain.rate() / traced.rate() - 1
    return layer


def _replay(rec: Recorder, served: Served, commits: int) -> dict:
    """The write replay on a fresh copy of the pre-loaded image."""
    image = os.path.join(served.workdir, "replay.tyc")
    replay.build_image(image, served.data.values)
    rng = random.Random(served.seed * 100 + 10)
    blob = corpus.kv_blob(served.seed)
    if isinstance(served.data.values[served.data.keys[0]], int):
        writes = [(rng.choice(served.data.keys), n + 1) for n in range(commits)]
    else:
        writes = [
            (rng.choice(served.data.keys), corpus.fresh_value(rng, blob)) for _ in range(commits)
        ]
    return replay.replay_writes(rec, image, writes, served.replicate)


class _ServerWorkload:
    """What the three workloads share: the helper on the daemon's CPU."""

    def __init__(self) -> None:
        self.helper = Helper(DAEMON_CPU) if DAEMON_CPU is not None else None
        #: a fresh request stream per stretch of traffic: replaying the
        #: previous stretch's keys would find them all cached
        self.stretch = 0

    def seeds(self, served: Served, sessions: int = 2) -> list[int]:
        self.stretch += 1
        return [served.seed * 1000 + self.stretch * 10 + i for i in range(sessions)]

    def teardown(self, served: Served) -> None:
        served.daemon.stop()


# ---------------------------------------------------------------------------
# kv_read
# ---------------------------------------------------------------------------

KV_ROOTS = 10_000
#: smoke runs: same code, a keyspace that loads in a blink
SMOKE_ROOTS = 1200
SUMTO_N, SUMTO_VALUE = 25, 325


class KvRead(_ServerWorkload):
    name = "kv_read"

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.roots = SMOKE_ROOTS if smoke else KV_ROOTS

    def setup(self, seed: int, workdir: str) -> Served:
        data = corpus.kv_data(seed, self.roots)
        served = _boot(seed, workdir, data, replicate=False)
        # reading a cache-full of roots leaves the heap cache full, as a
        # pre-load through the daemon would: the timed region then runs at
        # the steady-state hit rate (cache / keyspace), evictions included
        _warm(served, data.keys[-(replay.HEAP_CACHE + 104) :])
        return served

    def _traffic(self, served: Served, seconds: float, rec: Recorder | None) -> Stretch:
        """Session A: ``get`` of one uniformly chosen root.  Session B:
        ``call app.sumto``.

        The two classes run on separate sessions, not as an 80/20 mix on
        both, because two sessions whose gets miss the heap cache at the
        same time read wrong values (``Pager._read_raw`` seeks and reads one
        shared file object under a *shared* lock; see README, Findings).  A
        workload on which operations fail measures nothing, so only one
        session touches the page file; the other exercises the code cache
        and the VM concurrently."""
        keys, values = served.data.keys, served.data.values
        classes = {"get": Samples(), "call": Samples()}

        def getter(client, rng, gate) -> bool:
            key = rng.choice(keys)
            got = _timed(classes["get"], gate, rec, "server.get", lambda: client.get(key))
            return got[key] == values[key]

        def caller(client, rng, gate) -> bool:
            got = _timed(
                classes["call"], gate, rec, "server.call",
                lambda: client.call("app", "sumto", [SUMTO_N], full=True),
            )
            self.call_instructions = got["instructions"]
            classes["call"].cache[got["cache"]] += 1
            return got["value"] == SUMTO_VALUE

        return run_traffic(
            served, [getter, caller], self.seeds(served), classes, seconds, self.helper,
            SHORT_REQUESTS,
        )

    def run(self, served: Served, seconds: float) -> Outcome:
        stretch = self._traffic(served, seconds, None)
        return Outcome(
            attempted=stretch.attempted,
            failed=stretch.failed,
            metrics=_end_to_end(served, stretch, "get", stretch.typical_ms("call")),
            info=_raw_info(stretch),
        )

    def trace(self, seed: int, workdir: str, seconds: float) -> Outcome:
        served = self.setup(seed, workdir)
        rec = Recorder()
        try:
            plain = self._traffic(served, seconds / 2, None)
            window = _Window(served)
            traced = self._traffic(served, seconds / 2, rec)
            window.close()
            layer = _traced_common(served, window, plain, traced)
        finally:
            self.teardown(served)
        # the VM's share of a call, read off the daemon's own histograms
        vm_us = layer["server.op.call.server_p50_us"] - layer["server.op.get.server_p50_us"]
        layer["machine.vm.ns_per_instr_static"] = max(vm_us, 0.0) * 1e3 / self.call_instructions
        # two concurrent sessions: their spans cover twice the traffic time
        layer.update(layer_shares(rec, 2 * sum(piece.traffic_s for piece in traced.slices)))
        layer.update(replay.read_probe(rec, served.image, served.data.keys))
        rec.write(os.path.join(workdir, f"trace-{self.name}.ndjson"))
        return Outcome(
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
            metrics=layer,
            info={"spans": len(rec.spans)},
        )


# ---------------------------------------------------------------------------
# kv_write
# ---------------------------------------------------------------------------


class KvWrite(_ServerWorkload):
    name = "kv_write"

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.roots = SMOKE_ROOTS if smoke else KV_ROOTS
        #: timed restarts per run; one varies by a tenth either way
        self.restarts = 1 if smoke else 9
        #: commits in the log at each timed restart
        self.logged_sets = 5 if smoke else 20
        #: commits of the traced in-process replay
        self.replay_commits = 10 if smoke else 100

    def setup(self, seed: int, workdir: str) -> Served:
        return _boot(seed, workdir, corpus.kv_data(seed, self.roots), replicate=True)

    def _traffic(self, served: Served, seconds: float, rec: Recorder | None, state: dict,
                 until_failure: bool = False) -> Stretch:
        """Two writers, each on its own half of the keyspace so that the
        last acknowledged value of a root is unambiguous."""
        blob = corpus.kv_blob(served.seed)
        keys = served.data.keys
        classes = {"set": Samples()}
        acked, unacked = state["acked"], state["unacked"]

        def body_for(index: int):
            mine = keys[index::2]

            def body(client, rng, gate) -> bool:
                key = rng.choice(mine)
                value = corpus.fresh_value(rng, blob)
                unacked[key] = value  # sent, fate unknown until the reply
                _timed(classes["set"], gate, rec, "server.set", lambda: client.set(key, value))
                acked[key] = unacked.pop(key)
                return True

            return body

        return run_traffic(
            served, [body_for(0), body_for(1)], self.seeds(served), classes, seconds,
            None if until_failure else self.helper, COMPUTING, until_failure,
        )

    def _kill_under_load(self, served: Served, state: dict) -> None:
        """SIGKILL the daemon while both writers are sending.  Their last
        requests fail because of the kill, not the program, so the burst's
        failures are not counted; what they sent stays in ``unacked``."""
        burst = threading.Thread(
            target=self._traffic, args=(served, 2.0, None, state), kwargs={"until_failure": True}
        )
        burst.start()
        time.sleep(0.3)
        served.daemon.kill()
        burst.join()

    def _restart(self, served: Served) -> float:
        """Start a daemon on the (killed) image; seconds from spawn to the
        first successful ``get``."""
        served.daemon = Daemon(served.image, served.replicate)
        with connect(served.daemon.port) as client:
            client.get(served.data.keys[0])
            return time.perf_counter() - served.daemon.spawned

    def _recoveries(self, served: Served, state: dict) -> tuple[list[float], list[float]]:
        """``logged_sets`` acknowledged sets, then SIGKILL and restart,
        ``restarts`` times; returns the calibrated times and the raw ones.

        Start-up replays the commit log, so recovery time depends on how
        many commits the log holds.  The count is fixed here — and the
        daemon is idle at each kill, which rules out the boot-time log
        reset a kill between image commit and log append triggers — so that
        the metric does not move with the write rate of the timed region.
        (Each boot commits once itself, 95 KB more log: restart *k* replays
        ``logged_sets`` + *k* records and takes 1.3 % longer than the one
        before.  The number of restarts is as fixed as the number of sets.)"""
        blob = corpus.kv_blob(served.seed)
        rng = random.Random(served.seed * 1000 + 9)
        with connect(served.daemon.port) as client:
            for _ in range(self.logged_sets):
                key = rng.choice(served.data.keys)
                state["acked"][key] = corpus.fresh_value(rng, blob)
                client.set(key, state["acked"][key])
        bracket = Bracket(self.helper, LONG_SPINS)
        times, raw = [], []
        for _ in range(self.restarts):
            served.daemon.kill()
            raw.append(self._restart(served))
            # a restart is computing on the daemon's CPU alone
            times.append(bracket.close(raw[-1], helper_share=1.0))
        return times, raw

    def _read_back(self, served: Served, state: dict, keys: list[str]) -> tuple[int, int]:
        """Each of ``keys`` holds its last acknowledged value; a write in
        flight at a kill may be on either side."""
        expected = dict(served.data.values)
        expected.update(state["acked"])
        wrong = 0
        with connect(served.daemon.port) as client:
            for offset in range(0, len(keys), 500):
                batch = keys[offset : offset + 500]
                got = client.get(*batch)
                for key in batch:
                    if got[key] != expected[key] and got[key] != state["unacked"].get(key):
                        wrong += 1
        return len(keys), wrong

    def run(self, served: Served, seconds: float) -> Outcome:
        """Recovery first, while the commit log is short and of known
        length; then the kill under load and its read-back; then the timed
        region on the recovered daemon."""
        state = {"acked": {}, "unacked": {}}
        recoveries, raw_recoveries = self._recoveries(served, state)
        self._kill_under_load(served, state)
        after_load_s = self._restart(served)
        read_back, wrong = self._read_back(served, state, served.data.keys)

        before = set(state["acked"])
        stretch = self._traffic(served, seconds, None, state)
        written = sorted(set(state["acked"]) - before)
        reread, stale = self._read_back(served, state, written)
        checked, lost = replay.durability_check(served.workdir, served.seed)
        return Outcome(
            attempted=self.logged_sets + stretch.attempted + read_back + reread + checked,
            failed=stretch.failed + wrong + stale + lost,
            metrics=_end_to_end(served, stretch, "set", median(recoveries) * 1e3),
            info={
                **_raw_info(stretch),
                "recoveries_s": recoveries,
                "raw_recoveries_s": raw_recoveries,
                "raw_recovery_after_load_s": after_load_s,
                "read_back": read_back, "wrong_after_kill": wrong,
                "reread": reread, "stale": stale,
                "durability_checked": checked, "durability_lost": lost,
            },
        )

    def trace(self, seed: int, workdir: str, seconds: float) -> Outcome:
        served = self.setup(seed, workdir)
        rec = Recorder()
        state = {"acked": {}, "unacked": {}}
        try:
            plain = self._traffic(served, seconds / 2, None, state)
            window = _Window(served)
            traced = self._traffic(served, seconds / 2, rec, state)
            window.close()
            layer = _traced_common(served, window, plain, traced)
        finally:
            self.teardown(served)
        layer.update(replay.read_probe(rec, served.image, served.data.keys))
        replayed = _replay(rec, served, self.replay_commits)
        layer.update(replayed["metrics"])
        layer.update(layer_shares(rec, replayed["wall_s"], since=replayed["first_span"]))
        rec.write(os.path.join(workdir, f"trace-{self.name}.ndjson"))
        return Outcome(
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
            metrics=layer,
            info={
                "spans": len(rec.spans),
                "checks": {"replay_phase_sum": replayed["phase_sum"]},
                "replay_commits": replayed["commits"],
            },
        )


# ---------------------------------------------------------------------------
# mixed_rw
# ---------------------------------------------------------------------------

MIXED_ROOTS = 1000
REDEFINITIONS = 8
#: seconds between the open-loop writer's requests (20 per second: about a
#: fifth of what the write path sustains here, so the schedule is kept and
#: the readers wait behind a commit about a fifth of the time)
WRITE_INTERVAL = 0.05


class MixedRw(_ServerWorkload):
    name = "mixed_rw"

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.roots = SMOKE_ROOTS // 4 if smoke else MIXED_ROOTS
        self.replay_commits = 10 if smoke else 100

    def setup(self, seed: int, workdir: str) -> Served:
        keys = [f"k{i:05d}" for i in range(self.roots)]
        data = corpus.KvData(keys, dict.fromkeys(keys, 0), user_bytes=8 * len(keys))
        served = _boot(seed, workdir, data, replicate=True)
        # every root cached before two readers start: two first touches at
        # the same instant would trip over the pager (README, Findings)
        _warm(served, keys)
        return served

    def _traffic(self, served: Served, seconds: float, rec: Recorder | None, state: dict):
        """Two reader sessions: 80 % ``get`` of one uniformly chosen
        counter, 20 % ``call app.step``.  Writer session: ``set`` of per-key
        increasing counters, and ``REDEFINITIONS`` evenly spaced ``run``s
        that redefine ``app.step``.

        Two readers, not one: a single closed-loop session leaves both CPUs
        idle half of the time, every request then pays two wake-ups of a
        halted virtual CPU, and its latency follows the hypervisor's mood
        (0.19 to 0.27 ms median from one hour to the next).  Two keep the
        daemon's CPU busy, as on ``kv_read``.

        The writer is open loop: one request every ``WRITE_INTERVAL``, timed
        from when it was due.  Closed loop, reader and writer fall into one
        of two lock-step regimes (one read per commit, or five) by
        scheduling luck, and every metric of the run follows the regime."""
        keys = served.data.keys
        classes = {"get": Samples(), "call": Samples(), "set": Samples(), "run": Samples()}
        #: per-key counter the writer is about to install / has installed
        sending, counters = state["sending"], state["counters"]
        seen: dict[str, int] = {}
        miss_latencies: list[float] = []
        lateness: list[float] = []
        schedule = {"opened": 0.0, "slot": 0, "redefine": False}

        def reader(client, rng, gate) -> bool:
            if rng.random() < 0.8:
                key = rng.choice(keys)
                floor = seen.get(key, 0)
                got = _timed(classes["get"], gate, rec, "server.get", lambda: client.get(key))[key]
                seen[key] = max(floor, got)
                # a counter never goes backwards and never runs ahead of the writer
                return floor <= got <= sending[key]
            k = rng.randrange(1000)
            floor = state["seen_generation"]
            started = time.perf_counter()
            got = _timed(
                classes["call"], gate, rec, "server.call",
                lambda: client.call("app", "step", [k], full=True),
            )
            classes["call"].cache[got["cache"]] += 1
            if got["cache"] == "miss":
                miss_latencies.append(time.perf_counter() - started)
            generation = got["value"] - k
            state["seen_generation"] = max(floor, generation)
            # app.step never goes back a generation nor runs ahead of the writer
            return floor <= generation <= state["installing"]

        def writer(client, rng, gate) -> bool:
            if schedule["slice"] != gate.slice:  # a new slice: the schedule restarts
                schedule.update(slice=gate.slice, opened=gate.opened_at, slot=0)
            schedule["slot"] += 1
            due = schedule["opened"] + schedule["slot"] * WRITE_INTERVAL
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(-delay, 0.0))
            if schedule["slot"] == 1 and gate.slice in schedule["redefine_in"]:
                state["installing"] += 1
                _timed(
                    classes["run"], gate, rec, "server.run",
                    lambda: client.run(corpus.step_source(state["installing"])), due,
                )
                return True
            key = rng.choice(keys)
            sending[key] = counters[key] + 1
            _timed(classes["set"], gate, rec, "server.set",
                   lambda: client.set(key, sending[key]), due)
            counters[key] = sending[key]
            return True

        def on_slice(index: int, count: int) -> None:
            if index == 0:
                # evenly spaced: one redefinition opens each chosen slice
                step = count / (REDEFINITIONS + 1)
                schedule["redefine_in"] = {
                    min(count - 1, round(step * (i + 1))) for i in range(REDEFINITIONS)
                }
                schedule["slice"] = -1

        stretch = run_traffic(
            served, [reader, reader, writer], self.seeds(served, 3), classes, seconds, self.helper,
            SHORT_REQUESTS, on_slice=on_slice,
        )
        state["late_ms"] = max(lateness, default=0.0) * 1e3
        state["miss_latencies"] = miss_latencies
        return stretch

    @staticmethod
    def _state(served: Served) -> dict:
        return {
            "sending": dict(served.data.values),
            "counters": dict(served.data.values),
            "installing": 0, "seen_generation": 0,
        }

    def _verify(self, served: Served, state: dict) -> tuple[int, int]:
        """Every acknowledged set is what a fresh session reads."""
        wrong = 0
        keys = served.data.keys
        with connect(served.daemon.port) as client:
            for offset in range(0, len(keys), 500):
                batch = keys[offset : offset + 500]
                got = client.get(*batch)
                wrong += sum(1 for key in batch if got[key] != state["counters"][key])
        return len(keys), wrong

    def run(self, served: Served, seconds: float) -> Outcome:
        state = self._state(served)
        stretch = self._traffic(served, seconds, None, state)
        read_back, wrong = self._verify(served, state)
        metrics = _end_to_end(served, stretch, "get", stretch.typical_ms("set"))
        # the writer's throughput, not the reader's: on its 20/s schedule
        # unless the write path cannot keep it.  (The reader's rate is one
        # session's round trips over an otherwise idle CPU pair; it follows
        # the hypervisor's wake-up latency, not the program.)
        writes = len(stretch.classes["set"].latencies) + len(stretch.classes["run"].latencies)
        metrics["ops_per_s"] = writes / sum(piece.traffic_s for piece in stretch.slices)
        return Outcome(
            attempted=stretch.attempted + read_back,
            failed=stretch.failed + wrong,
            metrics=metrics,
            info={
                **_raw_info(stretch),
                "redefinitions": len(stretch.classes["run"].latencies),
                "writer_max_late_ms": state["late_ms"],
            },
        )

    def trace(self, seed: int, workdir: str, seconds: float) -> Outcome:
        served = self.setup(seed, workdir)
        rec = Recorder()
        state = self._state(served)
        try:
            plain = self._traffic(served, seconds / 2, None, state)
            window = _Window(served)
            traced = self._traffic(served, seconds / 2, rec, state)
            window.close()
            layer = _traced_common(served, window, plain, traced)
            read_back, wrong = self._verify(served, state)
        finally:
            self.teardown(served)
        misses = state["miss_latencies"]
        layer["server.run_p50_ms"] = traced.classes["run"].p50
        layer["server.call_miss_ms"] = median(misses) * 1e3 if misses else 0.0
        layer.update(replay.read_probe(rec, served.image, served.data.keys))
        layer.update(replay.lock_wait_probe(rec, served.image, served.data.keys, seconds / 4))
        replayed = _replay(rec, served, self.replay_commits)
        layer.update(replayed["metrics"])
        layer.update(layer_shares(rec, replayed["wall_s"], since=replayed["first_span"]))
        rec.write(os.path.join(workdir, f"trace-{self.name}.ndjson"))
        return Outcome(
            attempted=plain.attempted + traced.attempted + read_back,
            failed=plain.failed + traced.failed + wrong,
            metrics=layer,
            info={
                "spans": len(rec.spans),
                "checks": {"replay_phase_sum": replayed["phase_sum"]},
                "replay_commits": replayed["commits"],
            },
        )
