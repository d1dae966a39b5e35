"""``repro top`` — a live terminal dashboard over the ``stats`` op.

The daemon side is the ``stats`` handler (:func:`repro.server.ops.stats`); this
module is the presentation half: :func:`render` turns one ``stats`` reply
(plus, optionally, the previous one for rates) into a fixed-width text
frame, and :func:`run_top` polls a daemon and repaints the terminal.

``render`` is a pure function of its inputs so the layout is testable
without a server or a TTY.
"""

from __future__ import annotations

import sys
import time

__all__ = ["render", "run_top"]

#: ANSI: cursor home + clear-to-end — repaint without scrollback spam
_CLEAR = "\x1b[H\x1b[J"


def _fmt_us(value) -> str:
    """Microseconds, humanized (``-`` when unknown)."""
    if value is None:
        return "-"
    value = float(value)
    if value < 1_000:
        return f"{value:.0f}us"
    if value < 1_000_000:
        return f"{value / 1_000:.1f}ms"
    return f"{value / 1_000_000:.2f}s"


def _fmt_count(value) -> str:
    if value is None:
        return "-"
    value = int(value)
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 10_000:
        return f"{value / 1_000:.1f}k"
    return str(value)


def _fmt_rate(hit_rate) -> str:
    return "-" if hit_rate is None else f"{hit_rate * 100:.1f}%"


def _latency_cells(summary: dict) -> str:
    return (
        f"p50={_fmt_us(summary.get('p50')):<8} "
        f"p99={_fmt_us(summary.get('p99')):<8} "
        f"p999={_fmt_us(summary.get('p999')):<8} "
        f"max={_fmt_us(summary.get('max'))}"
    )


def render(stats: dict, prev: dict | None = None, elapsed: float | None = None) -> str:
    """One dashboard frame from a ``stats`` reply.

    ``prev``/``elapsed`` (the previous reply and the seconds between the
    two polls) turn the monotone request counters into req/s and err/s.
    """
    lines: list[str] = []
    requests = stats.get("requests", {})
    total = requests.get("total", 0)
    errors = requests.get("errors", 0)
    rate = ""
    if prev is not None and elapsed:
        prev_requests = prev.get("requests", {})
        dt_total = total - prev_requests.get("total", 0)
        dt_errors = errors - prev_requests.get("errors", 0)
        rate = f"  {dt_total / elapsed:7.1f} req/s  {dt_errors / elapsed:.1f} err/s"
    uptime = stats.get("uptime_s", 0.0)
    lines.append(
        f"repro {stats.get('role', '?'):<10} "
        f"up {uptime:8.1f}s  v{stats.get('version', 0)} "
        f"(repl v{stats.get('repl_version', 0)})  "
        f"sessions={stats.get('sessions', 0)}"
    )
    lines.append(
        f"requests {_fmt_count(total):>8} total  "
        f"{_fmt_count(errors):>6} errors{rate}"
    )
    latency = stats.get("latency_us")
    if latency:
        lines.append(f"latency  {_latency_cells(latency)}")
    code = stats.get("codecache", {})
    hits, misses = code.get("hits", 0), code.get("misses", 0)
    seen = hits + misses
    lines.append(
        f"caches   code={_fmt_rate(hits / seen if seen else None)}"
        f" ({_fmt_count(hits)}/{_fmt_count(seen)})"
    )

    degraded = stats.get("degraded")
    if degraded:
        if degraded.get("active"):
            reason = "manual read-only" if degraded.get("manual") else (
                degraded.get("reason") or "?"
            )
            lines.append(
                f"health   DEGRADED read-only: {reason}  "
                f"probe_failures={degraded.get('probe_failures', 0)}  "
                f"recoveries={degraded.get('recoveries', 0)}"
            )
        else:
            lines.append(
                f"health   ok  recoveries={degraded.get('recoveries', 0)}"
            )
    memory = stats.get("memory")
    if memory:
        budget = memory.get("budget_bytes")
        budget_cell = (
            f"/{_fmt_count(budget)}B budget" if budget else " (no budget)"
        )
        pressure = "PRESSURE" if memory.get("pressure") else "ok"
        lines.append(
            f"memory   {pressure}  cached {_fmt_count(memory.get('cached_bytes'))}B"
            f"{budget_cell}  "
            f"{_fmt_count(memory.get('cached_objects'))} objects "
            f"(limit {memory.get('cache_limit') or '-'})  "
            f"dirty={memory.get('dirty_objects', 0)}  "
            f"shed_rounds={memory.get('shed_rounds', 0)}"
        )
    shed = stats.get("shed")
    if shed:
        lines.append(
            f"shed     deadline={_fmt_count(shed.get('deadline'))}  "
            f"overloaded={_fmt_count(shed.get('overloaded'))}  "
            f"memory={_fmt_count(shed.get('memory'))}  "
            f"io_errors={_fmt_count(shed.get('io_errors'))}  "
            f"slow_closes={_fmt_count(shed.get('slow_client_closes'))}"
        )

    replication = stats.get("replication")
    if replication:
        role = replication.get("role", "?")
        if role == "primary":
            for sub in replication.get("subscribers", ()):
                lines.append(
                    f"replica  {sub.get('node', '?'):<20} "
                    f"acked v{sub.get('acked', 0)}  "
                    f"behind {_fmt_count(sub.get('bytes_behind', 0))}B"
                )
            if not replication.get("subscribers"):
                lines.append("replica  (none subscribed)")
        else:
            lines.append(
                f"lag      versions={replication.get('lag', '?')}  "
                f"primary v{replication.get('primary_version', '?')}  "
                f"applied v{replication.get('version', '?')}"
            )
        apply_lat = replication.get("apply_latency_us")
        if apply_lat:
            lines.append(f"apply    {_latency_cells(apply_lat)}")

    coordinator = stats.get("coordinator")
    if coordinator:
        lines.append(
            f"coord    node={coordinator.get('node', '?'):<16} "
            f"recovered={'yes' if coordinator.get('recovered') else 'NO'}  "
            f"inflight={coordinator.get('inflight', 0)}  "
            f"in-doubt={coordinator.get('indoubt_decisions', 0)}  "
            f"epoch={coordinator.get('epoch', '?')}"
        )
    shards = stats.get("shards")
    if shards:
        lines.append("")
        lines.append(
            f"{'shard':<6} {'role':<9} {'v':>8} {'term':>5} "
            f"{'repl':>5} {'lag':>6} {'p99':>9} {'in-doubt':>8}  endpoints"
        )
        for sid in sorted(shards, key=lambda s: int(s)):
            row = shards[sid]
            if "error" in row:
                lines.append(
                    f"{sid:<6} {'DOWN':<9} {row['error'][:52]}"
                )
                continue
            indoubt = row.get("indoubt")
            lines.append(
                f"{sid:<6} {str(row.get('role', '?')):<9} "
                f"{_fmt_count(row.get('repl_version')):>8} "
                f"{str(row.get('term', '-')):>5} "
                f"{str(row.get('replicas', 0)):>5} "
                f"{_fmt_count(row.get('lag')):>6} "
                f"{_fmt_us(row.get('p99_us')):>9} "
                f"{('-' if indoubt is None else str(indoubt)):>8}  "
                + ",".join(row.get("endpoints", ()))
            )
    shard = stats.get("shard")
    if shard:
        lines.append(
            f"shard    id={shard.get('shard', '?')}/{shard.get('shards', '?')} "
            f"epoch={shard.get('epoch', '?')}  "
            f"share={shard.get('share', 0) * 100:.1f}%  "
            f"arcs={shard.get('ranges', '?')}  "
            f"staging={shard.get('staging', 0)}"
        )

    trace = stats.get("trace", {})
    lines.append(
        f"trace    recording={'on' if trace.get('recording') else 'off'}  "
        f"sample={trace.get('sample_rate', 1.0):g}  "
        f"history={stats.get('history', {}).get('kept', 0)} snapshots"
    )

    ops = stats.get("ops", {})
    if ops:
        lines.append("")
        lines.append(f"{'op':<12} {'count':>8}  latency")
        for name in sorted(ops, key=lambda n: -ops[n].get("count", 0)):
            summary = ops[name]
            lines.append(
                f"{name:<12} {_fmt_count(summary.get('count')):>8}  "
                f"{_latency_cells(summary)}"
            )

    slowlog = stats.get("slowlog_entries")
    if slowlog:
        lines.append("")
        lines.append(f"{'slowest':<12} {'latency':>9}  {'outcome':<12} trace")
        for entry in slowlog[:8]:
            lines.append(
                f"{entry.get('op', '?'):<12} "
                f"{_fmt_us(entry.get('latency_us')):>9}  "
                f"{entry.get('outcome', '?'):<12} "
                f"{entry.get('trace_id') or '-'}"
            )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval: float = 2.0,
    count: int | None = None,
    out=None,
) -> int:
    """Poll ``stats`` every ``interval`` seconds and repaint the terminal.

    ``count`` bounds the number of frames (None = until interrupted);
    returns a process exit status.
    """
    from repro.server.client import ClientError, ServerError, connect

    out = out or sys.stdout
    clear = _CLEAR if out.isatty() else ""
    prev: dict | None = None
    prev_at: float | None = None
    frames = 0
    try:
        with connect(port, host=host) as db:
            while count is None or frames < count:
                try:
                    stats = db.stats()
                    stats["slowlog_entries"] = db.slowlog(n=8)["entries"]
                except (ClientError, ServerError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                now = time.monotonic()
                elapsed = None if prev_at is None else now - prev_at
                out.write(clear + render(stats, prev, elapsed) + "\n")
                out.flush()
                prev, prev_at = stats, now
                frames += 1
                if count is not None and frames >= count:
                    break
                time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
