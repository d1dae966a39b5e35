"""In-image metrics history — observability that survives the process.

The daemon periodically snapshots its :class:`MetricsRegistry` into a
bounded ring persisted under heap root ``obs:history``, flushed on the
next write commit.  The image then carries
its own recent operational record: after a crash or restart,
``python -m repro stats IMAGE --history`` replays what the server was
doing — request rates, latency percentiles, replication lag — without any
external metrics pipeline having been attached.

The persisted form is integer-only: the repro serializer stores ints,
strings, tuples and dicts but not floats, so :func:`sanitize_snapshot`
rounds every float (latencies are already in µs, timestamps in ms — the
sub-unit fraction is noise).  Replicas never flush history locally (they
never write their image); only the writing primary accumulates it.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "HISTORY_ROOT",
    "MetricsHistory",
    "sanitize_snapshot",
    "read_history",
]

HISTORY_ROOT = "obs:history"


def sanitize_snapshot(value):
    """Deep-copy a metrics snapshot into serializer-storable values.

    Floats become rounded ints, lists become tuples; None/bool/int/str
    pass through; anything else degrades to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return round(value)
    if isinstance(value, dict):
        return {str(k): sanitize_snapshot(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(sanitize_snapshot(v) for v in value)
    return repr(value)


class MetricsHistory:
    """Bounded ring of registry snapshots, persisted under ``obs:history``."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("history capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: list[dict] = []
        self._next_seq = 0
        self._dirty = False

    def record(self, registry, ts_ms: int | None = None, **meta) -> dict:
        """Append one sanitized snapshot of ``registry`` to the ring."""
        if ts_ms is None:
            ts_ms = int(time.time() * 1000)
        entry = {
            "seq": 0,
            "ts_ms": int(ts_ms),
            "metrics": sanitize_snapshot(registry.snapshot()),
        }
        if meta:
            entry["meta"] = sanitize_snapshot(meta)
        with self._lock:
            entry["seq"] = self._next_seq
            self._next_seq += 1
            self._entries.append(entry)
            if len(self._entries) > self.capacity:
                del self._entries[: len(self._entries) - self.capacity]
            self._dirty = True
        return entry

    def entries(self, n: int | None = None) -> list[dict]:
        """Snapshots oldest-first (the last ``n`` when given)."""
        with self._lock:
            entries = list(self._entries)
        return entries if n is None else entries[-max(0, n):]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "kept": len(self._entries),
                "recorded": self._next_seq,
                "dirty": self._dirty,
            }

    # -------------------------------------------------------- image resident

    def attach(self, heap) -> int:
        """Load persisted snapshots from the image; returns how many."""
        stored = read_history(heap)
        if not stored:
            return 0
        with self._lock:
            merged = stored[-self.capacity:] + self._entries
            self._entries = merged[-self.capacity:] if len(merged) > self.capacity else merged
            top = max(e.get("seq", -1) for e in self._entries) + 1
            self._next_seq = max(self._next_seq, top)
            return len(self._entries)

    def flush(self, heap) -> None:
        """Persist the ring under ``obs:history``; must run inside a write
        transaction, whose commit publishes it."""
        with self._lock:
            if not self._dirty:
                return
            payload = {
                "capacity": self.capacity,
                "next_seq": self._next_seq,
                "entries": tuple(dict(e) for e in self._entries),
            }
            self._dirty = False
        oid = heap.root(HISTORY_ROOT)
        if oid is None:
            oid = heap.store(payload)
            heap.set_root(HISTORY_ROOT, oid)
        else:
            heap.update(oid, payload)


def read_history(heap) -> list[dict]:
    """Read persisted snapshots from an image, oldest-first (offline use)."""
    oid = heap.root(HISTORY_ROOT)
    if oid is None:
        return []
    stored = heap.load(oid)
    if not isinstance(stored, dict):
        return []
    entries = stored.get("entries", ())
    if not isinstance(entries, (list, tuple)):
        return []
    out = [dict(e) for e in entries if isinstance(e, dict)]
    out.sort(key=lambda e: e.get("seq", 0))
    return out
