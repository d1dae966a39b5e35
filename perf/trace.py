"""In-memory span recorder for the traced benchmark run.

Spans are recorded from *outside* the program: :meth:`Recorder.instrument`
swaps a public function (or method) for a wrapper that brackets the call,
and :meth:`Recorder.restore` puts the originals back.  Nothing under
``src/`` knows it is being traced.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
span that caused it (-1 for a root) and ``op`` the index of its root, so
every span of one benchmark operation shares an identifier.  Spans stay in
memory until :meth:`Recorder.write` dumps them as NDJSON when the run ends.

Self time of a span is its duration minus the durations of its direct
children — the part of the interval no instrumented callee accounts for.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Recorder", "Totals"]


class Totals:
    """Aggregate of every span sharing one name."""

    __slots__ = ("count", "total_s", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Recorder:
    def __init__(self) -> None:
        #: [name, start, end, parent, op] per span, in start order per thread
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, 0.0, 0.0, parent, -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        record[4] = self.spans[parent][4] if parent >= 0 else index
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def instrument(self, owner, attr: str, name: str, on_result=None, on_args=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``owner`` is the namespace the *caller* resolves the function in: a
        module that did ``from x import f`` holds its own binding of ``f``,
        so that module is the owner, not ``x``.  ``on_result(result)`` sees
        each return value and ``on_args(*args)`` each call's arguments (to
        harvest counts the callee reports or is handed).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(original, staticmethod)
        target = original.__func__ if is_static else original

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(*args, **kwargs)
            with self.span(name):
                result = target(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patched.append((owner, attr, original))

    def instrument_item(self, mapping: dict, key, name: str) -> None:
        """Like :meth:`instrument` for a function held in a dict (a
        dispatch table the program looks up at call time)."""
        original = mapping[key]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        mapping[key] = wrapper
        self._patched.append((mapping, key, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def totals(self, since: int = 0) -> dict[str, Totals]:
        """Per-name count, total and self time over spans ``since`` onward."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[since:]:
            if parent >= since:
                child_time[parent] += end - start
        out: dict[str, Totals] = defaultdict(Totals)
        for index, (name, start, end, _, _) in enumerate(self.spans[since:], since):
            entry = out[name]
            entry.count += 1
            entry.total_s += end - start
            entry.self_s += (end - start) - child_time.get(index, 0.0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fp.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        },
                        separators=(",", ":"),
                    )
                )
                fp.write("\n")
