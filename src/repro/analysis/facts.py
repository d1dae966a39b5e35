"""The image-resident record of each stored function, keyed by PTML hash.

The paper attaches the persistent TML tree (PTML) to every compiled
function; ``sha256(PTML bytes)`` is therefore the function's identity —
two functions with byte-identical PTML behave identically, whatever
session compiled them.  This module keeps *one* record per such hash,
persisted under heap root ``analysis:facts``, holding everything derived
from that code:

* the interprocedural :class:`~repro.analysis.absint.Summary` computed by
  the audit (None on a record that carries only attributes).  No record
  vouches for the bytecode itself — the hash does not cover it — so code is
  verified wherever it enters, never skipped on a record's say-so;
* the optimizer's derived attributes (§4.1: "costs, savings, ... attached
  to the generated code which also become part of the persistent system
  state"), per optimizer fingerprint: ``{fingerprint: {cost_before,
  cost_after, entities, code_size}}``.  They belong to the hash of the code
  that was optimized, so a redefined function never inherits its
  predecessor's costs.

Staleness is interprocedural: a summary for ``A`` computed when ``A`` calls
``B`` calls ``C`` depends on all three bodies, so each record carries the
PTML hashes of every *transitive* callee at computation time.  A record is
valid only while its own hash and every dependency hash still name the
current stored code — redefining ``C`` invalidates ``A``'s fact even though
``A``'s own PTML is unchanged.

When ``run`` redefines a function the daemon drops the old hash's record;
the next audit recomputes facts only for the invalidated slice of the
graph.  Records serialize as plain dicts, so no codec registration is
needed and older readers skip unknown fields.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.obs.metrics import METRICS

if TYPE_CHECKING:
    from repro.analysis.absint import Summary

__all__ = ["FactRecord", "FactStore", "FACTS_ROOT", "FACTS_SCHEMA"]

FACTS_ROOT = "analysis:facts"
FACTS_SCHEMA = "repro.analysis.facts/v1"

_HITS = METRICS.counter("analysis.facts.hits", "analysis-fact cache hits")
_MISSES = METRICS.counter("analysis.facts.misses", "analysis-fact cache misses")
_STALE = METRICS.counter(
    "analysis.facts.stale", "records rejected because a dependency hash moved"
)
_INVALIDATIONS = METRICS.counter(
    "analysis.facts.invalidations", "records dropped (redefinition, failed audit)"
)
_ENTRIES = METRICS.gauge("analysis.facts.entries", "live analysis-fact records")


class FactRecord:
    """Everything persisted about one PTML hash."""

    __slots__ = ("key", "name", "summary", "deps", "attributes")

    def __init__(
        self,
        key: str,
        name: str,
        summary: Summary | None = None,
        deps: tuple = (),
        attributes: dict | None = None,
    ):
        self.key = key
        self.name = name
        self.summary = summary
        #: ((qualified callee, its PTML hash), ...) over *transitive* callees
        self.deps = tuple(deps)
        #: optimizer fingerprint -> {cost_before, cost_after, entities, code_size}
        self.attributes = dict(attributes or {})

    def valid_for(self, current: dict[str, str | None]) -> bool:
        """True while every dependency still names the current stored code.

        ``current`` maps qualified names to their present PTML hashes; a
        dependency whose function vanished or whose hash moved makes the
        record stale.
        """
        for qualified, dep_hash in self.deps:
            if current.get(qualified) != dep_hash:
                return False
        return True

    def as_dict(self) -> dict:
        data = {
            "schema": FACTS_SCHEMA,
            "key": self.key,
            "name": self.name,
            "deps": tuple((qualified, dep_hash) for qualified, dep_hash in self.deps),
        }
        if self.summary is not None:
            data["summary"] = self.summary.as_dict()
        if self.attributes:
            data["attributes"] = {fp: dict(attrs) for fp, attrs in self.attributes.items()}
        return data

    @staticmethod
    def from_dict(data: dict) -> "FactRecord | None":
        """A record from its persisted dict; the ``verified`` key older
        writers stored is ignored."""
        if not isinstance(data, dict) or data.get("schema") != FACTS_SCHEMA:
            return None
        try:
            summary = data.get("summary")
            if summary is not None:
                # the abstract interpreter loads only when a summary is read
                from repro.analysis import absint

                summary = absint.Summary.from_dict(summary)
            return FactRecord(
                key=str(data["key"]),
                name=str(data.get("name", "?")),
                summary=summary,
                deps=tuple(
                    (str(qualified), str(dep_hash) if dep_hash is not None else None)
                    for qualified, dep_hash in data.get("deps", ())
                ),
                attributes={
                    str(fp): dict(attrs)
                    for fp, attrs in data.get("attributes", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    def __repr__(self) -> str:
        return f"<fact {self.name} {self.key[:12]} deps={len(self.deps)}>"


class FactStore:
    """The records of one persistent image, by PTML hash."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, FactRecord] = {}
        self._dirty = False

    # ------------------------------------------------------------- lookup

    def lookup(self, key: str, current: dict[str, str | None] | None = None
               ) -> FactRecord | None:
        """Fetch a record; with ``current`` hashes, reject stale ones."""
        with self._lock:
            record = self._records.get(key)
        if record is None:
            _MISSES.inc()
            return None
        if current is not None and not record.valid_for(current):
            _STALE.inc()
            _MISSES.inc()
            return None
        _HITS.inc()
        return record

    def install(self, record: FactRecord) -> None:
        """Store ``record``; attributes of the record it replaces carry over
        unless ``record`` has its own for the same fingerprint."""
        with self._lock:
            old = self._records.get(record.key)
            if old is not None and old.attributes:
                record.attributes = {**old.attributes, **record.attributes}
            self._records[record.key] = record
            self._dirty = True
            _ENTRIES.set(len(self._records))

    def annotate(self, key: str, name: str, fingerprint: str, attributes: dict
                 ) -> FactRecord:
        """Attach derived attributes under ``fingerprint`` to ``key``'s
        record, creating an attributes-only record when there is none."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                record = self._records[key] = FactRecord(key, name)
                _ENTRIES.set(len(self._records))
            record.attributes[fingerprint] = dict(attributes)
            self._dirty = True
        return record

    def invalidate(self, key: str) -> bool:
        """Drop a record (its function was redefined, or an audit found an
        error in it); True when present."""
        with self._lock:
            dropped = self._records.pop(key, None) is not None
            if dropped:
                self._dirty = True
            _ENTRIES.set(len(self._records))
        if dropped:
            _INVALIDATIONS.inc()
        return dropped

    def prune(self, current: dict[str, str | None]) -> list[str]:
        """Drop every record made stale by the given current hashes.

        Returns the names of the pruned records (for TAM112 reporting).
        """
        pruned: list[str] = []
        live_keys = set(current.values())
        with self._lock:
            for key in list(self._records):
                record = self._records[key]
                if key not in live_keys or not record.valid_for(current):
                    pruned.append(record.name)
                    del self._records[key]
            if pruned:
                self._dirty = True
            _ENTRIES.set(len(self._records))
        return pruned

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._records)

    def stats(self) -> dict:
        return {
            "entries": len(self._records),
            "hits": _HITS.value,
            "misses": _MISSES.value,
            "stale": _STALE.value,
            "invalidations": _INVALIDATIONS.value,
        }

    # -------------------------------------------------------- image resident

    def attach(self, heap) -> int:
        """Load persisted records from the image (warm start)."""
        oid = heap.root(FACTS_ROOT)
        if oid is None:
            return 0
        try:
            stored = heap.load(oid)
        except Exception:
            return 0
        if not isinstance(stored, dict):
            return 0
        loaded = 0
        with self._lock:
            for key, data in stored.items():
                record = FactRecord.from_dict(data)
                if isinstance(key, str) and record is not None:
                    self._records.setdefault(key, record)
                    loaded += 1
            self._dirty = False
            _ENTRIES.set(len(self._records))
        return loaded

    def flush(self, heap) -> None:
        """Persist all records under ``analysis:facts``.

        Must run inside a write transaction when used through the daemon —
        it marks the heap dirty; the surrounding commit publishes it.
        """
        with self._lock:
            if not self._dirty:
                return
            snapshot = {key: record.as_dict() for key, record in self._records.items()}
            self._dirty = False
        oid = heap.root(FACTS_ROOT)
        if oid is None:
            oid = heap.store(snapshot)
            heap.set_root(FACTS_ROOT, oid)
        else:
            heap.update(oid, snapshot)
