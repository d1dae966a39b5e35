"""The audit's summary cache: one record per stored function's PTML hash.

The paper attaches the persistent TML tree (PTML) to every compiled
function; ``sha256(PTML bytes)`` is therefore the function's identity —
two functions with byte-identical PTML behave identically, whatever
session compiled them.  The whole-image audit
(:mod:`repro.analysis.audit`) keeps *one* record per such hash, persisted
under heap root ``analysis:facts``, holding the interprocedural
:class:`~repro.analysis.absint.Summary` it computed for that code.  No
record vouches for the bytecode itself — the hash does not cover it — so
code is verified wherever it enters, never skipped on a record's say-so.
Nothing but the audit reads or writes the cache; the optimizer's derived
attributes live on the variant they describe, in the module record.

Staleness is interprocedural: a summary for ``A`` computed when ``A`` calls
``B`` calls ``C`` depends on all three bodies, so each record carries the
PTML hashes of every *transitive* callee at computation time.  A record is
valid only while its own hash and every dependency hash still name the
current stored code — redefining ``C`` invalidates ``A``'s fact even though
``A``'s own PTML is unchanged.

A redefinition leaves the old hash's record in place; the next audit
prunes it (its hash is no longer stored) and recomputes facts only for the
invalidated slice of the graph.  Records serialize as plain dicts, so no
codec registration is needed and older readers skip unknown fields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.absint import Summary

__all__ = ["FactRecord", "FactStore", "FACTS_ROOT", "FACTS_SCHEMA"]

FACTS_ROOT = "analysis:facts"
FACTS_SCHEMA = "repro.analysis.facts/v1"


class FactRecord:
    """Everything persisted about one PTML hash."""

    __slots__ = ("key", "name", "summary", "deps")

    def __init__(
        self,
        key: str,
        name: str,
        summary: Summary | None = None,
        deps: tuple = (),
    ):
        self.key = key
        self.name = name
        self.summary = summary
        #: ((qualified callee, its PTML hash), ...) over *transitive* callees
        self.deps = tuple(deps)

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
        return data

    @staticmethod
    def from_dict(data: dict) -> "FactRecord | None":
        """A record from its persisted dict; the ``verified`` and
        ``attributes`` keys older writers stored are ignored."""
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
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    def __repr__(self) -> str:
        return f"<fact {self.name} {self.key[:12]} deps={len(self.deps)}>"


class FactStore:
    """The records of one persistent image, by PTML hash; one audit pass
    owns it."""

    def __init__(self) -> None:
        self._records: dict[str, FactRecord] = {}
        self._dirty = False

    # ------------------------------------------------------------- lookup

    def lookup(self, key: str, current: dict[str, str | None] | None = None
               ) -> FactRecord | None:
        """Fetch a record; with ``current`` hashes, reject stale ones."""
        record = self._records.get(key)
        if record is None or (current is not None and not record.valid_for(current)):
            return None
        return record

    def install(self, record: FactRecord) -> None:
        """Store ``record``, replacing any record of its key."""
        self._records[record.key] = record
        self._dirty = True

    def invalidate(self, key: str) -> bool:
        """Drop a record (an audit found an error in its function); True
        when present."""
        dropped = self._records.pop(key, None) is not None
        self._dirty |= dropped
        return dropped

    def prune(self, current: dict[str, str | None]) -> list[str]:
        """Drop every record made stale by the given current hashes.

        Returns the names of the pruned records (for TAM112 reporting).
        """
        pruned: list[str] = []
        live_keys = set(current.values())
        for key in list(self._records):
            record = self._records[key]
            if key not in live_keys or not record.valid_for(current):
                pruned.append(record.name)
                del self._records[key]
        self._dirty |= bool(pruned)
        return pruned

    def keys(self) -> list[str]:
        return list(self._records)

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
        for key, data in stored.items():
            record = FactRecord.from_dict(data)
            if isinstance(key, str) and record is not None:
                self._records.setdefault(key, record)
                loaded += 1
        self._dirty = False
        return loaded

    def flush(self, heap) -> None:
        """Persist all records under ``analysis:facts``; it marks the heap
        dirty, and the caller's commit publishes it."""
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
