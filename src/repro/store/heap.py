"""The persistent object heap: OID → object, over the page file.

The heap is the "persistent Tycoon object store" of the paper: TML literals
may reference arbitrarily complex objects (tables, indices, ADT values,
compiled functions, PTML blobs) by OID.  Both execution engines resolve
literal OIDs through :meth:`ObjectHeap.load`.

Model:

* every stored object has an :class:`~repro.core.syntax.Oid`;
* ``store(obj)`` assigns a fresh OID; ``update(oid)`` marks it dirty;
* ``commit()`` serializes dirty objects to page chains, writes a table
  record holding just the entries and root bindings the transaction
  changed (:mod:`repro.store.table`), and publishes everything with a
  single header write (shadow-paging-lite: a crash mid-commit leaves the
  old state reachable) — a commit costs what it changed, not what the
  image holds;
* ``abort()`` drops uncommitted changes;
* named *roots* (a str → OID directory) make objects reachable across runs.

A heap can also be purely in-memory (``path=None``) — handy for tests and
for scratch images in the code-shipping example.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.syntax import Oid, Unit
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.store.pager import PageError, Pager
from repro.store.serialize import Encoder, decode_value, encode_value
from repro.store.table import encode_table, load_table

__all__ = ["HeapError", "ChangeSet", "ObjectHeap", "Transaction"]

_HEAP_LOADS = METRICS.counter("store.heap.loads", "object loads (incl. cache hits)")
_HEAP_FAULTS = METRICS.counter(
    "store.heap.faults", "loads that missed the cache and deserialized pages"
)
_HEAP_COMMITS = METRICS.counter("store.heap.commits", "atomic commits")
_HEAP_LEAKED_CHAINS = METRICS.counter(
    "store.heap.leaked_chains",
    "superseded chains leaked because they could not be walked for release",
)
_HEAP_OBJECTS_WRITTEN = METRICS.counter(
    "store.heap.objects_written", "dirty objects serialized by commits"
)
_HEAP_BYTES_COMMITTED = METRICS.counter(
    "store.heap.bytes_committed", "serialized payload bytes written by commits"
)
_HEAP_EVICTIONS = METRICS.counter(
    "store.heap.evictions", "clean cached objects evicted by the bounded cache"
)
_HEAP_CACHED = METRICS.gauge("store.heap.cached_objects", "objects in the heap cache")
_HEAP_CACHED_BYTES = METRICS.gauge(
    "store.heap.cached_bytes",
    "serialized size of cached objects whose on-disk size is known",
)
_HEAP_ROLLBACKS = METRICS.counter(
    "store.heap.io_rollbacks", "rollbacks to durable state after failed commit I/O"
)
_HEAP_TABLE_BYTES = METRICS.counter(
    "store.heap.table_bytes", "object-table record bytes written by commits"
)
_HEAP_TABLE_COMPACTIONS = METRICS.counter(
    "store.heap.table_compactions",
    "commits that wrote a complete table record (the record chain restarts there)",
)

#: distinguishes "absent from cache" from a cached ``None``-ish value
_MISSING = object()

#: types excluded from identity-based store() deduplication: CPython interns
#: small ints, short strings, None and the Unit singleton, so two logically
#: distinct stores of ``0`` would otherwise silently share one OID — and a
#: later in-place ``update`` of one alias would clobber the other
_UNTRACKED_IDENTITY = (int, float, str, bytes, type(None), Unit)


def _tracks_identity(obj: Any) -> bool:
    return not isinstance(obj, _UNTRACKED_IDENTITY)


class HeapError(Exception):
    """Invalid heap operation (unknown OID, closed heap, ...)."""


@dataclass(frozen=True)
class ChangeSet:
    """What one commit wrote, in shippable form (see ``change_sink``).

    ``objects`` holds the exact serialized payloads the commit put on
    disk, so a replica applying them reproduces the primary's logical
    state byte-for-byte per object.  ``roots`` and ``removed`` are the
    commit's *delta* to the root directory, not the directory.
    """

    objects: tuple[tuple[int, bytes], ...]
    #: roots the commit bound or rebound
    roots: dict[str, int]
    #: roots the commit unbound
    removed: tuple[str, ...]
    oid_counter: int


class ObjectHeap:
    """An object store with OID identity, caching and atomic commit.

    ``cache_limit`` bounds the in-memory object cache: once more than
    ``cache_limit`` objects are cached, the least-recently-used *clean*
    objects (committed and not marked dirty) are dropped and transparently
    re-loaded from their page chains on the next access.  Dirty objects are
    never evicted — they are the uncommitted state itself.  Long-lived
    processes (the ``repro.server`` daemon) need the bound; the default
    (``None``) keeps the historical grow-without-bound behavior.  With a
    bounded cache, mark mutated objects dirty via :meth:`update` promptly:
    a clean cached object may be evicted at any time and its next load
    yields the last *committed* state.
    """

    def __init__(
        self,
        path: str | None = None,
        page_size: int = 4096,
        cache_limit: int | None = None,
        checksum: str | None = None,
        io_factory=None,
    ):
        if cache_limit is not None and cache_limit < 1:
            raise HeapError(f"cache_limit must be positive, got {cache_limit}")
        # io_factory lets the durability tests slide a fault-injecting file
        # layer (repro.store.faults) under the real pager code
        self._pager: Pager | None = (
            Pager(path, page_size, checksum=checksum, file_factory=io_factory)
            if path
            else None
        )
        #: oid -> (head_page, length); the durable object table
        self._table: dict[int, tuple[int, int]] = {}
        #: current root directory (uncommitted edits included)
        self._roots: dict[str, int] = {}
        #: committed binding (None: unbound) of every root edited since the
        #: last commit — what abort() restores and what a commit diffs
        #: against, so neither ever copies or scans the directory
        self._root_undo: dict[str, int | None] = {}
        #: ``(head, length)`` of the durable table records, oldest (the
        #: complete one) first
        self._chain: list[tuple[int, int]] = []
        #: entries and root bindings the newest record states, when it is a
        #: delta: the next commit copies it forward with its own merged in
        self._tail: tuple[dict[int, tuple[int, int]], dict[str, int]] = ({}, {})
        #: LRU order: oldest first (only consulted when cache_limit is set)
        self._cache: OrderedDict[int, Any] = OrderedDict()
        self._cache_limit = cache_limit
        #: oid -> serialized size of the *cached* object, where known (set
        #: on load and commit); the sum is the memory-governance signal
        self._sizes: dict[int, int] = {}
        self._cached_bytes = 0
        #: guards the cache bookkeeping that *readers* mutate (LRU order,
        #: miss-path installs, eviction): snapshot readers run concurrently
        #: under the shared side of the store's RWLock.  Never held across
        #: a nested ``load`` or any pager I/O.
        self._cache_lock = threading.Lock()
        self._oid_by_identity: dict[int, int] = {}
        self._dirty: set[int] = set()
        self._next_oid = 1
        self._closed = False
        #: called at the top of every commit() — replication uses it to fold
        #: its version/term state into the same atomic commit
        self.pre_commit: Callable[["ObjectHeap"], None] | None = None
        #: called after every successful commit() with the ChangeSet the
        #: commit wrote — the primary's change-capture point
        self.change_sink: Callable[[ChangeSet], None] | None = None
        if self._pager is not None:
            self._recover()

    # ----------------------------------------------------------- recovery

    def _recover(self) -> None:
        header = self._pager.header
        self._next_oid = max(1, header.oid_counter)
        self._table, self._roots, self._chain, self._tail = load_table(
            self._pager.read_chain, header.table_page, header.table_len
        )
        self._root_undo = {}

    # ------------------------------------------------------------- object API

    def store(self, obj: Any) -> Oid:
        """Enter a new object into the heap, returning its fresh OID.

        Storing the same (identity-tracked) object twice returns the same
        OID.  Interned scalars (ints, strings, None, unit) are exempt from
        the dedup — each store gets a fresh OID, so two roots bound to the
        value ``0`` stay independently updatable.
        """
        self._check_open()
        tracked = _tracks_identity(obj)
        if tracked:
            existing = self._oid_by_identity.get(id(obj))
            if existing is not None:
                return Oid(existing)
        oid = self._next_oid
        self._next_oid += 1
        self._cache[oid] = obj
        if tracked:
            self._oid_by_identity[id(obj)] = oid
        self._dirty.add(oid)
        self._evict()
        return Oid(oid)

    def load(self, oid: Oid | int) -> Any:
        """Resolve an OID to its object (cached; nested refs swizzled)."""
        self._check_open()
        key = int(oid)
        _HEAP_LOADS.inc()
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            if self._cache_limit is not None:
                with self._cache_lock:
                    if key in self._cache:  # not evicted since the get
                        self._cache.move_to_end(key)
            return cached
        entry = self._table.get(key)
        if entry is None or self._pager is None:
            raise HeapError(f"unknown oid {key}")
        _HEAP_FAULTS.inc()
        head, length = entry
        raw = self._pager.read_chain(head, length)
        obj = decode_value(raw, resolver=self.load)
        with self._cache_lock:
            raced = self._cache.get(key, _MISSING)
            if raced is not _MISSING:
                return raced  # another reader installed it first: one identity
            self._cache[key] = obj
            self._note_size(key, len(raw))
            if _tracks_identity(obj):
                self._oid_by_identity[id(obj)] = key
        self._evict()
        return obj

    def update(self, oid: Oid | int, obj: Any = None) -> None:
        """Mark an object dirty; optionally replace its value."""
        self._check_open()
        key = int(oid)
        if obj is not None:
            old = self._cache.get(key)
            if old is not None and old is not obj and _tracks_identity(old):
                self._oid_by_identity.pop(id(old), None)
            self._cache[key] = obj
            if self._cache_limit is not None:
                self._cache.move_to_end(key)
            if _tracks_identity(obj):
                self._oid_by_identity[id(obj)] = key
        elif key not in self._cache and key not in self._table:
            raise HeapError(f"unknown oid {key}")
        self._dirty.add(key)

    def oid_of(self, obj: Any) -> Oid | None:
        """The OID under which ``obj`` is stored, if any."""
        oid = self._oid_by_identity.get(id(obj))
        return Oid(oid) if oid is not None else None

    def contains(self, oid: Oid | int) -> bool:
        key = int(oid)
        return key in self._cache or key in self._table

    def oids(self) -> Iterator[Oid]:
        """All live OIDs (committed and uncommitted)."""
        seen = set(self._table) | set(self._cache)
        return (Oid(key) for key in sorted(seen))

    # --------------------------------------------------------------- roots

    def set_root(self, name: str, oid: Oid | int) -> None:
        self._check_open()
        self._root_undo.setdefault(name, self._roots.get(name))
        self._roots[name] = int(oid)

    def root(self, name: str) -> Oid | None:
        value = self._roots.get(name)
        return Oid(value) if value is not None else None

    def load_root(self, name: str) -> Any:
        oid = self.root(name)
        if oid is None:
            raise HeapError(f"no root named {name!r}")
        return self.load(oid)

    def root_names(self) -> list[str]:
        return sorted(self._roots)

    def remove_root(self, name: str) -> bool:
        """Unbind a root name; True when it was bound.

        Removal is transactional like :meth:`set_root`: it only becomes
        durable at the next :meth:`commit` and :meth:`abort` restores the
        binding.  The value object itself is not reclaimed — it merely
        becomes unreachable (fsck reports it as a warning; ``fsck
        --repair`` quarantines it).  The sharding subsystem uses this to
        retire two-phase-commit staging roots once a transaction is
        decided.
        """
        self._check_open()
        old = self._roots.pop(name, None)
        if old is None:
            return False
        self._root_undo.setdefault(name, old)
        return True

    def _root_delta(self) -> dict[str, int]:
        """Roots whose binding differs from the committed one: name → OID,
        0 for a root that was unbound (the table record's sentinel)."""
        roots = self._roots
        return {
            name: roots.get(name, 0)
            for name, old in self._root_undo.items()
            if roots.get(name) != old
        }

    def _undo_root_edits(self, roots: dict[str, int]) -> None:
        """Take ``roots`` back to the committed bindings, in place."""
        for name, old in self._root_undo.items():
            if old is None:
                roots.pop(name, None)
            else:
                roots[name] = old

    def _committed_roots(self) -> dict[str, int]:
        """The root directory as of the last commit."""
        roots = dict(self._roots)
        self._undo_root_edits(roots)
        return roots

    # --------------------------------------------------------- transactions

    def commit(self) -> None:
        """Serialize dirty objects, then publish atomically.

        Every dirty OID must have its object in the cache: an OID marked
        dirty via ``update(oid)`` whose object was never (re)supplied would
        otherwise be silently skipped and the update lost.  The check runs
        before any page is written, so a failing commit leaves the durable
        state untouched and the dirty set intact.
        """
        self._check_open()
        if self.pre_commit is not None:
            self.pre_commit(self)
        _HEAP_COMMITS.inc()
        missing = sorted(
            key for key in self._dirty if self._cache.get(key, _MISSING) is _MISSING
        )
        if missing:
            raise HeapError(
                f"dirty oid(s) {missing} have no cached object to serialize; "
                "pass the object to update(oid, obj) before committing"
            )
        sink = self.change_sink
        roots = self._root_delta()
        if self._pager is None:
            changes = (
                tuple((key, encode_value(self._cache[key])) for key in sorted(self._dirty))
                if sink is not None
                else ()
            )
            self._dirty.clear()
            self._root_undo.clear()
            if sink is not None:
                sink(self._change_set(changes, roots))
            return
        span = TRACER.span("store.commit", dirty=len(self._dirty))
        released: list[tuple[int, int]] = []
        written = bytes_out = 0
        captured: list[tuple[int, bytes]] = []
        for key in sorted(self._dirty):
            obj = self._cache[key]
            payload = encode_value(obj)
            old = self._table.get(key)
            if old is not None:
                released.append(old)
            head = self._pager.write_chain(payload)
            self._table[key] = (head, len(payload))
            self._note_size(key, len(payload))
            if sink is not None:
                captured.append((key, payload))
            written += 1
            bytes_out += len(payload)
        _HEAP_OBJECTS_WRITTEN.inc(written)
        _HEAP_BYTES_COMMITTED.inc(bytes_out)

        kind, table_bytes = self._publish(released, self._dirty, roots)
        # the dirty set survives until the commit point so that an I/O
        # failure anywhere above leaves rollback_to_durable() enough state
        # to discard the half-written commit cleanly
        self._dirty.clear()
        span.set(
            objects_written=written, bytes_written=bytes_out,
            table_bytes=table_bytes, table_kind=kind,
        ).finish()
        self._evict()  # freshly committed objects are clean, thus evictable
        if sink is not None:
            sink(self._change_set(tuple(captured), roots))

    def _change_set(self, objects: tuple, roots: dict[str, int]) -> ChangeSet:
        return ChangeSet(
            objects,
            {name: oid for name, oid in roots.items() if oid},
            tuple(sorted(name for name, oid in roots.items() if not oid)),
            self._next_oid,
        )

    def _publish(
        self,
        released: list[tuple[int, int]],
        changed: Iterable[int],
        roots: dict[str, int],
        compact: bool = False,
    ) -> tuple[str, int]:
        """Write this commit's table record and sync — the durable commit tail.

        Shared by :meth:`commit` (local writes) and :meth:`apply_changes`
        (replicated writes).  ``changed`` (OIDs) and ``roots`` (name → OID,
        0 = unbound) are the commit's delta, and the delta is all that is
        encoded: the record chains to the durable records before it.  The
        newest delta record is copied forward with this delta merged in for
        as long as the copy fits one page, so the chain grows by bytes, not
        by commits; when the delta records would occupy as many pages as
        the complete record under them, the commit writes a complete record
        instead (*compacts*) and the old chain is released.  Counted in
        pages because a page is what a record costs however short it is.
        Then: point the header at the record, sync (the commit point),
        reclaim superseded chains, and sync again so the free list is
        durable too.  Returns the record's kind and size.
        """
        pager = self._pager
        chain = self._chain
        compact = compact or not chain
        if not compact:
            capacity = pager.chain_capacity
            entries = {oid: self._table[oid] for oid in changed}
            tail, kept = (entries, roots), chain  # kept: what the record chains to
            if len(chain) > 1:
                merged = ({**self._tail[0], **entries}, {**self._tail[1], **roots})
                raw = encode_table(*merged, prev=chain[-2])
                if len(raw) <= capacity:
                    tail, kept = merged, chain[:-1]
            if kept is chain:
                raw = encode_table(entries, roots, prev=chain[-1])
            pages = [-(-length // capacity) for _, length in [*kept, (0, len(raw))]]
            compact = sum(pages[1:]) >= pages[0]  # deltas vs the complete record
        if compact:
            raw = encode_table(self._table, self._roots)
            tail, kept = ({}, {}), []
            _HEAP_TABLE_COMPACTIONS.inc()
        _HEAP_TABLE_BYTES.inc(len(raw))

        header = pager.header
        header.table_page = pager.write_chain(raw)
        header.table_len = len(raw)
        header.oid_counter = self._next_oid
        pager.sync_header()  # the commit point
        superseded = chain[len(kept):]
        self._chain = [*kept, (header.table_page, len(raw))]
        self._tail = tail
        self._root_undo.clear()

        # space released by superseded versions is reclaimed only after the
        # new state is durable
        for head, length in superseded + released:
            self._release_superseded(head, length)
        pager.sync_header()
        return ("delta" if kept else "complete"), len(raw)

    def _release_superseded(self, head: int, length: int) -> None:
        """Best-effort reclamation of one superseded chain.

        The commit is already durable when this runs, so a chain that
        cannot be walked — bit rot on an old page is exactly what
        anti-entropy repair overwrites — is leaked rather than turned into
        a commit failure.  fsck reports leaked pages (info) and
        ``repair=True`` reclaims them.
        """
        try:
            self._pager.release_chain(head, length)
        except PageError:
            _HEAP_LEAKED_CHAINS.inc()
            TRACER.event("store.heap.leaked_chain", head=head, length=length)

    # ---------------------------------------------------------- replication

    def apply_changes(
        self,
        objects: Sequence[tuple[int, bytes]],
        roots: dict[str, int],
        removed: Sequence[str],
        oid_counter: int,
    ) -> None:
        """Apply a replicated commit: raw payloads and its root delta.

        The replica-side mirror of one primary commit (the arguments are a
        :class:`ChangeSet` / change record's fields): each object's
        serialized bytes are written verbatim under the primary's OID,
        ``roots`` are bound and ``removed`` unbound over the directory this
        heap has, and the result is published with the same atomic commit
        tail local writes use — so a crash mid-apply recovers to the
        previous applied version, never a torn one.

        Only file-backed heaps can host a replica (payloads must decode
        lazily through the table so intra-record references resolve), and
        the heap must have no uncommitted local writes — a replica is
        read-only by construction.
        """
        self._check_open()
        if self._pager is None:
            raise HeapError("apply_changes needs a file-backed heap")
        if self._dirty or self._root_undo:
            raise HeapError(
                "cannot apply replicated changes over "
                f"{len(self._dirty) + len(self._root_undo)} uncommitted local write(s)"
            )
        _HEAP_COMMITS.inc()
        span = TRACER.span("store.apply", objects=len(objects))
        released: list[tuple[int, int]] = []
        bytes_in = 0
        for oid, payload in objects:
            key = int(oid)
            old = self._table.get(key)
            if old is not None:
                released.append(old)
            # drop any cached (now stale) copy; the next load re-decodes
            stale = self._cache.pop(key, _MISSING)
            if stale is not _MISSING and _tracks_identity(stale):
                self._oid_by_identity.pop(id(stale), None)
            self._forget_size(key)
            head = self._pager.write_chain(payload)
            self._table[key] = (head, len(payload))
            bytes_in += len(payload)
        delta = {name: int(oid) for name, oid in roots.items()}
        self._roots.update(delta)
        for name in removed:
            if self._roots.pop(name, None) is not None:
                delta[name] = 0
        self._next_oid = max(self._next_oid, oid_counter)
        _HEAP_OBJECTS_WRITTEN.inc(len(objects))
        _HEAP_BYTES_COMMITTED.inc(bytes_in)
        kind, table_bytes = self._publish(
            released, [int(oid) for oid, _ in objects], delta
        )
        span.set(bytes_written=bytes_in, table_bytes=table_bytes, table_kind=kind).finish()
        self._evict()

    def reset_state(
        self,
        objects: Sequence[tuple[int, bytes]],
        roots: dict[str, int],
        oid_counter: int,
    ) -> None:
        """Replace the entire committed state (replica snapshot resync).

        Every existing table entry is dropped (its chains released) and the
        snapshot's objects and roots installed in one atomic publish — used
        when a replica's history diverged from the primary it follows and
        incremental records can no longer reconcile them.
        """
        self._check_open()
        if self._pager is None:
            raise HeapError("reset_state needs a file-backed heap")
        if self._dirty or self._root_undo:
            raise HeapError("cannot reset state over uncommitted local writes")
        released = list(self._table.values())
        self._table.clear()
        self._cache.clear()
        self._sizes.clear()
        self._cached_bytes = 0
        self._oid_by_identity.clear()
        self._next_oid = max(1, oid_counter)
        for oid, payload in objects:
            head = self._pager.write_chain(payload)
            self._table[int(oid)] = (head, len(payload))
        self._roots = dict(roots)
        self._publish(released, (), {}, compact=True)
        self._evict()

    def snapshot_state(self) -> tuple[list[tuple[int, bytes]], dict[str, int], int]:
        """The full committed state as ``(objects, roots, oid_counter)``.

        The bootstrap payload a primary ships to a joining replica whose
        version its commit log can no longer serve incrementally.
        """
        self._check_open()
        if self._pager is None:
            raise HeapError("snapshot_state needs a file-backed heap")
        objects = [
            (oid, self._pager.read_chain(head, length))
            for oid, (head, length) in sorted(self._table.items())
        ]
        return objects, self._committed_roots(), self._next_oid

    def committed_oids(self) -> list[int]:
        """Sorted OIDs present in the durable object table (scrub walk)."""
        self._check_open()
        return sorted(self._table)

    def committed_payload(self, oid: Oid | int) -> bytes:
        """One object's committed payload, read back through the
        checksummed pager.

        Deliberately bypasses the object cache: the integrity scrub and
        the anti-entropy digest tree must observe the *disk* bytes, so a
        cold page flipped by bit rot raises :class:`PageError` here even
        while cached readers still serve the object happily.
        """
        self._check_open()
        if self._pager is None:
            raise HeapError("committed_payload needs a file-backed heap")
        entry = self._table.get(int(oid))
        if entry is None:
            raise HeapError(f"unknown oid {int(oid)}")
        return self._pager.read_chain(*entry)

    def logical_digest(self) -> str:
        """SHA-256 over the committed logical state (oids, payloads, roots).

        Two heaps whose digests match hold identical objects under
        identical OIDs with identical root bindings — the replication
        harness's convergence check (page *layout* may differ between a
        primary and a replica; logical state must not).
        """
        self._check_open()
        h = hashlib.sha256()
        enc = Encoder()
        if self._pager is not None:
            for oid in sorted(self._table):
                head, length = self._table[oid]
                enc.uvarint(oid)
                enc.raw(self._pager.read_chain(head, length))
        else:
            committed = set(self._cache) - self._dirty
            for oid in sorted(committed):
                enc.uvarint(oid)
                enc.raw(encode_value(self._cache[oid]))
        for name, oid in sorted(self._committed_roots().items()):
            enc.text(name)
            enc.uvarint(oid)
        h.update(enc.getvalue())
        return h.hexdigest()

    def abort(self) -> None:
        """Discard uncommitted objects, modifications and root edits."""
        self._check_open()
        self._drop_dirty_cache()
        self._undo_root_edits(self._roots)
        self._root_undo.clear()
        # recompute next oid from durable state
        self._next_oid = (
            self._pager.header.oid_counter if self._pager is not None else self._next_oid
        )

    def _drop_dirty_cache(self) -> None:
        for key in self._dirty:
            obj = self._cache.pop(key, None)
            if obj is not None and _tracks_identity(obj):
                self._oid_by_identity.pop(id(obj), None)
            self._forget_size(key)
        self._dirty.clear()

    def rollback_to_durable(self) -> None:
        """Roll every in-memory structure back to the last durable commit.

        :meth:`abort` undoes *logical* state (dirty set, roots, next OID),
        which is enough when a commit fails before touching the file.  But
        a commit that dies partway through its I/O — ``ENOSPC`` on a chain
        write, a failed fsync inside the header sync — leaves the object
        table pointing at unpublished chains and the pager's free list and
        page count diverged from disk.  A later commit would then publish
        the aborted transaction's values.  This method re-reads the durable
        header, table, roots and free list from the file, drops every
        cached object the durable table does not vouch for, and leaves the
        heap exactly at the last successful commit (or, when the failure
        struck *after* the commit point, at the newly committed state —
        either way, at a real commit).  Orphaned pages written by the
        failed commit leak until ``fsck --repair`` reclaims them.
        """
        self._check_open()
        if self._pager is None:
            self.abort()
            return
        _HEAP_ROLLBACKS.inc()
        self._drop_dirty_cache()
        self._pager.reload()
        self._recover()
        # drop cached objects the durable table no longer knows: they may
        # carry values from the failed commit
        for key in [k for k in self._cache if k not in self._table]:
            obj = self._cache.pop(key, _MISSING)
            if obj is not _MISSING and _tracks_identity(obj):
                self._oid_by_identity.pop(id(obj), None)
            self._forget_size(key)
        self._evict()

    def close(self) -> None:
        if self._closed:
            return
        if self._pager is not None:
            self._pager.close()
        self._closed = True

    def __enter__(self) -> "ObjectHeap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- eviction

    def _evict(self) -> None:
        """Drop least-recently-used *clean* objects past ``cache_limit``.

        Only objects that are committed (present in the durable table) and
        not dirty are candidates: anything else is unrecoverable state.  If
        every cached object is dirty the cache is allowed to exceed the
        limit — correctness beats the bound.
        """
        limit = self._cache_limit
        if limit is None:
            _HEAP_CACHED.set(len(self._cache))
            return
        with self._cache_lock:
            excess = len(self._cache) - limit
            if excess > 0:
                # collected first: the dict may not change under its iterator
                victims: list[int] = []
                for key in self._cache:  # oldest first
                    if key in self._table and key not in self._dirty:
                        victims.append(key)
                        if len(victims) == excess:
                            break
                for key in victims:
                    # the writer's own cache edits (commit, abort) do not
                    # take this lock; a key it already dropped is skipped
                    obj = self._cache.pop(key, _MISSING)
                    if obj is _MISSING:
                        continue
                    if _tracks_identity(obj):
                        self._oid_by_identity.pop(id(obj), None)
                    self._forget_size(key)
                    _HEAP_EVICTIONS.inc()
        _HEAP_CACHED.set(len(self._cache))
        _HEAP_CACHED_BYTES.set(self._cached_bytes)

    def _note_size(self, key: int, nbytes: int) -> None:
        old = self._sizes.get(key, 0)
        self._sizes[key] = nbytes
        self._cached_bytes += nbytes - old

    def _forget_size(self, key: int) -> None:
        self._cached_bytes -= self._sizes.pop(key, 0)

    # ---------------------------------------------------- memory governance

    @property
    def cached_bytes(self) -> int:
        """Serialized size of cached objects, where known (a lower bound on
        the cache's real memory footprint — the daemon's budget signal)."""
        return self._cached_bytes

    @property
    def dirty_count(self) -> int:
        """Uncommitted objects held in memory (never evictable)."""
        return len(self._dirty)

    def mem_stats(self) -> dict:
        return {
            "cached_objects": len(self._cache),
            "cached_bytes": self._cached_bytes,
            "dirty_objects": len(self._dirty),
            "cache_limit": self._cache_limit,
        }

    def set_cache_limit(self, limit: int | None) -> None:
        """Re-bound the object cache at runtime (memory-watchdog shedding);
        shrinking evicts immediately."""
        if limit is not None and limit < 1:
            raise HeapError(f"cache_limit must be positive, got {limit}")
        self._cache_limit = limit
        self._evict()

    # ------------------------------------------------------------- metrics

    @property
    def file_size(self) -> int:
        return self._pager.file_size if self._pager is not None else 0

    def image_info(self) -> dict:
        """Identity/durability facts about the backing image (see ping)."""
        if self._pager is None:
            return {"path": None, "format": None}
        return self._pager.image_info()

    def stored_size(self, oid: Oid | int) -> int:
        """Serialized byte size of a committed object (E3 measurements)."""
        entry = self._table.get(int(oid))
        if entry is None:
            obj = self._cache.get(int(oid))
            if obj is None:
                raise HeapError(f"unknown oid {int(oid)}")
            return len(encode_value(obj))
        return entry[1]

    def _check_open(self) -> None:
        if self._closed:
            raise HeapError("heap is closed")


class Transaction:
    """Context-managed unit of work: commit on success, abort on exception.

    >>> with Transaction(heap):
    ...     heap.store(obj)        # doctest: +SKIP
    """

    def __init__(self, heap: ObjectHeap):
        self.heap = heap

    def __enter__(self) -> ObjectHeap:
        return self.heap

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.heap.commit()
        else:
            self.heap.abort()
        return False
