"""Tests for the bounded clean-object cache (ObjectHeap(cache_limit=N))."""

import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro.obs.metrics import METRICS
from repro.store.concurrency import TransactionManager
from repro.store.heap import HeapError, ObjectHeap


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "cache.tyc")


def test_cache_limit_must_be_positive(path):
    with pytest.raises(HeapError):
        ObjectHeap(path, cache_limit=0)


def test_clean_objects_evicted_past_limit(path):
    heap = ObjectHeap(path, cache_limit=4)
    oids = [heap.store((i,)) for i in range(10)]
    heap.commit()  # everything clean now; eviction may drop to the bound
    assert len(heap._cache) <= 4
    # every object transparently reloads from its page chain
    for i, oid in enumerate(oids):
        assert heap.load(oid) == (i,)
    assert len(heap._cache) <= 4
    heap.close()


def test_dirty_objects_never_evicted(path):
    heap = ObjectHeap(path, cache_limit=2)
    dirty_oids = [heap.store((i,)) for i in range(8)]
    # nothing committed: all 8 are dirty, the bound must yield
    assert len(heap._cache) == 8
    heap.commit()
    assert len(heap._cache) <= 2
    for i, oid in enumerate(dirty_oids):
        assert heap.load(oid) == (i,)
    heap.close()


def test_eviction_is_lru(path):
    heap = ObjectHeap(path, cache_limit=3)
    oids = [heap.store((i,)) for i in range(3)]
    heap.commit()
    heap.load(oids[0])  # 0 becomes most-recent; 1 is now the LRU victim
    heap.store(("fresh",))  # push one more in (dirty, not evictable)
    assert int(oids[1]) not in heap._cache
    assert int(oids[0]) in heap._cache
    heap.close()


class _CountingCache(OrderedDict):
    """The heap's LRU dict, counting every key an iteration hands out."""

    steps = 0

    def __iter__(self):
        for key in super().__iter__():
            self.steps += 1
            yield key


def test_eviction_walks_only_as_far_as_it_evicts(path):
    """A cache miss drops one object; finding it must not visit the cache.

    Pinned as a count of steps over the LRU order, not a timing: with every
    cached object clean, evicting k objects takes exactly k steps, and dirty
    objects at the old end add only themselves.
    """
    limit = 64
    heap = ObjectHeap(path, cache_limit=limit)
    oids = [heap.store((i,)) for i in range(3 * limit)]
    heap.commit()
    heap._cache = cache = _CountingCache(heap._cache)
    assert len(cache) == limit
    evicted = METRICS.get("store.heap.evictions")
    evictions = evicted.value

    for oid in oids[:limit]:  # all evicted by now: every load is a miss
        before = cache.steps
        expected_victim = next(iter(OrderedDict.keys(cache)))
        heap.load(oid)
        assert cache.steps - before == 1
        assert expected_victim not in cache and len(cache) == limit
    assert evicted.value - evictions == limit

    # three dirty objects at the old end are stepped over, not evicted
    oldest = list(OrderedDict.keys(cache))[:3]
    for key in oldest:
        heap.update(key)
    before = cache.steps
    heap.load(oids[-1] if int(oids[-1]) not in cache else oids[limit])
    assert cache.steps - before == 4
    assert all(key in cache for key in oldest)

    # shrinking the bound evicts many at once: still one step per victim
    heap.abort()  # drops the three dirty objects from the cache
    before, excess = cache.steps, len(cache) - limit // 2
    heap.set_cache_limit(limit // 2)
    assert cache.steps - before == excess > 1
    assert len(cache) == limit // 2
    heap.close()


def test_evicted_object_loses_identity_mapping(path):
    heap = ObjectHeap(path, cache_limit=1)
    obj = tuple(["unique"])  # built at runtime: not the interned constant
    oid = heap.store(obj)
    heap.commit()
    # push enough committed objects through to evict obj
    for i in range(3):
        heap.store((i,))
    heap.commit()
    assert int(oid) not in heap._cache
    assert heap.oid_of(obj) is None  # a stale identity would corrupt store()
    # the reloaded copy is a fresh equal object
    assert heap.load(oid) == ("unique",)
    heap.close()


def test_update_after_eviction_roundtrips(path):
    heap = ObjectHeap(path, cache_limit=2)
    oid = heap.store(("v1", 0))
    heap.commit()
    for i in range(4):
        heap.store((i,))
    heap.commit()  # oid's object likely evicted now
    heap.update(oid, ("v2", 0))  # resupplying the value works regardless
    heap.commit()
    heap.close()
    reopened = ObjectHeap(path)
    assert reopened.load(oid) == ("v2", 0)
    reopened.close()


def test_unbounded_default_keeps_everything(path):
    heap = ObjectHeap(path)
    oids = [heap.store((i,)) for i in range(50)]
    heap.commit()
    assert len(heap._cache) == len(oids)
    heap.close()


def test_in_memory_heap_accepts_limit():
    # path=None has no page backing, so nothing is ever evictable — the
    # limit is simply inert instead of an error
    heap = ObjectHeap(cache_limit=2)
    oids = [heap.store((i,)) for i in range(5)]
    heap.commit()
    for i, oid in enumerate(oids):
        assert heap.load(oid) == (i,)


def test_concurrent_cache_misses_read_what_was_stored(path):
    """Snapshot readers share the RWLock's read side, so several can miss
    the cache at once: each page read (seek + read on the pager's single
    file object) and each cache install must stay whole.  Before the pager
    serialized its seek+I/O pairs, a reader's seek landed between another
    reader's seek and read, and ``load`` returned another object's bytes
    (or a checksum/decoding error)."""
    count, readers = 400, 6
    heap = ObjectHeap(path, page_size=256, cache_limit=8)
    # multi-page values: a chain read is several seek+read pairs, each a
    # window for another reader's seek
    stored = {int(heap.store((i, "v" * 600))): (i, "v" * 600) for i in range(count)}
    heap.commit()
    txns = TransactionManager(heap)
    oids = sorted(stored)
    problems: list[str] = []
    deadline = time.monotonic() + 1.0
    old_interval = sys.getswitchinterval()

    def reader(index: int) -> None:
        mine = oids[index::readers]  # distinct, uncached OIDs per thread
        try:
            while time.monotonic() < deadline and not problems:
                with txns.read():
                    for oid in mine:
                        got = heap.load(oid)
                        if got != stored[oid]:
                            problems.append(f"oid {oid}: read {got!r:.60}")
                            return
        except Exception as exc:  # a torn read can also fail to decode
            problems.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(readers)]
    sys.setswitchinterval(1e-5)  # force interleaving inside seek/read pairs
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert len(heap._cache) <= 8  # concurrent installs still honor the bound
    heap.close()
