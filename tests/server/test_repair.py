"""Integrity scrub and anti-entropy repair: bucket digests, the scrub
walker, the v6 ``repl.digest``/``repl.fetch`` wire ops, and the full
rot → scrub → degraded → repair → clean cycle on a live replica.

In-process daemons on loopback sockets (as in test_replication.py); bit
rot is injected by flipping a byte inside a committed page of a cold
replica image — the class of fault replication alone cannot catch.
"""

import os
import time

import pytest

from repro.server import ReproServer, ServerConfig, connect
from repro.server.client import ServerError
from repro.server.repair import (
    OID_BUCKET_BITS,
    bucket_digests,
    bucket_of,
    diff_buckets,
    digest_root,
    scrub_heap,
)


def _config(**overrides):
    defaults = dict(
        workers=2, queue_size=32, lock_timeout=10.0, pgo_interval=None,
        history_interval=None, profile=False,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def make_primary(tmp_path, **overrides):
    server = ReproServer(
        str(tmp_path / "primary.tyc"),
        _config(replicate=True, node_id="p1", **overrides),
    )
    server.start()
    return server


def make_replica(tmp_path, upstream, **overrides):
    server = ReproServer(
        str(tmp_path / "replica.tyc"),
        _config(
            replica_of=("127.0.0.1", upstream.port), node_id="r1", **overrides
        ),
    )
    server.start()
    return server


def wait_until(predicate, timeout=15.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def wait_caught_up(primary, replica, timeout=15.0):
    wait_until(
        lambda: replica.repl_version() >= primary.repl_version(),
        timeout=timeout,
        message="replica catch-up",
    )


def flip_committed_page(server, image_path):
    """Flip one byte inside the page of the highest committed OID."""
    heap = server.heap
    oid = sorted(heap.committed_oids())[-1]
    head, length = heap._table[oid]
    page = heap._pager.chain_pages(head, length)[0]
    offset = page * heap._pager.header.page_size + 16
    with open(image_path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))
    return oid


# ------------------------------------------------------------------ digests


class TestBucketDigests:
    def test_bucket_of_shifts(self):
        assert bucket_of(0) == 0
        assert bucket_of((1 << OID_BUCKET_BITS) - 1) == 0
        assert bucket_of(1 << OID_BUCKET_BITS) == 1

    def test_diff_buckets_handles_json_string_keys(self):
        local = {0: "aa", 1: "bb", 2: "cc"}
        remote = {"0": "aa", "1": "XX", "3": "dd"}
        assert diff_buckets(local, remote) == [1, 2, 3]
        assert diff_buckets(local, {str(k): v for k, v in local.items()}) == []

    def test_identical_images_agree(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        try:
            with connect(primary.port) as db:
                for i in range(70):
                    db.set(f"k{i}", i)
            wait_caught_up(primary, replica)
            with primary.txns.read():
                local = bucket_digests(primary.heap)
            with replica.txns.read():
                remote = bucket_digests(replica.heap)
            assert digest_root(local) == digest_root(remote)
            assert diff_buckets(local, remote) == []
            assert len(local) > 1  # enough oids to span buckets
        finally:
            replica.stop()
            primary.stop()


# -------------------------------------------------------------------- scrub


class TestScrub:
    def test_clean_image_scrubs_clean(self, tmp_path):
        server = make_primary(tmp_path)
        try:
            with connect(server.port) as db:
                for i in range(10):
                    db.set(f"k{i}", i)
            report = scrub_heap(server.heap, server.txns)
            assert report.clean
            assert report.oids_checked == len(server.heap.committed_oids())
            assert report.pages_read >= report.oids_checked
        finally:
            server.stop()

    def test_scrub_detects_flipped_page(self, tmp_path):
        server = make_primary(tmp_path)
        try:
            with connect(server.port) as db:
                for i in range(10):
                    db.set(f"k{i}", i)
            rotted = flip_committed_page(server, server.image_path)
            report = scrub_heap(server.heap, server.txns)
            assert not report.clean
            assert rotted in report.corrupt_oids
        finally:
            server.stop()

    def test_scrub_cycle_enters_degraded_without_upstream(self, tmp_path):
        # a primary has nobody to repair from: scrub must still fence
        # writes by flipping degraded read-only mode
        server = make_primary(tmp_path)
        try:
            with connect(server.port) as db:
                for i in range(10):
                    db.set(f"k{i}", i)
            flip_committed_page(server, server.image_path)
            server.health.run_scrub_cycle()
            assert server.health.degraded_info()["active"]
            assert "scrub" in server.health.degraded_info()["reason"]
            assert server.health.scrub_info()["corrupt_total"] >= 1
        finally:
            server.stop()


# ----------------------------------------------------------------- wire ops


class TestWireOps:
    def test_repl_digest_and_fetch(self, tmp_path):
        server = make_primary(tmp_path)
        try:
            with connect(server.port) as db:
                for i in range(5):
                    db.set(f"k{i}", i)
                digest = db.request("repl.digest")
                assert digest["version"] == server.repl_version()
                assert digest["bucket_bits"] == OID_BUCKET_BITS
                assert digest["oids"] == len(server.heap.committed_oids())
                assert set(digest["buckets"]) == {
                    str(bucket_of(oid)) for oid in server.heap.committed_oids()
                }
                with server.txns.read():
                    local = bucket_digests(server.heap)
                assert digest["root"] == digest_root(local)

                fetched = db.request(
                    "repl.fetch", buckets=[int(b) for b in digest["buckets"]]
                )
                assert fetched["count"] == digest["oids"]
                oids = {oid for oid, _ in fetched["objects"]}
                assert oids == set(server.heap.committed_oids())
                for oid, payload_hex in fetched["objects"]:
                    assert (
                        bytes.fromhex(payload_hex)
                        == server.heap.committed_payload(oid)
                    )
        finally:
            server.stop()

    def test_repl_fetch_rejects_bad_operands(self, tmp_path):
        server = make_primary(tmp_path)
        try:
            with connect(server.port) as db:
                db.set("k", 1)
                for bad in ({"buckets": "0"}, {"buckets": [-1]}, {}):
                    with pytest.raises(ServerError):
                        db.request("repl.fetch", **bad)
        finally:
            server.stop()


# ------------------------------------------------------------------- repair


class TestAntiEntropyRepair:
    def test_rot_scrub_repair_cycle(self, tmp_path):
        primary = make_primary(tmp_path)
        replica = make_replica(tmp_path, primary)
        try:
            with connect(primary.port) as db:
                for i in range(70):
                    db.set(f"k{i}", {"i": i})
            wait_caught_up(primary, replica)
            total = len(replica.heap.committed_oids())
            flip_committed_page(replica, replica.image_path)

            final = replica.health.run_scrub_cycle()
            info = replica.health.scrub_info()
            assert info["corrupt_total"] >= 1
            repair = info["last_repair"]
            assert repair["converged"]
            # anti-entropy means fetching diverged buckets, not everything
            assert 0 < repair["objects_applied"] < total
            assert final["clean"]
            assert not replica.health.degraded_info()["active"]

            with connect(primary.port) as db:
                primary_root = db.request("repl.digest")["root"]
            with connect(replica.port) as db:
                replica_root = db.request("repl.digest")["root"]
            assert primary_root == replica_root
            # and the replica still follows new commits after repair
            with connect(primary.port) as db:
                db.set("after-repair", 1)
            wait_caught_up(primary, replica)
        finally:
            replica.stop()
            primary.stop()

    def test_scrub_daemon_thread_runs(self, tmp_path):
        server = make_primary(tmp_path, scrub_interval=0.05)
        try:
            with connect(server.port) as db:
                db.set("k", 1)
            wait_until(
                lambda: server.health.scrub_info()["cycles"] >= 2,
                message="background scrub cycles",
            )
            assert server.health.scrub_info()["last"]["clean"]
        finally:
            server.stop()
