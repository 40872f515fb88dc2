"""Tests for the persistent (on-disk) tier of the FlowContext.

Covers cross-instance round-trips, integrity-checked loads (corrupt
entries recover by recomputing, never crash), LRU size-cap eviction, the
hardened ``stable_hash`` (address-bearing reprs are rejected), and a full
flow re-run served entirely from disk by a second, fresh context.
"""

import os
import time

import pytest

from repro.cells import build_library
from repro.circuits import inverter_chain
from repro.flow import FlowConfig, FlowContext, PostOpcTimingFlow, stable_hash
from repro.flow.context import MISSING
from repro.pdk import make_tech_90nm


@pytest.fixture(scope="module")
def tech():
    return make_tech_90nm()


@pytest.fixture(scope="module")
def lib(tech):
    return build_library(tech)


class TestStableHashHardening:
    def test_address_bearing_repr_rejected(self):
        class Plain:
            pass

        with pytest.raises(TypeError, match="address-bearing"):
            stable_hash(Plain())

    def test_nested_offender_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(("fine", {"key": object()}))

    def test_lambda_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(lambda x: x)

    def test_value_like_reprs_still_hash(self):
        class Point:
            def __init__(self, x):
                self.x = x

            def __repr__(self):
                return f"Point({self.x})"

        assert stable_hash(Point(1)) == stable_hash(Point(1))
        assert stable_hash(Point(1)) != stable_hash(Point(2))


class TestDiskRoundTrip:
    def test_cross_instance_round_trip(self, tmp_path):
        d = str(tmp_path)
        first = FlowContext(cache_dir=d)
        first.store("k1", {"mask": [1.5, 2.5], "n": 3})
        assert first.stats()["disk"]["writes"] == 1

        second = FlowContext(cache_dir=d)
        assert second.fetch("k1") == ({"mask": [1.5, 2.5], "n": 3}, "disk")
        assert second.stats()["disk"]["hits"] == 1
        # Promoted into memory: the next lookup is a memory hit.
        assert second.fetch("k1")[1] == "memory"

    def test_absent_key_is_plain_miss(self, tmp_path):
        ctx = FlowContext(cache_dir=str(tmp_path))
        assert ctx.fetch("nothere")[0] is MISSING
        assert ctx.stats()["disk"]["misses"] == 1
        assert ctx.stats()["disk"]["corruptions"] == 0

    def test_contains_sees_disk(self, tmp_path):
        d = str(tmp_path)
        FlowContext(cache_dir=d).store("k1", 42)
        assert "k1" in FlowContext(cache_dir=d)

    def test_no_disk_without_cache_dir(self, tmp_path):
        ctx = FlowContext()
        ctx.store("k1", 42)
        assert ctx.stats()["disk"]["enabled"] is False
        assert ctx.stats()["disk"]["writes"] == 0


class TestCorruptionRecovery:
    def _seed(self, d):
        ctx = FlowContext(cache_dir=d)
        ctx.store("k1", list(range(100)))
        return ctx._data_path("k1"), ctx._hash_path("k1")

    def test_truncated_payload_recomputes(self, tmp_path):
        d = str(tmp_path)
        data_path, _ = self._seed(d)
        with open(data_path, "wb") as fh:
            fh.write(b"\x80truncated")
        ctx = FlowContext(cache_dir=d)
        calls = []
        value = ctx.memo("stage", "k1", lambda: calls.append(1) or "fresh")
        assert value == "fresh" and calls == [1]
        assert ctx.disk_corruptions == 1
        # The damaged files were dropped and the recompute re-persisted.
        assert FlowContext(cache_dir=d).fetch("k1")[0] == "fresh"

    def test_missing_sidecar_is_corruption(self, tmp_path):
        d = str(tmp_path)
        data_path, hash_path = self._seed(d)
        os.remove(hash_path)
        ctx = FlowContext(cache_dir=d)
        assert ctx.fetch("k1")[0] is MISSING
        assert ctx.disk_corruptions == 1
        assert not os.path.exists(data_path)

    def test_wrong_hash_is_corruption(self, tmp_path):
        d = str(tmp_path)
        _, hash_path = self._seed(d)
        with open(hash_path, "w") as fh:
            fh.write("0" * 64 + "\n")
        ctx = FlowContext(cache_dir=d)
        assert ctx.fetch("k1")[0] is MISSING
        assert ctx.disk_corruptions == 1

    def test_unpicklable_value_counts_write_error(self, tmp_path):
        ctx = FlowContext(cache_dir=str(tmp_path))
        ctx.store("k1", lambda: None)  # lambdas don't pickle
        assert ctx.stats()["disk"]["write_errors"] == 1
        # Still served from memory within this context.
        assert ctx.fetch("k1")[0] is not MISSING


class TestLruEviction:
    def test_oldest_entry_evicted(self, tmp_path):
        payload = list(range(200))
        ctx = FlowContext(cache_dir=str(tmp_path), max_disk_bytes=1100)
        for key in ("k1", "k2", "k3"):
            ctx.store(key, payload)
            time.sleep(0.02)
        assert ctx.disk_evictions >= 1
        fresh = FlowContext(cache_dir=str(tmp_path))
        assert fresh.fetch("k1")[0] is MISSING  # oldest went first
        assert fresh.fetch("k3")[0] is not MISSING  # newest always survives

    def test_disk_hit_refreshes_recency(self, tmp_path):
        d = str(tmp_path)
        payload = list(range(200))
        ctx = FlowContext(cache_dir=d, max_disk_bytes=1100)
        ctx.store("k1", payload)
        time.sleep(0.02)
        ctx.store("k2", payload)
        time.sleep(0.02)
        assert FlowContext(cache_dir=d).fetch("k1")[0] is not MISSING  # touch k1
        time.sleep(0.02)
        ctx.store("k3", payload)  # forces one eviction: k2 is now LRU
        fresh = FlowContext(cache_dir=d)
        assert fresh.fetch("k1")[0] is not MISSING
        assert fresh.fetch("k2")[0] is MISSING


class TestPersistentFlow:
    def test_rerun_from_fresh_context_is_all_disk_hits(self, tech, lib, tmp_path):
        d = str(tmp_path / "cache")
        config = FlowConfig(opc_mode="none", clock_period_ps=400)
        first = PostOpcTimingFlow(inverter_chain(3), tech, cells=lib,
                                  context=FlowContext(cache_dir=d))
        ref = first.run(config)
        assert all(not r.cache_hit for r in ref.trace)

        second = PostOpcTimingFlow(inverter_chain(3), tech, cells=lib,
                                   context=FlowContext(cache_dir=d))
        got = second.run(config)
        assert all(r.cache_hit and r.cache_source == "disk" for r in got.trace)
        assert got.wns_post == ref.wns_post
        assert got.wns_drawn == ref.wns_drawn
        assert got.leakage_post == ref.leakage_post
        assert got.measurements == ref.measurements
        assert got.mask_polygons == ref.mask_polygons

    def test_empty_persistent_context_is_respected(self, tech, lib, tmp_path):
        """Regression: FlowContext has __len__, so an empty context is
        falsy — the flow must not silently swap in a fresh one."""
        ctx = FlowContext(cache_dir=str(tmp_path))
        flow = PostOpcTimingFlow(inverter_chain(2), tech, cells=lib, context=ctx)
        assert flow.context is ctx
