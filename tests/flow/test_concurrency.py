"""FlowContext correctness under concurrent access.

The flow service runs many jobs, each on its own thread, against one
shared context at once, so the cache must guarantee: single-flight
computation (N concurrent requests for one key compute once), recovery
from disk corruption under contention, eviction never tearing an entry
out from under a promote, and counter books that balance exactly
(consistency() is how the trace proves its dedup/hit claims).
"""

import glob
import os
import threading
import time

import pytest

from repro.flow import FlowContext
from repro.flow.context import MISSING


def _hammer(n_threads, target):
    """Run ``target(i)`` on n threads through a start barrier."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def _run(i):
        barrier.wait()
        try:
            target(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=_run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestSingleFlight:
    def test_n_settles_one_compute(self):
        ctx = FlowContext()
        computes = []

        def compute():
            computes.append(1)
            # slow enough that the other settles arrive while the first
            # computation is in flight — the single-flight path proper
            time.sleep(0.2)
            return "artifact"

        outcomes = {}

        def settle(i):
            outcomes[i] = ctx.settle("stage", "k1", compute)

        assert _hammer(8, settle) == []
        assert len(computes) == 1
        assert all(o.value == "artifact" for o in outcomes.values())
        # exactly one miss computed; the other 7 were served, each one
        # blocked on the in-flight computation and counted as deduped
        assert ctx.misses["stage"] == 1 and ctx.hits["stage"] == 7
        assert ctx.deduped == 7
        assert sum(1 for o in outcomes.values() if o.deduped) == 7
        assert sum(1 for o in outcomes.values() if not o.cache_hit) == 1
        assert ctx.consistency() == []

    def test_distinct_keys_do_not_serialize(self):
        ctx = FlowContext()

        def settle(i):
            ctx.settle("stage", f"k{i}", lambda: i)

        assert _hammer(6, settle) == []
        assert ctx.misses["stage"] == 6
        assert ctx.deduped == 0
        assert ctx.consistency() == []

    def test_compute_failure_not_cached_next_caller_retries(self):
        ctx = FlowContext()
        attempts = []

        def failing():
            attempts.append(1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ctx.settle("stage", "k1", failing)
        assert ctx.fetch("k1")[0] is MISSING
        outcome = ctx.settle("stage", "k1", lambda: "recovered")
        assert outcome.value == "recovered" and not outcome.cache_hit
        assert len(attempts) == 1

    def test_key_lock_table_drains(self):
        ctx = FlowContext()

        def settle(i):
            ctx.settle("stage", "shared", lambda: 42)

        assert _hammer(8, settle) == []
        # refcounted per-key locks are torn down at quiescence: no
        # unbounded growth across a sweep's thousands of keys
        assert ctx._key_locks == {}


class TestDiskUnderContention:
    def test_corrupt_entry_recomputed_once(self, tmp_path):
        cache = str(tmp_path / "cache")
        writer = FlowContext(cache_dir=cache)
        writer.settle("stage", "k1", lambda: {"payload": 7})

        # Corrupt the payload on disk; a fresh context (cold memory tier)
        # must detect it via the sidecar hash and recompute exactly once
        # even with every thread racing to load it.
        [data_path] = glob.glob(os.path.join(cache, "*.pkl"))
        with open(data_path, "wb") as fh:
            fh.write(b"garbage")

        reader = FlowContext(cache_dir=cache)
        computes = []

        def compute():
            computes.append(1)
            return {"payload": 7}

        def settle(i):
            assert reader.settle("stage", "k1", compute).value == {"payload": 7}

        assert _hammer(6, settle) == []
        assert len(computes) == 1
        assert reader.disk_corruptions == 1
        assert reader.consistency() == []
        # the recompute re-wrote a good entry
        final = FlowContext(cache_dir=cache)
        assert final.fetch("k1")[0] == {"payload": 7}
        assert final.disk_corruptions == 0

    def test_eviction_racing_promote(self, tmp_path):
        cache = str(tmp_path / "cache")
        # cap so small that every new store evicts older entries
        ctx = FlowContext(cache_dir=cache, max_disk_bytes=600)
        ctx.store("hot", b"x" * 100)

        def churn(i):
            if i % 2 == 0:
                for j in range(20):
                    ctx.store(f"cold-{i}-{j}", b"y" * 100)
            else:
                for _ in range(40):
                    value, _source = ctx.fetch("hot")
                    # the memory tier pins the entry even after the disk
                    # copy is evicted — a reader never sees a torn value
                    assert value == b"x" * 100

        assert _hammer(6, churn) == []
        assert ctx.disk_evictions > 0
        assert ctx.consistency() == []
        assert ctx.stats()["consistent"] is True

    def test_promote_never_clobbers_concurrent_store(self, tmp_path):
        cache = str(tmp_path / "cache")
        FlowContext(cache_dir=cache).store("k1", "from-disk")

        ctx = FlowContext(cache_dir=cache)
        results = {}

        def race(i):
            if i % 2 == 0:
                ctx.store("k1", "from-disk")
            results[i] = ctx.fetch("k1")[0]

        assert _hammer(8, race) == []
        assert set(results.values()) == {"from-disk"}
        assert ctx.consistency() == []


class TestCounterConsistency:
    def test_books_balance_under_mixed_load(self, tmp_path):
        ctx = FlowContext(cache_dir=str(tmp_path / "cache"))
        settles = 10 * 8

        def mixed(i):
            for j in range(10):
                ctx.settle(f"stage{i % 3}", f"k{j % 4}", lambda: j)

        assert _hammer(8, mixed) == []
        assert ctx.consistency() == []
        stats = ctx.stats()
        assert stats["consistent"] is True
        # every settle does exactly one fetch and books exactly one
        # per-stage hit or miss
        assert ctx.mem_lookups == settles
        per_stage = sum(ctx.hits.values()) + sum(ctx.misses.values())
        assert per_stage == settles
        # only 4 distinct keys exist, so exactly 4 computes happened
        assert sum(ctx.misses.values()) == 4
        memory = stats["memory"]
        assert memory["lookups"] == memory["hits"] + memory["misses"]
