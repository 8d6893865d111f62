"""Tests for the loser-tree merger and the batched merge data plane.

The contract under test: every merger in :data:`repro.MERGERS` produces
*bit-identical* observable behaviour — output records (keys and
payloads), the full per-merge :class:`ScheduleStats` (depletion gaps and
``M_R`` high-water mark included), the ordered parallel-operation
stream, disk-system I/O counters, and channel rounds — differing only in
internal-work counters.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MERGERS, LoserTree, SRMConfig, merge_runs, srm_sort
from repro.core.config import OverlapConfig
from repro.core.schedule import MergeScheduler
from repro.disks import IOTrace, ParallelDiskSystem, StripedRun
from repro.errors import ConfigError, ScheduleError
from repro.workloads import uniform_keys, uniform_permutation
from tests.core.test_events_golden import CONFIGS as GOLDEN_CONFIGS
from tests.core.test_events_golden import paced_merge


def build_runs(system, runs_keys, starts, payloads=None):
    return [
        StripedRun.from_sorted_keys(
            system,
            k,
            run_id=i,
            start_disk=int(starts[i]),
            payloads=None if payloads is None else payloads[i],
        )
        for i, k in enumerate(runs_keys)
    ]


def partition_runs(rng, R, L):
    perm = rng.permutation(R * L)
    return [np.sort(perm[i * L : (i + 1) * L]) for i in range(R)]


def read_records(system, run):
    blocks = [system.disks[a.disk].read(a.slot) for a in run.addresses]
    keys = np.concatenate([b.keys for b in blocks])
    if blocks[0].payloads is None:
        return keys, None
    return keys, np.concatenate([b.payloads for b in blocks])


INT64_MAX = np.iinfo(np.int64).max


def fuzz_run_keys(rng, kind, R, L):
    """*R* sorted runs of *L* keys: a distinct permutation, duplicate-heavy
    keys in ``[0, 4)``, or a mix of keys near 0 and near ``INT64_MAX``."""
    if kind == "perm":
        return partition_runs(rng, R, L)
    if kind == "dup":
        return [np.sort(rng.integers(0, 4, size=L)) for _ in range(R)]
    runs = []
    for _ in range(R):
        low = rng.integers(0, 8, size=L)
        high = INT64_MAX - rng.integers(0, 8, size=L)
        runs.append(np.sort(np.where(rng.random(L) < 0.5, low, high)))
    return runs


class TestLoserTree:
    def test_single_source(self):
        t = LoserTree([5])
        assert t.winner == 0
        assert t.winner_key() == 5
        assert t.runner_up_key() == float("inf")  # no peer
        t.replace(9)
        assert t.winner_key() == 9

    def test_winner_is_minimum(self):
        t = LoserTree([4, 2, 7, 1, 9])
        assert t.winner == 3
        assert t.winner_key() == 1

    def test_ties_go_to_smallest_leaf(self):
        t = LoserTree([3, 1, 1, 1])
        assert t.winner == 1
        t.replace(1)  # equal key: leaf 1 stays ahead of leaves 2, 3
        assert t.winner == 1

    def test_runner_up_is_second_smallest(self):
        t = LoserTree([4, 2, 7, 1, 9])
        assert t.runner_up_key() == 2

    def test_replace_drains_sorted(self):
        feeds = [[1, 4, 9], [2, 3, 10], [0, 5, 6]]
        pos = [0] * 3
        t = LoserTree([f[0] for f in feeds])
        out = []
        while t.winner_key() != float("inf"):
            w = t.winner
            out.append(t.winner_key())
            pos[w] += 1
            t.replace(feeds[w][pos[w]] if pos[w] < 3 else float("inf"))
        assert out == sorted(x for f in feeds for x in f)

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            LoserTree([])

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 17),
        n=st.integers(1, 40),
        dup=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_matches_heapq(self, seed, k, n, dup):
        """Drain k random sources; emissions must match a (key, src) heap."""
        rng = np.random.default_rng(seed)
        hi = 5 if dup else 10_000
        feeds = [sorted(rng.integers(0, hi, size=n).tolist()) for _ in range(k)]
        pos = [0] * k
        t = LoserTree([f[0] for f in feeds])
        heap = [(f[0], i) for i, f in enumerate(feeds)]
        heapq.heapify(heap)
        while heap:
            key, src = heapq.heappop(heap)
            assert (t.winner_key(), t.winner) == (key, src)
            if heap:
                assert t.runner_up_key() == heap[0][0]
            pos[src] += 1
            if pos[src] < n:
                nxt = feeds[src][pos[src]]
                heapq.heappush(heap, (nxt, src))
                t.replace(nxt)
            else:
                t.replace(float("inf"))
        assert t.winner_key() == float("inf")


class TestMergerEquivalence:
    """heapq / losertree / auto must be observationally identical."""

    def _merge_all(self, system_factory, runs_factory, **kw):
        results = []
        for merger in MERGERS:
            system = system_factory()
            runs = runs_factory(system)
            system.trace = IOTrace()
            res = merge_runs(system, runs, 50, 0, merger=merger, **kw)
            keys, pays = read_records(system, res.output)
            results.append(
                {
                    "merger": merger,
                    "keys": keys,
                    "pays": pays,
                    "sched": res.schedule,
                    "ops": [(e.kind, e.disks) for e in system.trace.events],
                    "reads": res.io.parallel_reads,
                    "writes": res.io.parallel_writes,
                    "rounds": system.channel_rounds,
                }
            )
        base = results[0]
        for other in results[1:]:
            assert np.array_equal(base["keys"], other["keys"])
            if base["pays"] is None:
                assert other["pays"] is None
            else:
                assert np.array_equal(base["pays"], other["pays"])
            for field in ("sched", "ops", "reads", "writes", "rounds"):
                assert base[field] == other[field], (other["merger"], field)
        return results

    def test_unknown_merger_rejected(self):
        system = ParallelDiskSystem(2, 2)
        runs = build_runs(system, [np.arange(4), np.arange(4, 8)], [0, 1])
        with pytest.raises(ConfigError):
            merge_runs(system, runs, 9, 0, merger="timsort")

    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(2, 6),
        blocks=st.integers(1, 8),
        b=st.integers(1, 4),
        d=st.integers(1, 4),
        kind=st.sampled_from(["perm", "dup", "extreme"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_identical_io_and_output(self, seed, r, blocks, b, d, kind):
        rng = np.random.default_rng(seed)
        L = blocks * b
        runs_keys = fuzz_run_keys(rng, kind, r, L)
        payloads = [np.arange(i * L, (i + 1) * L, dtype=np.int64) for i in range(r)]
        starts = rng.integers(0, d, size=r)

        results = self._merge_all(
            lambda: ParallelDiskSystem(d, b),
            lambda s: build_runs(s, runs_keys, starts, payloads=payloads),
            validate=True,
        )
        # Records leave in (key, run, position) order.
        tagged = sorted(
            (int(k), i, j) for i in range(r) for j, k in enumerate(runs_keys[i])
        )
        expect = np.array([payloads[i][j] for _, i, j in tagged], dtype=np.int64)
        assert np.array_equal(results[0]["pays"], expect)

    def test_duplicate_heavy_with_payloads(self):
        """Cross-run duplicates + payloads: order ties break by run index."""
        rng = np.random.default_rng(7)
        R, L = 4, 24
        runs_keys = [np.sort(uniform_keys(L, 0, 6, rng=i)) for i in range(R)]
        payloads = [np.arange(i * L, (i + 1) * L, dtype=np.int64) for i in range(R)]
        starts = rng.integers(0, 3, size=R)

        results = self._merge_all(
            lambda: ParallelDiskSystem(3, 4),
            lambda s: build_runs(s, runs_keys, starts, payloads=payloads),
            validate=True,
        )
        # Stability oracle: (key, run, position) order of the records.
        tagged = sorted(
            (int(k), r, j)
            for r in range(R)
            for j, k in enumerate(runs_keys[r])
        )
        expect_pays = np.array(
            [payloads[r][j] for _, r, j in tagged], dtype=np.int64
        )
        assert np.array_equal(results[0]["pays"], expect_pays)

    def test_all_equal_keys(self):
        runs_keys = [np.zeros(32, dtype=np.int64) for _ in range(4)]
        self._merge_all(
            lambda: ParallelDiskSystem(2, 4),
            lambda s: build_runs(s, runs_keys, [i % 2 for i in range(4)]),
            validate=True,
        )

    def test_heap_cycles_block_granular_all_mergers(self):
        """All-duplicate workloads must stay O(blocks) for every merger."""
        D, B, R, blocks_per_run = 2, 4, 4, 8
        n = B * blocks_per_run
        for merger in MERGERS:
            system = ParallelDiskSystem(D, B)
            runs = build_runs(
                system,
                [np.zeros(n, dtype=np.int64) for _ in range(R)],
                [i % D for i in range(R)],
            )
            res = merge_runs(system, runs, 20, 0, validate=True, merger=merger)
            n_blocks = res.output.n_blocks
            assert res.heap_cycles >= n_blocks, merger
            assert res.heap_cycles <= 2 * n_blocks, merger
            assert res.heap_cycles < res.output.n_records // 2, merger

    def test_batched_cycles_not_more_than_heapq(self):
        """The batched plane consumes >= one block slice per cycle."""
        rng = np.random.default_rng(3)
        runs_keys = partition_runs(rng, 5, 40)
        cycles = {}
        for merger in ("heapq", "losertree"):
            system = ParallelDiskSystem(3, 4)
            runs = build_runs(system, runs_keys, rng.integers(0, 3, size=5))
            cycles[merger] = merge_runs(
                system, runs, 50, 0, merger=merger
            ).heap_cycles
        assert cycles["losertree"] <= cycles["heapq"]

    def test_overlap_engine_uses_cycle_loop(self):
        """With an overlap engine, losertree == heapq including the report."""
        rng = np.random.default_rng(11)
        runs_keys = partition_runs(rng, 4, 32)
        starts = rng.integers(0, 2, size=4)
        reports = {}
        for merger in ("heapq", "losertree"):
            system = ParallelDiskSystem(2, 4)
            runs = build_runs(system, runs_keys, starts)
            res = merge_runs(
                system,
                runs,
                50,
                0,
                merger=merger,
                overlap=OverlapConfig(cpu_us_per_record=1.0),
            )
            keys, _ = read_records(system, res.output)
            reports[merger] = (
                res.schedule,
                res.overlap.makespan_ms,
                keys.tobytes(),
                res.heap_cycles,
            )
        assert reports["heapq"] == reports["losertree"]

    @pytest.mark.parametrize("plan,depth", GOLDEN_CONFIGS)
    def test_overlap_engine_uses_cycle_loop_latency_aware(self, plan, depth):
        """Latency-aware, trace-armed: the full report, the schedule,
        every trace record and the output records are identical."""
        ref = paced_merge(plan, depth, merger="heapq")
        got = paced_merge(plan, depth, merger="losertree")
        assert got["report"] == ref["report"]
        assert got["schedule"] == ref["schedule"]
        assert len(got["records"]) == len(ref["records"])
        for a, b in zip(got["records"], ref["records"]):
            assert a == b
        assert np.array_equal(got["keys"], ref["keys"])
        assert np.array_equal(got["payloads"], ref["payloads"])


class TestBatchedDrainGuards:
    def test_unfetched_bound_block_raises_instead_of_spinning(self, monkeypatch):
        # A fetch that brings nothing in would leave the next pass with
        # the same bound and nothing to drain: fail, do not loop.
        system = ParallelDiskSystem(2, 4)
        rng = np.random.default_rng(0)
        runs = build_runs(system, partition_runs(rng, 3, 16), [0, 1, 0])
        monkeypatch.setattr(
            MergeScheduler, "ensure_resident", lambda self, run, block: 0
        )
        with pytest.raises(ScheduleError, match="merge stalled"):
            merge_runs(system, runs, 50, 0, merger="losertree")


class TestEndToEndSortEquivalence:
    def test_srm_sort_identical_across_mergers(self):
        keys = uniform_permutation(6_000, rng=2)
        cfg = SRMConfig.from_k(2, 3, 8)
        outs = {}
        for merger in MERGERS:
            out, res = srm_sort(keys, cfg, rng=5, merger=merger)
            outs[merger] = (
                out.tobytes(),
                tuple(res.merge_schedules),
                res.io.parallel_reads,
                res.io.parallel_writes,
                res.system.channel_rounds,
            )
            assert np.array_equal(out, np.sort(keys))
        assert outs["heapq"] == outs["losertree"] == outs["auto"]

    def test_srm_sort_with_payloads_identical(self):
        rng = np.random.default_rng(9)
        keys = uniform_keys(4_000, 0, 500, rng=1)  # heavy duplicates
        payloads = np.arange(keys.size, dtype=np.int64)
        cfg = SRMConfig.from_k(2, 2, 8)
        outs = {}
        for merger in ("heapq", "losertree"):
            out, res = srm_sort(keys, cfg, rng=3, payloads=payloads, merger=merger)
            k, p = res.peek_sorted_records()
            outs[merger] = (k.tobytes(), p.tobytes())
        assert outs["heapq"] == outs["losertree"]
