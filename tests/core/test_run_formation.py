"""Tests for initial run formation (paper §2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LayoutStrategy,
    form_runs_load_sort,
    form_runs_replacement_selection,
)
from repro.core.run_formation import _MAX_ROUNDS, _BlockReplacementSelection
from repro.disks import ParallelDiskSystem, StripedFile
from repro.errors import ConfigError
from repro.workloads import zipf_keys

INT64 = np.iinfo(np.int64)

#: Key shapes for the engine differential test.  Sawtooth and up-down
#: inputs follow Bender et al., *Run Generation Revisited*; "chain" is
#: a sparse sorted prefix followed by a dense ascending stream landing
#: in its gaps, where the fixed point gains about one arrival per round.
KEY_KINDS = (
    "uniform", "equal", "zipf", "sorted", "reverse", "sawtooth", "updown",
    "extremes", "chain",
)


def generated_keys(kind: str, n: int, memory: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    period = int(rng.integers(1, 300))
    t = np.arange(n)
    if kind == "uniform":
        keys = rng.integers(-(10**9), 10**9, n)
    elif kind == "equal":
        keys = np.full(n, int(rng.integers(-5, 5)))
    elif kind == "zipf":
        keys = zipf_keys(n, 1.2, 200_000, rng=rng)
    elif kind == "sorted":
        keys = t
    elif kind == "reverse":
        keys = t[::-1]
    elif kind == "sawtooth":
        keys = t % period
    elif kind == "updown":
        phase = t % (2 * period)
        keys = np.where(phase < period, phase, 2 * period - phase)
    elif kind == "extremes":
        keys = rng.choice(
            np.array([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]),
            n,
        )
    else:  # chain
        keys = np.concatenate([np.arange(memory) * period, np.arange(1, n + 1)])[:n]
    return np.ascontiguousarray(keys, dtype=np.int64)


def spy_engine(monkeypatch) -> list[tuple]:
    """Log the block engine's refills, steps (with rounds) and promotions."""
    log: list[tuple] = []
    cls = _BlockReplacementSelection
    process, step, promote = cls._process, cls._step, cls._promote_next_epoch

    def spy_process(self, xk, xp):
        log.append(("refill", xk.size))
        process(self, xk, xp)

    def spy_step(self, xk, xp):
        rounds = step(self, xk, xp)
        log.append(("step", rounds))
        return rounds

    def spy_promote(self):
        log.append(("promote",))
        promote(self)

    monkeypatch.setattr(cls, "_process", spy_process)
    monkeypatch.setattr(cls, "_step", spy_step)
    monkeypatch.setattr(cls, "_promote_next_epoch", spy_promote)
    return log


def make_input(D=4, B=4, n=200, seed=0):
    system = ParallelDiskSystem(D, B)
    keys = np.random.default_rng(seed).permutation(n)
    return system, keys, StripedFile.from_records(system, keys)


class TestLoadSort:
    def test_runs_are_sorted_and_cover_input(self):
        system, keys, infile = make_input()
        runs = form_runs_load_sort(system, infile, run_length=64, rng=1)
        all_keys = np.concatenate([r.read_all(system) for r in runs])
        assert np.array_equal(np.sort(all_keys), np.sort(keys))
        for r in runs:
            data = r.read_all(system)
            assert np.all(data[:-1] <= data[1:])

    def test_run_count(self):
        system, _, infile = make_input(n=200, B=4)
        runs = form_runs_load_sort(system, infile, run_length=64, rng=1)
        # 50 blocks, 16 blocks per run -> ceil(50/16) = 4 runs.
        assert len(runs) == 4

    def test_run_lengths_block_aligned(self):
        system, _, infile = make_input(n=200, B=4)
        runs = form_runs_load_sort(system, infile, run_length=70, rng=1)
        # 70 records rounds down to 17 blocks = 68 records per run.
        assert runs[0].n_records == 68

    def test_io_accounting(self):
        system, _, infile = make_input(D=4, B=4, n=256)
        system.stats.reset()
        form_runs_load_sort(system, infile, run_length=64, rng=1)
        # Each record read once and written once at full parallelism:
        # 64 blocks / 4 disks = 16 reads; same for writes.
        assert system.stats.parallel_reads == 16
        assert system.stats.parallel_writes == 16

    def test_input_freed(self):
        system, _, infile = make_input(n=64)
        runs = form_runs_load_sort(system, infile, run_length=64, rng=1)
        assert system.used_blocks == sum(r.n_blocks for r in runs)

    def test_input_kept_when_requested(self):
        system, _, infile = make_input(n=64, B=4)
        form_runs_load_sort(system, infile, 64, rng=1, free_input=False)
        assert system.used_blocks == 2 * infile.n_blocks

    def test_start_disk_strategy(self):
        system, _, infile = make_input(D=4, B=4, n=256)
        runs = form_runs_load_sort(
            system, infile, 64, strategy=LayoutStrategy.ROUND_ROBIN
        )
        assert [r.start_disk for r in runs] == [0, 1, 2, 3]

    def test_empty_file(self):
        system = ParallelDiskSystem(2, 4)
        infile = StripedFile.from_records(system, np.array([], dtype=np.int64))
        assert form_runs_load_sort(system, infile, 64) == []

    def test_run_length_below_block_rejected(self):
        system, _, infile = make_input(B=8)
        with pytest.raises(ConfigError):
            form_runs_load_sort(system, infile, run_length=4)


class TestReplacementSelection:
    def test_runs_cover_input_sorted(self):
        system, keys, infile = make_input(n=300, seed=3)
        runs = form_runs_replacement_selection(system, infile, memory_records=32, rng=2)
        all_keys = np.concatenate([r.read_all(system) for r in runs])
        assert np.array_equal(np.sort(all_keys), np.sort(keys))
        for r in runs:
            data = r.read_all(system)
            assert np.all(data[:-1] <= data[1:])

    def test_expected_run_length_about_2m(self):
        # Knuth: random input gives mean run length ~ 2M.
        system, _, infile = make_input(n=4000, seed=7)
        M = 50
        runs = form_runs_replacement_selection(system, infile, memory_records=M, rng=2)
        mean_len = np.mean([r.n_records for r in runs])
        assert 1.4 * M <= mean_len <= 2.8 * M

    def test_sorted_input_yields_single_run(self):
        system = ParallelDiskSystem(2, 4)
        keys = np.arange(100)
        infile = StripedFile.from_records(system, keys)
        runs = form_runs_replacement_selection(system, infile, memory_records=8)
        assert len(runs) == 1
        assert np.array_equal(runs[0].read_all(system), keys)

    def test_reverse_sorted_input_yields_runs_of_m(self):
        system = ParallelDiskSystem(2, 4)
        keys = np.arange(100)[::-1].copy()
        infile = StripedFile.from_records(system, keys)
        M = 10
        runs = form_runs_replacement_selection(system, infile, memory_records=M)
        # Worst case: every run has exactly M records.
        assert all(r.n_records == M for r in runs)

    def test_fewer_records_than_memory(self):
        system, keys, infile = make_input(n=20)
        runs = form_runs_replacement_selection(system, infile, memory_records=100, rng=1)
        assert len(runs) == 1
        assert np.array_equal(runs[0].read_all(system), np.sort(keys))

    def test_invalid_memory(self):
        system, _, infile = make_input()
        with pytest.raises(ConfigError):
            form_runs_replacement_selection(system, infile, memory_records=0)

    @pytest.mark.parametrize("engine", ["block", "record"])
    def test_staggered_start_disks_are_round_robin(self, engine):
        # The run count is unknown while runs are written, so §8's
        # staggered groups cannot be formed: run r starts on r mod D.
        D = 3
        system = ParallelDiskSystem(D, 4)
        keys = np.arange(400)[::-1].copy()
        infile = StripedFile.from_records(system, keys)
        runs = form_runs_replacement_selection(
            system, infile, 40, strategy=LayoutStrategy.STAGGERED, engine=engine
        )
        assert len(runs) == 10
        assert [r.start_disk for r in runs] == [r % D for r in range(10)]

    def test_produces_fewer_runs_than_load_sort(self):
        # The paper's §2.1 point: replacement selection halves the runs.
        sys_a, _, file_a = make_input(n=2000, seed=11)
        runs_ls = form_runs_load_sort(sys_a, file_a, run_length=40, rng=1)
        sys_b, _, file_b = make_input(n=2000, seed=11)
        runs_rs = form_runs_replacement_selection(sys_b, file_b, memory_records=40, rng=1)
        assert len(runs_rs) < len(runs_ls)


class TestReplacementSelectionEngines:
    """engine="block" must be bit-identical to the per-record oracle."""

    def _form(self, keys, M, engine, D=3, B=4, seed=9, payloads=None):
        system = ParallelDiskSystem(D, B)
        infile = StripedFile.from_records(system, keys, payloads=payloads)
        before = system.stats.snapshot()
        runs = form_runs_replacement_selection(
            system, infile, M, rng=seed, engine=engine
        )
        io = system.stats.since(before)
        contents = [
            (
                a.disk,
                system.disks[a.disk].read(a.slot).keys.tobytes(),
                None
                if payloads is None
                else system.disks[a.disk].read(a.slot).payloads.tobytes(),
            )
            for r in runs
            for a in r.addresses
        ]
        return contents, (
            io.parallel_reads,
            io.parallel_writes,
            io.blocks_read,
            io.blocks_written,
        )

    def _assert_engines_agree(self, keys, M, payloads=None, **kw):
        rec = self._form(keys, M, "record", payloads=payloads, **kw)
        blk = self._form(keys, M, "block", payloads=payloads, **kw)
        assert rec == blk

    def test_invalid_engine_rejected(self):
        system, _, infile = make_input()
        with pytest.raises(ConfigError):
            form_runs_replacement_selection(system, infile, 32, engine="gpu")

    def test_random_input(self):
        keys = np.random.default_rng(0).permutation(5_000).astype(np.int64)
        self._assert_engines_agree(keys, 400)

    def test_sorted_input(self):
        self._assert_engines_agree(np.arange(1_000, dtype=np.int64), 100)

    def test_reverse_sorted_input(self):
        self._assert_engines_agree(
            np.arange(1_000, dtype=np.int64)[::-1].copy(), 100
        )

    def test_duplicate_heavy_input(self):
        keys = np.random.default_rng(1).integers(0, 7, size=3_000).astype(np.int64)
        self._assert_engines_agree(keys, 250)

    def test_payloads_follow_their_keys(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 40, size=2_000).astype(np.int64)
        payloads = np.arange(keys.size, dtype=np.int64)
        self._assert_engines_agree(keys, 180, payloads=payloads)

    def test_tiny_memory(self):
        keys = np.random.default_rng(3).permutation(500).astype(np.int64)
        self._assert_engines_agree(keys, 1)
        self._assert_engines_agree(keys, 2)

    def test_memory_larger_than_input(self):
        keys = np.random.default_rng(4).permutation(100).astype(np.int64)
        self._assert_engines_agree(keys, 5_000)

    @given(
        n=st.integers(1, 4_000),
        memory=st.integers(1, 600),
        n_disks=st.integers(1, 4),
        block_size=st.integers(1, 40),
        kind=st.sampled_from(KEY_KINDS),
        with_payloads=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None)
    def test_engines_agree_on_generated_inputs(
        self, n, memory, n_disks, block_size, kind, with_payloads, seed
    ):
        keys = generated_keys(kind, n, memory, seed)
        payloads = None
        if with_payloads:
            payloads = np.random.default_rng(seed + 1).integers(
                INT64.min, INT64.max, n, dtype=np.int64
            )
        self._assert_engines_agree(
            keys, memory, payloads=payloads, D=n_disks, B=block_size
        )

    @pytest.mark.parametrize("chain, replayed", [(8, False), (64, True)])
    def test_fixed_point_rounds(self, monkeypatch, chain, replayed):
        # A sparse pool 0, 1000, 2000, ... and a refill 1, 1, 2, 2, ...:
        # each round accepts more arrivals, emitted within the step (the
        # second of each pair ties its just-emitted twin).  At
        # _MAX_ROUNDS the step classifies per record instead, which is
        # exact, so one more merge round confirms it.
        M = 100
        keys = np.concatenate(
            [np.arange(M) * 1000, np.arange(2, 6 * chain + 2) // 2]
        ).astype(np.int64)
        log = spy_engine(monkeypatch)
        self._assert_engines_agree(keys, M, D=2, B=chain // 2)
        rounds = max(e[1] for e in log if e[0] == "step")
        assert rounds >= 3
        assert rounds == _MAX_ROUNDS + 1 if replayed else rounds < _MAX_ROUNDS

    def test_epoch_flip_inside_a_refill(self, monkeypatch):
        # Reverse input rejects every arrival: the 10-record epoch drains
        # after a full 8-record refill and 2 records of the next one.
        keys = np.arange(200, dtype=np.int64)[::-1].copy()
        log = spy_engine(monkeypatch)
        self._assert_engines_agree(keys, 10, D=2, B=4)
        kinds = [e[0] for e in log]
        assert any(
            kinds[i - 1 : i + 2] == ["step", "promote", "step"]
            for i in range(1, len(kinds) - 1)
        )

    def test_block_engine_is_default(self):
        system, keys, infile = make_input(n=400)
        runs = form_runs_replacement_selection(system, infile, 64, rng=1)
        got = np.concatenate([r.read_all(system) for r in runs])
        assert np.array_equal(np.sort(got), np.sort(keys))
