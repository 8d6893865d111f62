"""Tests for the top-level external_sort convenience API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import external_sort
from repro.errors import ConfigError, DataError


class TestExternalSort:
    def test_srm_path(self, rng):
        keys = rng.permutation(5000)
        out, stats = external_sort(keys, memory_records=600, n_disks=4, block_size=8)
        assert np.array_equal(out, np.sort(keys))
        assert stats.algorithm == "srm"
        assert stats.n_records == 5000
        assert stats.parallel_ios == stats.parallel_reads + stats.parallel_writes

    def test_dsm_path(self, rng):
        keys = rng.permutation(5000)
        out, stats = external_sort(
            keys, memory_records=600, n_disks=4, block_size=8, algorithm="dsm"
        )
        assert np.array_equal(out, np.sort(keys))
        assert stats.algorithm == "dsm"

    def test_srm_beats_dsm_under_same_budget(self, rng):
        # 100 initial runs: DSM (R=8) needs 3 merge passes, SRM (R=23)
        # needs 2 — the regime where the merge-order advantage bites.
        keys = rng.permutation(60_000)
        _, srm = external_sort(keys, 600, 4, 8, algorithm="srm", rng=1)
        _, dsm = external_sort(keys, 600, 4, 8, algorithm="dsm")
        assert srm.merge_order > dsm.merge_order
        assert srm.merge_passes < dsm.merge_passes
        assert srm.parallel_ios < dsm.parallel_ios

    def test_replacement_selection_formation(self, rng):
        keys = rng.permutation(3000)
        out, stats = external_sort(
            keys, 600, 4, 8, formation="replacement_selection", rng=2
        )
        assert np.array_equal(out, np.sort(keys))

    def test_dsm_rejects_replacement_selection(self, rng):
        with pytest.raises(ConfigError):
            external_sort(rng.permutation(100), 600, 4, 8,
                          algorithm="dsm", formation="replacement_selection")

    def test_unknown_algorithm(self, rng):
        with pytest.raises(ConfigError):
            external_sort(rng.permutation(100), 600, 4, 8, algorithm="quicksort")

    def test_empty_input(self):
        out, stats = external_sort(np.array([], dtype=np.int64), 600, 4, 8)
        assert out.size == 0
        assert stats.n_records == 0
        assert stats.parallel_ios == 0

    def test_memory_too_small(self, rng):
        with pytest.raises(ConfigError):
            external_sort(rng.permutation(100), memory_records=10,
                          n_disks=4, block_size=8)


def _entry_points():
    """Every public sort entry point, as ``fn(keys)`` on a tiny config."""
    from repro import dsm_sort, external_sort_records, srm_sort
    from repro.cluster import ClusterConfig, cluster_sort
    from repro.core import DSMConfig, SRMConfig
    from repro.core.mergesort import sort_records_on_system
    from repro.disks import ParallelDiskSystem
    from repro.service import JobSpec

    srm = SRMConfig.from_k(2, 2, 8)
    return {
        "srm_sort": lambda k: srm_sort(k, srm),
        "sort_records_on_system": lambda k: sort_records_on_system(
            ParallelDiskSystem(2, 8), k, srm
        ),
        "dsm_sort": lambda k: dsm_sort(k, DSMConfig.from_memory(256, 2, 8)),
        "cluster_sort": lambda k: cluster_sort(k, ClusterConfig(n_nodes=2), srm),
        "external_sort": lambda k: external_sort(k, 200, 2, 8),
        "external_sort_records": lambda k: external_sort_records(
            k, np.arange(k.size), 200, 2, 8
        ),
        "service_JobSpec": lambda k: JobSpec("j", "t", k, srm),
    }


class TestKeyDtypes:
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    @pytest.mark.parametrize(
        "keys",
        [
            np.array([3.9, 1.2, 2.5] * 300),
            np.array([True, False, True] * 300),
            np.array([2**63, 1, 2**64 - 1] * 300, dtype=np.uint64),
        ],
        ids=["float64", "bool", "uint64_ge_2_63"],
    )
    def test_lossy_keys_rejected(self, entry, keys):
        with pytest.raises(DataError, match=str(keys.dtype)):
            _entry_points()[entry](keys)

    def test_narrow_and_unsigned_integers_sort_exactly(self):
        from repro import srm_sort
        from repro.core import SRMConfig

        cfg = SRMConfig.from_k(2, 2, 8)
        for dtype in (np.int16, np.uint32, np.uint64):
            keys = np.array([7, 2**15 - 1, 0, 3] * 200, dtype=dtype)
            out, _ = srm_sort(keys, cfg)
            assert out.dtype == np.int64
            assert np.array_equal(out, np.sort(keys.astype(np.int64)))
