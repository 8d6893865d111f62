"""End-to-end cluster sort: bit-identity, determinism, accounting."""

import gc
import os
import tempfile

import numpy as np
import pytest

import repro.cluster.sort as cluster_sort_module
from repro.cluster import ClusterConfig, LinkModel, NodeLoss, cluster_sort
from repro.core import SRMConfig, srm_sort
from repro.errors import ConfigError
from repro.telemetry import Telemetry
from repro.telemetry.schema import (
    CLUSTER_EXCHANGE_BLOCKS,
    CLUSTER_EXCHANGE_ROUNDS,
    CLUSTER_NODE_LOSSES,
    CLUSTER_REBUILD_BLOCKS,
    CLUSTER_REBUILD_READ_IOS,
    CLUSTER_SAMPLE_READS,
    SPAN_EXCHANGE,
)
from repro.verify import check_cluster_shards
from repro.workloads import uniform_permutation, zipf_keys

CFG = SRMConfig.from_k(2, 4, 16)


def _sort(n=20_000, p=4, seed=0, **kw):
    keys = uniform_permutation(n, rng=seed)
    out, res = cluster_sort(keys, ClusterConfig(n_nodes=p), CFG, rng=seed, **kw)
    return keys, out, res


class TestBitIdentity:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_single_node_srm(self, p):
        """The acceptance criterion: concatenated shards == srm_sort."""
        keys = uniform_permutation(12_000, rng=3)
        srm_out, _ = srm_sort(keys, CFG, rng=3)
        out, res = cluster_sort(keys, ClusterConfig(n_nodes=p), CFG, rng=3)
        assert np.array_equal(out, srm_out)
        check_cluster_shards(res)

    def test_duplicate_heavy_input(self):
        keys = zipf_keys(15_000, alpha=1.2, n_distinct=300, rng=5)
        out, res = cluster_sort(keys, ClusterConfig(n_nodes=4), CFG, rng=5)
        assert np.array_equal(out, np.sort(keys))
        check_cluster_shards(res)

    def test_deterministic_under_seed(self):
        k1, o1, r1 = _sort(seed=9)
        k2, o2, r2 = _sort(seed=9)
        assert np.array_equal(o1, o2)
        assert np.array_equal(r1.splitters, r2.splitters)
        assert r1.shard_sizes == r2.shard_sizes
        assert r1.total_parallel_ios == r2.total_parallel_ios
        assert r1.makespan_ms == r2.makespan_ms


class TestAccounting:
    def test_every_node_pays_io(self):
        _, _, res = _sort()
        for io in res.io_per_node():
            assert io.parallel_ios > 0

    def test_exchange_and_sampling_are_charged(self):
        _, _, res = _sort()
        assert res.sample_read_ios > 0
        assert res.exchange.rounds == 4
        assert res.exchange.blocks_crossed > 0
        assert res.exchange.link_ms > 0
        # Round 0 (self-delivery) never crosses a link.
        assert res.exchange.round_ms[0] == 0.0

    def test_single_node_skips_exchange(self):
        _, out, res = _sort(p=1)
        assert res.exchange.rounds == 0
        assert res.exchange.blocks_crossed == 0
        assert res.splitters.size == 0
        assert np.array_equal(out, np.sort(out))

    def test_makespan_breakdown_covers_all_phases(self):
        _, _, res = _sort()
        assert set(res.makespan_breakdown) == {
            "run_formation", "splitter_select", "exchange", "link",
            "shard_merge",
        }
        assert res.makespan_ms == pytest.approx(
            sum(res.makespan_breakdown.values())
        )
        assert res.makespan_ms > 0

    def test_more_nodes_shrink_the_makespan(self):
        keys = uniform_permutation(40_000, rng=2)
        _, r1 = cluster_sort(keys, ClusterConfig(n_nodes=1), CFG, rng=2)
        _, r4 = cluster_sort(keys, ClusterConfig(n_nodes=4), CFG, rng=2)
        assert r4.makespan_ms < r1.makespan_ms

    def test_link_cost_scales_with_model(self):
        keys = uniform_permutation(10_000, rng=4)
        slow = LinkModel(latency_ms=5.0, ms_per_block=1.0)
        _, fast_res = cluster_sort(keys, ClusterConfig(n_nodes=4), CFG, rng=4)
        _, slow_res = cluster_sort(
            keys, ClusterConfig(n_nodes=4, link=slow), CFG, rng=4
        )
        assert slow_res.exchange.link_ms > fast_res.exchange.link_ms
        # The link model changes time, never data or I/O counts.
        assert slow_res.total_parallel_ios == fast_res.total_parallel_ios


class TestTelemetry:
    def test_cluster_metrics_and_spans_emitted(self):
        tel = Telemetry(algo="cluster")
        _, _, res = _sort(telemetry=tel)
        reg = tel.registry
        assert (
            reg.get(CLUSTER_EXCHANGE_BLOCKS).snapshot()["value"]
            == res.exchange.blocks_crossed
        )
        assert (
            reg.get(CLUSTER_EXCHANGE_ROUNDS).snapshot()["value"]
            == res.exchange.rounds
        )
        assert (
            reg.get(CLUSTER_SAMPLE_READS).snapshot()["value"]
            == res.sample_read_ios
        )
        tel.finish()
        names = [e.get("name") for e in tel.events if e.get("type") == "span"]
        assert SPAN_EXCHANGE in names

    def test_node_loss_metrics(self):
        tel = Telemetry(algo="cluster")
        _, _, res = _sort(telemetry=tel, node_loss=NodeLoss(node=1, after_round=1))
        reg = tel.registry
        assert reg.get(CLUSTER_NODE_LOSSES).snapshot()["value"] == 1
        assert (
            reg.get(CLUSTER_REBUILD_BLOCKS).snapshot()["value"]
            == res.exchange.rebuild_blocks_resent
        )
        assert (
            reg.get(CLUSTER_REBUILD_READ_IOS).snapshot()["value"]
            == res.exchange.rebuild_read_ios
        )


class TestNodeLoss:
    @pytest.mark.parametrize("after_round", [0, 1, 3])
    def test_output_survives_loss(self, after_round):
        keys, ref, _ = _sort(seed=6)
        _, out, res = _sort(
            seed=6, node_loss=NodeLoss(node=2, after_round=after_round)
        )
        assert np.array_equal(out, ref)
        assert res.exchange.node_losses == 1
        check_cluster_shards(res)

    def test_recovery_is_charged(self):
        _, _, clean = _sort(seed=6)
        _, _, res = _sort(seed=6, node_loss=NodeLoss(node=1, after_round=1))
        assert res.exchange.rebuild_blocks_resent > 0
        assert res.exchange.rebuild_read_ios > 0
        # The abandoned disk array's work still counts.
        assert res.nodes[1].lost_systems
        assert res.total_parallel_ios > clean.total_parallel_ios

    def test_loss_with_one_node_rejected(self):
        keys = uniform_permutation(1000, rng=0)
        with pytest.raises(ConfigError):
            cluster_sort(
                keys, ClusterConfig(n_nodes=1), CFG, rng=0,
                node_loss=NodeLoss(node=0),
            )

    def test_loss_of_missing_node_rejected(self):
        keys = uniform_permutation(1000, rng=0)
        with pytest.raises(ConfigError):
            cluster_sort(
                keys, ClusterConfig(n_nodes=2), CFG, rng=0,
                node_loss=NodeLoss(node=7),
            )


class TestValidation:
    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            cluster_sort(
                np.empty(0, dtype=np.int64), ClusterConfig(n_nodes=2), CFG
            )

    def test_fewer_records_than_nodes_rejected(self):
        with pytest.raises(ConfigError):
            cluster_sort(
                np.array([1, 2], dtype=np.int64), ClusterConfig(n_nodes=4), CFG
            )

    def test_bad_cluster_shapes_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(n_nodes=2, oversample=0)
        with pytest.raises(ConfigError):
            LinkModel(latency_ms=-1.0)
        with pytest.raises(ConfigError):
            NodeLoss(node=-1)


class TestCleanupOnError:
    """A failed cluster sort closes every node system it created."""

    def _leftover_dirs(self, tmp_path, monkeypatch, **kw):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        keys = uniform_permutation(2_000, rng=0)
        # With the cyclic collector off, only an explicit close removes
        # an mmap backend's scratch directory.
        gc.disable()
        try:
            with pytest.raises(ConfigError):
                cluster_sort(
                    keys, ClusterConfig(n_nodes=2), SRMConfig.from_k(4, 4, 16),
                    rng=0, backend="mmap", **kw,
                )
            return [p for p in os.listdir(tmp_path) if p.startswith("repro-disks-")]
        finally:
            gc.enable()

    def test_bad_merger_rejected_before_any_system(self, tmp_path, monkeypatch):
        assert self._leftover_dirs(tmp_path, monkeypatch, merger="bogus") == []

    def test_mid_sort_error_closes_node_systems(self, tmp_path, monkeypatch):
        # The loss target is checked in the exchange, after run formation.
        assert self._leftover_dirs(
            tmp_path, monkeypatch, node_loss=NodeLoss(node=7)
        ) == []

    def test_error_after_node_loss_closes_lost_systems(
        self, tmp_path, monkeypatch
    ):
        def failing_merge(*args, **kwargs):
            raise ConfigError("injected shard-merge failure")

        monkeypatch.setattr(cluster_sort_module, "run_merge_passes", failing_merge)
        assert self._leftover_dirs(
            tmp_path, monkeypatch, node_loss=NodeLoss(node=1, after_round=0)
        ) == []
