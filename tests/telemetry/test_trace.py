"""The causal trace plane: determinism, ring overflow, export, spans.

Contracts under test:

* Same seed + same config ⇒ **byte-identical** trace JSONL, for SRM
  (demand and overlap), DSM, and the cluster plane.
* Ring overflow drops oldest-first, counts every drop, and surfaces
  the count through ``RunReport.trace_dropped``; attribution on a
  truncated ring flags the walk instead of silently misattributing.
* ``chrome_trace`` emits structurally valid Chrome trace-event JSON.
* A domain whose summary declares ``exact=False`` (a cluster run that
  lost a node) is never reported exact by the critical-path walk.
* The exchange plane emits one ``exchange_round`` event per shifted
  round with per-link payloads.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import dsm_sort
from repro.core.config import DSMConfig
from repro.cluster import ClusterConfig, NodeLoss, cluster_sort
from repro.core import SRMConfig, srm_sort
from repro.core.config import OverlapConfig
from repro.telemetry import Telemetry
from repro.telemetry.report import RunReport
from repro.telemetry.schema import (
    EV_EXCHANGE_ROUND,
    validate_events,
)
from repro.telemetry.trace import TraceCollector, chrome_trace
from repro.workloads import uniform_permutation


def trace_blob(events: list[dict]) -> bytes:
    """Serialize the trace slice of an event stream to canonical JSONL."""
    lines = [
        json.dumps(e, sort_keys=True)
        for e in events
        if e["type"] in ("trace", "trace_summary")
    ]
    return ("\n".join(lines) + "\n").encode()


def _srm_events(seed: int, overlap: OverlapConfig | None = None) -> list[dict]:
    keys = uniform_permutation(3000, rng=seed)
    cfg = SRMConfig.from_k(4, 4, 32)
    tel = Telemetry(algo="srm")
    tel.attach_trace()
    srm_sort(keys, cfg, rng=seed + 1, overlap=overlap, telemetry=tel)
    return tel.finish()


class TestDeterminism:
    def test_srm_demand_trace_is_byte_identical(self):
        assert trace_blob(_srm_events(7)) == trace_blob(_srm_events(7))

    def test_srm_overlap_trace_is_byte_identical(self):
        ov = OverlapConfig(mode="full", prefetch_depth=2)
        assert trace_blob(_srm_events(11, ov)) == trace_blob(_srm_events(11, ov))

    def test_dsm_trace_is_byte_identical(self):
        def run():
            keys = uniform_permutation(3000, rng=5)
            cfg = DSMConfig.from_memory(1024, 4, 32)
            tel = Telemetry(algo="dsm")
            tel.attach_trace()
            dsm_sort(keys, cfg, telemetry=tel)
            return trace_blob(tel.finish())

        assert run() == run()

    def test_cluster_trace_is_byte_identical(self):
        def run():
            keys = uniform_permutation(4000, rng=3)
            tel = Telemetry(algo="cluster")
            tel.attach_trace()
            cluster_sort(
                keys, ClusterConfig(n_nodes=3), SRMConfig.from_k(4, 4, 32),
                rng=9, telemetry=tel,
            )
            return trace_blob(tel.finish())

        assert run() == run()

    def test_different_seed_changes_trace(self):
        # Sanity: the byte-equality above is not vacuous.
        assert trace_blob(_srm_events(7)) != trace_blob(_srm_events(8))


class TestRingOverflow:
    def _overflowed(self):
        keys = uniform_permutation(3000, rng=1)
        cfg = SRMConfig.from_k(4, 4, 32)
        tel = Telemetry(algo="srm")
        col = tel.attach_trace(TraceCollector(max_records=64))
        srm_sort(keys, cfg, rng=2, telemetry=tel)
        return tel, col

    def test_dropped_counter_and_report_surface(self):
        tel, col = self._overflowed()
        assert col.dropped > 0
        assert col.emitted == col.dropped + len(col.records)
        assert len(col.records) == 64
        report = RunReport.from_events(tel.finish())
        assert report.trace_dropped == col.dropped

    def test_truncated_walk_is_flagged_not_exact(self):
        from repro.analysis.critical_path import analyze_collector

        _tel, col = self._overflowed()
        analyses = analyze_collector(col)
        assert analyses, "summaries must survive the ring overflow"
        walked = [a for a in analyses.values() if a.records > 0]
        assert any(a.truncated for a in walked)
        assert all(not a.exact for a in walked if a.truncated)

    def test_collector_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            TraceCollector(max_records=0)


class TestChromeExport:
    def test_chrome_trace_structure(self):
        events = _srm_events(13, OverlapConfig(mode="full", prefetch_depth=2))
        validate_events(events)
        doc = chrome_trace(events)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["dropped"] == 0
        assert len(doc["otherData"]["domains"]) >= 1
        assert all(
            d["exact"] for d in doc["otherData"]["domains"].values()
        )
        kinds = {ev["ph"] for ev in doc["traceEvents"]}
        assert "X" in kinds and "M" in kinds
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        for ev in xs:
            assert ev["dur"] >= 0 and isinstance(ev["pid"], int)
        # Cross-lane deps become paired flow arrows.
        starts = [ev for ev in doc["traceEvents"] if ev["ph"] == "s"]
        finishes = [ev for ev in doc["traceEvents"] if ev["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        json.dumps(doc)  # round-trips to JSON without error


class TestInexactDomains:
    def test_declared_inexact_summary_is_never_walked_exact(self):
        from repro.analysis.critical_path import analyze_collector

        keys = uniform_permutation(4000, rng=21)
        tel = Telemetry(algo="cluster")
        col = tel.attach_trace()
        cluster_sort(
            keys, ClusterConfig(n_nodes=3), SRMConfig.from_k(4, 4, 32),
            rng=22, telemetry=tel, node_loss=NodeLoss(node=1, after_round=1),
        )
        cluster = [s for s in col.summaries if s.domain.startswith("cluster")]
        assert cluster and all(not s.exact for s in cluster)
        analyses = analyze_collector(col)
        assert all(not analyses[s.domain].exact for s in cluster)


class TestExchangeRoundSpans:
    def test_round_events_and_links(self):
        keys = uniform_permutation(4000, rng=21)
        tel = Telemetry(algo="cluster")
        tel.attach_trace()
        _out, result = cluster_sort(
            keys, ClusterConfig(n_nodes=3), SRMConfig.from_k(4, 4, 32),
            rng=22, telemetry=tel,
        )
        events = tel.finish()
        rounds = [
            e for e in events
            if e["type"] == "event" and e["name"] == EV_EXCHANGE_ROUND
        ]
        assert rounds, "shifted exchange rounds must emit span events"
        for e in rounds:
            assert e["attrs"]["round_ms"] >= 0.0
            for ln in e["attrs"]["links"]:
                assert ln["src"] != ln["dst"]
                assert ln["blocks"] > 0 and ln["records"] > 0
                assert ln["ms"] > 0.0
        report = result.exchange
        assert len(report.round_links) == len(report.round_ms)
        assert report.round_links[0] == []  # round 0 is node-local
        # Trace link records mirror the event links.
        tel2_links = [
            e for e in events
            if e["type"] == "trace" and e["kind"] == "link"
        ]
        total_links = sum(len(links) for links in report.round_links)
        assert len(tel2_links) == total_links
