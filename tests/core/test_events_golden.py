"""Golden pins for the paced (overlap-engine) merge.

Both mergers drive the same :class:`~repro.core.events.OverlapEngine`, so
a heapq-vs-losertree equivalence test cannot catch a change to the
engine itself.  These goldens pin, for latency-aware configurations
under a straggler plan and a stall plan at read-ahead depths 0 and 2,
the exact :class:`OverlapReport` repr (every float bit) and a sha256
over every armed causal-trace record's fields, the schedule and the
output records.  A pure speed change to the engine, the scheduler, the
forecasting structure or the writer must leave all of them unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import merge_runs
from repro.core.config import LatencyAwareConfig, OverlapConfig
from repro.disks import ParallelDiskSystem, StripedRun
from repro.faults import FaultPlan, StallWindow
from repro.telemetry import Telemetry
from repro.telemetry.trace import TraceRecord

#: The fault plans the paced merge is pinned under.
PLANS = {
    "straggler": FaultPlan(latency_factors={1: 4.0}),
    "stall": FaultPlan(
        stalls=(
            StallWindow(disk=1, start_ms=20.0, duration_ms=120.0),
            StallWindow(disk=2, start_ms=300.0, duration_ms=80.0),
        )
    ),
}
DEPTHS = (0, 2)
CONFIGS = [(plan, depth) for plan in PLANS for depth in DEPTHS]


def paced_merge(plan: str, depth: int, merger: str = "losertree") -> dict:
    """One latency-aware, trace-armed merge of duplicate-heavy runs.

    Eight runs of 160 keys in ``[0, 64)`` with int64 payloads on D=4,
    B=8; the CPU cost keeps the disks idle often enough that the depth
    boost, the eager floor and a flush all occur.
    """
    rng = np.random.default_rng(3)
    system = ParallelDiskSystem(4, 8)
    runs = []
    for i in range(8):
        keys = np.sort(rng.integers(0, 64, size=160))
        pays = rng.integers(-(2**62), 2**62, size=160)
        runs.append(
            StripedRun.from_sorted_keys(
                system, keys, run_id=i, start_disk=int(rng.integers(0, 4)),
                payloads=pays,
            )
        )
    system.attach_faults(PLANS[plan])
    tel = Telemetry(algo="srm")
    col = tel.attach_trace()
    res = merge_runs(
        system, runs, 50, 0, merger=merger, telemetry=tel,
        overlap=OverlapConfig(
            mode="full", prefetch_depth=depth, cpu_us_per_record=3000.0,
            latency=LatencyAwareConfig(),
        ),
    )
    blocks = [system.disks[a.disk].read(a.slot) for a in res.output.addresses]
    return {
        "report": res.overlap,
        "schedule": res.schedule,
        "records": [
            tuple(getattr(rec, f) for f in TraceRecord.__slots__)
            for rec in col.records
        ],
        "keys": np.concatenate([b.keys for b in blocks]),
        "payloads": np.concatenate([b.payloads for b in blocks]),
    }


def fingerprint(out: dict) -> str:
    """sha256 over the trace records, the schedule and the output."""
    h = hashlib.sha256()
    for rec in out["records"]:
        h.update(repr(rec).encode())
    h.update(repr(out["schedule"]).encode())
    h.update(out["keys"].tobytes())
    h.update(out["payloads"].tobytes())
    return h.hexdigest()


GOLDEN_REPORTS = {
    ("straggler", 0): (
        "OverlapReport(mode='full', prefetch_depth=0, "
        "makespan_ms=5588.887644444446, cpu_busy_ms=3840.0, "
        "read_stall_ms=1388.1381333333334, "
        "write_stall_ms=298.4760888888899, io_busy_ms=8780.552533333335, "
        "disk_utilization=0.3927683419285374, demand_reads=20, "
        "eager_reads=26, writes=40, adaptive=True, depth_boosts=62, "
        "floor_issues=1, slow_disks=(1,))"
    ),
    ("straggler", 2): (
        "OverlapReport(mode='full', prefetch_depth=2, "
        "makespan_ms=5462.254755555557, cpu_busy_ms=3840.0, "
        "read_stall_ms=953.2671999999993, "
        "write_stall_ms=606.714133333335, io_busy_ms=8780.552533333335, "
        "disk_utilization=0.40187399372039545, demand_reads=9, "
        "eager_reads=37, writes=40, adaptive=True, depth_boosts=59, "
        "floor_issues=0, slow_disks=(1,))"
    ),
    ("stall", 0): (
        "OverlapReport(mode='full', prefetch_depth=0, "
        "makespan_ms=4586.554488888888, cpu_busy_ms=3840.0, "
        "read_stall_ms=730.4177777777777, "
        "write_stall_ms=0.568355555555172, io_busy_ms=5044.147200000001, "
        "disk_utilization=0.27494207319566627, demand_reads=45, "
        "eager_reads=1, writes=40, adaptive=True, depth_boosts=17, "
        "floor_issues=0, slow_disks=())"
    ),
    ("stall", 2): (
        "OverlapReport(mode='full', prefetch_depth=2, "
        "makespan_ms=4038.0936888888896, cpu_busy_ms=3840.0, "
        "read_stall_ms=181.95697777777832, "
        "write_stall_ms=0.5683555555556268, "
        "io_busy_ms=5044.147200000001, "
        "disk_utilization=0.3122851764112941, demand_reads=9, "
        "eager_reads=37, writes=40, adaptive=True, depth_boosts=23, "
        "floor_issues=0, slow_disks=())"
    ),
}

GOLDEN_SHA256 = {
    ("straggler", 0): (
        "f9bd957dafe1ba0ed519bf4da3d37cfa6abd85babbf8e6f1dc332ab53093f64e"
    ),
    ("straggler", 2): (
        "eb6bdbc7e3af78cc5ef972dfd4a8b6db16be6d29e47881ab779e539e40c05316"
    ),
    ("stall", 0): (
        "f7b4ec4b87cf8bf0171a5425de4210451eaba74e0983c5f3d829a5c39b06ddc6"
    ),
    ("stall", 2): (
        "3200325e3dca2441b486edf4e937ffb29fdb1d35c7ad4a5fd1a5e2d699f0ea8e"
    ),
}


@pytest.mark.parametrize("plan,depth", CONFIGS)
def test_paced_merge_matches_golden(plan, depth):
    out = paced_merge(plan, depth)
    assert repr(out["report"]) == GOLDEN_REPORTS[(plan, depth)]
    assert fingerprint(out) == GOLDEN_SHA256[(plan, depth)]


def test_golden_configs_exercise_the_adaptive_policy():
    # The pins are only worth having if the cached classification, the
    # liveness count and the first-touch path all carry real decisions.
    outs = {cfg: paced_merge(*cfg) for cfg in CONFIGS}
    assert all(o["report"].depth_boosts > 0 for o in outs.values())
    assert any(o["report"].floor_issues > 0 for o in outs.values())
    assert all(o["schedule"].flush_ops > 0 for o in outs.values())
    assert outs[("straggler", 0)]["report"].slow_disks == (1,)
