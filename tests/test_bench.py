"""The ``repro bench`` report names where its numbers came from."""

from __future__ import annotations

import os
import platform
import re

import numpy as np

from repro.bench import provenance


def test_provenance_fields():
    pv = provenance()
    assert pv["cpu_count"] == os.cpu_count()
    assert pv["python"] == platform.python_version()
    assert pv["numpy"] == np.__version__
    # Outside a git checkout both commit fields are None together.
    if pv["git_sha"] is None:
        assert pv["git_dirty"] is None
    else:
        assert re.fullmatch(r"[0-9a-f]{40}", pv["git_sha"])
        assert isinstance(pv["git_dirty"], bool)


def test_latency_adaptive_rows_charge_wall_overhead():
    from repro.bench import bench_latency_adaptive

    rows = bench_latency_adaptive(3000)["rows"]
    assert [r["scenario"] for r in rows] == [
        "straggler_d0", "straggler_d1", "stall_d0",
    ]
    for r in rows:
        want = r["wall_s_adaptive"] / r["wall_s_fixed"] - 1.0
        assert abs(r["adaptive_wall_overhead_frac"] - want) < 1e-3
