"""Hot-path perf harness: vectorized data planes vs. their references.

Runs :mod:`repro.bench` — the same harness behind ``repro bench`` — and
both *asserts* observational equivalence (identical output records and
I/O schedules between the loser-tree/batched merger and the heapq
reference, and between block-granular and per-record replacement
selection) and *emits* the measured throughputs.

Quick scale by default; set ``REPRO_FULL=1`` for the committed-report
scale (``M >= 1e5`` run-formation memory), where the speedup floors
(merge >= 2.5x, run formation >= 5x on uniform keys and >= 10x on
Zipf keys with payloads at B=1024) are also asserted.
"""

from __future__ import annotations

import json
import os

from conftest import paper_scale

from repro.bench import run_benchmarks


def _render(rep: dict) -> str:
    m, rs, w = rep["merge"], rep["run_formation"], rep["writer"]
    rz = rep["run_formation_zipf"]
    lines = [
        f"mode: {rep['mode']}",
        "",
        f"{'hot path':<16}{'vectorized rec/s':>18}{'reference rec/s':>18}"
        f"{'speedup':>9}",
        f"{'merge':<16}{m['losertree']['records_per_sec']:>18,}"
        f"{m['heapq']['records_per_sec']:>18,}{m['speedup']:>8.2f}x",
        f"{'run formation':<16}{rs['block']['records_per_sec']:>18,}"
        f"{rs['record']['records_per_sec']:>18,}{rs['speedup']:>8.2f}x",
        f"{'  zipf+payload':<16}{rz['block']['records_per_sec']:>18,}"
        f"{rz['record']['records_per_sec']:>18,}{rz['speedup']:>8.2f}x",
        f"{'writer (ring)':<16}{w['records_per_sec']:>18,}"
        f"{'-':>18}{'-':>9}",
        "",
        f"merge heap cycles: losertree {m['losertree']['heap_cycles']:,}"
        f" vs heapq {m['heapq']['heap_cycles']:,}",
        "I/O equivalence: asserted (schedules, outputs, channel rounds)",
    ]
    return "\n".join(lines)


def test_hotpath_throughput(report):
    full = paper_scale()
    rep = run_benchmarks(quick=not full)

    # run_benchmarks raises if any equivalence assertion fails; these
    # document the invariant in the report payload as well.
    assert rep["merge"]["io_equivalent"]
    assert rep["run_formation"]["io_equivalent"]
    assert rep["run_formation_zipf"]["io_equivalent"]
    assert rep["provenance"]["cpu_count"] == os.cpu_count()
    # The vectorized planes must never lose to their references.
    assert rep["merge"]["speedup"] > 1.0
    if full:
        assert rep["run_formation"]["params"]["memory_records"] >= 100_000
        assert rep["merge"]["speedup"] >= 2.5
        assert rep["run_formation"]["speedup"] >= 5.0
        # Measured 14.2x-26.7x on a 2-vCPU host; 6.8x and 7.6x with the
        # earlier bisecting block engine.
        assert rep["run_formation_zipf"]["speedup"] >= 10.0

    report("hotpath_throughput", _render(rep))
    report("hotpath_throughput_json", json.dumps(rep, indent=2))
