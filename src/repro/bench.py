"""Hot-path performance harness (``repro bench``).

Times the three data-plane hot paths against their reference
implementations and *proves equivalence while doing so*:

* **merge** — full ``srm_sort`` with ``merger="losertree"`` (the
  vectorized batched data plane) vs. ``merger="heapq"`` (the reference
  loop).  Identical output records, per-merge :class:`ScheduleStats`,
  and disk-system I/O counters are asserted on every run.
* **run formation** — replacement selection with ``engine="block"``
  (array-at-a-time) vs. ``engine="record"`` (the heap oracle), on
  uniform keys at B=64 and on Zipf keys with payloads at B=1024.
  Identical run contents and I/O counters are asserted.
* **writer** — :class:`~repro.core.writer.RunWriter` ring-buffer
  streaming throughput (no alternate implementation; tracked so
  regressions are visible).
* **backend** — the same sort on the in-RAM dict backend vs. the
  mmap slot-record backend at pinned layout rng; identical charged
  I/O is asserted, so the delta prices the storage layer alone.

Results land in a JSON report (default ``BENCH_sort_throughput.json``)
with records/second, wall-clock, heap cycles, and speedups, under a
``provenance`` block naming the commit, CPU count, and the Python and
numpy versions that produced them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .core import SRMConfig, srm_sort
from .core.layout import LayoutStrategy
from .core.run_formation import form_runs_replacement_selection
from .core.writer import RunWriter
from .disks.files import StripedFile
from .disks.system import ParallelDiskSystem
from .errors import DataError
from .telemetry import Telemetry
from .telemetry.schema import (
    SCHED_BLOCKS_FLUSHED,
    SCHED_FLUSH_OPS,
    SCHED_INITIAL_READS,
    SCHED_MERGE_PARREADS,
    SCHEMA_VERSION,
)
from .workloads import uniform_permutation, zipf_keys

#: Default scales: quick mode for CI smoke, full mode for the committed
#: report (full-mode run formation uses M >= 1e5 per the target spec).
QUICK = {
    "merge_records": 20_000,
    "rs_records": 30_000,
    "rs_memory": 10_000,
    "rs_zipf_records": 150_000,
    "writer_records": 200_000,
    "adaptive_records": 12_000,
}
FULL = {
    "merge_records": 200_000,
    "rs_records": 300_000,
    "rs_memory": 100_000,
    "rs_zipf_records": 750_000,
    "writer_records": 2_000_000,
    "adaptive_records": 40_000,
}


def _time(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def provenance() -> dict:
    """Commit (with dirty flag), CPU count, Python and numpy versions.

    The commit fields are ``None`` when the package does not sit in a
    git checkout or git is unavailable.
    """
    sha, dirty = None, None
    git = ["git", "-C", str(Path(__file__).resolve().parent)]
    try:
        sha = subprocess.run(
            git + ["rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            git + ["status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        sha, dirty = None, None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _io_tuple(io) -> tuple:
    return (
        io.parallel_reads,
        io.parallel_writes,
        io.blocks_read,
        io.blocks_written,
        tuple(int(x) for x in io.reads_per_disk),
        tuple(int(x) for x in io.writes_per_disk),
    )


def bench_merge(n_records: int, k: int = 4, n_disks: int = 4,
                block_size: int = 64, seed: int = 2) -> dict:
    """Time ``srm_sort`` with both mergers; assert identical I/O + output."""
    keys = uniform_permutation(n_records, rng=seed)
    cfg = SRMConfig.from_k(k, n_disks, block_size)
    out: dict[str, dict] = {}
    baseline: dict[str, Any] = {}
    for merger in ("heapq", "losertree"):
        wall, (sorted_keys, res) = _time(
            lambda m=merger: srm_sort(keys, cfg, rng=seed + 1, merger=m)
        )
        sched = list(res.merge_schedules)
        io = _io_tuple(res.io)
        rounds = res.system.channel_rounds
        if not baseline:
            baseline = {"keys": sorted_keys, "sched": sched, "io": io,
                        "rounds": rounds}
        else:
            if not np.array_equal(baseline["keys"], sorted_keys):
                raise DataError("merger equivalence violated: output records differ")
            if (baseline["sched"] != sched or baseline["io"] != io
                    or baseline["rounds"] != rounds):
                raise DataError("merger equivalence violated: I/O schedules differ")
        out[merger] = {
            "wall_s": round(wall, 6),
            "records_per_sec": round(n_records / wall),
            "heap_cycles": res.heap_cycles,
            "parallel_ios": res.total_parallel_ios,
        }
    out["speedup"] = round(
        out["losertree"]["records_per_sec"] / out["heapq"]["records_per_sec"], 3
    )
    out["params"] = {
        "n_records": n_records, "k": k, "n_disks": n_disks,
        "block_size": block_size, "seed": seed,
    }
    out["io_equivalent"] = True  # asserted above; a failure raises
    return out


def bench_run_formation(n_records: int, memory_records: int,
                        n_disks: int = 4, block_size: int = 64,
                        seed: int = 5, zipf_payload: bool = False) -> dict:
    """Time replacement selection with both engines; assert equivalence.

    The input is a uniform permutation, or with *zipf_payload* Zipf keys
    (alpha 1.2 over 200k values, dup-heavy) carrying random payloads.
    Run contents (keys, payloads, disks) and I/O counts must match.
    """
    payloads = None
    if zipf_payload:
        gen = np.random.default_rng(seed)
        keys = zipf_keys(n_records, 1.2, 200_000, rng=gen)
        info = np.iinfo(np.int64)
        payloads = gen.integers(info.min, info.max, n_records, dtype=np.int64)
    else:
        keys = uniform_permutation(n_records, rng=seed)
    out: dict[str, dict] = {}
    baseline: dict[str, Any] = {}
    for engine in ("record", "block"):
        system = ParallelDiskSystem(n_disks, block_size)
        infile = StripedFile.from_records(system, keys, payloads=payloads)
        before = system.stats.snapshot()
        wall, runs = _time(
            lambda s=system, f=infile, e=engine: form_runs_replacement_selection(
                s, f, memory_records, LayoutStrategy.RANDOMIZED,
                rng=seed + 1, engine=e,
            )
        )
        io = _io_tuple(system.stats.since(before))
        contents = []
        for r in runs:
            for a in r.addresses:
                blk = system.disks[a.disk].read(a.slot)
                contents.append((
                    a.disk,
                    blk.keys.tobytes(),
                    None if blk.payloads is None else blk.payloads.tobytes(),
                ))
        if not baseline:
            baseline = {"io": io, "contents": contents, "n_runs": len(runs)}
        else:
            if baseline["contents"] != contents:
                raise DataError("engine equivalence violated: run contents differ")
            if baseline["io"] != io:
                raise DataError("engine equivalence violated: I/O counts differ")
        out[engine] = {
            "wall_s": round(wall, 6),
            "records_per_sec": round(n_records / wall),
            "runs_formed": len(runs),
        }
    out["speedup"] = round(
        out["block"]["records_per_sec"] / out["record"]["records_per_sec"], 3
    )
    out["params"] = {
        "n_records": n_records, "memory_records": memory_records,
        "n_disks": n_disks, "block_size": block_size, "seed": seed,
        "keys": "zipf+payload" if zipf_payload else "uniform",
    }
    out["io_equivalent"] = True
    return out


def bench_writer(n_records: int, n_disks: int = 4, block_size: int = 64,
                 chunk: int = 96) -> dict:
    """Time ring-buffer streaming of a sorted stream through RunWriter."""
    system = ParallelDiskSystem(n_disks, block_size)
    keys = np.arange(n_records, dtype=np.int64)

    def run():
        w = RunWriter(system, run_id=0, start_disk=0)
        for i in range(0, n_records, chunk):
            w.append(keys[i : i + chunk])
        return w.finalize()

    wall, run_out = _time(run)
    assert run_out.n_records == n_records
    return {
        "wall_s": round(wall, 6),
        "records_per_sec": round(n_records / wall),
        "append_chunk": chunk,
        "max_buffered_blocks": 2 * n_disks,
        "params": {
            "n_records": n_records, "n_disks": n_disks, "block_size": block_size,
        },
    }


def bench_telemetry(n_records: int, k: int = 4, n_disks: int = 4,
                    block_size: int = 64, seed: int = 2,
                    repeats: int = 3) -> dict:
    """One telemetry-enabled sort: registry snapshot + enable overhead.

    The registry's canonical schema names (``sched.*``) are the same
    quantities :class:`~repro.core.schedule.ScheduleStats` reports, so
    the two accountings are cross-checked here — a drift between
    ``MergeScheduler.stats()`` and the metrics layer fails the bench.
    The disabled-mode wall-clock sits next to the enabled one so the
    near-zero-overhead claim is a measured number, not a promise.
    """
    keys = uniform_permutation(n_records, rng=seed)
    cfg = SRMConfig.from_k(k, n_disks, block_size)
    # Best-of-N per mode: a single sort is ~0.3 s, where scheduler noise
    # alone swings +-10%; the min is the honest cost floor of each mode.
    wall_off = min(
        _time(lambda: srm_sort(keys, cfg, rng=seed + 1))[0]
        for _ in range(repeats)
    )
    wall_on = float("inf")
    tel = res = None
    for _ in range(repeats):
        t = Telemetry(
            algo="srm", n_records=n_records, n_disks=n_disks,
            block_size=block_size, merge_order=cfg.merge_order, seed=seed,
        )
        wall, (_, r) = _time(
            lambda t=t: srm_sort(keys, cfg, rng=seed + 1, telemetry=t)
        )
        if wall < wall_on:
            wall_on, tel, res = wall, t, r
    tel.finish()
    snap = tel.registry.snapshot()
    expected = {
        SCHED_INITIAL_READS: sum(s.initial_reads for s in res.merge_schedules),
        SCHED_MERGE_PARREADS: sum(s.merge_parreads for s in res.merge_schedules),
        SCHED_FLUSH_OPS: sum(s.flush_ops for s in res.merge_schedules),
        SCHED_BLOCKS_FLUSHED: sum(s.blocks_flushed for s in res.merge_schedules),
    }
    for name, want in expected.items():
        got = snap[name]["value"]
        if got != want:
            raise DataError(
                f"telemetry drift: registry {name}={got} != "
                f"ScheduleStats sum {want}"
            )
    return {
        "schema": SCHEMA_VERSION,
        "wall_s_disabled": round(wall_off, 6),
        "wall_s_enabled": round(wall_on, 6),
        "enable_overhead_frac": round(wall_on / wall_off - 1.0, 4),
        "counters": {name: snap[name]["value"] for name in sorted(expected)},
        "n_metrics": len(snap),
        "consistent_with_schedule_stats": True,  # asserted above
        "params": {
            "n_records": n_records, "k": k, "n_disks": n_disks,
            "block_size": block_size, "seed": seed,
        },
    }


def bench_tracing(n_records: int, k: int = 4, n_disks: int = 4,
                  block_size: int = 64, seed: int = 2,
                  repeats: int = 3) -> dict:
    """What arming the causal trace ring costs, and what it proves.

    Three best-of-N timings of the same overlap-engine sort: telemetry
    off, telemetry on, telemetry + trace collector armed.  The armed
    run's trace is then attributed — the critical-path total must equal
    every merge domain's simulated makespan *exactly* (same float), so
    the bench doubles as an end-to-end exactness assertion.
    """
    from .analysis.critical_path import analyze_collector
    from .core.config import OverlapConfig

    keys = uniform_permutation(n_records, rng=seed)
    cfg = SRMConfig.from_k(k, n_disks, block_size)
    overlap = OverlapConfig(mode="full", prefetch_depth=2)
    wall_off = min(
        _time(lambda: srm_sort(keys, cfg, rng=seed + 1, overlap=overlap))[0]
        for _ in range(repeats)
    )
    wall_tel = float("inf")
    for _ in range(repeats):
        t = Telemetry(algo="srm")
        wall_tel = min(
            wall_tel,
            _time(
                lambda t=t: srm_sort(
                    keys, cfg, rng=seed + 1, overlap=overlap, telemetry=t
                )
            )[0],
        )
    wall_trace = float("inf")
    col = None
    for _ in range(repeats):
        t = Telemetry(algo="srm")
        c = t.attach_trace()
        wall, _out = _time(
            lambda t=t: srm_sort(
                keys, cfg, rng=seed + 1, overlap=overlap, telemetry=t
            )
        )
        if wall < wall_trace:
            wall_trace, col = wall, c
    analyses = analyze_collector(col)
    if not analyses:
        raise DataError("tracing bench: armed run produced no trace domains")
    for dom, a in analyses.items():
        if not a.exact or a.total_ms != a.makespan_ms:
            raise DataError(
                f"tracing bench: domain {dom} critical path {a.total_ms!r} "
                f"!= makespan {a.makespan_ms!r}"
            )
    return {
        "wall_s_telemetry_off": round(wall_off, 6),
        "wall_s_telemetry_on": round(wall_tel, 6),
        "wall_s_trace_armed": round(wall_trace, 6),
        "trace_overhead_frac": round(wall_trace / wall_tel - 1.0, 4),
        "trace_overhead_vs_off_frac": round(wall_trace / wall_off - 1.0, 4),
        "trace_records": col.emitted,
        "trace_dropped": col.dropped,
        "domains": len(analyses),
        "critical_path_exact": True,  # asserted above, every domain
        "params": {
            "n_records": n_records, "k": k, "n_disks": n_disks,
            "block_size": block_size, "seed": seed, "overlap": "full",
        },
    }


def bench_faults(n_records: int, k: int = 4, n_disks: int = 4,
                 block_size: int = 64, seed: int = 2) -> dict:
    """Cost of the fault-injected data path vs. the untouched fast path.

    Arming an injector reroutes every stripe through the per-block
    retry/checksum machinery, so this measures what resilience costs —
    and asserts that a transiently-failing sort still produces the
    fault-free output bit for bit.
    """
    from .faults import FaultPlan

    keys = uniform_permutation(n_records, rng=seed)
    cfg = SRMConfig.from_k(k, n_disks, block_size)
    wall_off, (out_off, res_off) = _time(
        lambda: srm_sort(keys, cfg, rng=seed + 1)
    )
    plan = FaultPlan(seed=seed, read_fail_p=0.02)
    wall_on, (out_on, res_on) = _time(
        lambda: srm_sort(keys, cfg, rng=seed + 1, faults=plan)
    )
    if not np.array_equal(out_off, out_on):
        raise DataError("fault path equivalence violated: outputs differ")
    stats = res_on.system.faults.stats.snapshot()
    # Same measurement for the write-path faults plus rotating parity:
    # what full redundancy (parity groups + torn-write repair) costs in
    # wall time and charged I/O, with the same bit-identity assertion.
    wplan = FaultPlan(
        seed=seed, write_fail_p=0.02, torn_write_p=0.01, redundancy="parity"
    )
    wall_par, (out_par, res_par) = _time(
        lambda: srm_sort(keys, cfg, rng=seed + 1, faults=wplan)
    )
    if not np.array_equal(out_off, out_par):
        raise DataError("parity path equivalence violated: outputs differ")
    pstats = res_par.system.faults.stats.snapshot()
    # Checksum throughput: the armed read path CRCs every sealed block,
    # so the zero-copy compute_checksum rate bounds detection overhead.
    from .disks.block import Block

    crc_keys = np.arange(1_000_000, dtype=np.int64)
    crc_blk = Block(keys=crc_keys, payloads=crc_keys)
    crc_reps = 5
    wall_crc, _ = _time(
        lambda: [crc_blk.compute_checksum() for _ in range(crc_reps)]
    )
    crc_mb_per_s = crc_reps * 2 * crc_keys.nbytes / wall_crc / 1e6
    return {
        "wall_s_fault_free": round(wall_off, 6),
        "wall_s_armed": round(wall_on, 6),
        "armed_overhead_frac": round(wall_on / wall_off - 1.0, 4),
        "records_per_sec_armed": round(n_records / wall_on),
        "retries": stats["retries"],
        "parallel_ios_fault_free": res_off.total_parallel_ios,
        "parallel_ios_armed": res_on.total_parallel_ios,
        "output_identical": True,  # asserted above
        "checksum_mb_per_s": round(crc_mb_per_s, 1),
        "parity": {
            "wall_s": round(wall_par, 6),
            "overhead_frac": round(wall_par / wall_off - 1.0, 4),
            "parallel_ios": res_par.total_parallel_ios,
            "io_overhead_frac": round(
                res_par.total_parallel_ios / res_off.total_parallel_ios - 1.0,
                4,
            ),
            "write_failures": pstats["write_failures"],
            "torn_writes_detected": pstats["torn_writes_detected"],
            "recovery_read_ios": pstats["recovery_read_ios"],
            "parity_blocks_written": pstats["parity_blocks_written"],
            "output_identical": True,  # asserted above
        },
        "params": {
            "n_records": n_records, "k": k, "n_disks": n_disks,
            "block_size": block_size, "seed": seed,
            "read_fail_p": plan.read_fail_p,
            "write_fail_p": wplan.write_fail_p,
            "torn_write_p": wplan.torn_write_p,
        },
    }


def bench_cluster(n_records: int, node_counts: tuple[int, ...] = (1, 2, 4),
                  k: int = 4, n_disks: int = 4, block_size: int = 64,
                  seed: int = 2) -> dict:
    """Scale-out table: simulated makespan vs. cluster size at fixed N.

    The same input is cluster-sorted at every P in *node_counts*; every
    row must produce output bit-identical to ``np.sort`` of the input
    (which is also what single-node SRM produces), so the table doubles
    as a cross-P equivalence check.  Makespan is the simulated per-phase
    critical path (max across nodes, plus link time), so the scaling
    column shows what the extra hardware buys once exchange costs are
    charged.
    """
    from .cluster import ClusterConfig, cluster_sort

    keys = uniform_permutation(n_records, rng=seed)
    expect = np.sort(keys)
    cfg = SRMConfig.from_k(k, n_disks, block_size)
    rows = []
    base_ms = None
    for p in node_counts:
        wall, (out, res) = _time(
            lambda p=p: cluster_sort(
                keys, ClusterConfig(n_nodes=p), cfg, rng=seed + 1
            )
        )
        if not np.array_equal(out, expect):
            raise DataError(f"cluster P={p} output differs from sort(input)")
        if base_ms is None:
            base_ms = res.makespan_ms
        rows.append({
            "n_nodes": p,
            "wall_s": round(wall, 6),
            "makespan_ms": round(res.makespan_ms, 1),
            "speedup_vs_p1": round(base_ms / res.makespan_ms, 3),
            "partition_skew": round(res.partition_skew, 4),
            "total_parallel_ios": res.total_parallel_ios,
            "max_node_parallel_ios": res.max_node_parallel_ios,
            "exchange_blocks": res.exchange.blocks_crossed,
            "link_ms": round(res.exchange.link_ms, 2),
        })
    return {
        "rows": rows,
        "output_identical_across_p": True,  # asserted above
        "params": {
            "n_records": n_records, "k": k, "n_disks": n_disks,
            "block_size": block_size, "seed": seed,
            "node_counts": list(node_counts),
        },
    }


def bench_backend(n_records: int, k: int = 4, n_disks: int = 4,
                  block_size: int = 64, seed: int = 2) -> dict:
    """Memory vs. mmap backend wall-clock for the same sort.

    Both runs pin the layout rng, so every charged I/O count must match
    exactly — what this section prices is purely the storage layer:
    slot-record encode/decode plus page-cache traffic against in-RAM
    dicts.  Output bit-identity and I/O equality are asserted.
    """
    keys = uniform_permutation(n_records, rng=seed)
    cfg = SRMConfig.from_k(k, n_disks, block_size)
    wall_mem, (out_mem, res_mem) = _time(
        lambda: srm_sort(keys, cfg, rng=seed + 1)
    )
    wall_mm, (out_mm, res_mm) = _time(
        lambda: srm_sort(keys, cfg, rng=seed + 1, backend="mmap")
    )
    if not np.array_equal(out_mem, out_mm):
        raise DataError("backend equivalence violated: output records differ")
    if _io_tuple(res_mem.io) != _io_tuple(res_mm.io):
        raise DataError("backend equivalence violated: I/O counters differ")
    bstats = res_mm.system.backend.stats()
    res_mm.system.close()
    return {
        "memory": {
            "wall_s": round(wall_mem, 6),
            "records_per_sec": round(n_records / wall_mem),
        },
        "mmap": {
            "wall_s": round(wall_mm, 6),
            "records_per_sec": round(n_records / wall_mm),
            "blocks_written": bstats["blocks_written"],
            "bytes_written": bstats["bytes_written"],
            "file_bytes": bstats["file_bytes"],
            "file_grows": bstats["file_grows"],
        },
        "mmap_overhead_frac": round(wall_mm / wall_mem - 1.0, 4),
        "io_equivalent": True,  # asserted above
        "params": {
            "n_records": n_records, "k": k, "n_disks": n_disks,
            "block_size": block_size, "seed": seed,
        },
    }


def bench_service(n_jobs: int = 8, tenant_counts: tuple[int, ...] = (2, 3),
                  policies: tuple[str, ...] = ("rr", "wfq", "srpt"),
                  k: int = 2, n_disks: int = 4, block_size: int = 16,
                  seed: int = 5) -> dict:
    """Multi-tenant contention table: shared farm vs. isolated serial.

    A fully backlogged batch of jobs is served once per (policy, tenant
    count).  Every row re-verifies the service's core guarantee — each
    tenant bit-identical to its solo run (output, schedules, I/O
    counters) — and prices the contention: aggregate throughput against
    the sum of isolated makespans (work conservation pins it at ~1.0),
    Jain fairness over weight-normalized per-tenant rounds, and p50/p95
    job makespan, which is where the policies actually differ.
    """
    from .core.config import SRMConfig as _SRMConfig
    from .service import run_arrival_script
    from .workloads import batch_arrivals

    cfg = _SRMConfig.from_k(k, n_disks, block_size)
    rows = []
    for n_tenants in tenant_counts:
        arrivals = batch_arrivals(
            n_jobs, n_tenants=n_tenants, min_records=400,
            max_records=1_600, rng=seed,
        )
        tenants = sorted({a.tenant for a in arrivals})
        weights = {t: (2.0 if i == 0 else 1.0) for i, t in enumerate(tenants)}
        n_records = sum(a.n_records for a in arrivals)
        for policy in policies:
            wall, result = _time(
                lambda policy=policy: run_arrival_script(
                    arrivals, cfg, policy=policy, tenant_weights=weights
                )
            )
            failures = result.verify_against_solo()
            if failures:
                raise DataError(
                    f"service identity violated ({policy}, {n_tenants} "
                    f"tenants): {failures[0]}"
                )
            pct = result.completion_percentiles()
            rows.append({
                "policy": policy,
                "n_tenants": n_tenants,
                "n_jobs": n_jobs,
                "wall_s": round(wall, 6),
                "makespan_ms": round(result.makespan_ms, 1),
                "busy_ms": round(result.busy_ms, 1),
                "isolated_total_ms": round(result.isolated_total_ms, 1),
                "throughput_vs_isolated": round(
                    result.throughput_vs_isolated(), 4
                ),
                "records_per_sim_s": round(
                    1000.0 * n_records / result.makespan_ms, 1
                ),
                "fairness_index": round(result.fairness_index(), 4),
                "p50_makespan_ms": round(pct["p50"], 1),
                "p95_makespan_ms": round(pct["p95"], 1),
            })
    return {
        "rows": rows,
        "identity_vs_solo": True,  # asserted above, every row
        "params": {
            "n_jobs": n_jobs, "tenant_counts": list(tenant_counts),
            "policies": list(policies), "k": k, "n_disks": n_disks,
            "block_size": block_size, "seed": seed,
        },
    }


def bench_latency_adaptive(n_records: int, k: int = 2, n_disks: int = 4,
                           block_size: int = 16, seed: int = 7) -> dict:
    """Latency-adaptive scheduling vs. the fixed policy under faults.

    Each scenario sorts the same input twice through the overlap engine
    — fixed §5.5 policy, then with :class:`LatencyAwareConfig` armed —
    under an identical seeded fault plan, and *proves the adaptive
    contract while timing it*: bit-identical output and a simulated
    makespan no worse than the fixed policy's are asserted on every
    row, so the improvement column is pure scheduling, not a changed
    sort.  ``adaptive_wall_overhead_frac`` charges the policy's
    wall-clock cost on the same row (one timed sort per side).  The
    geometry is the balanced regime (per-record merge cost comparable
    to a block service), where read-ahead actually has latency to
    hide; see ``repro cliff`` for the full grid.
    """
    from .core.config import LatencyAwareConfig, OverlapConfig
    from .faults import FaultPlan
    from .faults.plan import StallWindow

    keys = uniform_permutation(n_records, rng=seed)
    cfg = SRMConfig.from_k(k, n_disks, block_size)
    cpu_us = 1000.0
    victim = 1 % n_disks
    scenarios = [
        ("straggler_d0", 0,
         FaultPlan(seed=seed + 1, latency_factors={victim: 4.0})),
        ("straggler_d1", 1,
         FaultPlan(seed=seed + 2, latency_factors={victim: 4.0})),
        ("stall_d0", 0,
         FaultPlan(seed=seed + 3, stalls=tuple(
             StallWindow(victim, 1_000.0 + 3_000.0 * i, 500.0)
             for i in range(4)
         ))),
    ]
    rows = []
    for name, depth, plan in scenarios:
        fixed_cfg = OverlapConfig(
            mode="full", prefetch_depth=depth, cpu_us_per_record=cpu_us
        )
        adaptive_cfg = OverlapConfig(
            mode="full", prefetch_depth=depth, cpu_us_per_record=cpu_us,
            latency=LatencyAwareConfig(),
        )
        wall_f, (out_f, res_f) = _time(
            lambda: srm_sort(
                keys, cfg, rng=seed + 17, overlap=fixed_cfg, faults=plan
            )
        )
        wall_a, (out_a, res_a) = _time(
            lambda: srm_sort(
                keys, cfg, rng=seed + 17, overlap=adaptive_cfg, faults=plan
            )
        )
        if not np.array_equal(out_f, out_a):
            raise DataError(
                f"latency-adaptive equivalence violated ({name}): "
                "outputs differ"
            )
        fixed_ms = res_f.simulated_merge_ms
        adaptive_ms = res_a.simulated_merge_ms
        if adaptive_ms > fixed_ms * (1.0 + 1e-9):
            raise DataError(
                f"latency-adaptive regression ({name}): adaptive makespan "
                f"{adaptive_ms} exceeds fixed {fixed_ms}"
            )
        rows.append({
            "scenario": name,
            "prefetch_depth": depth,
            "fixed_makespan_ms": round(fixed_ms, 1),
            "adaptive_makespan_ms": round(adaptive_ms, 1),
            "improvement_pct": round(
                100.0 * (1.0 - adaptive_ms / fixed_ms), 2
            ),
            "depth_boosts": sum(
                r.depth_boosts for r in res_a.overlap_reports
            ),
            "floor_issues": sum(
                r.floor_issues for r in res_a.overlap_reports
            ),
            "wall_s_fixed": round(wall_f, 6),
            "wall_s_adaptive": round(wall_a, 6),
            "adaptive_wall_overhead_frac": round(wall_a / wall_f - 1.0, 4),
            "output_identical": True,  # asserted above
        })
    return {
        "rows": rows,
        "output_identical": True,  # asserted above, every row
        "no_worse_than_fixed": True,  # asserted above, every row
        "params": {
            "n_records": n_records, "k": k, "n_disks": n_disks,
            "block_size": block_size, "seed": seed,
            "cpu_us_per_record": cpu_us, "latency_factor": 4.0,
            "victim_disk": victim,
        },
    }


def run_benchmarks(quick: bool = False) -> dict:
    """Run the full harness; returns the JSON-ready report."""
    scale = QUICK if quick else FULL
    report = {
        "benchmark": "repro bench (hot-path harness)",
        "mode": "quick" if quick else "full",
        "provenance": provenance(),
        "merge": bench_merge(scale["merge_records"]),
        "run_formation": bench_run_formation(
            scale["rs_records"], scale["rs_memory"]
        ),
        # The perfbench b1024_zipf_payload geometry: D=4, B=1024, k=4.
        "run_formation_zipf": bench_run_formation(
            scale["rs_zipf_records"],
            SRMConfig.from_k(4, 4, 1024).memory_records,
            block_size=1024, zipf_payload=True,
        ),
        "writer": bench_writer(scale["writer_records"]),
        "telemetry": bench_telemetry(scale["merge_records"]),
        "tracing": bench_tracing(scale["merge_records"]),
        "faults": bench_faults(scale["merge_records"]),
        "backend": bench_backend(scale["merge_records"]),
        "cluster": bench_cluster(
            scale["merge_records"],
            node_counts=(1, 2, 4) if quick else (1, 2, 4, 8),
        ),
        "service": bench_service(
            n_jobs=6 if quick else 8,
            tenant_counts=(2,) if quick else (2, 3),
        ),
        "latency_adaptive": bench_latency_adaptive(
            scale["adaptive_records"]
        ),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="repro bench", description="hot-path performance harness"
    )
    p.add_argument("--quick", action="store_true",
                   help="reduced scale (CI smoke)")
    p.add_argument("--out", default="BENCH_sort_throughput.json",
                   help="report path (default: %(default)s)")
    p.add_argument("--min-merge-speedup", type=float, default=None,
                   help="fail unless losertree/heapq >= this ratio")
    p.add_argument("--min-rs-speedup", type=float, default=None,
                   help="fail unless block/record >= this ratio")
    args = p.parse_args(argv)

    report = run_benchmarks(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")

    pv = report["provenance"]
    commit = "unknown" if pv["git_sha"] is None else (
        pv["git_sha"][:12] + (" (dirty)" if pv["git_dirty"] else "")
    )
    print(f"provenance    commit {commit}  cpus {pv['cpu_count']}"
          f"  python {pv['python']}  numpy {pv['numpy']}")
    m, rs = report["merge"], report["run_formation"]
    print(f"merge        losertree {m['losertree']['records_per_sec']:>10,} rec/s"
          f"  heapq {m['heapq']['records_per_sec']:>10,} rec/s"
          f"  speedup {m['speedup']:.2f}x")
    print(f"run formation    block {rs['block']['records_per_sec']:>10,} rec/s"
          f"  record {rs['record']['records_per_sec']:>10,} rec/s"
          f"  speedup {rs['speedup']:.2f}x")
    rz = report["run_formation_zipf"]
    print(f"  zipf+payload   block {rz['block']['records_per_sec']:>10,} rec/s"
          f"  record {rz['record']['records_per_sec']:>10,} rec/s"
          f"  speedup {rz['speedup']:.2f}x")
    print(f"writer        {report['writer']['records_per_sec']:>10,} rec/s")
    t = report["telemetry"]
    print(f"telemetry     enable overhead {t['enable_overhead_frac']*100:+.1f}%"
          f"  ({t['n_metrics']} metrics, schema {t['schema']})")
    tr = report["tracing"]
    print(f"tracing       armed overhead {tr['trace_overhead_frac']*100:+.1f}%"
          f"  ({tr['trace_records']:,} records, {tr['domains']} domains, "
          f"critical path exact)")
    fl = report["faults"]
    print(f"faults        armed overhead {fl['armed_overhead_frac']*100:+.1f}%"
          f"  ({fl['retries']} retries, output identical)")
    pr = fl["parity"]
    print(f"parity        wall overhead {pr['overhead_frac']*100:+.1f}%"
          f"  io {pr['io_overhead_frac']*100:+.1f}%"
          f"  ({pr['torn_writes_detected']} tears repaired)")
    print(f"checksum      {fl['checksum_mb_per_s']:>10,.0f} MB/s (zero-copy CRC)")
    be = report["backend"]
    print(f"backend        mmap {be['mmap']['records_per_sec']:>10,} rec/s"
          f"  memory {be['memory']['records_per_sec']:>10,} rec/s"
          f"  overhead {be['mmap_overhead_frac']*100:+.1f}%")
    for row in report["cluster"]["rows"]:
        print(f"cluster P={row['n_nodes']:<2}  makespan "
              f"{row['makespan_ms']:>10,.0f} ms"
              f"  speedup {row['speedup_vs_p1']:.2f}x"
              f"  skew {row['partition_skew']:.3f}"
              f"  link {row['link_ms']:.1f} ms")
    for row in report["service"]["rows"]:
        print(f"service {row['policy']:<5} T={row['n_tenants']}"
              f"  makespan {row['makespan_ms']:>9,.0f} ms"
              f"  thr/iso {row['throughput_vs_isolated']:.3f}"
              f"  fair {row['fairness_index']:.3f}"
              f"  p50/p95 {row['p50_makespan_ms']:,.0f}/"
              f"{row['p95_makespan_ms']:,.0f} ms")
    for row in report["latency_adaptive"]["rows"]:
        print(f"adaptive {row['scenario']:<13}"
              f" fixed {row['fixed_makespan_ms']:>9,.0f} ms"
              f"  adaptive {row['adaptive_makespan_ms']:>9,.0f} ms"
              f"  improve {row['improvement_pct']:+.2f}%"
              f"  wall {row['adaptive_wall_overhead_frac']*100:+.1f}%"
              f"  (output identical)")
    print(f"report -> {args.out}")

    ok = True
    if args.min_merge_speedup is not None and m["speedup"] < args.min_merge_speedup:
        print(f"FAIL: merge speedup {m['speedup']} < {args.min_merge_speedup}",
              file=sys.stderr)
        ok = False
    if args.min_rs_speedup is not None and rs["speedup"] < args.min_rs_speedup:
        print(f"FAIL: run-formation speedup {rs['speedup']} < {args.min_rs_speedup}",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1
