"""Measurement loops of the benchmark: timed sorts, traced sorts, results.

Imported by ``run.py`` once ``repro`` is importable; see that file for
the command line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import workloads as wl
from perfbench.tracer import LAYERS, LayerTracer, analyse

ROOT = Path(__file__).resolve().parent.parent
#: Input generations plus warm-up sorts per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3
#: Timed sorts (or untraced/traced pairs) per run, at the least.
MIN_SAMPLES = 3
#: Seconds one :func:`calibrate` call takes on an unloaded 2-vCPU Xeon
#: VM (Python 3.11, numpy 2.4); ``records_per_s`` and ``setup_s`` are
#: scaled to that speed.
CALIBRATION_REF_S = 0.019
#: Per-layer metrics that are times; every other one is a count and
#: must repeat exactly between traced sorts.
TIMED_SUFFIXES = (
    ".self_s", ".share", ".ns_per_record", ".ns_per_call",
    ".us_per_parread", ".us_per_stripe", ".overhead_frac",
)


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def provenance(name: str, w, seed: int) -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": name,
        "seed": seed,
        "geometry": w.geometry(),
    }


class Sorter:
    """Runs sorts of one workload and counts those that fail the oracle."""

    def __init__(self, w, seed: int) -> None:
        self.w = w
        self.seed = seed
        self.inputs = None
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._fingerprint = None

    def setup(self) -> float:
        """Generate the inputs and run one warm-up sort; returns their seconds."""
        t0 = time.perf_counter()
        self.inputs = wl.make_inputs(self.w, self.seed)
        gen_s = time.perf_counter() - t0
        if self.expected is None:
            self.expected = wl.Expected.of(self.inputs)
        out = self.sort()
        return gen_s + (out.wall_s if out is not None else 0.0)

    def sort(self, tracer=None):
        """One checked sort; returns its outcome, or ``None`` if it failed."""
        gc.collect()  # the last sort's farm is garbage; collect it untimed
        self.attempted += 1
        try:
            if tracer is None:
                out = wl.sort_once(self.w, self.inputs, self.seed)
            else:
                out = tracer.trace(wl.sort_once, self.w, self.inputs, self.seed)
        except Exception:  # a failed sort is a result to count, not a crash
            self.fail(traceback.format_exc())
            return None
        problem = wl.check(out, self.expected)
        fp = wl.fingerprint(out)
        if self._fingerprint is None:
            self._fingerprint = fp
        elif problem is None and fp != self._fingerprint:
            problem = "schedule fingerprint differs from the first sort"
        if problem is not None:
            self.fail(problem)
            return None
        return out

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.errors.append(problem)
        print(f"perfbench: sort {self.attempted} failed: {problem}", file=sys.stderr)


def calibrate() -> float:
    """Seconds taken by a fixed kernel of small-array Python and one bulk sort."""
    t0 = time.perf_counter()
    a = np.arange(256, dtype=np.int64)
    s, seen = 0, {}
    for i in range(4000):
        j = i & 255
        s += int(a[j]) + int(np.flatnonzero(a > j).size)
        seen[i, j] = s
    np.random.default_rng(0).permutation(200_000).sort()
    return time.perf_counter() - t0


class HostProbe:
    """Scales wall times to the speed :data:`CALIBRATION_REF_S` was taken at.

    On a shared host the speed available to one process drifts by tens
    of percent over seconds.  The calibration kernel never changes with
    the program, so a timing divided by the kernel's time around it
    tracks the program's speed rather than the host's.  The kernel runs
    once at the start and once after each timing; a timing is scaled by
    the mean of the runs on either side of it.
    """

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def scale(self, seconds: float) -> float:
        self.samples.append(calibrate())
        return seconds * 2 * CALIBRATION_REF_S / (self.samples[-2] + self.samples[-1])


def end_to_end(sorter: Sorter, probe: HostProbe, seconds: float,
               setup_s: float) -> tuple[dict, dict]:
    walls, scaled, out = [], [], None
    deadline = time.perf_counter() + seconds
    timed = 0
    while timed < MIN_SAMPLES or time.perf_counter() < deadline:
        timed += 1
        o = sorter.sort()
        # The probe runs after every sort, failed ones too, so that the
        # next sort is bracketed by the runs just before and after it.
        wall = probe.scale(o.wall_s if o is not None else 0.0)
        if o is not None:
            out = o
            walls.append(o.wall_s)
            scaled.append(wall)
    if out is None:
        return {}, {"samples": 0}
    metrics = {
        "records_per_s": sorter.w.n_records / statistics.median(scaled),
        "parallel_ios": out.result.io.parallel_ios,
        "read_overhead_v": wl.read_overhead_v(out),
        "sim_makespan_ms": wl.sim_makespan_ms(out),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return metrics, {
        "samples": len(walls),
        "sort_wall_s": _quartiles(walls),
        "calibration_s": _quartiles(probe.samples),
        "unscaled_records_per_s": sorter.w.n_records / statistics.median(walls),
    }


def layer_metrics(p, out, n_records: int) -> dict:
    """Per-layer metrics of one traced sort (profile *p*, outcome *out*)."""
    res = out.result
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = p.self_s[layer]
        m[f"{layer}.share"] = p.self_s[layer] / p.wall_s
        m[f"{layer}.calls"] = p.calls[layer]
    m["unattributed.self_s"] = p.self_s["unattributed"]
    scheds = res.merge_schedules
    parreads = sum(s.total_reads for s in scheds)
    merged = p.entry_amount["RunWriter.append"]
    stripes = (p.entry_calls["ParallelDiskSystem.read_stripe"]
               + p.entry_calls["ParallelDiskSystem.write_stripe"])
    reports = res.overlap_reports
    makespan = sum(r.makespan_ms for r in reports)
    m.update({
        "run_formation.ns_per_record": 1e9 * p.self_s["run_formation"] / n_records,
        "run_formation.runs_formed": res.runs_formed,
        "merge.merges": len(scheds),
        "merge.passes": res.n_merge_passes,
        "schedule.parreads": parreads,
        "schedule.us_per_parread": 1e6 * p.self_s["schedule"] / max(parreads, 1),
        "schedule.flush_ops": sum(s.flush_ops for s in scheds),
        "schedule.blocks_flushed": sum(s.blocks_flushed for s in scheds),
        "schedule.useful_read_frac": sum(s.n_blocks for s in scheds)
        / max(sum(s.blocks_read for s in scheds), 1),
        "forecasting.ns_per_call": 1e9 * p.self_s["forecasting"]
        / max(p.calls["forecasting"], 1),
        "losertree.ns_per_record": 1e9 * p.self_s["losertree"] / max(merged, 1),
        "losertree.drain_cycles": res.heap_cycles,
        "writer.appends": p.entry_calls["RunWriter.append"],
        "writer.stripes": p.writer_stripes,
        "writer.ns_per_record": 1e9 * p.self_s["writer"] / max(merged, 1),
        "disks.stripe_ops": stripes,
        "disks.us_per_stripe": 1e6 * p.self_s["disks"] / max(stripes, 1),
        "disks.blocks_read": p.entry_amount["ParallelDiskSystem.read_stripe"],
        "disks.blocks_written": p.entry_amount["ParallelDiskSystem.write_stripe"],
        "events.demand_reads": sum(r.demand_reads for r in reports),
        "events.eager_reads": sum(r.eager_reads for r in reports),
        "events.read_stall_ms": sum(r.read_stall_ms for r in reports),
        "events.write_stall_ms": sum(r.write_stall_ms for r in reports),
        "events.disk_utilization": sum(r.io_busy_ms for r in reports)
        / (res.config.n_disks * makespan) if makespan else 0.0,
        "events.depth_boosts": sum(r.depth_boosts for r in reports),
        "events.floor_issues": sum(r.floor_issues for r in reports),
    })
    return m


def per_layer(sorter: Sorter, seconds: float) -> tuple[dict, dict]:
    tracer = LayerTracer()
    untraced, traced, per_sort = [], [], []
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs < MIN_SAMPLES or time.perf_counter() < deadline:
        pairs += 1
        plain = sorter.sort()
        out = sorter.sort(tracer)
        if plain is None or out is None:
            continue
        try:
            p = analyse(tracer)
        except ValueError as exc:
            sorter.fail(f"tracer self-check: {exc}")
            continue
        untraced.append(plain.wall_s)
        traced.append(p.wall_s)
        per_sort.append(layer_metrics(p, out, sorter.w.n_records))
    if not per_sort:
        return {}, {"samples": 0}
    metrics = {}
    for name in per_sort[0]:
        values = [m[name] for m in per_sort]
        if name.endswith(TIMED_SUFFIXES):
            metrics[name] = statistics.median(values)
        elif any(v != values[0] for v in values):
            sorter.fail(f"per-layer count {name} differs between traced sorts")
        else:
            metrics[name] = values[0]
    # Each traced sort runs right after an untraced one; pairing them
    # cancels most of the host's speed drift.
    metrics["tracing.overhead_frac"] = (
        statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    )
    detail = {
        "samples": len(per_sort),
        "untraced_wall_s": _quartiles(untraced),
        "traced_wall_s": _quartiles(traced),
    }
    return metrics, detail


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: float = 1.0, import_s: float = 0.0) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, detail)`` as printed.

    *size* shrinks the workload to that fraction of its records (self-tests).
    """
    w = wl.WORKLOADS[name] if size == 1.0 else wl.WORKLOADS[name].resized(size)
    sorter = Sorter(w, seed)
    probe = HostProbe()
    setup_s = import_s * CALIBRATION_REF_S / probe.samples[0] + statistics.median(
        probe.scale(sorter.setup()) for _ in range(SETUP_ROUNDS)
    )
    if trace:
        metrics, detail = per_layer(sorter, seconds)
    else:
        metrics, detail = end_to_end(sorter, probe, seconds, setup_s)
    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    correct = sorter.failed == 0
    if set(metrics) != set(units):
        correct = False
        sorter.errors.append(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    result = {
        "correct": correct,
        "attempted": sorter.attempted,
        "failed": sorter.failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units
        },
    }
    detail.update({
        "provenance": provenance(name, w, seed),
        "trace": trace,
        "failure_rate": sorter.failed / sorter.attempted,
        "errors": sorter.errors[:10],
    })
    return result, detail


def run_all(args) -> int:
    """Run every workload in its own process; print a table and the results."""
    results, ok = {}, True
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        ok &= proc.returncode == 0 and bool(result and result["correct"])
        results[name] = result
        if result is None:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", file=sys.stderr)
        for metric, v in result["metrics"].items():
            print(f"  {metric:34s} {v['value']:>16.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps(results))
    return 0 if ok else 1


def main(args: argparse.Namespace, import_s: float) -> int:
    """Run what the command line asked for; returns the exit code."""
    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r};"
            f" one of {sorted(wl.WORKLOADS)} or all"
        )
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, args.trace, import_s=import_s
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
