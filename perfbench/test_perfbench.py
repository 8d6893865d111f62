"""Self-tests of the benchmark: ``python -m pytest perfbench -q``.

A tiny-N pass runs every workload traced and untraced and checks the
reported metrics against ``BENCHMARK.json``; the rest check the oracle,
the tracer's clean-up and the benchmark files themselves.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run

run.import_program()

from perfbench import harness, tracer, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SIZE = 0.05
_cache: dict = {}


def tiny(name: str, trace: int, seed: int = 3, repeat: int = 0):
    key = (name, trace, seed, repeat)
    if key not in _cache:
        _cache[key] = harness.run_workload(name, seed, 0.01, trace, size=SIZE)
    return _cache[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_reports_every_metric_with_its_unit(name, trace):
    result, detail = tiny(name, trace)
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric, v in result["metrics"].items():
        assert NAME.fullmatch(metric)
        assert isinstance(v["value"], (int, float)) and np.isfinite(v["value"])
    assert detail["provenance"]["geometry"]["N"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_counts_repeat_exactly(name):
    first, _ = tiny(name, 1)
    second, _ = tiny(name, 1, repeat=1)
    counts = [
        k for k in first["metrics"] if not k.endswith(harness.TIMED_SUFFIXES)
    ]
    assert counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k


def test_layer_self_times_add_up_to_the_traced_wall():
    w = workloads.WORKLOADS["overlap_straggler"].resized(SIZE)
    inputs = workloads.make_inputs(w, 5)
    t = tracer.LayerTracer()
    out = t.trace(workloads.sort_once, w, inputs, 5)
    p = tracer.analyse(t)
    assert sum(p.self_s.values()) == pytest.approx(p.wall_s, rel=1e-9)
    assert all(v >= 0 for v in p.self_s.values())
    assert all(p.calls[layer] > 0 for layer in tracer.LAYERS)
    assert workloads.check(out, workloads.Expected.of(inputs)) is None


def test_tracer_restores_every_wrapped_attribute():
    entries = tracer.entry_points()
    before = [getattr(e.owner, e.attr) for e in entries]
    t = tracer.LayerTracer()
    with pytest.raises(ZeroDivisionError):
        t.trace(lambda: 1 / 0)
    assert [getattr(e.owner, e.attr) for e in entries] == before
    assert not any(hasattr(f, "__wrapped__") for f in before)


def test_oracle_rejects_wrong_keys_and_payloads():
    w = workloads.WORKLOADS["b1024_zipf_payload"].resized(SIZE)
    inputs = workloads.make_inputs(w, 7)
    out = workloads.sort_once(w, inputs, 7)
    good = workloads.Expected.of(inputs)
    assert workloads.check(out, good) is None
    keys = good.keys.copy()
    keys[-1] += 1
    assert "keys" in workloads.check(out, workloads.Expected(keys, good.payloads))
    pays = good.payloads.copy()
    i = int(np.flatnonzero(np.diff(good.keys) == 0)[0])
    pays[[i, i + 1]] = pays[[i + 1, i]]  # an unstable order of equal keys
    assert "payloads" in workloads.check(out, workloads.Expected(good.keys, pays))


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_layer_map_cites_declared_names():
    spec_names = {m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]}
    layer_map = json.loads((run.ROOT / "perfbench" / "layer_map.json").read_text())
    for p in layer_map["predictions"]:
        assert {p["layer_metric"], p["moves"]} <= spec_names
        assert set(p["effect"]) <= set(workloads.WORKLOADS)
    assert set(layer_map["fixed_under_speed_changes"]) <= spec_names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "b64_uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
