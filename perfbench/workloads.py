"""The benchmark's workloads, the sort call it times, and its oracle.

Each workload fixes a geometry and a sort configuration; its inputs are
generated here from the workload seed, so the program only ever
receives arrays.  ``sort_once`` is the unit every timing measures: it
builds a fresh simulated disk farm and sorts the inputs on it through
the public ``sort_records_on_system`` entry point.  ``check`` is the
correctness oracle applied to every sort, warm-up sorts included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro import SRMConfig, sort_records_on_system
from repro.core import LatencyAwareConfig, OverlapConfig
from repro.disks import DISK_1996, ParallelDiskSystem
from repro.faults import FaultPlan
from repro.workloads import zipf_keys


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, geometry and sort options."""

    name: str
    n_records: int
    n_disks: int
    block_size: int
    k: int
    formation: str
    keys: str  # "uniform" (a permutation) or "zipf"
    payloads: bool
    #: Run on the overlap engine with a 4x straggler on disk 1.
    straggler: bool = False

    @property
    def config(self) -> SRMConfig:
        return SRMConfig.from_k(self.k, self.n_disks, self.block_size)

    def resized(self, fraction: float) -> "Workload":
        """The same workload with *fraction* of the records (self-tests)."""
        n = max(4 * self.config.memory_records, int(self.n_records * fraction))
        return replace(self, n_records=n)

    def geometry(self) -> dict:
        return {
            "N": self.n_records,
            "D": self.n_disks,
            "B": self.block_size,
            "R": self.config.merge_order,
            "formation": self.formation,
            "keys": self.keys,
            "payloads": self.payloads,
            "overlap": "full+latency_aware" if self.straggler else "none",
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("b64_uniform", 400_000, 4, 64, 4, "load_sort", "uniform", False),
        Workload(
            "b1024_zipf_payload", 750_000, 4, 1024, 4,
            "replacement_selection", "zipf", True,
        ),
        Workload(
            "overlap_straggler", 50_000, 4, 64, 4, "load_sort", "uniform",
            False, straggler=True,
        ),
    )
}

#: Zipf skew and support of ``b1024_zipf_payload``.
ZIPF_ALPHA = 1.2
ZIPF_DISTINCT = 200_000
#: Disk 1 serves every request 4x slower on ``overlap_straggler``.
STRAGGLER = {1: 4.0}


@dataclass(frozen=True)
class Inputs:
    keys: np.ndarray
    payloads: np.ndarray | None


@dataclass(frozen=True)
class Expected:
    """What a correct sort returns: ``np.sort`` keys, stable payloads."""

    keys: np.ndarray
    payloads: np.ndarray | None

    @classmethod
    def of(cls, inputs: Inputs) -> "Expected":
        if inputs.payloads is None:
            return cls(np.sort(inputs.keys), None)
        order = np.argsort(inputs.keys, kind="stable")
        return cls(inputs.keys[order], inputs.payloads[order])


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The workload's inputs; the same seed gives the same arrays."""
    gen = np.random.default_rng([seed, 0])
    if w.keys == "uniform":
        keys = gen.permutation(w.n_records).astype(np.int64)
    else:
        keys = zipf_keys(w.n_records, ZIPF_ALPHA, ZIPF_DISTINCT, rng=gen)
    payloads = None
    if w.payloads:
        info = np.iinfo(np.int64)
        payloads = gen.integers(info.min, info.max, w.n_records, dtype=np.int64)
    return Inputs(keys, payloads)


@dataclass
class Outcome:
    """One finished sort: its result, the farm it ran on, its wall time."""

    result: object  # repro.SortResult
    system: ParallelDiskSystem
    wall_s: float


def sort_once(w: Workload, inputs: Inputs, seed: int) -> Outcome:
    """Sort *inputs* on a fresh farm; the timed region is this call's body.

    The run-placement randomness is drawn from *seed*, so every sort of
    one run follows the same ParRead/flush schedule.
    """
    t0 = time.perf_counter()
    system = ParallelDiskSystem(w.n_disks, w.block_size, timing=DISK_1996)
    overlap = None
    if w.straggler:
        system.attach_faults(FaultPlan(latency_factors=STRAGGLER))
        overlap = OverlapConfig(
            mode="full", prefetch_depth=2, latency=LatencyAwareConfig()
        )
    result = sort_records_on_system(
        system,
        inputs.keys,
        w.config,
        rng=np.random.SeedSequence([seed, 1]),
        formation=w.formation,
        payloads=inputs.payloads,
        overlap=overlap,
    )
    return Outcome(result, system, time.perf_counter() - t0)


def check(out: Outcome, expected: Expected) -> str | None:
    """The oracle: ``None`` if the sort is correct, else what is wrong."""
    keys, payloads = out.result.peek_sorted_records(out.system)
    if not np.array_equal(keys, expected.keys):
        return "keys differ from np.sort"
    if expected.payloads is not None and (
        payloads is None or not np.array_equal(payloads, expected.payloads)
    ):
        return "payloads differ from the stable-argsort order"
    return None


def sim_makespan_ms(out: Outcome) -> float:
    """Simulated time on the 1996 disk model.

    The overlap engine's summed merge makespans where it runs; on the
    demand path, the farm's serial clock over the whole sort.
    """
    if out.result.overlap_reports:
        return out.result.simulated_merge_ms
    return out.system.elapsed_ms


def read_overhead_v(out: Outcome) -> float:
    """The paper's ``v`` over all merges: sum(reads * D) / sum(n_blocks)."""
    scheds = out.result.merge_schedules
    return sum(s.total_reads * s.n_disks for s in scheds) / sum(
        s.n_blocks for s in scheds
    )


def fingerprint(out: Outcome) -> tuple:
    """The schedule a pure speed change must leave exactly as it was."""
    return (
        out.result.io.parallel_ios,
        tuple(out.result.merge_schedules),
        sim_makespan_ms(out),
    )
