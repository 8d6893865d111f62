"""Fuzz: the pointer-based FDS vs a brute-force reference.

The implementation tracks chain heads with per-(run, disk) pointers;
the reference recomputes, from a plain set of on-disk blocks, the
smallest block of every run on every disk (Definition 2 verbatim).
Random advance/push_back sequences must keep them identical, for the
per-disk and per-chain queries as well as the one-``argmin`` queries
the merger issues per ``ParRead`` (``smallest_blocks`` and
``galloping_bound``) and the O(1) liveness count the overlap engine asks
on every merge cycle (``has_blocks_on_disk``).  Jobs whose keys pile up on ``INT64_MAX`` make the
dead-chain filler tie live heads, the case those queries must resolve
through the alive mask.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import INF, ForecastStructure, MergeJob


class ReferenceFDS:
    """Definition 2 computed from first principles (slow, obvious)."""

    def __init__(self, job: MergeJob) -> None:
        self.job = job
        # All blocks start on disk.
        self.on_disk: set[tuple[int, int]] = {
            (r, b)
            for r in range(job.n_runs)
            for b in range(job.blocks_in_run(r))
        }

    def head_key(self, disk: int, run: int) -> float:
        keys = [
            int(self.job.first_keys[run][b])
            for (r, b) in self.on_disk
            if r == run and self.job.disk_of(r, b) == disk
        ]
        return min(keys) if keys else INF

    def smallest_block_on_disk(self, disk: int):
        best = None
        for r, b in self.on_disk:
            if self.job.disk_of(r, b) != disk:
                continue
            key = int(self.job.first_keys[r][b])
            cand = (key, r, b)
            if best is None or cand < best:
                best = cand
        return best

    def smallest_blocks(self):
        reads = []
        for disk in range(self.job.n_disks):
            best = self.smallest_block_on_disk(disk)
            if best is not None:
                reads.append((best[1], best[2], disk))
        return reads

    def galloping_bound(self):
        if not self.on_disk:
            return None
        return min((int(self.job.first_keys[r][b]), r) for r, b in self.on_disk)

    def read(self, run: int, block: int) -> None:
        self.on_disk.remove((run, block))

    def push_back(self, run: int, block: int) -> None:
        self.on_disk.add((run, block))


@st.composite
def job_and_ops(draw):
    n_runs = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    b = 2
    blocks = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10_000))
    near_max = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if near_max:
        # Mostly INT64_MAX, the value dead chains hold as filler.
        hi = np.iinfo(np.int64).max
        pool = np.array([0, 1, hi - 1, hi, hi, hi], dtype=np.int64)
        keys = rng.choice(pool, size=n_runs * blocks * b)
    else:
        keys = rng.permutation(n_runs * blocks * b)
    runs = [np.sort(keys[i::n_runs]) for i in range(n_runs)]
    starts = rng.integers(0, d, size=n_runs)
    job = MergeJob.from_key_runs(runs, b, d, start_disks=starts)
    n_ops = draw(st.integers(0, 30))
    choices = draw(st.lists(st.integers(0, 2**30), min_size=n_ops, max_size=n_ops))
    return job, choices


class TestFDSFuzz:
    @given(args=job_and_ops())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_under_random_ops(self, args):
        job, choices = args
        fds = ForecastStructure(job)
        ref = ReferenceFDS(job)
        in_memory: list[tuple[int, int, int]] = []  # (run, block, disk)

        for c in choices:
            assert fds.smallest_blocks() == ref.smallest_blocks()
            assert fds.galloping_bound() == ref.galloping_bound()
            # Alternate between reading a random disk's head and
            # flushing a random in-memory block (valid ops only).
            if c % 2 == 0 or not in_memory:
                disk = c % job.n_disks
                got = fds.smallest_block_on_disk(disk)
                expect = ref.smallest_block_on_disk(disk)
                assert got == expect
                if got is None:
                    continue
                _, run, block = got
                fds.advance(run, disk)
                ref.read(run, block)
                in_memory.append((run, block, disk))
            else:
                # Push back the most recently read block of some chain
                # (chain suffix discipline: LIFO per (run, disk)).
                idx = c % len(in_memory)
                run, block, disk = in_memory[idx]
                # Only legal if it would be the chain's new head: find
                # the latest-read block of that chain.
                chain_blocks = [
                    (i, bl) for i, (r2, bl, d2) in enumerate(in_memory)
                    if r2 == run and d2 == disk
                ]
                i, block = chain_blocks[-1]
                in_memory.pop(i)
                fds.push_back(run, block)
                ref.push_back(run, block)

        # Final state must agree everywhere.
        assert fds.smallest_blocks() == ref.smallest_blocks()
        assert fds.galloping_bound() == ref.galloping_bound()
        for disk in range(job.n_disks):
            for run in range(job.n_runs):
                assert fds.head_key(disk, run) == ref.head_key(disk, run)

    @given(args=job_and_ops())
    @settings(max_examples=40, deadline=None)
    def test_has_blocks_on_disk_tracks_liveness(self, args):
        job, choices = args
        fds = ForecastStructure(job)
        read: list[tuple[int, int, int]] = []  # (run, block, disk)

        def check():
            for disk in range(job.n_disks):
                assert fds.has_blocks_on_disk(disk) == (
                    fds.smallest_block_on_disk(disk) is not None
                )

        check()
        for c in choices:
            op = c % 3
            if op == 0:
                # One disk's head (a single-chain advance).
                disk = (c // 3) % job.n_disks
                head = fds.smallest_block_on_disk(disk)
                if head is not None:
                    fds.advance(head[1], disk)
                    read.append((head[1], head[2], disk))
            elif op == 1:
                # A whole ParRead.
                reads = fds.smallest_blocks()
                fds.advance_many(reads)
                read.extend(reads)
            elif read:
                # Flush the latest-read block of some chain (LIFO per
                # (run, disk), as the scheduler's suffix rule requires).
                run, _block, disk = read[(c // 3) % len(read)]
                i = max(
                    i for i, (r2, _b, d2) in enumerate(read)
                    if r2 == run and d2 == disk
                )
                _r, block, _d = read.pop(i)
                fds.push_back(run, block)
            check()
