"""The forecasting data structure, FDS (paper §4, Definition 2).

``H_i[j]`` stores the smallest key in the *smallest block of run j on
disk i* — the chain-head key.  On every read the merger consults
``H_i`` to pick, for each disk ``i``, the run whose chain head has the
smallest key: that block is the "smallest block on disk i" and is what
``ParRead`` fetches.

Key provenance (why this implementation is faithful):  under cyclic
striping, the blocks of run ``r`` on disk ``i`` form the chain
``i0, i0 + D, i0 + 2D, ...`` and are always consumed chain-head first.
The initial block of the run implants the keys of blocks ``0..D-1`` —
one per chain — and every block ``b`` implants the key of block
``b + D``, i.e. of its chain successor.  So advancing a chain pointer
after reading its head reveals exactly the key the just-read block's
implant carries, and flushing a block re-exposes a key the merger had
already seen.  ``H`` therefore never contains information the real
forecast format would not provide; a cross-check against the on-disk
implanted tuples lives in the test suite.

``H`` is one ``D x R`` int64 matrix plus a boolean *alive* mask for
exhausted chains (keys may occupy the full int64 range, so no in-band
sentinel exists), and the merger's hot queries are single vectorized
reductions instead of Python loops with lazy heaps.  A ``ParRead`` asks
two of them, each one unmasked ``argmin``:

* :meth:`ForecastStructure.smallest_blocks` — Definition 5's fetch set,
  the smallest block on every disk (``argmin`` along each row);
* :meth:`ForecastStructure.galloping_bound` — the smallest ``(key, run)``
  on any disk (``argmin`` over ``H`` read run-major, so the first
  minimum is the ``(key, run)`` tie-break), which bounds what the
  resident blocks may emit before that fetch.

A dead chain's filler equals ``INT64_MAX``, itself a legal key, so
whenever an ``argmin`` lands on a dead entry the query falls back to the
exact masked reduction.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ScheduleError
from .job import MergeJob

#: Chain exhausted — sorts after every real key (public float view).
INF = math.inf

#: Filler stored in ``H`` entries whose chain is exhausted.  It is NOT a
#: reserved key — real keys may equal it — so every reduction consults
#: the alive mask; the value only makes masked ``np.where`` minima cheap.
INF_I64 = np.iinfo(np.int64).max


class ForecastStructure:
    """FDS plus the per-(run, disk) chain pointers it summarizes."""

    def __init__(self, job: MergeJob) -> None:
        self.job = job
        D = job.n_disks
        R = job.n_runs
        self.n_disks = D
        self.n_runs = R
        # Hot-path caches (profiling: chain_head_block dominates).
        self._n_blocks = [job.blocks_in_run(r) for r in range(R)]
        self._starts = [int(s) for s in job.start_disks]
        self._first_keys = [job.first_keys[r] for r in range(R)]
        # Chain pointer: next on-disk position within chain (run, disk).
        self._ptr: list[list[int]] = [[0] * D for _ in range(R)]
        # H[d, r]: key of chain head; _alive[d, r]: chain not exhausted.
        self._h = np.full((D, R), INF_I64, dtype=np.int64)
        self._alive = np.zeros((D, R), dtype=bool)
        #: Live chains per disk: the row sums of ``_alive``.
        self._live_on_disk = [0] * D
        for r in range(R):
            for d in range(D):
                self._refresh(r, d)

    # -- chain geometry ----------------------------------------------------

    def _chain_start(self, run: int, disk: int) -> int:
        return (disk - self._starts[run]) % self.n_disks

    def chain_head_block(self, run: int, disk: int) -> Optional[int]:
        """Block index of the chain head of (*run*, *disk*), if any."""
        b = self._chain_start(run, disk) + self._ptr[run][disk] * self.n_disks
        return b if b < self._n_blocks[run] else None

    def chain_position(self, run: int, block: int) -> tuple[int, int]:
        """The (disk, position-in-chain) of a given block of a run."""
        disk = self.job.disk_of(run, block)
        pos = (block - self._chain_start(run, disk)) // self.n_disks
        return disk, pos

    # -- H maintenance -----------------------------------------------------

    def _refresh(self, run: int, disk: int) -> None:
        """Recompute ``H[disk, run]`` from the chain pointer.

        The only place a chain's liveness flips, so it also keeps the
        per-disk live-chain count.
        """
        b = self.chain_head_block(run, disk)
        was_alive = self._alive.item(disk, run)
        if b is None:
            self._h[disk, run] = INF_I64
            self._alive[disk, run] = False
            if was_alive:
                self._live_on_disk[disk] -= 1
        else:
            self._h[disk, run] = self._first_keys[run][b]
            self._alive[disk, run] = True
            if not was_alive:
                self._live_on_disk[disk] += 1

    def head_key(self, disk: int, run: int) -> float:
        """``H_i[j]`` — the FDS entry itself (:data:`INF` if exhausted)."""
        if not self._alive[disk, run]:
            return INF
        return int(self._h[disk, run])

    def has_blocks_on_disk(self, disk: int) -> bool:
        """True while *disk* holds an unfetched block of some run.

        Equal to ``smallest_block_on_disk(disk) is not None``, in O(1).
        """
        return self._live_on_disk[disk] > 0

    def smallest_block_on_disk(self, disk: int) -> Optional[tuple[float, int, int]]:
        """The smallest block on *disk*: ``(key, run, block)`` or ``None``.

        This is the block a ``ParRead`` fetches from *disk*.  Key ties
        resolve to the smallest run index (``argmin`` returns the first
        minimum, matching the old heap's ``(key, run)`` ordering).
        """
        run = self._live_argmin(disk)
        if run is None:
            return None
        block = self.chain_head_block(run, disk)
        if block is None:  # pragma: no cover - defensive
            raise ScheduleError("FDS points at an exhausted chain")
        return int(self._h[disk, run]), run, block

    def _live_argmin(self, disk: int) -> Optional[int]:
        """Run of the smallest live head on *disk* (masked), or ``None``."""
        idx = np.flatnonzero(self._alive[disk])
        if idx.size == 0:
            return None
        return int(idx[self._h[disk, idx].argmin()])

    def smallest_blocks(self) -> list[tuple[int, int, int]]:
        """Definition 5's fetch set: ``(run, block, disk)`` per live disk.

        The smallest block on every disk that still holds one, in disk
        order — what :meth:`smallest_block_on_disk` returns for each
        disk, from one ``argmin`` along the rows of ``H``.
        """
        D = self.n_disks
        runs = self._h.argmin(axis=1).tolist()
        alive = self._alive
        ptr = self._ptr
        starts = self._starts
        reads = []
        for d in range(D):
            run = runs[d]
            if not alive[d, run]:
                # The filler won: the disk is empty, or every live head
                # on it is INT64_MAX and a dead chain of a smaller run
                # ties it.  Take the exact masked path.
                run = self._live_argmin(d)
                if run is None:
                    continue
            reads.append((run, (d - starts[run]) % D + ptr[run][d] * D, d))
        return reads

    def galloping_bound(self) -> Optional[tuple[int, int]]:
        """Smallest ``(key, run)`` over all live chains, or ``None``.

        ``key`` is the first key of the smallest on-disk block and
        ``run`` the smallest run holding a block with that first key.
        Every resident record ordered before this pair can be merged
        before the next ``ParRead``; this is the batched merger's
        galloping bound.
        """
        # Read run-major, argmin's first minimum is the smallest run.
        by_run = self._h.T
        run, disk = divmod(int(by_run.argmin()), self.n_disks)
        if not self._alive[disk, run]:
            # The filler won: no chain is live, or every live head is
            # INT64_MAX and a dead chain ahead of it in run order ties.
            live = np.flatnonzero(self._alive.T)
            if live.size == 0:
                return None
            i = int(live[by_run.ravel()[live].argmin()])
            run, disk = divmod(i, self.n_disks)
        return self._h.item(disk, run), run

    def global_min_key(self) -> float:
        """Smallest key of any on-disk block (the ``S_t`` minimum)."""
        if not self._alive.any():
            return INF
        return int(self._h[self._alive].min())

    def next_block_key_of_run(self, run: int) -> float:
        """Smallest on-disk key of *run*: ``min_i H_i[run]``.

        The merger uses this to learn the first key of a run's
        not-yet-resident leading block (Definition 1's "smallest block
        of the run").
        """
        col = self._alive[:, run]
        if not col.any():
            return INF
        return int(self._h[:, run][col].min())

    # -- transitions ---------------------------------------------------------

    def advance(self, run: int, disk: int) -> None:
        """Chain head of (*run*, *disk*) was read; expose its successor.

        Models consuming the implanted key ``k_{r, b+D}`` of the block
        just read.
        """
        self._ptr[run][disk] += 1
        self._refresh(run, disk)

    def advance_many(self, reads) -> None:
        """:meth:`advance` for every ``(run, block, disk)`` of one ``ParRead``."""
        ptr = self._ptr
        for run, _block, disk in reads:
            ptr[run][disk] += 1
            self._refresh(run, disk)

    def push_back(self, run: int, block: int) -> None:
        """A flushed *block* returns to its disk (§5.3 flush update).

        The block becomes its chain's head again; ``H`` gets its first
        key (which the merger knows — it read the block).
        """
        disk, pos = self.chain_position(run, block)
        if pos >= self._ptr[run][disk]:
            raise ScheduleError(
                f"flush of run {run} block {block}: chain pointer would move forward"
            )
        self._ptr[run][disk] = pos
        self._refresh(run, disk)

    def chain_pointer(self, run: int, disk: int) -> int:
        """Current chain position (used by validation)."""
        return self._ptr[run][disk]
