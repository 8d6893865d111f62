"""Loser-tree (tournament) merger and the batched merge data plane.

Two replacements for the ``heapq`` loop in :mod:`repro.core.merge`, both
producing bit-identical scheduler behaviour (same ``ParRead`` stream,
same flushes, same output records):

* :class:`LoserTree` — a classic tournament tree over the runs' current
  keys.  Where a binary heap pays a pop *and* a push per key-range
  switch, the loser tree replays exactly one leaf-to-root comparison
  path, and the runner-up key (the merge's galloping ``limit``) falls
  out of the same path.  :func:`merge_loop_cycles` drives it one key
  range at a time — the granularity the overlap engine needs for its
  simulated clock.
* :func:`merge_loop_batched` — the demand-path data plane, one pass per
  ``ParRead``.  Between two ``ParRead`` operations the set of resident
  blocks is fixed, so every resident record ordered before the
  *galloping bound* — the smallest ``(first key, run)`` of any
  non-resident block, one ``argmin`` over the forecasting matrix ``H``
  — can be emitted in one step: each resident block is cut at the bound
  (whole or not at all from its end keys, ``searchsorted`` only when it
  straddles), one stable ``argsort`` interleaves the slices, and the
  pass ends by demand-fetching the bound's block.

Ordering contract (shared with the heapq reference): records are emitted
in ``(key, run index, position in run)`` order.  Ties across runs go to
the smaller run index — the heap's ``(key, run)`` tie-break — which the
batched path reproduces by concatenating run slices in run order and
sorting with a stable kind, and the cycle paths reproduce by comparing
``(key, leaf)`` pairs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..disks.block import NO_KEY
from ..errors import ScheduleError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import H_DRAIN_BATCH, MERGE_DRAIN_CYCLES, batch_edges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..disks.files import StripedRun
    from ..disks.system import ParallelDiskSystem
    from .events import OverlapEngine
    from .schedule import MergeScheduler
    from .writer import RunWriter

#: Leaf key for an exhausted run — sorts after every real key.
INF = math.inf


class LoserTree:
    """Tournament tree of ``k`` sources keyed by ``(key, leaf index)``.

    The tree keeps the *losers* of each internal match; the overall
    winner sits at the root.  Replacing the winner's key replays only
    the winner's leaf-to-root path (``ceil(log2 k)`` comparisons), and
    the runner-up — the second-smallest source — is by construction the
    best of the losers on that same path.

    Exhausted sources are represented by :data:`INF` keys; ``k`` is
    padded to a power of two with permanently-infinite leaves.
    """

    __slots__ = ("n_leaves", "_size", "_keys", "_losers", "_winner")

    def __init__(self, initial_keys) -> None:
        keys = [k for k in initial_keys]
        k = len(keys)
        if k < 1:
            raise ScheduleError("loser tree needs at least one source")
        size = 1
        while size < k:
            size <<= 1
        self.n_leaves = k
        self._size = size
        self._keys = keys + [INF] * (size - k)
        # _losers[i] (1 <= i < size) is the losing leaf of the match at
        # internal node i; the winner of the whole bracket is _winner.
        losers = [0] * size
        win = [0] * (2 * size)
        for leaf in range(size):
            win[size + leaf] = leaf
        ks = self._keys
        for node in range(size - 1, 0, -1):
            a, b = win[2 * node], win[2 * node + 1]
            if (ks[a], a) <= (ks[b], b):
                win[node], losers[node] = a, b
            else:
                win[node], losers[node] = b, a
        self._losers = losers
        self._winner = win[1]

    @property
    def winner(self) -> int:
        """Leaf index of the current overall winner."""
        return self._winner

    def winner_key(self):
        """Key of the current winner (:data:`INF` when all exhausted)."""
        return self._keys[self._winner]

    def runner_up_key(self):
        """Key of the second-smallest source — the galloping ``limit``.

        The runner-up lost a match directly against the winner, so it is
        the best ``(key, leaf)`` among the losers on the winner's path.
        """
        ks = self._keys
        losers = self._losers
        node = (self._winner + self._size) >> 1
        best_key = INF
        best_leaf = -1
        while node >= 1:
            leaf = losers[node]
            key = ks[leaf]
            if best_leaf < 0 or (key, leaf) < (best_key, best_leaf):
                best_key, best_leaf = key, leaf
            node >>= 1
        return best_key

    def replace(self, new_key) -> int:
        """Give the winner's leaf *new_key* and replay its path.

        Returns the new overall winner's leaf index.  Pass :data:`INF`
        to retire an exhausted source.
        """
        ks = self._keys
        losers = self._losers
        w = self._winner
        ks[w] = new_key
        node = (w + self._size) >> 1
        while node >= 1:
            loser = losers[node]
            if (ks[loser], loser) < (ks[w], w):
                losers[node] = w
                w = loser
            node >>= 1
        self._winner = w
        return w


# ---------------------------------------------------------------------------
# Cycle-granular loser-tree loop (overlap-engine and eager-prefetch paths).
# ---------------------------------------------------------------------------


def merge_loop_cycles(
    sched: "MergeScheduler",
    writer: "RunWriter",
    block_data: dict,
    runs: "list[StripedRun]",
    system: "ParallelDiskSystem",
    free_inputs: bool,
    validate: bool,
    eng: "OverlapEngine | None",
    prefetch: bool,
    telemetry=None,
) -> int:
    """One key range per cycle, exactly like the heapq loop.

    Used when an :class:`~repro.core.events.OverlapEngine` or the legacy
    eager-prefetch mode paces the merge: those need per-key-range
    ``compute``/``pump`` hooks, so the batched drain cannot be used.
    The chunk sequence (and therefore every engine clock advance) is
    identical to the heapq reference.

    Residency is settled on a block's *first touch* only: the scheduler's
    ``ensure_resident`` and the engine's ``wait_for`` run when the run's
    offset is 0.  Where the heapq reference repeats them on every cycle,
    the repeats are no-ops: a touched block is its run's leading block,
    which no flush evicts, and its arrival and prefetch entries were
    popped by the first ``wait_for`` (a resident block is never re-read,
    so they do not come back).
    """
    job = sched.job
    R = job.n_runs
    offsets = [0] * R
    tree = LoserTree([int(job.first_keys[r][0]) for r in range(R)])
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    # Per-cycle calls, bound once.
    winner_key = tree.winner_key
    runner_up_key = tree.runner_up_key
    replace = tree.replace
    leading = sched.leading
    append = writer.append
    observe = h_batch.observe
    cycles = 0
    while True:
        key = winner_key()
        if key == INF:
            break
        cycles += 1
        r = tree.winner
        limit = runner_up_key()
        b = leading[r]
        off = offsets[r]
        if off == 0:
            sched.ensure_resident(r, b)
            if eng is not None:
                eng.wait_for(r, b)
        data, pay = block_data[(r, b)]
        if validate and data.item(off) != key:
            raise ScheduleError(
                f"merge tree desync: expected key {key}, found {data.item(off)}"
            )
        if limit == INF:
            hi = data.size
        else:
            hi = int(data.searchsorted(limit, "left"))
            if hi <= off:
                # Duplicate keys across runs (key == limit): the
                # (key, leaf) tie-break would hand the turn straight
                # back to this run; consume the whole equal prefix.
                hi = int(data.searchsorted(key, "right"))
        append(data[off:hi], None if pay is None else pay[off:hi])
        observe(hi - off)
        if eng is not None:
            eng.compute(hi - off)

        if hi == data.size:
            del block_data[(r, b)]
            if free_inputs:
                system.free(runs[r].addresses[b])
            sched.on_leading_depleted(r)
            offsets[r] = 0
            if sched.run_exhausted(r):
                replace(INF)
            else:
                nb = leading[r]
                if sched.is_resident(r, nb):
                    replace(block_data[(r, nb)][0].item(0))
                else:
                    fk = sched.fds.next_block_key_of_run(r)
                    if fk == NO_KEY or math.isinf(fk):
                        raise ScheduleError(
                            f"run {r} not exhausted but FDS sees no block"
                        )
                    replace(int(fk))
        else:
            offsets[r] = hi
            replace(data.item(hi))

        if eng is not None:
            eng.pump(sched)
        elif prefetch:
            sched.maybe_prefetch()
    m_cycles.inc(cycles)
    return cycles


# ---------------------------------------------------------------------------
# Batched demand-path data plane.
# ---------------------------------------------------------------------------


def merge_loop_batched(
    sched: "MergeScheduler",
    writer: "RunWriter",
    block_data: dict,
    runs: "list[StripedRun]",
    system: "ParallelDiskSystem",
    free_inputs: bool,
    validate: bool,
    telemetry=None,
) -> int:
    """Drain whole resident block slices, then fetch: one pass per ``ParRead``.

    Each pass asks the forecasting structure once for the *galloping
    bound* — the smallest ``(first key, run)`` of any non-resident block
    — and emits every resident record ordered before it in one stable
    merge.  The pass then demand-fetches the bound's block, exactly
    where the cycle loop would have stalled, so the ``ParRead``/flush
    stream is bit-identical to the reference merger.

    Fusing the drain with the fetch is exact: ``H`` changes only on
    ``ParRead`` and flush, which depletions never trigger, so the bound
    after the drain is the one before it; and every resident record
    ordered before that bound has just been emitted, so a fresh pass
    could only reach the same fetch.

    A block's cut is decided from its ends first: a block wholly before
    the bound is taken whole, one whose next record lies after it ends
    the run's slice, and only a block straddling the bound is searched.

    Returns the number of consumed key ranges (block slices), the
    batched analogue of heap cycles.
    """
    job = sched.job
    R = job.n_runs
    fds = sched.fds
    first_keys = job.first_keys
    n_blocks = [job.blocks_in_run(r) for r in range(R)]
    offsets = [0] * R
    leading = sched.leading
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    cycles = 0
    while not sched.finished():
        bound = fds.galloping_bound()
        if bound is not None:
            bound_key, br = bound

        # Collect, per run, the resident slices ordered before the bound.
        seg_keys: list[np.ndarray] = []
        seg_pays: list[np.ndarray] | None = None
        depleted: list[tuple[int, int, int]] = []  # (last_key, run, block)
        for r in range(R):
            b = leading[r]
            new_off = offsets[r]
            while b < n_blocks[r] and (r, b) in block_data:
                data, pay = block_data[(r, b)]
                if validate and new_off == 0:
                    # First touch of this block: the counterpart of the
                    # heapq loop's per-cycle desync check.
                    if int(data[0]) != int(first_keys[r][b]) or bool(
                        np.any(data[1:] < data[:-1])
                    ):
                        raise ScheduleError(
                            f"merge batch desync: run {r} block {b}"
                            " contents disagree with run metadata"
                        )
                size = data.size
                if bound is None:
                    hi = size
                elif r <= br:
                    # Records equal to the bound belong to this run iff it
                    # precedes the bound's run in the (key, run) order —
                    # or owns the bound itself (earlier block, same run).
                    if data.item(-1) <= bound_key:
                        hi = size
                    elif data.item(new_off) > bound_key:
                        break
                    else:
                        hi = int(data.searchsorted(bound_key, "right"))
                elif data.item(-1) < bound_key:
                    hi = size
                elif data.item(new_off) >= bound_key:
                    break
                else:
                    hi = int(data.searchsorted(bound_key, "left"))
                seg_keys.append(data[new_off:hi])
                if pay is not None:
                    if seg_pays is None:
                        seg_pays = []
                    seg_pays.append(pay[new_off:hi])
                if hi < size:
                    new_off = hi
                    break
                depleted.append((data.item(-1), r, b))
                b += 1
                new_off = 0
            offsets[r] = new_off

        if seg_keys:
            cycles += len(seg_keys)
            if len(seg_keys) == 1:
                merged_keys = seg_keys[0]
                merged_pays = seg_pays[0] if seg_pays is not None else None
            else:
                merged_keys = np.concatenate(seg_keys)
                order = np.argsort(merged_keys, kind="stable")
                merged_keys = merged_keys[order]
                merged_pays = (
                    np.concatenate(seg_pays)[order]
                    if seg_pays is not None
                    else None
                )
            writer.append(merged_keys, merged_pays)
            h_batch.observe(merged_keys.size)

            # Fire depletions in consumption order: (last key, run,
            # block) sorts each run's blocks in sequence and interleaves
            # runs the way the per-cycle loop would have.
            depleted.sort()
            for _, r, b in depleted:
                del block_data[(r, b)]
                if free_inputs:
                    system.free(runs[r].addresses[b])
                sched.on_leading_depleted(r)
        elif bound is None:  # pragma: no cover - guarded by finished()
            raise ScheduleError("merge stalled with no on-disk blocks")

        if bound is not None:
            # The globally smallest unconsumed record now lives in the
            # bound's non-resident block: demand-fetch it (one ParRead,
            # as in the cycle loop).  Were the block resident, the drain
            # owed it and another pass would find the same nothing.
            if sched.ensure_resident(br, leading[br]) == 0:
                raise ScheduleError(
                    f"merge stalled: run {br} block {leading[br]} is"
                    " resident but was not drained"
                )
    m_cycles.inc(cycles)
    return cycles
