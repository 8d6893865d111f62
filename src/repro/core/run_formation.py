"""Initial run formation (paper §2.1).

Two classical methods are provided:

* **Memory-load sort** — read ``M`` records with full read parallelism,
  sort internally, write one striped run; repeat.  Produces
  ``ceil(N/M)`` runs of length ``M`` (the paper's formula baseline).
* **Replacement selection** — a heap of ``M`` records streams input to
  output, starting a new run only when the incoming record is smaller
  than the last one written; random inputs yield runs of expected
  length ``2M`` (Knuth), i.e. roughly half as many runs.

Replacement selection ships two engines that produce *identical* runs:

* ``engine="block"`` (default) — block-granular: each input refill
  commits in one vectorized *fixed-point step* per epoch it touches.
  The arrivals are classified (current epoch vs. next epoch) against
  the pending emissions, the emissions are recomputed as a stable merge
  of the pool with the accepted arrivals, and the two repeat until the
  accepted set stops growing — which is exactly the classical
  algorithm's answer (see :class:`_BlockReplacementSelection`).  The
  emissions leave as one array slice and the accepted records merge
  back array-at-a-time.
* ``engine="record"`` — the textbook per-record heap loop, kept as the
  reference oracle for tests and the benchmark baseline.

Both charge realistic I/O: input blocks are read stripe-parallel and
runs are written with perfect write parallelism in forecast format.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from ..disks.files import StripedFile, StripedRun
from ..disks.system import ParallelDiskSystem
from ..errors import ConfigError, DataError
from ..rng import RngLike, ensure_rng
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import H_RUN_LENGTH, run_length_edges
from .layout import LayoutStrategy, choose_start_disks

#: Recognized replacement-selection engines.
RS_ENGINES = ("block", "record")


def _start_disk_stream(
    n_disks: int, strategy: LayoutStrategy, rng: RngLike
) -> Iterator[int]:
    """Unbounded stream of run start disks under *strategy*."""
    gen = ensure_rng(rng)
    i = 0
    while True:
        if strategy is LayoutStrategy.RANDOMIZED:
            yield int(gen.integers(0, n_disks))
        elif strategy is LayoutStrategy.WORST_CASE:
            yield 0
        else:  # STAGGERED needs the run count: round-robin, like ROUND_ROBIN
            yield i % n_disks
        i += 1


def form_runs_load_sort(
    system: ParallelDiskSystem,
    infile: StripedFile,
    run_length: int,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    first_run_id: int = 0,
    free_input: bool = True,
    telemetry=None,
) -> list[StripedRun]:
    """One pass of memory-load run formation.

    Reads ``run_length``-record loads of *infile* (block-aligned; the
    run length is rounded down to a whole number of blocks), sorts each
    in memory, and writes it as a striped forecast-format run.
    """
    B = system.block_size
    blocks_per_run = max(1, run_length // B)
    if run_length < B:
        raise ConfigError(
            f"run length {run_length} is smaller than one block (B={B})"
        )
    if infile.n_records == 0:
        return []
    n_runs = -(-infile.n_blocks // blocks_per_run)
    starts = choose_start_disks(n_runs, system.n_disks, strategy, rng)
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_len = tel.histogram(H_RUN_LENGTH, run_length_edges(run_length))
    runs: list[StripedRun] = []
    for i in range(n_runs):
        chunk = infile.addresses[i * blocks_per_run : (i + 1) * blocks_per_run]
        blocks, _ = system.read_batch(chunk)
        keys = np.concatenate([b.keys for b in blocks])
        if blocks[0].payloads is not None:
            payloads = np.concatenate([b.payloads for b in blocks])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            payloads = payloads[order]
        else:
            payloads = None
            keys.sort(kind="stable")
        if free_input:
            for addr in chunk:
                system.free(addr)
        h_len.observe(keys.size)
        runs.append(
            StripedRun.from_sorted_keys(
                system,
                keys,
                run_id=first_run_id + i,
                start_disk=int(starts[i]),
                payloads=payloads,
            )
        )
    return runs


def form_runs_replacement_selection(
    system: ParallelDiskSystem,
    infile: StripedFile,
    memory_records: int,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    first_run_id: int = 0,
    free_input: bool = True,
    engine: str = "block",
    telemetry=None,
) -> list[StripedRun]:
    """One pass of replacement-selection run formation.

    A memory of up to ``memory_records`` records streams input to
    output; each output record is replaced by the next input record,
    tagged with the *next* run's epoch if it is smaller than the last
    record written (it can no longer join the current run).  Random
    inputs give expected run length ``2·memory_records``.

    *engine* selects the implementation: ``"block"`` (vectorized,
    block-granular — the default) or ``"record"`` (the per-record heap
    oracle).  Both emit byte-identical runs and charge identical I/O.

    Start disks are drawn as each run is written, before the run count
    is known, so ``LayoutStrategy.STAGGERED`` (whose §8 groups need
    that count) degrades to round-robin here: run ``r`` starts on disk
    ``r mod D``, exactly as under ``ROUND_ROBIN``.
    """
    if memory_records < 1:
        raise ConfigError(f"memory must hold at least 1 record, got {memory_records}")
    if engine not in RS_ENGINES:
        raise ConfigError(f"engine must be one of {RS_ENGINES}, got {engine!r}")
    if infile.n_records == 0:
        return []
    disk_stream = _start_disk_stream(system.n_disks, strategy, rng)
    if engine == "record":
        runs = _replacement_selection_record(
            system, infile, memory_records, disk_stream, first_run_id, free_input
        )
    else:
        runs = _BlockReplacementSelection(
            system, infile, memory_records, disk_stream, first_run_id, free_input
        ).run()
    total = sum(r.n_records for r in runs)
    if total != infile.n_records:
        raise DataError(
            f"replacement selection emitted {total} of {infile.n_records} records"
        )
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_len = tel.histogram(H_RUN_LENGTH, run_length_edges(memory_records))
    for r in runs:
        h_len.observe(r.n_records)
    return runs


def _chunk_reader(system: ParallelDiskSystem, infile: StripedFile, free_input: bool):
    """Stripe-parallel input reader: ``D`` blocks per refill."""
    addr_pos = 0

    def refill() -> tuple[np.ndarray, np.ndarray | None] | None:
        nonlocal addr_pos
        if addr_pos >= infile.n_blocks:
            return None
        chunk = infile.addresses[addr_pos : addr_pos + system.n_disks]
        blocks, _ = system.read_batch(chunk)
        if free_input:
            for addr in chunk:
                system.free(addr)
        addr_pos += len(chunk)
        keys = np.concatenate([b.keys for b in blocks])
        if blocks[0].payloads is None:
            return keys, None
        return keys, np.concatenate([b.payloads for b in blocks])

    return refill


def _replacement_selection_record(
    system: ParallelDiskSystem,
    infile: StripedFile,
    memory_records: int,
    disk_stream: Iterator[int],
    first_run_id: int,
    free_input: bool,
) -> list[StripedRun]:
    """The textbook per-record loop — the reference oracle."""
    refill = _chunk_reader(system, infile, free_input)
    buf = refill()
    buf_pos = 0
    has_payloads = buf is not None and buf[1] is not None

    def next_record() -> tuple[int, int] | None:
        nonlocal buf, buf_pos
        if buf is None:
            return None
        if buf_pos >= buf[0].size:
            buf = refill()
            buf_pos = 0
            if buf is None:
                return None
        keys, pays = buf
        v = int(keys[buf_pos])
        p = int(pays[buf_pos]) if pays is not None else 0
        buf_pos += 1
        return v, p

    # Heap of (epoch, key, arrival-sequence, payload); the sequence
    # breaks (epoch, key) ties FIFO.
    heap: list[tuple[int, int, int, int]] = []
    seq = 0
    while len(heap) < memory_records:
        rec = next_record()
        if rec is None:
            break
        heap.append((0, rec[0], seq, rec[1]))
        seq += 1
    heapq.heapify(heap)

    runs: list[StripedRun] = []
    run_id = first_run_id
    current_epoch = 0
    out: list[int] = []
    out_pay: list[int] = []

    def close_run() -> None:
        nonlocal out, out_pay, run_id
        if not out:
            return
        runs.append(
            StripedRun.from_sorted_keys(
                system,
                np.asarray(out, dtype=np.int64),
                run_id=run_id,
                start_disk=next(disk_stream),
                payloads=np.asarray(out_pay, dtype=np.int64) if has_payloads else None,
            )
        )
        run_id += 1
        out = []
        out_pay = []

    while heap:
        epoch, key, _, payload = heapq.heappop(heap)
        if epoch != current_epoch:
            close_run()
            current_epoch = epoch
        out.append(key)
        out_pay.append(payload)
        rec = next_record()
        if rec is not None:
            v, p = rec
            heapq.heappush(
                heap, (current_epoch if v >= key else current_epoch + 1, v, seq, p)
            )
            seq += 1
    close_run()
    return runs


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, about 4x faster when it can be.

    When the key span leaves room for the index in an int64, the
    composite ``(key - min) << bits | index`` is unique, so an unstable
    sort of it orders by ``(key, index)`` — the stable order.
    """
    if keys.size < 2:
        return np.arange(keys.size)
    lo = keys.min()
    bits = (keys.size - 1).bit_length()
    if (int(keys.max()) - int(lo)) >> (62 - bits):
        return np.argsort(keys, kind="stable")
    packed = ((keys - lo) << bits) | np.arange(keys.size)
    packed.sort()
    return packed & ((1 << bits) - 1)


def _merge_positions(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Where *new*'s records land in the stable merge of two sorted arrays.

    Both arrays are sorted by ``(key, arrival)`` and every record of
    *new* arrived after every record of *old*, so equal keys slot after
    *old*'s (``side="right"``) — the heap's FIFO tie-break.
    """
    return old.searchsorted(new, side="right") + np.arange(new.size)


def _interleave(old: np.ndarray, new: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The merge of *old* and *new*, given *new*'s merged positions *pos*."""
    if pos.size == 0:
        return old
    out = np.empty(old.size + new.size, dtype=old.dtype)
    rest = np.ones(out.size, dtype=bool)
    rest[pos] = False
    out[pos] = new
    out[rest] = old
    return out


#: Merge rounds after which a step classifies its arrivals per record.
#: Rounds add accepted arrivals in chains: a dense ascending refill
#: landing in the gaps of a sparse pool gains about one per round.
_MAX_ROUNDS = 32


def _replay_accepted(xk: np.ndarray, pk: np.ndarray) -> np.ndarray:
    """The accepted-arrival mask of one step, replayed per record.

    *pk* is the step's pool prefix (its ``k`` next emissions if nothing
    were accepted).  A heap holds the accepted arrivals; the pool is
    older, so it wins key ties.
    """
    mask = np.zeros(xk.size, dtype=bool)
    heap: list[tuple[int, int]] = []
    pool = pk.tolist()
    i = 0
    for t, x in enumerate(xk.tolist()):
        if heap and heap[0][0] < pool[i]:
            e = heapq.heappop(heap)[0]
        else:
            e = pool[i]
            i += 1
        if x >= e:
            mask[t] = True
            heapq.heappush(heap, (x, t))
    return mask


class _BlockReplacementSelection:
    """Block-granular replacement selection (exact oracle equivalent).

    The current epoch's memory is held as two sorted-by-``(key,
    arrival)`` arrays: the *current pool* (``cur``, the initial fill
    plus periodically folded-in arrivals) and the *accepted side-array*
    (``acc``, records accepted since the last fold; everything in
    ``acc`` arrived after everything in ``cur``).  The next epoch
    accumulates in arrival order and is stably sorted once per run
    boundary.

    While input remains, every arriving record ``x_t`` pairs with
    exactly one emission ``e_t`` and stays in the current epoch iff
    ``x_t >= e_t``.  A refill commits as *prefix steps* of ``k =
    min(remaining, avail)`` arrivals, each one vectorized *fixed-point
    step* (:meth:`_step`): classify the arrivals against the pool-only
    next ``k`` emissions ``e⁰``, recompute the emissions as the first
    ``k`` of the stable merge of that pool prefix with the accepted
    arrivals, re-classify, and repeat until the accepted set stops
    growing.  The fixed point is exact:

    * within an epoch the emissions are the sorted order of pool ∪
      accepted, since each accepted arrival sorts after its own
      emission and so after every earlier one;
    * adding accepted records only lowers order statistics, so each
      round's accepted set is a subset of the true one and grows;
    * the first index where the fixed point could differ from the truth
      has an emission that depends only on earlier, already-correct
      indexes — so no such index exists.

    Usually no accepted arrival sorts below ``e⁰[k-1]``, and the step
    commits after the first classification without a merge; most other
    steps converge in one to three rounds.  A step still growing after
    :data:`_MAX_ROUNDS` rounds classifies per record instead.  When the
    current epoch drains (``avail == 0``) the run closes and the next
    epoch is promoted before the following step.
    """

    def __init__(
        self,
        system: ParallelDiskSystem,
        infile: StripedFile,
        memory_records: int,
        disk_stream: Iterator[int],
        first_run_id: int,
        free_input: bool,
    ) -> None:
        self.system = system
        self.memory_records = memory_records
        self.disk_stream = disk_stream
        self.run_id = first_run_id
        self.refill = _chunk_reader(system, infile, free_input)
        self.has_payloads = False
        # Current-epoch pool, sorted by (key, arrival); consumed from ci.
        self.cur_k = np.empty(0, dtype=np.int64)
        self.cur_p: np.ndarray | None = None
        self.ci = 0
        # Accepted side-array (newer than cur), sorted; consumed from ai.
        self.acc_k = np.empty(0, dtype=np.int64)
        self.acc_p: np.ndarray | None = None
        self.ai = 0
        # Fold acc into cur once it outgrows this (amortizes the O(M)
        # merge over many blocks of accepted records).
        self._fold_at = max(
            4 * system.n_disks * system.block_size, memory_records // 4
        )
        # Next-epoch accumulation, in arrival order.
        self.nxt_k: list[np.ndarray] = []
        self.nxt_p: list[np.ndarray] = []
        # Current output run accumulation.
        self.out_k: list[np.ndarray] = []
        self.out_p: list[np.ndarray] = []
        self.runs: list[StripedRun] = []

    # -- run boundaries ---------------------------------------------------

    def _close_run(self) -> None:
        if not self.out_k:
            return
        keys = np.concatenate(self.out_k)
        pays = np.concatenate(self.out_p) if self.has_payloads else None
        self.runs.append(
            StripedRun.from_sorted_keys(
                self.system,
                keys,
                run_id=self.run_id,
                start_disk=next(self.disk_stream),
                payloads=pays,
            )
        )
        self.run_id += 1
        self.out_k = []
        self.out_p = []

    def _promote_next_epoch(self) -> None:
        """Current epoch drained: close the run, promote the next epoch."""
        self._close_run()
        if self.nxt_k:
            keys = np.concatenate(self.nxt_k)
            order = _stable_argsort(keys)  # arrival order = seq
            self.cur_k = keys[order]
            if self.has_payloads:
                self.cur_p = np.concatenate(self.nxt_p)[order]
            self.nxt_k = []
            self.nxt_p = []
        else:
            self.cur_k = np.empty(0, dtype=np.int64)
            self.cur_p = np.empty(0, dtype=np.int64) if self.has_payloads else None
        self.ci = 0
        self.acc_k = np.empty(0, dtype=np.int64)
        self.acc_p = np.empty(0, dtype=np.int64) if self.has_payloads else None
        self.ai = 0

    # -- pool maintenance -------------------------------------------------

    def _avail(self) -> int:
        """Unconsumed current-epoch records (cur + accepted side-array)."""
        return (self.cur_k.size - self.ci) + (self.acc_k.size - self.ai)

    def _fold(self) -> None:
        """Merge the accepted side-array into the current pool."""
        ck, ak = self.cur_k[self.ci :], self.acc_k[self.ai :]
        pos = _merge_positions(ck, ak)
        self.cur_k = _interleave(ck, ak, pos)
        if self.has_payloads:
            self.cur_p = _interleave(
                self.cur_p[self.ci :], self.acc_p[self.ai :], pos
            )
        self.ci = 0
        self.acc_k = np.empty(0, dtype=np.int64)
        self.acc_p = np.empty(0, dtype=np.int64) if self.has_payloads else None
        self.ai = 0

    def _append_accepted(self, keys: np.ndarray, pays: np.ndarray | None) -> None:
        """Merge newly accepted records (sorted by key, arrival) into ``acc``."""
        rest = self.acc_k[self.ai :]
        pos = _merge_positions(rest, keys)
        self.acc_k = _interleave(rest, keys, pos)
        if self.has_payloads:
            self.acc_p = _interleave(self.acc_p[self.ai :], pays, pos)
        self.ai = 0
        if self.acc_k.size > self._fold_at:
            self._fold()

    # -- block processing -------------------------------------------------

    def _process(self, xk: np.ndarray, xp: np.ndarray | None) -> None:
        """Commit an input refill as prefix steps of at most ``avail``."""
        while xk.size:
            avail = self._avail()
            if avail == 0:
                # Current epoch exhausted: run boundary mid-refill.
                self._promote_next_epoch()
                avail = self._avail()
            k = min(xk.size, avail)
            self._step(xk[:k], None if xp is None else xp[:k])
            xk = xk[k:]
            xp = None if xp is None else xp[k:]

    def _step(self, xk: np.ndarray, xp: np.ndarray | None) -> int:
        """Commit ``k <= avail`` arrivals at the fixed point (class docstring).

        Returns the number of merge rounds taken: 0 when the first
        classification is already the fixed point.
        """
        k = xk.size
        ci, ai = self.ci, self.ai
        # Pool prefix e⁰: the next k emissions if nothing were accepted.
        ck = self.cur_k[ci : ci + k]
        ak = self.acc_k[ai : ai + k]
        a_pos = _merge_positions(ck, ak)
        pk = _interleave(ck, ak, a_pos)[:k]
        mask = xk >= pk
        ek = pk
        x_pos = a_pos[:0]  # no arrival is emitted within the step
        rounds = 0
        order = _stable_argsort(xk)
        if (xk[mask] < pk[-1]).any():
            # An accepted arrival is itself emitted in this step (an
            # equal key loses the FIFO tie and stays resident): iterate.
            xs = xk[order]
            while True:
                rounds += 1
                xa = xs[mask[order]]
                x_pos = _merge_positions(pk, xa)
                ek = _interleave(pk, xa, x_pos)[:k]
                grown = xk >= ek
                if np.count_nonzero(grown) == xa.size:
                    break
                mask = _replay_accepted(xk, pk) if rounds == _MAX_ROUNDS else grown
        took = order[mask[order]]  # accepted arrivals, by (key, arrival)
        # j accepted arrivals leave at once; the pool supplies the rest,
        # a prefix of pk that splits into a cur prefix and an acc prefix.
        j = int(x_pos.searchsorted(k))
        from_acc = int(a_pos.searchsorted(k - j))
        self.ci = ci + k - j - from_acc
        self.ai = ai + from_acc
        self.out_k.append(ek)
        if self.has_payloads:
            pp = _interleave(
                self.cur_p[ci : ci + k], self.acc_p[ai : ai + k], a_pos
            )[:k]
            self.out_p.append(_interleave(pp, xp[took], x_pos)[:k])
        if took.size > j:
            rest = took[j:]
            self._append_accepted(
                xk[rest], xp[rest] if self.has_payloads else None
            )
        rej = ~mask
        if rej.any():
            self.nxt_k.append(xk[rej])
            if self.has_payloads:
                self.nxt_p.append(xp[rej])
        return rounds

    # -- driver -----------------------------------------------------------

    def run(self) -> list[StripedRun]:
        M = self.memory_records
        # Initial fill: the first M records are epoch 0.
        parts_k: list[np.ndarray] = []
        parts_p: list[np.ndarray] = []
        filled = 0
        carry: tuple[np.ndarray, np.ndarray | None] | None = None
        first = True
        while filled < M:
            chunk = self.refill()
            if chunk is None:
                break
            k, p = chunk
            if first:
                self.has_payloads = p is not None
                if self.has_payloads:
                    self.acc_p = np.empty(0, dtype=np.int64)
                first = False
            need = M - filled
            if k.size <= need:
                parts_k.append(k)
                if p is not None:
                    parts_p.append(p)
                filled += k.size
            else:
                parts_k.append(k[:need])
                if p is not None:
                    parts_p.append(p[:need])
                carry = (k[need:], p[need:] if p is not None else None)
                filled += need
        keys = (
            np.concatenate(parts_k) if parts_k else np.empty(0, dtype=np.int64)
        )
        order = _stable_argsort(keys)
        self.cur_k = keys[order]
        if self.has_payloads:
            self.cur_p = np.concatenate(parts_p)[order]

        block = carry if carry is not None else self.refill()
        while block is not None:
            self._process(*block)
            block = self.refill()

        # Input exhausted: drain the resident pools.
        self._fold()  # linearize cur + acc into one sorted tail
        if self.cur_k.size:
            self.out_k.append(self.cur_k)
            if self.has_payloads:
                self.out_p.append(self.cur_p)
        self._close_run()
        if self.nxt_k:
            self._promote_next_epoch()  # closes nothing; promotes the tail
            self.out_k.append(self.cur_k)
            if self.has_payloads:
                self.out_p.append(self.cur_p)
            self._close_run()
        return self.runs
