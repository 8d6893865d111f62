"""Per-disk service queues on a shared simulated clock.

The paper's cost model counts synchronized parallel operations; the
overlapped-I/O engine (:mod:`repro.core.events`) instead models each
disk as an independent FIFO server driven by the
:class:`~repro.disks.timing.DiskTimingModel`.  A request submitted at
time ``t`` to a disk that is free at ``f`` starts at ``max(t, f)`` and
completes one service time later — so reads queue behind writes on the
same spindle, stripes touching disjoint disks proceed concurrently, and
the engine's clock advances only when the *computation* actually has to
wait.

This is deliberately the smallest queueing model that makes overlap a
measured quantity: no reordering, no elevator scheduling, one
outstanding request in service per disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .timing import DiskTimingModel


class ServiceEwma:
    """Per-disk service-time EWMA fed from :class:`DiskService` completions.

    The latency-adaptive scheduler's measurement plane: every accepted
    request folds its *felt* cost — straggler-scaled service time,
    penalties and recovery ops, plus any stall-window wait beyond
    ordinary queueing — into its disk's moving average.  Classification
    is *relative*: a disk is slow when its EWMA exceeds ``threshold``
    times the median EWMA of the disks observed so far, so a uniformly
    slow farm has no stragglers.
    """

    __slots__ = ("alpha", "values", "samples", "_slow")

    def __init__(self, n_disks: int, alpha: float = 0.35) -> None:
        if n_disks < 1:
            raise ConfigError(f"need at least one disk, got D={n_disks}")
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        #: EWMA per disk; ``None`` until the disk's first completion.
        self.values: list[float | None] = [None] * n_disks
        self.samples = [0] * n_disks
        #: :meth:`slow_disks` results per threshold, valid until the
        #: next :meth:`observe`.
        self._slow: dict[float, tuple[int, ...]] = {}

    def observe(self, disk: int, service_ms: float) -> None:
        """Fold one completed request's service time into *disk*'s EWMA."""
        self._slow.clear()
        prev = self.values[disk]
        if prev is None:
            self.values[disk] = service_ms
        else:
            self.values[disk] = prev + self.alpha * (service_ms - prev)
        self.samples[disk] += 1

    def value(self, disk: int) -> float | None:
        """Current EWMA of *disk* (``None`` before its first sample)."""
        return self.values[disk]

    def cost(self, disk: int) -> float:
        """Re-read cost estimate for *disk*: its EWMA, 0.0 if unseen.

        Unseen disks rank cheapest — with no evidence against a disk
        the adaptive policy treats it like the homogeneous default.
        """
        v = self.values[disk]
        return v if v is not None else 0.0

    def median(self) -> float:
        """Median EWMA over the disks observed so far (0.0 if none)."""
        seen = sorted(v for v in self.values if v is not None)
        if not seen:
            return 0.0
        mid = len(seen) // 2
        if len(seen) % 2:
            return seen[mid]
        return 0.5 * (seen[mid - 1] + seen[mid])

    def slow_disks(self, threshold: float) -> tuple[int, ...]:
        """Disks whose EWMA exceeds ``threshold`` x the observed median.

        Empty until at least two disks have completions: a single
        sampled disk has no peer group to straggle behind.

        The classification changes only when an EWMA does, i.e. on
        :meth:`observe` (one per disk request), while the overlap engine
        asks on every merge cycle; so the tuple is cached per
        *threshold* and :meth:`observe` drops the cache.
        """
        slow = self._slow.get(threshold)
        if slow is None:
            slow = self._slow[threshold] = self._classify(threshold)
        return slow

    def _classify(self, threshold: float) -> tuple[int, ...]:
        if sum(1 for v in self.values if v is not None) < 2:
            return ()
        med = self.median()
        if med <= 0.0:
            return ()
        cut = threshold * med
        return tuple(
            d for d, v in enumerate(self.values) if v is not None and v > cut
        )


@dataclass
class DiskService:
    """One disk's FIFO request queue.

    Attributes
    ----------
    free_at:
        Simulated time at which the disk finishes its last accepted
        request (0.0 when idle since the start).
    busy_ms:
        Total time spent servicing requests.
    ops:
        Requests accepted.
    """

    free_at: float = 0.0
    busy_ms: float = 0.0
    ops: int = 0
    #: Summed gaps during which the disk sat idle between requests —
    #: the per-spindle complement of ``busy_ms`` that the telemetry
    #: layer reports as the overlap engine's idle-gap signal.
    idle_ms: float = 0.0
    #: Completion time of the last request, or ``None`` before the first
    #: request arrives.  Tracked separately from ``free_at`` so the time
    #: before a disk's first request is never attributed as an
    #: inter-request idle gap (``free_at`` starts at 0.0 either way).
    last_complete: float | None = None

    def submit(
        self, issue_ms: float, service_ms: float, not_before: float = 0.0
    ) -> float:
        """Accept a request at *issue_ms*; return its completion time.

        *not_before* floors the service start (a fault-plan stall window
        holds the head off the platter until the window ends).
        """
        start = max(issue_ms, self.free_at, not_before)
        if self.last_complete is not None:
            self.idle_ms += start - self.last_complete
        complete = start + service_ms
        self.free_at = complete
        self.last_complete = complete
        self.busy_ms += service_ms
        self.ops += 1
        return complete

    def utilization(self, makespan_ms: float) -> float:
        """Busy fraction of this disk over *makespan_ms*.

        A zero or negative makespan (empty merge, stall-only timeline
        that never served a request) yields 0.0 rather than a division
        error — the same degenerate-case rule the trace attribution
        applies to its lane utilizations.
        """
        if makespan_ms <= 0.0:
            return 0.0
        return self.busy_ms / makespan_ms


@dataclass
class ServiceNetwork:
    """``D`` independent disk queues with read/write accounting.

    Parameters
    ----------
    n_disks:
        Number of disk servers.
    timing:
        Service-time model; every block request costs
        ``timing.op_time_ms(block_size)``.
    block_size:
        Records per block (service times assume full blocks, like the
        rest of the timing layer).
    faults:
        Optional :class:`~repro.faults.plan.FaultInjector`.  When set,
        each request's service time is scaled by the disk's straggler
        latency factor, stall windows floor the service start, and
        retry/backoff penalties accumulated by the synchronous data
        path are drained into the affected disk's queue — so the
        overlap engine's simulated clock feels the same faults the
        block layer injected.
    """

    n_disks: int
    timing: DiskTimingModel
    block_size: int
    disks: list[DiskService] = field(default_factory=list)
    read_busy_ms: float = 0.0
    write_busy_ms: float = 0.0
    read_ops: int = 0
    write_ops: int = 0
    faults: object | None = None
    #: Optional :class:`~repro.telemetry.trace.NetTracer`.  When armed,
    #: every accepted request emits causal trace records (op body,
    #: fault-stall window, recovery tail) with binding predecessors.
    tracer: object | None = None
    #: Optional :class:`ServiceEwma`.  When armed (by the engine's
    #: latency-adaptive mode), every accepted request feeds its service
    #: time into the per-disk moving average.  Pure measurement — the
    #: queueing behavior is identical with or without it.
    ewma: ServiceEwma | None = None

    def __post_init__(self) -> None:
        if self.n_disks < 1:
            raise ConfigError(f"need at least one disk, got D={self.n_disks}")
        if self.block_size < 1:
            raise ConfigError(f"block size must be >= 1, got B={self.block_size}")
        if not self.disks:
            self.disks = [DiskService() for _ in range(self.n_disks)]

    def submit(
        self, disk_ids: list[int], issue_ms: float, kind: str = "read"
    ) -> list[float]:
        """Submit one block request per disk in *disk_ids* at *issue_ms*.

        Returns the per-disk completion times, positionally matching
        *disk_ids*.  Disks not listed stay untouched (they idle or keep
        draining their queues).
        """
        base = self.timing.op_time_ms(self.block_size)
        inj = self.faults
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_batch()
        completes = []
        busy = 0.0
        for d in disk_ids:
            service = base
            core = base
            not_before = 0.0
            if inj is not None:
                service = service * inj.latency_factor(d)
                core = service  # the data op itself (straggler-scaled)
                service += inj.take_penalty_ms(d)
                # Charged recovery block-ops (parity reconstruction
                # reads, rebuild and repair writes) queue as extra
                # whole-block service on the spindle that did the work.
                service += base * inj.take_recovery_ops(d)
                candidate = max(issue_ms, self.disks[d].free_at)
                not_before = inj.stall_release(d, candidate)
            free_at = self.disks[d].free_at
            completes.append(self.disks[d].submit(issue_ms, service, not_before))
            if self.ewma is not None:
                # Observe the *felt* cost: service plus any stall-window
                # wait beyond ordinary queueing (completion minus the
                # time the disk could have started absent faults).  A
                # straggler folds in as service * factor; a disk under
                # repeated stall windows measures slow too, even though
                # its raw service time is nominal.
                self.ewma.observe(d, completes[-1] - max(issue_ms, free_at))
            if tracer is not None:
                tracer.disk_op(
                    d, kind, issue_ms, free_at, not_before,
                    core, service, completes[-1],
                )
            busy += service
        if kind == "write":
            self.write_busy_ms += busy
            self.write_ops += 1
        else:
            self.read_busy_ms += busy
            self.read_ops += 1
        return completes

    @property
    def busy_ms(self) -> float:
        """Total service time across all disks."""
        return self.read_busy_ms + self.write_busy_ms

    @property
    def latest_completion_ms(self) -> float:
        """Time the last-finishing disk goes idle."""
        return max((d.free_at for d in self.disks), default=0.0)

    def drained_completion_ms(self) -> float:
        """Completion time after flushing residual fault penalties.

        Recovery ops (and backoff penalties) accumulated *after* a
        disk's last data request would otherwise evaporate; appending
        them to the affected queues keeps an end-of-run rebuild or
        output scrub visible in the makespan.
        """
        inj = self.faults
        if inj is not None:
            base = self.timing.op_time_ms(self.block_size)
            for d, srv in enumerate(self.disks):
                residual = base * inj.take_recovery_ops(d)
                residual += inj.take_penalty_ms(d)
                if residual > 0.0:
                    free_at = srv.free_at
                    complete = srv.submit(free_at, residual)
                    if self.tracer is not None:
                        self.tracer.residual(d, free_at, complete)
        return self.latest_completion_ms

    def per_disk_summary(self, makespan_ms: float | None = None) -> list[dict]:
        """Per-disk ``{busy_ms, idle_ms, ops}`` for telemetry events.

        ``idle_ms`` counts only inter-request gaps; trailing idleness up
        to the makespan is the caller's to account (it depends on when
        the merge as a whole finishes).  When *makespan_ms* is given,
        each entry also carries the disk's busy fraction (zero-guarded,
        so a stall-only or empty timeline reports 0.0) and — if the EWMA
        plane is armed — its current service-time estimate.
        """
        out = []
        for d in range(self.n_disks):
            srv = self.disks[d]
            entry: dict = {
                "busy_ms": srv.busy_ms, "idle_ms": srv.idle_ms, "ops": srv.ops,
            }
            if makespan_ms is not None:
                entry["utilization"] = srv.utilization(makespan_ms)
            if self.ewma is not None:
                entry["ewma_ms"] = self.ewma.value(d)
            out.append(entry)
        return out

    def utilization(self, makespan_ms: float) -> float:
        """Mean per-disk busy fraction over *makespan_ms*."""
        if makespan_ms <= 0.0:
            return 0.0
        return self.busy_ms / (self.n_disks * makespan_ms)
