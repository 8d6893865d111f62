"""The multi-tenant sort service executor.

One shared :class:`~repro.disks.ParallelDiskSystem` (one clock, one set
of counters), many gated job drivers.  The run loop, per quantum:

1. admit every due arrival through the 5-phase pipeline (phases 1–3),
2. ask the fairness policy which admitted job goes next (phase 4),
3. grant that job exactly one charged parallel-I/O round (phase 5),
4. charge the job the exact counter/clock delta of its round.

Because rounds serialize on the shared clock and the executor is
work-conserving (it idles only when *no* job is runnable), the
service's busy time equals the sum of the jobs' isolated makespans;
policies redistribute *waiting*, never work.  Per-job accounting is
exact for the same reason: each delta belongs to exactly one job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.config import SRMConfig
from ..disks.system import ParallelDiskSystem
from ..disks.timing import DISK_1996, DiskTimingModel
from ..errors import ConfigError, ScheduleError
from ..memory.pool import BufferPool, ServicePool
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    EV_JOB_ABORTED,
    H_SERVICE_JOB_ROUNDS,
    SERVICE_IDLE_MS,
    SERVICE_JOBS_ABORTED,
    SERVICE_JOBS_COMPLETED,
    SERVICE_JOBS_SUBMITTED,
    SERVICE_ROUNDS_DISPATCHED,
    SPAN_SERVICE,
    SPAN_SERVICE_JOB,
)
from .admission import ADMIT, REJECT, WAIT, AdmissionPipeline
from .driver import JobDriver
from .jobs import (
    ABORTED,
    COMPLETED,
    QUEUED,
    REJECTED,
    RUNNING,
    WAITING,
    JobSpec,
    ServiceJob,
    TenantSpec,
)
from .policy import FairnessPolicy, make_policy
from .report import ServiceResult

#: Rounds-per-job histogram edges (jobs span run formation to multi-pass).
_JOB_ROUND_EDGES = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of a :class:`SortService` instance.

    ``base_config`` fixes the farm geometry (``D``, ``B``) and the
    default per-tenant quota: tenants without an explicit
    ``quota_frames`` get enough frames for ``default_jobs`` concurrent
    jobs of this geometry.  Individual jobs may use a different merge
    order but must match ``D`` and ``B``.
    """

    base_config: SRMConfig
    tenants: tuple[TenantSpec, ...] = ()
    policy: str = "rr"
    max_slots: int = 8
    timing: DiskTimingModel | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("service needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")

    def quota_for(self, tenant: TenantSpec) -> int:
        if tenant.quota_frames is not None:
            return tenant.quota_frames
        frames = BufferPool(
            self.base_config.merge_order, self.base_config.n_disks
        ).total_frames
        return tenant.default_jobs * frames


class SortService:
    """Admission + fair dispatch of sort jobs over one shared farm."""

    def __init__(self, config: ServiceConfig, telemetry=None) -> None:
        self.config = config
        self.tel = telemetry if telemetry is not None else TELEMETRY_OFF
        base = config.base_config
        self.system = ParallelDiskSystem(
            base.n_disks,
            base.block_size,
            timing=config.timing if config.timing is not None else DISK_1996,
        )
        self.tracer = None
        collector = getattr(self.tel, "trace", None)
        if collector is not None:
            from ..telemetry.trace import SystemTracer

            self.tracer = SystemTracer(collector, collector.new_domain("service"))
            self.system.tracer = self.tracer
        self.pool = ServicePool()
        for tenant in config.tenants:
            self.pool.create_partition(
                tenant.name, config.quota_for(tenant), tenant.weight
            )
        self.admission = AdmissionPipeline(
            self.pool,
            base.n_disks,
            base.block_size,
            config.max_slots,
            telemetry=self.tel,
        )
        self.policy: FairnessPolicy = make_policy(config.policy)
        self.jobs: list[ServiceJob] = []
        self._by_id: dict[str, ServiceJob] = {}
        #: Simulated time spent with no runnable job (clock jumps to the
        #: next arrival); subtracting it from the makespan leaves pure
        #: busy time, which must equal the sum of isolated makespans.
        self.idle_ms = 0.0
        # Waiting jobs can only become admissible when frames or a slot
        # come back; gate their retries on that so quota_waits counts
        # real admission attempts, not poll spins.
        self._resources_freed = True

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec) -> ServiceJob:
        """Queue a job request (admission happens at its arrival time)."""
        if spec.job_id in self._by_id:
            raise ConfigError(f"duplicate job id {spec.job_id!r}")
        job = ServiceJob(spec=spec)
        self.jobs.append(job)
        self._by_id[spec.job_id] = job
        self.tel.counter(SERVICE_JOBS_SUBMITTED).inc()
        return job

    def submit_arrivals(self, arrivals, config: SRMConfig | None = None) -> None:
        """Materialize and queue an arrival script (see workloads.arrivals)."""
        cfg = config if config is not None else self.config.base_config
        for arrival in arrivals:
            self.submit(JobSpec.from_arrival(arrival, cfg))

    def job(self, job_id: str) -> ServiceJob:
        job = self._by_id.get(job_id)
        if job is None:
            raise ConfigError(f"unknown job {job_id!r}")
        return job

    # -- the run loop --------------------------------------------------

    def run(self, abort_after: dict[str, int] | None = None) -> ServiceResult:
        """Drive every queued job to completion; returns the result bundle.

        *abort_after* maps job ids to a round count after which the
        service cancels them (deterministic abort injection for testing
        quota reclamation); aborted jobs release their frames and slot
        but produce no output.
        """
        abort_after = abort_after or {}
        span = self.tel.span(
            SPAN_SERVICE,
            policy=self.policy.name,
            n_jobs=len(self.jobs),
            n_tenants=len(self.pool.tenants),
        )
        pending = deque(
            sorted(self.jobs, key=lambda j: (j.spec.arrival_ms, j.job_id))
        )
        waiting: deque[ServiceJob] = deque()
        active: list[ServiceJob] = []

        try:
            while pending or waiting or active:
                now = self.system.elapsed_ms
                self._admit_due(now, pending, waiting, active)
                runnable = [j for j in active if not j.done]
                if not runnable:
                    if pending:
                        # Work-conserving: jump straight to the next arrival.
                        self._idle_until(pending[0].spec.arrival_ms)
                        continue
                    if waiting:
                        raise ScheduleError(
                            "admission deadlock: "
                            f"{[j.job_id for j in waiting]} wait on frames/"
                            "slots but no running job will ever release any"
                        )
                    break  # everything done

                job = self.policy.select(runnable)  # phase 4
                self._grant_round(job)  # phase 5
                if job.done:
                    self._finish(job, active)
                elif job.rounds >= abort_after.get(job.job_id, float("inf")):
                    self._abort(job, active, reason="abort_after threshold")
        except BaseException as exc:
            # Nothing admitted may outlive a failed run: cancel every
            # other job's parked thread and hand back all frames and
            # slots, the failing job's included.
            for job in list(active):
                if job.driver.error is exc:
                    reason = f"{type(exc).__name__}: {exc}"
                else:
                    reason = f"service run failed: {type(exc).__name__}"
                self._abort(job, active, reason=reason)
            raise

        makespan = self.system.elapsed_ms
        if self.tracer is not None:
            self.tracer.finish(makespan)
        span.set(
            makespan_ms=makespan,
            idle_ms=self.idle_ms,
            rounds=sum(j.rounds for j in self.jobs),
        )
        span.close()
        return ServiceResult(
            policy=self.policy.name,
            jobs=list(self.jobs),
            makespan_ms=makespan,
            idle_ms=self.idle_ms,
            timing=self.system.timing,
        )

    # -- internals -----------------------------------------------------

    def _admit_due(self, now, pending, waiting, active) -> None:
        # Waiting jobs retry first — they arrived before anything still
        # in pending — then newly due arrivals, in arrival order.
        if waiting and self._resources_freed:
            for _ in range(len(waiting)):
                job = waiting.popleft()
                if not self._admit_one(job, active):
                    waiting.append(job)
        self._resources_freed = False
        while pending and pending[0].spec.arrival_ms <= now:
            job = pending.popleft()
            if not self._admit_one(job, active):
                if job.state == WAITING:
                    waiting.append(job)

    def _admit_one(self, job: ServiceJob, active: list[ServiceJob]) -> bool:
        """Phases 1–3 for one job; True if it became runnable (or rejected
        terminally — i.e. no longer needs queueing)."""
        outcome = self.admission.try_admit(job)
        if outcome == WAIT:
            job.state = WAITING
            return False
        if outcome == REJECT:
            job.state = REJECTED
            return True
        assert outcome == ADMIT
        job.state = RUNNING
        job.admitted_ms = self.system.elapsed_ms
        driver = JobDriver(self.system, job.spec)
        job.driver = driver
        driver.start()
        self.policy.on_admit(job)
        active.append(job)
        return True

    def _grant_round(self, job: ServiceJob) -> None:
        system = self.system
        if self.tracer is not None:
            self.tracer.context = {"job": job.job_id, "tenant": job.tenant}
        # Only the granted thread runs, so pointing the shared hook and
        # counter sink at this job is race-free.
        system.round_hook = job.driver.gate.wait_turn
        system.stats_sink = job.io
        before = job.io.snapshot()
        t0 = system.elapsed_ms
        if job.first_round_ms is None:
            job.first_round_ms = t0
        try:
            job.driver.step()
        finally:
            system.round_hook = None
            system.stats_sink = None
            if self.tracer is not None:
                self.tracer.context = None
        delta = job.io.since(before)
        job.busy_ms += system.elapsed_ms - t0
        if delta.parallel_ios > 0:
            # The setup quantum (input install, no charged op) is free;
            # every other quantum is one parallel-I/O round.
            job.rounds += 1
            self.policy.on_round(job)
            self.tel.counter(SERVICE_ROUNDS_DISPATCHED).inc()
        if job.driver.error is not None:
            raise job.driver.error

    def _finish(self, job: ServiceJob, active: list[ServiceJob]) -> None:
        job.driver.join()
        self.admission.release(job)
        self._resources_freed = True
        active.remove(job)
        job.state = COMPLETED
        job.completed_ms = self.system.elapsed_ms
        # srm_mergesort charged the job the *shared* counter delta of
        # its whole lifetime — including neighbors' rounds.  Replace it
        # with the exact per-round accumulation.
        job.driver.result.io = job.io.snapshot()
        self.tel.counter(SERVICE_JOBS_COMPLETED).inc()
        self.tel.histogram(H_SERVICE_JOB_ROUNDS, _JOB_ROUND_EDGES).observe(
            job.rounds
        )
        jspan = self.tel.span(
            SPAN_SERVICE_JOB,
            job=job.job_id,
            tenant=job.tenant,
            rounds=job.rounds,
            wait_ms=job.wait_ms,
            busy_ms=job.busy_ms,
            makespan_ms=job.makespan_ms,
            parallel_ios=job.io.parallel_ios,
        )
        jspan.close()

    def _abort(self, job: ServiceJob, active: list[ServiceJob], reason: str) -> None:
        job.driver.cancel()
        self.admission.release(job)
        self._resources_freed = True
        active.remove(job)
        job.state = ABORTED
        job.completed_ms = self.system.elapsed_ms
        job.error = reason
        # The job's disk blocks are orphaned (no charged reclamation
        # pass exists); frames and slots — the scarce resources — are
        # back, which is what the accounting tests pin down.
        self.tel.counter(SERVICE_JOBS_ABORTED).inc()
        self.tel.event(
            EV_JOB_ABORTED,
            job=job.job_id,
            tenant=job.tenant,
            rounds=job.rounds,
            reason=reason,
        )

    def _idle_until(self, target_ms: float) -> None:
        t0 = self.system.elapsed_ms
        if target_ms <= t0:
            return
        self.system.elapsed_ms = target_ms
        self.idle_ms += target_ms - t0
        self.tel.counter(SERVICE_IDLE_MS).inc(int(target_ms - t0))
        if self.tracer is not None:
            self.tracer.idle(t0, target_ms)


def run_arrival_script(
    arrivals,
    base_config: SRMConfig,
    policy: str = "rr",
    tenant_weights: dict[str, float] | None = None,
    default_jobs: int = 2,
    max_slots: int = 8,
    timing: DiskTimingModel | None = None,
    telemetry=None,
    abort_after: dict[str, int] | None = None,
) -> ServiceResult:
    """Serve one arrival script end to end and return the result.

    Tenants are discovered from the script; each gets a quota sized for
    *default_jobs* concurrent jobs of the base geometry and the weight
    from *tenant_weights* (default 1.0).  This is the shared entry point
    of ``repro serve``, the chaos service scenario, and the bench
    contention section, so they all agree on what a service run is.
    """
    tenants = sorted({a.tenant for a in arrivals})
    if not tenants:
        raise ConfigError("arrival script names no tenants")
    weights = tenant_weights or {}
    specs = tuple(
        TenantSpec(t, weight=weights.get(t, 1.0), default_jobs=default_jobs)
        for t in tenants
    )
    service = SortService(
        ServiceConfig(
            base_config=base_config,
            tenants=specs,
            policy=policy,
            max_slots=max_slots,
            timing=timing,
        ),
        telemetry=telemetry,
    )
    service.submit_arrivals(arrivals)
    return service.run(abort_after=abort_after)
