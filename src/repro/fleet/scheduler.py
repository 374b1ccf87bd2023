"""Multi-tenant gang scheduler over one shared :class:`SimCluster`.

One :class:`FleetScheduler` drives several tenant RLHF jobs — each a full
:class:`~repro.runtime.builder.RlhfSystem` with its own single controller,
clock, tracer, and metrics — against one shared cluster, in discrete
scheduler *ticks*:

1. **Faults** — kill events from a fleet-level :class:`FaultPlan` (keyed by
   tick, applied by :class:`~repro.faults.ClusterFaultDriver`) mutate the
   shared cluster; every job carries a (possibly empty-plan)
   :class:`FaultInjector`, so each tenant *detects* the loss on its next
   remote call, exactly like single-job fault handling.
2. **Admission** — schedulable jobs are ranked by effective priority
   (``priority + aging * wait_ticks``) and gang-admitted at the widest
   data-parallel width that fits free capacity; when nothing fits, a
   lower-priority running victim is checkpointed and evicted
   (checkpoint-and-preempt) and the waiter takes its devices.
3. **Step** — every running job executes one RLHF iteration on disjoint
   devices; the fleet clock advances by the *maximum* per-job delta (the
   jobs run concurrently in simulated time).  A job whose step detects a
   worker loss is torn down, elastically resized onto the survivors
   (narrower DP if needed), restored from its atomic checkpoint, and
   resumes bit-exact; if even its narrowest width no longer fits, it is
   requeued — degraded, not failed.

Completion optionally runs the repo's analysis gate (dataflow DF, trace
audit TA, sharding SH, race RC) over each finished job's trace.
"""

from __future__ import annotations

import pathlib
import shutil
from typing import Any, Dict, List, Optional

from repro.config import ClusterSpec
from repro.cluster.cluster import SimCluster
from repro.faults.errors import WorkerLostError
from repro.faults.injector import ClusterFaultDriver, FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy, SimClock
from repro.fleet.job import JobSpec
from repro.fleet.report import FleetReport, JobReport
from repro.observability.metrics import MetricsRegistry
from repro.runtime.builder import RlhfSystem
from repro.runtime.recovery import (
    RecoveryCostModel,
    prompt_stream,
    rebuild_and_restore,
    save_checkpoint,
    wire_system,
)


class JobState:
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


class _JobRuntime:
    """Mutable scheduler-side state of one tenant job."""

    def __init__(self, spec: JobSpec, checkpoint_dir: pathlib.Path) -> None:
        self.spec = spec
        self.checkpoint_dir = checkpoint_dir
        self.state = JobState.PENDING
        self.system: Optional[RlhfSystem] = None
        self.dp: Optional[int] = None
        self.it = 0
        self.batches = None
        self.history: List[Dict[str, Any]] = []
        self.iter_durations: List[float] = []
        #: One injector per job for the lifetime of the fleet run: the
        #: dispatch gate only does dead-device detection when an injector is
        #: attached, so even fault-free tenants carry an empty-plan one.
        self.injector = FaultInjector(FaultPlan())
        #: Tracer/metrics captured at first build and re-attached on every
        #: rebuild, so one observability record spans the job's whole life.
        self.obs: Dict[str, Any] = {}
        self.has_checkpoint = False
        self.requeued_by_fault = False
        self.pending_snapshot: Optional[str] = None
        self.preemptions = 0
        self.resizes = 0
        self.failures = 0
        self.lost_iterations = 0
        self.lost_time = 0.0
        self.downtime = 0.0
        self.useful_time = 0.0
        self.checkpoint_time = 0.0
        self.wait_ticks = 0
        self.submitted_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.detail = ""
        #: ``(resumed_iteration, dp, snapshot_dir)`` per fault recovery when
        #: the scheduler keeps recovery checkpoints (bit-exactness audits).
        self.recovery_points: List[Dict[str, Any]] = []

    def effective_priority(self, aging: float) -> float:
        return self.spec.priority + aging * self.wait_ticks

    @property
    def gpus_held(self) -> int:
        if self.state != JobState.RUNNING or self.dp is None:
            return 0
        return self.spec.gpus_at(self.dp)


class FleetScheduler:
    """Gang-schedules tenant RLHF jobs onto one shared simulated cluster.

    Args:
        cluster_spec: Shape of the shared cluster.
        jobs: Tenant job specs (unique names).
        checkpoint_root: Directory holding one checkpoint dir per job.
        fault_plan: Fleet-level kill events, keyed by scheduler tick
            (see :class:`~repro.faults.ClusterFaultDriver`).
        aging: Effective-priority gain per tick a schedulable job waits —
            the anti-starvation knob; 0 disables aging.
        preemption: Allow checkpoint-and-evict of strictly lower-priority
            running jobs when a waiter cannot be admitted otherwise.
        retry_policy: Optional override applied to every job's controller.
        run_checks: Run the DF/TA/SH/RC analysis gate on each completed
            job's system and trace; findings land in the report.
        keep_recovery_checkpoints: Snapshot the checkpoint a fault recovery
            restored from (the job overwrites its live checkpoint as it
            advances); tests replay these to prove bit-exact resumes.
        max_failures_per_job: Fault recoveries a job may consume before it
            is declared failed.
        max_ticks: Hard stop against livelock.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        jobs: List[JobSpec],
        checkpoint_root: str,
        fault_plan: Optional[FaultPlan] = None,
        aging: float = 0.25,
        preemption: bool = True,
        cost_model: Optional[RecoveryCostModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        run_checks: bool = False,
        keep_recovery_checkpoints: bool = False,
        max_failures_per_job: int = 4,
        max_ticks: int = 10_000,
    ) -> None:
        names = [spec.name for spec in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")
        if not jobs:
            raise ValueError("a fleet needs at least one job")
        if aging < 0:
            raise ValueError(f"aging must be >= 0, got {aging}")
        self.cluster_spec = cluster_spec
        self.cluster = SimCluster(cluster_spec)
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.cost = cost_model or RecoveryCostModel()
        self.retry_policy = retry_policy
        self.aging = aging
        self.preemption = preemption
        self.run_checks = run_checks
        self.keep_recovery_checkpoints = keep_recovery_checkpoints
        self.max_failures_per_job = max_failures_per_job
        self.max_ticks = max_ticks
        self.driver = (
            ClusterFaultDriver(fault_plan)
            if fault_plan is not None and len(fault_plan)
            else None
        )
        root = pathlib.Path(checkpoint_root)
        self.jobs = [_JobRuntime(spec, root / spec.name) for spec in jobs]
        self.devices_killed = 0
        self.ticks_run = 0
        self.analysis = None  # AnalysisReport once run_checks fires

    # -- capacity ----------------------------------------------------------------------

    def _free_gpus(self) -> int:
        return len(self.cluster.allocatable_ranks())

    def _choose_dp(self, spec: JobSpec, budget: int) -> Optional[int]:
        for dp in spec.candidate_dps():
            if spec.gpus_at(dp) <= budget:
                return dp
        return None

    # -- job lifecycle -----------------------------------------------------------------

    def _save(self, job: _JobRuntime, iteration: int) -> None:
        job.checkpoint_time += save_checkpoint(
            job.system,
            job.checkpoint_dir,
            iteration,
            self.cost,
            extra={"dp": job.dp},
            job=job.spec.name,
        )
        job.has_checkpoint = True

    def _restore(self, job: _JobRuntime, as_repair: bool) -> int:
        """Restore the job's checkpoint into its (possibly resized) system.

        Rolls the runtime's iteration cursor back to the checkpointed one,
        charging lost work; repair costs (reinit + restore) accrue to the
        job's downtime only for fault-driven restores (``as_repair``) —
        preemption restores are scheduling overhead, not MTTR.
        """
        resumed, restore_time = rebuild_and_restore(
            job.system,
            job.obs["tracer"],
            job.checkpoint_dir,
            self.cost,
            allow_resize=True,
            job=job.spec.name,
        )
        if as_repair:
            job.downtime += self.cost.reinit_time + restore_time
        lost = job.it - resumed
        if lost > 0:
            job.lost_iterations += lost
            job.lost_time += sum(job.iter_durations[resumed:])
            job.obs["metrics"].counter(
                "repro_lost_iterations_total",
                "Completed iterations whose work was lost to failures",
            ).inc(lost)
        job.history = job.history[:resumed]
        job.iter_durations = job.iter_durations[:resumed]
        job.it = resumed
        return resumed

    def _admit_one(
        self, job: _JobRuntime, tick: int, base_time: Optional[float] = None
    ) -> bool:
        """Build (or rebuild) a pending job at the widest width that fits."""
        dp = self._choose_dp(job.spec, self._free_gpus())
        if dp is None:
            return False
        resized = job.dp is not None and dp != job.dp
        job.system = wire_system(
            job.spec.build(cluster=self.cluster, dp=dp),
            job.obs,
            job.injector,
            self.retry_policy,
        )
        controller = job.system.controller
        # A fresh controller clock starts at 0; line it up with the fleet
        # (or with the fault-detection time a recovery hands in) before any
        # spans open on it.
        controller.clock.advance(max(self.clock.now, base_time or 0.0))
        if job.submitted_at is None:
            job.submitted_at = self.clock.now
        tracer = job.obs["tracer"]
        with tracer.span(
            "fleet.admit",
            category="fleet",
            job=job.spec.name,
            tick=tick,
            dp=dp,
            resized=resized,
        ):
            if job.has_checkpoint:
                self._restore(job, as_repair=job.requeued_by_fault)
                if job.requeued_by_fault:
                    job.recovery_points.append(
                        {
                            "resumed_iteration": job.it,
                            "dp": dp,
                            "snapshot": job.pending_snapshot,
                            "tick": tick,
                        }
                    )
                    job.pending_snapshot = None
            else:
                # iteration-0 checkpoint: the recovery target before the
                # first periodic save exists
                self._save(job, 0)
        if resized:
            job.resizes += 1
            self.metrics.counter(
                "repro_fleet_resizes_total",
                "Elastic DP resizes across the fleet",
                job=job.spec.name,
            ).inc()
        job.dp = dp
        job.state = JobState.RUNNING
        job.requeued_by_fault = False
        job.batches = prompt_stream(
            job.spec.dataset(), job.spec.batch_size, job.it
        )
        return True

    def _preempt(self, victim: _JobRuntime, tick: int) -> None:
        """Checkpoint-and-evict: the victim requeues with its progress saved."""
        tracer = victim.obs["tracer"]
        with tracer.span(
            "fleet.preempt", category="fleet", job=victim.spec.name, tick=tick
        ):
            self._save(victim, victim.it)
            victim.system.controller.release_pools()
        victim.state = JobState.PENDING
        victim.preemptions += 1
        self.metrics.counter(
            "repro_fleet_preemptions_total",
            "Checkpoint-and-evict preemptions across the fleet",
            job=victim.spec.name,
        ).inc()

    def _preempt_for(self, waiter: _JobRuntime, tick: int) -> bool:
        """Evict strictly lower-priority victims until ``waiter`` fits."""
        need = waiter.spec.min_gpus
        victims = [
            j
            for j in self.jobs
            if j.state == JobState.RUNNING
            and j.spec.priority < waiter.spec.priority
        ]
        if self._free_gpus() + sum(v.gpus_held for v in victims) < need:
            return False
        # weakest (lowest effective priority) first; aging protects a
        # long-waiting victim from being evicted over and over
        victims.sort(key=lambda v: (v.effective_priority(self.aging), v.spec.name))
        for victim in victims:
            if self._free_gpus() >= need:
                break
            self._preempt(victim, tick)
        return self._free_gpus() >= need

    def _admit(self, tick: int) -> bool:
        eligible = [
            j
            for j in self.jobs
            if j.state == JobState.PENDING and j.spec.arrival_tick <= tick
        ]
        eligible.sort(
            key=lambda j: (
                -j.effective_priority(self.aging),
                j.spec.arrival_tick,
                j.spec.name,
            )
        )
        admitted = False
        for job in eligible:
            if self._admit_one(job, tick):
                admitted = True
                continue
            if self.preemption and self._preempt_for(job, tick):
                if self._admit_one(job, tick):
                    admitted = True
        return admitted

    def _snapshot_recovery_point(self, job: _JobRuntime) -> Optional[str]:
        if not self.keep_recovery_checkpoints:
            return None
        dest = job.checkpoint_dir.parent / (
            f".{job.checkpoint_dir.name}.recovery{job.failures}"
        )
        if dest.exists():
            shutil.rmtree(dest)
        shutil.copytree(job.checkpoint_dir, dest)
        return str(dest)

    def _recover(self, job: _JobRuntime, err: WorkerLostError, tick: int) -> float:
        """Fault-driven rebalance of one job; returns its clock delta."""
        t0 = self.clock.now
        controller = job.system.controller
        detected = controller.clock.now
        job.failures += 1
        tracer = job.obs["tracer"]
        span = tracer.begin(
            f"fleet.recover[{job.failures - 1}]",
            category="recovery",
            job=job.spec.name,
            pool=err.pool,
            ranks=tuple(err.dead_ranks),
            cause=err.cause or "worker lost",
            failed_iteration=job.it,
        )
        with tracer.span("recovery.teardown", category="recovery"):
            controller.release_pools()
        self.metrics.counter(
            "repro_fleet_job_failures_total",
            "Worker-loss events detected by fleet jobs",
            job=job.spec.name,
        ).inc()
        if job.failures > self.max_failures_per_job:
            job.state = JobState.FAILED
            job.detail = (
                f"gave up after {job.failures} worker-loss events "
                f"(max {self.max_failures_per_job})"
            )
            job.system = None
            tracer.end(span, outcome="failed")
            return detected - t0
        job.pending_snapshot = self._snapshot_recovery_point(job)
        job.requeued_by_fault = True
        job.state = JobState.PENDING
        readmitted = self._admit_one(job, tick, base_time=detected)
        if readmitted:
            tracer.end(span, outcome="resumed", resumed_iteration=job.it, dp=job.dp)
            return job.system.controller.clock.now - t0
        # graceful degradation: not even min_dp fits the survivors right
        # now — stay queued (with aging) until capacity or a preemption
        # frees devices.
        job.system = None
        tracer.end(span, outcome="requeued")
        return detected - t0

    def _complete(self, job: _JobRuntime) -> None:
        if self.run_checks:
            self._check(job)
        job.completed_at = job.system.controller.clock.now
        job.system.controller.release_pools()
        job.state = JobState.COMPLETED

    def _check(self, job: _JobRuntime) -> None:
        """Run the repo's DF/TA/SH/RC analysis gate over one finished job."""
        from repro.analysis import DataflowChecker, ShardingVerifier, audit_run

        if self.analysis is None:
            from repro.analysis import AnalysisReport

            self.analysis = AnalysisReport(name="fleet")
        system = job.system
        self.analysis.merge(DataflowChecker().check_system(system))
        self.analysis.merge(audit_run(system))
        verifier = ShardingVerifier()
        actor = system.groups["actor"]
        sh = verifier.verify_topology(actor.train_topology)
        if actor.gen_topology is not None:
            verifier.verify_transition(actor.gen_topology, report=sh)
        self.analysis.merge(sh)

    def _step_job(self, job: _JobRuntime, tick: int) -> float:
        """One RLHF iteration for one running job; returns its clock delta."""
        controller = job.system.controller
        # Catch the job's clock up to the fleet: time that passed while
        # other tenants ran (or while this job waited in queue) is idle
        # time, not work.
        if controller.clock.now < self.clock.now:
            controller.clock.advance(self.clock.now - controller.clock.now)
        t0 = controller.clock.now
        prompts = next(job.batches)
        try:
            step_metrics = job.system.trainer.run_step(prompts)
        except WorkerLostError as err:
            return self._recover(job, err, tick)
        dt = controller.clock.now - t0
        job.history.append(step_metrics)
        job.iter_durations.append(dt)
        job.useful_time += dt
        job.it += 1
        if job.it >= job.spec.n_iterations:
            self._complete(job)
        elif job.it % job.spec.checkpoint_every == 0:
            self._save(job, job.it)
        return job.system.controller.clock.now - t0 if job.system else dt

    # -- the tick loop -----------------------------------------------------------------

    def _unfinished(self) -> List[_JobRuntime]:
        return [
            j
            for j in self.jobs
            if j.state in (JobState.PENDING, JobState.RUNNING)
        ]

    def run(self) -> FleetReport:
        tick = 0
        while self._unfinished() and tick < self.max_ticks:
            self.ticks_run = tick + 1
            if self.driver is not None:
                died = self.driver.apply_due(
                    self.cluster, tick, at_time=self.clock.now
                )
                if died:
                    self.devices_killed += len(died)
                    self.metrics.counter(
                        "repro_fleet_devices_killed_total",
                        "Devices killed by the fleet fault driver",
                    ).inc(len(died))
            progressed = self._admit(tick)
            deltas = [
                self._step_job(job, tick)
                for job in list(self.jobs)
                if job.state == JobState.RUNNING
            ]
            if deltas:
                self.clock.advance(max(deltas))
                progressed = True
            waiting = [
                j
                for j in self.jobs
                if j.state == JobState.PENDING and j.spec.arrival_tick <= tick
            ]
            for job in waiting:
                job.wait_ticks += 1
            future_arrivals = any(
                j.spec.arrival_tick > tick
                for j in self.jobs
                if j.state == JobState.PENDING
            )
            faults_pending = self.driver is not None and self.driver.pending_events
            if not progressed and not future_arrivals and not faults_pending:
                # nothing ran, nothing was admitted, nothing will change:
                # the waiters can never fit (e.g. demand exceeds the alive
                # cluster at min_dp) — fail them rather than spin.
                for job in waiting:
                    job.state = JobState.FAILED
                    job.detail = (
                        f"unschedulable: needs {job.spec.min_gpus} GPU(s) at "
                        f"dp={job.spec.candidate_dps()[-1]}, cluster has "
                        f"{self._free_gpus()} allocatable"
                    )
            tick += 1
        for job in self._unfinished():
            if not job.detail:
                job.detail = f"still {job.state} when the tick budget ran out"
            job.state = JobState.FAILED
        return self.report()

    # -- reporting ---------------------------------------------------------------------

    def report(self) -> FleetReport:
        rows = []
        for job in self.jobs:
            if job.submitted_at is None:
                total = 0.0
            elif job.completed_at is not None:
                total = job.completed_at - job.submitted_at
            else:
                total = self.clock.now - job.submitted_at
            rows.append(
                JobReport(
                    name=job.spec.name,
                    priority=job.spec.priority,
                    state=job.state,
                    dp=job.dp or 0,
                    iterations=job.it,
                    preemptions=job.preemptions,
                    resizes=job.resizes,
                    failures=job.failures,
                    lost_iterations=job.lost_iterations,
                    wait_ticks=job.wait_ticks,
                    downtime=job.downtime,
                    useful_time=job.useful_time,
                    checkpoint_time=job.checkpoint_time,
                    total_time=total,
                    detail=job.detail,
                )
            )
        findings: Dict[str, int] = {}
        if self.analysis is not None:
            findings = dict(self.analysis.family_counts())
        return FleetReport(
            jobs=rows,
            makespan=self.clock.now,
            ticks=self.ticks_run,
            devices_killed=self.devices_killed,
            analysis_findings=findings,
            checks_run=self.run_checks,
        )
