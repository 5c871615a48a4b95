"""The event-driven streaming assignment engine.

``ServeEngine`` drives the same online stage as
:class:`repro.sc.platform.BatchPlatform` (Fig. 1, Algorithm 4's host
loop) but as a priority-queue event loop instead of a fixed-step scan:

* **events**, not ticks — task arrivals, deadlines, requester
  cancellations, and worker check-in/check-out resolve at their own
  timestamps (:mod:`repro.serve.events`), so per-event work is O(1)
  instead of an O(W + T) rescan per window;
* **pluggable batch triggers** — the paper's fixed window, or
  demand-adaptive firing under queue/deadline pressure
  (:mod:`repro.serve.triggers`);
* **bounded pending queue** — with ``max_pending`` set, an arrival
  into a full queue sheds the task with the least deadline slack (the
  one least likely to be served anyway) instead of letting the backlog
  grow without bound;
* **candidate-set assignment** — with ``use_index`` set, each batch
  builds a sparse candidate graph from a uniform-grid index over task
  locations (:mod:`repro.serve.spatial_index`) and feeds it to a
  candidate-aware assignment function instead of scanning W x T pairs;
* **prediction cache** — snapshots are served from a TTL cache with
  check-in deviation invalidation (:mod:`repro.serve.prediction_cache`)
  instead of being re-predicted every batch;
* **run observers** — monitoring, decision provenance, lifecycle
  metrics and demand forecasting attach through one list of
  :class:`repro.obs.observer.RunObserver`; only the forecast trigger
  and pre-positioning, which change outcomes, are loop steps.

Configured as fixed-window / unbounded queue / no index / no cache, the
engine reproduces ``BatchPlatform`` completion, rejection, and expiry
counts exactly (see :mod:`repro.serve.adapters` and the parity tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # import cycle: forecast.dispatch imports serve.triggers
    from repro.forecast.dispatch import ForecastConfig

from repro import obs
from repro.assignment.matching_rate import pair_completion_probability
from repro.assignment.plan import AssignmentPlan
from repro.assignment.ppi import PPIConfig
from repro.obs.decisions import DecisionConfig, DecisionLog
from repro.obs.monitor import MonitorConfig, RunMonitor
from repro.obs.observer import LifecycleMetrics, RunObserver
from repro.sc.acceptance import evaluate_acceptance
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.sc.platform import (
    AssignFn,
    BatchRecord,
    SimulationResult,
    SnapshotProvider,
    validate_plan,
)
from repro.serve.events import (
    BatchTick,
    EventQueue,
    TaskArrival,
    TaskCancel,
    TaskDeadline,
    WorkerCheckIn,
    WorkerCheckOut,
)
from repro.serve.prediction_cache import PredictionCache
from repro.serve.spatial_index import build_candidates
from repro.serve.triggers import DemandAdaptiveTrigger, FixedWindowTrigger

#: Matching-rate threshold (Definition 7) of the serve policies' PPI;
#: each offer's believed completion probability is scored with it.
_PPI_A_KM = PPIConfig().a

#: A candidate-aware assignment function: like :data:`AssignFn` plus the
#: sparse candidate graph built by the engine's spatial index.
CandidateAssignFn = Callable[
    [Sequence[SpatialTask], Sequence[WorkerSnapshot], float, dict[int, list[int]]],
    AssignmentPlan,
]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the streaming engine.

    The defaults reproduce ``BatchPlatform`` semantics exactly; every
    serving feature is opt-in.

    Attributes
    ----------
    batch_window:
        Minutes between scheduled assignment rounds.
    assignment_window:
        Requester cancellation window after release (``None`` disables),
        as in :class:`repro.sc.platform.BatchPlatform`.
    trigger:
        ``"fixed"``, ``"adaptive"`` (demand-adaptive early firing), or
        ``"forecast"`` (adaptive plus predicted-demand pressure;
        requires ``forecast``).
    pending_threshold / deadline_slack / min_trigger_interval:
        Adaptive-trigger knobs; see
        :class:`repro.serve.triggers.DemandAdaptiveTrigger`.
    max_pending:
        Pending-queue bound; arrivals beyond it shed the task with the
        least deadline slack.  ``None`` means unbounded.
    cache_ttl / cache_deviation_km:
        Prediction-cache freshness knobs; ``cache_ttl=0`` re-predicts
        every batch like ``BatchPlatform``.
    use_index:
        Build a sparse candidate graph per batch and use the
        candidate-aware assignment path (requires ``candidate_assign_fn``
        unless the engine falls back to dense).
    index_cell_km / max_candidates:
        Grid-bucket size and optional per-task k-nearest cap of the
        candidate index.
    monitor:
        Online-monitoring knobs (:class:`repro.obs.monitor.MonitorConfig`):
        periodic metric samples, OpenMetrics exposition, and prediction
        calibration tracking.  ``None`` (the default) keeps the run
        monitor-free; when set but no recorder is active, the engine
        installs a metrics-only recorder for the duration of the run.
    decisions:
        Decision-provenance knobs (:class:`repro.obs.decisions.DecisionConfig`):
        one lifecycle record per task — admission, candidate
        generation, matching outcome, terminal state — appended to a
        JSONL decision log.  ``None`` (the default) keeps the run
        log-free; either way ``result_signature`` is unchanged.
    forecast:
        Demand-forecasting knobs (:class:`repro.forecast.dispatch.ForecastConfig`):
        per-cell arrival forecasting, the ``"forecast"`` trigger's
        predicted-pressure term, and idle-worker pre-positioning
        between batches.  ``None`` (the default) keeps the run
        forecast-free with exact ``result_signature`` parity.
    """

    batch_window: float = 2.0
    assignment_window: float | None = 10.0
    trigger: str = "fixed"
    pending_threshold: int | None = None
    deadline_slack: float | None = None
    min_trigger_interval: float = 0.25
    max_pending: int | None = None
    cache_ttl: float = 0.0
    cache_deviation_km: float | None = None
    use_index: bool = False
    index_cell_km: float = 1.0
    max_candidates: int | None = None
    monitor: MonitorConfig | None = None
    decisions: DecisionConfig | None = None
    forecast: "ForecastConfig | None" = None

    def __post_init__(self) -> None:
        if self.batch_window <= 0:
            raise ValueError("batch window must be positive")
        if self.assignment_window is not None and self.assignment_window <= 0:
            raise ValueError("assignment window must be positive (or None)")
        if self.trigger not in ("fixed", "adaptive", "forecast"):
            raise ValueError("trigger must be 'fixed', 'adaptive', or 'forecast'")
        if self.trigger == "forecast" and self.forecast is None:
            raise ValueError("the 'forecast' trigger requires a forecast config")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be at least 1 (or None)")
        if self.cache_ttl < 0:
            raise ValueError("cache ttl must be non-negative")
        if self.index_cell_km <= 0:
            raise ValueError("index cell size must be positive")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1 (or None)")

    def make_trigger(self, forecast_runtime=None) -> FixedWindowTrigger:
        if self.trigger == "fixed":
            return FixedWindowTrigger(window=self.batch_window)
        if self.trigger == "forecast":
            # Deferred import: forecast.dispatch imports serve.triggers.
            from repro.forecast.dispatch import ForecastTrigger

            return ForecastTrigger(
                window=self.batch_window,
                pending_threshold=self.pending_threshold,
                deadline_slack=self.deadline_slack,
                min_interval=self.min_trigger_interval,
                demand_threshold=self.forecast.demand_threshold,
                runtime=forecast_runtime,
            )
        return DemandAdaptiveTrigger(
            window=self.batch_window,
            pending_threshold=self.pending_threshold,
            deadline_slack=self.deadline_slack,
            min_interval=self.min_trigger_interval,
        )


@dataclass
class ServeResult(SimulationResult):
    """``SimulationResult`` plus the serving layer's own accounting."""

    n_shed: int = 0
    n_batches: int = 0
    n_early_batches: int = 0
    n_candidate_pairs: int = 0
    n_dense_pairs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    #: Monitor-only accounting (zero / None when ``config.monitor`` is
    #: unset); deliberately outside ``result_signature`` so monitoring
    #: never perturbs parity checks.
    n_monitor_samples: int = 0
    n_drift_events: int = 0
    calibration: dict | None = None
    #: Decision-log accounting (zero when ``config.decisions`` is
    #: unset); outside ``result_signature`` for the same reason.
    n_decisions: int = 0
    #: Forecasting accounting (zero / None when ``config.forecast`` is
    #: unset).  Pre-positioning *does* change assignment outcomes (the
    #: whole point), so these fields only describe the forecast layer —
    #: the outcome changes show up in the ordinary signature fields.
    n_prepositioned: int = 0
    forecast_mae: float | None = None
    forecast_cell_mae: dict | None = None

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def candidate_sparsity(self) -> float:
        """Fraction of the dense pair space the index actually visited."""
        return self.n_candidate_pairs / self.n_dense_pairs if self.n_dense_pairs else 0.0


def _warm_tier_counts(assign_fn) -> dict | None:
    """The warm-start solve counters behind an assign closure, if any."""
    cache = getattr(assign_fn, "warm_cache", None)
    return cache.tier_counts() if cache is not None else None


def _warm_tier(pre: dict | None, post: dict | None) -> str | None:
    """The batch's warm-start tier from before/after solve counters.

    The worst tier any of the batch's component solves hit: a cold
    solve anywhere makes the batch ``cold``, else a seeded re-augment
    makes it ``warm``, else whole-solve reuse makes it ``identical``.
    """
    if pre is None or post is None:
        return None
    if post["cold"] > pre["cold"]:
        return "cold"
    if post["warm"] > pre["warm"]:
        return "warm"
    if post["identical"] > pre["identical"]:
        return "identical"
    return None


class ServeEngine:
    """Event-driven streaming counterpart of ``BatchPlatform``.

    Parameters
    ----------
    workers:
        Worker population with ground-truth routines (their time spans
        are the check-in/check-out availability windows).
    snapshot_provider:
        Builds the platform's view of a worker; wrapped in a
        :class:`PredictionCache` according to ``config``.
    config:
        Engine tunables; the default reproduces ``BatchPlatform``.
    assign_fn:
        Dense assignment function (always required — it is also the
        fallback when the index yields no candidates).
    candidate_assign_fn:
        Sparse assignment entry point (e.g. wrapping
        :func:`repro.assignment.ppi.ppi_assign_candidates`); used when
        ``config.use_index`` is set.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        snapshot_provider: SnapshotProvider,
        config: ServeConfig | None = None,
        assign_fn: AssignFn | None = None,
        candidate_assign_fn: CandidateAssignFn | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise ValueError("worker ids must be unique")
        if assign_fn is None:
            raise ValueError("an assignment function is required")
        if self.config.use_index and candidate_assign_fn is None:
            raise ValueError("use_index requires a candidate-aware assignment function")
        self.workers = list(workers)
        self.snapshot_provider = snapshot_provider
        self.assign_fn = assign_fn
        self.candidate_assign_fn = candidate_assign_fn
        self._worker_pos = {w.worker_id: i for i, w in enumerate(self.workers)}
        #: The last run's :class:`DecisionLog` (``None`` when
        #: ``config.decisions`` is unset).
        self.decision_log: DecisionLog | None = None

    # ------------------------------------------------------------------
    def _build_candidates(
        self,
        batch_tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
    ) -> dict[int, list[int]]:
        """One batch's candidate graph (the ``use_index`` path).

        Subclasses substitute their own construction —
        :class:`repro.dist.serve.ShardedEngine` builds the same graph
        shard by shard — as long as the result matches this one, the
        engine's plans are unchanged.
        """
        cfg = self.config
        return build_candidates(
            batch_tasks,
            snapshots,
            t,
            cell_km=cfg.index_cell_km,
            max_candidates=cfg.max_candidates,
        )

    def _on_event(self, event) -> None:
        """Post-dispatch event hook; the base engine does nothing.

        Called once per processed event, after its state updates and
        before the run observers' ``dispatched``.  Subclasses may use it
        for per-event accounting; it must not mutate engine state the
        event loop depends on.
        """

    def _run_observers(
        self, t_start: float, t_end: float, forecast, shard_of=None
    ) -> list[RunObserver]:
        """The observers of one run, built from the config.

        The monitor comes first: it advances before every other
        observer, so a sample never holds metrics of the event at its
        own time, and it reports last, after the forecast's closing
        bins.  ``shard_of`` names the stripe of each decision record
        (:class:`repro.dist.serve.ShardedEngine`).
        """
        cfg = self.config
        observers: list[RunObserver] = []
        if cfg.monitor is not None:
            observers.append(RunMonitor(cfg.monitor, t_start, t_end))
        if forecast is not None:
            observers.append(forecast)
        self.decision_log = None
        if cfg.decisions is not None:
            self.decision_log = DecisionLog(cfg.decisions, shard_of=shard_of)
            observers.append(self.decision_log)
        # After the monitor, which may have installed a recorder.
        if obs.enabled():
            observers.append(LifecycleMetrics())
        return observers

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SpatialTask],
        t_start: float,
        t_end: float,
        outcome_listener: Callable[[int, int, bool, float], None] | None = None,
    ) -> ServeResult:
        """Serve the task stream over ``[t_start, t_end]``.

        Events dated past ``t_end`` never fire; tasks still pending at
        the horizon's end count as expired, as in ``BatchPlatform``.
        """
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        task_ids = [t.task_id for t in tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("task ids must be unique")

        cfg = self.config
        forecast = None
        if cfg.forecast is not None:
            from repro.forecast.dispatch import ForecastRuntime, relocated_worker

            forecast = ForecastRuntime(cfg.forecast, t_start, t_end, tasks=tasks)
        prepositioning = cfg.forecast is not None and cfg.forecast.prepositioning
        trigger = cfg.make_trigger(forecast_runtime=forecast)
        cache = PredictionCache(
            provider=self.snapshot_provider,
            ttl=cfg.cache_ttl,
            deviation_km=cfg.cache_deviation_km,
        )
        result = ServeResult(
            n_tasks=len(tasks), n_completed=0, n_assignments=0, n_rejections=0, n_expired=0
        )
        observers = self._run_observers(t_start, t_end, forecast)
        score_offers = any(o.reads_predicted_p for o in observers)
        pending: dict[int, SpatialTask] = {}
        busy_until: dict[int, float] = {}
        online: dict[int, Worker] = {}
        worker_by_id = {w.worker_id: w for w in self.workers}
        horizon_end = t_end + 1e-9

        queue = EventQueue()
        # Task arrivals (sorted so same-time ties resolve by release order,
        # matching BatchPlatform's release scan) with their deadline and
        # cancellation events.
        for task in sorted(tasks, key=lambda t: t.release_time):
            arrival = max(task.release_time, t_start)
            if arrival > horizon_end:
                continue
            queue.push(TaskArrival(time=arrival, task=task))
            queue.push(TaskDeadline(time=task.deadline, task_id=task.task_id))
            if cfg.assignment_window is not None:
                # Anchored on the *release* time, like BatchPlatform's
                # cancellation check; a window that closed before the
                # arrival is handled dead-on-arrival below.
                cancel_at = task.release_time + cfg.assignment_window
                if cancel_at >= arrival:
                    queue.push(TaskCancel(time=cancel_at, task_id=task.task_id))
        # Worker availability windows (the routine span unless the
        # worker declared a narrower ``available_from``/``available_until``).
        for worker in self.workers:
            start = worker.availability_start()
            end = worker.availability_end()
            if end < t_start or start > horizon_end:
                continue
            queue.push(WorkerCheckIn(time=max(start, t_start), worker=worker))
            queue.push(WorkerCheckOut(time=end, worker_id=worker.worker_id))
        # The first scheduled batch.
        tick_generation = 0
        queue.push(BatchTick(time=t_start, generation=tick_generation))

        last_batch = t_start - cfg.batch_window

        def run_batch(t: float, early: bool) -> list[Worker]:
            """One assignment round; returns the workers it found available."""
            nonlocal last_batch
            last_batch = t
            available = [
                worker_by_id[w_id]
                for w_id in sorted(online, key=self._worker_pos.__getitem__)
                if busy_until.get(w_id, -1.0) <= t
            ]
            batch_tasks = list(pending.values())
            obs.gauge("serve.queue.pending", len(pending))
            obs.gauge("serve.workers.available", len(available))
            if not batch_tasks or not available:
                return available
            batch_started = time.perf_counter()
            with obs.span(
                "serve.batch",
                t=t,
                batch=result.n_batches,
                pending=len(batch_tasks),
                available=len(available),
                early=early,
            ) as batch_span:
                pre_cache = cache.stats.snapshot()
                with obs.span("serve.predict", workers=len(available)):
                    started = time.perf_counter()
                    snapshots = [cache.get(w, t) for w in available]
                    result.prediction_seconds += time.perf_counter() - started
                served = cache.stats.hits + cache.stats.misses
                if served:
                    obs.gauge("serve.cache.hit_rate", cache.stats.hits / served)
                result.n_dense_pairs += len(batch_tasks) * len(available)
                candidates = None
                warm_tier = None
                with obs.span("serve.assign", tasks=len(batch_tasks)):
                    started = time.perf_counter()
                    if cfg.use_index and self.candidate_assign_fn is not None:
                        candidates = self._build_candidates(batch_tasks, snapshots, t)
                        batch_candidates = sum(len(v) for v in candidates.values())
                        result.n_candidate_pairs += batch_candidates
                        obs.histogram("serve.index.candidates", batch_candidates)
                        warm_pre = _warm_tier_counts(self.candidate_assign_fn)
                        plan = self.candidate_assign_fn(batch_tasks, snapshots, t, candidates)
                        warm_tier = _warm_tier(
                            warm_pre, _warm_tier_counts(self.candidate_assign_fn)
                        )
                    else:
                        result.n_candidate_pairs += len(batch_tasks) * len(available)
                        plan = self.assign_fn(batch_tasks, snapshots, t)
                    result.algorithm_seconds += time.perf_counter() - started
                validate_plan(plan, pending, worker_by_id)

                batch_ids = [task.task_id for task in batch_tasks]
                hit_rate = cache.stats.window_hit_rate(pre_cache)
                for o in observers:
                    o.considered(batch_ids, len(available), candidates, hit_rate)
                snap_by_worker = {s.worker_id: s for s in snapshots} if score_offers else None
                n_accepted = 0
                n_rejected = 0
                for pair in plan:
                    worker = worker_by_id[pair.worker_id]
                    task = pending[pair.task_id]
                    decision = evaluate_acceptance(worker, task, t)
                    result.n_assignments += 1
                    if outcome_listener is not None:
                        outcome_listener(task.task_id, worker.worker_id, decision.accepted, t)
                    believed = None
                    if score_offers:
                        snap = snap_by_worker[pair.worker_id]
                        believed = pair_completion_probability(snap, task, t, a=_PPI_A_KM)
                    for o in observers:
                        o.offered(
                            task.task_id, worker.worker_id, t, decision.accepted,
                            believed, warm_tier,
                        )
                    if decision.accepted:
                        n_accepted += 1
                        result.n_completed += 1
                        result.completed_task_ids.add(task.task_id)
                        result.detours_km.append(decision.detour_km)
                        del pending[task.task_id]
                        # Same busy model as BatchPlatform: off-route for
                        # the detour distance at the worker's speed, plus
                        # the current window.
                        off_route = decision.detour_km / worker.speed_km_per_min
                        busy_until[worker.worker_id] = t + cfg.batch_window + off_route
                    else:
                        n_rejected += 1
                        result.n_rejections += 1
                obs.counter("serve.assignments", len(plan))
                obs.counter("serve.accepted", n_accepted)
                obs.counter("serve.rejections", n_rejected)
                obs.histogram("serve.batch.latency_s", time.perf_counter() - batch_started)
                batch_span.set(assigned=len(plan), accepted=n_accepted, rejected=n_rejected)
                result.batches.append(
                    BatchRecord(
                        batch_time=t,
                        n_pending=len(batch_tasks),
                        n_available=len(available),
                        n_assigned=len(plan),
                        n_accepted=n_accepted,
                        n_rejected=n_rejected,
                    )
                )
                result.n_batches += 1
                if early:
                    result.n_early_batches += 1
                    obs.counter("serve.batches.early")
            return available

        def preposition(t: float, idle: list[Worker]) -> None:
            """Move idle workers toward predicted demand gaps.

            Runs after each batch on the workers it left idle; accepted
            moves splice the relocation into the worker's routine, so
            later snapshots, acceptance decisions, and check-outs all
            see the repositioned worker.
            """
            moves = forecast.plan_moves(t, idle, pending)
            for move in moves:
                moved = relocated_worker(worker_by_id[move.worker_id], move)
                worker_by_id[move.worker_id] = moved
                if move.worker_id in online:
                    online[move.worker_id] = moved
                cache.invalidate(move.worker_id)
                for o in observers:
                    o.prepositioned(move)
            if moves:
                result.n_prepositioned += len(moves)
                obs.counter("forecast.prepositioned", len(moves))

        try:
            while queue and queue.peek_time() <= horizon_end:
                event = queue.pop()
                now = event.time
                for o in observers:
                    o.advance(now)
                if isinstance(event, TaskArrival):
                    task = event.task
                    for o in observers:
                        o.arrived(task, now)
                    # Dead on arrival: a task released before the horizon
                    # whose deadline or cancellation window already passed.
                    # BatchPlatform releases and expires these in the same
                    # tick, never attempting assignment.
                    if task.deadline < now or (
                        cfg.assignment_window is not None
                        and now > task.release_time + cfg.assignment_window
                    ):
                        result.n_expired += 1
                        obs.counter("serve.expired")
                        for o in observers:
                            o.dead_on_arrival(task, now, cancelled=task.deadline >= now)
                    else:
                        if cfg.max_pending is not None and len(pending) >= cfg.max_pending:
                            # Deadline-aware shedding: the least slack goes
                            # (the arrival itself on a tie).
                            victim = min((task, *pending.values()), key=attrgetter("deadline"))
                            result.n_shed += 1
                            obs.counter("serve.shed.tasks")
                            if victim.task_id == task.task_id:
                                for o in observers:
                                    o.shed_on_arrival(task, now)
                            else:
                                del pending[victim.task_id]
                                pending[task.task_id] = task
                                for o in observers:
                                    o.admitted(task, now)
                                    o.displaced(victim.task_id, now)
                        else:
                            pending[task.task_id] = task
                            for o in observers:
                                o.admitted(task, now)
                        if trigger.should_fire_early(now, last_batch, pending):
                            tick_generation += 1
                            queue.push(BatchTick(time=now, generation=tick_generation))
                elif isinstance(event, BatchTick):
                    if event.generation == tick_generation:
                        early = now - last_batch < cfg.batch_window - 1e-9
                        available = run_batch(now, early=early)
                        if prepositioning:
                            preposition(now, [
                                w for w in available if busy_until.get(w.worker_id, -1.0) <= now
                            ])
                        tick_generation += 1
                        queue.push(
                            BatchTick(time=trigger.next_tick(now), generation=tick_generation)
                        )
                    # else: superseded by an early fire
                elif isinstance(event, TaskDeadline):
                    if event.task_id in pending:
                        del pending[event.task_id]
                        result.n_expired += 1
                        obs.counter("serve.expired")
                        for o in observers:
                            o.expired(event.task_id, now)
                elif isinstance(event, TaskCancel):
                    if event.task_id in pending:
                        del pending[event.task_id]
                        result.n_expired += 1
                        obs.counter("serve.cancelled")
                        for o in observers:
                            o.cancelled(event.task_id, now)
                elif isinstance(event, WorkerCheckIn):
                    online[event.worker.worker_id] = event.worker
                elif isinstance(event, WorkerCheckOut):
                    online.pop(event.worker_id, None)
                self._on_event(event)
                for o in observers:
                    o.dispatched(event, len(queue))

            # Tasks still pending at the horizon's end count as expired.
            for task_id in pending:
                for o in observers:
                    o.expired(task_id, t_end, horizon=True)
            result.n_expired += len(pending)
            result.cache_hits = cache.stats.hits
            result.cache_misses = cache.stats.misses
            result.cache_invalidations = cache.stats.invalidations
            for o in reversed(observers):
                o.report(result)
            return result
        finally:
            # Close sinks (closing the decision log also merges shard
            # spools) and restore the recorder even when the run
            # unwinds on an exception.
            for o in reversed(observers):
                o.close()
