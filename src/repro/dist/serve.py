"""Sharded streaming serve: ``ServeEngine`` with per-shard candidate builds.

:class:`ShardedEngine` keeps the event loop, triggers, cache, queue
bound, and acceptance bookkeeping of :class:`repro.serve.engine.ServeEngine`
untouched and overrides exactly two hooks:

* ``_build_candidates`` — each batch's candidate graph is built stripe
  by stripe through :func:`repro.dist.shard.sharded_build_candidates`
  (optionally fanned across a :class:`~repro.dist.backend.Backend`),
  which provably merges to the dense graph, so every downstream plan —
  and therefore :func:`repro.serve.adapters.result_signature` — is
  unchanged at any shard count;
* ``_run_observers`` — prepends a :class:`ShardRouter`, which routes
  task events to the stripe owning (or nearest to) their cell column
  under the last batch's layout, feeding ``dist.shard.events{shard=sid}``
  counters and ``dist.shard.lag_s{shard=sid}`` histograms (staleness of
  the shard's last merged plan), and names that stripe on each task's
  decision record.

Boundary workers — snapshots whose halo spans more than one stripe —
are counted per batch in :attr:`ShardedEngine.batch_stats`; they are the
reconciliation cost of sharding (the same snapshot is shipped to every
stripe it can reach, and the merge de-duplicates nothing because task
ownership is disjoint).
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Sequence

from repro import obs
from repro.obs.dist import (
    MERGE_SPAN,
    PREPARE_SPAN,
    ROUND_SPAN,
    SOLVE_SPAN,
    current_context,
)
from repro.obs.metrics import labelled
from repro.obs.observer import RunObserver
from repro.assignment.baselines import km_assign_candidates
from repro.assignment.plan import AssignmentPlan
from repro.assignment.ppi import PPIConfig, ppi_assign_candidates
from repro.dist.backend import Backend, DistConfig, ShardServerBackend, resolve_backend
from repro.dist.server import batch_step, encode_snapshot, encode_task
from repro.dist.shard import (
    ComponentMatcher,
    ShardPlanner,
    ShardStats,
    WarmMatchCache,
    same_track,
    sharded_build_candidates,
)
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.sc.platform import AssignFn, SnapshotProvider
from repro.serve.engine import CandidateAssignFn, ServeConfig, ServeEngine
from repro.serve.events import TaskArrival, TaskCancel, TaskDeadline
from repro.serve.spatial_index import latest_horizon


def component_candidate_assign(
    algorithm: str = "ppi",
    config: PPIConfig | None = None,
    backend: Backend | None = None,
    warm_start: bool = False,
) -> CandidateAssignFn:
    """A :data:`CandidateAssignFn` whose KM solves decompose by component.

    Drop-in for the engine's candidate path: same plans as the plain
    ``ppi_assign_candidates`` / ``km_assign_candidates`` closures (the
    component decomposition is exact under a unique optimum, see
    :mod:`repro.dist.shard`), with each matching split into its
    connected components — optionally solved across ``backend``.

    ``warm_start`` keeps a :class:`~repro.dist.shard.WarmMatchCache` in
    the closure: successive batches seed each component's solve with the
    previous duals, and unchanged components skip the solve outright.
    The cache is per-closure state, so build one closure per engine.
    """
    if algorithm not in ("ppi", "km"):
        raise ValueError("algorithm must be 'ppi' or 'km'")
    warm = WarmMatchCache() if warm_start else None
    matcher = ComponentMatcher(backend=backend, warm=warm)

    def assign(
        tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
        candidates: dict[int, list[int]],
    ) -> AssignmentPlan:
        if warm is not None:
            warm.begin_round()
        if algorithm == "ppi":
            return ppi_assign_candidates(tasks, snapshots, t, candidates, config, matcher=matcher)
        return km_assign_candidates(tasks, snapshots, t, candidates, matcher=matcher)

    assign.warm_cache = warm  # type: ignore[attr-defined]
    return assign


class ShardRouter(RunObserver):
    """Routes a run's task events to stripes under the last batch layout.

    An arrival notes its task's cell column, so the task's deadline,
    cancel and decision record (:meth:`shard_of`) land on the same
    stripe.  Other events, and any before the first batch, are unrouted.
    """

    def __init__(self, engine: "ShardedEngine") -> None:
        self._engine = engine
        self._task_col: dict[int, int] = {}

    def arrived(self, task, t):
        cell_km = self._engine.config.index_cell_km
        self._task_col[task.task_id] = math.floor(task.location.x / cell_km)

    def shard_of(self, task_id: int) -> int | None:
        """The stripe owning (or, clamped, nearest to) the task's column."""
        col = self._task_col.get(task_id)
        specs = self._engine._last_specs
        if col is None or not specs:
            return None
        best_id, best_gap = None, math.inf
        for spec in specs:
            if spec.owns_column(col):
                return spec.shard_id
            gap = min(abs(col - spec.col_lo), abs(col - spec.col_hi))
            if gap < best_gap:
                best_id, best_gap = spec.shard_id, gap
        return best_id

    def dispatched(self, event, queue_depth):
        if isinstance(event, TaskArrival):
            shard_id = self.shard_of(event.task.task_id)
        elif isinstance(event, (TaskDeadline, TaskCancel)):
            shard_id = self.shard_of(event.task_id)
        else:
            shard_id = None
        if shard_id is None:
            obs.counter("dist.events.unrouted")
            return
        obs.counter(labelled("dist.shard.events", shard=shard_id))
        merged_t = self._engine._last_merge_t
        if merged_t is not None:
            obs.histogram(
                labelled("dist.shard.lag_s", shard=shard_id), max(event.time - merged_t, 0.0)
            )


class ShardedEngine(ServeEngine):
    """Route one stream through per-stripe candidate generation.

    Parameters are those of :class:`ServeEngine` plus the dist knobs;
    ``config.use_index`` is forced on (sharding *is* an index strategy)
    and a ``candidate_assign_fn`` is therefore required.  ``dist``
    controls both the stripe count and where stripe jobs run; serial
    backend with any shard count is the parity reference.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        snapshot_provider: SnapshotProvider,
        config: ServeConfig | None = None,
        assign_fn: AssignFn | None = None,
        candidate_assign_fn: CandidateAssignFn | None = None,
        dist: DistConfig | None = None,
        backend: Backend | None = None,
    ) -> None:
        cfg = config if config is not None else ServeConfig()
        if not cfg.use_index:
            cfg = replace(cfg, use_index=True)
        super().__init__(
            workers,
            snapshot_provider,
            config=cfg,
            assign_fn=assign_fn,
            candidate_assign_fn=candidate_assign_fn,
        )
        self.dist = dist if dist is not None else DistConfig()
        self._owns_backend = backend is None
        self.backend: Backend = backend if backend is not None else resolve_backend(self.dist)
        #: One :class:`ShardStats` per batch, in batch order.
        self.batch_stats: list[ShardStats] = []
        self._planner = ShardPlanner(
            shards=self.dist.shards, cell_km=self.config.index_cell_km
        )
        self._last_specs: list = []
        self._last_merge_t: float | None = None
        # Shard-server mirrors: which task ids and which snapshot
        # versions (predicted-track array identity) each server holds.
        self._server_tasks: list[set[int]] = [set() for _ in range(self.dist.shards)]
        self._server_preds: list[dict[int, object]] = [
            {} for _ in range(self.dist.shards)
        ]
        #: serving-round index (one per shard-server build).
        self._round = 0
        #: per-shard profiler hotspots harvested from ``obs_flush``
        #: replies, in arrival order (see :class:`repro.obs.dist.DistObsConfig`).
        self.profile_hotspots: list[dict] = []

    # ------------------------------------------------------------------
    def _build_candidates(
        self,
        batch_tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
    ) -> dict[int, list[int]]:
        cfg = self.config
        stats = ShardStats()
        if isinstance(self.backend, ShardServerBackend):
            graph = self._server_build(batch_tasks, snapshots, t, stats)
        else:
            graph = sharded_build_candidates(
                batch_tasks,
                snapshots,
                t,
                shards=self.dist.shards,
                cell_km=cfg.index_cell_km,
                max_candidates=cfg.max_candidates,
                backend=self.backend,
                stats=stats,
                planner=self._planner,
            )
            layout = self._planner._layout
            self._last_specs = list(layout.specs) if layout is not None else []
        self.batch_stats.append(stats)
        self._last_merge_t = t
        obs.counter("dist.serve.boundary_workers", stats.n_boundary_workers)
        return graph

    def _server_build(
        self,
        batch_tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
        stats: ShardStats,
    ) -> dict[int, list[int]]:
        """One batch against the long-lived shard servers.

        The coordinator routes tasks and halo members through the sticky
        layout, diffs each stripe's working set against the mirror of
        what its server holds, and ships only the delta — new/expired
        tasks and snapshots whose predicted track changed (tracked by
        array identity; the prediction cache shares the array across
        hits).  One pipelined delta+build round per server per batch.
        """
        cfg = self.config
        round_idx = self._round
        self._round += 1
        with obs.span(ROUND_SPAN, round=round_idx, t=t):
            with obs.span(PREPARE_SPAN):
                layout = self._planner.layout_for(batch_tasks)
                if layout is None:
                    return {}
                self._last_specs = list(layout.specs)
                horizon = latest_horizon(batch_tasks, t)
                members = self._planner.memberships(layout, snapshots, horizon)
                n_shards = len(layout)

                owned: list[dict[int, SpatialTask]] = [{} for _ in range(n_shards)]
                for task in batch_tasks:
                    col = math.floor(task.location.x / layout.cell_km)
                    owned[layout.shard_for_column(col)][task.task_id] = task

                deltas: list[dict] = []
                builds: list[dict] = []
                for s in range(n_shards):
                    mirror = self._server_tasks[s]
                    adds = [
                        encode_task(task)
                        for tid, task in owned[s].items()
                        if tid not in mirror
                    ]
                    removes = sorted(mirror - owned[s].keys())
                    self._server_tasks[s] = set(owned[s])

                    shipped = self._server_preds[s]
                    snap_adds = []
                    member_ids = []
                    for pos in members[s]:
                        snap = snapshots[pos]
                        member_ids.append(snap.worker_id)
                        held = shipped.get(snap.worker_id)
                        if held is None or not same_track(held, snap.predicted_xy):
                            snap_adds.append(encode_snapshot(snap))
                            shipped[snap.worker_id] = snap.predicted_xy
                    deltas.append(
                        {
                            "tasks_add": adds,
                            "tasks_remove": removes,
                            "snaps_add": snap_adds,
                        }
                    )
                    builds.append(
                        {
                            "t": t,
                            "cell_km": cfg.index_cell_km,
                            "max_candidates": cfg.max_candidates,
                            "horizon": horizon,
                            "member_ids": member_ids,
                        }
                    )

            backend = self.backend
            with obs.span(SOLVE_SPAN, shards=n_shards):
                solve_started = time.perf_counter()
                graphs = batch_step(backend.handles[:n_shards], deltas, builds)
                solve_seconds = time.perf_counter() - solve_started

            with obs.span(MERGE_SPAN):
                started = time.perf_counter()
                merged: dict[int, list[int]] = {}
                for graph in graphs:
                    merged.update(graph)
                merge_seconds = time.perf_counter() - started
            obs.histogram("dist.merge.seconds", merge_seconds)

            seen: dict[int, int] = {}
            for posns in members:
                for pos in posns:
                    seen[pos] = seen.get(pos, 0) + 1
            stats.n_shards = n_shards
            stats.tasks_per_shard = [len(o) for o in owned]
            stats.snapshots_per_shard = [len(p) for p in members]
            stats.pairs_per_shard = [sum(len(v) for v in g.values()) for g in graphs]
            stats.n_boundary_workers = sum(1 for c in seen.values() if c > 1)
            stats.merge_seconds = merge_seconds
            self._flush_telemetry(round_idx, solve_seconds, n_shards)
        return merged

    def _flush_telemetry(self, round_idx: int, solve_seconds: float, n_shards: int) -> None:
        """Round boundary: flush server spools, attribute the stragglers.

        Only runs when distributed spooling is configured *and* a trace
        is active (workers install telemetry lazily off the propagated
        context, so flushing an untraced run would be a wasted
        round-trip).  Flush replies carry each server's busy seconds
        for the round; the gap to the solve window is that shard's IPC
        wait, and the busiest shard is the round's straggler.
        """
        dist_obs = self.dist.obs
        if dist_obs is None or not dist_obs.enabled or current_context() is None:
            return
        # Flush every server (not just this round's active stripes) so
        # spools stay durable even for shards the layout left idle.
        replies = self.backend.scatter_commands(
            [("obs_flush", None)] * len(self.backend.handles)
        )
        busy: dict[int, float] = {}
        for shard_id, reply in enumerate(replies):
            if not isinstance(reply, dict):
                continue
            busy[shard_id] = float(reply.get("busy_s") or 0.0)
            if reply.get("profile"):
                self.profile_hotspots.append(
                    {
                        "round": round_idx,
                        "shard": shard_id,
                        "pid": reply.get("pid"),
                        "top": reply["profile"],
                    }
                )
        if not busy:
            return
        straggler = max(busy, key=lambda s: busy[s])
        for shard_id, busy_s in busy.items():
            obs.gauge(labelled("dist.shard.busy_s", shard=shard_id), busy_s)
            obs.gauge(
                labelled("dist.shard.ipc_wait_s", shard=shard_id),
                max(solve_seconds - busy_s, 0.0),
            )
        obs.gauge("dist.shard.straggler", straggler)
        obs.counter(labelled("dist.shard.straggler_rounds", shard=straggler))

    def _run_observers(self, t_start, t_end, forecast):
        router = ShardRouter(self)
        return [router] + super()._run_observers(
            t_start, t_end, forecast, shard_of=router.shard_of
        )

    # ------------------------------------------------------------------
    @property
    def boundary_workers_total(self) -> int:
        """Boundary-worker shipments summed over every batch so far."""
        return sum(s.n_boundary_workers for s in self.batch_stats)

    def close(self) -> None:
        """Release the backend, if this engine created it."""
        if self._owns_backend:
            self.backend.close()
