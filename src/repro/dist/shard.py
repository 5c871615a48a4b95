"""Spatial sharding of the assignment stage, with exact merge.

The paper's Theorem 2 bounds how far a worker can detour:
``min(d/2, sp * (deadline - t))``.  That makes one assignment batch
spatially decomposable — a worker whose predicted points all lie
further than that radius from a task can never serve it — so the grid
splits into ``K`` x-stripes of index cell columns, and each stripe's
candidate generation runs independently:

* **tasks** are owned by exactly one stripe (the one owning their cell
  column) — the merge is a disjoint union, no conflicts by construction;
* **workers** join every stripe their radius-expanded predicted points
  touch (the *halo*), computed with the same
  :func:`repro.serve.spatial_index.cells_in_radius` arithmetic the index
  itself queries with, so shard membership covers exactly the buckets a
  query could read;
* the **horizon** (latest pending deadline) is computed once over the
  global task set and passed down, because a shard-local horizon would
  shrink halo radii.

Under those three rules the merged candidate graph **equals** the dense
single-process :func:`~repro.serve.spatial_index.build_candidates`
output — including per-task worker order (stripes preserve global
snapshot order) and ``max_candidates`` pruning (each task's full
candidate list lives in its owning stripe).  The parity tests pin this.

Matching then decomposes by *connected components* of the edge graph:
stages 1 and 3 of PPI (and all of KM) are global max-weight matchings,
and a maximum matching restricted to a connected component is the
component of a global maximum matching whenever the optimum is unique —
the ordinary case with generic float weights (reciprocal distances).
:class:`ComponentMatcher` plugs into
:func:`repro.assignment.ppi.ppi_assign_candidates` /
:func:`repro.assignment.baselines.km_assign_candidates` via their
``matcher`` hook and re-sorts the merged matching into the ascending
left-id order the dense solver emits.  PPI's stage-2 epsilon-chunking
is order-sensitive and *not* component-decomposable, so it stays on the
coordinator — its chunks are at most ``epsilon`` edges anyway.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.obs.metrics import labelled
from repro.assignment.baselines import km_assign_candidates
from repro.assignment.hungarian import WarmStartState, maximum_weight_matching
from repro.assignment.plan import AssignmentPlan
from repro.assignment.ppi import PPIConfig, ppi_assign_candidates
from repro.dist.backend import Backend, SerialBackend
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve.spatial_index import build_candidates, cells_in_radius, latest_horizon

Edge = tuple[int, int, float]


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One x-stripe of index cell columns, ``col_lo..col_hi`` inclusive."""

    shard_id: int
    col_lo: int
    col_hi: int

    def owns_column(self, col: int) -> bool:
        return self.col_lo <= col <= self.col_hi


@dataclass
class ShardStats:
    """Per-batch accounting of one sharded candidate build."""

    n_shards: int = 0
    tasks_per_shard: list[int] = field(default_factory=list)
    snapshots_per_shard: list[int] = field(default_factory=list)
    pairs_per_shard: list[int] = field(default_factory=list)
    n_boundary_workers: int = 0
    merge_seconds: float = 0.0


def make_shards(
    tasks: Sequence[SpatialTask], k: int, cell_km: float = 1.0
) -> list[ShardSpec]:
    """Partition the occupied cell columns into ``K`` contiguous stripes.

    Stripes split the *occupied* column list (columns that actually hold
    tasks) into near-equal runs, so skewed workloads still spread across
    shards.  ``k`` is capped at the occupied column count — more stripes
    than columns cannot own anything.
    """
    if k < 1:
        raise ValueError("need at least one shard")
    if cell_km <= 0:
        raise ValueError("cell size must be positive")
    cols = sorted({math.floor(t.location.x / cell_km) for t in tasks})
    if not cols:
        return []
    k = min(k, len(cols))
    shards: list[ShardSpec] = []
    base, extra = divmod(len(cols), k)
    start = 0
    for shard_id in range(k):
        size = base + (1 if shard_id < extra else 0)
        run = cols[start : start + size]
        start += size
        shards.append(ShardSpec(shard_id=shard_id, col_lo=run[0], col_hi=run[-1]))
    return shards


def shard_memberships(
    shards: Sequence[ShardSpec],
    snapshots: Sequence[WorkerSnapshot],
    horizon: float,
    cell_km: float,
) -> list[list[int]]:
    """Snapshot positions per shard, preserving global snapshot order.

    A snapshot joins every stripe whose column range intersects the
    cells its radius-``min(d/2, sp * horizon)`` queries would scan
    (:func:`cells_in_radius` around each predicted point) — the halo.
    Snapshots the dense path would skip (no predicted points, zero
    radius) join nothing, exactly as the dense loop `continue`s them.
    """
    col_to_shard: dict[int, int] = {}
    for spec in shards:
        for col in range(spec.col_lo, spec.col_hi + 1):
            col_to_shard[col] = spec.shard_id
    members: list[list[int]] = [[] for _ in shards]
    for pos, snap in enumerate(snapshots):
        if len(snap.predicted_xy) == 0:
            continue
        radius = min(snap.detour_budget_km / 2.0, snap.speed_km_per_min * horizon)
        if radius <= 0:
            continue
        touched: set[int] = set()
        for x, y in snap.predicted_xy:
            for cx, _cy in cells_in_radius(float(x), float(y), radius, cell_km):
                shard_id = col_to_shard.get(cx)
                if shard_id is not None:
                    touched.add(shard_id)
        for shard_id in sorted(touched):
            members[shard_id].append(pos)
    return members


def same_track(a, b) -> bool:
    """Whether two predicted-point arrays are the same shared buffer.

    The prediction cache hands out ``dataclasses.replace`` copies whose
    ``predicted_xy`` is a fresh *view* of the cached array (the entity's
    ``__post_init__`` reshapes), so object identity misses; the data
    pointer plus shape doesn't.  Sound as a version check only while a
    reference to ``a`` is retained (the buffer can't be freed and its
    address recycled) and tracks are never mutated in place — both true
    of every snapshot producer in the repo.
    """
    if a is b:
        return True
    return (
        a.shape == b.shape
        and a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
    )


@dataclass(frozen=True)
class ShardLayout:
    """A sticky stripe layout extended to a *total* column→shard map.

    :func:`make_shards` only assigns the columns occupied by the batch
    that built it; a layout reused across batches must own every column
    a future task might land in.  The gaps and the open ends clamp to
    the nearest stripe via midpoint boundaries.  Any total map keeps the
    sharded build exact: a task's owning stripe and a worker's halo
    stripes go through the *same* map, so a worker in query range of a
    task always joins the stripe that owns it — stripe skew only ever
    costs balance, never candidates.
    """

    specs: tuple[ShardSpec, ...]
    #: ``boundaries[s]`` = last column routed to stripe ``s`` (midpoint
    #: between ``specs[s].col_hi`` and ``specs[s + 1].col_lo``).
    boundaries: tuple[int, ...]
    cell_km: float
    generation: int = 0

    @classmethod
    def from_specs(
        cls, specs: Sequence[ShardSpec], cell_km: float, generation: int = 0
    ) -> "ShardLayout":
        ordered = tuple(sorted(specs, key=lambda s: s.col_lo))
        bounds = tuple(
            (ordered[s].col_hi + ordered[s + 1].col_lo) // 2
            for s in range(len(ordered) - 1)
        )
        return cls(specs=ordered, boundaries=bounds, cell_km=cell_km, generation=generation)

    def shard_for_column(self, col: int) -> int:
        return bisect_left(self.boundaries, col)

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class ShardPlanner:
    """Caches the stripe layout and worker halo lookups across batches.

    Recomputing :func:`make_shards` and rasterising every snapshot's
    halo (:func:`shard_memberships`) each batch is the serial overhead
    that made sharding *lose* time; both are stable across consecutive
    batches.  The layout is computed once from the first non-empty task
    batch and kept (optionally refreshed every ``relayout_every``
    batches); halo memberships are cached per worker and reused while
    the snapshot's predicted track (array identity — the prediction
    cache shares it across hits), radius, and layout generation are
    unchanged.
    """

    shards: int
    cell_km: float = 1.0
    #: refresh the stripe layout every N batches; ``None`` = sticky.
    relayout_every: int | None = None
    #: drop halo cache entries unused for this many batches.
    prune_every: int = 64
    _layout: ShardLayout | None = None
    _batches: int = 0
    _generation: int = 0
    #: worker_id -> (predicted_xy ref, radius, layout generation,
    #: touched shard ids, last-used batch)
    _halo: dict[int, tuple[object, float, int, tuple[int, ...], int]] = field(
        default_factory=dict
    )
    halo_hits: int = 0
    halo_misses: int = 0

    def layout_for(self, tasks: Sequence[SpatialTask]) -> ShardLayout | None:
        """The sticky layout, (re)built from ``tasks`` when due."""
        self._batches += 1
        due = self._layout is None or (
            self.relayout_every is not None
            and self._batches % self.relayout_every == 1
        )
        if due:
            specs = make_shards(tasks, self.shards, self.cell_km)
            if specs:
                self._generation += 1
                self._layout = ShardLayout.from_specs(
                    specs, self.cell_km, generation=self._generation
                )
        return self._layout

    def memberships(
        self,
        layout: ShardLayout,
        snapshots: Sequence[WorkerSnapshot],
        horizon: float,
    ) -> list[list[int]]:
        """Like :func:`shard_memberships`, but total-map routed and cached.

        Exactness does not depend on the cache key: a stale entry is
        impossible because a hit requires the *same* predicted-point
        array object, the same radius, and the same layout generation —
        everything the rasterisation reads.
        """
        members: list[list[int]] = [[] for _ in layout.specs]
        for pos, snap in enumerate(snapshots):
            if len(snap.predicted_xy) == 0:
                continue
            radius = min(snap.detour_budget_km / 2.0, snap.speed_km_per_min * horizon)
            if radius <= 0:
                continue
            entry = self._halo.get(snap.worker_id)
            if (
                entry is not None
                and same_track(entry[0], snap.predicted_xy)
                and entry[1] == radius
                and entry[2] == layout.generation
            ):
                touched = entry[3]
                self.halo_hits += 1
            else:
                seen: set[int] = set()
                for x, y in snap.predicted_xy:
                    for cx, _cy in cells_in_radius(float(x), float(y), radius, layout.cell_km):
                        seen.add(layout.shard_for_column(cx))
                touched = tuple(sorted(seen))
                self.halo_misses += 1
            self._halo[snap.worker_id] = (
                snap.predicted_xy, radius, layout.generation, touched, self._batches,
            )
            for shard_id in touched:
                members[shard_id].append(pos)
        if self.prune_every and self._batches % self.prune_every == 0:
            floor = self._batches - self.prune_every
            self._halo = {
                wid: entry for wid, entry in self._halo.items() if entry[4] >= floor
            }
        return members


@dataclass(frozen=True)
class ShardCandidateJob:
    """One stripe's candidate generation, as a picklable payload."""

    tasks: tuple[SpatialTask, ...]
    snapshots: tuple[WorkerSnapshot, ...]
    current_time: float
    cell_km: float
    max_candidates: int | None
    horizon: float


def run_shard_candidate_job(job: ShardCandidateJob) -> dict[int, list[int]]:
    """Build one stripe's candidate graph (the pool worker entry)."""
    return build_candidates(
        list(job.tasks),
        list(job.snapshots),
        job.current_time,
        cell_km=job.cell_km,
        max_candidates=job.max_candidates,
        horizon=job.horizon,
    )


def _serial_planner_build(
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    current_time: float,
    layout: ShardLayout,
    members: Sequence[Sequence[int]],
    tasks_by_shard: Sequence[Sequence[SpatialTask]],
    cell_km: float,
    max_candidates: int | None,
    horizon: float,
    stats: ShardStats | None,
) -> dict[int, list[int]]:
    """The planner path's serial coordinator fast path.

    With no pool to farm the stripe jobs to, running one
    :func:`build_candidates` per stripe re-queries every boundary
    worker's halo once per stripe it touches — pure duplication when a
    single process executes all stripes anyway.  Querying each halo
    once against the *global* task index yields the identical graphs: a
    task's hits can only come from workers whose halo touches its
    owning stripe (halo and ownership go through the same total map),
    so the dense graph partitioned by task ownership equals the union
    of the per-stripe builds, hit for hit and in the same snapshot
    order.  ``stats`` still reports the real decomposition — the one a
    parallel backend would execute.
    """
    merged = build_candidates(
        tasks, snapshots, current_time,
        cell_km=cell_km, max_candidates=max_candidates, horizon=horizon,
    )
    obs.histogram("dist.merge.seconds", 0.0)
    if stats is not None:
        task_owner = {
            task.task_id: s
            for s, owned in enumerate(tasks_by_shard)
            for task in owned
        }
        pairs = [0] * len(layout.specs)
        for task_id, workers in merged.items():
            pairs[task_owner[task_id]] += len(workers)
        seen: dict[int, int] = {}
        for posns in members:
            for pos in posns:
                seen[pos] = seen.get(pos, 0) + 1
        stats.n_shards = len(layout.specs)
        stats.tasks_per_shard = [len(t) for t in tasks_by_shard]
        stats.snapshots_per_shard = [len(posns) for posns in members]
        stats.pairs_per_shard = pairs
        stats.n_boundary_workers = sum(1 for c in seen.values() if c > 1)
        stats.merge_seconds = 0.0
        for s in range(len(layout.specs)):
            obs.counter(labelled("dist.shard.pairs", shard=s), pairs[s])
    return merged


def sharded_build_candidates(
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    current_time: float,
    shards: int,
    cell_km: float = 1.0,
    max_candidates: int | None = None,
    backend: Backend | None = None,
    stats: ShardStats | None = None,
    planner: ShardPlanner | None = None,
) -> dict[int, list[int]]:
    """The dense candidate graph, built stripe by stripe.

    Provably identical to ``build_candidates(tasks, snapshots, ...)``
    (module docstring has the argument; the parity tests have the
    receipts).  ``stats``, when given, is filled with the per-shard
    accounting of this batch.  ``planner``, when given, reuses its
    sticky layout and halo cache instead of re-sharding from scratch —
    the steady-state path for streaming callers.
    """
    resolved = backend if backend is not None else SerialBackend()
    horizon = latest_horizon(tasks, current_time)
    if planner is not None:
        layout = planner.layout_for(tasks)
        if layout is None:
            return {}
        specs = list(layout.specs)
        members = planner.memberships(layout, snapshots, horizon)
        tasks_by_shard = [[] for _ in specs]
        for task in tasks:
            col = math.floor(task.location.x / layout.cell_km)
            tasks_by_shard[layout.shard_for_column(col)].append(task)
        cell_km = layout.cell_km
        if isinstance(resolved, SerialBackend):
            return _serial_planner_build(
                tasks, snapshots, current_time, layout, members, tasks_by_shard,
                cell_km, max_candidates, horizon, stats,
            )
    else:
        specs = make_shards(tasks, shards, cell_km)
        if not specs:
            return {}
        members = shard_memberships(specs, snapshots, horizon, cell_km)

        tasks_by_shard = [[] for _ in specs]
        for task in tasks:
            col = math.floor(task.location.x / cell_km)
            for spec in specs:
                if spec.owns_column(col):
                    tasks_by_shard[spec.shard_id].append(task)
                    break

    jobs = [
        ShardCandidateJob(
            tasks=tuple(tasks_by_shard[s]),
            snapshots=tuple(snapshots[pos] for pos in members[s]),
            current_time=current_time,
            cell_km=cell_km,
            max_candidates=max_candidates,
            horizon=horizon,
        )
        for s in range(len(specs))
    ]
    graphs = resolved.map_ordered(run_shard_candidate_job, jobs)

    import time as _time

    started = _time.perf_counter()
    merged: dict[int, list[int]] = {}
    for graph in graphs:  # task ownership is disjoint: a plain union
        merged.update(graph)
    merge_seconds = _time.perf_counter() - started
    obs.histogram("dist.merge.seconds", merge_seconds)

    if stats is not None:
        shard_count = [0] * len(specs)
        for s, posns in enumerate(members):
            shard_count[s] = len(posns)
        seen: dict[int, int] = {}
        for posns in members:
            for pos in posns:
                seen[pos] = seen.get(pos, 0) + 1
        stats.n_shards = len(specs)
        stats.tasks_per_shard = [len(t) for t in tasks_by_shard]
        stats.snapshots_per_shard = shard_count
        stats.pairs_per_shard = [sum(len(v) for v in g.values()) for g in graphs]
        stats.n_boundary_workers = sum(1 for c in seen.values() if c > 1)
        stats.merge_seconds = merge_seconds
        for s in range(len(specs)):
            obs.counter(labelled("dist.shard.pairs", shard=s), stats.pairs_per_shard[s])
    return merged


# ----------------------------------------------------------------------
# connected-component matching
# ----------------------------------------------------------------------
def connected_components(edges: Sequence[Edge]) -> list[list[Edge]]:
    """Split an edge list into connected components of its bipartite graph.

    Task and worker ids live in separate namespaces, so vertices are
    keyed by side.  Components come out ordered by their smallest edge
    index and keep the input's edge order within — determinism the
    merge re-sort then makes irrelevant, but it keeps debugging sane.
    """
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(v: tuple[str, int]) -> tuple[str, int]:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def union(a: tuple[str, int], b: tuple[str, int]) -> None:
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for left, right, _ in edges:
        union(("t", left), ("w", right))

    by_root: dict[tuple[str, int], list[Edge]] = {}
    for edge in edges:
        by_root.setdefault(find(("t", edge[0])), []).append(edge)
    return list(by_root.values())


@dataclass
class WarmMatchCache:
    """Per-component :class:`WarmStartState` pool for a streaming matcher.

    A batch's matcher runs several solves (PPI's stages, then each
    connected component); the next batch's graph decomposes *almost*
    the same way.  States are keyed by ``(call index within the batch,
    component fingerprint)`` — the fingerprint is the smallest left id,
    stable while a component keeps any of its tasks.  A wrong reuse is
    harmless (the warm state is a pure accelerator, exactness lives in
    the state's own edge check), so the key only has to be *usually*
    right.  Entries untouched for ``keep_rounds`` batches are dropped.
    """

    keep_rounds: int = 8
    _states: dict = field(default_factory=dict)
    _last_used: dict = field(default_factory=dict)
    _round: int = 0
    _calls: int = 0

    def begin_round(self) -> None:
        """Start a new batch: reset the call counter, evict stale states."""
        self._round += 1
        self._calls = 0
        if self._round % self.keep_rounds == 0:
            floor = self._round - self.keep_rounds
            stale = [k for k, used in self._last_used.items() if used < floor]
            for k in stale:
                del self._states[k]
                del self._last_used[k]

    def next_call(self) -> int:
        idx = self._calls
        self._calls += 1
        return idx

    def state_for(self, key: tuple) -> WarmStartState:
        state = self._states.get(key)
        if state is None:
            state = WarmStartState()
            self._states[key] = state
        self._last_used[key] = self._round
        return state

    @property
    def identical_hits(self) -> int:
        return sum(s.identical_hits for s in self._states.values())

    @property
    def rows_reaugmented(self) -> int:
        return sum(s.rows_reaugmented for s in self._states.values())

    @property
    def rows_total(self) -> int:
        return sum(s.rows_total for s in self._states.values())

    def tier_counts(self) -> dict[str, int]:
        """Cumulative solve counts per warm-start tier across all states.

        Sampled before/after a batch's solve by the decision log
        (:mod:`repro.obs.decisions`) to name the tier that batch took.
        """
        counts = {"identical": 0, "warm": 0, "cold": 0}
        for state in self._states.values():
            counts["identical"] += state.identical_hits
            counts["warm"] += state.warm_solves
            counts["cold"] += state.cold_solves
        return counts

    def __len__(self) -> int:
        return len(self._states)


@dataclass
class ComponentMatcher:
    """A drop-in :data:`repro.assignment.ppi.Matcher` that decomposes.

    Solves each connected component with the dense Hungarian solver —
    optionally fanning components across a backend — and merges the
    results back into ascending left-id order, the exact order
    :func:`maximum_weight_matching` emits.  Equal to the global solve
    whenever the maximum-weight matching is unique (see the module
    docstring); edge lists at or below ``inline_below`` are solved
    directly, the decomposition overhead not being worth it (PPI's
    stage-2 chunks always land here).

    With ``warm`` set, every solve runs inline seeded from the cache's
    per-component :class:`WarmStartState` — unchanged components skip
    the solve entirely via the state's identical-edge-list fast path,
    changed ones re-augment only affected rows.  Warm solves do not fan
    out over the backend: the states live in this process, and shipping
    them would cost more than the solve.
    """

    backend: Backend | None = None
    inline_below: int = 16
    warm: WarmMatchCache | None = None
    #: filled per call: component count and largest component size.
    last_n_components: int = 0
    last_max_component: int = 0

    def __call__(self, edges: Sequence[Edge]) -> list[Edge]:
        warm = self.warm
        call_idx = warm.next_call() if warm is not None else 0
        if len(edges) <= self.inline_below:
            self.last_n_components = 1 if edges else 0
            self.last_max_component = len(edges)
            state = warm.state_for((call_idx, "inline")) if warm is not None else None
            return maximum_weight_matching(list(edges), warm=state)
        components = connected_components(edges)
        self.last_n_components = len(components)
        self.last_max_component = max(len(c) for c in components)
        obs.histogram("dist.match.components", len(components))
        if warm is not None:
            solved = [
                maximum_weight_matching(
                    c, warm=warm.state_for((call_idx, "c", min(e[0] for e in c)))
                )
                for c in components
            ]
        elif self.backend is not None and len(components) > 1:
            solved = self.backend.map_ordered(maximum_weight_matching, components)
        else:
            solved = [maximum_weight_matching(c) for c in components]
        merged = [edge for part in solved for edge in part]
        merged.sort(key=lambda e: e[0])
        return merged


# ----------------------------------------------------------------------
# sharded assignment entry points
# ----------------------------------------------------------------------
def sharded_ppi_assign(
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    current_time: float,
    shards: int,
    config: PPIConfig | None = None,
    cell_km: float = 1.0,
    max_candidates: int | None = None,
    backend: Backend | None = None,
    stats: ShardStats | None = None,
    planner: ShardPlanner | None = None,
    warm: WarmMatchCache | None = None,
) -> AssignmentPlan:
    """PPI over sharded candidates with component-decomposed matching.

    Reproduces ``ppi_assign(tasks, snapshots, current_time, config)``
    exactly (unique-optimum caveat in the module docstring): the merged
    candidate graph equals the dense superset of Theorem-2-feasible
    pairs, the stage control flow runs globally on the coordinator, and
    only the matmul-heavy KM solves decompose.  ``planner`` and ``warm``
    carry layout/halo and solver state across calls for streaming use.
    """
    candidates = sharded_build_candidates(
        tasks, snapshots, current_time, shards,
        cell_km=cell_km, max_candidates=max_candidates, backend=backend, stats=stats,
        planner=planner,
    )
    if warm is not None:
        warm.begin_round()
    matcher = ComponentMatcher(backend=backend, warm=warm)
    return ppi_assign_candidates(
        tasks, snapshots, current_time, candidates, config, matcher=matcher
    )


def sharded_km_assign(
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    current_time: float,
    shards: int,
    cell_km: float = 1.0,
    max_candidates: int | None = None,
    backend: Backend | None = None,
    stats: ShardStats | None = None,
    planner: ShardPlanner | None = None,
    warm: WarmMatchCache | None = None,
) -> AssignmentPlan:
    """KM over sharded candidates with component-decomposed matching."""
    candidates = sharded_build_candidates(
        tasks, snapshots, current_time, shards,
        cell_km=cell_km, max_candidates=max_candidates, backend=backend, stats=stats,
        planner=planner,
    )
    if warm is not None:
        warm.begin_round()
    matcher = ComponentMatcher(backend=backend, warm=warm)
    return km_assign_candidates(
        tasks, snapshots, current_time, candidates, matcher=matcher
    )
