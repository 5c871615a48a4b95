"""The benchmark's three workloads: set-up from a seed, then one run.

Every workload is a batch job.  ``setup(seed)`` generates the whole
input from the seed (and, for ``paper-ppi``, trains the predictor);
``Prepared.run(trace)`` replays it in simulated time as fast as the
engine goes, single-process and single-threaded, and returns an
:class:`Outcome`.  A prepared input is run once and thrown away: the
serve scenarios' ``DeadReckoningProvider`` holds an RNG, so a reused
input could silently change the stream of a later run.

The plain run reads the clock once per engine event (serve) or once
per provider round and assign call (paper pipeline), enough to time
each executed assignment round.  The traced run (``trace=True``) adds
the per-layer timers of :mod:`tracing`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.assignment.ppi import PPIConfig, ppi_assign_candidates
from repro.meta.maml import MAMLConfig
from repro.obs.decisions import DecisionConfig
from repro.obs.monitor import MonitorConfig
from repro.pipeline import (
    AssignmentConfig,
    PredictionConfig,
    WorkloadSpec,
    make_workload1,
    train_predictor,
)
from repro.pipeline.prediction import PredictiveSnapshotProvider
from repro.sc.platform import BatchPlatform
from repro.scenarios import (
    ScenarioSpec,
    assign_fns,
    build_serve_config,
    get_policy,
    get_scenario,
    materialize,
    signature_digest,
)

from tracing import (
    BenchEngine,
    LayerTimes,
    OfferCounter,
    RoundClock,
    clocked_provider,
    counted_assign,
    timed_call,
)


@dataclass
class Outcome:
    """What one run of a prepared input produced."""

    result: object  # SimulationResult (paper-ppi) or ServeResult (serve)
    run_s: float
    batch_ms: list[float]
    digest: str
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def n_shed(self) -> int:
        return getattr(self.result, "n_shed", 0)


@dataclass
class Prepared:
    """One workload's generated input, ready for exactly one run."""

    setup_s: float
    setup_parts: dict[str, float]
    run: Callable[[bool], Outcome]


# ----------------------------------------------------------------------
# paper-ppi: GTTAML prediction + PPI through BatchPlatform.

#: ``compare``'s meta-training settings (``repro.cli``).
PAPER_MAML = MAMLConfig(iterations=10, meta_batch=4, inner_steps=2)


def setup_paper_ppi(seed: int) -> Prepared:
    started = time.perf_counter()
    workload, learning = make_workload1(WorkloadSpec(seed=seed))
    built = time.perf_counter()
    predictor = train_predictor(
        learning,
        workload.city,
        PredictionConfig(
            algorithm="gttaml", loss="task_oriented", seed=seed, maml=PAPER_MAML
        ),
        workload.historical_tasks_xy,
    )
    trained = time.perf_counter()

    def run(trace: bool) -> Outcome:
        # The objects ``run_assignment(workload, "ppi", ...)`` builds,
        # assembled here so the provider and assign calls can be timed.
        cfg = AssignmentConfig()
        ppi_cfg = PPIConfig(a=cfg.ppi_a_km, epsilon=cfg.ppi_epsilon)
        layers = LayerTimes() if trace else None
        offers = OfferCounter() if trace else None
        matcher = layers.matcher() if trace else None
        clock = RoundClock()
        provider = PredictiveSnapshotProvider(predictor, cfg, sample_step=10.0)
        if trace:
            provider = timed_call(provider, layers, "prediction")

        def assign(tasks, snapshots, t):
            return ppi_assign_candidates(tasks, snapshots, t, None, ppi_cfg, matcher=matcher)

        if trace:
            assign = timed_call(assign, layers, "assign")
        platform = BatchPlatform(
            workload.workers,
            clocked_provider(provider, clock),
            batch_window=cfg.batch_window,
            assignment_window=cfg.assignment_window,
        )
        t_start, t_end = workload.horizon()
        run_started = time.perf_counter()
        result = platform.run(
            workload.tasks,
            clock.closing(assign),
            t_start,
            t_end,
            outcome_listener=offers,
        )
        run_s = time.perf_counter() - run_started
        outcome = Outcome(result, run_s, clock.samples_ms, signature_digest(result))
        if trace:
            outcome.layers = layers.summary(run_s, result, offers)
        return outcome

    return Prepared(
        setup_s=trained - started,
        setup_parts={"workload.s": built - started, "training.s": trained - built},
        run=run,
    )


# ----------------------------------------------------------------------
# Serve workloads: ServeEngine over a registry scenario and policy.

def hotspot_scenario(seed: int) -> ScenarioSpec:
    """``hot-cell-burst`` at twice its registry populations."""
    base = get_scenario("hot-cell-burst")
    params = dict(base.params)
    params["n_workers"] *= 2
    params["n_tasks"] *= 2
    return ScenarioSpec(generator=base.generator, seed=seed, params=params)


def loaded_scenario(seed: int) -> ScenarioSpec:
    base = get_scenario("bench-serve-engine")
    return ScenarioSpec(generator=base.generator, seed=seed, params=dict(base.params))


def _setup_serve(scenario: ScenarioSpec, policy_name: str, hooks: bool) -> Prepared:
    started = time.perf_counter()
    data = materialize(scenario)
    policy = get_policy(policy_name)
    config = build_serve_config(
        policy,
        monitor=MonitorConfig() if hooks else None,
        decisions=DecisionConfig(path=None) if hooks else None,
    )
    assign_fn, candidate_fn = assign_fns(policy.algorithm)
    built = time.perf_counter()

    def run(trace: bool) -> Outcome:
        layers = LayerTimes() if trace else None
        offers = OfferCounter() if trace else None
        clock = RoundClock()
        provider = data.provider
        candidate = candidate_fn
        if trace:
            provider = timed_call(provider, layers, "prediction")
            matcher = layers.matcher()

            def candidate(tasks, snapshots, t, graph):
                return candidate_fn(tasks, snapshots, t, graph, matcher=matcher)

            candidate = timed_call(candidate, layers, "assign")
        engine = BenchEngine(
            data.workers,
            provider,
            config,
            assign_fn=counted_assign(assign_fn, clock),
            candidate_assign_fn=counted_assign(candidate, clock),
            clock=clock,
            layers=layers,
        )
        run_started = time.perf_counter()
        result = engine.run(data.tasks, data.t_start, data.t_end, outcome_listener=offers)
        run_s = time.perf_counter() - run_started
        outcome = Outcome(result, run_s, clock.samples_ms, signature_digest(result))
        if trace:
            outcome.layers = layers.summary(run_s, result, offers)
        return outcome

    return Prepared(setup_s=built - started, setup_parts={}, run=run)


def setup_serve_loaded(seed: int) -> Prepared:
    return _setup_serve(loaded_scenario(seed), "bench-serve-engine", hooks=False)


def setup_serve_hotspot(seed: int) -> Prepared:
    return _setup_serve(hotspot_scenario(seed), "forecast-prepositioned", hooks=True)


WORKLOADS: dict[str, Callable[[int], Prepared]] = {
    "paper-ppi": setup_paper_ppi,
    "serve-loaded": setup_serve_loaded,
    "serve-hotspot": setup_serve_hotspot,
}
