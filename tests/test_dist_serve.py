"""ShardedEngine vs ServeEngine: identical serving results at any shard count.

``result_signature`` covers completion/rejection/expiry counts, the
ordered detour list, the completed-task id set, and per-batch records —
if the sharded candidate build changed any plan anywhere, it shows up
here.
"""

import numpy as np
import pytest

from repro.assignment.baselines import km_assign, km_assign_candidates
from repro.assignment.ppi import ppi_assign, ppi_assign_candidates
from repro.dist import DistConfig, ProcessBackend, ShardedEngine, component_candidate_assign
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)


def scenario(seed, n_workers=30, n_tasks=60, t_end=60.0):
    cfg = StreamConfig(n_workers=n_workers, n_tasks=n_tasks, t_end=t_end, seed=seed)
    return make_task_stream(cfg), make_worker_fleet(cfg)


def run_reference(tasks, workers, seed, algorithm="ppi", **config_kwargs):
    assign_fn, candidate_fn = {
        "ppi": (ppi_assign, ppi_assign_candidates),
        "km": (km_assign, km_assign_candidates),
    }[algorithm]
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(use_index=True, **config_kwargs),
        assign_fn=assign_fn,
        candidate_assign_fn=candidate_fn,
    )
    return engine.run(tasks, 0.0, 60.0)


def run_sharded(tasks, workers, seed, shards, algorithm="ppi", backend=None, **config_kwargs):
    assign_fn = {"ppi": ppi_assign, "km": km_assign}[algorithm]
    engine = ShardedEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(**config_kwargs),
        assign_fn=assign_fn,
        candidate_assign_fn=component_candidate_assign(algorithm),
        dist=DistConfig(shards=shards),
        backend=backend,
    )
    try:
        return engine.run(tasks, 0.0, 60.0), engine
    finally:
        engine.close()


class TestSignatureParity:
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_ppi_signature_matches_dense_engine(self, seed, shards):
        tasks, workers = scenario(seed)
        ref = result_signature(run_reference(tasks, workers, seed))
        got, engine = run_sharded(tasks, workers, seed, shards)
        assert result_signature(got) == ref
        assert len(engine.batch_stats) == got.n_batches

    def test_km_signature_matches_dense_engine(self):
        tasks, workers = scenario(2)
        ref = result_signature(run_reference(tasks, workers, 2, algorithm="km"))
        got, _ = run_sharded(tasks, workers, 2, shards=3, algorithm="km")
        assert result_signature(got) == ref

    def test_parity_with_serving_features_on(self):
        """Sharding composes with the cache and the adaptive trigger."""
        kwargs = dict(trigger="adaptive", pending_threshold=10, cache_ttl=4.0)
        tasks, workers = scenario(6)
        ref = result_signature(run_reference(tasks, workers, 6, **kwargs))
        got, _ = run_sharded(tasks, workers, 6, shards=2, **kwargs)
        assert result_signature(got) == ref

    def test_process_backend_matches_serial(self):
        tasks, workers = scenario(1, n_workers=15, n_tasks=30)
        ref = result_signature(run_reference(tasks, workers, 1))
        with ProcessBackend(workers=2) as backend:
            got, _ = run_sharded(tasks, workers, 1, shards=2, backend=backend)
        assert result_signature(got) == ref


class TestShardedEngineBehavior:
    def test_forces_use_index(self):
        _, workers = scenario(0)
        engine = ShardedEngine(
            workers,
            DeadReckoningProvider(seed=0),
            ServeConfig(),  # use_index not set by the caller
            assign_fn=ppi_assign,
            candidate_assign_fn=component_candidate_assign("ppi"),
        )
        assert engine.config.use_index is True
        engine.close()

    def test_requires_candidate_assign_fn(self):
        _, workers = scenario(0)
        with pytest.raises(ValueError):
            ShardedEngine(
                workers, DeadReckoningProvider(seed=0), ServeConfig(), assign_fn=ppi_assign
            )

    def test_boundary_worker_accounting(self):
        tasks, workers = scenario(0)
        got, engine = run_sharded(tasks, workers, 0, shards=4)
        assert engine.boundary_workers_total == sum(
            s.n_boundary_workers for s in engine.batch_stats
        )
        for stats in engine.batch_stats:
            assert stats.n_shards >= 1
            assert stats.merge_seconds >= 0.0
            assert len(stats.tasks_per_shard) == stats.n_shards

    def test_single_shard_has_no_boundary_workers(self):
        tasks, workers = scenario(3)
        _, engine = run_sharded(tasks, workers, 3, shards=1)
        assert engine.boundary_workers_total == 0

    def test_event_routing_metrics_emitted(self):
        """With a metrics recorder active, per-shard event counters and
        lag histograms appear as dist.shard.events{shard=k} and
        dist.shard.lag_s{shard=k}."""
        from repro import obs
        from repro.obs.metrics import split_labels
        from repro.obs.recorder import MetricsRecorder

        tasks, workers = scenario(5)
        previous = obs.set_recorder(MetricsRecorder())
        try:
            run_sharded(tasks, workers, 5, shards=2)
            metrics = obs.get_recorder().metrics
            counter_names = {split_labels(n)[0] for n in metrics.counters}
            histogram_names = {split_labels(n)[0] for n in metrics.histograms}
            assert "dist.shard.events" in counter_names
            assert "dist.shard.lag_s" in histogram_names
            assert "dist.merge.seconds" in histogram_names
        finally:
            obs.set_recorder(previous)

    def test_component_candidate_assign_validates_algorithm(self):
        with pytest.raises(ValueError):
            component_candidate_assign("greedy")
