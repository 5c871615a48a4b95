"""Unit tests for the demand-forecasting subsystem (:mod:`repro.forecast`).

Covers the three layers on their own: demand extraction (grids, bins,
windowing), the forecaster zoo behind the ``DemandForecaster``
protocol, and the dispatch pieces (config validation, the forecast
trigger, routine splicing, and gap planning).
"""

import numpy as np
import pytest

from repro.forecast import (
    DemandSeries,
    EWMAForecaster,
    ForecastConfig,
    ForecastRuntime,
    ForecastTrigger,
    Move,
    SeasonalNaiveForecaster,
    Seq2SeqForecaster,
    demand_windows,
    extract_demand,
    grid_for_tasks,
    make_forecaster,
    relocated_worker,
    train_eval_split,
)
from repro.forecast.models import DemandForecaster
from repro.geo.point import Point
from repro.geo.trajectory import Trajectory, TrajectoryPoint
from repro.sc.entities import SpatialTask, Worker
from repro.serve.streams import (
    HotCellBurstConfig,
    RushHourConfig,
    make_hot_cell_task_stream,
)


def task(task_id, x, y, release, valid=10.0):
    return SpatialTask(
        task_id=task_id,
        location=Point(x, y),
        release_time=release,
        deadline=release + valid,
    )


class TestDemandExtraction:
    def test_grid_for_tasks_covers_every_task(self):
        tasks = [task(0, 1.0, 2.0, 0.0), task(1, 9.0, 4.0, 1.0)]
        grid = grid_for_tasks(tasks, rows=4, cols=4)
        for t in tasks:
            i, j = grid.to_cell(t.location)
            assert 0 <= i < 4 and 0 <= j < 4

    def test_extract_counts_land_in_their_bin_and_cell(self):
        tasks = [task(0, 0.5, 0.5, 0.0), task(1, 0.5, 0.5, 2.5), task(2, 9.5, 9.5, 2.5)]
        grid = grid_for_tasks(tasks, rows=2, cols=2)
        series = extract_demand(tasks, grid, bin_minutes=2.0, t_start=0.0, t_end=6.0)
        assert series.n_bins == 3
        assert series.counts.sum() == 3
        assert series.counts[0].sum() == 1  # [0, 2)
        assert series.counts[1].sum() == 2  # [2, 4)
        # The two t=2.5 tasks are in opposite corners → different cells.
        assert np.count_nonzero(series.counts[1]) == 2

    def test_active_cells_busiest_first_and_deterministic(self):
        counts = np.zeros((4, 6))
        counts[:, 2] = 5.0
        counts[:, 4] = 1.0
        series = DemandSeries(
            grid=grid_for_tasks([task(0, 1, 1, 0.0)], rows=2, cols=3),
            bin_minutes=1.0,
            t_start=0.0,
            counts=counts,
        )
        active = series.active_cells(top_k=2)
        assert list(active) == [2, 4]

    def test_train_eval_split_is_temporal(self):
        counts = np.arange(10, dtype=float).reshape(10, 1)
        series = DemandSeries(
            grid=grid_for_tasks([task(0, 1, 1, 0.0)], rows=1, cols=1),
            bin_minutes=1.0,
            t_start=0.0,
            counts=counts,
        )
        train, eval_ = train_eval_split(series, eval_fraction=0.3)
        assert train.n_bins == 7 and eval_.n_bins == 3
        assert eval_.t_start == pytest.approx(7.0)
        assert np.array_equal(eval_.counts[:, 0], [7.0, 8.0, 9.0])

    def test_demand_windows_shapes_and_alignment(self):
        counts = np.arange(8, dtype=float).reshape(8, 1)
        X, Y = demand_windows(counts, seq_in=3, seq_out=2)
        assert X.shape == (4, 3, 1) and Y.shape == (4, 2, 1)
        assert np.array_equal(X[0, :, 0], [0, 1, 2])
        assert np.array_equal(Y[0, :, 0], [3, 4])


class TestForecasters:
    def series(self, counts):
        counts = np.asarray(counts, dtype=float)
        return DemandSeries(
            grid=grid_for_tasks([task(0, 1, 1, 0.0)], rows=1, cols=counts.shape[1]),
            bin_minutes=1.0,
            t_start=0.0,
            counts=counts,
        )

    def test_protocol_conformance(self):
        for model in (EWMAForecaster(), SeasonalNaiveForecaster(), Seq2SeqForecaster()):
            assert isinstance(model, DemandForecaster)

    def test_ewma_tracks_level(self):
        history = np.full((6, 2), 3.0)
        pred = EWMAForecaster(alpha=0.5).predict(history, steps=2)
        assert pred.shape == (2, 2)
        assert np.allclose(pred, 3.0)

    def test_seasonal_naive_repeats_the_period(self):
        history = np.array([[1.0], [9.0], [1.0], [9.0]])
        pred = SeasonalNaiveForecaster(period_bins=2).predict(history, steps=2)
        assert np.allclose(pred[:, 0], [1.0, 9.0])

    def test_seasonal_naive_short_history_falls_back_to_last_bin(self):
        history = np.array([[4.0]])
        pred = SeasonalNaiveForecaster(period_bins=8).predict(history, steps=1)
        assert np.allclose(pred, 4.0)

    def test_seq2seq_fit_predict_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(3.0, size=(24, 4)).astype(float)
        series = self.series(counts)
        kwargs = dict(hidden_size=8, seq_in=4, epochs=5, top_cells=3, seed=1)
        a = Seq2SeqForecaster(**kwargs).fit(series).predict(counts[-4:], steps=2)
        b = Seq2SeqForecaster(**kwargs).fit(series).predict(counts[-4:], steps=2)
        assert a.shape == (2, 4)
        assert np.all(a >= 0.0)
        assert np.array_equal(a, b)

    def test_make_forecaster_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown forecaster"):
            make_forecaster("arima")


class TestForecastConfig:
    def test_defaults_validate(self):
        ForecastConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(model="prophet"),
            dict(bin_minutes=0.0),
            dict(history_bins=0),
            dict(grid_rows=0),
            dict(width_km=-1.0),
            dict(demand_threshold=0.0),
            dict(gap_threshold=0.0),
            dict(max_moves=0),
            dict(detour_fraction=1.5),
            dict(cooldown_minutes=-1.0),
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            ForecastConfig(**kwargs)

    def test_make_forecaster_maps_models(self):
        assert isinstance(ForecastConfig(model="ewma").make_forecaster(), EWMAForecaster)
        seasonal = ForecastConfig(model="seasonal_naive", history_bins=5).make_forecaster()
        assert isinstance(seasonal, SeasonalNaiveForecaster)
        assert seasonal.period_bins == 5
        seq = ForecastConfig(model="seq2seq", history_bins=4, horizon_bins=2).make_forecaster()
        assert isinstance(seq, Seq2SeqForecaster)
        assert (seq.seq_in, seq.seq_out) == (4, 2)


def runtime_for(tasks, config=None, t_end=20.0):
    return ForecastRuntime(config or ForecastConfig(), 0.0, t_end, tasks=tasks)


class TestForecastTrigger:
    def test_degrades_to_adaptive_without_runtime(self):
        trigger = ForecastTrigger(pending_threshold=2, demand_threshold=1.0)
        pending = {0: task(0, 1, 1, 0.0)}
        assert not trigger.should_fire_early(5.0, 0.0, pending)
        pending[1] = task(1, 1, 1, 0.0)
        assert trigger.should_fire_early(5.0, 0.0, pending)

    def test_predicted_pressure_fires(self):
        tasks = [task(i, 1.0, 1.0, 0.5 * i) for i in range(20)]
        runtime = runtime_for(tasks)
        for t in tasks:
            runtime.arrived(t, t.release_time)
        runtime.advance(12.0)
        assert runtime.predicted_pending(12.0) > 0.0
        trigger = ForecastTrigger(demand_threshold=2.0, runtime=runtime)
        pending = {0: tasks[0]}
        assert trigger.should_fire_early(12.0, 0.0, pending)
        # Respect the refractory interval even under predicted pressure.
        assert not trigger.should_fire_early(12.0, 11.9, pending)
        # And an empty queue never fires.
        assert not trigger.should_fire_early(12.0, 0.0, {})


class TestRelocation:
    def worker(self):
        routine = Trajectory(
            [
                TrajectoryPoint(Point(0.0, 0.0), 0.0),
                TrajectoryPoint(Point(10.0, 0.0), 10.0),
                TrajectoryPoint(Point(10.0, 10.0), 20.0),
            ]
        )
        return Worker(worker_id=3, routine=routine, detour_budget_km=5.0,
                      speed_km_per_min=1.0)

    def test_splice_preserves_span_and_visits_target(self):
        worker = self.worker()
        move = Move(worker_id=3, cell=(0, 1), target=Point(5.0, 5.0),
                    distance_km=5.0, depart_t=5.0, arrive_t=10.0, gap=2.0)
        relocated = relocated_worker(worker, move)
        assert relocated.routine.start_time == worker.routine.start_time
        assert relocated.routine.end_time == worker.routine.end_time
        assert relocated.routine.position_at(10.0) == Point(5.0, 5.0)
        # Departure leaves from where the original routine stood.
        assert relocated.routine.position_at(5.0) == Point(5.0, 0.0)
        times = [p.time for p in relocated.routine]
        assert times == sorted(times)

    def test_splice_resumes_the_original_tail(self):
        worker = self.worker()
        move = Move(worker_id=3, cell=(0, 1), target=Point(8.0, 8.0),
                    distance_km=3.0, depart_t=15.0, arrive_t=18.0, gap=1.0)
        relocated = relocated_worker(worker, move)
        assert relocated.routine.end_time == pytest.approx(20.0)
        assert relocated.routine.position_at(18.0) == Point(8.0, 8.0)
        # The original final sample survives, so check-out position holds.
        assert relocated.routine.position_at(20.0) == Point(10.0, 10.0)


class TestPlanMoves:
    def hot_corner_runtime(self):
        # All demand in the far corner of a 10x10 extent.
        tasks = [task(i, 9.5, 9.5, 0.4 * i) for i in range(30)]
        tasks.append(task(99, 0.2, 0.2, 0.0))  # pins the extent
        config = ForecastConfig(
            grid_rows=2, grid_cols=2, bin_minutes=2.0,
            prepositioning=True, gap_threshold=1.0, max_moves=2,
            detour_fraction=1.0, cooldown_minutes=4.0,
        )
        runtime = runtime_for(tasks, config)
        for t in sorted(tasks, key=lambda t: t.release_time):
            runtime.arrived(t, t.release_time)
        runtime.advance(13.0)
        return runtime

    def idle_worker(self, worker_id, x, y):
        routine = Trajectory(
            [TrajectoryPoint(Point(x, y), 0.0), TrajectoryPoint(Point(x, y), 20.0)]
        )
        return Worker(worker_id=worker_id, routine=routine,
                      detour_budget_km=50.0, speed_km_per_min=5.0)

    def test_moves_head_to_the_hot_cell_and_respect_caps(self):
        runtime = self.hot_corner_runtime()
        workers = [self.idle_worker(i, 1.0, 1.0) for i in range(5)]
        moves = runtime.plan_moves(13.0, workers, pending={})
        assert moves, "a predicted hot cell with idle supply elsewhere must move someone"
        assert len(moves) <= 2
        hot = runtime.grid.to_cell(Point(9.5, 9.5))
        assert all(m.cell == hot for m in moves)
        # Cooldown: the same workers are not moved again right away.
        again = runtime.plan_moves(13.5, workers, pending={})
        moved = {m.worker_id for m in moves}
        assert moved.isdisjoint({m.worker_id for m in again})

    def test_detour_budget_gates_moves(self):
        runtime = self.hot_corner_runtime()
        near = self.idle_worker(0, 1.0, 1.0)
        broke = Worker(
            worker_id=1, routine=near.routine, detour_budget_km=0.5,
            speed_km_per_min=5.0,
        )
        moves = runtime.plan_moves(13.0, [broke], pending={})
        assert moves == []

    def test_mae_accumulates_after_finish(self):
        runtime = self.hot_corner_runtime()
        runtime.finish()
        assert runtime.mae() is not None and runtime.mae() >= 0.0
        cell_mae = runtime.cell_mae()
        assert all(v >= 0.0 for v in cell_mae.values())


class TestStreamHorizonValidation:
    def test_burst_outside_horizon_names_the_field(self):
        with pytest.raises(ValueError, match="burst_start"):
            HotCellBurstConfig(t_end=60.0, burst_start=80.0)

    def test_burst_inside_horizon_ok(self):
        make_hot_cell_task_stream(HotCellBurstConfig(n_tasks=10, burst_start=10.0))

    def test_peak_outside_horizon_names_the_field(self):
        with pytest.raises(ValueError, match="peak_times"):
            RushHourConfig(t_end=30.0, peak_times=(15.0, 45.0))

    def test_boundary_peak_allowed(self):
        RushHourConfig(t_end=45.0, peak_times=(15.0, 45.0))
