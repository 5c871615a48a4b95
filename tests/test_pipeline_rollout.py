"""Online rollouts against the autograd tape, and the provider's memo.

``tape_rollout`` is the reference: the autoregressive loop run through
the tape forward ``model(Tensor(window))``.  The pipeline's rollout runs
the fused tape-free kernels and must match it bit for bit; the
predictive provider reruns it only when a worker shares a new sample.
"""

import bisect
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.trajectory import Trajectory
from repro.nn.seq2seq import make_mobility_model
from repro.nn.tensor import Tensor
from repro.pipeline import prediction
from repro.pipeline.adaptive import AdaptiveMRSnapshotProvider
from repro.pipeline.config import AssignmentConfig
from repro.pipeline.prediction import PredictiveSnapshotProvider, _recent_shared_track, rollout
from tests.test_pipeline import learning_tasks_module, small_workload_module, trained  # noqa: F401


def tape_rollout(model, recent_norm, horizon_points):
    window = np.asarray(recent_norm, dtype=float).copy()
    out = []
    while sum(len(o) for o in out) < horizon_points:
        pred = model(Tensor(window[None, :, :])).numpy()[0]
        out.append(pred)
        window = np.concatenate([window, pred])[-len(recent_norm) :]
    return np.concatenate(out)[:horizon_points]


@settings(max_examples=60, deadline=None)
@given(
    cell=st.sampled_from(["lstm", "gru"]),
    seq_in=st.integers(1, 6),
    seq_out=st.integers(1, 3),
    horizon=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_rollout_is_bitwise_the_tape_rollout(cell, seq_in, seq_out, horizon, seed):
    rng = np.random.default_rng(seed)
    model = make_mobility_model(cell, hidden_size=5, seq_out=seq_out, rng=rng)
    recent = rng.uniform(0.0, 1.0, size=(seq_in, 2))
    out = rollout(model, recent, horizon, seq_out)
    assert out.shape == (horizon, 2)
    assert np.array_equal(out, tape_rollout(model, recent, horizon))


class TestProviderMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts the provider's rollouts."""
        made = []
        real = prediction.rollout

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(prediction, "rollout", counting)
        return made

    @staticmethod
    def batch_times(workload):
        t0, t1 = workload.horizon()
        return np.arange(t0, t1, AssignmentConfig().batch_window)

    @staticmethod
    def reference(trained, models, worker, t):
        """The snapshot's route, built afresh through the tape."""
        if worker.worker_id not in models:
            models[worker.worker_id] = trained.model_for(worker.worker_id)
        grid = trained.city.grid
        recent, _ = _recent_shared_track(worker, t, trained.config.seq_in)
        pred = tape_rollout(
            models[worker.worker_id], grid.normalize(recent), AssignmentConfig().horizon_points
        )
        return grid.denormalize(pred)

    def test_every_batch_matches_the_tape(self, trained, small_workload_module):
        wl = small_workload_module
        provider = PredictiveSnapshotProvider(trained, AssignmentConfig())
        models = {}
        for t in self.batch_times(wl):
            for w in wl.workers:
                expected = self.reference(trained, models, w, t)
                assert np.array_equal(provider(w, t).predicted_xy, expected)

    def test_one_rollout_per_new_shared_sample(self, trained, small_workload_module, calls):
        wl = small_workload_module
        provider = PredictiveSnapshotProvider(trained, AssignmentConfig())
        keys = set()
        times = self.batch_times(wl)
        for t in times:
            for w in wl.workers:
                provider(w, t)
                keys.add((w.worker_id, bisect.bisect_right(w.routine.times, t)))
        assert len(calls) == len(keys)
        assert len(calls) < len(times) * len(wl.workers)

    def test_nothing_shared_yet_is_not_kept(self, trained, small_workload_module, calls):
        w = small_workload_module.workers[0]
        provider = PredictiveSnapshotProvider(trained, AssignmentConfig())
        before = w.routine.start_time - 4.0
        provider(w, before)
        provider(w, before)
        assert len(calls) == 2

    def test_replaced_routine_gets_a_fresh_rollout(self, trained, small_workload_module, calls):
        w = small_workload_module.workers[0]
        t = w.routine.start_time + 60.0
        provider = PredictiveSnapshotProvider(trained, AssignmentConfig())
        first = provider(w, t).predicted_xy
        shifted = Trajectory.from_arrays(w.routine.xy + 1.0, w.routine.times)
        moved = dataclasses.replace(w, routine=shifted)
        second = provider(moved, t).predicted_xy
        assert len(calls) == 2
        assert not np.array_equal(first, second)
        assert np.array_equal(second, self.reference(trained, {}, moved, t))

    def test_predicted_route_is_read_only(self, trained, small_workload_module):
        w = small_workload_module.workers[0]
        provider = PredictiveSnapshotProvider(trained, AssignmentConfig())
        snap = provider(w, w.routine.start_time + 30.0)
        assert not snap.predicted_xy.flags.writeable
        with pytest.raises(ValueError):
            snap.predicted_xy[0, 0] = 0.0

    def test_adaptive_provider_gets_fresh_snapshots(self, trained, small_workload_module, calls):
        w = small_workload_module.workers[0]
        t = w.routine.start_time + 30.0
        adaptive = AdaptiveMRSnapshotProvider(PredictiveSnapshotProvider(trained, AssignmentConfig()))
        first = adaptive(w, t)
        first_rate = first.matching_rate
        adaptive.outcome_listener(0, w.worker_id, False, t)
        second = adaptive(w, t)
        assert second is not first
        assert first.matching_rate == first_rate
        assert second.matching_rate < first_rate
        assert second.predicted_times is not first.predicted_times
        assert np.array_equal(second.predicted_xy, first.predicted_xy)
        assert len(calls) == 1
