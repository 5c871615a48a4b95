"""Online prediction: building worker snapshots per assignment batch.

The platform knows each worker's *shared location track* up to the
current batch time (workers "merely share their current location ...
when they are online", Section II); the predictive provider feeds the
last ``seq_in`` shared samples to the worker's adapted model and rolls
it out autoregressively for the assignment horizon.  The oracle and
current-location providers implement the UB and LB baselines' views.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geo.trajectory import Trajectory
from repro.nn import fused
from repro.pipeline.config import AssignmentConfig
from repro.pipeline.training import TrainedPredictor
from repro.sc.acceptance import oracle_future_route
from repro.sc.entities import Worker, WorkerSnapshot


def rollout(
    model,
    recent_norm: np.ndarray,
    horizon_points: int,
    seq_out: int,
    params: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Autoregressive rollout: predict ``horizon_points`` future points.

    ``recent_norm`` is the ``(seq_in, 2)`` normalised input window;
    each model call emits ``seq_out`` points which are appended to the
    window for the next call.  Every call runs the fused tape-free
    forward; ``params`` are the model's parameters as plain arrays
    (:func:`repro.nn.fused.as_param_arrays`), unwrapped here when the
    caller does not hold them already.
    """
    if params is None:
        params = fused.as_param_arrays(dict(model.named_parameters()))
    window = np.asarray(recent_norm, dtype=float)
    seq_in = len(window)
    out: list[np.ndarray] = []
    produced = 0
    while produced < horizon_points:
        pred = fused.seq2seq_predict(model, params, window[None, :, :])[0]
        out.append(pred)
        produced += len(pred)
        window = np.concatenate([window, pred])[-seq_in:]
    return np.concatenate(out)[:horizon_points]


@dataclass
class PredictiveSnapshotProvider:
    """Snapshots from the trained per-worker mobility models.

    The model's input is the last ``seq_in`` samples a worker shared, so
    its rollout changes only when the worker shares a new sample.  The
    provider keeps each worker's latest denormalised rollout, keyed by
    the routine object and the number of samples shared up to the batch
    time, and runs the model again only when that count moves.  A count
    of 0 pads from the interpolated position at the batch time, so it is
    never reused.  The kept arrays are read-only because every snapshot
    built from them shares them.
    """

    predictor: TrainedPredictor
    assignment: AssignmentConfig
    sample_step: float = 10.0

    def __post_init__(self) -> None:
        self._models: dict[int, tuple[object, dict[str, np.ndarray]]] = {}
        self._rollouts: dict[int, tuple[Trajectory, int, np.ndarray]] = {}

    def _model(self, worker_id: int) -> tuple[object, dict[str, np.ndarray]]:
        if worker_id not in self._models:
            model = self.predictor.model_for(worker_id)
            params = fused.as_param_arrays(dict(model.named_parameters()))
            self._models[worker_id] = (model, params)
        return self._models[worker_id]

    def _predicted_xy(self, worker: Worker, t: float) -> np.ndarray:
        routine = worker.routine
        times = routine.times
        shared = bisect.bisect_right(times, t)
        kept = self._rollouts.get(worker.worker_id)
        if kept is not None and kept[0] is routine and kept[1] == shared:
            return kept[2]
        city = self.predictor.city
        cfg = self.predictor.config
        recent_xy, _ = _shared_window(routine, times, shared, t, cfg.seq_in)
        model, params = self._model(worker.worker_id)
        pred_norm = rollout(
            model, city.grid.normalize(recent_xy), self.assignment.horizon_points, cfg.seq_out, params
        )
        pred_xy = city.grid.denormalize(pred_norm)
        pred_xy.flags.writeable = False
        if shared > 0:
            self._rollouts[worker.worker_id] = (routine, shared, pred_xy)
        return pred_xy

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        pred_xy = self._predicted_xy(worker, t)
        pred_times = t + self.sample_step * np.arange(1, len(pred_xy) + 1)
        return WorkerSnapshot(
            worker_id=worker.worker_id,
            current_location=worker.last_shared_location(t),
            predicted_xy=pred_xy,
            predicted_times=pred_times,
            detour_budget_km=worker.detour_budget_km,
            speed_km_per_min=worker.speed_km_per_min,
            matching_rate=self.predictor.matching_rates.get(worker.worker_id, 0.0),
        )


@dataclass
class OracleSnapshotProvider:
    """UB's view: the real future route, matching rate 1."""

    horizon_points: int = 6

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        xy, times = oracle_future_route(worker, t, self.horizon_points)
        return WorkerSnapshot(
            worker_id=worker.worker_id,
            current_location=worker.location_at(t),
            predicted_xy=xy,
            predicted_times=times,
            detour_budget_km=worker.detour_budget_km,
            speed_km_per_min=worker.speed_km_per_min,
            matching_rate=1.0,
        )


@dataclass
class CurrentLocationSnapshotProvider:
    """LB's view: nothing but the last *shared* location report.

    Between reports the platform's view is stale by up to one sample
    step - exactly the information gap mobility prediction closes.
    """

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        here = worker.last_shared_location(t)
        return WorkerSnapshot(
            worker_id=worker.worker_id,
            current_location=here,
            predicted_xy=np.array([[here.x, here.y]]),
            predicted_times=np.array([t]),
            detour_budget_km=worker.detour_budget_km,
            speed_km_per_min=worker.speed_km_per_min,
            matching_rate=0.0,
        )


def _recent_shared_track(worker: Worker, t: float, seq_in: int) -> tuple[np.ndarray, np.ndarray]:
    """The last ``seq_in`` locations the worker shared up to time ``t``.

    Pads by repeating the earliest sample when the worker just came
    online, so the model always receives a full window.
    """
    times = worker.routine.times
    return _shared_window(worker.routine, times, bisect.bisect_right(times, t), t, seq_in)


def _shared_window(
    routine: Trajectory, times: Sequence[float], shared: int, t: float, seq_in: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_recent_shared_track` given ``routine.times`` and the count
    ``shared`` of its samples at or before ``t``."""
    lo = max(shared - seq_in, 0)
    xy = routine.xy[lo:shared]
    ts = np.asarray(times[lo:shared])
    if len(xy) == 0:
        here = routine.position_at(t)
        xy = np.array([[here.x, here.y]])
        ts = np.array([t])
    while len(xy) < seq_in:
        xy = np.concatenate([xy[:1], xy])
        ts = np.concatenate([ts[:1] - 1.0, ts])
    return xy, ts
