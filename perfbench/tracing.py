"""Round clocks and per-layer timers, recorded from the benchmark side.

Nothing here patches the program.  The layers are timed where the
benchmark hands them to the engine: the snapshot provider and the
assign function are wrapped, PPI receives a timed ``matcher=``, and
:class:`BenchEngine` overrides ``ServeEngine``'s two extension points,
``_build_candidates`` (the spatial index) and ``_on_event`` (one clock
read per event, which times the assignment rounds of the plain run).
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.assignment.hungarian import maximum_weight_matching
from repro.serve import ServeEngine, ServeResult


class RoundClock:
    """Wall time of every executed assignment round.

    ``assign_calls`` counts calls of the assign function; a round is an
    event (serve) or a batch (``BatchPlatform``) that made such a call.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.assign_calls = 0
        self.batch_time: float | None = None
        self.started = 0.0

    @property
    def samples_ms(self) -> list[float]:
        return [s * 1e3 for s in self.samples]

    def closing(self, assign):
        """``assign`` ending a ``BatchPlatform`` round opened by
        :func:`clocked_provider`: one clock read per call."""

        def closed(tasks, snapshots, t):
            plan = assign(tasks, snapshots, t)
            self.samples.append(time.perf_counter() - self.started)
            return plan

        return closed


def clocked_provider(provider, clock: RoundClock):
    """``provider`` opening a round at the first snapshot of each batch."""

    def snapshot(worker, t):
        if t != clock.batch_time:
            clock.batch_time = t
            clock.started = time.perf_counter()
        return provider(worker, t)

    return snapshot


def counted_assign(assign, clock: RoundClock):
    """``assign`` counting its calls into ``clock`` (no clock read)."""

    def counted(*args):
        clock.assign_calls += 1
        return assign(*args)

    return counted


class LayerTimes:
    """Busy seconds and call counts per layer of one traced run."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges = 0

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] += seconds
        self.calls[layer] += 1

    def matcher(self):
        """A timed :func:`maximum_weight_matching` for PPI's ``matcher=``."""

        def match(edges):
            started = time.perf_counter()
            matching = maximum_weight_matching(edges)
            self.add("hungarian", time.perf_counter() - started)
            self.edges += len(edges)
            return matching

        return match

    def summary(self, run_s: float, result, offers: "OfferCounter") -> dict[str, float]:
        """The per-layer metrics of a traced run, by their benchmark names.

        ``result`` is the run's ``SimulationResult``; the serve layers
        (cache, index, shedding, forecast, monitor, decision log) exist
        only on a ``ServeResult`` and read 0 otherwise.  The engine's
        snapshot timer covers the prediction cache as well as the
        provider, so what it holds beyond the provider's own time is
        the cache's bookkeeping.
        """
        served = isinstance(result, ServeResult)

        def serve(name: str) -> float:
            return float(getattr(result, name) or 0.0) if served else 0.0

        s = self.seconds
        prediction = s["prediction"]
        calls = self.calls["prediction"]
        cache = result.prediction_seconds - prediction if served else 0.0
        hungarian = s["hungarian"]
        ppi = s["assign"] - hungarian
        timed = prediction + cache + s["spatial_index"] + ppi + hungarian
        calibration = (result.calibration or {}) if served else {}
        return {
            "prediction.s": prediction,
            "prediction.calls": float(calls),
            "prediction.us_per_call": prediction / calls * 1e6 if calls else 0.0,
            "prediction_cache.s": cache,
            "prediction_cache.hit_ratio": serve("cache_hit_rate"),
            "prediction_cache.invalidations": serve("cache_invalidations"),
            "spatial_index.s": s["spatial_index"],
            "spatial_index.pairs": serve("n_candidate_pairs"),
            "spatial_index.sparsity": serve("candidate_sparsity"),
            "ppi.s": ppi,
            "hungarian.s": hungarian,
            "hungarian.calls": float(self.calls["hungarian"]),
            "hungarian.edges": float(self.edges),
            "acceptance.offers": float(offers.offers),
            "acceptance.accept_ratio": offers.accepted / offers.offers if offers.offers else 0.0,
            "acceptance.repeat_offer_ratio": offers.repeats / offers.offers
            if offers.offers
            else 0.0,
            "engine.self_s": run_s - timed,
            "engine.batches": float(len(result.batches)),
            "engine.early_batches": serve("n_early_batches"),
            "engine.shed_tasks": serve("n_shed"),
            "forecast.moves": serve("n_prepositioned"),
            "forecast.mae": serve("forecast_mae"),
            "calibration.ece": float(calibration.get("ece") or 0.0),
            "calibration.drift_events": serve("n_drift_events"),
            "decisions.records": serve("n_decisions"),
        }


def timed_call(fn, layers: LayerTimes, layer: str):
    """``fn`` with its calls timed into ``layers[layer]``."""

    def timed(*args):
        started = time.perf_counter()
        out = fn(*args)
        layers.add(layer, time.perf_counter() - started)
        return out

    return timed


class OfferCounter:
    """An ``outcome_listener`` counting offers, acceptances and repeats.

    A repeat offer proposes a (task, worker) pair that was offered
    before in the same run.
    """

    def __init__(self) -> None:
        self.offers = 0
        self.accepted = 0
        self.repeats = 0
        self._seen: set[tuple[int, int]] = set()

    def __call__(self, task_id: int, worker_id: int, accepted: bool, t: float) -> None:
        self.offers += 1
        self.accepted += accepted
        pair = (task_id, worker_id)
        if pair in self._seen:
            self.repeats += 1
        else:
            self._seen.add(pair)


class BenchEngine(ServeEngine):
    """``ServeEngine`` timing its rounds and, when traced, its index.

    ``_on_event`` reads the clock once per event; an event during which
    the assign function ran (``clock.assign_calls`` moved) was an
    executed round, and the time since the previous event is its wall
    time.  With ``layers`` set, ``_build_candidates`` is timed as the
    spatial-index layer.
    """

    def __init__(self, *args, clock: RoundClock, layers: LayerTimes | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._clock = clock
        self._layers = layers
        self._last_event = 0.0
        self._rounds_seen = 0

    def run(self, *args, **kwargs):
        self._rounds_seen = self._clock.assign_calls
        self._last_event = time.perf_counter()
        return super().run(*args, **kwargs)

    def _on_event(self, event) -> None:
        now = time.perf_counter()
        if self._clock.assign_calls != self._rounds_seen:
            self._rounds_seen = self._clock.assign_calls
            self._clock.samples.append(now - self._last_event)
        self._last_event = now

    def _build_candidates(self, batch_tasks, snapshots, t):
        if self._layers is None:
            return super()._build_candidates(batch_tasks, snapshots, t)
        started = time.perf_counter()
        graph = super()._build_candidates(batch_tasks, snapshots, t)
        self._layers.add("spatial_index", time.perf_counter() - started)
        return graph
