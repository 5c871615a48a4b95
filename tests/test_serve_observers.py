"""Run observers: what the opt-in layers record, pinned end to end.

The monitor (with calibration), the decision log, the lifecycle metrics
and the forecast runtime all attach to ``ServeEngine.run`` as run
observers.  These tests pin their combined output on a registry
scenario, so a change to how the engine feeds them cannot move a single
record unnoticed:

* one sha256 over the decision records, the pre-position records, the
  calibration summary and the monitor samples of ``hot-cell-burst``
  under ``forecast-prepositioned``, with every wall-clock field and
  wall-time histogram dropped;
* turning calibration on leaves the decision records unchanged (both
  read the same believed completion probability per offer).
"""

import hashlib
import json

from repro.obs import MonitorConfig, read_series
from repro.obs.decisions import DecisionConfig
from repro.scenarios import (
    assign_fns,
    build_serve_config,
    get_policy,
    get_scenario,
    materialize,
)
from repro.serve import ServeEngine

#: Histograms of wall time (batch latency, loop lag, KM solve time);
#: they differ between runs of the same code.
WALL_HISTOGRAMS = ("serve.loop.lag_s", "serve.batch.latency_s", "km.solve_seconds")

#: sha256 of the observer output of ``hot-cell-burst`` under
#: ``forecast-prepositioned`` (see :func:`observer_digest`).
HOT_CELL_BURST_DIGEST = "8f8ac968e6be18c709ccf6c389cdcc4ee8b706f8ff57c44f51c09f6c647d8152"


def run_hot_cell_burst(monitor: MonitorConfig):
    """``hot-cell-burst`` under ``forecast-prepositioned`` with a log."""
    data = materialize(get_scenario("hot-cell-burst"))
    policy = get_policy("forecast-prepositioned")
    assign_fn, candidate_fn = assign_fns(policy.algorithm)
    engine = ServeEngine(
        data.workers,
        data.provider,
        build_serve_config(policy, monitor=monitor, decisions=DecisionConfig(path=None)),
        assign_fn=assign_fn,
        candidate_assign_fn=candidate_fn,
    )
    result = engine.run(data.tasks, data.t_start, data.t_end)
    return result, engine.decision_log


def deterministic_samples(series: list[dict]) -> list[dict]:
    """Monitor samples without wall-clock fields or wall-time histograms."""
    samples = []
    for record in series:
        if record.get("type") != "sample":
            continue
        record = dict(record)
        record.pop("wall_unix", None)
        record["histograms"] = {
            name: window
            for name, window in record["histograms"].items()
            if name not in WALL_HISTOGRAMS
        }
        samples.append(record)
    return samples


def observer_digest(result, log, series: list[dict]) -> str:
    payload = {
        "decisions": log.records,
        "prepositions": log.moves,
        "calibration": result.calibration,
        "samples": deterministic_samples(series),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def test_hot_cell_burst_observer_output_is_pinned(tmp_path):
    # The series file holds exactly the monitor's in-memory samples.
    series_path = tmp_path / "run.series.jsonl"
    result, log = run_hot_cell_burst(MonitorConfig(series_path=str(series_path)))
    assert result.calibration is not None
    assert log.moves and len(log.records) == result.n_tasks
    digest = observer_digest(result, log, read_series(series_path))
    assert digest == HOT_CELL_BURST_DIGEST


def test_calibration_leaves_decision_records_unchanged():
    _, plain = run_hot_cell_burst(MonitorConfig(calibration=None))
    calibrated, logged = run_hot_cell_burst(MonitorConfig())
    assert calibrated.calibration is not None
    assert logged.records == plain.records
    assert logged.moves == plain.moves
