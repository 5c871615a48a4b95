"""Benchmark: cost of observability, from no-op tracing to shard spools.

Three arms, three bars, all written to ``BENCH_obs_overhead.json``:

* **no-op recorder** — the instrumentation left in the meta-training
  inner loop must be free when no recorder is installed.  A/B-times the
  shipped (instrumented) ``repro.meta.maml.adapt`` against a local
  replica of its body with the ``obs`` calls stripped, best-of-N over
  many adapt calls per sample (bar: ``MAX_OVERHEAD_PCT``).
* **distributed tracing** — a sharded shard-server serving run with
  full cross-process telemetry (trace-context frames, per-shard JSONL
  spools, round-boundary ``obs_flush``) against the identical untraced
  run.  Plan parity (``result_signature``) is asserted on every
  measurement pair — the untraced arm runs the byte-identical 3-tuple
  wire frames of the pre-observability protocol — and the enabled cost
  must stay under ``MAX_DIST_OVERHEAD_PCT`` (bar asserted by the
  ``dist_obs_bench`` guard in :mod:`benchmarks.check_regression`).
* **decision log** — the identical serve run with and without
  ``ServeConfig.decisions`` (one provenance record per task appended
  to a JSONL log).  Plan parity (``result_signature``) is asserted on
  every pair — a decision log that changed the plan would be a
  correctness bug — and the enabled cost must stay under
  ``MAX_DECISIONS_OVERHEAD_PCT`` (bar asserted by the
  ``decision_bench`` guard in :mod:`benchmarks.check_regression`).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

or as an opt-in pytest check (not collected by the default run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -m obs_bench
    PYTHONPATH=src python -m pytest benchmarks/check_regression.py -m dist_obs_bench
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.assignment.ppi import ppi_assign
from repro.dist import DistConfig, ShardedEngine, component_candidate_assign
from repro.meta.learning_task import LearningTask
from repro.meta.maml import adapt, resolve_fast_path
from repro.nn import fused
from repro.nn.losses import mse_loss
from repro.nn.module import apply_gradient_step, clone_parameters
from repro.nn.seq2seq import make_mobility_model
from repro.nn.tensor import Tensor
from repro.obs import NOOP, JsonlSink, get_recorder
from repro.obs.dist import DistObsConfig, list_spools
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)

OUTPUT = Path(__file__).parent.parent / "BENCH_obs_overhead.json"

#: The pipeline-default inner-loop shape (PredictionConfig / MAMLConfig).
SHAPE = {"seq_in": 5, "seq_out": 1, "features": 2, "hidden": 16, "batch": 16}
INNER_STEPS = 3
INNER_LR = 0.1
#: Acceptance bar: no-op instrumentation must cost under this fraction.
MAX_OVERHEAD_PCT = 2.0

#: The sharded serving scenario of the distributed arm: loaded enough
#: that per-round shard-server traffic dominates process start-up, and
#: square so the sticky stripe layout occupies every shard.
DIST_SHAPE = {
    "n_workers": 200, "n_tasks": 400, "t_end": 60.0,
    "width_km": 25.0, "height_km": 25.0, "seed": 5, "shards": 2,
}
#: Acceptance bar for *enabled* distributed tracing on the end-to-end
#: sharded run (spools + context frames + flushes).
MAX_DIST_OVERHEAD_PCT = 10.0

#: Acceptance bar for the *enabled* decision log on the end-to-end
#: serve run (per-site record updates + one JSONL append per task).
MAX_DECISIONS_OVERHEAD_PCT = 10.0


def _plain_adapt(model, task, loss_fn, inner_lr, inner_steps, support_batch, rng, fast_path):
    """``maml.adapt`` with the observability calls stripped (control arm)."""
    params = {k: v.clone(requires_grad=True) for k, v in clone_parameters(model).items()}
    fast = resolve_fast_path(fast_path, model)
    for _ in range(inner_steps):
        if support_batch is not None:
            xb, yb = task.support_batch(support_batch, rng)
        else:
            xb, yb = task.support_x, task.support_y
        if fast:
            _, grads = fused.loss_and_grads(model, params, xb, yb, loss_fn)
        else:
            pred = model.functional_call(params, Tensor(xb))
            loss = loss_fn(pred, Tensor(yb))
            from repro.meta.maml import _named_grads

            grads = _named_grads(loss, params)
        params = apply_gradient_step(params, grads, inner_lr)
    return params


def _make_task(rng: np.random.Generator) -> LearningTask:
    n = SHAPE["batch"]
    return LearningTask(
        worker_id=0,
        support_x=rng.normal(size=(n, SHAPE["seq_in"], SHAPE["features"])),
        support_y=rng.normal(size=(n, SHAPE["seq_out"], SHAPE["features"])),
        query_x=rng.normal(size=(n, SHAPE["seq_in"], SHAPE["features"])),
        query_y=rng.normal(size=(n, SHAPE["seq_out"], SHAPE["features"])),
    )


def _time_adapts(fn, model, task, calls: int, samples: int, warmup: int = 2) -> float:
    """Best-of-``samples`` wall time of ``calls`` adapt calls, in seconds."""
    rng = np.random.default_rng(7)
    for _ in range(warmup):
        fn(model, task, mse_loss, INNER_LR, INNER_STEPS, None, rng, "auto")
    best = float("inf")
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(calls):
            fn(model, task, mse_loss, INNER_LR, INNER_STEPS, None, rng, "auto")
        best = min(best, time.perf_counter() - start)
    return best


def run(calls: int = 40, samples: int = 12) -> dict:
    assert get_recorder() is NOOP, "bench must run with the no-op recorder installed"
    rng = np.random.default_rng(0)
    model = make_mobility_model(
        "lstm",
        input_size=SHAPE["features"],
        hidden_size=SHAPE["hidden"],
        seq_out=SHAPE["seq_out"],
        rng=rng,
    )
    task = _make_task(rng)

    def shipped(model, task, loss_fn, inner_lr, inner_steps, support_batch, rng, fast_path):
        return adapt(
            model,
            task,
            loss_fn,
            inner_lr=inner_lr,
            inner_steps=inner_steps,
            support_batch=support_batch,
            rng=rng,
            fast_path=fast_path,
        )

    # Interleave the arms so slow host drift hits both equally.
    instrumented = min(_time_adapts(shipped, model, task, calls, samples) for _ in range(2))
    plain = min(_time_adapts(_plain_adapt, model, task, calls, samples) for _ in range(2))
    overhead_pct = (instrumented / plain - 1.0) * 100.0
    return {
        "shape": SHAPE,
        "inner_steps": INNER_STEPS,
        "calls_per_sample": calls,
        "samples": samples,
        "instrumented_s": instrumented,
        "plain_s": plain,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }


def _dist_scenario():
    cfg = StreamConfig(**{k: v for k, v in DIST_SHAPE.items() if k != "shards"})
    return make_task_stream(cfg), make_worker_fleet(cfg)


def _run_dist_once(tasks, workers, traced: bool, tmp: str) -> tuple[float, str]:
    """One sharded shard-server serve run; wall seconds + plan signature.

    The timed window covers ``engine.run`` plus (traced arm) recorder
    finalisation — i.e. everything tracing adds per run: context
    frames, spool writes, round flushes, and the merge-ready trace
    file.  Server shutdown is excluded from both arms alike.
    """
    obs_cfg = None
    if traced:
        obs_cfg = DistObsConfig(spool_dir=str(Path(tmp) / "spools"))
    engine = ShardedEngine(
        workers,
        DeadReckoningProvider(seed=DIST_SHAPE["seed"]),
        ServeConfig(),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign("ppi"),
        dist=DistConfig(
            backend="shard_server",
            shards=DIST_SHAPE["shards"],
            workers=2,
            obs=obs_cfg,
        ),
    )
    try:
        if traced:
            start = time.perf_counter()
            with obs.recording(JsonlSink(str(Path(tmp) / "run.trace.jsonl"))):
                result = engine.run(tasks, 0.0, DIST_SHAPE["t_end"])
            elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            result = engine.run(tasks, 0.0, DIST_SHAPE["t_end"])
            elapsed = time.perf_counter() - start
    finally:
        engine.close()
    return elapsed, result_signature(result)


def run_dist(samples: int = 3) -> dict:
    """Best-of-``samples`` untraced vs traced sharded serve, interleaved.

    Every untraced/traced pair must produce the identical
    ``result_signature`` — tracing that changed the plan would make the
    timing comparison meaningless (and would be a correctness bug).
    """
    assert get_recorder() is NOOP, "bench must start with the no-op recorder installed"
    tasks, workers = _dist_scenario()
    best_off = best_on = float("inf")
    n_spools = 0
    for _ in range(samples):
        with tempfile.TemporaryDirectory() as tmp:
            off_s, off_sig = _run_dist_once(tasks, workers, False, tmp)
        with tempfile.TemporaryDirectory() as tmp:
            on_s, on_sig = _run_dist_once(tasks, workers, True, tmp)
            n_spools = len(list_spools(str(Path(tmp) / "spools")))
        assert off_sig == on_sig, "tracing changed the serving plan"
        best_off = min(best_off, off_s)
        best_on = min(best_on, on_s)
    overhead_pct = (best_on / best_off - 1.0) * 100.0
    return {
        "shape": DIST_SHAPE,
        "samples": samples,
        "untraced_s": best_off,
        "traced_s": best_on,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_DIST_OVERHEAD_PCT,
        "n_spools": n_spools,
    }


def _run_decisions_once(tasks, workers, log_path: str | None) -> tuple[float, str]:
    """One single-process serve run; wall seconds + plan signature."""
    from repro.assignment.ppi import ppi_assign_candidates
    from repro.obs.decisions import DecisionConfig
    from repro.serve import ServeEngine

    decisions = DecisionConfig(path=log_path) if log_path is not None else None
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=DIST_SHAPE["seed"]),
        ServeConfig(use_index=True, cache_ttl=6.0, decisions=decisions),
        assign_fn=ppi_assign,
        candidate_assign_fn=ppi_assign_candidates,
    )
    start = time.perf_counter()
    result = engine.run(tasks, 0.0, DIST_SHAPE["t_end"])
    elapsed = time.perf_counter() - start
    if decisions is not None:
        assert result.n_decisions == len(tasks), "decision log missed tasks"
    return elapsed, result_signature(result)


def run_decisions(samples: int = 5) -> dict:
    """Best-of-``samples`` serve run with the decision log off vs on.

    Every off/on pair must produce the identical ``result_signature``
    — the log observes decisions, it never makes them.
    """
    assert get_recorder() is NOOP, "bench must run with the no-op recorder installed"
    tasks, workers = _dist_scenario()
    best_off = best_on = float("inf")
    for _ in range(samples):
        off_s, off_sig = _run_decisions_once(tasks, workers, None)
        with tempfile.TemporaryDirectory() as tmp:
            on_s, on_sig = _run_decisions_once(
                tasks, workers, str(Path(tmp) / "run.decisions.jsonl")
            )
        assert off_sig == on_sig, "the decision log changed the serving plan"
        best_off = min(best_off, off_s)
        best_on = min(best_on, on_s)
    overhead_pct = (best_on / best_off - 1.0) * 100.0
    return {
        "shape": DIST_SHAPE,
        "samples": samples,
        "disabled_s": best_off,
        "enabled_s": best_on,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_DECISIONS_OVERHEAD_PCT,
        "n_decisions": len(tasks),
    }


@pytest.mark.obs_bench
def test_noop_recorder_overhead():
    # Host noise can swing a single A/B pass either way; only an
    # overhead that reproduces on an immediate re-measure counts.
    for attempt in range(2):
        result = run()
        if result["overhead_pct"] < MAX_OVERHEAD_PCT:
            return
    assert result["overhead_pct"] < MAX_OVERHEAD_PCT, (
        f"no-op recorder costs {result['overhead_pct']:.2f}% on the inner loop "
        f"(bar: {MAX_OVERHEAD_PCT:.1f}%)"
    )


def main() -> int:
    result = run()
    result["dist"] = dist = run_dist()
    result["decisions"] = decisions = run_decisions()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"instrumented {result['instrumented_s'] * 1e3:7.3f} ms"
        f" | plain {result['plain_s'] * 1e3:7.3f} ms"
        f" | overhead {result['overhead_pct']:+.2f}% (bar {MAX_OVERHEAD_PCT:.1f}%)"
    )
    print(
        f"dist traced  {dist['traced_s']:7.3f} s "
        f" | untraced {dist['untraced_s']:7.3f} s "
        f" | overhead {dist['overhead_pct']:+.2f}% (bar {MAX_DIST_OVERHEAD_PCT:.1f}%)"
        f" | spools {dist['n_spools']}"
    )
    print(
        f"decisions on {decisions['enabled_s']:7.3f} s "
        f" | off      {decisions['disabled_s']:7.3f} s "
        f" | overhead {decisions['overhead_pct']:+.2f}%"
        f" (bar {MAX_DECISIONS_OVERHEAD_PCT:.1f}%)"
        f" | records {decisions['n_decisions']}"
    )
    print(f"[saved to {OUTPUT}]")
    ok = (
        result["overhead_pct"] < MAX_OVERHEAD_PCT
        and dist["overhead_pct"] < MAX_DIST_OVERHEAD_PCT
        and decisions["overhead_pct"] < MAX_DECISIONS_OVERHEAD_PCT
    )
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
