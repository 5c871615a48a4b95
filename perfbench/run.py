"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-loaded --seed 2 --seconds 36 --trace 0

Every run sets its input up afresh from the seed.  With ``--trace 0``
a pass runs the workload's ``INPUTS`` inputs generated from ``--seed``; passes repeat
while another fits in ``--seconds``, and the last line carries the
end-to-end metrics.  With ``--trace 1`` plain/traced pairs of runs on
the input from ``--seed`` repeat while another pair fits, and the last
line carries the per-layer metrics.  Outputs are checked on every run;
see ``perfbench/README.md`` for the checks and the metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the benchmark measures the
# single-threaded engine, and OpenBLAS would otherwise start one thread
# per CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The metric names and units, from the benchmark's definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Per-layer metrics that are times: reported as medians over the
#: traced runs.  The rest are counts and ratios, equal on every traced
#: run of the input.
LAYER_TIMES = {name for name, unit in PER_LAYER.items() if unit in ("s", "us")}

#: Inputs of one pass of an untraced run, per workload: input ``i`` is
#: generated from ``seed + i * SEED_STRIDE``.  Several inputs average out
#: how much the work of one input varies with its seed; the counts are
#: fixed, so the quality metrics are deterministic per seed, and sized so
#: that one pass takes about ``run_seconds`` on a 2-CPU Xeon host.
INPUTS = {"paper-ppi": 2, "serve-loaded": 3, "serve-hotspot": 4}
SEED_STRIDE = 1000


def load_program():
    """Import the program from the checkout's ``src`` (and nothing else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS reports, if it exposes one."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def percentile(samples: list[float], q: int) -> tuple[float, int]:
    """The ``q``-th percentile and how many samples lie beyond it."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return value, sum(1 for s in samples if s > value)


def check_outcome(failures: list[str], outcome, expected: dict | None) -> int:
    """Check one run, appending to ``failures``; returns the tasks it lost."""
    r = outcome.result
    lost = r.n_tasks - (r.n_completed + r.n_expired + outcome.n_shed)
    if lost:
        failures.append(
            f"task accounting: {r.n_completed} completed + {r.n_expired} expired + "
            f"{outcome.n_shed} shed != {r.n_tasks} tasks"
        )
    if expected is None:
        return abs(lost)
    if outcome.digest != expected["digest"]:
        failures.append(f"signature digest {outcome.digest} != recorded {expected['digest']}")
    observed = {
        "completion_ratio": r.n_completed / r.n_tasks,
        "n_batches": len(r.batches),
        "n_shed": outcome.n_shed,
        "n_offers": r.n_assignments,
    }
    for name, want in expected.get("outcome", {}).items():
        if observed[name] != want:
            failures.append(f"{name} {observed[name]} != recorded {want}")
    return abs(lost)


class Runner:
    """Sets up and runs inputs of one workload, checking every run."""

    def __init__(self, workload: str, seed: int):
        from workloads import WORKLOADS

        self.workload = workload
        self.setup = WORKLOADS[workload]
        expected = json.loads((HERE / "expected.json").read_text())[workload]
        # Recorded outcomes are for the input generated from the default seed.
        self.expected = {seed: expected} if seed == expected["seed"] else {}
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.setup_parts: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, input_seed: int, traced: bool):
        """One fresh set-up of the input and one run of it."""
        # Collecting first keeps the previous input's garbage out of the
        # timed set-up and run.
        gc.collect()
        prepared = self.setup(input_seed)
        self.setups.append(prepared.setup_s)
        for part, value in prepared.setup_parts.items():
            self.setup_parts.setdefault(part, []).append(value)
        gc.collect()
        outcome = prepared.run(traced)
        self.attempted += outcome.result.n_tasks
        self.failed += check_outcome(
            self.failures, outcome, self.expected.get(input_seed)
        )
        return outcome

    def same_digest(self, label: str, outcomes: list) -> None:
        digests = {o.digest for o in outcomes}
        if len(digests) != 1:
            self.failures.append(f"runs of {label} disagree: {len(digests)} signature digests")


def repeat(seconds: float, once: Callable[[int], list]) -> list[list]:
    """Call ``once(i)`` for i = 0, 1, ... while another call fits in ``seconds``.

    It is called at least once.
    """
    rounds: list[list] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        round_started = time.perf_counter()
        rounds.append(once(len(rounds)))
        longest = max(longest, time.perf_counter() - round_started)
        if time.perf_counter() - started + longest > seconds:
            return rounds


def measure_plain(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    """Whole passes over the run's inputs; the end-to-end metrics."""
    seeds = [seed + i * SEED_STRIDE for i in range(INPUTS[runner.workload])]
    passes = repeat(seconds, lambda _: [runner.run(s, False) for s in seeds])
    by_input = list(zip(*passes))
    for s, outcomes in zip(seeds, by_input):
        runner.same_digest(f"input seed {s}", list(outcomes))

    samples = [ms for outcomes in passes for o in outcomes for ms in o.batch_ms]
    p50, beyond50 = percentile(samples, 50)
    p90, beyond90 = percentile(samples, 90)
    if beyond90 < 10:
        runner.failures.append(f"batch_p90_ms has {beyond90} samples beyond it (< 10)")
    quality = [o.result.metrics() for o in passes[0]]
    metrics = {
        "setup_s": statistics.median(runner.setups),
        # Per input the median over passes, then the mean over inputs.
        "run_s": statistics.fmean(
            statistics.median(o.run_s for o in outcomes) for outcomes in by_input
        ),
        "batch_p50_ms": p50,
        "batch_p90_ms": p90,
        "completion_ratio": statistics.fmean(q.completion_ratio for q in quality),
        "worker_cost_km": statistics.fmean(q.worker_cost_km for q in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    input_digests = [o.digest for o in passes[0]]
    detail = {
        "input_seeds": seeds,
        "passes": len(passes),
        "run_s_each": [[o.run_s for o in outcomes] for outcomes in passes],
        "digest": hashlib.sha256("".join(input_digests).encode()).hexdigest(),
        "input_digests": input_digests,
        "tasks": [o.result.n_tasks for o in passes[0]],
        "completed": [o.result.n_completed for o in passes[0]],
        "expired": [o.result.n_expired for o in passes[0]],
        "shed": [o.n_shed for o in passes[0]],
        "offers": [o.result.n_assignments for o in passes[0]],
        "batch_samples": len(samples),
        "batch_p50_beyond": beyond50,
        "batch_p90_beyond": beyond90,
    }
    return metrics, detail


def measure_traced(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    """Plain/traced pairs on fresh inputs from ``seed``; the per-layer metrics."""

    def pair(i: int) -> list:
        # Alternate which run goes first, so neither side always runs on
        # a colder process.
        order = (False, True) if i % 2 == 0 else (True, False)
        outcomes = {traced: runner.run(seed, traced) for traced in order}
        return [outcomes[False], outcomes[True]]

    pairs = repeat(seconds, pair)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    runner.same_digest(f"seed {seed}, plain and traced", plain + traced)

    metrics = {
        name: statistics.median(o.layers[name] for o in traced)
        if name in LAYER_TIMES
        else traced[-1].layers[name]
        for name in PER_LAYER
        if name in traced[-1].layers
    }
    for part in ("workload.s", "training.s"):
        metrics[part] = statistics.median(runner.setup_parts.get(part, [0.0]))
    metrics["trace.overhead_ratio"] = statistics.median(
        o.run_s for o in traced
    ) / statistics.median(o.run_s for o in plain)
    first = plain[0]
    detail = {
        "pairs": len(pairs),
        "run_s_each": [o.run_s for o in plain],
        "traced_run_s_each": [o.run_s for o in traced],
        "digest": first.digest,
        "tasks": first.result.n_tasks,
        "completed": first.result.n_completed,
        "expired": first.result.n_expired,
        "shed": first.n_shed,
        "offers": first.result.n_assignments,
    }
    return metrics, detail


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run for ``seconds``; returns (result line, detail)."""
    runner = Runner(workload, seed)
    if trace:
        metrics, detail = measure_traced(runner, seed, seconds)
        units = PER_LAYER
    else:
        metrics, detail = measure_plain(runner, seed, seconds)
        units = END_TO_END
    line = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    detail.update(
        workload=workload,
        seed=seed,
        trace=trace,
        setup_s_each=runner.setups,
        digest_recorded=bool(runner.expected),
        failures=runner.failures,
        host=host_info(),
    )
    return line, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}' (one of {', '.join(WORKLOADS)})")
    line, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in detail["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
