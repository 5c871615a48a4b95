"""Print every end-to-end and per-layer metric of every workload.

Usage, from the root of a checkout::

    python3 perfbench/report.py

Runs ``perfbench/run.py`` once with tracing off and once with tracing
on for every workload of ``BENCHMARK.json``, for its ``run_seconds``, at
the workload's recorded default seed (so the recorded signature digests
are checked too), and prints one table per
layer group: a row per workload, a column per metric, with the unit and
the better direction under each name.  Percentiles carry their sample
count and the number of samples beyond them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics grouped by the layer prefix of their names.
GROUPS = (
    ("prediction", ("prediction.", "prediction_cache.")),
    ("index and matching", ("spatial_index.", "ppi.", "hungarian.")),
    ("acceptance and engine", ("acceptance.", "engine.")),
    ("forecast and observability", ("forecast.", "calibration.", "decisions.")),
    ("set-up and tracing", ("workload.", "training.", "trace.")),
)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One ``run.py`` invocation: (result line, detail)."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: {workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(
        json.loads(line[len("# detail "):]) for line in lines if line.startswith("# detail ")
    )
    return json.loads(lines[-1]), detail


def fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}"


def table(title: str, metrics: list[dict], rows: dict[str, dict[str, str]]) -> None:
    names = [m["name"] for m in metrics]
    width0 = max(len(w) for w in [*rows, "workload"])
    widths = [
        max(len(n), *(len(rows[w].get(n, "-")) for w in rows)) for n in names
    ]
    print(f"\n{title}")
    header = [("metric", names), ("unit", [m["unit"] for m in metrics]),
              ("better", [m["better"] for m in metrics])]
    for label, cells in header:
        print(f"{label:<{width0}}  " + "  ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))
    for workload, cells in rows.items():
        print(
            f"{workload:<{width0}}  "
            + "  ".join(f"{cells.get(n, '-'):>{w}}" for n, w in zip(names, widths))
        )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    seconds = spec["run_seconds"]

    e2e_rows: dict[str, dict[str, str]] = {}
    layer_rows: dict[str, dict[str, str]] = {}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        seed = expected[workload]["seed"]
        plain, plain_detail = run_workload(workload, seed, seconds, 0)
        traced, traced_detail = run_workload(workload, seed, seconds, 1)
        cells = {k: fmt(v["value"]) for k, v in plain["metrics"].items()}
        for pct in ("50", "90"):
            name = f"batch_p{pct}_ms"
            beyond = plain_detail[f"batch_p{pct}_beyond"]
            cells[name] += f" (n={plain_detail['batch_samples']}, >{beyond})"
        e2e_rows[workload] = cells
        layer_rows[workload] = {k: fmt(v["value"]) for k, v in traced["metrics"].items()}
        for result, detail in ((plain, plain_detail), (traced, traced_detail)):
            all_correct &= result["correct"]
            for failure in detail["failures"]:
                print(f"{workload}: check failed: {failure}")
        print(
            f"{workload}: seed {seed}, {plain_detail['passes']} pass(es) over input seeds "
            f"{plain_detail['input_seeds']} + {traced_detail['pairs']} plain/traced "
            f"pair(s) at seed {seed}, digest {traced_detail['digest'][:16]}: "
            f"{traced_detail['completed']} completed + {traced_detail['expired']} expired + "
            f"{traced_detail['shed']} shed = {traced_detail['tasks']} tasks; "
            f"{plain['attempted'] + traced['attempted']} attempted, "
            f"{plain['failed'] + traced['failed']} failed"
        )
    host = plain_detail["host"]
    print(
        f"host: nproc {host['nproc']}, BLAS threads {host['blas_threads']}, "
        f"python {host['python']}, numpy {host['numpy']}, git {host['git_sha'][:12]}"
    )

    table("end-to-end (tracing off)", spec["end_to_end"], e2e_rows)
    for title, prefixes in GROUPS:
        group = [m for m in spec["per_layer"] if m["name"].startswith(prefixes)]
        table(f"per layer: {title} (traced run)", group, layer_rows)
    print(f"\noutputs {'correct' if all_correct else 'INCORRECT'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
