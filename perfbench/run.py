"""Benchmark entry point: runs one workload in a fresh process and prints
its metrics.

    python3 perfbench/run.py --workload c17-model-opc --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` prints the per-layer metrics of a traced run, made in its own
process after an untraced cold-flow baseline in another, so the tracing
overhead is measured; the traced spans go to ``.perfbench_traces/`` as
Chrome trace-event JSON.  ``--workload all`` runs every workload in turn.
``--smoke`` runs the tiny sizes.

Every workload process gets BLAS and OpenMP pools pinned to one thread.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a
correctness gate failed, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("c17-model-opc", "fabric1k-ssta")

PINNED_THREADS = {
    name: "1" for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}

#: a run must end within 180 s; the children share this budget
RUN_DEADLINE_S = 170.0


class ChildFailed(Exception):
    """A workload process crashed, timed out or printed no result."""


def workload_process(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``workload.py`` with ``args``; its last stdout line is JSON."""
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("no time left for the workload process")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process exceeded {remaining:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited with {done.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, deadline: float) -> Dict[str, Any]:
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    if not trace:
        return workload_process(common, deadline)
    baseline = workload_process(common + ["--cold-only"], deadline)
    traced = workload_process(common + ["--traced"], deadline)
    untraced_s = baseline["metrics"]["cold_flow_s"]["value"]
    traced_s = traced["diagnostics"]["traced_cold_flow_s"]
    traced["metrics"]["bench.trace_overhead_frac"] = {
        "value": traced_s / untraced_s - 1.0, "unit": "fraction"}
    traced["attempted"] += baseline["attempted"]
    traced["failed"] += baseline["failed"]
    return traced


def report(workload: str, result: Dict[str, Any]) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in result.get("diagnostics", {}).items():
        print(f"  # {key}: {value}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace), args.smoke, deadline)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": metric for name, result in results.items()
                   for key, metric in result["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
