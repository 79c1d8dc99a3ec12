"""Benchmark of the mzduality command-line paths, one workload per run.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; it uses the sources under ``src/``.
Workloads (their calls are drawn in ``harness.py``):

- ``sweep-d8``: ``sweep --dim 8 --count 4``; the Jacobi eigensolver
  dominates.
- ``sweep-d2``: ``sweep --dim 2 --count 16``; the joint-observable build,
  scenario generation and the duplicate report/violation work dominate.
- ``verify``: ``verify --count 200``; the grid oracle takes the largest
  share, and it runs on no other workload.
- ``report``: single ``report --scenario`` calls on the bundled scenarios
  and on generated ones at d = 2..8; the only workload that parses files.

With ``--trace 0`` it measures ``setup_s``, the median wall time of fresh
interpreters that import ``mzduality.cli`` and build its parser, then runs
the workload in one child process (``harness.py``) with BLAS/OpenMP pinned to
one thread, for throughput, latency and memory.  With ``--trace 1`` the
child times the calls into each module's public functions instead.  The last
line of standard output is one JSON object: ``attempted`` counts the CLI
calls, ``failed`` those whose output failed its check (so failed/attempted is
the failed fraction), ``correct`` is true when none failed, and ``metrics``
maps names to values and units.  It exits with 2 when there is no program
to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 11
# The launched interpreter also times a fixed pure-Python kernel before and
# after the import and prints the total; see measure_setup.
SETUP_SNIPPET = """
import time

def kernel():
    start, acc = time.perf_counter(), 0
    for i in range(150_000):
        acc += (i * i) % 7
    return time.perf_counter() - start

before = kernel()
import mzduality.cli as cli
cli.build_parser()
print(before + kernel())
"""
SETUP_KERNEL_REFERENCE_S = 0.02
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median over fresh interpreters of the wall time to start, import
    ``mzduality.cli`` and build its parser.  The first, untimed launch fills
    the bytecode cache as any installed copy has it.

    Launch times follow the host's slow phases (see
    ``harness.CAL_REFERENCE_S``), so each launch's time, less its kernel
    time, is scaled by SETUP_KERNEL_REFERENCE_S over its kernel time."""
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        # no timeout: waiting with one polls, which rounds the time up
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - start
        kernel = float(done.stdout)
        if launch:
            times.append((wall - kernel) * SETUP_KERNEL_REFERENCE_S / kernel)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "mzduality" / "cli.py").is_file():
        print(f"error: no mzduality sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": measure_setup(env), "unit": "s"}
    child = subprocess.run(
        [
            sys.executable,
            str(HERE / "harness.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    record = json.loads(child.stdout.splitlines()[-1])
    print(f"median calibration kernel time {record['kernel_s']:.4f} s", file=sys.stderr)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics.update(record["metrics"])
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
