"""Record the benchmark's reference outputs and its baseline figures.

    python3 benchmarks/record.py reference
        Run every call of every workload pool once and store what it prints
        in benchmarks/reference.json.  Only rerun this at a commit whose
        outputs are meant to become the new truth.

    python3 benchmarks/record.py baseline [--seeds 1-10]
        Run run.py on every workload once per seed with tracing off, and once
        with tracing on, and store every result, the median and quartile
        spread of each metric, and the machine and software versions in
        benchmarks/baseline.json.

Run from the root of a git checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record_reference() -> None:
    from mzduality import cli

    reference = {"commit": git_sha()}
    harness.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.SCRATCH) as tmp:
        report_files = harness.write_report_files(Path(tmp))
        for workload in harness.WORKLOADS:
            rows, passed = {}, []
            preamble = None
            for call in harness.pool(workload, report_files):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(call.argv))
                lines = out.getvalue().splitlines()
                if code != 0:
                    raise SystemExit(f"{' '.join(call.argv)} exited {code}")
                if not call.rows:
                    if lines[-1] != harness.VERIFY_PASS_LINE:
                        raise SystemExit(f"{' '.join(call.argv)}: {lines[-1]}")
                    passed.append(int(call.argv[-1]))
                    continue
                preamble = lines[:2]
                rows.update(zip(call.rows, lines[2:], strict=True))
            reference[workload] = (
                {"passed_seeds": passed} if workload == "verify" else {"preamble": preamble, "rows": rows}
            )
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(out.stdout.splitlines()[-1])


def record_baseline(seeds: list[int], seconds: int) -> None:
    import numpy

    baseline = {
        "commit": git_sha(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in harness.WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "unit": runs[0]["metrics"][name]["unit"],
            }
        traced = run_once(workload, seeds[0], seconds, 1)
        baseline["workloads"][workload] = {
            "summary": summary,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": runs,
            "traced": traced,
        }
    path = HERE / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {path}")


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    base = sub.add_parser("baseline")
    base.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    base.add_argument(
        "--seconds",
        type=int,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    args = parser.parse_args(argv)
    if args.what == "reference":
        record_reference()
    else:
        record_baseline(args.seeds, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
