"""Benchmark child process: drives ``mzduality.cli.main`` in-process on one
workload, checks every output against the recorded references, and prints
one JSON record as its last line of standard output.

    python3 benchmarks/harness.py --workload sweep-d8 --seed 1 --seconds 20 --trace 0

``run.py`` starts it with ``src/`` on ``PYTHONPATH`` and BLAS/OpenMP pinned
to one thread.  A workload is a fixed pool of CLI calls whose outputs
``record.py reference`` stored in ``reference.json``.  ``--seed`` draws one
pass of calls from the pool; the run repeats that pass until ``--seconds``
have elapsed, finishing the pass in progress.  The program never sees the
benchmark seed, only the calls drawn with it.

With ``--trace 0`` it reports ``items_per_s``, the items of a pass over the
median time a pass spends inside ``cli.main``; ``call_ms_p50`` and
``call_ms_p90``, quantiles over the distinct calls of a pass (16 per sweep
workload, 8 for verify, 143 for report) of each call's median time; and
``peak_rss_mb`` of this process.  All times are scaled to a reference host
speed (see ``CAL_REFERENCE_S``).

With ``--trace 1`` it alternates untraced and traced passes and reports, per
traced pass, the calls and self time of each module's public functions (see
``spans.py``), and ``trace.overhead_frac``, the median traced pass time over
the median untraced one, minus 1.  The spans of the last traced pass are
written to ``.bench_build/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
SCRATCH = ROOT / ".bench_build"

# Looser than the ~3e-13 drift a change of eigensolver produces, tight enough
# to catch a wrong formula.
ROW_TOLERANCE = 1e-12
TEXT_COLUMNS = ("scenario", "seed")
VERIFY_PASS_LINE = "9/9 criteria passed"

# On a shared host the same work runs up to 2x slower in phases that last
# minutes, longer than a run.  So a run also times a fixed calibration kernel,
# none of it mzduality's code, before a call whenever CALIBRATE_EVERY_S have
# passed since it last did, and scales each call's time by CAL_REFERENCE_S
# over the latest kernel time: times read as on a host where the kernel takes
# CAL_REFERENCE_S.  Interpreter-bound work and vectorised work on large arrays
# slow down by different factors, so each workload has the mix of the two
# that tracked its own slowdowns best in trials on such a host.
CAL_REFERENCE_S = 0.025
CALIBRATE_EVERY_S = 0.2
KERNEL_ARRAY_SHARE = {"sweep-d8": 0.0, "sweep-d2": 0.5, "verify": 0.5, "report": 0.0}

# Workload pools.  Each pass draws the same number of calls, so passes of
# different seeds do comparable work.
SWEEP_SEEDS = tuple(range(1, 33))
SWEEP_ROWS = {"sweep-d2": (2, 16), "sweep-d8": (8, 4)}  # workload: (dim, --count)
SWEEP_CALLS_PER_PASS = 16
VERIFY_SEEDS = tuple(range(20260810, 20260826))
VERIFY_COUNT = 200
VERIFY_CALLS_PER_PASS = 8
REPORT_DIMS = tuple(range(2, 9))
REPORT_BASE_SEED = 9000
REPORT_FILES_PER_DIM = 24
REPORT_DRAWN_PER_DIM = 20
WORKLOADS = ("sweep-d8", "sweep-d2", "verify", "report")

LAYERS = {
    "cli": ("main",),
    "linalg": ("hermitian_eig", "trace_norm", "require_density", "kron", "partial_trace_detector"),
    "mzi": (
        "duality_report",
        "optimal_strategy",
        "strategy_stats",
        "joint_observable",
        "max_distinguishability",
        "outcome_probabilities",
        "sample_outcomes",
    ),
    "jointmeas": ("feasibility_oracle", "jm_margin", "instance_from_setup", "random_instance"),
    "acceptance": ("joint_observable_residuals",),
    "scenarios": ("load_scenario", "random_scenario"),
    "qubit": ("random_unitary", "random_detector_state", "random_qubit_state"),
    "qubit_detector": ("gap_slope_empirical", "purity_identity_residual"),
}
CRITERIA = (
    "criteria_oracle_agreement",
    "criterion_physical_realizability",
    "criterion_duality_inequality",
    "criterion_optimum_is_max",
    "criterion_pure_gap_and_identity",
    "criterion_gap_slope",
    "criterion_sampler",
    "criterion_saturation",
)
VALIDATE = "mzi.MZISetup.validate"
EIG = "linalg.hermitian_eig"
ORACLE = "jointmeas.feasibility_oracle"
EIG_SIZES = tuple(range(2, 9))
ORACLE_MODES = ("full", "reduced")


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` call, the items it finishes, and the reference rows
    (by scenario name) it must print; no rows means a ``verify`` call."""

    argv: tuple[str, ...]
    items: int
    rows: tuple[str, ...] = ()


def calibration_s(array_share: float = 0.0) -> float:
    """Wall time of one run of the calibration kernel, ``array_share`` of it
    on vectorised array work and the rest on interpreter-bound work."""
    import numpy as np

    m = np.arange(16, dtype=complex).reshape(4, 4) / 16
    grid = np.linspace(0.0, 1.0, 60_000)
    x, acc = m, 0.0
    start = time.perf_counter()
    for _ in range(round(3000 * (1.0 - array_share))):
        x = (x @ m.conj().T) * 0.5 + m
        acc += float(np.abs(np.trace(x))) % 1.0
        acc += sum({j: j * acc for j in range(8)}.values()) * 1e-9
    for k in range(round(80 * array_share)):
        a = np.sqrt((grid + 0.01 * k) ** 2 + 0.3)
        b = np.sqrt((grid - 0.01 * k) ** 2 + 0.2)
        acc += np.count_nonzero(np.maximum(a, b) <= 1.0)
    return time.perf_counter() - start


def report_name(dim: int, index: int) -> str:
    """Scenario name of a generated report file, as ``random_scenario`` sets it."""
    return f"sweep-{REPORT_BASE_SEED + dim}-{index}"


def write_report_files(directory: Path) -> dict[tuple[int, int], Path]:
    """Write the generated report scenarios with ``save_scenario``, keyed by
    (dim, index); even indices use the optimal strategy."""
    from mzduality.scenarios import random_scenario, save_scenario

    paths = {}
    for dim in REPORT_DIMS:
        for index in range(REPORT_FILES_PER_DIM):
            path = directory / f"{report_name(dim, index)}.json"
            save_scenario(random_scenario(REPORT_BASE_SEED + dim, index, dim, index % 2 == 0), path)
            paths[dim, index] = path
    return paths


def bundled_scenarios() -> list[tuple[Path, str]]:
    files = sorted((ROOT / "scenarios").glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no bundled scenarios under {ROOT / 'scenarios'}")
    return [(path, json.loads(path.read_text())["name"]) for path in files]


def sweep_call(workload: str, seed: int) -> Call:
    dim, count = SWEEP_ROWS[workload]
    argv = ("sweep", "--dim", str(dim), "--count", str(count), "--seed", str(seed))
    return Call(argv, count, tuple(f"sweep-{seed}-{i}" for i in range(count)))


def report_call(path: Path, name: str) -> Call:
    return Call(("report", "--scenario", str(path)), 1, (name,))


def verify_call(seed: int) -> Call:
    return Call(("verify", "--count", str(VERIFY_COUNT), "--seed", str(seed)), VERIFY_COUNT)


def pool(workload: str, report_files: dict[tuple[int, int], Path]) -> list[Call]:
    """Every call the workload can draw, in a fixed order."""
    if workload in SWEEP_ROWS:
        return [sweep_call(workload, seed) for seed in SWEEP_SEEDS]
    if workload == "verify":
        return [verify_call(seed) for seed in VERIFY_SEEDS]
    calls = [report_call(path, name) for path, name in bundled_scenarios()]
    for (dim, index), path in report_files.items():
        calls.append(report_call(path, report_name(dim, index)))
    return calls


def draw_pass(workload: str, seed: int, report_files: dict[tuple[int, int], Path]) -> list[Call]:
    """The calls of one pass: a seeded draw of equal size from the pool."""
    rng = random.Random(seed)
    if workload in SWEEP_ROWS:
        return [sweep_call(workload, s) for s in rng.sample(SWEEP_SEEDS, SWEEP_CALLS_PER_PASS)]
    if workload == "verify":
        return [verify_call(s) for s in rng.sample(VERIFY_SEEDS, VERIFY_CALLS_PER_PASS)]
    calls = [report_call(path, name) for path, name in bundled_scenarios()]
    for dim in REPORT_DIMS:
        # as many optimal-strategy files (even index) as random-strategy ones
        for parity in (0, 1):
            indices = range(parity, REPORT_FILES_PER_DIM, 2)
            for index in rng.sample(indices, REPORT_DRAWN_PER_DIM // 2):
                calls.append(report_call(report_files[dim, index], report_name(dim, index)))
    rng.shuffle(calls)
    return calls


def compare_row(line: str, expected: str, header: list[str]) -> str | None:
    """Text columns must match exactly, numeric ones within ROW_TOLERANCE."""
    got, want = line.split(","), expected.split(",")
    if len(got) != len(header) or len(want) != len(header):
        return f"row has {len(got)} fields, expected {len(header)}"
    for column, g, w in zip(header, got, want):
        if column in TEXT_COLUMNS:
            if g != w:
                return f"{column} is {g!r}, expected {w!r}"
            continue
        try:
            close = abs(float(g) - float(w)) <= ROW_TOLERANCE
        except ValueError:
            close = False
        if not close:
            return f"{want[0]} {column} is {g}, expected {w}"
    return None


def check_output(call: Call, code, stdout: str, reference: dict) -> str | None:
    """Why a call's result is wrong, or None if it is right."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if not call.rows:
        return None if lines and lines[-1] == VERIFY_PASS_LINE else "verify did not pass 9/9"
    if lines[:2] != reference["preamble"]:
        return f"CSV preamble {lines[:2]!r} differs"
    if len(lines) - 2 != len(call.rows):
        return f"{len(lines) - 2} rows, expected {len(call.rows)}"
    for line, name in zip(lines[2:], call.rows):
        problem = compare_row(line, reference["rows"][name], reference["preamble"][1].split(","))
        if problem:
            return problem
    return None


class Runner:
    """Runs one pass of calls through ``cli.main`` at a time, timing the
    calibration kernel in between.  Keeps every call's latencies in pass
    order, at reference speed, the kernel's times, and every failed check."""

    def __init__(self, cli, reference: dict, calls: list[Call], array_share: float = 0.0):
        self.cli = cli
        self.array_share = array_share
        self.reference = reference
        self.calls = calls
        self.latencies: list[list[float]] = [[] for _ in calls]
        self.kernel_times: list[float] = []
        self.scales: list[float] = []  # the scale applied to each call made
        self._calibrated_at = -CALIBRATE_EVERY_S
        self.failed_calls: set[int] = set()
        self.attempted = 0
        self.problems: list[str] = []

    def run_pass(self) -> None:
        for index, call in enumerate(self.calls):
            if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
                self.kernel_times.append(calibration_s(self.array_share))
                self._calibrated_at = time.perf_counter()
            out = io.StringIO()
            code = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = self.cli.main(list(call.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a raising call is a failed call, not a harness crash
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            self.attempted += 1
            scale = CAL_REFERENCE_S / self.kernel_times[-1]
            self.scales.append(scale)
            self.latencies[index].append(scale * elapsed)
            problem = check_output(call, code, out.getvalue(), self.reference)
            if problem:
                self.failed_calls.add(index)
                self.problems.append(f"{' '.join(call.argv)}: {problem}")

    def pass_seconds(self, passes: slice = slice(None)) -> float:
        """Median time of the selected passes inside ``cli.main``."""
        return statistics.median(map(sum, zip(*(times[passes] for times in self.latencies))))

    def call_seconds(self) -> list[float]:
        """Each call's median time over the passes."""
        return [statistics.median(times) for times in self.latencies]


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile of the samples."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def install_spans(recorder: Recorder) -> None:
    from mzduality import acceptance, mzi

    modules = {name: sys.modules[f"mzduality.{name}"] for name in LAYERS}
    oracle_signature = inspect.signature(modules["jointmeas"].feasibility_oracle)

    def mode(*args, **kwargs):
        bound = oracle_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["mode"]

    def size(a, *args, **kwargs):
        return len(a)

    tags = {EIG: size, ORACLE: mode}
    for layer, functions in LAYERS.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            recorder.patch_function("mzduality", modules[layer], fn, name, tags.get(name))
    for fn in CRITERIA:
        recorder.patch_function("mzduality", acceptance, fn, f"acceptance.{fn}")
    recorder.patch_method(mzi.MZISetup, "__post_init__", VALIDATE)


def layer_metrics(totals: dict, passes: int, items_per_pass: int) -> dict[str, tuple]:
    """Per-pass layer metrics from span totals of all traced passes."""

    def total(name, field, tag=Ellipsis):
        return sum(
            entry[field] for (n, t), entry in totals.items() if n == name and tag in (Ellipsis, t)
        ) / passes

    metrics: dict[str, tuple] = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            metrics[f"{name}.calls"] = (total(name, 0), "count")
            metrics[f"{name}.self_s"] = (total(name, 1), "s")
    for size in EIG_SIZES:
        metrics[f"{EIG}.calls.d{size}"] = (total(EIG, 0, size), "count")
    metrics[f"{EIG}.per_row"] = (total(EIG, 0) / items_per_pass, "calls/item")
    metrics[f"{VALIDATE}.calls"] = (total(VALIDATE, 0), "count")
    metrics[f"{VALIDATE}.self_s"] = (total(VALIDATE, 1), "s")
    metrics["mzi.duality_report.per_row"] = (
        total("mzi.duality_report", 0) / items_per_pass,
        "calls/item",
    )
    for mode in ORACLE_MODES:
        metrics[f"{ORACLE}.calls.{mode}"] = (total(ORACLE, 0, mode), "count")
        metrics[f"{ORACLE}.self_s.{mode}"] = (total(ORACLE, 1, mode), "s")
    drawn = total("jointmeas.random_instance", 0)
    metrics["jointmeas.oracle.useful_ratio"] = (
        total(ORACLE, 0, "full") / drawn if drawn else 0.0,
        "ratio",
    )
    for fn in CRITERIA:
        metrics[f"acceptance.{fn}.wall_s"] = (total(f"acceptance.{fn}", 2), "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from mzduality import cli

    reference = json.loads(REFERENCE_FILE.read_text())[workload]
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        report_files = write_report_files(Path(tmp)) if workload == "report" else {}
        calls = draw_pass(workload, seed, report_files)
        runner = Runner(cli, reference, calls, KERNEL_ARRAY_SHARE[workload])
        items_per_pass = sum(call.items for call in calls)
        deadline = time.perf_counter() + seconds
        if not trace:
            runner.run_pass()
            while time.perf_counter() < deadline:
                runner.run_pass()
            call_ms = [1e3 * t for t in runner.call_seconds()]
            done = sum(c.items for i, c in enumerate(calls) if i not in runner.failed_calls)
            metrics = {
                "items_per_s": (done / runner.pass_seconds(), "1/s"),
                "call_ms_p50": (quantile(call_ms, 0.5), "ms"),
                "call_ms_p90": (quantile(call_ms, 0.9), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            # passes alternate untraced, traced
            recorder, totals, pairs = Recorder(), {}, 0
            while True:
                runner.run_pass()
                install_spans(recorder)
                try:
                    runner.run_pass()
                finally:
                    recorder.restore()
                pairs += 1
                last = time.perf_counter() >= deadline
                if last:
                    recorder.write(SCRATCH / "spans" / f"{workload}-seed{seed}.jsonl")
                scale = statistics.median(runner.scales[-len(calls):])
                for key, (calls_made, self_s, wall_s) in recorder.drain().items():
                    acc = totals.setdefault(key, [0, 0.0, 0.0])
                    acc[0] += calls_made
                    acc[1] += scale * self_s
                    acc[2] += scale * wall_s
                if last:
                    break
            metrics = layer_metrics(totals, pairs, items_per_pass)
            metrics["trace.overhead_frac"] = (
                runner.pass_seconds(slice(1, None, 2)) / runner.pass_seconds(slice(0, None, 2))
                - 1.0,
                "ratio",
            )
    return {
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "problems": runner.problems[:20],
        "kernel_s": statistics.median(runner.kernel_times),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
