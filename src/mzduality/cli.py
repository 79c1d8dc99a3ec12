"""Command-line front end.

Exit codes: 0 on success, 1 when a verification check found a violation,
2 on invalid input.  CSV output carries a ``# schema=1`` version line ahead
of the header and formats every float with 17 significant digits, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all, setup_violations
from .errors import InvalidArgument, MZDualityError, ScenarioError
from .jointmeas import (
    JMInstance,
    feasibility_oracle,
    instance_from_setup,
    jm_criterion,
    jm_margin,
)
from .mzi import Strategy, duality_report, outcome_probabilities, sample_outcomes
from .qubit_detector import gap_slope_empirical, gap_slope_prediction
from .scenarios import Scenario, load_scenario, random_scenario

log = logging.getLogger("mzduality")

CSV_SCHEMA_LINE = "# schema=1"
CSV_COLUMNS = (
    "scenario",
    "seed",
    "a_priori_visibility",
    "predictability",
    "visibility",
    "phi0",
    "delta",
    "contrast",
    "distinguishability",
    "max_distinguishability",
    "tightness_gap",
    "duality_lhs",
    "duality_rhs",
    "jsve_lhs",
    "jm_margin",
)


def _in_range(option: str, value: int, low: int = 0, high: int | None = 2**63 - 1) -> int:
    """Reject a seed or count outside ``[low, high]`` (no upper end when
    ``high`` is None) as invalid input; the default ``high`` is the largest
    count numpy's samplers accept."""
    if value < low or (high is not None and value > high):
        bound = "inf" if high is None else high
        raise InvalidArgument(f"{option} must lie in [{low}, {bound}], got {value}")
    return value


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _result_row(scenario: Scenario, strategy: Strategy) -> str:
    report = duality_report(scenario.setup, strategy)
    margin = jm_margin(instance_from_setup(scenario.setup, strategy))
    # the columns between the seed and the margin are DualityReport fields
    numbers = [getattr(report, column) for column in CSV_COLUMNS[2:-1]] + [margin]
    return ",".join([scenario.name, str(scenario.seed), *map(_fmt, numbers)])


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_report(args) -> int:
    scenario = load_scenario(args.scenario)
    strategy = scenario.resolve_strategy()
    row = _result_row(scenario, strategy)
    _emit(f"{CSV_SCHEMA_LINE}\n{','.join(CSV_COLUMNS)}\n{row}\n", args.out)
    return 0


def cmd_check_jm(args) -> int:
    if args.scenario:
        scenario = load_scenario(args.scenario)
        inst = instance_from_setup(scenario.setup, scenario.resolve_strategy())
    else:
        if None in (args.m0, args.m, args.n):
            raise ScenarioError("either --scenario or all of --m0/--m/--n are required")
        inst = JMInstance(
            m0=args.m0,
            m_vec=np.array([args.m, 0.0, 0.0]),
            n_vec=np.array([0.0, 0.0, args.n]),
        )
    verdict = jm_criterion(inst)
    payload = {
        "m0": inst.m0,
        "m": inst.m,
        "n": inst.n,
        "measurable": verdict.measurable,
        "margin": verdict.margin,
    }
    if verdict.witness is not None:
        payload["witness"] = {"x": verdict.witness.x, "y": list(verdict.witness.y_vec)}
    exit_code = 0
    if args.oracle != "off":
        oracle = feasibility_oracle(inst, resolution=args.resolution, mode=args.oracle)
        payload["oracle"] = {"mode": args.oracle, "resolution": args.resolution, "feasible": oracle}
        inside_band = abs(verdict.margin) < 3.0 * args.resolution
        payload["oracle"]["boundary_band"] = inside_band
        if not inside_band and oracle != verdict.measurable:
            payload["oracle"]["agrees"] = False
            exit_code = 1
        else:
            payload["oracle"]["agrees"] = True
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return exit_code


def cmd_sweep(args) -> int:
    _in_range("--count", args.count)
    _in_range("--seed", args.seed, high=None)
    lines = [CSV_SCHEMA_LINE, ",".join(CSV_COLUMNS)]
    violations = []
    for index in range(args.count):
        optimal = index % 2 == 0
        scenario = random_scenario(args.seed, index, args.dim, optimal)
        strategy = scenario.resolve_strategy()
        lines.append(_result_row(scenario, strategy))
        for problem in setup_violations(scenario.setup, strategy, optimal):
            violations.append(f"scenario {scenario.name}: {problem}")
        if args.count >= 20 and (index + 1) % (args.count // 10) == 0:
            log.info("sweep progress: %d/%d", index + 1, args.count)
    _emit("\n".join(lines) + "\n", args.out)
    for violation in violations:
        print(violation, file=sys.stderr)
    return 1 if violations else 0


def cmd_sample(args) -> int:
    _in_range("--shots", args.shots, low=1)
    _in_range("--seed", args.seed, high=None)
    scenario = load_scenario(args.scenario)
    strategy = scenario.resolve_strategy()
    probs = outcome_probabilities(scenario.setup, strategy)
    counts = sample_outcomes(scenario.setup, strategy, args.shots, args.seed)
    freqs = counts / args.shots
    z_scores = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            sigma = np.sqrt(max(probs[i, j] * (1.0 - probs[i, j]), 0.0) / args.shots)
            z_scores[i, j] = (freqs[i, j] - probs[i, j]) / sigma if sigma > 0 else 0.0
    payload = {
        "scenario": scenario.name,
        "shots": args.shots,
        "seed": args.seed,
        "counts": counts.tolist(),
        "probabilities": probs.tolist(),
        "z_scores": z_scores.tolist(),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_gamma_slope(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.setup.detector_dim != 2:
        raise ScenarioError("gamma-slope requires a two-dimensional detector")
    predicted = gap_slope_prediction(scenario.setup.rho_d, scenario.setup.u)
    empirical = gap_slope_empirical(scenario.setup.rho_d, scenario.setup.u, args.p_step)
    payload = {
        "scenario": scenario.name,
        "p_step": args.p_step,
        "predicted": predicted,
        "empirical": empirical,
        "relative_error": abs(empirical - predicted) / abs(predicted) if predicted else None,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    _in_range("--count", args.count)
    _in_range("--seed", args.seed, high=None)
    results = run_all(seed=args.seed, oracle_count=args.count)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzduality",
        description="Which-path duality and joint-measurability verification tools",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="full duality report for one scenario")
    report.add_argument("--scenario", required=True)
    report.add_argument("--out")
    report.set_defaults(func=cmd_report)

    check = sub.add_parser("check-jm", help="joint-measurability verdict")
    check.add_argument("--m0", type=float)
    check.add_argument("--m", type=float)
    check.add_argument("--n", type=float)
    check.add_argument("--scenario")
    check.add_argument("--oracle", choices=["full", "reduced", "off"], default="off")
    check.add_argument("--resolution", type=float, default=0.01)
    check.add_argument("--out")
    check.set_defaults(func=cmd_check_jm)

    sweep = sub.add_parser("sweep", help="randomized verification sweep emitting CSV")
    sweep.add_argument("--count", type=int, default=1000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--dim", type=int, default=2)
    sweep.add_argument("--out")
    sweep.set_defaults(func=cmd_sweep)

    sample = sub.add_parser("sample", help="sample outcomes of one scenario")
    sample.add_argument("--scenario", required=True)
    sample.add_argument("--shots", type=int, default=100_000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out")
    sample.set_defaults(func=cmd_sample)

    slope = sub.add_parser("gamma-slope", help="predicted vs empirical gap slope")
    slope.add_argument("--scenario", required=True)
    slope.add_argument("--p-step", type=float, default=1e-4)
    slope.add_argument("--out")
    slope.set_defaults(func=cmd_gamma_slope)

    verify = sub.add_parser("verify", help="run the acceptance-criteria suite")
    verify.add_argument("--seed", type=int, default=20260810)
    verify.add_argument("--count", type=int, default=10_000)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("MZDUALITY_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MZDualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
