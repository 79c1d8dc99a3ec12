"""Command-line front end.

Exit codes: 0 on success, 1 when a verification check found a violation,
2 on invalid input.  CSV output carries a ``# schema=1`` version line ahead
of the header and formats every float with 17 significant digits, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .acceptance import run_all, setup_violations
from .errors import InvalidArgument, MZDualityError, ScenarioError
from .jointmeas import (
    ORACLE_RESOLUTION,
    JMInstance,
    feasibility_oracle,
    in_boundary_band,
    instance_from_setup,
    jm_criterion,
    require_resolution,
)
from .mzi import DualityReport, duality_report, outcome_probabilities, sample_outcomes, z_scores
from .qubit import integer, require_dim
from .qubit_detector import P_STEP, gap_slope_empirical, gap_slope_prediction
from .scenarios import Scenario, load_scenario, random_scenarios

log = logging.getLogger("mzduality")

CSV_SCHEMA_LINE = "# schema=1"
CSV_COLUMNS = ("scenario", "seed", *(f.name for f in fields(DualityReport)), "jm_margin")
# a CSV row: the name, the seed, then every number with 17 significant digits
CSV_ROW = "%s,%d" + ",%.17g" * (len(CSV_COLUMNS) - 2)
SWEEP_CHUNK = 1024  # sweep rows drawn at once; the output does not depend on it


def _result_row(scenario: Scenario) -> str:
    report = duality_report(scenario.setup, scenario.strategy)
    margin = instance_from_setup(scenario.setup, scenario.strategy).margin
    return CSV_ROW % (scenario.name, scenario.seed, *vars(report).values(), margin)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InvalidArgument(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_report(args) -> int:
    row = _result_row(load_scenario(args.scenario))
    _emit(f"{CSV_SCHEMA_LINE}\n{','.join(CSV_COLUMNS)}\n{row}\n", args.out)
    return 0


def cmd_check_jm(args) -> int:
    require_resolution(args.resolution)
    raw = (args.m0, args.m, args.n)
    if args.scenario is not None:
        if raw != (None, None, None):
            raise ScenarioError("give --scenario or --m0/--m/--n, not both")
        scenario = load_scenario(args.scenario)
        inst = instance_from_setup(scenario.setup, scenario.strategy)
    else:
        if None in raw:
            raise ScenarioError("either --scenario or all of --m0/--m/--n are required")
        inst = JMInstance(args.m0, [args.m, 0.0, 0.0], [0.0, 0.0, args.n])
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
    agrees = True
    if args.oracle != "off":
        oracle = feasibility_oracle(inst, resolution=args.resolution, mode=args.oracle)
        inside_band = bool(in_boundary_band(verdict.margin, args.resolution))
        agrees = inside_band or oracle == verdict.measurable
        payload["oracle"] = {"mode": args.oracle, "resolution": args.resolution, "feasible": oracle,
                             "boundary_band": inside_band, "agrees": agrees}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if agrees else 1


def cmd_sweep(args) -> int:
    integer(args.count, "--count")
    integer(args.seed, "--seed", high=None)
    require_dim(args.dim)
    lines = [CSV_SCHEMA_LINE, ",".join(CSV_COLUMNS)]
    violations = []
    for start in range(0, args.count, SWEEP_CHUNK):
        indices = range(start, min(start + SWEEP_CHUNK, args.count))
        flags = [index % 2 == 0 for index in indices]
        chunk = random_scenarios(args.seed, indices, args.dim, flags)
        for index, scenario in zip(indices, chunk):
            lines.append(_result_row(scenario))
            for problem in setup_violations(scenario.setup, scenario.strategy):
                violations.append(f"scenario {scenario.name}: {problem}")
            if args.count >= 20 and (index + 1) % (args.count // 10) == 0:
                log.info("sweep progress: %d/%d", index + 1, args.count)
    _emit("\n".join(lines) + "\n", args.out)
    for violation in violations:
        print(violation, file=sys.stderr)
    return 1 if violations else 0


def cmd_sample(args) -> int:
    integer(args.shots, "--shots", low=1)
    integer(args.seed, "--seed", high=None)
    scenario = load_scenario(args.scenario)
    probs = outcome_probabilities(scenario.setup, scenario.strategy)
    counts = sample_outcomes(probs, args.shots, args.seed)
    payload = {
        "scenario": scenario.name,
        "shots": args.shots,
        "seed": args.seed,
        "counts": counts.tolist(),
        "probabilities": probs.tolist(),
        "z_scores": z_scores(probs, counts).tolist(),
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
    integer(args.count, "--count", low=1)
    integer(args.seed, "--seed", high=None)
    results = run_all(seed=args.seed, oracle_count=args.count)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parsing leaves it unchanged and each parse fills a fresh namespace."""
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
    check.add_argument("--resolution", type=float, default=ORACLE_RESOLUTION)
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
    slope.add_argument("--p-step", type=float, default=P_STEP)
    slope.add_argument("--out")
    slope.set_defaults(func=cmd_gamma_slope)

    verify = sub.add_parser("verify", help="run the acceptance-criteria suite")
    verify.add_argument("--seed", type=int, default=20260810)
    verify.add_argument("--count", type=int, default=10_000)
    verify.set_defaults(func=cmd_verify)
    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is at that moment, so an
    in-process caller that redirects stderr between calls gets the records."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def main(argv=None) -> int:
    # the package logger's handler is installed once, its level read on every call
    if not log.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
    try:
        try:
            log.setLevel(os.environ.get("MZDUALITY_LOG", "WARNING").upper())
        except ValueError as exc:
            raise InvalidArgument(f"MZDUALITY_LOG: {exc}") from None
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MZDualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
