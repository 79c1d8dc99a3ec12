"""Scenario files: JSON descriptions of a setup plus strategy.

Complex numbers are encoded as ``[re, im]`` pairs and matrices as row-major
nested lists, so files stay language-neutral and diffable.  Matrices survive
a parse / re-emit / parse round trip bit-exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MZDualityError, ScenarioError
from .mzi import MZISetup, Strategy, evaluated_rows, random_setups, random_strategies
from .qubit import IDENTITY_2, SIGMA_X, QubitState, integer, require_dim, streams

OPTIMAL = "optimal"  # the file's word for the optimal strategy, None in a Scenario
# a name is the first CSV column, so it may hold no comma, quote or line break
NAME_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named, seeded setup plus its strategy, None for the optimal one."""

    name: str
    setup: MZISetup
    strategy: Strategy | None
    seed: int


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _number(value, what: str) -> float:
    """A JSON number as a float; strings and booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what}: {value!r} is not a number")
    return float(value)


def _vector(values, what: str) -> np.ndarray:
    return np.array([_number(value, what) for value in values])


def matrix_from_json(data, what: str) -> np.ndarray:
    try:
        rows = [[complex(_number(re, what), _number(im, what)) for re, im in row] for row in data]
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{what}: entries must be [re, im] pairs ({exc})") from None
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ScenarioError(f"{what}: expected a square matrix, got shape {m.shape}")
    return m


def _parse_quanton(spec) -> QubitState:
    if isinstance(spec, dict) and "bloch" in spec:
        return QubitState.from_bloch(_vector(spec["bloch"], "quanton Bloch vector"))
    if isinstance(spec, dict) and "matrix" in spec:
        return QubitState(matrix_from_json(spec["matrix"], "quanton matrix"))
    raise ScenarioError("quanton must provide 'bloch' or 'matrix'")


def _parse_detector_state(spec, dim: int) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "maximally-mixed":
            return np.eye(dim, dtype=complex) / dim
        if spec == "ground":
            state = np.zeros((dim, dim), dtype=complex)
            state[0, 0] = 1.0
            return state
        raise ScenarioError(f"unknown detector-state preset {spec!r}")
    if isinstance(spec, dict) and "bloch" in spec:
        if dim != 2:
            raise ScenarioError("a Bloch detector state requires dim = 2")
        return QubitState.from_bloch(_vector(spec["bloch"], "detector Bloch vector")).matrix
    if isinstance(spec, dict) and "matrix" in spec:
        return matrix_from_json(spec["matrix"], "detector state")
    raise ScenarioError("detector state must be a preset name, 'bloch', or 'matrix'")


def _parse_unitary(spec, dim: int) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "identity":
            return np.eye(dim, dtype=complex)
        if spec == "pauli-x":
            if dim != 2:
                raise ScenarioError("preset 'pauli-x' requires dim = 2")
            return SIGMA_X.copy()
        raise ScenarioError(f"unknown unitary preset {spec!r}")
    if isinstance(spec, dict) and "x-rotation" in spec:
        if dim != 2:
            raise ScenarioError("preset 'x-rotation' requires dim = 2")
        angle = _number(spec["x-rotation"], "x-rotation angle")
        if not math.isfinite(angle):  # numpy's cos and sin would warn, and the matrix is NaN
            raise ScenarioError(f"x-rotation angle must be finite, got {angle}")
        half = angle / 2.0
        return np.cos(half) * IDENTITY_2 - 1j * np.sin(half) * SIGMA_X
    if isinstance(spec, dict) and "matrix" in spec:
        return matrix_from_json(spec["matrix"], "detector unitary")
    raise ScenarioError("unitary must be a preset name, 'x-rotation', or 'matrix'")


def _parse_strategy(spec) -> Strategy | None:
    if spec == OPTIMAL:
        return None
    if isinstance(spec, dict) and "basis" in spec and "subset" in spec:
        basis = matrix_from_json(spec["basis"], "strategy basis")
        try:
            subset = (integer(k, "strategy subset index", None, None, ScenarioError)
                      for k in spec["subset"])
            return Strategy.from_subset(basis, subset)
        except MZDualityError as exc:
            raise ScenarioError(f"invalid strategy: {exc}") from None
    raise ScenarioError("strategy must be 'optimal' or {'basis': ..., 'subset': [...]}")


def scenario_from_dict(data: dict) -> Scenario:
    try:
        detector = data["detector"]
        dim = require_dim(integer(detector["dim"], "detector dim", None, None, ScenarioError))
        setup = MZISetup(
            rho=_parse_quanton(data["quanton"]),
            rho_d=_parse_detector_state(detector["state"], dim),
            u=_parse_unitary(detector["unitary"], dim),
            phi=_number(data.get("phi", 0.0), "phi"),
        )
        seed = integer(data.get("seed", 0), "seed", None, None, ScenarioError)
        name = data.get("name", "scenario")
        if not (isinstance(name, str) and NAME_PATTERN.fullmatch(name)):
            raise ScenarioError(f"name must match {NAME_PATTERN.pattern}, got {name!r}")
        strategy = _parse_strategy(data.get("strategy", OPTIMAL))
    except ScenarioError:
        raise
    except MZDualityError as exc:
        raise ScenarioError(f"invalid setup: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from None
    if setup.detector_dim != dim:
        d = setup.detector_dim
        raise ScenarioError(f"detector matrices are {d}x{d} but detector dim is {dim}")
    if strategy is not None and strategy.dim != dim:
        raise ScenarioError("strategy dimension does not match detector dimension")
    return Scenario(name=name, setup=setup, strategy=strategy, seed=seed)


def scenario_to_dict(s: Scenario) -> dict:
    strategy = (
        OPTIMAL
        if s.strategy is None
        else {"basis": matrix_to_json(s.strategy.basis), "subset": sorted(s.strategy.subset)}
    )
    return {
        "name": s.name,
        "quanton": {"matrix": matrix_to_json(s.setup.rho.matrix)},
        "detector": {
            "dim": s.setup.detector_dim,
            "state": {"matrix": matrix_to_json(s.setup.rho_d)},
            "unitary": {"matrix": matrix_to_json(s.setup.u)},
        },
        "phi": s.setup.phi,
        "strategy": strategy,
        "seed": s.seed,
    }


def load_scenario(path) -> Scenario:
    """The scenario of a JSON file read as UTF-8 (RFC 8259); ScenarioError if it cannot be."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")


def random_scenarios(base_seed: int, indices, dim: int, optimal) -> list[Scenario]:
    """``random_scenario`` at each index and flag given: two bulk draws, evaluated as one stack."""
    if len(optimal) != len(indices):
        raise DimensionMismatch(f"{len(optimal)} strategy flags for {len(indices)} indices")
    rngs = list(streams((base_seed, index) for index in indices))
    setups = random_setups(dim, rngs)
    drawn = random_strategies(dim, [rng for rng, flag in zip(rngs, optimal) if not flag])
    rows = zip(indices, evaluated_rows(setups, drawn, optimal))
    return [Scenario(f"sweep-{base_seed}-{index}", *row, base_seed) for index, row in rows]


def random_scenario(base_seed: int, index: int, dim: int, optimal: bool) -> Scenario:
    """Deterministic random scenario from the stream of (base_seed, index)."""
    return random_scenarios(base_seed, [index], dim, [optimal])[0]
