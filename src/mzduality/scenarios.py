"""Scenario files: JSON descriptions of a setup plus strategy.

Complex numbers are encoded as ``[re, im]`` pairs and matrices as row-major
nested lists, so files stay language-neutral and diffable.  Matrices survive
a parse / re-emit / parse round trip bit-exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MZDualityError, ScenarioError
from .mzi import MZISetup, Strategy, optimal_strategy, random_setups, random_strategies
from .qubit import IDENTITY_2, SIGMA_X, QubitState, require_dim, stream

OPTIMAL = "optimal"
# a name is the first CSV column, so it may hold no comma, quote or line break
NAME_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(frozen=True)
class Scenario:
    """A named, seeded setup plus strategy specification."""

    name: str
    setup: MZISetup
    strategy_spec: Strategy | str
    seed: int

    def resolve_strategy(self) -> Strategy:
        if isinstance(self.strategy_spec, Strategy):
            return self.strategy_spec
        return optimal_strategy(self.setup)


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


def _x_rotation(angle: float) -> np.ndarray:
    return np.cos(angle / 2.0) * IDENTITY_2 - 1j * np.sin(angle / 2.0) * SIGMA_X


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
        return _x_rotation(_number(spec["x-rotation"], "x-rotation angle"))
    if isinstance(spec, dict) and "matrix" in spec:
        return matrix_from_json(spec["matrix"], "detector unitary")
    raise ScenarioError("unitary must be a preset name, 'x-rotation', or 'matrix'")


def _parse_strategy(spec, dim: int) -> Strategy | str:
    if spec == OPTIMAL:
        return OPTIMAL
    if isinstance(spec, dict) and "basis" in spec and "subset" in spec:
        basis = matrix_from_json(spec["basis"], "strategy basis")
        try:
            subset = (_integer(k, "strategy subset index") for k in spec["subset"])
            return Strategy.from_subset(basis, subset)
        except MZDualityError as exc:
            raise ScenarioError(f"invalid strategy: {exc}") from None
    raise ScenarioError("strategy must be 'optimal' or {'basis': ..., 'subset': [...]}")


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return value


def scenario_from_dict(data: dict) -> Scenario:
    try:
        detector = data["detector"]
        dim = require_dim(_integer(detector["dim"], "detector dim"))
        setup = MZISetup(
            rho=_parse_quanton(data["quanton"]),
            rho_d=_parse_detector_state(detector["state"], dim),
            u=_parse_unitary(detector["unitary"], dim),
            phi=_number(data.get("phi", 0.0), "phi"),
        )
        seed = _integer(data.get("seed", 0), "seed")
        name = data.get("name", "scenario")
        if not (isinstance(name, str) and NAME_PATTERN.fullmatch(name)):
            raise ScenarioError(f"name must match {NAME_PATTERN.pattern}, got {name!r}")
        strategy_spec = _parse_strategy(data.get("strategy", OPTIMAL), dim)
    except ScenarioError:
        raise
    except MZDualityError as exc:
        raise ScenarioError(f"invalid setup: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from None
    if isinstance(strategy_spec, Strategy) and strategy_spec.dim != dim:
        raise ScenarioError("strategy dimension does not match detector dimension")
    return Scenario(name=name, setup=setup, strategy_spec=strategy_spec, seed=seed)


def scenario_to_dict(s: Scenario) -> dict:
    strategy = (
        OPTIMAL
        if not isinstance(s.strategy_spec, Strategy)
        else {
            "basis": matrix_to_json(s.strategy_spec.basis),
            "subset": sorted(s.strategy_spec.subset),
        }
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
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")


def random_scenarios(base_seed: int, indices, dim: int, optimal) -> list[Scenario]:
    """``random_scenario`` at each index and flag of the sequences given, from two bulk draws."""
    rngs = [stream(base_seed, index) for index in indices]
    setups = random_setups(dim, rngs)
    drawn = random_strategies(dim, [rng for rng, flag in zip(rngs, optimal) if not flag])
    specs = map(drawn.__getitem__, range(len(drawn.in_s)))
    return [
        Scenario(f"sweep-{base_seed}-{index}", setup, OPTIMAL if flag else next(specs), base_seed)
        for index, flag, setup in zip(indices, optimal, map(setups.__getitem__, range(len(rngs))))
    ]


def random_scenario(base_seed: int, index: int, dim: int, optimal: bool) -> Scenario:
    """Deterministic random scenario from the stream of (base_seed, index)."""
    return random_scenarios(base_seed, [index], dim, [optimal])[0]
