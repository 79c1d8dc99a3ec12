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
from .mzi import MZISetup, Strategy, optimal_strategy, random_setup, random_strategy
from .qubit import IDENTITY_2, SIGMA_X, QubitState, bloch_to_matrix

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


def matrix_from_json(data, what: str) -> np.ndarray:
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError, ValueError) as exc:
        raise ScenarioError(f"{what}: entries must be [re, im] pairs ({exc})") from None
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ScenarioError(f"{what}: expected a square matrix, got shape {m.shape}")
    return m


def _x_rotation(angle: float) -> np.ndarray:
    return np.cos(angle / 2.0) * IDENTITY_2 - 1j * np.sin(angle / 2.0) * SIGMA_X


def _parse_quanton(spec) -> QubitState:
    if isinstance(spec, dict) and "bloch" in spec:
        return QubitState.from_bloch(np.asarray(spec["bloch"], dtype=float))
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
        return bloch_to_matrix(np.asarray(spec["bloch"], dtype=float) / 2.0, 0.5)
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
        return _x_rotation(float(spec["x-rotation"]))
    if isinstance(spec, dict) and "matrix" in spec:
        return matrix_from_json(spec["matrix"], "detector unitary")
    raise ScenarioError("unitary must be a preset name, 'x-rotation', or 'matrix'")


def _parse_strategy(spec, dim: int) -> Strategy | str:
    if spec == OPTIMAL:
        return OPTIMAL
    if isinstance(spec, dict) and "basis" in spec and "subset" in spec:
        basis = matrix_from_json(spec["basis"], "strategy basis")
        try:
            return Strategy(basis=basis, subset=frozenset(int(k) for k in spec["subset"]))
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
        dim = _integer(detector["dim"], "detector dim")
        setup = MZISetup(
            rho=_parse_quanton(data["quanton"]),
            rho_d=_parse_detector_state(detector["state"], dim),
            u=_parse_unitary(detector["unitary"], dim),
            phi=float(data.get("phi", 0.0)),
        )
        seed = _integer(data.get("seed", 0), "seed")
        name = data.get("name", "scenario")
        if not (isinstance(name, str) and NAME_PATTERN.fullmatch(name)):
            raise ScenarioError(f"name must match {NAME_PATTERN.pattern}, got {name!r}")
    except ScenarioError:
        raise
    except MZDualityError as exc:
        raise ScenarioError(f"invalid setup: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from None
    strategy_spec = _parse_strategy(data.get("strategy", OPTIMAL), dim)
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


def random_scenario(base_seed: int, index: int, dim: int, optimal: bool) -> Scenario:
    """Deterministic random scenario derived from (base_seed, index)."""
    rng = np.random.default_rng([base_seed, index])
    setup = random_setup(dim, rng)
    spec: Strategy | str = OPTIMAL if optimal else random_strategy(dim, rng)
    return Scenario(name=f"sweep-{base_seed}-{index}", setup=setup, strategy_spec=spec, seed=base_seed)
