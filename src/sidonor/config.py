"""Run configuration: JSON file + command-line overrides.

Every physical quantity in the config is a string with an explicit unit
("10 nm", "0.5 V", "0.04 eV", "1e4 Hz"); bare numbers are rejected for
dimensioned fields so CGS/SI mixups cannot slip in.  Dimensionless entries
(alpha_a, beta grid, target) are plain numbers.  A key that no section
defines is rejected, so a misspelt override cannot be silently ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .constants import DEFAULT_CONSTANTS, MaterialParams, hyperfine_constant_A0, linear_grid
from .electrostatics import GateGeometry, field_coeffs
from .error_budget import DEFAULT_LINE_WIDTH, PlacementError
from .hyperfine import hic_shift
from .spectrum import DEFAULT_BETA_GRID


class ConfigError(Exception):
    """Invalid or missing configuration entry; ``field`` names the culprit."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


_UNITS = {
    "length": {"m": 1.0, "nm": 1e-9, "um": 1e-6, "A": 1e-10},
    "voltage": {"V": 1.0, "mV": 1e-3},
    "energy": {"J": 1.0, "eV": DEFAULT_CONSTANTS.e, "meV": 1e-3 * DEFAULT_CONSTANTS.e},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "field": {"T": 1.0, "mT": 1e-3},
    "density": {"m^-3": 1.0, "cm^-3": 1e6},
}

# quantity kind of each material key; None for a plain number
_MATERIAL_KINDS = {
    "a_star": "length",
    "eps_r": None,
    "psi0_sq": "density",
    "Delta_E": "energy",
    "delta_E": "energy",
}
_GRID_KEYS = ("values", "start", "stop", "points")


def parse_quantity(value, kind: str, field_name: str) -> float:
    """Parse "<number> <unit>" into SI; rejects bare numbers for dimensioned kinds."""
    units = _UNITS[kind]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        raise ConfigError(
            field_name,
            f"unit required; write e.g. \"{value} {next(iter(units))}\"",
        )
    if not isinstance(value, str):
        raise ConfigError(field_name, f"expected a quantity string, got {value!r}")
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(field_name, f"expected \"<number> <unit>\", got {value!r}")
    num, unit = parts
    if unit not in units:
        raise ConfigError(
            field_name, f"unknown unit {unit!r}; allowed: {sorted(units)}"
        )
    try:
        x = float(num) * units[unit]
    except ValueError:
        raise ConfigError(field_name, f"bad number {num!r}") from None
    if not math.isfinite(x):
        raise ConfigError(field_name, f"must be finite, got {value!r}")
    return x


def parse_number(value, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field_name, f"expected a plain number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(field_name, f"must be finite, got {value!r}")
    return x


def _value(value, kind: str | None, field_name: str) -> float:
    """A quantity of ``kind``, or a plain number when ``kind`` is None."""
    return parse_quantity(value, kind, field_name) if kind else parse_number(value, field_name)


def _object(value, field_name: str, keys) -> dict:
    """A config section: a JSON object whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(field_name, "must be an object")
    for key in value:
        if key not in keys:
            name = f"{field_name}.{key}" if field_name else key
            raise ConfigError(name, f"unknown key; expected one of {', '.join(keys)}")
    return value


def _grid(section: dict, field_name: str, kind: str | None) -> list[float]:
    """Grid entry: {"values": [...]} or {"start": ..., "stop": ..., "points": n}."""
    _object(section, field_name, _GRID_KEYS)
    if "values" in section:
        vals = section["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"{field_name}.values", "expected a non-empty list")
        return [_value(v, kind, f"{field_name}.values[{i}]") for i, v in enumerate(vals)]
    for key in ("start", "stop", "points"):
        if key not in section:
            raise ConfigError(f"{field_name}.{key}", "required for a grid")
    n = section["points"]
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"{field_name}.points", "must be a positive integer")
    lo = _value(section["start"], kind, f"{field_name}.start")
    hi = _value(section["stop"], kind, f"{field_name}.stop")
    return linear_grid(lo, hi, n)


@dataclass
class RunConfig:
    material: MaterialParams = field(default_factory=MaterialParams)
    gate: GateGeometry | None = None
    voltages: list[float] = field(default_factory=lambda: [0.0, 0.5, 1.0])
    placement: PlacementError = field(default_factory=lambda: PlacementError(dx=1e-9, dz=1e-9))
    target: float = 0.01
    line_width: float = DEFAULT_LINE_WIDTH
    nulling_ranges: dict | None = None
    alpha_a: float = 0.3
    alpha_b: float = 0.4
    beta_grid: list[float] = field(default_factory=DEFAULT_BETA_GRID.tolist)
    mu: float | None = None  # None: slaved to beta


def set_by_path(data: dict, assignment: str):
    """Apply one ``--set a.b.c=value`` override; value parsed as JSON if possible."""
    if "=" not in assignment:
        raise ConfigError("--set", f"expected key=value, got {assignment!r}")
    path, raw = assignment.split("=", 1)
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError("--set", f"bad key path {path!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(path, "path collides with a non-object entry")
    node[keys[-1]] = value


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("--config", f"file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
        if not isinstance(data, dict):
            raise ConfigError("--config", "top level must be a JSON object")
    for assignment in overrides or []:
        set_by_path(data, assignment)
    return build_run_config(data)


def build_run_config(data: dict) -> RunConfig:
    cfg = RunConfig()
    _object(data, "", ("material", "gate", "voltage", "placement", "error_budget", "spin"))

    mat = _object(data.get("material", {}), "material", tuple(_MATERIAL_KINDS))
    mat_kwargs = {
        key: _value(mat[key], kind, f"material.{key}")
        for key, kind in _MATERIAL_KINDS.items()
        if key in mat
    }
    for key in ("a_star", "eps_r", "psi0_sq", "Delta_E"):
        if key in mat_kwargs and not (mat_kwargs[key] > 0):
            raise ConfigError(f"material.{key}", "must be positive")
    if mat_kwargs.get("delta_E") == 0.0:  # the first-order shift divides by it
        raise ConfigError("material.delta_E", "must be nonzero")
    cfg.material = MaterialParams(**mat_kwargs)
    if not (0.0 < hyperfine_constant_A0(cfg.material)[1] < math.inf):
        raise ConfigError("material.psi0_sq", "gives no finite positive hyperfine constant")

    if "voltage" in data:
        cfg.voltages = _grid(data["voltage"], "voltage", "voltage")

    if "gate" in data:
        g = _object(data["gate"], "gate", ("kind", "a", "c", "D"))
        if "kind" not in g:
            raise ConfigError("gate.kind", "required")
        kwargs = {"kind": g["kind"]}
        for key in ("a", "c", "D"):
            if key in g:
                kwargs[key] = parse_quantity(g[key], "length", f"gate.{key}")
        try:
            cfg.gate = GateGeometry(**kwargs)
            field_coeffs(cfg.gate, 1.0)  # finite lengths can still overflow or underflow here
        except (TypeError, ValueError) as exc:
            raise ConfigError("gate", str(exc)) from None
        except (OverflowError, ZeroDivisionError):
            raise ConfigError("gate", "lengths overflow or underflow the field model") from None
        try:  # the shift is quadratic in the field, so a huge voltage overflows it
            shifts = [hic_shift(field_coeffs(cfg.gate, v), cfg.material) for v in cfg.voltages]
        except OverflowError:
            shifts = None
        if shifts is None or not all(abs(b.total) < math.inf for b in shifts):
            raise ConfigError("voltage", "the hyperfine shift overflows at these gate voltages")

    if "placement" in data:
        p = _object(data["placement"], "placement", ("dx", "dz"))
        cfg.placement = PlacementError(
            dx=parse_quantity(p.get("dx", "0 nm"), "length", "placement.dx"),
            dz=parse_quantity(p.get("dz", "0 nm"), "length", "placement.dz"),
        )

    eb = _object(data.get("error_budget", {}), "error_budget", ("target", "line_width", "ranges"))
    if "target" in eb:
        cfg.target = parse_number(eb["target"], "error_budget.target")
        if not (cfg.target > 0):
            raise ConfigError("error_budget.target", "must be positive")
    if "line_width" in eb:
        cfg.line_width = parse_quantity(eb["line_width"], "frequency", "error_budget.line_width")
        if not (cfg.line_width >= 0):
            raise ConfigError("error_budget.line_width", "must be non-negative")
    if "ranges" in eb:
        given = _object(eb["ranges"], "error_budget.ranges", ("a", "c", "V"))
        ranges = {}
        for key, kind in (("a", "length"), ("c", "length"), ("V", "voltage")):
            name = f"error_budget.ranges.{key}"
            if key not in given:
                raise ConfigError(name, "required")
            pair = given[key]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(name, "expected [low, high]")
            lo = parse_quantity(pair[0], kind, f"{name}[0]")
            hi = parse_quantity(pair[1], kind, f"{name}[1]")
            if not (hi >= lo):
                raise ConfigError(name, "low end above high end")
            if kind == "length" and not (lo > 0):
                raise ConfigError(name, "lengths must be positive")
            ranges[key] = (lo, hi)
        cfg.nulling_ranges = ranges

    spin = _object(data.get("spin", {}), "spin", ("alpha_a", "alpha_b", "beta", "mu"))
    if "alpha_a" in spin:
        cfg.alpha_a = parse_number(spin["alpha_a"], "spin.alpha_a")
    if "alpha_b" in spin:
        cfg.alpha_b = parse_number(spin["alpha_b"], "spin.alpha_b")
    if "beta" in spin:
        cfg.beta_grid = _grid(spin["beta"], "spin.beta", None)
        if any(b >= c for b, c in zip(cfg.beta_grid, cfg.beta_grid[1:])):
            raise ConfigError("spin.beta", "grid must be strictly ascending")
    if "mu" in spin and spin["mu"] != "slaved":
        cfg.mu = parse_number(spin["mu"], "spin.mu")

    return cfg
