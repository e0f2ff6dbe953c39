"""Seeded workload definitions: each seed gives one sidonor config and CLI call.

The program receives only the generated config file; the seed never reaches it.
Seed 0 of ``spectrum-ref`` and ``nulling-ref`` is exactly the README example.

Why these three:

* ``spectrum-ref``: ``spectrum --format both`` on the README config (401 beta
  points, slaved mu); other seeds draw alpha_a, alpha_b from [0.25, 0.45],
  which keeps the work fixed (6 exchanges, 1,265 refined points).  The only
  workload where the two-pass sweep and the 4.7 MB emission are both heavy.
* ``nulling-ref``: ``error-budget --format both`` on the same config; seeds
  jitter the ``ranges`` endpoints by up to 3 % and keep the 101 x 101 mesh.
  All the work is the nulling scan and 2.5 MB of emission, with zero
  eigensolves, so a spin-side change should not move it.
* ``anticross-fine``: ``anticross`` with alpha_a = alpha_b drawn from
  [0.04, 0.08] on a 2001-point beta grid.  Heavy on the sweep, with one
  5 KB file, it separates a solver gain from a writer gain, exposes the
  memory cost of a batched solver, and loads the scalar bisection solves.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass

# the README example config, verbatim
README_CONFIG = {
    "material": {
        "a_star": "2 nm",
        "eps_r": 11.9,
        "psi0_sq": "0.43e24 cm^-3",
        "Delta_E": "0.04 eV",
        "delta_E": "-0.023 eV",
    },
    "gate": {"kind": "strip", "a": "5 nm", "c": "10 nm", "D": "500 nm"},
    "voltage": {"start": "0 V", "stop": "1 V", "points": 11},
    "placement": {"dx": "1 nm", "dz": "1 nm"},
    "error_budget": {
        "target": 0.01,
        "line_width": "10 kHz",
        "ranges": {"a": ["3 nm", "8 nm"], "c": ["8 nm", "12 nm"], "V": ["0.1 V", "1 V"]},
    },
    "spin": {
        "alpha_a": 0.3,
        "alpha_b": 0.4,
        "beta": {"start": 0.2, "stop": 3.0, "points": 401},
        "mu": "slaved",
    },
}

# find_nulling_parameters scans this many points per axis (its default)
NULLING_GRID_POINTS = 101

NAMES = ("spectrum-ref", "nulling-ref", "anticross-fine")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # sidonor subcommand
    extra_args: tuple      # further CLI arguments, before --out-dir
    config: dict
    units: int             # input units per invocation (beta points or mesh configurations)
    unit_name: str
    mesh: int              # (a, c) mesh configurations of one nulling search

    def config_text(self) -> str:
        return json.dumps(self.config, indent=2, sort_keys=True) + "\n"


def _quantity(value: float, unit: str) -> str:
    return f"{value:.6g} {unit}"


def _mesh_size(ranges: dict) -> int:
    """(a, c) configurations the nulling search visits for string ranges."""
    size = 1
    for key in ("a", "c"):
        lo, hi = (float(s.split()[0]) for s in ranges[key])
        size *= 1 if lo == hi else NULLING_GRID_POINTS
    return size


def make(name: str, seed: int, shrink: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``shrink`` gives a tiny variant for self-tests."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(f"{name}/{seed}")
    cfg = copy.deepcopy(README_CONFIG)
    spin = cfg["spin"]
    ranges = cfg["error_budget"]["ranges"]

    if name == "spectrum-ref":
        if seed != 0:
            spin["alpha_a"] = round(rng.uniform(0.25, 0.45), 4)
            spin["alpha_b"] = round(rng.uniform(0.25, 0.45), 4)
        if shrink:
            spin["beta"]["points"] = 41
        return Workload(name, "spectrum", ("--format", "both"), cfg,
                        spin["beta"]["points"], "beta points", _mesh_size(ranges))

    if name == "nulling-ref":
        if seed != 0:
            for key, unit in (("a", "nm"), ("c", "nm"), ("V", "V")):
                ranges[key] = [
                    _quantity(float(s.split()[0]) * (1.0 + rng.uniform(-0.03, 0.03)), unit)
                    for s in ranges[key]
                ]
        if shrink:
            ranges["a"] = [ranges["a"][0], ranges["a"][0]]
        mesh = _mesh_size(ranges)
        return Workload(name, "error-budget", ("--format", "both"), cfg,
                        mesh, "(a, c) mesh configurations", mesh)

    # anticross-fine
    alpha = round(rng.uniform(0.04, 0.08), 4)
    spin["alpha_a"] = spin["alpha_b"] = alpha
    spin["beta"]["points"] = 201 if shrink else 2001
    return Workload(name, "anticross", (), cfg,
                    spin["beta"]["points"], "beta points", _mesh_size(ranges))
