"""Output checks that share no code with the timed path.

Each check reads the files one invocation wrote and returns a list of
problems (empty when the output is correct).  The oracles are written here
from the model's definitions: the 16x16 two-donor Hamiltonian for the
spectrum, and the closed-form root of the dx^2 bracket for the nulling
search.  Only numpy and the standard library are used.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
import random

import numpy as np

# g_N mu_N / (2 mu_B) with the reference constants 2.26, 5.05e-27 J/T, 9.27e-24 J/T
MU_OVER_BETA = 2.26 * 5.05e-27 / (2.0 * 9.27e-24)
# published strip calibration: quadratic shift scale, linear sensitivity scale
STRIP_Q, STRIP_L = 0.063, 0.085
MIN_DZ = 1e-9                    # find_nulling_parameters default
ENERGY_TOL = 1e-10               # units of J
ROOT_RTOL = 1e-9
SAMPLE_BETAS = 8

_UNIT = {"nm": 1e-9, "V": 1.0}


def _si(quantity: str) -> float:
    number, unit = quantity.split()
    return float(number) * _UNIT[unit]


def _axis(start: float, stop: float, points: int) -> list[float]:
    if points == 1:
        return [start]
    return [start + (stop - start) * i / (points - 1) for i in range(points)]


def _load_json(path: str):
    bad = []

    def reject(token):
        bad.append(token)
        return float("nan")

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=reject)
    return data, bad


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _floats(v)
    elif isinstance(node, list):
        for v in node:
            yield from _floats(v)


def _csv_matches_json(header, csv_rows, records) -> list[str]:
    """CSV cells equal the JSON record values (numbers compared as numbers)."""
    if len(csv_rows) != len(records):
        return [f"csv has {len(csv_rows)} rows, json {len(records)}"]
    for n, (row, rec) in enumerate(zip(csv_rows, records)):
        if sorted(rec) != sorted(header):
            return [f"json record {n} keys {sorted(rec)} differ from csv header"]
        for key, cell in zip(header, row):
            value = rec[key]
            if value is None:
                same = cell == ""
            elif isinstance(value, str):
                same = cell == value
            else:
                same = float(cell) == float(value)
            if not same:
                return [f"row {n} column {key}: csv {cell!r} != json {value!r}"]
    return []


# --- spectrum -----------------------------------------------------------

def _spin_ops():
    sz = np.diag([0.5, -0.5])
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    isy = np.array([[0.0, 0.5], [-0.5, 0.0]])  # i * S_y, real
    eye = np.eye(2)

    def at(op, pos):  # positions: electron a, electron b, nucleus a, nucleus b
        out = np.ones((1, 1))
        for k in range(4):
            out = np.kron(out, op if k == pos else eye)
        return out

    def dot(p, q):  # S_p . S_q, with S_y S_y = -(iS_y)(iS_y)
        return at(sx, p) @ at(sx, q) - at(isy, p) @ at(isy, q) + at(sz, p) @ at(sz, q)

    return at(sz, 0) + at(sz, 1), at(sz, 2) + at(sz, 3), dot(0, 1), dot(2, 0), dot(3, 1)


_ZE, _ZN, _EX, _HFA, _HFB = _spin_ops()


def hamiltonian(alpha_a: float, alpha_b: float, beta: float, mu: float) -> np.ndarray:
    """H/J = beta(S_az+S_bz) + S_a.S_b - mu(I_az+I_bz) + alpha_a I_a.S_a + alpha_b I_b.S_b."""
    return beta * _ZE + _EX - mu * _ZN + alpha_a * _HFA + alpha_b * _HFB


def _nearest(ascending: list[float], x: float) -> float:
    i = bisect.bisect_left(ascending, x)
    return min(ascending[max(i - 1, 0):i + 1], key=lambda y: abs(y - x))


def _spin_params(config: dict) -> tuple[float, float, float | None]:
    spin = config["spin"]
    mu = None if spin["mu"] == "slaved" else float(spin["mu"])
    return float(spin["alpha_a"]), float(spin["alpha_b"]), mu


def _beta_axis(config: dict) -> list[float]:
    b = config["spin"]["beta"]
    return _axis(float(b["start"]), float(b["stop"]), int(b["points"]))


def _check_anticrossings(path: str, config: dict) -> list[str]:
    if not os.path.isfile(path):
        return [f"missing {os.path.basename(path)}"]
    data, bad = _load_json(path)
    problems = [f"non-finite constant {t} in anticrossings.json" for t in bad[:1]]
    if any(not math.isfinite(x) for x in _floats(data)):
        problems.append("non-finite float in anticrossings.json")
    traces = data.get("transfer_traces", [])
    if len(traces) != 16:
        problems.append(f"{len(traces)} transfer traces, expected 16")
    grid = _beta_axis(config)
    for rep in data.get("anticrossings", []):
        if not grid[0] <= rep["beta_star"] <= grid[-1]:
            problems.append(f"beta_star {rep['beta_star']} outside the grid")
            break
    return problems


def check_spectrum(out_dir: str, config: dict, seed: int) -> list[str]:
    csv_path = os.path.join(out_dir, "spectrum.csv")
    json_path = os.path.join(out_dir, "spectrum.json")
    for path in (csv_path, json_path):
        if not os.path.isfile(path):
            return [f"missing {os.path.basename(path)}"]
    header, rows = _read_csv(csv_path)
    if not rows:
        return ["spectrum.csv has no rows"]
    records, bad = _load_json(json_path)
    problems = [f"non-finite constant {t} in spectrum.json" for t in bad[:1]]
    problems += _csv_matches_json(header, rows, records)

    col = {name: header.index(name) for name in ("beta", "level", "energy")}
    by_beta: dict[float, list[tuple[int, float]]] = {}
    for row in rows:
        by_beta.setdefault(float(row[col["beta"]]), []).append(
            (int(row[col["level"]]), float(row[col["energy"]]))
        )
    for beta, levels in by_beta.items():
        if sorted(lv for lv, _ in levels) != list(range(1, 17)):
            return problems + [f"beta {beta}: levels {sorted(lv for lv, _ in levels)} are not 1..16"]
    if any(not math.isfinite(e) for levels in by_beta.values() for _, e in levels):
        problems.append("non-finite energy in spectrum.csv")

    betas = sorted(by_beta)
    missing = [b for b in _beta_axis(config) if abs(_nearest(betas, b) - b) > 1e-12]
    if missing:
        problems.append(f"{len(missing)} configured beta points absent, e.g. {missing[0]}")

    alpha_a, alpha_b, mu_fixed = _spin_params(config)
    rng = random.Random(seed)
    for beta in [betas[0], betas[-1]] + rng.sample(betas, min(SAMPLE_BETAS, len(betas))):
        mu = MU_OVER_BETA * beta if mu_fixed is None else mu_fixed
        want = np.linalg.eigvalsh(hamiltonian(alpha_a, alpha_b, beta, mu))
        got = np.sort([e for _, e in by_beta[beta]])
        err = float(np.max(np.abs(got - want)))
        if not err <= ENERGY_TOL:
            problems.append(f"beta {beta}: energies off by {err:.3g} J")
            break

    problems += _check_anticrossings(os.path.join(out_dir, "anticrossings.json"), config)
    return problems


def check_anticross(out_dir: str, config: dict, seed: int) -> list[str]:
    return _check_anticrossings(os.path.join(out_dir, "anticrossings.json"), config)


# --- error budget ---------------------------------------------------------

def closed_form_root(a: float, c: float) -> float | None:
    """Nonzero root in V of q V^2 (2c^2-a^2)/s^2 - l V (2c^4-a^4)/(2 c^2 s^2)."""
    denom = 2.0 * c * c * (2.0 * c * c - a * a)
    if denom == 0.0:
        return None
    v = (STRIP_L / STRIP_Q) * (2.0 * c**4 - a**4) / denom
    return v if v > 0 else None


def _admissible_dz(a: float, c: float, v: float, target: float) -> float:
    return target / (STRIP_Q * v * v * 2.0 * c / (a * a + c * c))


def _mesh_index(x: float, axis: list[float]) -> int | None:
    if len(axis) == 1:
        return 0 if x == axis[0] else None
    i = round((x - axis[0]) / (axis[-1] - axis[0]) * (len(axis) - 1))
    if 0 <= i < len(axis) and abs(x - axis[i]) <= 1e-9 * abs(axis[i]):
        return i
    return None


def check_error_budget(out_dir: str, config: dict, seed: int, grid_points: int) -> list[str]:
    problems: list[str] = []
    tables = {}
    for name in ("error_budget", "nulling"):
        csv_path = os.path.join(out_dir, f"{name}.csv")
        json_path = os.path.join(out_dir, f"{name}.json")
        if not (os.path.isfile(csv_path) and os.path.isfile(json_path)):
            return [f"missing {name}.csv or {name}.json"]
        header, rows = _read_csv(csv_path)
        records, bad = _load_json(json_path)
        problems += [f"non-finite constant {t} in {name}.json" for t in bad[:1]]
        problems += _csv_matches_json(header, rows, records)
        tables[name] = records

    voltages = config["voltage"]
    if len(tables["error_budget"]) != 2 * int(voltages["points"]):
        problems.append(f"{len(tables['error_budget'])} error-budget rows, "
                        f"expected 2 x {voltages['points']}")

    eb = config["error_budget"]
    ranges = {k: [_si(s) for s in eb["ranges"][k]] for k in ("a", "c", "V")}
    axes = {k: _axis(lo, hi, 1 if lo == hi else grid_points) for k, (lo, hi) in ranges.items()}
    v_lo, v_hi = ranges["V"]
    target = float(eb["target"])

    found = {}
    for rec in tables["nulling"]:
        ia, ic = _mesh_index(rec["a"], axes["a"]), _mesh_index(rec["c"], axes["c"])
        if ia is None or ic is None:
            problems.append(f"row (a={rec['a']}, c={rec['c']}) is not on the mesh")
            break
        if (ia, ic) in found:
            problems.append(f"duplicate row at mesh point {(ia, ic)}")
            break
        found[(ia, ic)] = rec
        root = closed_form_root(rec["a"], rec["c"])
        if root is None or abs(rec["V"] - root) > ROOT_RTOL * root:
            problems.append(f"row (a={rec['a']}, c={rec['c']}): V {rec['V']} != closed form {root}")
            break
        adm = _admissible_dz(rec["a"], rec["c"], root, target)
        if abs(rec["admissible_dz"] - adm) > 1e-6 * adm or not math.isfinite(rec["bracket"]):
            problems.append(f"row (a={rec['a']}, c={rec['c']}): admissible_dz or bracket wrong")
            break
    if problems:
        return problems

    # every mesh point whose root lies clearly inside the V range must appear
    margin = 1e-9
    for ia, a in enumerate(axes["a"]):
        for ic, c in enumerate(axes["c"]):
            root = closed_form_root(a, c)
            if root is None or not v_lo * (1 + margin) < root < v_hi * (1 - margin):
                continue
            if _admissible_dz(a, c, root, target) < MIN_DZ * (1 + margin):
                continue
            if (ia, ic) not in found:
                problems.append(f"mesh point (a={a}, c={c}) with root {root} V is missing")
                return problems
    return problems
