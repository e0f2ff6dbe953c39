"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: derivatives come from
Richardson-extrapolated central differences, eigenvalues from inertia
counting (LDL^T pivots of A - x I) plus bisection on the characteristic
polynomial's sign structure.  The exceptions are the per-point loops that
whole-grid code must reproduce bit for bit: :func:`per_point_tracks` for the
tracking in ``sweep_spectrum`` and :func:`per_point_nulling` for the mesh
search in ``find_nulling_parameters``, and :func:`write_table` for the
columnar table writer in ``cli``, which must write the same bytes.
"""

import csv
import json

import numpy as np


def richardson_d1(f, x, h):
    """First derivative, central differences at steps h and h/2 (O(h^4))."""
    def cd(s):
        return (f(x + s) - f(x - s)) / (2.0 * s)

    return (4.0 * cd(h / 2.0) - cd(h)) / 3.0


def richardson_d2(f, x, h):
    """Second derivative, central differences at steps h and h/2 (O(h^4))."""
    def cd(s):
        return (f(x + s) - 2.0 * f(x) + f(x - s)) / (s * s)

    return (4.0 * cd(h / 2.0) - cd(h)) / 3.0


def _count_below(a, x):
    """Number of eigenvalues of symmetric ``a`` strictly below x (LDL inertia)."""
    b = np.array(a, dtype=float) - x * np.eye(len(a))
    neg = 0
    n = len(b)
    for k in range(n):
        piv = b[k, k]
        if piv == 0.0:
            piv = 1e-300  # exact hit; miscount by <= 1 inside a shrinking bracket
        if piv < 0.0:
            neg += 1
        if k + 1 < n:
            b[k + 1:, k + 1:] -= np.outer(b[k + 1:, k], b[k + 1:, k]) / piv
    return neg


def eig_bisect(a, tol=1e-13):
    """All eigenvalues of a small symmetric matrix by inertia bisection."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    radius = np.max(np.sum(np.abs(a), axis=1))
    scale = max(1.0, radius)
    out = []
    for k in range(1, n + 1):
        lo, hi = -radius - 1.0, radius + 1.0
        while hi - lo > tol * scale:
            mid = 0.5 * (lo + hi)
            if _count_below(a, mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def per_point_tracks(alpha_a, alpha_b, beta_grid, mu):
    """Reference adiabatic tracking: one greedy ``_match`` per grid point.

    Returns a list of (block, energies, vectors) in ``sweep_spectrum``'s
    track order.
    """
    from sidonor.spectrum import _BlockSystem, _match, eigensolve_block
    from sidonor.spin_hamiltonian import BLOCK_ORDER, BLOCKS

    betas = np.asarray(beta_grid, dtype=float)
    system = _BlockSystem(alpha_a, alpha_b, mu)
    out = []
    for key in BLOCK_ORDER:
        energies, vectors = eigensolve_block(system.stack(key, betas))
        for i in range(1, betas.size):
            perm = _match(system, key, betas[i - 1], vectors[i - 1], betas[i], vectors[i])
            energies[i] = energies[i, perm]
            vectors[i] = vectors[i][:, perm]
        for t in range(len(BLOCKS[key])):
            out.append((key, energies[:, t].copy(), vectors[:, :, t].copy()))
    return out


def per_point_nulling(target, ranges, grid_points=101, min_dz=1e-9):
    """Reference nulling search: one strip gate and three scalar calls per mesh point.

    Returns a list of (a, c, V, bracket, admissible_dz) rows in (a, c) order.
    """
    from sidonor.constants import linear_grid
    from sidonor.electrostatics import GateGeometry
    from sidonor.error_budget import dx2_bracket, dz_for_target, nulling_voltage

    (a_lo, a_hi), (c_lo, c_hi), (v_lo, v_hi) = ranges["a"], ranges["c"], ranges["V"]
    a_axis = linear_grid(a_lo, a_hi, 1 if a_hi == a_lo else grid_points)
    c_axis = linear_grid(c_lo, c_hi, 1 if c_hi == c_lo else grid_points)
    results = []
    for a in a_axis:  # ascending axes: rows come out ordered by (a, c)
        for c in c_axis:
            gate = GateGeometry(kind="strip", a=a, c=c, D=100.0 * a)
            root = nulling_voltage(gate)
            if root is None or not v_lo <= root <= v_hi:
                continue
            adm = dz_for_target(gate, root, target)
            if adm >= min_dz:
                bracket = dx2_bracket(gate, root)
                results.append((a, c, root, bracket, adm))
    return results


def write_table(csv_path, json_path, header, rows):
    """Reference table writer: ``csv.writer`` rows and ``json.dump`` of one dict per row.

    Either path may be ``None`` to skip that format.
    """
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2, sort_keys=True)
            fh.write("\n")
