"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: derivatives come from
Richardson-extrapolated central differences, eigenvalues from inertia
counting (LDL^T pivots of A - x I) plus bisection on the characteristic
polynomial's sign structure, and the two-level sectors at alpha_a = alpha_b
from their closed forms (:func:`two_level_eigenvalues`,
:func:`odd_minus_one_anticrossing`) in the basis that :func:`sector_rotation`
builds from the spin projections.  The exceptions are the per-point loops that
whole-grid code must reproduce bit for bit: :func:`per_point_tracks` for the
tracking in ``sweep_spectrum``, :func:`per_report_bisection` for the lockstep
bisection in ``find_anticrossings``, :func:`per_point_nulling` for the mesh
search in ``find_nulling_parameters``, :func:`per_row_error_budget` for the
voltage table of ``error-budget`` (scalar calls per row, against one array
call per coefficient mode), and :func:`write_table` for the columnar table
writer in ``cli``, which must write the same bytes.
"""

import csv
import json
import math

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
    """Number of eigenvalues of symmetric ``a`` strictly below x (LDL inertia).

    As in LAPACK's dstebz, a pivot below ``pivmin`` in magnitude is raised to
    it, keeping its sign (a zero's sign bit included): the division cannot
    overflow, and a near-singular shift miscounts by <= 1 inside a shrinking
    bracket.
    """
    b = np.array(a, dtype=float) - x * np.eye(len(a))
    scale = max(1.0, float(np.max(np.abs(b))))
    pivmin = np.finfo(float).tiny * scale * scale
    neg = 0
    n = len(b)
    for k in range(n):
        piv = b[k, k]
        if abs(piv) < pivmin:
            piv = math.copysign(pivmin, piv)
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
    """Reference adiabatic tracking: one greedy ``_match`` per grid point and sector.

    Returns a list of (block, energies, vectors) in ``sweep_spectrum``'s
    track order: by block, then ascending at the first grid point, the even
    sector first on a tie.
    """
    from sidonor.spectrum import _BlockSystem, _match, eigensolve_block
    from sidonor.spin_hamiltonian import BLOCK_ORDER

    betas = np.asarray(beta_grid, dtype=float)
    system = _BlockSystem(alpha_a, alpha_b, mu)
    out = []
    for key in BLOCK_ORDER:
        block = []
        for sector in system.sectors[key]:
            energies, vectors = eigensolve_block(system.stack(sector, betas))
            for i in range(1, betas.size):
                perm = _match(system, sector, betas[i - 1], vectors[i - 1], betas[i], vectors[i])
                energies[i] = energies[i, perm]
                vectors[i] = vectors[i][:, perm]
            for t in range(len(sector.labels)):
                block.append((key, energies[:, t].copy(), vectors[:, :, t].copy()))
        out += sorted(block, key=lambda track: track[1][0])
    return out


def sector_of(system, track):
    """The sector of ``system`` that ``track`` was solved in."""
    return next(s for s in system.sectors[track.block] if s.parity == track.parity)


def sector_rotation(sector):
    """(block dim, sector dim) matrix whose columns are the sector's states in the product basis.

    Built from the labels and the spin projections alone: with l' the state
    of swapped donors, label l is |l> in a whole block or when l' = l,
    (|l> + |l'>)/sqrt(2) in the even sector (l < l') and (|l'> - |l>)/sqrt(2)
    in the odd one (l > l').
    """
    from sidonor.spin_hamiltonian import BASIS, BLOCKS

    block = BLOCKS[sector.block]
    r = np.zeros((len(block), len(sector.labels)))
    for k, label in enumerate(sector.labels):
        s = BASIS[label - 1]
        swapped = next(t.index for t in BASIS if (t.Ma, t.Mb, t.ma, t.mb) == (s.Mb, s.Ma, s.mb, s.ma))
        if sector.parity == 0 or swapped == label:
            r[block.index(label), k] = 1.0
        else:
            r[block.index(label), k] = sector.parity / np.sqrt(2.0)
            r[block.index(swapped), k] = 1.0 / np.sqrt(2.0)
    return r


def two_level_eigenvalues(h):
    """Closed-form eigenvalues m -+ sqrt(d^2 + b^2) of a symmetric 2 x 2 matrix, ascending.

    m is the mean of the diagonal entries, d half their difference and b the
    off-diagonal entry.
    """
    m = 0.5 * (h[0, 0] + h[1, 1])
    r = np.hypot(0.5 * (h[0, 0] - h[1, 1]), h[0, 1])
    return m - r, m + r


def odd_minus_one_anticrossing(alpha):
    """(beta_star, gap) of the block -1 odd sector at alpha_a = alpha_b = alpha, mu slaved.

    The sector {(|8> - |12>)/sqrt(2), (|14> - |15>)/sqrt(2)} has diagonal
    entries -3/4 + mu and 1/4 - beta and off-diagonal entry alpha/2, so the
    half-transfer point is where the diagonals meet, beta (1 + mu/beta) = 1,
    and the gap there is 2 |alpha/2|.
    """
    from sidonor.spin_hamiltonian import MU_OVER_BETA

    return 1.0 / (1.0 + MU_OVER_BETA), abs(alpha)


def _exchange_report(sweep, track):
    """One track's exchange report, bisected alone with one-point solves."""
    from sidonor.spectrum import CROSSING_TOL, AnticrossingReport, eigensolve_block

    system = sweep.system
    sector = sector_of(system, track)
    betas = sweep.beta_grid
    wts = track.vectors**2
    enter_label, enter_weight = track.dominant(-1)
    exit_label, exit_weight = track.dominant(0)
    if enter_label == exit_label:
        return None

    j_hi = track.basis.index(enter_label)
    j_lo = track.basis.index(exit_label)
    whi = wts[:, j_hi]
    f = whi - 0.5 if whi[-1] >= 0.5 else whi - wts[:, j_lo]
    ups = np.flatnonzero((f[1:] >= 0.0) & (f[:-1] < 0.0))
    if ups.size == 0:
        return None
    i0 = int(ups[-1])
    i1 = i0 + 1

    v_ref = track.vectors[i1]
    lo, hi = betas[i0], betas[i1]
    use_half = whi[-1] >= 0.5
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        w, v = (x[0] for x in eigensolve_block(system.stack(sector, [mid])))
        col = int(np.argmax(np.abs(v_ref @ v)))
        wcol = v[:, col] ** 2
        val = wcol[j_hi] - (0.5 if use_half else wcol[j_lo])
        if val >= 0.0:
            hi = mid
        else:
            lo = mid
    beta_star = 0.5 * (lo + hi)

    w, v = (x[0] for x in eigensolve_block(system.stack(sector, [beta_star])))
    col = int(np.argmax(np.abs(v_ref @ v)))
    dist = np.abs(w - w[col])
    dist[col] = np.inf
    partner_col = int(np.argmin(dist))
    gap = dist[partner_col]
    partner = track.basis[int(np.argmax(np.abs(v[:, partner_col])))]

    scale = max(1.0, float(np.max(np.abs(w))))
    kind = "anticrossing" if gap > CROSSING_TOL * scale else "crossing"

    return AnticrossingReport(
        pair=(enter_label, exit_label),
        beta_star=float(beta_star),
        min_gap=float(gap),
        block=track.block,
        kind=kind,
        partner=partner,
        enter_weight=enter_weight,
        exit_weight=exit_weight,
    )


def per_report_bisection(sweep):
    """Reference ``find_anticrossings``: each exchanging track bisected on its own.

    Every bisection step and the final ``beta_star`` solve is a one-point
    eigensolve of that track's sector.
    """
    from sidonor.spectrum import _crossing_reports
    from sidonor.spin_hamiltonian import BLOCK_ORDER

    reports = []
    for track in sweep.tracks:
        if len(track.basis) < 2:
            continue
        rep = _exchange_report(sweep, track)
        if rep is not None:
            reports.append(rep)
    for key in BLOCK_ORDER:
        block_tracks = [t for t in sweep.tracks if t.block == key]
        if len(block_tracks) > 1:
            reports.extend(_crossing_reports(sweep, block_tracks))
    reports.sort(key=lambda r: (r.beta_star, r.block, r.pair))
    return reports


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


def per_row_error_budget(cfg):
    """Reference ``error-budget`` table: scalar calls per voltage row and mode.

    Returns the rows of ``error_budget.*``, or the ``ConfigError`` that the
    first failing check raises.
    """
    import math

    from sidonor.cli import _require_gate
    from sidonor.config import ConfigError
    from sidonor.error_budget import (
        admissible_voltage_error,
        dz_for_target,
        nulling_voltage,
        relative_hic_error,
        strip_coefficients,
        strip_gate_terms,
    )

    def placement_terms(gate, v, mode, cfg):
        try:
            rep = relative_hic_error(gate, v, cfg.placement, mode, cfg.material)
        except OverflowError:  # dx**2 beyond the float range
            raise ConfigError("placement.dx", "the offset overflows the error terms") from None
        for name, term in (("placement.dz", rep.dz_term), ("placement.dx", rep.dx2_term),
                           ("placement", rep.dA_over_A)):
            if not abs(term) < math.inf:
                if mode == "recomputed":
                    raise ConfigError("material", "the recomputed strip coefficients overflow the error terms")
                raise ConfigError(name, "the offset overflows the error terms")
        return rep

    try:
        gate = _require_gate(cfg)
        if gate.kind != "strip":
            raise ConfigError("gate.kind", "the error budget needs a strip gate")
        if not all(v >= 0 for v in cfg.voltages):
            raise ConfigError("voltage", "the error budget needs non-negative voltages")
        try:
            strip_gate_terms(gate)
        except ValueError as exc:
            raise ConfigError("gate", str(exc)) from None
        q, l = strip_coefficients(gate, "recomputed", cfg.material)
        if not (0.0 < q < math.inf and 0.0 < l < math.inf):
            raise ConfigError("material", "recomputed strip coefficients not finite and positive")
        dvs = [admissible_voltage_error(gate, v, cfg.line_width, mat=cfg.material).dV for v in cfg.voltages]
        if not all(0.0 <= dv < math.inf for dv in dvs):
            raise ConfigError("material", "the admissible voltage error is not finite and non-negative")
        rows = []
        for mode in ("published", "recomputed"):
            nulling_v = nulling_voltage(gate, mode, cfg.material)
            for v, dv in zip(cfg.voltages, dvs):
                rep = placement_terms(gate, v, mode, cfg)
                dz_t = dz_for_target(gate, v, cfg.target, mode, cfg.material) if v > 0 else None
                if dz_t is not None and not abs(dz_t) < math.inf:
                    if mode == "recomputed":
                        raise ConfigError("material", "the recomputed strip coefficients give no finite dz_for_target")
                    raise ConfigError("voltage", "the voltage gives no finite dz_for_target")
                in_band = dz_t is not None and 2e-9 <= dz_t <= 3e-9
                rows.append([mode, v, rep.dz_term, rep.dx2_term, rep.dA_over_A, dz_t, int(in_band), dv, nulling_v])
    except ConfigError as exc:
        return exc
    return rows


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
