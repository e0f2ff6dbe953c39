"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: derivatives come from
Richardson-extrapolated central differences, eigenvalues from inertia
counting (LDL^T pivots of A - x I) plus bisection on the characteristic
polynomial's sign structure, the two-level sectors at alpha_a = alpha_b
from their closed forms (:func:`two_level_eigenvalues`,
:func:`odd_minus_one_anticrossing`) in the basis that :func:`sector_rotation`
builds from the spin projections, the exchanges at weak coupling from
first-order degenerate perturbation theory (:func:`weak_coupling_exchanges`),
and the placement error terms from the paper's displaced-field brackets
(:func:`displaced_field_brackets`), and the admissible voltage error from a
decimal root (:func:`admissible_dv`).  The exceptions are the per-point loops
that whole-grid code must reproduce bit for bit: :func:`per_report_bisection`
for the lockstep bisection in ``find_anticrossings``, :func:`per_point_nulling`
for the mesh search in ``find_nulling_parameters``, :func:`per_row_error_budget` for the
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


def sector_of(system, track):
    """The component of ``system`` that ``track`` was solved in: the one with the track's labels."""
    return next(s for s in system.sectors[track.block] if s.labels == track.basis)


def rank_of(sweep, track):
    """The eigenvalue rank of ``track`` in its component: its place among the component's tracks."""
    same = [t for t in sweep.tracks if t.block == track.block and t.basis == track.basis]
    return next(k for k, t in enumerate(same) if t is track)


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


def _basis_vector(*terms):
    """The 16-vector sum of sign * |label> over the (sign, label) ``terms``, normalized."""
    v = np.zeros(16)
    for sign, label in terms:
        v[label - 1] = sign
    return v / np.linalg.norm(v)


# the three states of blocks -1 and 0 that meet at beta0 = 1/(1 + MU_OVER_BETA)
# when alpha = 0, as (labels, vector): a product state, or the electron singlet
# (|ud> - |du>)/sqrt(2) with nuclei dd, ud or du, under its two product labels
_WEAK_MEETINGS = {
    -1: ((14, _basis_vector((1, 14))), (15, _basis_vector((1, 15))),
         ((8, 12), _basis_vector((1, 8), (-1, 12)))),
    0: ((13, _basis_vector((1, 13))), ((6, 10), _basis_vector((1, 6), (-1, 10))),
        ((7, 11), _basis_vector((1, 7), (-1, 11)))),
}


def weak_coupling_exchanges(ratio, x_lo=-40.0, x_hi=40.0, points=2001):
    """Half-transfer points and gaps of alpha_a = ratio * s, alpha_b = s as s -> 0.

    At alpha = 0 three levels of each of blocks -1 and 0 meet at beta0 =
    1/(1 + MU_OVER_BETA).  With x = (beta - beta0)/s, first-order degenerate
    perturbation theory on those three states P gives the s-free problem
    H_eff/s = x diag(P^T H' P) + P^T V P, where H' = dH/dbeta with mu slaved
    and V = ratio HF_A + HF_B, both read off ``build_hamiltonian``.  It is
    solved by ``np.linalg.eigh`` on each 3 x 3, and its levels are the tracks
    in energy order, as in one block no two meet.

    Returns {(block, enter label): (x_star, gap, exit labels)} for each track
    on [x_lo, x_hi] that enters (at x_hi) as a product state and exits (at x_lo)
    as another state: x_star is the highest point where its weight on the
    entering state rises through 1/2, bisected to rounding, and gap the
    distance in units of s to the nearest other of the three levels there.
    """
    from sidonor.spin_hamiltonian import MU_OVER_BETA, SpinParams, build_hamiltonian

    h0 = build_hamiltonian(SpinParams(0.0, 0.0, 0.0, 0.0))
    slope = build_hamiltonian(SpinParams(0.0, 0.0, 1.0, MU_OVER_BETA)) - h0
    v = build_hamiltonian(SpinParams(ratio, 1.0, 0.0, 0.0)) - h0
    xs = np.linspace(x_lo, x_hi, points)
    out = {}
    for block, states in _WEAK_MEETINGS.items():
        labels = [label for label, _ in states]
        p = np.column_stack([vec for _, vec in states])
        meeting = p.T @ (h0 + slope / (1.0 + MU_OVER_BETA)) @ p
        assert np.allclose(meeting, meeting[0, 0] * np.eye(3), rtol=0.0, atol=1e-14)
        d = p.T @ slope @ p
        assert np.allclose(d, np.diag(np.diag(d)), rtol=0.0, atol=1e-15)  # H' is diagonal on P
        vp = p.T @ v @ p

        def h_eff(x):
            return np.asarray(x)[..., None, None] * np.diag(np.diag(d)) + vp

        weights = np.linalg.eigh(h_eff(xs))[1] ** 2  # (point, state, track)
        for k in range(3):
            enter, leave = (int(np.argmax(weights[i, :, k])) for i in (-1, 0))
            if enter == leave or not isinstance(labels[enter], int):
                continue
            f = weights[:, enter, k] - 0.5
            i0 = int(np.flatnonzero((f[1:] >= 0.0) & (f[:-1] < 0.0))[-1])
            lo, hi = xs[i0], xs[i0 + 1]
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                if np.linalg.eigh(h_eff(mid))[1][enter, k] ** 2 >= 0.5:
                    hi = mid
                else:
                    lo = mid
            w = np.linalg.eigvalsh(h_eff(hi))
            gap = min(abs(w[k] - w[j]) for j in range(3) if j != k)
            exits = labels[leave] if isinstance(labels[leave], tuple) else (labels[leave],)
            out[block, labels[enter]] = (float(hi), float(gap), exits)
    return out


def _exchange_report(sweep, track):
    """One track's exchange report, bisected alone in its rank column with one-point solves."""
    from sidonor.spectrum import CROSSING_TOL, AnticrossingReport, eigensolve_block
    from sidonor.spin_hamiltonian import BASIS, MU_OVER_BETA

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

    col = rank_of(sweep, track)
    lo, hi = betas[i0], betas[i1]
    use_half = whi[-1] >= 0.5
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        w, v = (x[0] for x in eigensolve_block(system.stack(sector, [mid])))
        wcol = v[:, col] ** 2
        val = wcol[j_hi] - (0.5 if use_half else wcol[j_lo])
        if val >= 0.0:
            hi = mid
        else:
            lo = mid
    beta_star = 0.5 * (lo + hi)

    w, v = (x[0] for x in eigensolve_block(system.stack(sector, [beta_star])))
    dist = np.abs(w - w[col])
    dist[col] = np.inf
    partner_col = int(np.argmin(dist))
    gap = dist[partner_col]
    partner = track.basis[int(np.argmax(np.abs(v[:, partner_col])))]

    # dH/dbeta from the spin projections: M - mu' (ma + mb), mu' = MU_OVER_BETA if mu is slaved
    states = [BASIS[label - 1] for label in track.basis]
    mu_slope = MU_OVER_BETA if system.mu is None else 0.0
    slope = np.array([s.M - mu_slope * (s.ma + s.mb) for s in states])
    resolution = abs(np.dot(v[:, col] ** 2 - v[:, partner_col] ** 2, slope)) * (hi - lo)
    scale = max(1.0, float(np.max(np.abs(w))))
    kind = "anticrossing" if gap > max(CROSSING_TOL * scale, resolution) else "crossing"

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
    eigensolve of that track's component, read in the track's rank column.
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


def displaced_field_brackets(a, c, dx, dz):
    """The paper's three bracket factors of the strip field derivatives at a displaced donor.

    For a strip of half-width ``a`` and a donor at depth ``c`` moved by ``dx``
    across and ``dz`` down, they multiply (-E_c, E1_c, -E2_c/2) respectively
    and are 1 at dx = dz = 0.  Terms linear in dz and quadratic in dx are kept
    (dz ~ dx^2; the dz^2 terms are dropped).  The error terms of
    ``relative_hic_error`` with coefficients (q, l) follow from them:
    dz_term = 2 q V^2 (1 - b1(0, dz)) and
    dx2_term = 2 q V^2 (1 - b1(dx, 0)) + l V (b2 - b3)(dx, 0).
    """
    s = a**2 + c**2
    b1 = 1.0 - dz / (c * (1.0 + a**2 / c**2)) - dx**2 * (2.0 * c**2 - a**2) / (2.0 * s**2)
    b2 = (1.0 - dz * (2.0 * c**2 - a**2) / (c * s)
          - dx**2 * (4.0 * c**4 + a**2 * c**2 - a**4) / (2.0 * c**2 * s**2))
    b3 = 1.0 - dz * (2.0 * c**2 - a**2) / (c * s) - dx**2 * (2.0 * c**2 + a**2) / (2.0 * s**2)
    return b1, b2, b3


def admissible_dv(lin, quad, V, t):
    """The non-negative root dV of |s| dV + |quad| dV^2 = t, in 80-digit decimal arithmetic.

    s = lin + 2 quad V is the slope as a float computes it, the slope that
    ``admissible_voltage_error`` reports: near a stationary point its own
    rounding decides the bound, and the oracle checks the root of that
    equation.  The root is exact to 80 digits before its one rounding to a
    float; dV is inf where s = quad = 0 < t.
    """
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 80
        s, q, t = (abs(decimal.Decimal(x)) for x in (lin + 2.0 * quad * V, quad, t))
        if t == 0:
            return 0.0
        disc = s * s + 4 * q * t
        return math.inf if disc == 0 else float(2 * t / (s + disc.sqrt()))


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
