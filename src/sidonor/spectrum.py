"""Spectrum sweeps versus the reduced field beta = 2 mu_B B / J.

A sweep diagonalizes each conserved-projection block on a beta grid.  Where
the donor swap commutes with H to rounding
(``spin_hamiltonian.solver_sectors``), each block is solved as its even and
odd exchange-symmetry sectors instead; a track's labels are then those of
its sector's basis.  Each block or sector is split once more into the
connected components of its couplings, which differ from it only where a
coupling is exactly zero.  Two levels of one component never cross (an
exact crossing needs a symmetry, and every symmetry that a zero coupling
makes is a split into components), so the k-th eigenvalue of a component
is one adiabatic track at every beta: a track is an eigensolver column, and
no eigenvector is matched between grid points.  This module builds no
matrix: every H(beta) it solves comes from
``spin_hamiltonian.SectorHamiltonian.stack``.  On top of the tracks:

* :func:`find_anticrossings` locates level crossings (sign changes of the
  gap between tracks of different components, which never couple) and
  anticrossings.  An anticrossing is detected as a *character exchange*: a
  track whose dominant basis state at the high-beta end differs from the
  one at the low-beta end.  Its location ``beta_star`` is the half-transfer
  point where the entering character's weight crosses 1/2, and ``min_gap``
  is the distance to the nearest level of the same component there.  For
  weakly coupled pairs this reduces to the textbook minimum-gap point; for
  the strongly mixed regime (alpha ~ 0.3) it remains well defined where a
  plain adjacent-gap minimum does not.  An exchange whose gap the final
  bisection bracket cannot tell from a crossing is reported as one.
* :func:`adiabatic_transfer_trace` certifies which basis state each track
  turns into across the sweep, with the dominant weights at both ends.
* :func:`eq19_gap_dimensionless` is the strong-field closed form, in units
  of J, for the splitting of the two lowest M + m = -1 levels at equal
  hyperfine couplings: the lowest even and the lowest odd level, which lie
  in different sectors and never exchange.

Every diagonalization goes through :func:`eigensolve_block`, which solves a
whole stack of matrices at once: a stack of 2 x 2 matrices (five of the eight
exchange sectors) in closed form, one Jacobi rotation each, and
any other size with LAPACK (``np.linalg.eigh``).  A sweep makes one call per
component for the entire beta grid, and each bisection step is one call over
the midpoints of every exchanging track of a component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import DEFAULT_BETA_RANGE, ConvergenceError, linear_grid
from .spin_hamiltonian import BASIS, BLOCK_ORDER, Sector, SectorHamiltonian

DEFAULT_BETA_GRID = np.array(linear_grid(*DEFAULT_BETA_RANGE))

# a gap below CROSSING_TOL times the local energy scale (at least 1) is a crossing
CROSSING_TOL = 1e-9

# lowest electron level at strong field: both electrons down (M = -1)
GROUND_QUARTET = (13, 14, 15, 16)


def eigensolve_block(h):
    """Eigenvalues and orthonormal eigenvectors of a stack of symmetric matrices.

    A stack of 2 x 2 matrices is solved in closed form (:func:`_eigh_2x2`),
    any other size by LAPACK (``np.linalg.eigh``).

    Args:
        h: (..., n, n) array-like; every matrix must be exactly symmetric.

    Returns:
        (w, v): eigenvalues (..., n) ascending, eigenvectors as the columns of
        v (..., n, n).  A vector's sign is arbitrary, as the solver leaves
        it: every reader uses squares or magnitudes of the components.  A
        stacked call gives the same bits as one call per matrix.

    Raises:
        ValueError: the matrices are not square or not exactly symmetric.
        ConvergenceError: LAPACK failed (sizes other than 2), or the input, an
            eigenvalue or the spread between the lowest and highest
            eigenvalue is not finite.
    """
    a = np.asarray(h, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("block must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise ConvergenceError("non-finite entry in the matrix to diagonalize")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValueError("block must be exactly symmetric")
    if a.shape[-1] == 2:
        w, v = _eigh_2x2(a)
    else:
        try:
            w, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigh failed: {exc}") from exc
    if a.shape[-1] == 0:
        return w, v
    # the sweep works with level gaps, so the spectrum's width must be finite too
    with np.errstate(over="ignore", invalid="ignore"):
        spread = w[..., -1] - w[..., 0]
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(spread))):
        raise ConvergenceError("non-finite eigenvalue or eigenvalue spread")
    return w, v


def _eigh_2x2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a stack of symmetric 2 x 2 matrices, in closed form.

    Each [[p, b], [b, q]] is diagonalized by one Jacobi rotation in
    Rutishauser's form, t = sign(tau) / (|tau| + hypot(1, tau)) with
    tau = (q - p) / 2b: no trigonometry, and exact unit vectors where b = 0,
    as LAPACK gives them.  The eigenvalues are p - t b and q + t b with the
    vectors (c, -s) and (s, c), swapped where the first is the larger.
    Where q - p or 2b overflows, the true spread (at least |q - p| and 2|b|)
    does too, and the eigenvalues or their spread come out non-finite for
    the caller to refuse.  Where only tau overflows, t is 0, and the
    correction t b = b^2 / (q - p) is far below an ulp of q - p.
    """
    p, b, q = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = (q - p) / (2.0 * b)
        t = np.where(b == 0.0, 0.0, np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau)))
        lo, hi = p - t * b, q + t * b
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    w = np.stack([lo, hi], axis=-1)
    v = np.stack([c, s, 0.0 - s, c], axis=-1).reshape(a.shape)  # 0.0 - s: +0.0 where s is 0
    swap = (lo > hi)[..., None]
    return np.where(swap, w[..., ::-1], w), np.where(swap[..., None], v[..., ::-1], v)


@dataclass(frozen=True)
class Track:
    """One adiabatic eigenvalue track: one eigensolver column of a component."""

    block: int                 # M + m of the block
    basis: tuple[int, ...]     # labels of the component's basis states (Sector.labels)
    energies: np.ndarray       # (n_beta,), units of J
    vectors: np.ndarray        # (n_beta, dim), eigenvector components in that basis
    parity: int = 0            # Sector.parity: +1 even, -1 odd, 0 for a whole block

    @cached_property
    def dominants(self) -> tuple[np.ndarray, np.ndarray]:
        """Dominant basis labels (int64) and their weights (float64) at every grid point."""
        w = self.vectors**2
        k = np.argmax(w, axis=1)
        return np.array(self.basis, dtype=np.int64)[k], w[np.arange(k.size), k]

    def dominant(self, i: int) -> tuple[int, float]:
        """(basis label, weight) of the dominant component at grid point i, as Python scalars."""
        return int(self.dominants[0][i]), float(self.dominants[1][i])


@dataclass(frozen=True)
class SpectrumSweep:
    # tracks: blocks in listing order, ascending within a block at the first
    # grid point, on an exact tie in component order and then by rank
    beta_grid: np.ndarray
    tracks: list[Track]
    system: SectorHamiltonian  # the Hamiltonian the tracks were solved with

    def energy_matrix(self) -> np.ndarray:
        """(n_beta, 16) matrix of all tracks in listing order."""
        return np.column_stack([t.energies for t in self.tracks])


@dataclass(frozen=True)
class AnticrossingReport:
    pair: tuple[int, int]      # (entering label at high beta, label after exchange)
    beta_star: float
    min_gap: float             # units of J; 0 for a crossing found by a sign change
    block: int
    kind: str                  # "anticrossing" | "crossing"
    partner: int | None        # dominant label of the nearest component level at beta_star; None: sign change
    enter_weight: float
    exit_weight: float


@dataclass(frozen=True)
class TransferTrace:
    block: int
    level: int                 # 1-based track position in listing order
    enter_label: int           # dominant basis state at the high-beta end
    exit_label: int            # dominant basis state at the low-beta end
    enter_weight: float
    exit_weight: float
    conclusive: bool           # both end weights >= 0.6


def sweep_spectrum(
    alpha_a: float, alpha_b: float, beta_grid=None, mu: float | None = None
) -> SpectrumSweep:
    """Diagonalize all components over the beta grid, one track per eigenvalue rank.

    Each component (see :class:`SectorHamiltonian`) is one stacked
    :func:`eigensolve_block` call over the whole grid; a whole-block
    component is the block of ``build_hamiltonian``, bit for bit.  Its
    levels never cross, so its k-th column at every grid point is its k-th
    track.

    ``alpha_a`` and ``alpha_b`` are the hyperfine couplings in units of J.
    ``mu=None`` ties mu to beta through the physical ratio g_N mu_N / (2 mu_B)
    (a single swept field B); a number holds mu fixed.  ``beta_grid=None`` is
    ``DEFAULT_BETA_GRID``.
    """
    betas = DEFAULT_BETA_GRID if beta_grid is None else np.asarray(beta_grid, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("beta_grid must be a non-empty 1-D array")
    if not np.all(betas[1:] > betas[:-1]):  # no difference: it can overflow
        raise ValueError("beta_grid must be strictly ascending")

    system = SectorHamiltonian(alpha_a, alpha_b, mu)
    tracks = []
    for key in BLOCK_ORDER:
        block_tracks = []
        for sector in system.sectors[key]:
            w, v = eigensolve_block(system.stack(sector, betas))
            block_tracks += [
                Track(block=key, basis=sector.labels, energies=w[:, k], vectors=v[:, :, k], parity=sector.parity)
                for k in range(len(sector.states))
            ]
        # stable: on an exact tie at the first grid point the earlier component comes
        # first, and a component's tracks stay in rank order
        block_tracks.sort(key=lambda track: track.energies[0])
        tracks += block_tracks
    return SpectrumSweep(betas, tracks, system)


def _exchange_reports(sweep: SpectrumSweep, sector: Sector, tracks: list[Track]) -> list[AnticrossingReport]:
    """Anticrossing reports of the exchanging tracks of one component, bisected in lockstep.

    ``tracks`` are the component's tracks in rank order.  A track exchanges
    when its dominant label at the high-beta end differs from the one at the
    low-beta end.  Its ``beta_star`` is the half-transfer point of the
    entering character: the highest grid step where f turns from negative to
    non-negative, bisected 16 times in the track's rank column.  If the
    entering weight never reaches 1/2 (strong mixing), f is the dominance
    swap between the two exchanging characters instead.  Every bisection
    step solves the midpoints of all the component's reports in one stacked
    call, and one more call solves their ``beta_star``; each report's
    midpoints depend only on its own values, so each report is what
    bisecting it alone gives.  ``min_gap`` and ``partner`` come from the
    track's own component: a level of another component crosses it exactly.
    The report is a crossing where ``min_gap`` is at most CROSSING_TOL times
    the energy scale, or at most the two levels' slope difference
    (Hellmann-Feynman, :meth:`SectorHamiltonian.slope`) times the final
    bracket: the bisection cannot tell such a gap from zero.
    """
    system, betas = sweep.system, sweep.beta_grid
    key, basis = sector.block, sector.labels
    found = []  # (track, rank, j_hi, j_lo, use_half, i0) of each bracketed exchange
    for rank, track in enumerate(tracks):
        enter_label, exit_label = track.dominant(-1)[0], track.dominant(0)[0]
        if enter_label == exit_label:
            continue
        wts = track.vectors**2
        j_hi, j_lo = basis.index(enter_label), basis.index(exit_label)
        whi = wts[:, j_hi]
        use_half = whi[-1] >= 0.5
        f = whi - 0.5 if use_half else whi - wts[:, j_lo]
        ups = np.flatnonzero((f[1:] >= 0.0) & (f[:-1] < 0.0))
        if ups.size:
            found.append((track, rank, j_hi, j_lo, use_half, int(ups[-1])))
    if not found:
        return []

    exchanging, col, j_hi, j_lo, use_half, i0 = zip(*found)
    i0 = np.array(i0)
    lo, hi = betas[i0], betas[i0 + 1]
    k = np.arange(len(found))
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        _, v = eigensolve_block(system.stack(sector, mid))
        wcol = v[k, :, col] ** 2
        val = wcol[k, j_hi] - np.where(use_half, 0.5, wcol[k, j_lo])
        up = val >= 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    beta_star = 0.5 * (lo + hi)

    w, v = eigensolve_block(system.stack(sector, beta_star))
    slope = system.slope(sector)
    reports = []
    for r, track in enumerate(exchanging):
        c = col[r]
        dist = np.abs(w[r] - w[r, c])
        dist[c] = np.inf
        partner_col = int(np.argmin(dist))
        gap = dist[partner_col]
        scale = max(1.0, float(np.max(np.abs(w[r]))))
        resolution = abs(np.dot(v[r, :, c] ** 2 - v[r, :, partner_col] ** 2, slope)) * (hi[r] - lo[r])
        reports.append(
            AnticrossingReport(
                pair=(basis[j_hi[r]], basis[j_lo[r]]),
                beta_star=float(beta_star[r]),
                min_gap=float(gap),
                block=key,
                kind="anticrossing" if gap > max(CROSSING_TOL * scale, resolution) else "crossing",
                partner=basis[int(np.argmax(np.abs(v[r, :, partner_col])))],
                enter_weight=track.dominant(-1)[1],
                exit_weight=track.dominant(0)[1],
            )
        )
    return reports


def _crossing_reports(sweep: SpectrumSweep, block_tracks: list[Track]) -> list[AnticrossingReport]:
    """Crossing reports of one block: each sign change of the energy difference of two components' tracks.

    Tracks of two components of a block never couple, so they cross exactly,
    and each sign change between them is a crossing.  Two tracks of one
    component never cross.  A pair within CROSSING_TOL everywhere is
    degenerate, not crossing.
    """
    betas = sweep.beta_grid
    out = []
    for s in range(len(block_tracks)):
        for t in range(s + 1, len(block_tracks)):
            if block_tracks[s].basis == block_tracks[t].basis:
                continue  # one component
            d = block_tracks[s].energies - block_tracks[t].energies
            scale = max(
                1.0,
                float(np.max(np.abs(block_tracks[s].energies))),
                float(np.max(np.abs(block_tracks[t].energies))),
            )
            if np.max(np.abs(d)) <= CROSSING_TOL * scale:
                continue  # degenerate pair everywhere, not a crossing
            # explicit sign tests: a product of the gaps can overflow, or
            # underflow to -0.0 and hide a real sign change
            d0, d1 = d[:-1], d[1:]
            hits = np.flatnonzero(
                (d0 == 0.0) | ((d0 < 0.0) & (d1 > 0.0)) | ((d0 > 0.0) & (d1 < 0.0))
            )
            for i in hits.tolist():
                frac = 0.0 if d[i] == 0.0 else d[i] / (d[i] - d[i + 1])
                bstar = betas[i] + frac * (betas[i + 1] - betas[i])
                lab_s, w_s = block_tracks[s].dominant(i + 1)
                lab_t, w_t = block_tracks[t].dominant(i + 1)
                out.append(
                    AnticrossingReport(
                        pair=(lab_s, lab_t),
                        beta_star=float(bstar),
                        min_gap=0.0,
                        block=block_tracks[s].block,
                        kind="crossing",
                        partner=None,
                        enter_weight=w_s,
                        exit_weight=w_t,
                    )
                )
    return out


def find_anticrossings(sweep: SpectrumSweep) -> list[AnticrossingReport]:
    """All character exchanges (anticrossings) and true crossings of the sweep.

    Exchanges are found and bisected within each component (see
    :func:`_exchange_reports` for when one is a crossing).  Crossings are
    found between the tracks of different components of a block.
    Deterministic ordering by (beta_star, block, pair).
    """
    reports, crossings = [], []
    for key in BLOCK_ORDER:
        block_tracks = [t for t in sweep.tracks if t.block == key]
        for sector in sweep.system.sectors[key]:
            # a block can hold two components of one parity; the stable sort
            # of sweep_spectrum keeps each component's tracks in rank order
            tracks = [t for t in block_tracks if t.basis == sector.labels]
            if len(tracks) > 1:
                reports += _exchange_reports(sweep, sector, tracks)
        if len(block_tracks) > 1:
            crossings += _crossing_reports(sweep, block_tracks)
    reports += crossings
    reports.sort(key=lambda r: (r.beta_star, r.block, r.pair))
    return reports


def spin_transfer_reports(reports: list[AnticrossingReport]) -> list[AnticrossingReport]:
    """Anticrossings that move nuclear-spin information into the electrons.

    Selected: the track enters (strong field) as one of the lowest electron
    quartet |13>, |14>, |15>, |16> and the exchange changes the total
    electron projection (triplet-to-singlet character transfer).
    """
    out = []
    for r in reports:
        if r.kind != "anticrossing":
            continue
        if r.pair[0] not in GROUND_QUARTET:
            continue
        if BASIS[r.pair[0] - 1].M == BASIS[r.pair[1] - 1].M:
            continue
        out.append(r)
    return out


def adiabatic_transfer_trace(sweep: SpectrumSweep) -> list[TransferTrace]:
    """End-to-end character of every track: what each state turns into.

    A trace is conclusive only when the dominant weight is at least 0.6 at
    both ends; strongly mixed endpoints (e.g. near-equal singlet components)
    are reported with their labels but flagged inconclusive.
    """
    traces = []
    for level, track in enumerate(sweep.tracks, start=1):
        enter_label, enter_weight = track.dominant(-1)
        exit_label, exit_weight = track.dominant(0)
        traces.append(
            TransferTrace(
                block=track.block,
                level=level,
                enter_label=enter_label,
                exit_label=exit_label,
                enter_weight=enter_weight,
                exit_weight=exit_weight,
                conclusive=enter_weight >= 0.6 and exit_weight >= 0.6,
            )
        )
    return traces


def eq19_gap_dimensionless(alpha: float, beta: float) -> float:
    """Strong-field splitting of the two lowest M+m = -1 levels, units of J.

    (alpha/2)^2 (1/(beta-1) - 1/beta); valid for beta >> 1 at equal couplings.
    Eq. 19 leaves out the nuclear Zeeman term, so against levels with mu
    slaved to beta its relative error levels off near 2 MU_OVER_BETA instead
    of falling with beta as it does at mu = 0.
    """
    return (alpha / 2.0) ** 2 * (1.0 / (beta - 1.0) - 1.0 / beta)
