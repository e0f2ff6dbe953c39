"""Spectrum sweeps versus the reduced field beta = 2 mu_B B / J.

A sweep diagonalizes each conserved-projection block on a beta grid and
connects eigenvectors between adjacent grid points by maximal overlap
("adiabatic tracks").  At alpha_a = alpha_b each block is solved and tracked
as its even and odd exchange-symmetry sectors instead (see
:class:`_BlockSystem`); a track's labels are then those of its sector's
basis.  On top of the tracks:

* :func:`find_anticrossings` locates level crossings (sign changes of a
  track-pair gap, only possible for uncoupled pairs) and anticrossings.
  An anticrossing is detected as a *character exchange*: a track whose
  dominant basis state at the high-beta end differs from the one at the
  low-beta end.  Its location ``beta_star`` is the half-transfer point where
  the entering character's weight crosses 1/2, and ``min_gap`` is the
  distance to the nearest same-sector level there.  For weakly coupled pairs
  this reduces to the textbook minimum-gap point; for the strongly mixed
  regime (alpha ~ 0.3) it remains well defined where a plain adjacent-gap
  minimum does not.
* :func:`adiabatic_transfer_trace` certifies which basis state each track
  turns into across the sweep, with the dominant weights at both ends.
* :func:`eq19_gap` is the strong-field closed form for the splitting of the
  two lowest M + m = -1 levels at equal hyperfine couplings: the lowest even
  and the lowest odd level, which lie in different sectors and never
  exchange.

Every diagonalization goes through :func:`eigensolve_block`, which solves a
whole stack of matrices at once: a stack of 2 x 2 matrices (five of the eight
sectors at alpha_a = alpha_b) in closed form, one Jacobi rotation each, and
any other size with LAPACK (``np.linalg.eigh``).  A sweep makes one call per
sector for the entire beta grid, and each bisection step is one call over the
midpoints of every exchanging track of a sector.  Only the midpoint
refinement of an ambiguous tracking step solves one point.

Tracking is whole-grid too: one stacked product gives the |overlap| matrices
of every pair of adjacent grid points of a sector.  A step is still where
every column's overlap with its own column at the next point leads the rest
of its row by ``OVERLAP_AMBIGUITY``: every track keeps its column there.
Only the other steps run the greedy :func:`_match` with midpoint refinement,
which logs a warning when it reaches the refinement depth cap still
ambiguous.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .constants import DEFAULT_CONSTANTS, linear_grid
from .spin_hamiltonian import (
    BASIS,
    BLOCK_ORDER,
    MU_OVER_BETA,
    WHOLE_BLOCKS,
    _ZEEMAN_E,
    _ZEEMAN_N,
    Sector,
    SpinParams,
    block_decompose,
    build_hamiltonian,
    sector_decompose,
)

DEFAULT_BETA_GRID = np.array(linear_grid(0.2, 3.0, 401))

OVERLAP_AMBIGUITY = 1e-6
_MAX_REFINE_DEPTH = 24
# a gap below CROSSING_TOL times the local energy scale (at least 1) is a crossing
CROSSING_TOL = 1e-9

_log = logging.getLogger(__name__)

# lowest electron level at strong field: both electrons down (M = -1)
GROUND_QUARTET = (13, 14, 15, 16)


class ConvergenceError(RuntimeError):
    """The eigensolver failed, or met a non-finite input, eigenvalue or spread."""


def eigensolve_block(h):
    """Eigenvalues and orthonormal eigenvectors of a stack of symmetric matrices.

    A stack of 2 x 2 matrices is solved in closed form (:func:`_eigh_2x2`),
    any other size by LAPACK (``np.linalg.eigh``).

    Args:
        h: (..., n, n) array-like; every matrix must be exactly symmetric.

    Returns:
        (w, v): eigenvalues (..., n) ascending, eigenvectors as the columns of
        v (..., n, n), each flipped so that its largest-magnitude component
        (the first one on ties) is positive.  A stacked call gives the same
        bits as one call per matrix.

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
    # row of each column's largest |component|; the C-ordered transpose keeps
    # argmax from copying the stack once more
    k = np.argmax(np.abs(np.swapaxes(v, -1, -2), order="C"), axis=-1)[..., None, :]
    v *= np.where(np.take_along_axis(v, k, axis=-2) < 0.0, -1.0, 1.0)
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
    """One adiabatically-continued eigenvalue track of a symmetry sector."""

    block: int                 # M + m of the block
    basis: tuple[int, ...]     # labels of the sector's basis states (Sector.labels)
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
    # grid point, the even sector first on an exact tie
    beta_grid: np.ndarray
    tracks: list[Track]
    system: _BlockSystem       # the Hamiltonian the tracks were solved with

    def energy_matrix(self) -> np.ndarray:
        """(n_beta, 16) matrix of all tracks in listing order."""
        return np.column_stack([t.energies for t in self.tracks])


@dataclass(frozen=True)
class AnticrossingReport:
    pair: tuple[int, int]      # (entering label at high beta, label after exchange)
    beta_star: float
    min_gap: float             # units of J; 0 for true crossings
    block: int
    kind: str                  # "anticrossing" | "crossing"
    partner: int | None        # dominant label of the nearest level at beta_star
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


# the beta and mu parts Cb and Cm of every block: the Zeeman blocks, free of alpha
_CB = {b.m_plus_M: b.matrix for b in block_decompose(_ZEEMAN_E)}
_CM = {b.m_plus_M: b.matrix for b in block_decompose(-_ZEEMAN_N)}


@cache
def _exchange_fields(key: int) -> tuple[list, list]:
    """Cb and Cm of the exchange sectors of block ``key``, rotated once: they are free of alpha."""
    return sector_decompose(key, _CB[key]), sector_decompose(key, _CM[key])


class _BlockSystem:
    """Per-sector Hamiltonian H(beta) = C0 + beta*Cb + mu(beta)*Cm.

    C0 holds the blocks of ``build_hamiltonian`` at beta = mu = 0.  ``mu=None``
    slaves mu to beta through MU_OVER_BETA; a number holds it fixed.

    ``sectors[key]`` lists the sectors that block ``key`` is solved in.  At
    alpha_a != alpha_b that is the whole block in its product basis.  At
    alpha_a = alpha_b the donor swap commutes with H, and the block is split
    into its even and odd sectors (``sector_decompose``): C0, Cb and Cm are
    rotated term by term, and the even-odd entries, at most rounding, are
    dropped, so the two sectors are solved and tracked apart.
    """

    def __init__(self, alpha_a: float, alpha_b: float, mu: float | None):
        self.alpha_a, self.alpha_b, self.mu = alpha_a, alpha_b, mu
        c0 = {
            b.m_plus_M: b.matrix
            for b in block_decompose(build_hamiltonian(SpinParams(alpha_a, alpha_b, 0.0, 0.0)))
        }
        self.sectors: dict[int, tuple[Sector, ...]] = {}
        self._parts: dict[Sector, list[np.ndarray]] = {}  # C0, Cb and Cm of each sector
        for key in BLOCK_ORDER:
            if alpha_a == alpha_b:
                parts = [sector_decompose(key, c0[key]), *_exchange_fields(key)]
            else:
                parts = [[(WHOLE_BLOCKS[key], m)] for m in (c0[key], _CB[key], _CM[key])]
            self.sectors[key] = tuple(sector for sector, _ in parts[0])
            for sector, *matrices in zip(self.sectors[key], *parts):
                self._parts[sector] = [m for _, m in matrices]

    def stack(self, sector: Sector, betas) -> np.ndarray:
        """(n_beta, d, d) matrices of ``sector`` at every beta.

        For a whole block, each is that block of ``build_hamiltonian`` at
        (beta, mu) bit for bit: the same terms are added in an order that
        differs only by commuted sums, and Cm is the exact negation of the
        nuclear Zeeman operator.  C0, Cb and Cm are each exactly symmetric, so
        every H(beta) is too and the stack needs no symmetrization.  An entry
        that overflows is left to :func:`eigensolve_block` to refuse.
        """
        c0, cb, cm = self._parts[sector]
        col = np.asarray(betas, dtype=float).reshape(-1, 1, 1)
        mu = MU_OVER_BETA * col if self.mu is None else self.mu
        with np.errstate(over="ignore", invalid="ignore"):
            h = col * cb
            h += c0
            h += mu * cm
        return h


def _greedy_match(v0: np.ndarray, v1: np.ndarray) -> tuple[list[int], float]:
    """Assign new eigenvectors to previous tracks by largest |overlap|.

    Returns (perm, margin): perm[i] is the v1 column continuing track i;
    margin is the smallest lead of a chosen overlap over its best remaining
    alternative in the same row (ambiguity signal).
    """
    O = np.abs(v0.T @ v1)
    n = O.shape[0]
    perm = [-1] * n
    margin = np.inf
    avail_c = set(range(n))
    work = O.copy()
    for _ in range(n):
        i, j = np.unravel_index(int(np.argmax(work)), work.shape)
        alternatives = [O[i, k] for k in avail_c if k != j]
        if alternatives:
            margin = min(margin, O[i, j] - max(alternatives))
        perm[i] = j
        avail_c.discard(j)
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm, float(margin)


def _match(system: _BlockSystem, sector: Sector, b0, v0, b1, v1, depth: int = 0) -> list[int]:
    """Overlap matching with deterministic local refinement on ambiguity."""
    perm, margin = _greedy_match(v0, v1)
    if margin >= OVERLAP_AMBIGUITY:
        return perm
    if depth >= _MAX_REFINE_DEPTH:
        _log.warning(
            "%s: overlap margin %.3g still below %g after %d refinements "
            "on beta [%r, %r]; kept the greedy assignment",
            sector.name, margin, OVERLAP_AMBIGUITY, depth, float(b0), float(b1),
        )
        return perm
    bm = 0.5 * (b0 + b1)
    vm = eigensolve_block(system.stack(sector, [bm]))[1][0]
    p_left = _match(system, sector, b0, v0, bm, vm, depth + 1)
    vm_aligned = vm[:, p_left]
    p_right = _match(system, sector, bm, vm_aligned, b1, v1, depth + 1)
    return p_right


def _sector_tracks(system: _BlockSystem, sector: Sector, betas, energies, vectors):
    """The tracks of ``sector`` from its eigenpairs at every grid point.

    ``energies`` (n_beta, dim) and ``vectors`` (n_beta, dim, dim) are in the
    eigensolver's column order.
    """
    n, dim = energies.shape
    perm = np.empty((n, dim), dtype=np.intp)  # perm[i, t]: the column continuing track t at point i
    cols = np.arange(dim)
    first = 0  # first grid point at which the tracks sit in ``cols``
    if dim > 1:  # a one-level sector is one track as it stands
        # overlap[i, r, c] = |<raw column r at i | raw column c at i+1>|
        overlap = np.matmul(np.swapaxes(vectors[:-1], -1, -2), vectors[1:])
        np.abs(overlap, out=overlap)
        own = overlap.diagonal(axis1=-2, axis2=-1).copy()
        overlap[:, np.arange(dim), np.arange(dim)] = -1.0  # leaves each row's other entries
        # A step is still where every column's own overlap leads the rest
        # of its row by OVERLAP_AMBIGUITY: greedy matching keeps every
        # track in its column there, whatever order the tracks are in, and
        # refines nothing.  Every other step is matched.
        still = np.all(own - overlap.max(axis=-1) >= OVERLAP_AMBIGUITY, axis=-1)
        del overlap  # freed before the tracks are gathered, for peak memory
        for i in np.flatnonzero(~still).tolist():
            perm[first:i + 1] = cols
            cols = _match(system, sector, betas[i], vectors[i][:, cols], betas[i + 1], vectors[i + 1])
            first = i + 1
    perm[first:] = cols
    rows = np.arange(n)
    return [
        Track(
            block=sector.block,
            basis=sector.labels,
            energies=energies[rows, perm[:, t]],
            vectors=vectors[rows, :, perm[:, t]],
            parity=sector.parity,
        )
        for t in range(dim)
    ]


def sweep_spectrum(
    alpha_a: float, alpha_b: float, beta_grid=None, mu: float | None = None
) -> SpectrumSweep:
    """Diagonalize all sectors over the beta grid with adiabatic continuation.

    Each sector (see :class:`_BlockSystem`) is one stacked
    :func:`eigensolve_block` call over the whole grid; at alpha_a != alpha_b
    the sectors are the blocks of ``build_hamiltonian``, bit for bit.
    Adjacent points are connected through one stacked product
    |V[:-1]^T V[1:]| of the sector's eigenvector columns: where every
    column's own overlap leads the rest of its row by at least
    ``OVERLAP_AMBIGUITY``, the step keeps every track in its column; any
    other step runs the exact greedy :func:`_match`, midpoint refinement
    included.  The tracks are bit-identical to greedy matching at every grid
    point.

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

    system = _BlockSystem(alpha_a, alpha_b, mu)
    tracks = []
    for key in BLOCK_ORDER:
        block_tracks = []
        for sector in system.sectors[key]:
            w, v = eigensolve_block(system.stack(sector, betas))
            block_tracks += _sector_tracks(system, sector, betas, w, v)
        # stable: on an exact tie at the first grid point the even sector comes first
        block_tracks.sort(key=lambda track: track.energies[0])
        tracks += block_tracks
    return SpectrumSweep(betas, tracks, system)


def _exchange_reports(sweep: SpectrumSweep, sector: Sector, tracks: list[Track]) -> list[AnticrossingReport]:
    """Anticrossing reports of the exchanging tracks of one sector, bisected in lockstep.

    A track exchanges when its dominant label at the high-beta end differs
    from the one at the low-beta end.  Its ``beta_star`` is the half-transfer
    point of the entering character: the highest grid step where f turns
    from negative to non-negative, bisected 16 times.  If the entering weight
    never reaches 1/2 (strong mixing), f is the dominance swap between the
    two exchanging characters instead.  Every bisection step solves the
    midpoints of all the sector's reports in one stacked call, and one more
    call solves their ``beta_star``; each report's midpoints depend only on
    its own values, so each report is what bisecting it alone gives.
    ``min_gap`` and ``partner`` come from the track's own sector: a level of
    the other sector crosses it exactly.
    """
    system, betas = sweep.system, sweep.beta_grid
    key, basis = sector.block, sector.labels
    found = []  # (track, j_hi, j_lo, use_half, i0) of each bracketed exchange
    for track in tracks:
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
            found.append((track, j_hi, j_lo, use_half, int(ups[-1])))
    if not found:
        return []

    exchanging, j_hi, j_lo, use_half, i0 = zip(*found)
    i0 = np.array(i0)
    # each track's vector at the top of its bracket identifies its column at a midpoint
    v_ref = np.stack([t.vectors[i + 1] for t, i in zip(exchanging, i0.tolist())])[:, None, :]
    lo, hi = betas[i0], betas[i0 + 1]
    k = np.arange(len(found))
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        _, v = eigensolve_block(system.stack(sector, mid))
        col = np.argmax(np.abs(np.matmul(v_ref, v)[:, 0]), axis=-1)
        wcol = v[k, :, col] ** 2
        val = wcol[k, j_hi] - np.where(use_half, 0.5, wcol[k, j_lo])
        up = val >= 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    beta_star = 0.5 * (lo + hi)

    w, v = eigensolve_block(system.stack(sector, beta_star))
    col = np.argmax(np.abs(np.matmul(v_ref, v)[:, 0]), axis=-1).tolist()
    reports = []
    for r, track in enumerate(exchanging):
        dist = np.abs(w[r] - w[r, col[r]])
        dist[col[r]] = np.inf
        partner_col = int(np.argmin(dist))
        gap = dist[partner_col]
        scale = max(1.0, float(np.max(np.abs(w[r]))))
        reports.append(
            AnticrossingReport(
                pair=(basis[j_hi[r]], basis[j_lo[r]]),
                beta_star=float(beta_star[r]),
                min_gap=float(gap),
                block=key,
                kind="anticrossing" if gap > CROSSING_TOL * scale else "crossing",
                partner=basis[int(np.argmax(np.abs(v[r, :, partner_col])))],
                enter_weight=track.dominant(-1)[1],
                exit_weight=track.dominant(0)[1],
            )
        )
    return reports


def _crossing_reports(sweep: SpectrumSweep, block_tracks: list[Track]) -> list[AnticrossingReport]:
    """Crossing reports of one block: each sign change of a pair's energy difference.

    Tracks of the two sectors of a block never couple, so they cross exactly,
    and each sign change between them is a crossing by parity alone.  A pair
    within CROSSING_TOL everywhere is degenerate, not crossing.
    """
    betas = sweep.beta_grid
    out = []
    for s in range(len(block_tracks)):
        for t in range(s + 1, len(block_tracks)):
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

    Exchanges are found and bisected within each sector; a sector gap below
    ``CROSSING_TOL`` (relative to the local energy scale) makes the exchange
    a crossing.  Crossings are found between all tracks of a block.
    Deterministic ordering by (beta_star, block, pair).
    """
    reports, crossings = [], []
    for key in BLOCK_ORDER:
        block_tracks = [t for t in sweep.tracks if t.block == key]
        for sector in sweep.system.sectors[key]:
            tracks = [t for t in block_tracks if t.parity == sector.parity]
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


def eq19_gap(B: float, J: float, A: float) -> tuple[float, float]:
    """Physical strong-field gap E14 - E15 = (A/2)^2/(2 mu_B B - J) - (A/2)^2/(2 mu_B B).

    Args:
        B: magnetic field, T (finite and > 0).
        J: exchange energy, J (finite and >= 0; the validity window
           2 mu_B B >= 3 J is enforced, which keeps the formula away from its
           2 mu_B B = J pole).
        A: common hyperfine coupling of both donors, J (finite).

    Returns:
        (gap, nu): splitting in joules and the transition frequency gap/h in Hz.

    Raises:
        ValueError: an argument is out of its domain (NaN included), or the
            field is below the validity window.
    """
    if not (B > 0) or not math.isfinite(B):
        raise ValueError("B must be positive and finite")
    if not (J >= 0) or not math.isfinite(J):
        raise ValueError("J must be non-negative and finite")
    if not math.isfinite(A):
        raise ValueError("A must be finite")
    zeeman = 2.0 * DEFAULT_CONSTANTS.mu_B * B
    if J > 0 and zeeman < 3.0 * J:
        raise ValueError(
            "strong-field formula requires 2 mu_B B >= 3 J (anticrossing region excluded)"
        )
    if J == 0.0 or A == 0.0:
        return 0.0, 0.0
    gap = (A / 2.0) ** 2 / (zeeman - J) - (A / 2.0) ** 2 / zeeman
    return gap, gap / DEFAULT_CONSTANTS.h
