"""Spectrum sweeps versus the reduced field beta = 2 mu_B B / J.

A sweep diagonalizes each conserved-projection block on a beta grid and
connects eigenvectors between adjacent grid points by maximal overlap
("adiabatic tracks").  On top of the tracks:

* :func:`find_anticrossings` locates level crossings (sign changes of a
  track-pair gap, only possible for uncoupled pairs) and anticrossings.
  An anticrossing is detected as a *character exchange*: a track whose
  dominant basis state at the high-beta end differs from the one at the
  low-beta end.  Its location ``beta_star`` is the half-transfer point where
  the entering character's weight crosses 1/2, and ``min_gap`` is the
  distance to the nearest same-block level there.  For weakly coupled pairs
  this reduces to the textbook minimum-gap point; for the strongly mixed
  regime (alpha ~ 0.3) it remains well defined where a plain adjacent-gap
  minimum does not.
* :func:`adiabatic_transfer_trace` certifies which basis state each track
  turns into across the sweep, with the dominant weights at both ends.
* :func:`eq19_gap` is the strong-field closed form for the splitting of the
  two lowest M + m = -1 levels at equal hyperfine couplings.

Every diagonalization goes through :func:`eigensolve_block`, which runs
LAPACK (``np.linalg.eigh``) over a whole stack of matrices at once: a sweep
makes one call per block for the entire beta grid, each bisection step is one
call over the midpoints of every exchanging track of a block, and
:meth:`SpectrumSweep.refine` solves only the points it adds to the grid.  Only
the midpoint refinement of an ambiguous tracking step solves one point.

Tracking is whole-grid too: one stacked product gives the |overlap| matrices
of every pair of adjacent grid points of a block.  Where each matrix's row
argmax is a permutation that leads every runner-up by ``OVERLAP_AMBIGUITY``,
that permutation is exactly what greedy matching would return, and each run
of such steps is composed into track order by one prefix scan.  Every other
step falls back to the greedy :func:`_match` with midpoint refinement, which
logs a warning when it reaches the refinement depth cap still ambiguous.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import DEFAULT_CONSTANTS, linear_grid
from .spin_hamiltonian import (
    BASIS,
    BLOCK_ORDER,
    BLOCKS,
    MU_OVER_BETA,
    _ZEEMAN_E,
    _ZEEMAN_N,
    SpinParams,
    block_decompose,
    build_hamiltonian,
)

DEFAULT_BETA_GRID = np.array(linear_grid(0.2, 3.0, 401))

OVERLAP_AMBIGUITY = 1e-6
_MAX_REFINE_DEPTH = 24
# a gap below CROSSING_TOL times the local energy scale (at least 1) is a crossing
CROSSING_TOL = 1e-9
# the export pass resolves +-REFINE_WINDOW around each center REFINE_FACTOR times finer
REFINE_WINDOW = 0.05
REFINE_FACTOR = 10

_log = logging.getLogger(__name__)

# lowest electron level at strong field: both electrons down (M = -1)
GROUND_QUARTET = (13, 14, 15, 16)


class ConvergenceError(RuntimeError):
    """The eigensolver failed, or met a non-finite input, eigenvalue or spread."""


def eigensolve_block(h):
    """Eigenvalues and orthonormal eigenvectors of a stack of symmetric matrices.

    Args:
        h: (..., n, n) array-like; every matrix must be exactly symmetric.

    Returns:
        (w, v): eigenvalues (..., n) ascending, eigenvectors as the columns of
        v (..., n, n), each flipped so that its largest-magnitude component
        (the first one on ties) is positive.  A stacked call gives the same
        bits as one call per matrix.

    Raises:
        ValueError: the matrices are not square or not exactly symmetric.
        ConvergenceError: LAPACK failed, or the input, an eigenvalue or the
            spread between the lowest and highest eigenvalue is not finite.
    """
    a = np.asarray(h, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("block must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise ConvergenceError("non-finite entry in the matrix to diagonalize")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValueError("block must be exactly symmetric")
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


@dataclass(frozen=True)
class Track:
    """One adiabatically-continued eigenvalue track of a symmetry block."""

    block: int                 # M + m of the block
    basis: tuple[int, ...]     # 1-based basis indices spanning the block
    energies: np.ndarray       # (n_beta,), units of J
    vectors: np.ndarray        # (n_beta, dim), eigenvector components

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
    beta_grid: np.ndarray
    tracks: list[Track]        # block listing order, ascending within block
    system: _BlockSystem       # the Hamiltonian the tracks were solved with
    # (n_beta, n_tracks) int8: the eigensolver's column of each track at each
    # point, within its block
    raw_columns: np.ndarray

    def energy_matrix(self) -> np.ndarray:
        """(n_beta, 16) matrix of all tracks in listing order."""
        return np.column_stack([t.energies for t in self.tracks])

    def refine(self, centers) -> SpectrumSweep:
        """This sweep on ``refine_beta_grid(beta_grid, centers)``, solving only the new points.

        The base points' eigenpairs are taken back from the tracks, in the
        eigensolver's column order, through ``raw_columns``; one stacked call
        per block solves the rest.  A stacked call gives the same bits as one
        call per matrix, so the tracks equal those of :func:`sweep_spectrum`
        on the refined grid bit for bit.
        """
        betas = refine_beta_grid(self.beta_grid, centers)
        if betas.size == self.beta_grid.size:  # every base point is kept: nothing new
            return self
        base = np.searchsorted(betas, self.beta_grid)[:, None]
        new = np.ones(betas.size, dtype=bool)
        new[base[:, 0]] = False
        tracks, columns, start = [], [], 0
        for key in BLOCK_ORDER:
            block = self.tracks[start:start + len(BLOCKS[key])]
            cols = self.raw_columns[:, start:start + len(block)]
            start += len(block)
            energies = np.empty((betas.size, len(block)))
            vectors = np.empty((betas.size, len(block), len(block)))
            energies[new], vectors[new] = eigensolve_block(self.system.stack(key, betas[new]))
            energies[base, cols] = np.column_stack([t.energies for t in block])
            vectors[base, :, cols] = np.stack([t.vectors for t in block], axis=1)
            block_tracks, perm = _block_tracks(self.system, key, betas, energies, vectors)
            tracks += block_tracks
            columns.append(perm)
        return SpectrumSweep(betas, tracks, self.system, np.hstack(columns).astype(np.int8))


@dataclass(frozen=True)
class AnticrossingReport:
    pair: tuple[int, int]      # (entering label at high beta, label after exchange)
    beta_star: float
    min_gap: float             # units of J; 0 for true crossings
    eq19_gap: float | None     # strong-field closed form, where applicable
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


class _BlockSystem:
    """Per-block Hamiltonian H(beta) = C0 + beta*Cb + mu(beta)*Cm.

    C0 holds the blocks of ``build_hamiltonian`` at beta = mu = 0.  ``mu=None``
    slaves mu to beta through MU_OVER_BETA; a number holds it fixed.
    """

    def __init__(self, alpha_a: float, alpha_b: float, mu: float | None):
        self.alpha_a, self.alpha_b, self.mu = alpha_a, alpha_b, mu
        self.c0 = {
            b.m_plus_M: b.matrix
            for b in block_decompose(build_hamiltonian(SpinParams(alpha_a, alpha_b, 0.0, 0.0)))
        }

    def stack(self, key: int, betas) -> np.ndarray:
        """(n_beta, d, d) matrices of block ``key`` at every beta.

        Each is the ``key`` block of ``build_hamiltonian`` at (beta, mu) bit
        for bit: the same terms are added in an order that differs only by
        commuted sums, and Cm is the exact negation of the nuclear Zeeman
        operator.  C0, Cb and Cm are each exactly symmetric, so every H(beta)
        is too and the stack needs no symmetrization.
        """
        col = np.asarray(betas, dtype=float).reshape(-1, 1, 1)
        mu = MU_OVER_BETA * col if self.mu is None else self.mu
        h = col * _CB[key]
        h += self.c0[key]
        h += mu * _CM[key]
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


def _match(system: _BlockSystem, key: int, b0, v0, b1, v1, depth: int = 0) -> list[int]:
    """Overlap matching with deterministic local refinement on ambiguity."""
    perm, margin = _greedy_match(v0, v1)
    if margin >= OVERLAP_AMBIGUITY:
        return perm
    if depth >= _MAX_REFINE_DEPTH:
        _log.warning(
            "block %d: overlap margin %.3g still below %g after %d refinements "
            "on beta [%r, %r]; kept the greedy assignment",
            key, margin, OVERLAP_AMBIGUITY, depth, float(b0), float(b1),
        )
        return perm
    bm = 0.5 * (b0 + b1)
    vm = eigensolve_block(system.stack(key, [bm]))[1][0]
    p_left = _match(system, key, b0, v0, bm, vm, depth + 1)
    vm_aligned = vm[:, p_left]
    p_right = _match(system, key, bm, vm_aligned, b1, v1, depth + 1)
    return p_right


def _compose_runs(start, steps) -> np.ndarray:
    """Rows r[k] = steps[k][r[k - 1]] for every k, with r[-1] = ``start``.

    One inclusive prefix scan by pointer doubling: about log2(len(steps))
    ``take_along_axis`` passes over the (k, dim) stack of index maps, giving
    the same integers as composing one step at a time.
    """
    x = np.concatenate([np.asarray(start)[None], steps])
    d = 1
    while d < len(x):
        x[d:] = np.take_along_axis(x[d:], x[:-d], axis=-1)
        d *= 2
    return x[1:]


def _block_tracks(system: _BlockSystem, key: int, betas, energies, vectors):
    """The tracks of block ``key`` from its eigenpairs at every grid point.

    ``energies`` (n_beta, dim) and ``vectors`` (n_beta, dim, dim) are in the
    eigensolver's column order.  Returns (tracks, perm), where perm[i, t] is
    the column at grid point i that continues track t.
    """
    n, dim = energies.shape
    perm = np.tile(np.arange(dim), (n, 1))
    if dim > 1:  # a one-level block is one track as it stands
        # overlap[i, r, c] = |<raw column r at i | raw column c at i+1>|
        overlap = np.matmul(np.swapaxes(vectors[:-1], -1, -2), vectors[1:])
        np.abs(overlap, out=overlap)
        best = np.argmax(overlap, axis=-1)
        top = overlap.max(axis=-1)
        # overwrite each row's maximum, so that the runner-up is what remains
        np.put_along_axis(overlap, best[..., None], -1.0, axis=-1)
        margin = top - overlap.max(axis=-1)
        del overlap  # freed before the tracks are gathered, for peak memory
        # Where each row's argmax is a different column and every row
        # leads its runner-up by OVERLAP_AMBIGUITY, _greedy_match returns
        # exactly these argmaxes: its first pick, the global maximum, is
        # its row's argmax, and removing that row and column leaves every
        # other row's argmax available; each greedy margin is over a
        # subset of its row, so it is no smaller and nothing is refined.
        fast = np.all(np.sort(best, axis=-1) == np.arange(dim), axis=-1)
        fast &= np.all(margin >= OVERLAP_AMBIGUITY, axis=-1)
        # overlaps are row-permutation invariant, so a run of fast steps
        # composes the raw argmaxes; greedy matching is not equivariant
        # under exact ties, so every other step matches the tracked columns
        first = 1  # first grid point of the current run of fast steps
        for i in (np.flatnonzero(~fast) + 1).tolist() + [n]:
            if i > first:
                perm[first:i] = _compose_runs(perm[first - 1], best[first - 1:i - 1])
            if i < n:
                perm[i] = _match(
                    system, key, betas[i - 1], vectors[i - 1][:, perm[i - 1]], betas[i], vectors[i]
                )
            first = i + 1
    rows = np.arange(n)
    tracks = [
        Track(
            block=key,
            basis=BLOCKS[key],
            energies=energies[rows, perm[:, t]],
            vectors=vectors[rows, :, perm[:, t]],
        )
        for t in range(dim)
    ]
    return tracks, perm


def sweep_spectrum(
    alpha_a: float, alpha_b: float, beta_grid=None, mu: float | None = None
) -> SpectrumSweep:
    """Diagonalize all blocks over the beta grid with adiabatic continuation.

    Each block is one stacked :func:`eigensolve_block` call over the whole
    grid, on the blocks of ``build_hamiltonian`` bit for bit.  Adjacent points are connected through one stacked product
    |V[:-1]^T V[1:]| of the block's eigenvector columns: where the row
    argmaxes of a step form a permutation and every row leads its runner-up
    by at least ``OVERLAP_AMBIGUITY``, that permutation is the step's
    matching, and each run of such steps is composed by one prefix scan; any
    other step runs the exact greedy :func:`_match`, midpoint refinement
    included.  The tracks are bit-identical to greedy matching at every grid
    point.

    ``alpha_a`` and ``alpha_b`` are the hyperfine couplings in units of J.
    ``mu=None`` ties mu to beta through the physical ratio g_N mu_N / (2 mu_B)
    (a single swept field B); a number holds mu fixed.  ``beta_grid=None`` is
    ``DEFAULT_BETA_GRID``.  :meth:`SpectrumSweep.refine` adds points to the
    grid without solving the existing ones again.
    """
    betas = DEFAULT_BETA_GRID if beta_grid is None else np.asarray(beta_grid, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("beta_grid must be a non-empty 1-D array")
    if not np.all(betas[1:] > betas[:-1]):  # no difference: it can overflow
        raise ValueError("beta_grid must be strictly ascending")

    system = _BlockSystem(alpha_a, alpha_b, mu)
    tracks: list[Track] = []
    columns = []
    for key in BLOCK_ORDER:
        energies, vectors = eigensolve_block(system.stack(key, betas))
        block_tracks, perm = _block_tracks(system, key, betas, energies, vectors)
        tracks += block_tracks
        columns.append(perm)
    return SpectrumSweep(betas, tracks, system, np.hstack(columns).astype(np.int8))


def _exchange_reports(sweep: SpectrumSweep, tracks: list[Track]) -> list[AnticrossingReport]:
    """Anticrossing reports of the exchanging tracks of one block, bisected in lockstep.

    A track exchanges when its dominant label at the high-beta end differs
    from the one at the low-beta end.  Its ``beta_star`` is the half-transfer
    point of the entering character: the highest grid step where f turns
    from negative to non-negative, bisected 16 times.  If the entering weight
    never reaches 1/2 (strong mixing), f is the dominance swap between the
    two exchanging characters instead.  Every bisection step solves the
    midpoints of all the block's reports in one stacked call, and one more
    call solves their ``beta_star``; each report's midpoints depend only on
    its own values, so each report is what bisecting it alone gives.
    """
    system, betas = sweep.system, sweep.beta_grid
    key, basis = tracks[0].block, tracks[0].basis
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
        _, v = eigensolve_block(system.stack(key, mid))
        col = np.argmax(np.abs(np.matmul(v_ref, v)[:, 0]), axis=-1)
        wcol = v[k, :, col] ** 2
        val = wcol[k, j_hi] - np.where(use_half, 0.5, wcol[k, j_lo])
        up = val >= 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    beta_star = 0.5 * (lo + hi)

    w, v = eigensolve_block(system.stack(key, beta_star))
    col = np.argmax(np.abs(np.matmul(v_ref, v)[:, 0]), axis=-1).tolist()
    reports = []
    for r, track in enumerate(exchanging):
        dist = np.abs(w[r] - w[r, col[r]])
        dist[col[r]] = np.inf
        partner_col = int(np.argmin(dist))
        gap = dist[partner_col]
        scale = max(1.0, float(np.max(np.abs(w[r]))))
        eq19 = None
        if system.alpha_a == system.alpha_b and beta_star[r] > 1.1:
            eq19 = eq19_gap_dimensionless(system.alpha_a, beta_star[r])
        reports.append(
            AnticrossingReport(
                pair=(basis[j_hi[r]], basis[j_lo[r]]),
                beta_star=float(beta_star[r]),
                min_gap=float(gap),
                eq19_gap=eq19,
                block=key,
                kind="anticrossing" if gap > CROSSING_TOL * scale else "crossing",
                partner=basis[int(np.argmax(np.abs(v[r, :, partner_col])))],
                enter_weight=track.dominant(-1)[1],
                exit_weight=track.dominant(0)[1],
            )
        )
    return reports


def _crossing_reports(sweep: SpectrumSweep, block_tracks: list[Track]) -> list[AnticrossingReport]:
    """Crossing reports of one block: each sign change of a pair's energy difference."""
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
                        eq19_gap=None,
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

    Gaps below ``CROSSING_TOL`` (relative to the local energy scale) are
    classified as crossings.  Deterministic ordering by (beta_star, block,
    pair).
    """
    blocks: dict[int, list[Track]] = {}
    for track in sweep.tracks:
        if len(track.basis) > 1:
            blocks.setdefault(track.block, []).append(track)
    reports = [r for tracks in blocks.values() for r in _exchange_reports(sweep, tracks)]
    reports += [r for tracks in blocks.values() for r in _crossing_reports(sweep, tracks)]
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


def refine_beta_grid(beta_grid, centers):
    """Merge REFINE_FACTOR-times-finer points within +-REFINE_WINDOW of each center.

    Used for the two-pass sweep export: a first pass locates the
    crossing/anticrossing points, the export pass resolves their vicinity
    ten times finer.  The result is strictly ascending and deterministic.
    """
    grid = np.asarray(beta_grid, dtype=float)
    centers = [c for c in centers if grid[0] <= c <= grid[-1]]
    if grid.size < 2 or not centers:
        return grid
    fine = float(np.min(np.diff(grid))) / REFINE_FACTOR
    pieces = [grid]
    for c in centers:
        lo = max(grid[0], c - REFINE_WINDOW)
        hi = min(grid[-1], c + REFINE_WINDOW)
        pieces.append(np.arange(lo, hi + 0.5 * fine, fine))
    return np.unique(np.concatenate(pieces))


def eq19_gap_dimensionless(alpha: float, beta: float) -> float:
    """Strong-field splitting of the two lowest M+m = -1 levels, units of J.

    (alpha/2)^2 (1/(beta-1) - 1/beta); valid for beta >> 1 at equal couplings.
    """
    return (alpha / 2.0) ** 2 * (1.0 / (beta - 1.0) - 1.0 / beta)


def eq19_gap(B: float, J: float, A: float) -> tuple[float, float]:
    """Physical strong-field gap E14 - E15 = (A/2)^2/(2 mu_B B - J) - (A/2)^2/(2 mu_B B).

    Args:
        B: magnetic field, T (must be > 0).
        J: exchange energy, J (>= 0; the validity window 2 mu_B B >= 3 J is
           enforced, which keeps the formula away from its 2 mu_B B = J pole).
        A: common hyperfine coupling of both donors, J.

    Returns:
        (gap, nu): splitting in joules and the transition frequency gap/h in Hz.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if J < 0:
        raise ValueError("J must be non-negative")
    zeeman = 2.0 * DEFAULT_CONSTANTS.mu_B * B
    if J > 0 and zeeman < 3.0 * J:
        raise ValueError(
            "strong-field formula requires 2 mu_B B >= 3 J (anticrossing region excluded)"
        )
    if J == 0.0 or A == 0.0:
        return 0.0, 0.0
    gap = (A / 2.0) ** 2 / (zeeman - J) - (A / 2.0) ** 2 / zeeman
    return gap, gap / DEFAULT_CONSTANTS.h
