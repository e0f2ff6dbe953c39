"""Two-donor electron-nuclear spin Hamiltonian on the 16-state product basis.

Everything is dimensionless in units of the exchange constant J:

    H/J = beta (S_az + S_bz) + S_a.S_b - mu (I_az + I_bz)
          + alpha_a (I_a.S_a) + alpha_b (I_b.S_b)

with beta = 2 mu_B B / J, mu = g_N mu_N B / J, alpha = A / J.  The basis is
|Ma Mb ma mb> (electron projections first), indexed 1..16 in the order
|1> = |up up up up>, |2> = |up up up down>, ..., |16> = |down down down down>
(mb is the fastest bit, Ma the slowest).

The total projection M + m is conserved, so the matrix splits into five
blocks, sizes 6, 4, 4, 1, 1 for M + m = 0, +1, -1, +2, -2.

At alpha_a = alpha_b the donor swap (Ma, Mb, ma, mb) -> (Mb, Ma, mb, ma)
commutes with H as well, and each block splits again into an even and an
odd exchange-symmetry sector, sizes 4 + 2, 2 + 2, 2 + 2, 1 + 0 and 1 + 0.
:func:`solver_sectors` holds the one rule for when a config is solved in
these sectors: its even-odd entries are rounding (``SWAP_ROUNDING``).  It
then splits each chosen sector into the connected components of its
field-free part: a coupling that is exactly zero (alpha = 0) decouples
states, and the field terms are diagonal, so no beta couples them again.
Within a component no two levels cross, so its k-th eigenvalue is one
adiabatic level at every beta.  :class:`SectorHamiltonian` assembles H(beta)
in each component, reading its part straight off the 16 x 16 operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .constants import DEFAULT_CONSTANTS

# mu/beta = g_N mu_N / (2 mu_B): fixed physical ratio when one field B is swept
MU_OVER_BETA = DEFAULT_CONSTANTS.g_N * DEFAULT_CONSTANTS.mu_N / (2.0 * DEFAULT_CONSTANTS.mu_B)


@dataclass(frozen=True)
class SpinParams:
    """Dimensionless parameters of the two-donor spin system (units of J)."""

    alpha_a: float
    alpha_b: float
    beta: float
    mu: float


@dataclass(frozen=True)
class BasisState:
    index: int    # 1..16
    Ma: float
    Mb: float
    ma: float
    mb: float

    @property
    def m_plus_M(self) -> float:
        return self.Ma + self.Mb + self.ma + self.mb

    @property
    def M(self) -> float:
        """Total electron projection Ma + Mb."""
        return self.Ma + self.Mb


def _make_basis() -> tuple[BasisState, ...]:
    states = []
    for i in range(16):
        bits = [(i >> k) & 1 for k in (3, 2, 1, 0)]  # Ma, Mb, ma, mb; 1 = down
        proj = [0.5 if b == 0 else -0.5 for b in bits]
        states.append(BasisState(i + 1, *proj))
    return tuple(states)


BASIS: tuple[BasisState, ...] = _make_basis()

# blocks in the conventional listing order: M+m = 0, +1, -1, +2, -2
BLOCK_ORDER: tuple[int, ...] = (0, 1, -1, 2, -2)
BLOCKS: dict[int, tuple[int, ...]] = {
    key: tuple(s.index for s in BASIS if s.m_plus_M == key) for key in BLOCK_ORDER
}


class BlockStructureError(RuntimeError):
    """A matrix entry connects states of different total projection M + m."""


_SZ = np.diag([0.5, -0.5])
_SP = np.array([[0.0, 1.0], [0.0, 0.0]])
_SM = _SP.T
_ID = np.eye(2)


def _one(op: np.ndarray, pos: int) -> np.ndarray:
    mats = [op if k == pos else _ID for k in range(4)]
    out = np.array([[1.0]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _dot(p1: int, p2: int) -> np.ndarray:
    """S1.S2 = S1z S2z + (S1+ S2- + S1- S2+)/2 between positions p1, p2."""
    return _one(_SZ, p1) @ _one(_SZ, p2) + 0.5 * (
        _one(_SP, p1) @ _one(_SM, p2) + _one(_SM, p1) @ _one(_SP, p2)
    )


# position order: 0 = electron a, 1 = electron b, 2 = nucleus a, 3 = nucleus b
_ZEEMAN_E = _one(_SZ, 0) + _one(_SZ, 1)
_ZEEMAN_N = _one(_SZ, 2) + _one(_SZ, 3)
_EXCHANGE = _dot(0, 1)
_HF_A = _dot(2, 0)
_HF_B = _dot(3, 1)


def build_hamiltonian(p: SpinParams) -> np.ndarray:
    """The 16x16 real symmetric matrix H/J in the product basis."""
    for name in ("alpha_a", "alpha_b", "beta", "mu"):
        if not np.isfinite(getattr(p, name)):
            raise ValueError(f"{name} must be finite")
    # couplings first, field terms last: the sweep adds its beta and mu blocks
    # to the blocks at beta = mu = 0 in this order, so it gets these bits
    return (
        _EXCHANGE
        + p.alpha_a * _HF_A
        + p.alpha_b * _HF_B
        + p.beta * _ZEEMAN_E
        - p.mu * _ZEEMAN_N
    )


@dataclass(frozen=True)
class Block:
    m_plus_M: int
    indices: tuple[int, ...]   # 1-based basis indices
    matrix: np.ndarray


def block_decompose(H: np.ndarray) -> list[Block]:
    """Split H into the five conserved-projection blocks.

    Raises :class:`BlockStructureError` if any cross-block entry is not
    exactly zero (which would mean the matrix was not built correctly).
    """
    H = np.asarray(H)
    if H.shape != (16, 16):
        raise ValueError("expected a 16x16 matrix")
    keys = np.array([s.m_plus_M for s in BASIS])
    cross = np.argwhere((keys[:, None] != keys[None, :]) & (H != 0.0))
    if cross.size:  # argwhere lists entries in row-major order
        i, j = cross[0].tolist()
        raise BlockStructureError(f"nonzero cross-block entry H[{i + 1},{j + 1}] = {H[i, j]}")
    sel = {key: [i - 1 for i in BLOCKS[key]] for key in BLOCK_ORDER}
    return [Block(key, BLOCKS[key], H[np.ix_(sel[key], sel[key])].copy()) for key in BLOCK_ORDER]


# the donor swap (Ma, Mb, ma, mb) -> (Mb, Ma, mb, ma), index -> index; it keeps
# M and m, so it maps every block onto itself
_BY_SPINS = {(s.Ma, s.Mb, s.ma, s.mb): s.index for s in BASIS}
SWAP: dict[int, int] = {s.index: _BY_SPINS[s.Mb, s.Ma, s.mb, s.ma] for s in BASIS}


@dataclass(frozen=True)
class Sector:
    """The basis of one exchange-symmetry sector of a block, of a whole block, or of a component of either.

    Each state is (label, p, q, sign), with p and q basis indices minus 1:
    the product state |p> when sign is 0 (then q = p), else the pair state
    (|p> + sign |q>)/sqrt(2) of a swap orbit {p, q}.  An even pair (sign +1)
    is labelled by the smaller basis index of its orbit, an odd pair
    (sign -1) by the larger, so labels stay integers 1..16 and differ
    between the two sectors of a block.  States are in ascending label order.
    """

    block: int                                    # M + m
    parity: int                                   # +1 even, -1 odd under the swap; 0: whole block
    states: tuple[tuple[int, int, int, int], ...]

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(state[0] for state in self.states)


def _sectors(key: int) -> tuple[Sector, ...]:
    even, odd = [], []
    for i in BLOCKS[key]:
        j = SWAP[i]
        if i == j:
            even.append((i, i - 1, i - 1, 0))
        elif i < j:
            even.append((i, i - 1, j - 1, 1))
            odd.append((j, i - 1, j - 1, -1))
    return tuple(
        Sector(key, parity, tuple(sorted(states))) for parity, states in ((1, even), (-1, odd)) if states
    )


WHOLE_BLOCKS: dict[int, Sector] = {
    key: Sector(key, 0, tuple((i, i - 1, i - 1, 0) for i in BLOCKS[key])) for key in BLOCK_ORDER
}
# the even sector first, then the odd one where the block has one
EXCHANGE_SECTORS: dict[int, tuple[Sector, ...]] = {key: _sectors(key) for key in BLOCK_ORDER}

# normalization of an entry between states with 0, 1 or 2 pair states
_PAIR_NORM = np.array([1.0, math.sqrt(0.5), 0.5])


@cache
def _gather(rows: Sector, cols: Sector) -> tuple:
    """Index grids, signs and normalization of the entries between two sectors."""
    _, p, q, s = (np.array(x) for x in zip(*rows.states))
    _, r, t, u = (np.array(x) for x in zip(*cols.states))
    s = s[:, None]
    return np.ix_(p, r), np.ix_(p, t), np.ix_(q, r), np.ix_(q, t), s, u, _PAIR_NORM[np.abs(s) + np.abs(u)]


def _rotate(c: np.ndarray, rows: Sector, cols: Sector) -> np.ndarray:
    """<row state| C |column state> for a 16 x 16 operator C in the product basis.

    Term by term, without a matrix product: a pair-pair entry is
    (C_pr + u C_pt + s (C_qr + u C_qt)) / 2, and only an entry between a pair
    and a product state is scaled by 1/sqrt(2).  A diagonal swap-invariant C
    rotates exactly, and the even-odd entries of an exactly swap-invariant C
    are exactly zero.
    """
    pr, pt, qr, qt, s, u, norm = _gather(rows, cols)
    x = c[pr] + u * c[pt]
    x += s * (c[qr] + u * c[qt])
    return x * norm


# even-odd entries up to this many ulps of their block's largest entry are rounding;
# set from a probe of sweep_spectrum(a, b) against sweep_spectrum(b, a)
SWAP_ROUNDING = 1e4


def _components(sector: Sector, c0: np.ndarray) -> tuple[Sector, ...]:
    """``sector`` split into the connected components of its field-free part ``c0``.

    Two states are coupled where their entry is not exactly zero.  The
    components keep the sector's state order and are listed by their first
    state.
    """
    reach = c0 != 0.0
    np.fill_diagonal(reach, True)
    for _ in range(len(c0).bit_length()):  # squaring doubles the path length
        reach = reach.astype(np.intp) @ reach > 0
    rows = dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in reach)
    return tuple(Sector(sector.block, sector.parity, tuple(sector.states[i] for i in row)) for row in rows)


def solver_sectors(h0: np.ndarray) -> dict[int, tuple[Sector, ...]]:
    """The components that each block is solved in, from the 16 x 16 H at beta = mu = 0.

    The field terms commute with the donor swap, so the swap commutes with H
    when it commutes with ``h0``.  Where every even-odd entry is at most
    ``SWAP_ROUNDING`` ulps of its block's largest entry, that is rounding and
    each block is solved as its exchange sectors; otherwise each block is
    solved whole.  An entry that overflows is no rounding.  Each of these
    sectors is then split into the connected components of its part of
    ``h0`` (:func:`_components`); the field terms are diagonal, so the
    components hold at every beta.  They are listed sector by sector, the
    even sector first.
    """
    sectors = EXCHANGE_SECTORS
    with np.errstate(over="ignore", invalid="ignore"):
        for key in BLOCK_ORDER:
            if len(sectors[key]) == 2:
                idx = np.array(BLOCKS[key]) - 1
                scale = np.max(np.abs(h0[np.ix_(idx, idx)]))
                cross = np.abs(_rotate(h0, *sectors[key]))
                if not np.all(cross <= SWAP_ROUNDING * np.finfo(float).eps * scale):
                    sectors = {key: (WHOLE_BLOCKS[key],) for key in BLOCK_ORDER}
                    break
        return {
            key: tuple(c for s in sectors[key] for c in _components(s, _rotate(h0, s, s))) for key in BLOCK_ORDER
        }


class SectorHamiltonian:
    """Per-sector Hamiltonian H(beta) = C0 + beta*Cb + mu(beta)*Cm.

    C0 is ``build_hamiltonian`` at beta = mu = 0, Cb = S_az + S_bz and
    Cm = -(I_az + I_bz), all 16 x 16.  ``mu=None`` slaves mu to beta through
    MU_OVER_BETA; a number holds it fixed.

    ``sectors[key]`` lists the components that block ``key`` is solved in,
    as :func:`solver_sectors` chooses them from C0.  Each component's part of
    C0, Cb and Cm is read off the operator by :func:`_rotate`, a bitwise
    identity for a whole block; the dropped entries between components are
    zero, or even-odd rounding, so each component is solved apart.
    """

    def __init__(self, alpha_a: float, alpha_b: float, mu: float | None):
        self.mu = mu
        ops = (build_hamiltonian(SpinParams(alpha_a, alpha_b, 0.0, 0.0)), _ZEEMAN_E, -_ZEEMAN_N)
        self.sectors: dict[int, tuple[Sector, ...]] = solver_sectors(ops[0])
        self._parts: dict[Sector, list[np.ndarray]] = {  # C0, Cb and Cm of each sector
            sector: [_rotate(m, sector, sector) for m in ops] for key in BLOCK_ORDER for sector in self.sectors[key]
        }

    def stack(self, sector: Sector, betas) -> np.ndarray:
        """(n_beta, d, d) matrices of ``sector`` at every beta.

        For a whole block, each is that block of ``build_hamiltonian`` at
        (beta, mu) bit for bit: the same terms are added in an order that
        differs only by commuted sums, and Cm is the exact negation of the
        nuclear Zeeman operator.  C0, Cb and Cm are each exactly symmetric, so
        every H(beta) is too and the stack needs no symmetrization.  An entry
        that overflows is left to the eigensolver to refuse.
        """
        c0, cb, cm = self._parts[sector]
        col = np.asarray(betas, dtype=float).reshape(-1, 1, 1)
        mu = MU_OVER_BETA * col if self.mu is None else self.mu
        with np.errstate(over="ignore", invalid="ignore"):
            h = col * cb
            h += c0
            h += mu * cm
        return h

    def slope(self, sector: Sector) -> np.ndarray:
        """dH/dbeta of ``sector``, which is diagonal: its diagonal as a vector.

        diag(Cb) + MU_OVER_BETA diag(Cm) with mu slaved, diag(Cb) with mu
        fixed.  A level's slope dE/dbeta is its weights (v**2) times this
        (Hellmann-Feynman).
        """
        _, cb, cm = self._parts[sector]
        return np.diag(cb) + MU_OVER_BETA * np.diag(cm) if self.mu is None else np.diag(cb)
