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
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @classmethod
    def from_physical(cls, B: float, J: float, A_a: float, A_b: float) -> "SpinParams":
        """Convert (B in T, J and A in J) to dimensionless form; J must be > 0."""
        if J <= 0:
            raise ValueError("exchange constant J must be positive")
        return cls(
            alpha_a=A_a / J,
            alpha_b=A_b / J,
            beta=2.0 * DEFAULT_CONSTANTS.mu_B * B / J,
            mu=DEFAULT_CONSTANTS.g_N * DEFAULT_CONSTANTS.mu_N * B / J,
        )


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

    def arrows(self) -> str:
        return "".join("u" if p > 0 else "d" for p in (self.Ma, self.Mb, self.ma, self.mb))


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
    return (
        p.beta * _ZEEMAN_E
        + _EXCHANGE
        - p.mu * _ZEEMAN_N
        + p.alpha_a * _HF_A
        + p.alpha_b * _HF_B
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
