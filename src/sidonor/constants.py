"""Physical constants, shared parameter records and the one grid layout.

Everything is SI internally.  The constant values are deliberately the
rounded reference values of the original device analysis rather than CODATA
ones: keeping them verbatim is what makes the reproduced numbers land on the
reference results (115 MHz hyperfine coupling, -0.023 eV level residual, ...).

Note on ``h``: the reference tables quote 6.62e-34 J*s, which is numerically
Planck's constant h (not h-bar).  It is stored as ``h`` here; all Hz
conversions divide by ``h``.

Every formula reads the one :data:`DEFAULT_CONSTANTS` record.  The records
that the config layer shares with the compute modules (:class:`PlacementError`,
:data:`DEFAULT_LINE_WIDTH`, :data:`DEFAULT_BETA_RANGE`, :class:`ConvergenceError`)
live here too, so that reading a config imports no compute module and no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    mu_B: float = 9.27e-24          # Bohr magneton, J/T
    mu_N: float = 5.05e-27          # nuclear magneton, J/T
    g_N: float = 2.26               # 31P nuclear Lande factor
    e: float = 1.6e-19              # elementary charge, C
    eps0: float = 8.85e-12          # vacuum permittivity, F/m
    mu0: float = 4.0e-7 * math.pi   # vacuum permeability, T*m/A
    h: float = 6.62e-34             # Planck constant, J*s


@dataclass(frozen=True)
class MaterialParams:
    """Shallow-donor parameters for P:Si.

    ``delta_E`` is the 1s-2s unperturbed energy residual E_1s - E_2s (J,
    negative).  Left as ``None`` it is computed from the hydrogenic closed
    form (see :func:`residual_delta_E`); set it explicitly to explore other
    estimates.  ``Delta_E`` is the mean excitation energy entering the
    second-order shift.
    """

    a_star: float = 2.0e-9          # effective Bohr radius, m (20 Angstrom)
    eps_r: float = 11.9             # silicon relative permittivity
    psi0_sq: float = 0.43e30        # |Psi0(0)|^2 at V=0, m^-3
    Delta_E: float = 0.04 * 1.6e-19  # mean excitation energy, J (0.04 eV)
    delta_E: float | None = None    # 1s-2s residual, J; None -> computed


DEFAULT_CONSTANTS = PhysicalConstants()
DEFAULT_MATERIAL = MaterialParams()

DEFAULT_LINE_WIDTH = 1e4  # Hz, resonant-pulse strip width
DEFAULT_BETA_RANGE = (0.2, 3.0, 401)  # (start, stop, points) of the default beta grid


@dataclass(frozen=True)
class PlacementError:
    """Donor offsets from the nominal site (m): dx lateral, dz in depth."""

    dx: float
    dz: float


class ConvergenceError(RuntimeError):
    """The eigensolver failed, or met a non-finite input, eigenvalue or spread."""


# --- derived quantities ---------------------------------------------------

def hyperfine_constant_A0(mat: MaterialParams = DEFAULT_MATERIAL) -> tuple[float, float]:
    """Contact hyperfine coupling of the donor ground state at V = 0.

    A = (8 pi / 3) |Psi0(0)|^2 * 2 mu_B * g_N mu_N * (mu0 / 4 pi), evaluated
    in the equivalent SI form (2/3) mu0 (2 mu_B) (g_N mu_N) |Psi0(0)|^2.

    Returns:
        (A, A/h): coupling in joules and in hertz.
    """
    if mat.psi0_sq < 0:
        raise ValueError("psi0_sq must be non-negative")
    k = DEFAULT_CONSTANTS
    a_j = (2.0 / 3.0) * k.mu0 * (2.0 * k.mu_B) * (k.g_N * k.mu_N) * mat.psi0_sq
    return a_j, a_j / k.h


def residual_delta_E(mat: MaterialParams = DEFAULT_MATERIAL) -> float:
    """1s-2s energy residual delta_E = -(3/8) e^2 / (4 pi eps eps0 a*), in J.

    Negative for all physical inputs (~ -0.023 eV for the silicon defaults).
    """
    if mat.a_star <= 0 or mat.eps_r <= 0:
        raise ValueError("a_star and eps_r must be positive")
    k = DEFAULT_CONSTANTS
    return -(3.0 / 8.0) * k.e**2 / (4.0 * math.pi * mat.eps_r * k.eps0 * mat.a_star)


def effective_delta_E(mat: MaterialParams = DEFAULT_MATERIAL) -> float:
    """The delta_E actually used by the perturbation formulas (override or computed)."""
    return mat.delta_E if mat.delta_E is not None else residual_delta_E(mat)


def linear_grid(lo: float, hi: float, points: int) -> list[float]:
    """``points`` evenly spaced floats from ``lo`` to ``hi`` inclusive; ``[lo]`` for one.

    Every grid of the package (config voltage and beta grids, the default beta
    grid, the nulling mesh axes) is laid out here, so equal (lo, hi, points)
    give equal floats.
    """
    if points == 1:
        return [lo]
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]
