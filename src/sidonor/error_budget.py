"""Hyperfine error budget: donor misplacement and gate-voltage noise.

The placement analysis is for the strip gate.  The relative-error expression
(:func:`relative_hic_error`) is what the paper's three displaced-field
brackets give to first order in dz and second order in dx (the test oracles
keep the brackets themselves).  It carries the published numeric calibration
coefficients 0.063 (quadratic shift scale) and 0.085 (linear sensitivity
scale) of the c = 2a = 10 nm, D = 100 a geometry; a "recomputed" mode
re-derives both from the electrostatics + hyperfine pipeline for any
geometry so the two can be compared.

The dx^2 bracket is q V^2 (2c^2 - a^2)/s^2 - l V (2c^4 - a^4)/(2 c^2 s^2)
with s = a^2 + c^2, so its only nonzero root in V has the closed form
:func:`nulling_voltage`; :func:`find_nulling_parameters` evaluates it over the
whole (a, c) mesh at once, in pow-free terms that floats and arrays round alike,
and returns the configurations that qualify as the float64 columns of a
:class:`NullingTable`, with no per-row objects.

:func:`relative_hic_error`, :func:`dz_for_target` and
:func:`admissible_voltage_error` take V as a float or a 1-D array.  Each
validates the gate and computes its coefficients once, then broadcasts the
same formulas, so an array gives every voltage the bits of the float call and
the ``error-budget`` voltage table is one call per coefficient mode.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .constants import (
    DEFAULT_LINE_WIDTH,
    DEFAULT_MATERIAL,
    MaterialParams,
    PlacementError,
    hyperfine_constant_A0,
    linear_grid,
)
from .electrostatics import GateGeometry, strip_field_coeffs
from .hyperfine import first_order_shift, second_order_shift, voltage_polynomial

# published calibration coefficients (dimensionless per V^2 and per V)
STRIP_QUAD_COEFF = 0.063
STRIP_LIN_COEFF = 0.085

_log = logging.getLogger(__name__)

@dataclass(frozen=True)
class ErrorBudgetReport:
    dA_over_A: float        # relative hyperfine error, dz_term + dx2_term exactly
    dz_term: float          # contribution linear in dz
    dx2_term: float         # contribution quadratic in dx


@dataclass(frozen=True)
class VoltageErrorBound:
    dV: float               # admissible gate-voltage error, V
    slope: float            # d(dA/A)/dV at the working point


@dataclass(frozen=True, eq=False)
class NullingTable:
    """The nulling search's rows as columns: one float64 array each, in (a, c) order."""

    a: np.ndarray              # strip half-width, m
    c: np.ndarray              # donor depth, m
    V: np.ndarray              # voltage at which the dx^2 bracket vanishes
    bracket: np.ndarray        # residual bracket value at (a, c, V)
    admissible_dz: np.ndarray  # dz allowed by the target at this configuration

    def __len__(self) -> int:
        return self.a.size


_StripTerms = namedtuple("_StripTerms", "c2 s p2 p4")


def _strip_terms(a, c) -> _StripTerms:
    """c^2, s = a^2 + c^2, p2 = 2c^2 - a^2, p4 = 2c^4 - a^4 without pow."""
    a2, c2 = a * a, c * c
    return _StripTerms(c2, a2 + c2, 2.0 * c2 - a2, 2.0 * (c2 * c2) - a2 * a2)


def strip_gate_terms(gate: GateGeometry) -> _StripTerms:
    """:func:`_strip_terms` of a strip gate; ValueError for another kind or out-of-range lengths."""
    if gate.kind != "strip":
        raise ValueError("placement-error analysis applies to the strip gate")
    t = _strip_terms(gate.a, gate.c)
    if not (0.0 < 2.0 * t.c2 * t.s * t.s < math.inf):  # the formulas' common denominator
        raise ValueError("gate lengths overflow or underflow the strip placement formulas")
    return t


def _dz_coeff(q, c, t: _StripTerms, V):
    return q * V * V * 2.0 * c / t.s


def _bracket(q, l, t: _StripTerms, V):
    return q * V * V * t.p2 / (t.s * t.s) - l * V * t.p4 / (2.0 * t.c2 * t.s * t.s)


def _root(q, l, t: _StripTerms):
    return (l / q) * t.p4 / (2.0 * t.c2 * t.p2)


def strip_coefficients(
    gate: GateGeometry, coefficients: str, mat: MaterialParams = DEFAULT_MATERIAL
) -> tuple[float, float]:
    """(quadratic-shift, linear-sensitivity) scales of the error expression.

    "recomputed" takes them from the hyperfine shift of the strip at 1 V: minus
    its second-order part and the magnitude of its first-order part on E1_c.
    """
    if coefficients == "published":
        return STRIP_QUAD_COEFF, STRIP_LIN_COEFF
    if coefficients != "recomputed":
        raise ValueError("coefficients must be 'published' or 'recomputed'")
    fc1 = strip_field_coeffs(1.0, gate.a, gate.c, gate.D)
    return -second_order_shift(fc1, mat), abs(first_order_shift(fc1.E1_c, mat))


def dx2_bracket(
    gate: GateGeometry,
    V: float,
    coefficients: str = "published",
    mat: MaterialParams = DEFAULT_MATERIAL,
) -> float:
    """The curly bracket multiplying (dx)^2 in the relative-error expression."""
    t = strip_gate_terms(gate)
    q, l = strip_coefficients(gate, coefficients, mat)
    return _bracket(q, l, t, V)


def nulling_voltage(
    gate: GateGeometry,
    coefficients: str = "published",
    mat: MaterialParams = DEFAULT_MATERIAL,
) -> float | None:
    """Closed-form root of the dx^2 bracket, or None when no finite positive root exists."""
    t = strip_gate_terms(gate)
    q, l = strip_coefficients(gate, coefficients, mat)
    try:
        v = _root(q, l, t)
    except ZeroDivisionError:  # 2c^2 (2c^2 - a^2) = 0, or q = 0: no nonzero root
        return None
    return v if 0.0 < v < math.inf else None


def relative_hic_error(
    gate: GateGeometry,
    V,
    err: PlacementError,
    coefficients: str = "published",
    mat: MaterialParams = DEFAULT_MATERIAL,
) -> ErrorBudgetReport:
    """Relative hyperfine error from placement offsets at working voltage V.

    dA/A = dz * {q V^2 2c/(a^2+c^2)}
         + dx^2 * {q V^2 (2c^2-a^2)/(a^2+c^2)^2 - l V (2c^4-a^4)/(2c^2(a^2+c^2)^2)}

    Exactly linear in dz and quadratic in dx.  V is a float or a 1-D array,
    and each term has its shape; an array gives each voltage the float's bits.
    Logs a warning when |dz| > 0.2 c (the truncation drops dz^2 terms, which
    stop being negligible there).
    """
    t = strip_gate_terms(gate)
    if not np.all(V >= 0):
        raise ValueError("V must be non-negative")
    if abs(err.dz) > 0.2 * gate.c:
        _log.warning("dz exceeds 0.2 c: dropped dz^2 terms are no longer negligible")
    q, l = strip_coefficients(gate, coefficients, mat)
    with np.errstate(all="ignore"):  # out-of-range terms are inf or nan, as for a float
        dz_term = err.dz * _dz_coeff(q, gate.c, t, V)
        dx2_term = err.dx**2 * _bracket(q, l, t, V)  # a Python **: numpy's may round differently
        return ErrorBudgetReport(dA_over_A=dz_term + dx2_term, dz_term=dz_term, dx2_term=dx2_term)


def dz_for_target(
    gate: GateGeometry,
    V,
    target: float,
    coefficients: str = "published",
    mat: MaterialParams = DEFAULT_MATERIAL,
):
    """Depth offset dz producing the target relative error (dx = 0).

    inf where the dz coefficient is 0, as at V = 0.  V is a float or a 1-D
    array, and the result has its shape.  A negative or NaN V is refused.
    """
    if not np.all(np.asarray(V) >= 0):
        raise ValueError("V must be non-negative")
    with np.errstate(all="ignore"):
        t = strip_gate_terms(gate)
        q, _ = strip_coefficients(gate, coefficients, mat)
        coeff = np.asarray(_dz_coeff(q, gate.c, t, V))
        dz = np.where(coeff == 0.0, math.inf, target / coeff)
    return dz if np.ndim(V) else dz.item()  # a float V gives a float


def find_nulling_parameters(
    target: float,
    ranges: dict,
    grid_points: int = 101,
    min_dz: float = 1e-9,
) -> NullingTable:
    """Configurations on an (a, c) mesh whose nulling voltage lies in the V range.

    ``ranges`` maps "a", "c", "V" to (lo, hi) intervals (meters / volts);
    zero-width intervals pin the value.  At each of the ``grid_points`` x
    ``grid_points`` (a, c) mesh points the only nonzero root of the dx^2
    bracket is the closed form :func:`nulling_voltage` (published
    coefficients); the trivial root V = 0 and a root that is not finite are
    never reported.  A configuration qualifies when that root lies
    in the closed V interval and the dz admitted by ``target`` there is at
    least ``min_dz`` (with target = inf every root in range qualifies).
    The rows come back as a :class:`NullingTable` of columns ordered by
    (a, c); no root in range gives a table of zero-length columns, not an
    error.  One pass over the mesh gives the scalar functions' bits; the
    published coefficients need no coefficient mode, material, constants or D.
    """
    for key in ("a", "c", "V"):
        if key not in ranges:
            raise ValueError(f"ranges must contain {key!r}")
        if not ranges[key][0] <= ranges[key][1]:
            raise ValueError(f"empty interval for {key!r}")
        if key != "V" and not ranges[key][0] > 0:
            raise ValueError(f"lengths in {key!r} must be positive")
    (a_lo, a_hi), (c_lo, c_hi), (v_lo, v_hi) = ranges["a"], ranges["c"], ranges["V"]
    a_axis = np.array(linear_grid(a_lo, a_hi, 1 if a_hi == a_lo else grid_points))
    c_axis = np.array(linear_grid(c_lo, c_hi, 1 if c_hi == c_lo else grid_points))
    a, c = np.meshgrid(a_axis, c_axis, indexing="ij", sparse=True)
    q, l = STRIP_QUAD_COEFF, STRIP_LIN_COEFF
    with np.errstate(all="ignore"):
        t = _strip_terms(a, c)
        root = _root(q, l, t)
        keep = np.isfinite(root) & (root > 0.0) & (root >= v_lo) & (root <= v_hi)
        coeff = _dz_coeff(q, c, t, root)
        adm = np.where(coeff == 0.0, math.inf, target / coeff)
        keep &= adm >= min_dz
        bracket = _bracket(q, l, t, root)
    # row-major over the "ij" mesh is (a, c) order; the rows share the axis floats
    i, j = np.nonzero(keep)
    return NullingTable(a_axis[i], c_axis[j], root[keep], bracket[keep], adm[keep])


def admissible_voltage_error(
    gate: GateGeometry,
    V,
    line_width: float = DEFAULT_LINE_WIDTH,
    A0_Hz: float | None = None,
    mat: MaterialParams = DEFAULT_MATERIAL,
) -> VoltageErrorBound:
    """Gate-voltage error keeping the hyperfine detuning below the line width.

    Solves |slope| dV + |quad| dV^2 = line_width / A0 for dV, which reduces
    to line_width / (A0 |slope|) away from stationary points and to the
    quadratic bound sqrt(line_width / (A0 |quad|)) at one.  V is a float or
    a 1-D array; dV and slope have its shape.  A negative or NaN V or line
    width is refused.
    """
    if not (line_width >= 0):
        raise ValueError("line_width must be non-negative")
    if not np.all(np.asarray(V) >= 0):
        raise ValueError("V must be non-negative")
    if A0_Hz is None:
        A0_Hz = hyperfine_constant_A0(mat)[1]
    lin, quad = voltage_polynomial(gate, mat)
    t = line_width / A0_Hz
    with np.errstate(all="ignore"):
        slope = lin + 2.0 * quad * np.asarray(V, dtype=float)
        if t == 0.0:
            dv = np.zeros_like(slope)
        elif quad == 0.0:
            dv = np.where(slope == 0.0, math.inf, t / abs(slope))
        else:
            dv = (-abs(slope) + np.sqrt(slope * slope + 4.0 * abs(quad) * t)) / (2.0 * abs(quad))
    if np.ndim(V) == 0:  # a float V gives floats
        dv, slope = dv.item(), slope.item()
    return VoltageErrorBound(dV=dv, slope=slope)
