import math

import numpy as np
import pytest

from sidonor.acceptance import matrix_element_quadrature
from sidonor.constants import DEFAULT_CONSTANTS, MaterialParams
from sidonor.electrostatics import (
    FieldCoefficients,
    GateGeometry,
    disc_field_coeffs,
    field_coeffs,
    strip_field_coeffs,
)
from sidonor.hyperfine import (
    HydrogenicState,
    hic_shift,
    matrix_element_2s1s,
    second_order_shift,
    voltage_polynomial,
)

A, C, D = 5e-9, 10e-9, 500e-9
DISC = GateGeometry(kind="disc", a=A, c=C)
STRIP = GateGeometry(kind="strip", a=A, c=C, D=D)


# --- hydrogenic envelopes ---------------------------------------------------

@pytest.mark.parametrize("label", ["1s", "2s"])
@pytest.mark.parametrize("a_star", [1.5e-9, 2.0e-9])
def test_envelope_normalization(label, a_star):
    state = HydrogenicState(label, a_star)
    # composite Gauss-Legendre of 4 pi r^2 |F|^2 over [0, 60 a*]
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0
    edges = np.linspace(0.0, 60.0 * a_star, 33)
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        w = 0.5 * (hi - lo) * weights
        total += float(np.sum(4.0 * math.pi * r**2 * state.value(r) ** 2 * w))
    assert abs(total - 1.0) < 1e-8


def test_envelope_origin_ratio():
    f1 = HydrogenicState("1s", 2e-9)
    f2 = HydrogenicState("2s", 2e-9)
    assert float(f2.value(0.0) / f1.value(0.0)) == pytest.approx(math.sqrt(2) / 4, rel=1e-14)


def test_envelope_validation():
    with pytest.raises(ValueError):
        HydrogenicState("3s", 2e-9)
    with pytest.raises(ValueError):
        HydrogenicState("1s", -1.0)


# --- 2s-1s matrix element ---------------------------------------------------

def test_matrix_element_zero_fields():
    fc = FieldCoefficients(geometry="disc", E_c=1e7, E1_c=0.0, E2_c=0.0, phi0=0.3)
    assert matrix_element_2s1s(fc) == 0.0


def test_matrix_element_linear_in_axial_gradient():
    fc1 = FieldCoefficients(geometry="disc", E_c=0.0, E1_c=1e15, E2_c=0.0, phi0=0.0)
    fc2 = FieldCoefficients(geometry="disc", E_c=0.0, E1_c=2e15, E2_c=0.0, phi0=0.0)
    assert matrix_element_2s1s(fc2) == pytest.approx(2 * matrix_element_2s1s(fc1), rel=1e-14)


def test_matrix_element_reference_geometry_vs_quadrature():
    fc = disc_field_coeffs(1.0, A, C)
    closed = matrix_element_2s1s(fc)
    oracle = matrix_element_quadrature(fc.E1_c, fc.E2_c, 2e-9, geometry="disc")
    assert closed == pytest.approx(-1.3258888169113084e-21, rel=1e-10)
    assert abs(closed - oracle) / abs(oracle) < 1e-6


def test_matrix_element_constant_and_linear_pieces_drop():
    # orthogonality kills the constant term, parity kills the linear one
    scale = abs(matrix_element_quadrature(1e15, 0.0, 2e-9))
    assert abs(matrix_element_quadrature(0.0, 0.0, 2e-9, phi0=0.5)) < 1e-9 * scale
    assert abs(matrix_element_quadrature(0.0, 0.0, 2e-9, Ec=1e7)) < 1e-9 * scale


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matrix_element_random_coefficients(seed):
    rng = np.random.default_rng(seed)
    e1 = 10.0 ** rng.uniform(14.0, 16.0)
    e2 = e1 * rng.uniform(0.8, 1.6)
    a_star = rng.uniform(1.5e-9, 2.5e-9)
    fc = FieldCoefficients(geometry="disc", E_c=0.0, E1_c=e1, E2_c=e2, phi0=0.0)
    closed = matrix_element_2s1s(fc, MaterialParams(a_star=a_star))
    oracle = matrix_element_quadrature(e1, e2, a_star, geometry="disc")
    assert abs(closed - oracle) / abs(oracle) < 1e-6


def test_matrix_element_strip_transverse_weight():
    # x^2 carries half the rho^2 angular weight; checked against quadrature
    e1, e2, a_star = 1.3e15, 0.9e15, 2e-9
    fc = FieldCoefficients(geometry="strip", E_c=0.0, E1_c=e1, E2_c=e2, phi0=0.0)
    closed = matrix_element_2s1s(fc, MaterialParams(a_star=a_star))
    oracle = matrix_element_quadrature(e1, e2, a_star, geometry="strip")
    assert abs(closed - oracle) / abs(oracle) < 1e-6


def test_matrix_element_strip_exact_cancellation():
    fc = strip_field_coeffs(1.0, A, C, D)
    assert matrix_element_2s1s(fc) == 0.0


# --- second-order shift -----------------------------------------------------

def test_second_order_reference_value():
    fc = disc_field_coeffs(1.0, A, C)
    val = second_order_shift(fc)
    assert val == pytest.approx(-0.2028270594763115, rel=1e-12)
    assert val == pytest.approx(-0.19, rel=0.10)


def test_second_order_zero_field():
    fc = FieldCoefficients(geometry="disc", E_c=0.0, E1_c=1e15, E2_c=1e15, phi0=0.1)
    assert second_order_shift(fc) == 0.0


def test_second_order_quadratic_in_voltage():
    v1 = second_order_shift(disc_field_coeffs(1.0, A, C))
    v2 = second_order_shift(disc_field_coeffs(2.0, A, C))
    assert v2 == pytest.approx(4.0 * v1, rel=1e-13)


@pytest.mark.parametrize("e_c", [0.0, 1e5, 3e7, -2e7])
def test_second_order_never_positive(e_c):
    fc = FieldCoefficients(geometry="disc", E_c=e_c, E1_c=0.0, E2_c=0.0, phi0=0.0)
    assert second_order_shift(fc) <= 0.0


def test_second_order_requires_positive_excitation_energy():
    fc = disc_field_coeffs(1.0, A, C)
    with pytest.raises(ValueError):
        second_order_shift(fc, MaterialParams(Delta_E=0.0))


# --- full shift breakdown ---------------------------------------------------

def test_breakdown_sums_exactly():
    for v in (0.2, 0.7, 1.0):
        b = hic_shift(field_coeffs(DISC, v))
        assert b.total == b.second_order + b.first_order_linear + b.first_order_squared


def test_disc_polynomial_reference_coefficients():
    lin, quad = voltage_polynomial(DISC)
    assert lin == pytest.approx(0.5299445721074438, rel=1e-12)
    assert lin == pytest.approx(0.55, rel=0.10)
    assert quad == pytest.approx(-0.13261674709977606, rel=1e-12)
    # aggregate reference -0.09 is only reproduced within a factor 2
    assert 0.5 <= abs(quad / -0.09) <= 2.0


def test_disc_linear_term_with_rounded_delta_e():
    # with the rounded -0.023 eV residual instead of the computed one
    mat = MaterialParams(delta_E=-0.023 * DEFAULT_CONSTANTS.e)
    lin, _ = voltage_polynomial(DISC, mat)
    assert lin == pytest.approx(0.522304503976388, rel=1e-12)


def test_strip_polynomial_purely_quadratic():
    lin, quad = voltage_polynomial(STRIP)
    assert lin == 0.0
    assert quad == pytest.approx(-0.11142168664840582, rel=1e-12)
    assert 0.5 <= abs(quad / -0.063) <= 2.0


def test_zero_voltage_gives_zero_breakdown():
    for gate in (DISC, STRIP):
        b = hic_shift(field_coeffs(gate, 0.0))
        assert (b.second_order, b.first_order_linear, b.first_order_squared, b.total) == (
            0.0,
            0.0,
            0.0,
            0.0,
        )


def test_first_order_squared_never_negative():
    for v in (-1.0, 0.3, 2.0):
        b = hic_shift(field_coeffs(DISC, v))
        assert b.first_order_squared >= 0.0


def test_shift_is_exact_degree_two_polynomial():
    lin, quad = voltage_polynomial(DISC)
    for v in np.linspace(0.05, 1.0, 20):
        b = hic_shift(field_coeffs(DISC, v))
        poly = lin * v + quad * v * v
        assert abs(b.total - poly) <= 1e-12 * max(abs(poly), abs(lin * v), abs(quad * v * v))
