import pytest

from sidonor.config import _UNITS, parse_quantity
from sidonor.constants import (
    DEFAULT_CONSTANTS,
    MaterialParams,
    hyperfine_constant_A0,
    residual_delta_E,
)

# high-precision hand evaluation of the contact coupling with the reference
# constants: (2/3) mu0 (2 mu_B)(g_N mu_N) |Psi0|^2 / h
A0_HZ_EXPECTED = 1.1514328569103797e8


def test_hyperfine_constant_reference_value():
    a_j, a_hz = hyperfine_constant_A0()
    assert a_hz == pytest.approx(A0_HZ_EXPECTED, rel=1e-12)
    assert a_hz == pytest.approx(1.15e8, rel=0.05)
    assert a_j == pytest.approx(a_hz * DEFAULT_CONSTANTS.h, rel=1e-12)


def test_hyperfine_constant_zero_density():
    a_j, a_hz = hyperfine_constant_A0(MaterialParams(psi0_sq=0.0))
    assert a_j == 0.0 and a_hz == 0.0


def test_hyperfine_constant_linear_in_density():
    base, _ = hyperfine_constant_A0(MaterialParams(psi0_sq=0.43e30))
    double, _ = hyperfine_constant_A0(MaterialParams(psi0_sq=0.86e30))
    assert double == pytest.approx(2.0 * base, rel=1e-14)


def test_hyperfine_constant_rejects_negative_density():
    with pytest.raises(ValueError):
        hyperfine_constant_A0(MaterialParams(psi0_sq=-1.0))


def test_residual_delta_e_reference_value():
    val_ev = residual_delta_E() / DEFAULT_CONSTANTS.e
    assert val_ev == pytest.approx(-0.022668415196110996, rel=1e-12)
    assert val_ev == pytest.approx(-0.023, rel=0.05)


def test_residual_delta_e_limits():
    assert residual_delta_E(MaterialParams(a_star=1.0)) == pytest.approx(0.0, abs=1e-27)
    assert residual_delta_E(MaterialParams(a_star=1.0)) < 0.0
    half_eps = residual_delta_E(MaterialParams(eps_r=11.9 / 2))
    assert half_eps == pytest.approx(2.0 * residual_delta_E(), rel=1e-14)


@pytest.mark.parametrize("a_star", [1e-10, 2e-9, 5e-8])
@pytest.mark.parametrize("eps_r", [1.0, 11.9, 40.0])
def test_residual_delta_e_always_negative(a_star, eps_r):
    assert residual_delta_E(MaterialParams(a_star=a_star, eps_r=eps_r)) < 0.0


def test_residual_delta_e_invalid_inputs():
    with pytest.raises(ValueError):
        residual_delta_E(MaterialParams(a_star=0.0))
    with pytest.raises(ValueError):
        residual_delta_E(MaterialParams(eps_r=-1.0))


@pytest.mark.parametrize("value", [1.0, 0.04, 1.15e8, 3.7e-21])
def test_unit_round_trips(value):
    # the config unit table is the package's one set of unit conversions
    for kind, units in _UNITS.items():
        for unit, scale in units.items():
            si = parse_quantity(f"{value!r} {unit}", kind, "x")
            assert si / scale == pytest.approx(value, rel=1e-12)
    assert parse_quantity(f"{value!r} eV", "energy", "x") == value * DEFAULT_CONSTANTS.e
    assert parse_quantity(f"{value!r} MHz", "frequency", "x") == value * 1e6
