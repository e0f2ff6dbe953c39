import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import per_point_nulling

from sidonor.constants import MaterialParams
from sidonor.electrostatics import GateGeometry
from sidonor.error_budget import (
    PlacementError,
    admissible_voltage_error,
    dx2_bracket,
    dz_coefficient,
    dz_for_target,
    find_nulling_parameters,
    nulling_voltage,
    relative_hic_error,
    strip_coefficients,
    strip_sensitivity_derivatives,
)
from sidonor.hyperfine import voltage_polynomial

A, C, D = 5e-9, 10e-9, 500e-9
STRIP = GateGeometry(kind="strip", a=A, c=C, D=D)
DISC = GateGeometry(kind="disc", a=A, c=C)

# closed-form root of the dx^2 bracket at the reference geometry:
# (0.085/0.063) (2c^4 - a^4) / (2c^2 (2c^2 - a^2))
V_STAR = 0.7468820861678004


# --- displaced-field brackets -----------------------------------------------

def test_brackets_reduce_to_one_at_nominal_position():
    assert strip_sensitivity_derivatives(STRIP, PlacementError(0.0, 0.0)) == (1.0, 1.0, 1.0)


def test_bracket_dz_term_vanishes_at_magic_aspect_ratio():
    # at a = c sqrt(2) the (2c^2 - a^2) factor is zero
    gate = GateGeometry(kind="strip", a=C * math.sqrt(2), c=C, D=D)
    _, b2, b3 = strip_sensitivity_derivatives(gate, PlacementError(dx=0.0, dz=1e-9))
    assert abs(b2 - 1.0) < 1e-12
    assert abs(b3 - 1.0) < 1e-12


def test_bracket_shallower_donor_increases_first_factor():
    b1, _, _ = strip_sensitivity_derivatives(STRIP, PlacementError(dx=0.0, dz=-1e-9))
    assert b1 > 1.0


def test_brackets_reject_disc_gate():
    with pytest.raises(ValueError):
        strip_sensitivity_derivatives(DISC, PlacementError(0.0, 0.0))


def test_bracket_closed_forms():
    dx, dz = 1.2e-9, 0.8e-9
    s = A * A + C * C
    b1, b2, b3 = strip_sensitivity_derivatives(STRIP, PlacementError(dx=dx, dz=dz))
    assert b1 == pytest.approx(1 - dz * C / s - dx**2 * (2 * C**2 - A**2) / (2 * s**2), rel=1e-14)
    assert b2 == pytest.approx(
        1 - dz * (2 * C**2 - A**2) / (C * s) - dx**2 * (4 * C**4 + A**2 * C**2 - A**4) / (2 * C**2 * s**2),
        rel=1e-14,
    )
    assert b3 == pytest.approx(
        1 - dz * (2 * C**2 - A**2) / (C * s) - dx**2 * (2 * C**2 + A**2) / (2 * s**2),
        rel=1e-14,
    )


# --- relative error ---------------------------------------------------------

def test_relative_error_zero_offsets():
    rep = relative_hic_error(STRIP, 0.5, PlacementError(0.0, 0.0))
    assert rep.dA_over_A == 0.0 and rep.dz_term == 0.0 and rep.dx2_term == 0.0


def test_relative_error_terms_sum_exactly():
    rep = relative_hic_error(STRIP, 0.6, PlacementError(dx=1e-9, dz=2e-9))
    assert rep.dA_over_A == rep.dz_term + rep.dx2_term


def test_relative_error_linear_in_dz_quadratic_in_dx():
    r1 = relative_hic_error(STRIP, 0.6, PlacementError(dx=1e-9, dz=1e-9))
    r2 = relative_hic_error(STRIP, 0.6, PlacementError(dx=2e-9, dz=2e-9))
    assert r2.dz_term == pytest.approx(2.0 * r1.dz_term, rel=1e-14)
    assert r2.dx2_term == pytest.approx(4.0 * r1.dx2_term, rel=1e-14)


def test_dz_for_one_percent_reference():
    # 0.01 / (0.063 V^2 * 2c/(a^2+c^2)) at V = 0.6
    assert dz_for_target(STRIP, 0.6, 0.01) == pytest.approx(2.755731922398589e-9, rel=1e-12)
    in_band = [
        v / 100.0
        for v in range(10, 101)
        if 2e-9 <= dz_for_target(STRIP, v / 100.0, 0.01) <= 3e-9
    ]
    assert in_band  # some working voltage puts the 1% budget at 2-3 nm


def test_large_dz_warns_about_truncation(caplog):
    relative_hic_error(STRIP, 0.5, PlacementError(dx=0.0, dz=0.2 * C))  # at the bound: no record
    relative_hic_error(STRIP, np.array([0.5, 1.0]), PlacementError(dx=0.0, dz=-0.3 * C))
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("sidonor.error_budget", "WARNING", "dz exceeds 0.2 c: dropped dz^2 terms are no longer negligible")
    ]


def test_recomputed_coefficients_same_structure():
    rep_pub = relative_hic_error(STRIP, 0.6, PlacementError(1e-9, 1e-9), "published")
    rep_rec = relative_hic_error(STRIP, 0.6, PlacementError(1e-9, 1e-9), "recomputed")
    # model-level coefficients differ by less than a factor two
    assert 0.5 < rep_rec.dz_term / rep_pub.dz_term < 2.0


def test_recomputed_quadratic_coefficient_is_the_strip_voltage_polynomial():
    # the strip shift is purely quadratic in V, and its quadratic coefficient
    # is minus the recomputed counterpart of the published 0.063
    lin, quad = voltage_polynomial(STRIP)
    assert lin == 0.0
    assert strip_coefficients(STRIP, "recomputed")[0] == -quad


# --- nulling ----------------------------------------------------------------

def test_nulling_voltage_reference():
    v = nulling_voltage(STRIP)
    assert v == pytest.approx(V_STAR, rel=1e-12)
    scale = abs(dz_coefficient(STRIP, v)) / (2 * C / (A**2 + C**2))  # q V^2 magnitude
    assert abs(dx2_bracket(STRIP, v)) < 1e-10 * scale / C**2


def test_nulling_voltage_absent_at_magic_ratio():
    gate = GateGeometry(kind="strip", a=C * math.sqrt(2), c=C, D=D)
    # 2c^2 - a^2 = 0 up to rounding: the closed-form root blows up or flips sign
    v = nulling_voltage(gate)
    assert v is None or v > 100.0


NULLING_COLUMNS = ("a", "c", "V", "bracket", "admissible_dz")


def nulling_columns(table):
    """The table's five columns, each checked to hold ``len(table)`` float64 values."""
    columns = [getattr(table, key) for key in NULLING_COLUMNS]
    for column in columns:
        assert column.dtype == np.float64 and column.shape == (len(table),)
    return columns


def nulling_rows(table):
    """The table as (a, c, V, bracket, admissible_dz) tuples of Python floats."""
    return list(zip(*(column.tolist() for column in nulling_columns(table))))


def test_find_nulling_reference_window():
    ranges = {"a": (A, A), "c": (C, C), "V": (0.1, 1.0)}
    found = find_nulling_parameters(0.01, ranges)
    assert len(found) == 1
    (a, c, v, bracket, adm), = nulling_rows(found)
    assert (a, c) == (A, C)
    assert v == pytest.approx(V_STAR, rel=1e-9)
    assert adm > 1e-9
    # residual bracket vanishes relative to its own scale
    scale = abs(dx2_bracket(STRIP, 1.0)) + abs(dx2_bracket(STRIP, 0.1))
    assert abs(bracket) < 1e-10 * scale


def test_find_nulling_infinite_target_keeps_all_roots():
    ranges = {"a": (3e-9, 7e-9), "c": (8e-9, 12e-9), "V": (0.1, 1.0)}
    strict = find_nulling_parameters(1e-6, ranges, grid_points=11, min_dz=1e-9)
    loose = find_nulling_parameters(math.inf, ranges, grid_points=11, min_dz=1e-9)
    assert len(loose) >= len(strict)
    assert all(adm == math.inf for *_, adm in nulling_rows(loose))


def test_find_nulling_empty_off_root():
    ranges = {"a": (A, A), "c": (C, C), "V": (0.1, 0.2)}  # root is at ~0.747
    found = find_nulling_parameters(0.01, ranges)
    assert len(found) == 0 and not found
    assert [column.shape for column in nulling_columns(found)] == [(0,)] * 5


def test_find_nulling_deterministic():
    ranges = {"a": (4e-9, 6e-9), "c": (9e-9, 11e-9), "V": (0.1, 1.0)}
    first = find_nulling_parameters(0.01, ranges, grid_points=5)
    second = find_nulling_parameters(0.01, ranges, grid_points=5)
    assert len(first) > 0
    for x, y in zip(nulling_columns(first), nulling_columns(second)):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _bracket_terms(a, c, v, q=0.063, l=0.085):
    """The two terms of the published dx^2 bracket, written out independently."""
    s = a * a + c * c
    return q * v * v * (2 * c * c - a * a) / (s * s), l * v * (2 * c**4 - a**4) / (2 * c * c * s * s)


def test_find_nulling_rows_zero_the_bracket_in_ac_order():
    ranges = {"a": (3e-9, 8e-9), "c": (8e-9, 12e-9), "V": (0.1, 1.0)}
    found = find_nulling_parameters(0.01, ranges, grid_points=21)
    assert found
    rows = nulling_rows(found)
    for a, c, v, bracket, _ in rows:
        quad, lin = _bracket_terms(a, c, v)
        assert abs(quad - lin) <= 1e-12 * (abs(quad) + abs(lin))
        assert abs(bracket) <= 1e-12 * (abs(quad) + abs(lin))
        assert 0.1 <= v <= 1.0
    keys = [(a, c) for a, c, *_ in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_find_nulling_omits_roots_outside_the_voltage_range():
    ranges = {"a": (3e-9, 8e-9), "c": (8e-9, 12e-9), "V": (0.70, 0.75)}
    found = find_nulling_parameters(math.inf, ranges, grid_points=11)
    kept = {(a, c) for a, c, *_ in nulling_rows(found)}
    outside = 0
    (a_lo, a_hi), (c_lo, c_hi) = ranges["a"], ranges["c"]
    for i in range(11):
        for j in range(11):
            a = a_lo + (a_hi - a_lo) * i / 10
            c = c_lo + (c_hi - c_lo) * j / 10
            quad, lin = _bracket_terms(a, c, 1.0)
            root = lin / quad if quad else None  # nonzero root of quad V^2 - lin V
            inside = root is not None and 0.70 <= root <= 0.75
            assert ((a, c) in kept) == inside
            outside += not inside
    assert outside and kept  # the range splits the mesh


@given(
    a_lo=st.floats(2e-9, 12e-9),
    a_width=st.one_of(st.just(0.0), st.floats(0.0, 8e-9)),
    c_lo=st.floats(2e-9, 12e-9),
    c_width=st.one_of(st.just(0.0), st.floats(0.0, 8e-9)),
    v_lo=st.floats(0.0, 2.0),
    v_width=st.floats(0.0, 2.0),
    points=st.integers(1, 15),
    target=st.one_of(st.just(math.inf), st.floats(1e-6, 1.0)),
    min_dz=st.floats(0.0, 1e-8),
)
def test_mesh_search_equals_per_point_loop(
    a_lo, a_width, c_lo, c_width, v_lo, v_width, points, target, min_dz
):
    ranges = {"a": (a_lo, a_lo + a_width), "c": (c_lo, c_lo + c_width), "V": (v_lo, v_lo + v_width)}
    found = find_nulling_parameters(target, ranges, grid_points=points, min_dz=min_dz)
    rows = per_point_nulling(target, ranges, grid_points=points, min_dz=min_dz)
    assert len(found) == len(rows)
    expected = np.array(rows, dtype=np.float64).reshape(len(rows), len(NULLING_COLUMNS))
    for k, column in enumerate(nulling_columns(found)):  # bit for bit: -0.0 is not 0.0
        assert np.array_equal(column.view(np.uint64), expected[:, k].view(np.uint64))


def test_find_nulling_requires_ranges():
    with pytest.raises(ValueError):
        find_nulling_parameters(0.01, {"a": (A, A), "c": (C, C)})


# --- admissible voltage error -----------------------------------------------

def test_voltage_error_reference_band():
    bound = admissible_voltage_error(DISC, 1.0, line_width=1e4, A0_Hz=1.15e8)
    assert 1e-4 <= bound.dV <= 1e-3
    # close to the plain linear bound away from the stationary point
    linear_bound = 1e4 / (1.15e8 * abs(bound.slope))
    assert bound.dV == pytest.approx(linear_bound, rel=0.01)
    assert not bound.stationary


def test_voltage_error_zero_line_width():
    assert admissible_voltage_error(DISC, 1.0, line_width=0.0).dV == 0.0


def test_voltage_error_monotonicity():
    small = admissible_voltage_error(DISC, 1.0, line_width=1e3).dV
    large = admissible_voltage_error(DISC, 1.0, line_width=1e5).dV
    assert small < large
    # the disc slope shrinks toward the stationary point near V ~ 2
    steep = admissible_voltage_error(DISC, 0.1).dV
    flat = admissible_voltage_error(DISC, 1.5).dV
    assert steep < flat


def test_voltage_error_stationary_point_flagged():
    lin, quad = voltage_polynomial(DISC)
    v_star = -lin / (2 * quad)  # distinguished voltage: linear sensitivity vanishes
    bound = admissible_voltage_error(DISC, v_star, line_width=1e4, A0_Hz=1.15e8)
    assert bound.stationary
    quad_bound = math.sqrt(1e4 / (1.15e8 * abs(quad)))
    assert bound.dV == pytest.approx(quad_bound, rel=1e-6)
    # the stationary point buys a much larger admissible error
    assert bound.dV > 3 * admissible_voltage_error(DISC, 1.0, 1e4, 1.15e8).dV


def test_strip_zero_voltage_quadratic_bound():
    bound = admissible_voltage_error(STRIP, 0.0, line_width=1e4, A0_Hz=1.15e8)
    assert bound.stationary and bound.dV > 0


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_voltage_array_gives_each_voltage_the_bits_of_the_float_call():
    volts = [0.0, -0.0, 1e-300, 0.3, 0.6, 2.0]
    V = np.array(volts)
    err = PlacementError(dx=1.2e-9, dz=-0.7e-9)
    for mode in ("published", "recomputed"):
        rep = relative_hic_error(STRIP, V, err, mode)
        scalar = [relative_hic_error(STRIP, v, err, mode) for v in volts]
        for key in ("dz_term", "dx2_term", "dA_over_A"):
            assert all(type(getattr(r, key)) is float for r in scalar)
            assert np.array_equal(bits(getattr(rep, key)), bits([getattr(r, key) for r in scalar]))
        dz = [dz_for_target(STRIP, v, 0.01, mode) for v in volts]
        assert all(type(d) is float for d in dz) and dz[0] == math.inf
        assert np.array_equal(bits(dz_for_target(STRIP, V, 0.01, mode)), bits(dz))
    for gate, line_width in ((DISC, 1e4), (STRIP, 1e4), (DISC, 0.0)):
        bound = admissible_voltage_error(gate, V, line_width)
        scalar = [admissible_voltage_error(gate, v, line_width) for v in volts]
        assert all(type(b.dV) is float and type(b.stationary) is bool for b in scalar)
        assert np.array_equal(bits(bound.dV), bits([b.dV for b in scalar]))
        assert np.array_equal(bits(bound.slope), bits([b.slope for b in scalar]))
        assert bound.stationary.tolist() == [b.stationary for b in scalar]


def test_material_override_propagates():
    mat = MaterialParams(Delta_E=0.08 * 1.6e-19)  # doubled excitation energy
    rep = relative_hic_error(STRIP, 0.6, PlacementError(0.0, 1e-9), "recomputed", mat=mat)
    rep0 = relative_hic_error(STRIP, 0.6, PlacementError(0.0, 1e-9), "recomputed")
    assert rep.dz_term == pytest.approx(0.5 * rep0.dz_term, rel=1e-12)
