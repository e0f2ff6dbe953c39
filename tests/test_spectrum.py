import json
import logging
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    odd_minus_one_anticrossing,
    per_report_bisection,
    rank_of,
    sector_of,
    sector_rotation,
    two_level_eigenvalues,
    weak_coupling_exchanges,
)

from sidonor import spectrum
from sidonor.constants import linear_grid
from sidonor.spectrum import (
    SpectrumSweep,
    Track,
    adiabatic_transfer_trace,
    eigensolve_block,
    eq19_gap_dimensionless,
    find_anticrossings,
    spin_transfer_reports,
    sweep_spectrum,
)
from sidonor.spin_hamiltonian import (
    BASIS,
    BLOCK_ORDER,
    BLOCKS,
    EXCHANGE_SECTORS,
    MU_OVER_BETA,
    SWAP,
    SWAP_ROUNDING,
    WHOLE_BLOCKS,
    Sector,
    SectorHamiltonian,
    SpinParams,
    block_decompose,
    build_hamiltonian,
)

REFERENCE = (0.3, 0.4)  # asymmetric couplings (alpha_a, alpha_b) of the worked case


@pytest.fixture(scope="module")
def reference_sweep():
    return sweep_spectrum(*REFERENCE)


# --- sweep basics -----------------------------------------------------------

def test_sweep_track_layout(reference_sweep):
    sweep = reference_sweep
    assert len(sweep.tracks) == 16
    sizes = {}
    for t in sweep.tracks:
        sizes[t.block] = sizes.get(t.block, 0) + 1
        assert t.basis == BLOCKS[t.block]
        assert t.energies.shape == sweep.beta_grid.shape
    assert sizes == {0: 6, 1: 4, -1: 4, 2: 1, -2: 1}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def solver_columns(sweep):
    """(n_beta, n_tracks): the eigensolver's column, within its sector, of each track at each point.

    Each track's sector is solved over the whole grid once; at each point the
    track's column is the one column whose vector has the track's bits.
    """
    columns = []
    for track in sweep.tracks:
        _, v = eigensolve_block(sweep.system.stack(sector_of(sweep.system, track), sweep.beta_grid))
        same = np.all(bits(v) == bits(track.vectors)[:, :, None], axis=1)  # (n_beta, column)
        assert np.all(same.sum(axis=1) == 1)
        columns.append(np.argmax(same, axis=1))
    return np.column_stack(columns)


def test_sweep_matches_direct_diagonalization(reference_sweep):
    # the sweep solves build_hamiltonian's blocks, and a stacked solve gives the
    # bits of a one-matrix solve: every eigenpair is the direct one, bit for bit
    sweep = reference_sweep
    columns = solver_columns(sweep)
    for i in range(0, sweep.beta_grid.size, 50):
        beta = sweep.beta_grid[i]
        p = SpinParams(0.3, 0.4, beta=beta, mu=MU_OVER_BETA * beta)
        for block in block_decompose(build_hamiltonian(p)):
            w, v = eigensolve_block(block.matrix)
            for t, track in enumerate(sweep.tracks):
                if track.block == block.m_plus_M:
                    col = columns[i, t]
                    assert bits(track.energies[i]) == bits(w[col])
                    assert np.array_equal(bits(track.vectors[i]), bits(v[:, col]))


@settings(max_examples=100)
@given(
    alpha_a=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    alpha_b=st.one_of(st.none(), st.just(0.0), st.floats(-2.0, 2.0)),  # None: alpha_b = alpha_a
    betas=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
    mu=st.one_of(st.none(), st.just(0.0), st.floats(-10.0, 10.0)),
)
@example(alpha_a=0.3, alpha_b=0.30000000000000004, betas=[1.0], mu=None)  # one ulp apart: sectors
def test_stack_is_the_block_of_build_hamiltonian(alpha_a, alpha_b, betas, mu):
    # the rule's path: exchange sectors where every even-odd entry of the field-free blocks is
    # within SWAP_ROUNDING ulps of its block's largest entry, give or take the rounding of a
    # product with sector_rotation, else whole blocks; either split into components
    alpha_b = alpha_a if alpha_b is None else alpha_b
    system = SectorHamiltonian(alpha_a, alpha_b, mu)
    sectors = merged_components(system)
    split = sectors == EXCHANGE_SECTORS
    assert split or sectors == {key: (WHOLE_BLOCKS[key],) for key in BLOCK_ORDER}
    ulps = max(map(even_odd_ulps, block_decompose(build_hamiltonian(SpinParams(alpha_a, alpha_b, 0.0, 0.0)))))
    assert ulps <= SWAP_ROUNDING + 8 if split else ulps > SWAP_ROUNDING - 8
    # whole-block components are their part of build_hamiltonian's blocks bit for bit,
    # sector components R^T H R to rounding
    stacks = {s: system.stack(s, betas) for key in BLOCK_ORDER for s in system.sectors[key]}
    for i, beta in enumerate(betas):
        p = SpinParams(alpha_a, alpha_b, beta, MU_OVER_BETA * beta if mu is None else mu)
        for block in block_decompose(build_hamiltonian(p)):
            for sector in system.sectors[block.m_plus_M]:
                h = stacks[sector][i]
                if not split:
                    assert sector.parity == 0
                    idx = [block.indices.index(label) for label in sector.labels]
                    assert np.array_equal(bits(h), bits(block.matrix[np.ix_(idx, idx)]))
                else:
                    rotation = sector_rotation(sector)
                    tol = 8 * np.finfo(float).eps * np.max(np.abs(block.matrix))
                    assert np.max(np.abs(h - rotation.T @ block.matrix @ rotation)) <= tol


def merged_components(system):
    """``system.sectors`` with each sector's components merged back into the sector."""
    return {
        key: tuple(
            Sector(key, parity, tuple(sorted(state for c in components if c.parity == parity for state in c.states)))
            for parity in dict.fromkeys(c.parity for c in components)
        )
        for key, components in system.sectors.items()
    }


def even_odd_ulps(block):
    """The largest even-odd entry of a block, in units of eps times its largest entry."""
    sectors = EXCHANGE_SECTORS[block.m_plus_M]
    if len(sectors) < 2:
        return 0.0
    cross = sector_rotation(sectors[0]).T @ block.matrix @ sector_rotation(sectors[1])
    return np.max(np.abs(cross)) / (np.finfo(float).eps * np.max(np.abs(block.matrix)))


def test_field_parts_are_the_zeeman_blocks():
    # Cb = S_az + S_bz and Cm = -(I_az + I_bz), exactly, whatever the couplings, in whole
    # blocks and in exchange sectors: both are diagonal and swap-invariant
    for alpha_a, alpha_b in (REFERENCE, (0.3, 0.3), (0.0, 0.0)):
        system = SectorHamiltonian(alpha_a, alpha_b, None)
        for key in BLOCK_ORDER:
            for sector in system.sectors[key]:
                _, cb, cm = system._parts[sector]
                states = [BASIS[i - 1] for i in sector.labels]
                assert np.array_equal(cb, np.diag([s.M for s in states]))
                assert np.array_equal(cm, np.diag([-(s.ma + s.mb) for s in states]))


def test_sweep_single_point_grid():
    sweep = sweep_spectrum(*REFERENCE, beta_grid=[1.0])
    assert sweep.beta_grid.size == 1
    assert len(sweep.tracks) == 16
    assert find_anticrossings(sweep) == []  # nothing to exchange on one point


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        sweep_spectrum(*REFERENCE, beta_grid=[2.0, 1.0])
    with pytest.raises(ValueError):
        sweep_spectrum(*REFERENCE, beta_grid=[])


def test_sweep_deterministic(reference_sweep):
    again = sweep_spectrum(*REFERENCE)
    for t1, t2 in zip(reference_sweep.tracks, again.tracks):
        assert np.array_equal(t1.energies, t2.energies)
        assert np.array_equal(t1.vectors, t2.vectors)


def test_mu_modes_differ():
    slaved = sweep_spectrum(*REFERENCE, beta_grid=[2.0])
    fixed = sweep_spectrum(*REFERENCE, beta_grid=[2.0], mu=0.05)
    e_slaved = sorted(t.energies[0] for t in slaved.tracks)
    e_fixed = sorted(t.energies[0] for t in fixed.tracks)
    assert not np.allclose(e_slaved, e_fixed, atol=1e-6)


def test_dominant_labels_are_the_per_point_argmax():
    sweep = sweep_spectrum(*REFERENCE, beta_grid=np.linspace(0.2, 3.0, 29))
    for track in sweep.tracks:
        labels, weights = track.dominants
        assert (labels.dtype, weights.dtype) == (np.int64, np.float64)  # table columns as they stand
        for i, v in enumerate(track.vectors):
            k = int(np.argmax(v**2))
            assert (labels[i], weights[i]) == track.dominant(i) == (track.basis[k], float(v[k] ** 2))
            assert [type(x) for x in track.dominant(i)] == [int, float]


def test_no_give_up_warning_by_default(caplog):
    with caplog.at_level(logging.WARNING, logger="sidonor.spectrum"):
        sweep_spectrum(*REFERENCE, beta_grid=np.linspace(0.2, 3.0, 57))
    assert not caplog.records


# --- uncoupled limit: crossings, no anticrossings ---------------------------

@pytest.fixture(scope="module")
def bare_sweep():
    return sweep_spectrum(0.0, 0.0, mu=0.0)


def test_bare_crossing_at_unit_beta(bare_sweep):
    reports = find_anticrossings(bare_sweep)
    assert all(r.kind == "crossing" for r in reports)
    step = bare_sweep.beta_grid[1] - bare_sweep.beta_grid[0]
    near_one = [r for r in reports if abs(r.beta_star - 1.0) <= step]
    assert near_one
    assert all(r.min_gap == 0.0 for r in near_one)


def test_bare_tracks_keep_their_character(bare_sweep):
    for t in adiabatic_transfer_trace(bare_sweep):
        assert t.enter_label == t.exit_label


def test_bare_lowest_two_levels_touch_at_one(bare_sweep):
    energies = bare_sweep.energy_matrix()
    gaps = np.sort(energies, axis=1)
    gap = gaps[:, 4] - gaps[:, 3]
    i = int(np.argmin(gap))
    step = bare_sweep.beta_grid[1] - bare_sweep.beta_grid[0]
    assert abs(bare_sweep.beta_grid[i] - 1.0) <= step


# --- strong-field ordering --------------------------------------------------

def test_triplet_quartet_below_singlet_quartet_at_strong_field():
    sweep = sweep_spectrum(0.1, 0.1, beta_grid=[3.0])
    w = np.sort([t.energies[0] for t in sweep.tracks])
    assert np.all(np.abs(w[:4] - (-3.0 + 0.25)) < 0.2)   # electron triplet M = -1
    assert np.all(np.abs(w[4:8] - (-0.75)) < 0.1)        # electron singlet


# --- anticrossing detection -------------------------------------------------

def test_reference_transfer_pairs(reference_sweep):
    transfers = spin_transfer_reports(find_anticrossings(reference_sweep))
    pairs = {r.pair: r for r in transfers}
    assert set(pairs) == {(15, 12), (13, 10)}
    for r in pairs.values():
        assert r.kind == "anticrossing"
        assert 0.8 < r.beta_star < 1.2
        assert r.min_gap > 0.0
        assert r.enter_weight > 0.9


def test_reference_anticrossing_locations(reference_sweep):
    transfers = {r.pair: r for r in spin_transfer_reports(find_anticrossings(reference_sweep))}
    assert transfers[(15, 12)].beta_star == pytest.approx(1.049, abs=0.02)
    assert transfers[(13, 10)].beta_star == pytest.approx(0.864, abs=0.02)


def test_gap_grows_with_coupling_scale():
    # slightly asymmetric couplings keep the exchange labels well defined
    gaps = []
    for alpha in (0.05, 0.1, 0.2):
        sweep = sweep_spectrum(0.75 * alpha, alpha)
        transfers = {r.pair: r for r in spin_transfer_reports(find_anticrossings(sweep))}
        gaps.append(transfers[(15, 12)].min_gap)
    assert gaps[0] < gaps[1] < gaps[2]


@pytest.mark.parametrize(
    "gaps",
    [[1.0, 1e-200, -1e-200, -1.0], [1e300, 1e300, -1e300, -1e300]],
    ids=["product-underflows", "product-overflows"],
)
def test_crossing_sign_change_is_found_without_a_gap_product(gaps):
    # the product of the middle gaps is -0.0 (no sign change) or overflows
    with np.errstate(over="raise"):
        reports = find_anticrossings(two_track_sweep(gaps))
    assert [(r.kind, r.pair) for r in reports] == [("crossing", (BLOCKS[1][0], BLOCKS[1][1]))]
    assert reports[0].beta_star == pytest.approx(1.15)


def two_track_sweep(gaps):
    """A sweep on 1.0, 1.1, 1.2, 1.3 whose only tracks differ by ``gaps``.

    The two tracks are one-level components of block 1, which only the
    crossing scan compares.
    """
    basis = BLOCKS[1]
    tracks = [
        Track(block=1, basis=(basis[k],), energies=np.array(e), vectors=np.ones((4, 1)))
        for k, e in enumerate((gaps, [0.0] * 4))
    ]
    return SpectrumSweep(np.array([1.0, 1.1, 1.2, 1.3]), tracks, SectorHamiltonian(*REFERENCE, None))


@pytest.mark.parametrize(
    "gaps, beta_stars",
    [
        ([1.0, 0.0, 1.0, 2.0], []),
        ([0.0, 1.0, 2.0, 3.0], []),
        ([-5.55e-17, 3.3e-4, 6.6e-4, 1e-3], []),
        ([3.0, 1e-12, 0.0, -1.0], [1.225]),
        ([1e-12, -1e-12, 1e-12, -1e-12], []),
    ],
    ids=["touch-and-part", "tie-at-the-first-point", "rounding-size-flip", "across-a-tie-run", "all-ties"],
)
def test_a_crossing_is_a_sign_change_between_untied_points(gaps, beta_stars):
    # a gap within CROSSING_TOL is a tie; the crossing across the tie run is
    # interpolated between its untied ends, 3 and -1
    reports = find_anticrossings(two_track_sweep(gaps))
    assert [r.kind for r in reports] == ["crossing"] * len(beta_stars)
    assert [r.beta_star for r in reports] == pytest.approx(beta_stars)


def test_levels_that_touch_at_the_first_point_and_part_do_not_cross():
    # at (0, 0.125) from beta = 0, block 0 and block +-1 levels of different
    # components are equal to rounding at the first point and then part; only
    # the block -1 levels entering as 12 and 14 change sign, near beta = 1
    sweep = sweep_spectrum(0.0, 0.125, np.linspace(0.0, 1.0, 2001))
    crossings = [r for r in find_anticrossings(sweep) if r.kind == "crossing"]
    assert [(r.block, r.pair) for r in crossings] == [(-1, (12, 14))]
    assert crossings[0].beta_star == pytest.approx(0.99938, abs=1e-4)


FINE_DEFAULT_GRID = np.array(linear_grid(*spectrum.DEFAULT_BETA_RANGE[:2], 4001))
COUPLINGS = st.one_of(st.just(0.0), st.floats(-4.0, 0.0).map(lambda u: 10.0**u), st.floats(-0.6, 0.6))


@settings(max_examples=6)
@given(
    alpha_a=COUPLINGS,
    alpha_b=st.one_of(st.none(), COUPLINGS),  # None: alpha_b = alpha_a
    mu=st.sampled_from([None, 0.0, 0.05]),
)
def test_reports_do_not_depend_on_the_grid(alpha_a, alpha_b, mu):
    # the default grid and ten times as many points over the same range give the
    # same reports, each beta_star within a default grid step.  The line
    # alpha_b = -alpha_a is left out: there two levels of one component meet
    # exactly, and which one a rank holds depends on the eigensolver
    alpha_b = alpha_a if alpha_b is None else alpha_b
    assume(alpha_a == 0.0 or alpha_b != -alpha_a)
    coarse = find_anticrossings(sweep_spectrum(alpha_a, alpha_b, mu=mu))
    fine = find_anticrossings(sweep_spectrum(alpha_a, alpha_b, FINE_DEFAULT_GRID, mu))
    assert Counter((r.block, r.pair, r.kind) for r in coarse) == Counter((r.block, r.pair, r.kind) for r in fine)
    step = spectrum.DEFAULT_BETA_GRID[1] - spectrum.DEFAULT_BETA_GRID[0]
    for r in coarse:
        assert any(
            (f.block, f.pair, f.kind) == (r.block, r.pair, r.kind) and abs(f.beta_star - r.beta_star) <= step
            for f in fine
        )


def test_reports_sorted_deterministically(reference_sweep):
    reports = find_anticrossings(reference_sweep)
    keys = [(r.beta_star, r.block, r.pair) for r in reports]
    assert keys == sorted(keys)


# --- lockstep bisection against the per-report loop ------------------------

FINE_GRID = np.array(linear_grid(0.2, 3.0, 2001))  # the anticross-fine grid


def assert_same_reports(sweep):
    reports = find_anticrossings(sweep)
    reference = per_report_bisection(sweep)
    assert reports == reference
    assert repr(reports) == repr(reference)  # also tells -0.0 and scalar types apart
    return reports


@pytest.mark.parametrize(
    "alphas, grid, mu",
    [(REFERENCE, None, None), ((0.0, 0.0), None, 0.0), ((0.06, 0.06), FINE_GRID, None)],
    ids=["readme", "bare", "equal-couplings-fine"],
)
def test_lockstep_bisection_equals_per_report_loop(alphas, grid, mu):
    reports = assert_same_reports(sweep_spectrum(*alphas, grid, mu))
    if alphas != (0.0, 0.0):
        assert any(r.partner is not None for r in reports)  # bisected exchanges


@settings(max_examples=25)
@given(
    alpha_a=st.floats(0.0, 1.0),
    alpha_b=st.floats(0.0, 1.0),
    start=st.floats(0.0, 2.5),
    width=st.floats(0.1, 3.0),
    points=st.integers(2, 120),
    mu=st.one_of(st.none(), st.floats(-0.01, 0.01)),
)
def test_lockstep_bisection_property_equals_per_report_loop(alpha_a, alpha_b, start, width, points, mu):
    assert_same_reports(sweep_spectrum(alpha_a, alpha_b, np.linspace(start, start + width, points), mu))


@pytest.mark.parametrize(
    "alphas, grid", [(REFERENCE, None), ((0.06, 0.06), FINE_GRID)], ids=["readme", "equal-couplings-fine"]
)
def test_bisection_makes_17_stacked_calls_per_exchanging_block(monkeypatch, alphas, grid):
    sweep = sweep_spectrum(*alphas, grid)
    sectors = []
    stack = sweep.system.stack
    monkeypatch.setattr(
        sweep.system, "stack", lambda sector, betas: sectors.append(sector) or stack(sector, betas)
    )
    solves = []
    solve = spectrum.eigensolve_block
    monkeypatch.setattr(spectrum, "eigensolve_block", lambda h: solves.append(len(h)) or solve(h))
    reports = find_anticrossings(sweep)
    # sector labels are distinct within a block, so the entering label names the sector
    exchanges = Counter(
        next(s for s in sweep.system.sectors[r.block] if r.pair[0] in s.labels)
        for r in reports
        if r.partner is not None
    )
    assert exchanges
    assert Counter(sectors) == {sector: 17 for sector in exchanges}
    # one midpoint per report of the sector in every call
    assert sorted(solves) == sorted(n for n in exchanges.values() for _ in range(17))


# --- tracks are the eigenvalue ranks of coupling-connected components -------

def test_a_grid_that_jumps_a_narrow_anticrossing_reports_what_a_fine_grid_does():
    # at (0.001, 0.002) five anticrossings of gap 4e-4 to 4e-2 lie within a few
    # default grid steps of beta = 1; the default grid reports them as 40,001 points do
    coarse = find_anticrossings(sweep_spectrum(0.001, 0.002))
    fine = find_anticrossings(sweep_spectrum(0.001, 0.002, linear_grid(0.2, 3.0, 40001)))
    assert [(r.block, r.pair, r.kind) for r in coarse] == [(r.block, r.pair, r.kind) for r in fine]
    assert len(coarse) == 5 and all(r.kind == "anticrossing" for r in coarse)
    bracket = (spectrum.DEFAULT_BETA_GRID[1] - spectrum.DEFAULT_BETA_GRID[0]) / 2**16
    for r, f in zip(coarse, fine):
        assert abs(r.beta_star - f.beta_star) <= bracket
        assert r.min_gap == pytest.approx(f.min_gap, rel=2e-4)


def test_gaps_at_a_zero_coupling_are_those_of_the_mirror_block():
    # at alpha_a = 0 nucleus a is a spectator: block 0 with m_a = +1/2 and block -1
    # with m_a = -1/2 hold the same problem of the electrons and nucleus b, shifted
    # by mu, so each exchange has the gap of its mirror; a decoupled level that
    # crosses the track exactly is no partner
    sweep = sweep_spectrum(0.0, 0.3)
    reports = {(r.block, r.pair): r for r in find_anticrossings(sweep)}
    assert sorted((key, r.kind) for key, r in reports.items()) == [
        ((-1, (12, 14)), "crossing"),
        ((-1, (12, 15)), "anticrossing"),
        ((-1, (15, 12)), "anticrossing"),
        ((0, (10, 13)), "anticrossing"),
        ((0, (13, 10)), "anticrossing"),
    ]
    for zero, minus_one in (((13, 10), (15, 12)), ((10, 13), (12, 15))):
        r, mirror = reports[0, zero], reports[-1, minus_one]
        assert r.beta_star == mirror.beta_star
        assert abs(r.min_gap - mirror.min_gap) <= 1e-12
        assert r.min_gap > 0.2


def test_an_exchange_narrower_than_the_final_bracket_is_a_crossing():
    # at (alpha_a, 0.3) the block -1 levels entering as 14 and 15 anticross with a gap
    # linear in alpha_a; at 1e-20 the final bisection bracket (a grid step / 2**16)
    # cannot tell the gap from zero, at 1e-6 and 1e-4 it can
    def exchange(alpha_a):
        (r,) = [r for r in find_anticrossings(sweep_spectrum(alpha_a, 0.3)) if r.pair == (14, 15)]
        return r

    tiny, weak, weaker = exchange(1e-20), exchange(1e-4), exchange(1e-6)
    assert (tiny.block, tiny.kind, tiny.partner) == (-1, "crossing", 14)
    assert 0.0 < tiny.min_gap < 1e-7
    for r in (weak, weaker):
        assert (r.block, r.kind, r.partner) == (-1, "anticrossing", 14)
    assert weaker.min_gap / 1e-6 == pytest.approx(weak.min_gap / 1e-4, rel=2e-3)


@pytest.mark.parametrize(
    "alphas, grid",
    [(REFERENCE, None), ((0.001, 0.002), None), ((0.0, 0.3), None), ((0.0633, 0.0633), FINE_GRID),
     ((0.0, 0.125), np.linspace(0.0, 1.0, 2001))],
    ids=["readme", "weak", "alpha-a-zero", "anticross-fine", "alpha-a-zero-fine"],
)
def test_the_entering_weight_of_its_rank_column_crosses_one_half_at_beta_star(alphas, grid):
    # independent of the eigensolver: np.linalg.eigh of each component's H, built from
    # build_hamiltonian and the component's states, on either side of beta_star by half
    # the final bracket; the rank-k column is the track's
    sweep = sweep_spectrum(*alphas, grid)
    half = np.max(np.diff(sweep.beta_grid)) / 2**17
    checked = 0
    for r in find_anticrossings(sweep):
        if r.kind != "anticrossing" or r.enter_weight < 0.5:
            continue  # a crossing, or an exchange located by the dominance swap
        (track,) = [
            t for t in sweep.tracks if t.block == r.block and (t.dominant(-1)[0], t.dominant(0)[0]) == r.pair
        ]
        sector, rank = sector_of(sweep.system, track), rank_of(sweep, track)
        rotation = sector_rotation(sector)
        weights = []
        for beta in (r.beta_star - half, r.beta_star + half):
            p = SpinParams(*alphas, beta, MU_OVER_BETA * beta)
            h = rotation.T @ block_decompose(build_hamiltonian(p))[BLOCK_ORDER.index(r.block)].matrix @ rotation
            weights.append(np.linalg.eigh(h)[1][sector.labels.index(r.pair[0]), rank] ** 2)
        assert weights[0] - 1e-9 <= 0.5 <= weights[1] + 1e-9
        checked += 1
    assert checked >= 2


# --- adiabatic transfer trace -----------------------------------------------

def test_reference_traces(reference_sweep):
    traces = {t.enter_label: t for t in adiabatic_transfer_trace(reference_sweep)}
    t15 = traces[15]
    assert t15.exit_label == 12
    assert t15.enter_weight > 0.9
    assert not t15.conclusive  # exit lands on a near-even singlet mixture
    t13 = traces[13]
    assert t13.exit_label == 10
    t16 = traces[16]
    assert t16.exit_label == 16 and t16.conclusive  # 1x1 block never exchanges


def test_equal_couplings_transfer_is_even_mixture():
    # at alpha_a = alpha_b the a<->b symmetry ties |8> and |12> exactly in the
    # product basis; the odd sector holds (|8> - |12>)/sqrt2, labelled 12, and
    # (|14> - |15>)/sqrt2, labelled 15, and its lower track goes 15 -> 12
    sweep = sweep_spectrum(0.1, 0.1)
    low = min(
        (t for t in sweep.tracks if t.block == -1 and t.parity == -1), key=lambda t: t.energies[-1]
    )
    assert low.basis == (12, 15)
    assert (low.dominant(-1)[0], low.dominant(0)[0]) == (15, 12)
    assert low.dominant(-1)[1] > 0.98 and low.dominant(0)[1] > 0.98


# --- exchange-symmetry sectors where the donor swap commutes with H ----------

# alpha_a = alpha_b of the anticross-fine benchmark workload, seeds 0 and 1
FINE_ALPHAS = (0.0633, 0.0583)


def label_summary(sweep):
    """The labels, kinds and count of a sweep's reports, and its trace labels.

    Not ``partner``: at a two-level anticrossing the partner level is a half
    mixture of the pair at ``beta_star`` by construction, so its dominant
    label is a tie.
    """
    reports = find_anticrossings(sweep)
    return (
        sorted((r.block, r.pair, r.kind) for r in reports),
        [(t.block, t.level, t.enter_label, t.exit_label) for t in adiabatic_transfer_trace(sweep)],
    )


@settings(max_examples=40)
@given(
    alpha_a=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    alpha_b=st.one_of(st.none(), st.just(0.0), st.floats(-2.0, 2.0)),  # None: alpha_b = alpha_a
    start=st.floats(-3.0, 3.0),
    width=st.floats(0.01, 4.0),
    points=st.integers(1, 40),
    mu=st.one_of(st.none(), st.just(0.0), st.floats(-1.0, 1.0)),
)
def test_sweep_keeps_every_level(alpha_a, alpha_b, start, width, points, mu):
    # mapped back to the product basis, each block's tracks are an orthonormal
    # eigenbasis of build_hamiltonian's block at every point, and the sorted
    # levels move between points by at most |Cb + mu' Cm|_2 dbeta (Weyl)
    alpha_b = alpha_a if alpha_b is None else alpha_b
    grid = np.linspace(start, start + width, points)
    sweep = sweep_spectrum(alpha_a, alpha_b, grid, mu)
    slope = MU_OVER_BETA if mu is None else 0.0
    for n, key in enumerate(BLOCK_ORDER):
        tracks = [t for t in sweep.tracks if t.block == key]
        assert len(tracks) == len(BLOCKS[key])
        energies = np.column_stack([t.energies for t in tracks])
        # (n_beta, block dim, tracks): each track's vector in the product basis
        vectors = np.stack(
            [t.vectors @ sector_rotation(sector_of(sweep.system, t)).T for t in tracks], axis=-1
        )
        for i, beta in enumerate(grid):
            p = SpinParams(alpha_a, alpha_b, beta, slope * beta if mu is None else mu)
            h = block_decompose(build_hamiltonian(p))[n].matrix
            tol = 1e-12 * max(1.0, float(np.max(np.abs(h))))
            assert abs(energies[i].sum() - np.trace(h)) <= tol
            assert np.max(np.abs(vectors[i].T @ vectors[i] - np.eye(len(tracks)))) <= 1e-12
            assert np.max(np.abs(vectors[i] @ np.diag(energies[i]) @ vectors[i].T - h)) <= tol
        # Cb and Cm are diagonal: the norm of the block of Cb + slope Cm is its largest |entry|
        weyl = max(abs(BASIS[i - 1].M - slope * (BASIS[i - 1].ma + BASIS[i - 1].mb)) for i in BLOCKS[key])
        steps = np.abs(np.diff(np.sort(energies, axis=1), axis=0))
        scale = max(1.0, float(np.max(np.abs(energies))))
        assert np.all(steps <= weyl * np.diff(grid)[:, None] + 1e-12 * scale)


def label_image(sweep, swapped):
    """The reports and traces of ``sweep``, with every label swapped if ``swapped``.

    On whole blocks a label is a product state, which the donor swap maps
    through SWAP; on exchange sectors it names a sector state, which the swap
    keeps.  Reports are (block, pair, kind, beta_star, min_gap, enter_weight),
    sorted; traces are (block, enter label, exit label) in level order.
    """
    relabel = SWAP.__getitem__ if swapped and sweep.tracks[0].parity == 0 else int
    reports = sorted(
        (r.block, tuple(map(relabel, r.pair)), r.kind, r.beta_star, r.min_gap, r.enter_weight)
        for r in find_anticrossings(sweep)
    )
    traces = [(t.block, relabel(t.enter_label), relabel(t.exit_label)) for t in adiabatic_transfer_trace(sweep)]
    return reports, traces


def swap_cases(n, seed=22):
    """``n`` derandomized (alpha_a, alpha_b, grid, mu) cases for the swap property.

    alpha_a is log-uniform in [1e-3, 1].  The first three cases have alpha_b
    exactly equal and one ulp up and down, the rest a relative asymmetry of
    +-10^u with u uniform in [-16, -8]; the grids have 50-200 points, and mu
    is slaved or fixed in [0, 0.05] by turns.
    """
    rng = np.random.default_rng(seed)
    for case in range(n):
        alpha_a = 10.0 ** rng.uniform(-3.0, 0.0)
        nearby = (alpha_a, np.nextafter(alpha_a, 2.0), np.nextafter(alpha_a, 0.0))
        alpha_b = nearby[case] if case < 3 else alpha_a * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -8))
        grid = np.linspace(rng.uniform(0.05, 0.9), rng.uniform(1.1, 3.5), rng.integers(50, 201))
        yield alpha_a, alpha_b, grid, None if case % 2 else rng.uniform(0.0, 0.05)


def test_swapping_the_donors_maps_every_label_through_the_swap():
    for alpha_a, alpha_b, grid, mu in swap_cases(36):
        sweep, swapped = sweep_spectrum(alpha_a, alpha_b, grid, mu), sweep_spectrum(alpha_b, alpha_a, grid, mu)
        assert sweep.system.sectors == swapped.system.sectors
        (reports, traces), (expected, expected_traces) = label_image(sweep, True), label_image(swapped, False)
        assert traces == expected_traces
        assert [r[:3] for r in reports] == [r[:3] for r in expected]
        # Both bisections start from the same grid step.  Where the entering weight is >= 0.6,
        # f crosses zero steeply, a rounding flip changes at most the last branch, and
        # beta_star moves by at most one final bracket.  A report entering near 1/2 can sit on
        # a plateau where f is zero to rounding over much of its step: there only the step is
        # shared.  min_gap moves by at most twice the fastest level slope
        # |Cb + mu' Cm| <= 1 + MU_OVER_BETA times beta_star's move.
        step = np.max(np.diff(grid))
        for (*_, beta_star, gap, weight), (*_, beta_expected, gap_expected, _) in zip(reports, expected):
            tol = step / 2**16 if weight >= 0.6 else step
            assert abs(beta_star - beta_expected) <= tol
            assert abs(gap - gap_expected) <= 2.0 * (1.0 + MU_OVER_BETA) * tol + 1e-12


@settings(max_examples=50)
@given(
    alpha=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    betas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
    mu=st.one_of(st.none(), st.just(0.0), st.floats(-1.0, 1.0)),
)
def test_two_level_sectors_match_the_closed_form(alpha, betas, mu):
    system = SectorHamiltonian(alpha, alpha, mu)
    two_level = [s for key in BLOCK_ORDER for s in system.sectors[key] if len(s.labels) == 2]
    # at alpha = 0 the block 0 even sector splits 1 + 2 + 1, and the blocks +-1 sectors 1 + 1
    expected = [(0, 1), (0, -1)] if alpha == 0.0 else [(0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert [(s.block, s.parity) for s in two_level] == expected
    for sector in two_level:
        w, _ = eigensolve_block(system.stack(sector, betas))
        rotation = sector_rotation(sector)
        for i, beta in enumerate(betas):
            p = SpinParams(alpha, alpha, beta, MU_OVER_BETA * beta if mu is None else mu)
            block = block_decompose(build_hamiltonian(p))[BLOCK_ORDER.index(sector.block)].matrix
            assert np.max(np.abs(w[i] - two_level_eigenvalues(rotation.T @ block @ rotation))) <= 1e-12
        if sector.block == 0:  # M = m = 0 in both states: no field term at all
            assert np.all(w == w[0])


@settings(max_examples=15)
@given(
    alpha=st.one_of(st.floats(0.02, 0.5), st.floats(-0.5, -0.02)),
    start=st.floats(0.2, 0.9),
    stop=st.floats(1.1, 3.0),
    points=st.integers(200, 800),
)
def test_odd_minus_one_anticrossing_is_the_closed_form(alpha, start, stop, points):
    grid = np.linspace(start, stop, points)
    beta_star, gap = odd_minus_one_anticrossing(alpha)
    reports = {
        r.pair: r
        for r in find_anticrossings(sweep_spectrum(alpha, alpha, grid))
        if r.block == -1 and r.partner is not None
    }
    half_bracket = 0.5 * np.max(np.diff(grid)) / 2**16  # 16 bisection steps
    for pair in ((15, 12), (12, 15)):
        r = reports[pair]
        assert r.kind == "anticrossing"
        assert abs(r.beta_star - beta_star) <= half_bracket
        assert abs(r.min_gap - gap) <= 1e-12


@pytest.mark.parametrize("ratio", [0.5, 0.75, 0.9, 1.5])
def test_weak_coupling_exchanges_follow_the_scaling_law(ratio):
    # H is linear in the couplings (ratio * s, s) at fixed beta, and at s = 0
    # the block -1 and block 0 levels meet at beta0: on the grid beta0 +- 40 s,
    # (beta_star - beta0) / s and min_gap / s converge at O(s) as s -> 0, to
    # the first-order 3 x 3 problem of the oracle.  Only exchanges that enter
    # with weight >= 0.6 have a half-transfer point that the law fixes.
    beta0 = 1.0 / (1.0 + MU_OVER_BETA)
    limit = weak_coupling_exchanges(ratio)
    scales = (4e-3, 4e-4, 4e-5)
    scaled = []  # {(block, pair): ((beta_star - beta0) / s, min_gap / s)} at each s
    for s in scales:
        grid = np.linspace(beta0 - 40 * s, beta0 + 40 * s, 2001)
        reports = find_anticrossings(sweep_spectrum(ratio * s, s, grid))
        scaled.append({
            (r.block, r.pair): np.array([(r.beta_star - beta0) / s, r.min_gap / s])
            for r in reports
            if r.kind == "anticrossing" and r.enter_weight >= 0.6
        })
        assert sorted((block, enter) for block, (enter, _) in scaled[-1]) == sorted(limit)
        for (block, (enter, leave)), got in scaled[-1].items():
            x_star, gap, exits = limit[block, enter]
            assert leave in exits
            # the neglected second order moves both by at most about 0.6 s here;
            # 1e-6 is the bisection bracket
            assert np.all(np.abs(got - (x_star, gap)) <= s + 1e-6)
    assert scaled[0] and scaled[0].keys() == scaled[1].keys() == scaled[2].keys()
    for key in scaled[0]:
        first, second, third = (x[key] for x in scaled)
        # each tenfold smaller s moves the values about ten times less; 1e-6 is
        # the bisection bracket (about 3e-7 in units of s)
        assert np.all(np.abs(second - first) <= scales[0])
        assert np.all(np.abs(third - second) <= 0.15 * np.abs(second - first) + 1e-6)


@pytest.mark.parametrize("alpha", [0.01, 0.05])
def test_eq19_is_the_split_of_the_lowest_even_and_odd_block_minus_one_tracks(alpha):
    # eq. 19 splits the lowest M + m = -1 levels of the two sectors, which never
    # exchange; mu = 0, since eq. 19 leaves out the nuclear Zeeman term
    betas = [5.0, 10.0, 20.0]
    sweep = sweep_spectrum(alpha, alpha, betas, mu=0.0)
    lowest = {
        parity: np.min([t.energies for t in sweep.tracks if t.block == -1 and t.parity == parity], axis=0)
        for parity in (1, -1)
    }
    closed = np.array([eq19_gap_dimensionless(alpha, beta) for beta in betas])
    rels = np.abs(lowest[1] - lowest[-1] - closed) / closed
    assert rels[0] < 2e-4
    assert np.all(rels[1:] < rels[:-1] / 3.0)  # falls about as 1/beta^2


def with_fine_window(grid):
    """A uniform ``grid`` plus points a tenth of its step apart on [0.8, 1.2], around beta = 1."""
    return np.union1d(grid, np.arange(0.8, 1.2, (grid[1] - grid[0]) / 10))


def in_basis_order(order):
    """eigensolve_block on every matrix with its basis put in ``order(n)``, vectors put back."""
    def solve(h):
        h = np.asarray(h)
        p = order(h.shape[-1])
        w, v = eigensolve_block(h[..., p[:, None], p])
        back = np.empty_like(v)
        back[..., p, :] = v
        return w, back
    return solve


@pytest.mark.parametrize("alpha", FINE_ALPHAS, ids=["seed0", "seed1"])
def test_equal_coupling_labels_do_not_depend_on_basis_order_or_grid(monkeypatch, alpha):
    sweep = sweep_spectrum(alpha, alpha, FINE_GRID)
    expected = label_summary(sweep)
    assert len(expected[0]) == 4
    assert label_summary(sweep_spectrum(alpha, alpha, with_fine_window(FINE_GRID))) == expected
    assert label_summary(sweep_spectrum(alpha, alpha, linear_grid(0.2, 3.0, 4001))) == expected
    for order in (lambda n: np.arange(n)[::-1], lambda n: np.roll(np.arange(n), 1)):
        monkeypatch.setattr(spectrum, "eigensolve_block", in_basis_order(order))
        assert label_summary(sweep_spectrum(alpha, alpha, FINE_GRID)) == expected


def _openblas_kernels_selectable():
    """numpy's BLAS is a DYNAMIC_ARCH OpenBLAS on a CPU that runs its Haswell kernels."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = next((line.split(":", 1)[1].split() for line in fh if line.startswith("flags")), [])
    except (KeyError, TypeError, OSError):
        return False
    dynamic = "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
    return dynamic and {"avx", "avx2", "fma"} <= set(flags)


@pytest.mark.skipif(
    not _openblas_kernels_selectable(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on an AVX2 CPU"
)
def test_equal_coupling_anticross_is_the_same_on_every_openblas_kernel(tmp_path):
    alpha = FINE_ALPHAS[0]
    spin = {"alpha_a": alpha, "alpha_b": alpha, "beta": {"start": 0.2, "stop": 3.0, "points": 2001}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"spin": spin}))
    src = os.path.dirname(os.path.dirname(spectrum.__file__))
    summaries = {}
    for kernel in ("Haswell", "Prescott", "Sandybridge"):
        out = tmp_path / kernel
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "sidonor.cli", "anticross", "--config", str(config), "--out-dir", str(out)],
            env=env, check=True, capture_output=True,
        )
        payload = json.loads((out / "anticrossings.json").read_text())
        summaries[kernel] = (
            sorted((r["block"], tuple(r["pair"]), r["kind"]) for r in payload["anticrossings"]),
            [(t["block"], t["level"], t["enter_label"], t["exit_label"]) for t in payload["transfer_traces"]],
        )
    assert len(summaries["Haswell"][0]) == 4
    assert summaries["Prescott"] == summaries["Haswell"] == summaries["Sandybridge"]


# --- strong-field gap formula -----------------------------------------------

def test_eq19_numeric_agreement_improves_with_field():
    alpha = 0.05
    rels = {}
    for beta in (5.0, 10.0):
        p = SpinParams(alpha, alpha, beta=beta, mu=MU_OVER_BETA * beta)
        block = next(b for b in block_decompose(build_hamiltonian(p)) if b.m_plus_M == -1)
        w, _ = eigensolve_block(block.matrix)
        closed = eq19_gap_dimensionless(alpha, beta)
        rels[beta] = abs((w[1] - w[0]) - closed) / closed
    assert rels[5.0] < 0.05
    assert rels[10.0] < rels[5.0]
