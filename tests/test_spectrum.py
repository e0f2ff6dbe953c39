import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_point_tracks, per_report_bisection

from sidonor import spectrum
from sidonor.constants import DEFAULT_CONSTANTS, linear_grid
from sidonor.spectrum import (
    SpectrumSweep,
    Track,
    adiabatic_transfer_trace,
    eigensolve_block,
    eq19_gap,
    eq19_gap_dimensionless,
    find_anticrossings,
    refine_beta_grid,
    spin_transfer_reports,
    sweep_spectrum,
)
from sidonor.spin_hamiltonian import (
    BLOCK_ORDER,
    BLOCKS,
    MU_OVER_BETA,
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


def test_sweep_matches_direct_diagonalization(reference_sweep):
    sweep = reference_sweep
    i = 200
    beta = sweep.beta_grid[i]
    p = SpinParams(0.3, 0.4, beta=beta, mu=MU_OVER_BETA * beta)
    direct = np.sort(
        np.concatenate(
            [eigensolve_block(b.matrix)[0] for b in block_decompose(build_hamiltonian(p))]
        )
    )
    from_sweep = np.sort([t.energies[i] for t in sweep.tracks])
    assert np.allclose(direct, from_sweep, atol=1e-12)


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


# --- whole-grid tracking against the per-point matching loop ---------------

def assert_same_tracks(alphas, grid, mu):
    sweep = sweep_spectrum(*alphas, grid, mu)
    reference = per_point_tracks(*alphas, grid, mu)
    assert len(sweep.tracks) == len(reference)
    for track, (block, energies, vectors) in zip(sweep.tracks, reference):
        assert track.block == block
        assert np.array_equal(track.energies, energies)
        assert np.array_equal(track.vectors, vectors)


@pytest.mark.parametrize("alphas", [(0.3, 0.4), (0.0, 0.0)], ids=["readme", "bare"])
@pytest.mark.parametrize("mu", [None, 0.02], ids=["slaved", "fixed"])
def test_tracking_equals_per_point_loop(alphas, mu):
    assert_same_tracks(alphas, spectrum.DEFAULT_BETA_GRID, mu)


def test_tracking_fallback_point_equals_per_point_loop(monkeypatch):
    # one grid step of this sweep has a row argmax that is no permutation
    calls = []
    match = spectrum._match

    def counted(*args, **kwargs):
        calls.append(args[1])
        return match(*args, **kwargs)

    monkeypatch.setattr(spectrum, "_match", counted)
    assert_same_tracks((0.01, 0.05), np.linspace(0.2, 3.0, 15), None)
    assert calls


def test_tracking_forced_fallback_equals_per_point_loop(monkeypatch):
    # every margin is below 2, so every step refines to the depth cap
    monkeypatch.setattr(spectrum, "OVERLAP_AMBIGUITY", 2.0)
    monkeypatch.setattr(spectrum, "_MAX_REFINE_DEPTH", 1)
    assert_same_tracks(REFERENCE, np.linspace(0.5, 2.5, 9), None)


def test_tracking_fallback_after_a_composed_crossing_equals_per_point_loop(monkeypatch):
    # block -1 crosses in a run of fast steps, then takes one greedy step
    # that must start from the composed track order
    alphas, mu = (0.0054950483080437275, 0.0004665505263940834), 0.0005825944132083014
    grid = np.linspace(0.812464227037491, 1.870758893347987, 52)
    calls = []
    match = spectrum._match

    def counted(system, key, b0, v0, b1, v1, depth=0):
        if depth == 0:
            calls.append((key, b0))
        return match(system, key, b0, v0, b1, v1, depth)

    monkeypatch.setattr(spectrum, "_match", counted)
    assert_same_tracks(alphas, grid, mu)
    calls.clear()  # the per-point loop matches every step
    sweep = sweep_spectrum(*alphas, grid, mu)
    columns = sweep.raw_columns[:, [t.block == -1 for t in sweep.tracks]]
    steps = [np.flatnonzero(grid == b0)[0] for key, b0 in calls if key == -1]
    assert any(np.any(columns[i] != np.arange(4)) for i in steps)


@settings(max_examples=30)
@given(
    alpha_a=st.floats(0.0, 1.0),
    alpha_b=st.floats(0.0, 1.0),
    start=st.floats(0.0, 2.5),
    width=st.floats(0.1, 3.0),
    points=st.integers(3, 60),
    mu=st.one_of(st.none(), st.floats(-0.01, 0.01)),
)
def test_tracking_property_equals_per_point_loop(alpha_a, alpha_b, start, width, points, mu):
    grid = np.linspace(start, start + width, points)
    assert_same_tracks((alpha_a, alpha_b), grid, mu)


@settings(max_examples=60)
@given(
    dim=st.integers(1, 6),
    steps=st.one_of(
        st.integers(1, 300),
        st.sampled_from([2**k + d for k in range(1, 9) for d in (-1, 0, 1)]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_compose_runs_equals_step_by_step(dim, steps, seed):
    rng = np.random.default_rng(seed)
    maps = np.argsort(rng.random((steps, dim)), axis=1)
    start = rng.permutation(dim)
    if dim > 1 and np.array_equal(start, np.arange(dim)):
        start = start[::-1].copy()  # a non-identity starting order
    cols, expected = start.tolist(), []
    for am in maps.tolist():
        cols = [am[c] for c in cols]
        expected.append(cols)
    assert spectrum._compose_runs(start, maps).tolist() == expected


def test_dominant_labels_are_the_per_point_argmax():
    sweep = sweep_spectrum(*REFERENCE, beta_grid=np.linspace(0.2, 3.0, 29))
    for track in sweep.tracks:
        labels, weights = track.dominants
        for i, v in enumerate(track.vectors):
            k = int(np.argmax(v**2))
            assert (labels[i], weights[i]) == track.dominant(i) == (track.basis[k], float(v[k] ** 2))
            assert type(labels[i]) is int and type(weights[i]) is float


def test_refinement_give_up_is_logged(monkeypatch, caplog):
    monkeypatch.setattr(spectrum, "OVERLAP_AMBIGUITY", 2.0)
    monkeypatch.setattr(spectrum, "_MAX_REFINE_DEPTH", 1)
    with caplog.at_level(logging.WARNING, logger="sidonor.spectrum"):
        sweep_spectrum(*REFERENCE, beta_grid=[0.5, 1.0, 1.5])
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    # blocks 0, 1, -1 can be ambiguous; each of 2 steps splits once into 2 halves
    assert len(messages) == 3 * 2 * 2
    assert any("block -1" in m and "beta [1.25, 1.5]" in m for m in messages)


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
    basis = BLOCKS[1]
    unit = np.eye(len(basis))
    tracks = [
        Track(block=1, basis=basis, energies=np.array(e), vectors=np.tile(unit[k], (4, 1)))
        for k, e in enumerate((gaps, [0.0] * 4))
    ]
    system = spectrum._BlockSystem(*REFERENCE, None)
    sweep = SpectrumSweep(np.array([1.0, 1.1, 1.2, 1.3]), tracks, system)
    with np.errstate(over="raise"):
        reports = find_anticrossings(sweep)
    assert [(r.kind, r.pair) for r in reports] == [("crossing", (basis[0], basis[1]))]
    assert reports[0].beta_star == pytest.approx(1.15)


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
    keys = []
    stack = sweep.system.stack
    monkeypatch.setattr(sweep.system, "stack", lambda key, betas: keys.append(key) or stack(key, betas))
    solves = []
    solve = spectrum.eigensolve_block
    monkeypatch.setattr(spectrum, "eigensolve_block", lambda h: solves.append(len(h)) or solve(h))
    reports = find_anticrossings(sweep)
    exchanges = Counter(r.block for r in reports if r.partner is not None)
    assert exchanges
    assert Counter(keys) == {key: 17 for key in exchanges}
    # one midpoint per report of the block in every call
    assert sorted(solves) == sorted(n for key, n in exchanges.items() for _ in range(17))


# --- incremental refined sweep ----------------------------------------------

def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_sweep(sweep, reference):
    assert np.array_equal(bits(sweep.beta_grid), bits(reference.beta_grid))
    assert np.array_equal(sweep.raw_columns, reference.raw_columns)
    assert len(sweep.tracks) == len(reference.tracks)
    for track, ref in zip(sweep.tracks, reference.tracks):
        assert (track.block, track.basis) == (ref.block, ref.basis)
        assert np.array_equal(bits(track.energies), bits(ref.energies))
        assert np.array_equal(bits(track.vectors), bits(ref.vectors))
        assert track.dominants == ref.dominants


@pytest.mark.parametrize(
    "alphas, mu", [(REFERENCE, None), ((0.06, 0.06), None), ((0.0, 0.0), 0.0)],
    ids=["readme", "equal-couplings", "bare"],
)
def test_refine_equals_sweep_of_refined_grid(alphas, mu):
    sweep = sweep_spectrum(*alphas, mu=mu)
    centers = [r.beta_star for r in find_anticrossings(sweep)]
    assert centers
    refined = sweep.refine(centers)
    assert refined.beta_grid.size > sweep.beta_grid.size
    # raw_columns are compared too, so a refined sweep can be refined again
    assert_same_sweep(refined, sweep_spectrum(*alphas, refine_beta_grid(sweep.beta_grid, centers), mu))
    if alphas == (0.0, 0.0):  # crossing tracks: the column order is no identity to recover
        assert np.any(sweep.raw_columns != sweep.raw_columns[0])


def test_refine_solves_only_the_new_points(monkeypatch):
    sweep = sweep_spectrum(*REFERENCE)
    centers = [r.beta_star for r in find_anticrossings(sweep)]
    grid = refine_beta_grid(sweep.beta_grid, centers)
    new = grid[~np.isin(grid, sweep.beta_grid)]
    calls = []
    stack = sweep.system.stack
    monkeypatch.setattr(
        sweep.system, "stack", lambda key, betas: calls.append((key, np.asarray(betas))) or stack(key, betas)
    )
    solves = []
    solve = spectrum.eigensolve_block
    monkeypatch.setattr(spectrum, "eigensolve_block", lambda h: solves.append(len(h)) or solve(h))
    sweep.refine(centers)
    assert [key for key, _ in calls] == list(BLOCK_ORDER)
    for _, betas in calls:
        assert np.array_equal(bits(betas), bits(new))
    assert solves == [new.size] * len(BLOCK_ORDER)


def test_refine_without_new_points_is_the_sweep():
    sweep = sweep_spectrum(*REFERENCE)
    assert sweep.refine([]) is sweep
    assert sweep.refine([10.0]) is sweep  # outside the grid


def test_refine_needs_the_raw_column_order(reference_sweep):
    bare = SpectrumSweep(reference_sweep.beta_grid, reference_sweep.tracks, reference_sweep.system)
    with pytest.raises(ValueError):
        bare.refine([1.0])


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
    # at alpha_a = alpha_b the a<->b symmetry ties |8> and |12> exactly, so no
    # single exit label dominates; the track still abandons its |14>/|15> character
    sweep = sweep_spectrum(0.1, 0.1)
    low = min(
        (t for t in sweep.tracks if t.block == -1), key=lambda t: t.energies[-1]
    )
    n = sweep.beta_grid.size
    w_hi = low.vectors[n - 1] ** 2
    w_lo = low.vectors[0] ** 2
    lab = {s: low.basis.index(s) for s in (8, 12, 14, 15)}
    assert w_hi[lab[14]] + w_hi[lab[15]] > 0.99
    assert w_lo[lab[8]] + w_lo[lab[12]] > 0.98
    assert abs(w_lo[lab[8]] - w_lo[lab[12]]) < 1e-6
    assert w_lo[lab[15]] < 0.05


# --- strong-field gap formula -----------------------------------------------

def test_eq19_matches_dimensionless_times_exchange():
    B, J = 2.0, 7.416e-24
    beta = 2 * DEFAULT_CONSTANTS.mu_B * B / J
    alpha = 0.05
    gap, nu = eq19_gap(B, J, alpha * J)
    assert gap == pytest.approx(eq19_gap_dimensionless(alpha, beta) * J, rel=1e-12)
    assert nu == pytest.approx(gap / DEFAULT_CONSTANTS.h, rel=1e-14)


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


def test_eq19_trivial_cases():
    assert eq19_gap(B=1.0, J=0.0, A=1e-25) == (0.0, 0.0)
    assert eq19_gap(B=1.0, J=1e-24, A=0.0) == (0.0, 0.0)


def test_eq19_domain_errors():
    zeeman = 2 * DEFAULT_CONSTANTS.mu_B  # at B = 1 T
    with pytest.raises(ValueError):
        eq19_gap(B=1.0, J=zeeman, A=1e-26)  # pole region
    with pytest.raises(ValueError):
        eq19_gap(B=1.0, J=zeeman / 2.0, A=1e-26)  # beta = 2 < validity window
    with pytest.raises(ValueError):
        eq19_gap(B=-1.0, J=1e-25, A=1e-26)
    with pytest.raises(ValueError):
        eq19_gap(B=1.0, J=-1e-25, A=1e-26)
