import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import eig_bisect

from sidonor.spectrum import (
    ConvergenceError,
    adiabatic_transfer_trace,
    eigensolve_block,
    sweep_spectrum,
)
from sidonor.spin_hamiltonian import (
    BASIS,
    MU_OVER_BETA,
    SpinParams,
    block_decompose,
    build_hamiltonian,
)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def random_stack(rng, count, n):
    a = rng.standard_normal((count, n, n))
    return a + np.swapaxes(a, -1, -2)


# --- oracles ------------------------------------------------------------------

def test_one_by_one():
    w, v = eigensolve_block(np.array([[3.25]]))
    assert w[0] == 3.25 and v[0, 0] == 1.0


def test_two_by_two_coupling():
    g = 0.7
    w, v = eigensolve_block(np.array([[0.0, g], [g, 0.0]]))
    assert np.allclose(w, [-g, g], atol=1e-15)
    assert np.allclose(np.abs(v), np.full((2, 2), np.sqrt(0.5)), atol=1e-14)


def test_six_by_six_spin_block_vs_bisection_oracle():
    p = SpinParams(0.3, 0.4, beta=1.0, mu=MU_OVER_BETA * 1.0)
    block = next(b for b in block_decompose(build_hamiltonian(p)) if b.m_plus_M == 0)
    w, v = eigensolve_block(block.matrix)
    ref = eig_bisect(block.matrix)
    assert np.allclose(w, ref, atol=1e-10)
    # eigenpair residual and orthonormality
    scale = np.linalg.norm(block.matrix)
    for j in range(6):
        assert np.linalg.norm(block.matrix @ v[:, j] - w[j] * v[:, j]) <= 1e-10 * scale
    assert np.max(np.abs(v.T @ v - np.eye(6))) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_random_matrices_against_oracles(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = random_symmetric(rng, n)
        w, v = eigensolve_block(a)
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-12 * max(1, np.linalg.norm(a)))
        assert np.allclose(w, eig_bisect(a), atol=1e-10 * max(1, np.linalg.norm(a)))
        assert np.all(np.diff(w) >= -1e-14)
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
        recon = v @ np.diag(w) @ v.T
        assert np.allclose(recon, a, atol=1e-12 * max(1, np.linalg.norm(a)))


def test_zero_and_diagonal_matrices():
    w, v = eigensolve_block(np.zeros((4, 4)))
    assert np.array_equal(w, np.zeros(4)) and np.array_equal(v, np.eye(4))
    d = np.diag([3.0, -1.0, 2.0, 0.5])
    w, v = eigensolve_block(d)
    assert np.array_equal(w, np.array([-1.0, 0.5, 2.0, 3.0]))
    # the closed-form 2 x 2 path gives LAPACK's exact unit vectors
    for p, q in ((1.0, 2.0), (2.0, -1.0), (0.5, 0.5), (0.0, 0.0), (3.0, 3.0), (-2.5, -2.5)):
        d = np.diag([p, q])
        w, v = eigensolve_block(d)
        w_ref, v_ref = np.linalg.eigh(d)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        assert np.array_equal(np.signbit(v), np.signbit(v_ref))  # +0.0 off the diagonal


def test_determinism():
    rng = np.random.default_rng(23)
    a = random_symmetric(rng, 6)
    w1, v1 = eigensolve_block(a)
    w2, v2 = eigensolve_block(a)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


# --- stacks -------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_stacked_call_equals_per_matrix_calls(n):
    rng = np.random.default_rng(40 + n)
    stack = random_stack(rng, 50, n)
    w, v = eigensolve_block(stack)
    assert w.shape == (50, n) and v.shape == (50, n, n)
    for i in range(50):
        wi, vi = eigensolve_block(stack[i])
        assert np.array_equal(w[i], wi)
        assert np.array_equal(v[i], vi)


def test_four_dimensional_stack_keeps_its_shape_and_order():
    rng = np.random.default_rng(12)
    w, v = eigensolve_block(random_stack(rng, 20, 6).reshape(4, 5, 6, 6))
    assert w.shape == (4, 5, 6) and v.shape == (4, 5, 6, 6)
    assert np.all(np.diff(w, axis=-1) >= 0.0)


ENTRY = st.floats(-1e3, 1e3)


@settings(max_examples=40)
@given(
    entries=st.lists(
        st.tuples(
            ENTRY,
            st.one_of(st.just(0.0), st.sampled_from([5e-324, -1e-310]), ENTRY),
            st.one_of(st.none(), ENTRY),  # None: q = p
        ),
        min_size=1,
        max_size=6,
    )
)
@example(entries=[
    (0.5, 0.0, -2.0),           # b = 0, p > q
    (1.0, 0.0, None),           # b = 0, p = q
    (1.0, 0.75, None),          # p = q
    (1.0, 5e-324, 2.0),         # subnormal b
    (-1.0, -1e-310, None),      # subnormal b, p = q
    (1.0, 1e3, 1.0 + 2**-52),   # |b| >> |p - q|
    (-3.0, -7e2, -3.0 - 1e-12),
    (5e-324, 1.0, None),        # subnormal diagonal: a tiny pivot in eig_bisect
])
def test_two_by_two_stacks_against_bisection_oracle(entries):
    a = np.array([[[p, b], [b, p if q is None else q]] for p, b, q in entries])
    w, v = eigensolve_block(a)
    for m, wi, vi in zip(a, w, v):
        scale = max(1.0, float(np.max(np.abs(m))))
        assert np.max(np.abs(wi - eig_bisect(m))) <= 1e-12 * scale
        assert wi[0] <= wi[1]
        assert np.max(np.abs(vi.T @ vi - np.eye(2))) <= 1e-15
        assert np.max(np.abs(m @ vi - vi * wi)) <= 2e-15 * scale


# --- input checks ---------------------------------------------------------------

def test_input_validation():
    with pytest.raises(ValueError):
        eigensolve_block(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigensolve_block(np.ones(3))
    with pytest.raises(ValueError):
        eigensolve_block(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
    stack = np.zeros((3, 2, 2))
    stack[2, 0, 1] = 1e-300  # one asymmetric matrix spoils the stack
    with pytest.raises(ValueError):
        eigensolve_block(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    a = np.eye(3)
    a[1, 1] = bad
    with pytest.raises(ConvergenceError):
        eigensolve_block(a)
    with pytest.raises(ConvergenceError):
        eigensolve_block(np.stack([np.eye(3), a]))


def test_overflowing_eigenvalues_raise():
    # finite entries whose spectrum overflows double precision
    a = np.full((2, 2), 1.7e308)
    with pytest.raises(ConvergenceError):
        eigensolve_block(a)
    # finite eigenvalues whose spread overflows
    with pytest.raises(ConvergenceError):
        eigensolve_block(np.diag([1e308, -1e308]))


# --- exact degeneracy at alpha = 0 -----------------------------------------------

def test_uncoupled_slaved_sweep_keeps_tracks_pure():
    """Without hyperfine coupling each nuclear configuration is conserved.

    Every block then has exactly degenerate levels (the two nuclear
    configurations with m_a + m_b = 0 share every electron level).  At
    alpha_a = alpha_b = 0 each block is solved in its even and odd exchange
    sectors, whose pair states hold a nuclear configuration together with its
    swapped one.  Each track must keep all its weight on one swap orbit
    {(m_a, m_b), (m_b, m_a)} of nuclear configurations, in one parity, at
    every beta, and keep its dominant character from end to end.
    """
    sweep = sweep_spectrum(0.0, 0.0)
    for track in sweep.tracks:
        assert track.parity in (1, -1)
        orbits = [frozenset({(s.ma, s.mb), (s.mb, s.ma)}) for s in (BASIS[i - 1] for i in track.basis)]
        weights = track.vectors**2
        per_orbit = np.stack(
            [weights[:, [o == orbit for o in orbits]].sum(axis=1) for orbit in set(orbits)], axis=1
        )
        assert np.all(np.abs(per_orbit.max(axis=1) - 1.0) <= 1e-12)
        # the same orbit along the whole track
        assert np.unique(per_orbit.argmax(axis=1)).size == 1
    for trace in adiabatic_transfer_trace(sweep):
        assert trace.enter_label == trace.exit_label
