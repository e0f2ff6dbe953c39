import math
from dataclasses import astuple
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidonor.spectrum import eigensolve_block
from sidonor.spin_hamiltonian import (
    BASIS,
    BLOCK_ORDER,
    BLOCKS,
    EXCHANGE_SECTORS,
    MU_OVER_BETA,
    SWAP,
    SWAP_ROUNDING,
    WHOLE_BLOCKS,
    BlockStructureError,
    SpinParams,
    _rotate,
    block_decompose,
    build_hamiltonian,
    solver_sectors,
)


# --- independent exact construction with Fractions --------------------------

F0 = Fraction(0)
SZ = [[Fraction(1, 2), F0], [F0, Fraction(-1, 2)]]
SP = [[F0, Fraction(1)], [F0, F0]]
SM = [[F0, F0], [Fraction(1), F0]]
ID = [[Fraction(1), F0], [F0, Fraction(1)]]


def kron(a, b):
    na, nb = len(a), len(b)
    out = [[F0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def madd(*mats):
    n = len(mats[0])
    return [[sum(m[i][j] for m in mats) for j in range(n)] for i in range(n)]


def mscale(c, m):
    return [[c * x for x in row] for row in m]


def one(op, pos):
    out = [[Fraction(1)]]
    for k in range(4):
        out = kron(out, op if k == pos else ID)
    return out


def sdot(p1, p2):
    zz = matmul(one(SZ, p1), one(SZ, p2))
    pm = matmul(one(SP, p1), one(SM, p2))
    mp = matmul(one(SM, p1), one(SP, p2))
    return madd(zz, mscale(Fraction(1, 2), madd(pm, mp)))


def exact_hamiltonian(beta, alpha_a, alpha_b, mu):
    zeeman_e = madd(one(SZ, 0), one(SZ, 1))
    zeeman_n = madd(one(SZ, 2), one(SZ, 3))
    return madd(
        mscale(beta, zeeman_e),
        sdot(0, 1),
        mscale(-mu, zeeman_n),
        mscale(alpha_a, sdot(2, 0)),
        mscale(alpha_b, sdot(3, 1)),
    )


def test_matches_exact_fraction_construction():
    beta, aa, ab, mu = Fraction(3, 4), Fraction(1, 4), Fraction(3, 8), Fraction(1, 32)
    h = build_hamiltonian(SpinParams(float(aa), float(ab), beta=float(beta), mu=float(mu)))
    ref = exact_hamiltonian(beta, aa, ab, mu)
    for i in range(16):
        for j in range(16):
            assert h[i, j] == float(ref[i][j]), (i + 1, j + 1)


def test_printed_entry_lists():
    aa, ab, mu = 0.3125, 0.4375, 0.046875  # dyadic values: exact float arithmetic
    dh = build_hamiltonian(SpinParams(aa, ab, 0.0, mu)) - build_hamiltonian(
        SpinParams(0.0, 0.0, 0.0, 0.0)
    )
    sp, sm = (aa + ab) / 4, (aa - ab) / 4
    expected_diag = [
        -mu + sp, sm, -sm, mu - sp,
        -mu + sm, sp, -sp, mu - sm,
        -mu - sm, -sp, sp, mu + sm,
        -mu - sp, -sm, sm, mu + sp,
    ]
    assert [dh[i, i] for i in range(16)] == expected_diag
    for i, j in ((5, 2), (7, 4), (13, 10), (15, 12)):
        assert dh[i - 1, j - 1] == ab / 2
    for i, j in ((9, 3), (10, 4), (13, 7), (14, 8)):
        assert dh[i - 1, j - 1] == aa / 2


# --- structure and invariants -----------------------------------------------

def test_exact_symmetry():
    h = build_hamiltonian(SpinParams(0.3, 0.4, beta=1.7, mu=1e-3))
    assert np.array_equal(h, h.T)


def test_basis_indexing():
    u, d = 0.5, -0.5  # (index, Ma, Mb, ma, mb)
    assert astuple(BASIS[0]) == (1, u, u, u, u)
    assert astuple(BASIS[4]) == (5, u, d, u, u)
    assert astuple(BASIS[12]) == (13, d, d, u, u)
    assert astuple(BASIS[15]) == (16, d, d, d, d)


def test_block_index_sets():
    assert BLOCKS[0] == (4, 6, 7, 10, 11, 13)
    assert BLOCKS[1] == (2, 3, 5, 9)
    assert BLOCKS[-1] == (8, 12, 14, 15)
    assert BLOCKS[2] == (1,)
    assert BLOCKS[-2] == (16,)


def test_block_decompose_sizes_and_zero_couplings():
    h = build_hamiltonian(SpinParams(0.3, 0.4, beta=1.1, mu=1e-3))
    blocks = block_decompose(h)
    assert [len(b.indices) for b in blocks] == [6, 4, 4, 1, 1]
    assert [b.m_plus_M for b in blocks] == list(BLOCK_ORDER)


def test_block_decompose_detects_corruption():
    h = build_hamiltonian(SpinParams(0.3, 0.4, beta=1.1, mu=1e-3))
    h[0, 15] = 1e-12  # |1> and |16> live in different blocks
    h[15, 0] = 2e-12
    h[1, 15] = 3e-12
    # the first offending entry in row-major order is named
    with pytest.raises(BlockStructureError, match=r"H\[1,16\] = 1e-12$"):
        block_decompose(h)


def test_one_by_one_block_entries():
    beta, aa, ab, mu = 0.75, 0.25, 0.375, 0.03125
    h = build_hamiltonian(SpinParams(aa, ab, beta, mu))
    assert h[0, 0] == beta + 0.25 - mu + (aa + ab) / 4      # |1> = |uuuu>
    assert h[15, 15] == -beta + 0.25 + mu + (aa + ab) / 4   # |16> = |dddd>


def test_bare_electron_spectrum():
    # alphas = mu = 0: singlet at -3/4 and triplet at beta*M + 1/4, each x4
    beta = 1.7
    h = build_hamiltonian(SpinParams(0.0, 0.0, beta=beta, mu=0.0))
    w = np.sort(np.concatenate([eigensolve_block(b.matrix)[0] for b in block_decompose(h)]))
    expected = np.sort(np.array(4 * [-0.75] + 4 * [-beta + 0.25] + 4 * [0.25] + 4 * [beta + 0.25]))
    assert np.allclose(w, expected, atol=1e-12)


def test_trace_preservation():
    h = build_hamiltonian(SpinParams(0.3, 0.4, beta=1.3, mu=1e-3))
    total = 0.0
    for b in block_decompose(h):
        w, _ = eigensolve_block(b.matrix)
        tr = np.trace(b.matrix)
        assert abs(w.sum() - tr) <= 1e-12 * max(1.0, abs(tr))
        total += w.sum()
    assert abs(total - np.trace(h)) <= 1e-12 * max(1.0, abs(np.trace(h)))


def _swap_ab_permutation():
    # relabel (Ma, Mb, ma, mb) -> (Mb, Ma, mb, ma)
    perm = []
    for s in BASIS:
        target = next(
            t.index for t in BASIS if (t.Ma, t.Mb, t.ma, t.mb) == (s.Mb, s.Ma, s.mb, s.ma)
        )
        perm.append(target - 1)
    return perm


def test_donor_relabeling_symmetry():
    p1 = SpinParams(0.3, 0.4, beta=1.2, mu=1e-3)
    p2 = SpinParams(0.4, 0.3, beta=1.2, mu=1e-3)
    h1 = build_hamiltonian(p1)
    h2 = build_hamiltonian(p2)
    perm = _swap_ab_permutation()
    assert np.allclose(h1, h2[np.ix_(perm, perm)], atol=0.0)
    # spectra agree as multisets
    w1 = np.sort(np.concatenate([eigensolve_block(b.matrix)[0] for b in block_decompose(h1)]))
    w2 = np.sort(np.concatenate([eigensolve_block(b.matrix)[0] for b in block_decompose(h2)]))
    assert np.allclose(w1, w2, atol=1e-12)
    # relabeling maps every block onto itself
    for s in BASIS:
        assert BASIS[perm[s.index - 1]].m_plus_M == s.m_plus_M


def test_exchange_sectors_of_every_block():
    assert SWAP == {i + 1: j + 1 for i, j in enumerate(_swap_ab_permutation())}
    labels = {key: [s.labels for s in EXCHANGE_SECTORS[key]] for key in BLOCK_ORDER}
    # even: swap-invariant states and (|i> + |j>)/sqrt2 as min(i, j); odd: (|i> - |j>)/sqrt2 as max(i, j)
    assert labels == {
        0: [(4, 6, 7, 13), (10, 11)],
        1: [(2, 5), (3, 9)],
        -1: [(8, 14), (12, 15)],
        2: [(1,)],
        -2: [(16,)],
    }
    for key in BLOCK_ORDER:
        assert [s.parity for s in EXCHANGE_SECTORS[key]] == [1, -1][: len(labels[key])]
        # each orbit of the swap gives one state to the even sector and, if it is a pair, one to the odd
        orbits = {frozenset({i, SWAP[i]}) for i in BLOCKS[key]}
        odd = labels[key][1] if len(labels[key]) == 2 else ()
        assert sorted(min(o) for o in orbits) == list(labels[key][0])
        assert sorted(max(o) for o in orbits if len(o) == 2) == list(odd)


def test_rotate_is_exact_for_the_zeeman_parts():
    # diagonal and swap-invariant: each pair state keeps its product states' entry, and a
    # whole block reads the 16 x 16 operator's block as it stands
    for op in (np.diag([s.M for s in BASIS]), np.diag([-(s.ma + s.mb) for s in BASIS])):
        for block in block_decompose(op):
            for sector in (*EXCHANGE_SECTORS[block.m_plus_M], WHOLE_BLOCKS[block.m_plus_M]):
                expected = [op[label - 1, label - 1] for label in sector.labels]
                assert np.array_equal(_rotate(op, sector, sector), np.diag(expected))


def field_free_hamiltonian(alpha_a, alpha_b):
    return build_hamiltonian(SpinParams(alpha_a, alpha_b, beta=0.0, mu=0.0))


def test_solver_sectors_split_blocks_where_the_swap_commutes_to_rounding():
    # at (0.3, 0.4) the block -1 even-odd entry (8, 12) is (0.4 - 0.3)/4: whole blocks
    assert solver_sectors(field_free_hamiltonian(0.3, 0.4)) == {key: (WHOLE_BLOCKS[key],) for key in BLOCK_ORDER}
    # exactly equal, and one ulp apart: exchange sectors
    for alpha_b in (0.3, 0.30000000000000004):
        sectors = solver_sectors(field_free_hamiltonian(0.3, alpha_b))
        assert sectors == EXCHANGE_SECTORS
        assert [s.labels for s in sectors[-1]] == [(8, 14), (12, 15)]


def component_labels(alpha_a, alpha_b):
    sectors = solver_sectors(field_free_hamiltonian(alpha_a, alpha_b))
    return {key: [(c.parity, c.labels) for c in sectors[key]] for key in BLOCK_ORDER}


def test_solver_sectors_split_where_a_coupling_is_exactly_zero():
    # alpha_a = 0 frees nucleus a: each whole block splits by m_a
    assert component_labels(0.0, 0.3) == {
        0: [(0, (4, 7, 11)), (0, (6, 10, 13))],
        1: [(0, (2, 5, 9)), (0, (3,))],
        -1: [(0, (8, 12, 15)), (0, (14,))],
        2: [(0, (1,))],
        -2: [(0, (16,))],
    }
    # no coupling at all: only the electron flip-flop couples two states of one sector
    assert component_labels(0.0, 0.0) == {
        0: [(1, (4,)), (1, (6, 7)), (1, (13,)), (-1, (10, 11))],
        1: [(1, (2,)), (1, (5,)), (-1, (3,)), (-1, (9,))],
        -1: [(1, (8,)), (1, (14,)), (-1, (12,)), (-1, (15,))],
        2: [(1, (1,))],
        -2: [(1, (16,))],
    }
    # couplings one ulp apart, in either order, give the components of equal ones: the sectors
    expected = {key: [(s.parity, s.labels) for s in EXCHANGE_SECTORS[key]] for key in BLOCK_ORDER}
    for alphas in ((0.3, 0.3), (0.3, 0.30000000000000004), (0.30000000000000004, 0.3)):
        assert component_labels(*alphas) == expected


def nearby(alpha_a, relation, free):
    return {"zero": 0.0, "equal": alpha_a, "ulp up": np.nextafter(alpha_a, np.inf),
            "ulp down": np.nextafter(alpha_a, -np.inf), "free": free}[relation]


@cache
def exact_zeeman():
    """The electron and the nuclear Zeeman operators, exact."""
    return madd(one(SZ, 0), one(SZ, 1)), madd(one(SZ, 2), one(SZ, 3))


def unnormalized_state(component, label):
    """State ``label`` of ``component`` times 1 or sqrt(2), as {basis index - 1: integer coefficient}."""
    if component.parity == 0 or SWAP[label] == label:
        return {label - 1: 1}
    return {label - 1: component.parity, SWAP[label] - 1: 1}


def entry(x, op, y):
    return sum(cx * op[k][l] * cy for k, cx in x.items() for l, cy in y.items())


def is_float_zero(coupling, x, y):
    """Whether the entry between the normalized states, coupling / sqrt(len(x) len(y)), rounds to 0.0."""
    return coupling**2 <= len(x) * len(y) * Fraction(1, 2**1075) ** 2  # half the least subnormal


@settings(max_examples=60)
@given(
    alpha_a=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    relation=st.sampled_from(["zero", "equal", "ulp up", "ulp down", "free"]),
    free=st.floats(-2.0, 2.0),
)
def test_components_are_connected_and_decoupled_at_every_beta(alpha_a, relation, free):
    # the couplings of the components' states in the field-free H of build_hamiltonian,
    # summed exactly and then rounded: each component is connected, and its couplings
    # to any other component are exactly 0.0 within its sector and even-odd rounding
    # across the two sectors; Cb and Cm, the field terms, couple no two states, so no
    # beta couples two components
    alpha_b = nearby(alpha_a, relation, free)
    h0 = field_free_hamiltonian(alpha_a, alpha_b)
    exact = [[Fraction(x) for x in row] for row in h0.tolist()]
    zeeman_e, zeeman_n = exact_zeeman()
    for key, components in solver_sectors(h0).items():
        idx = np.array(BLOCKS[key]) - 1
        rounding = (SWAP_ROUNDING + 8) * np.finfo(float).eps * np.max(np.abs(h0[np.ix_(idx, idx)]))
        states = [(c, label, unnormalized_state(c, label)) for c in components for label in c.labels]
        links = {}  # label -> the labels of its component that it couples to
        for ci, i, x in states:
            for cj, j, y in states:
                if i == j:
                    continue
                assert entry(x, zeeman_e, y) == entry(x, zeeman_n, y) == 0
                coupling = entry(x, exact, y)
                if ci == cj:
                    links.setdefault(i, set()).update(set() if is_float_zero(coupling, x, y) else {j})
                elif ci.parity == cj.parity:
                    assert is_float_zero(coupling, x, y)
                else:
                    assert abs(float(coupling)) <= rounding * math.sqrt(len(x) * len(y))
        for c in components:
            reached = {c.labels[0]}
            for _ in c.labels:
                reached |= {j for i in reached for j in links.get(i, ())}
            assert reached == set(c.labels)


def test_mu_beta_ratio_value():
    assert MU_OVER_BETA == pytest.approx(6.155879180151024e-4, rel=1e-12)


def test_rejects_non_finite_parameters():
    with pytest.raises(ValueError):
        build_hamiltonian(SpinParams(float("nan"), 0.0, 1.0, 0.0))
