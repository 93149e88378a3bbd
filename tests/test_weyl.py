import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrc.weyl import (
    CapacityError,
    DimensionError,
    RootPhase,
    WeylOperator,
    braiding_phase,
    _shift_and_phases,
    chi,
    iter_weyls,
    weyl_from_matrix,
)

RNG = np.random.default_rng(901)


def random_weyl(d, n, rng=RNG, phase=True):
    return WeylOperator(
        d,
        tuple(rng.integers(0, d, n)),
        tuple(rng.integers(0, d, n)),
        int(rng.integers(0, 2 * d)) if phase else 0,
    )


def test_chi_zero_vector_is_one():
    assert chi((0, 0, 0), (1, 2, 0), 3).is_one


def test_chi_qubit_sign():
    assert chi((1,), (1,), 2).value == pytest.approx(-1)


def test_chi_qutrit_example():
    # exponent 1*2 + 2*2 = 6 = 0 mod 3
    assert chi((1, 2), (2, 2), 3).is_one


def test_chi_length_mismatch():
    with pytest.raises(DimensionError):
        chi((1,), (1, 0), 2)


def test_phase_value_matches_exponent():
    for d in (2, 3, 5):
        for e in range(2 * d):
            ph = RootPhase(d, e)
            assert abs(ph.value - np.exp(1j * np.pi * e / d)) < 1e-14


def test_phase_multiplication_matches_complex():
    for d in (2, 3):
        for a in range(2 * d):
            for b in range(2 * d):
                lhs = (RootPhase(d, a) * RootPhase(d, b)).value
                assert abs(lhs - RootPhase(d, a).value * RootPhase(d, b).value) < 1e-14


def test_identity_times_anything():
    q = random_weyl(3, 2)
    i = WeylOperator.identity(3, 2)
    assert i.mul(q) == q
    assert q.mul(i) == q


def test_qubit_zx_anticommutation():
    X = WeylOperator.from_label("X")
    Z = WeylOperator.from_label("Z")
    ZX = Z.mul(X)
    assert ZX.x == (1,) and ZX.z == (1,)
    # Z X = -X Z
    assert ZX.phase_exp == 2
    np.testing.assert_allclose(ZX.to_matrix(), Z.to_matrix() @ X.to_matrix(), atol=1e-14)


def test_triple_product_matches_matrices():
    X = WeylOperator.from_label("X")
    Z = WeylOperator.from_label("Z")
    prod = X.mul(Z.mul(X))
    np.testing.assert_allclose(
        prod.to_matrix(), X.to_matrix() @ Z.to_matrix() @ X.to_matrix(), atol=1e-14
    )


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_group_closure_against_matrix_oracle(d, n):
    rng = np.random.default_rng(7 * d + n)
    count = 1000 if d in (2, 3) else 200
    for _ in range(count):
        p = random_weyl(d, n, rng)
        q = random_weyl(d, n, rng)
        np.testing.assert_allclose(
            p.mul(q).to_matrix(), p.to_matrix() @ q.to_matrix(), atol=1e-12
        )


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 1)])
def test_dagger_is_conjugate_transpose(d, n):
    rng = np.random.default_rng(13 * d + n)
    for _ in range(100):
        p = random_weyl(d, n, rng)
        np.testing.assert_allclose(
            p.dagger().to_matrix(), p.to_matrix().conj().T, atol=1e-13
        )
        assert p.mul(p.dagger()) == WeylOperator.identity(d, n)


def test_dagger_trivial_cases():
    i = WeylOperator.identity(2, 1)
    assert i.dagger() == i
    X = WeylOperator.from_label("X")
    assert X.dagger() == X


@pytest.mark.parametrize("d", [2, 3, 5])
def test_braiding_soundness(d):
    rng = np.random.default_rng(100 + d)
    n = 2
    for _ in range(1000 if d in (2, 3) else 300):
        p = random_weyl(d, n, rng)
        q = random_weyl(d, n, rng)
        lhs = p.to_matrix() @ q.to_matrix() @ p.dagger().to_matrix()
        rhs = braiding_phase(p, q).conjugate().value * q.to_matrix()
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_braiding_trivial_and_qubit_values():
    X = WeylOperator.from_label("X")
    Z = WeylOperator.from_label("Z")
    assert braiding_phase(X, X).is_one
    assert braiding_phase(X, Z).value == pytest.approx(-1)


def test_braiding_bicharacter_law_exact():
    rng = np.random.default_rng(55)
    for d in (2, 3):
        for _ in range(200):
            p = random_weyl(d, 2, rng)
            q = random_weyl(d, 2, rng)
            r = random_weyl(d, 2, rng)
            lhs = braiding_phase(p, q.mul(r))
            rhs = braiding_phase(p, q) * braiding_phase(p, r)
            assert lhs == rhs


def test_to_matrix_identity_and_x():
    I = WeylOperator.identity(2, 1)
    np.testing.assert_array_equal(I.to_matrix(), np.eye(2))
    X = WeylOperator.x_op(2, 1)
    np.testing.assert_allclose(X.to_matrix(), np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_to_matrix_qutrit_clock():
    Z = WeylOperator.z_op(3, 1)
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(Z.to_matrix(), np.diag([1, w, w**2]), atol=1e-14)


def test_to_matrix_capacity_guard(monkeypatch):
    monkeypatch.setenv("LRC_DENSE_LIMIT", "8")
    with pytest.raises(CapacityError):
        WeylOperator.identity(2, 4).to_matrix()


def test_tensor_matches_kron():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        p = random_weyl(d, 1, rng)
        q = random_weyl(d, 2, rng)
        np.testing.assert_allclose(
            p.tensor(q).to_matrix(), np.kron(p.to_matrix(), q.to_matrix()), atol=1e-13
        )


def test_tensor_builds_bitflip_stabilizer():
    Z = WeylOperator.from_label("Z")
    I = WeylOperator.identity(2, 1)
    zzi = Z.tensor(Z.tensor(I))
    assert zzi == WeylOperator.from_label("ZZI")


def test_tensor_dimension_mismatch():
    with pytest.raises(DimensionError):
        WeylOperator.identity(2, 1).tensor(WeylOperator.identity(3, 1))


def test_y_label_is_hermitian():
    Y = WeylOperator.from_label("Y")
    M = Y.to_matrix()
    np.testing.assert_allclose(M, np.array([[0, -1j], [1j, 0]]), atol=1e-15)
    neg = WeylOperator.from_label("-YYY")
    np.testing.assert_allclose(
        neg.to_matrix(), -np.kron(np.kron(M, M), M), atol=1e-13
    )


def test_power_and_order():
    for d in (2, 3, 5):
        X = WeylOperator.x_op(d, 1)
        assert X**d == WeylOperator.identity(d, 1)
        Z = WeylOperator.z_op(d, 1)
        assert Z**d == WeylOperator.identity(d, 1)


def test_embed_scatter():
    X = WeylOperator.x_op(2, 1)
    e = X.embed([2], 4)
    assert e.x == (0, 0, 1, 0)
    assert e.z == (0, 0, 0, 0)


def test_string_round_trip():
    rng = np.random.default_rng(77)
    for d in (2, 3, 5):
        for _ in range(20):
            w = random_weyl(d, 3, rng)
            assert WeylOperator.from_string(w.to_string()) == w
    assert WeylOperator.from_string("0;1,1,1;0,0,0;2") == WeylOperator.from_label("XXX")


def test_apply_to_vector_matches_matrix():
    rng = np.random.default_rng(5)
    for d, n in [(2, 3), (3, 2)]:
        w = random_weyl(d, n, rng)
        psi = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        np.testing.assert_allclose(
            w.apply_to_vector(psi), w.to_matrix() @ psi, atol=1e-12
        )


def test_conjugate_matrix_matches_dense():
    rng = np.random.default_rng(6)
    for d, n in [(2, 3), (3, 2)]:
        w = random_weyl(d, n, rng)
        D = d**n
        M = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        expected = w.to_matrix() @ M @ w.to_matrix().conj().T
        np.testing.assert_allclose(w.conjugate_matrix(M), expected, atol=1e-12)


@st.composite
def weyls(draw):
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 2 if d == 5 else 3))
    dits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    return WeylOperator(d, tuple(draw(dits)), tuple(draw(dits)), draw(st.integers(0, 2 * d - 1)))


@settings(max_examples=60, deadline=None)
@given(w=weyls(), seed=st.integers(0, 2**32 - 1))
def test_permutation_forms_match_dense_products(w, seed):
    rng = np.random.default_rng(seed)
    D = w.dim
    W = w.to_matrix()
    psi = rng.normal(size=D) + 1j * rng.normal(size=D)
    M = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    np.testing.assert_allclose(w.apply_to_vector(psi), W @ psi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.conjugate_matrix(M), W @ M @ W.conj().T, rtol=0, atol=1e-12)


@st.composite
def embedded_weyls(draw):
    """A random Weyl on a random footprint (any order) of a register of D <= 125."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3))
    sites = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    dits = st.lists(st.integers(0, d - 1), min_size=len(sites), max_size=len(sites))
    local = WeylOperator(d, tuple(draw(dits)), tuple(draw(dits)), draw(st.integers(0, 2 * d - 1)))
    return local.embed(sites, n)


@settings(max_examples=60)
@given(w=embedded_weyls(), seed=st.integers(0, 2**32 - 1))
def test_index_maps_equal_the_gather_formula_bit_for_bit(w, seed):
    """conjugate_matrix and apply_to_vector against the shift/phase formula
    written out here, on a contiguous and two non-contiguous operands."""
    d, n, D = w.d, w.n, w.dim
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
    shifted = (digits - np.asarray(w.x)) % d
    perm = shifted @ (d ** np.arange(n - 1, -1, -1, dtype=np.int64))
    u = np.exp(2j * np.pi * ((shifted @ np.asarray(w.z)) % d) / d)
    rng = np.random.default_rng(seed)
    big = rng.normal(size=(2 * D, 2 * D)) + 1j * rng.normal(size=(2 * D, 2 * D))
    for M in (np.ascontiguousarray(big[:D, :D]), big[:D, :D].T, big[::2, 1::2]):
        expect = (u[:, None] * u.conj()[None, :]) * M[np.ix_(perm, perm)]
        assert np.array_equal(w.conjugate_matrix(M).view(np.float64), expect.view(np.float64))
    psi = big[0, ::2]
    expect = (w.phase.value * u) * psi[perm]
    assert np.array_equal(w.apply_to_vector(psi).view(np.float64), expect.view(np.float64))


def test_shift_and_phase_cache_is_bounded_and_read_only():
    assert isinstance(_shift_and_phases.cache_parameters()["maxsize"], int)
    for d, n in [(2, 3), (3, 2), (5, 2)]:
        w = random_weyl(d, n)
        perm, u = _shift_and_phases(d, w.x, w.z)
        assert perm.shape == u.shape == (d**n,)
        assert np.issubdtype(perm.dtype, np.integer) and u.dtype == complex
        assert not perm.flags.writeable and not u.flags.writeable
        assert _shift_and_phases(d, w.x, w.z)[0] is perm  # cached, not rebuilt


@st.composite
def weyl_pairs(draw):
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 2 if d == 5 else 3))
    dits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    phase = st.integers(0, 2 * d - 1)
    return tuple(
        WeylOperator(d, tuple(draw(dits)), tuple(draw(dits)), draw(phase)) for _ in range(2)
    )


@settings(max_examples=60)
@given(pair=weyl_pairs(), k=st.integers(-3, 4))
def test_group_law_matches_dense_products(pair, k):
    P, Q = pair
    Pm = P.to_matrix()
    np.testing.assert_allclose((P * Q).to_matrix(), Pm @ Q.to_matrix(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(P.dagger().to_matrix(), Pm.conj().T, rtol=0, atol=1e-12)
    base = Pm if k >= 0 else Pm.conj().T
    np.testing.assert_allclose(
        (P**k).to_matrix(), np.linalg.matrix_power(base, abs(k)), rtol=0, atol=1e-12
    )


def test_iter_weyls_count_and_uniqueness():
    ops = list(iter_weyls(2, 2))
    assert len(ops) == 16
    assert len({(o.x, o.z) for o in ops}) == 16


def test_weyl_from_matrix_round_trip():
    rng = np.random.default_rng(8)
    for d, n in [(2, 2), (3, 1), (3, 2)]:
        for _ in range(30):
            w = random_weyl(d, n, rng)
            rec = weyl_from_matrix(w.to_matrix(), d, n)
            assert rec == w


def test_weyl_from_matrix_rejects_non_weyl():
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert weyl_from_matrix(H, 2, 1) is None
