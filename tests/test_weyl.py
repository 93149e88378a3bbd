import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrc.weyl import (
    CapacityError,
    DimensionError,
    WeylOperator,
    braiding_exponent,
    _gather_tables,
    _shift_and_phases,
    eigenprojector,
    iter_weyls,
    roots_of_unity,
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


def test_phase_value_matches_exponent():
    """A phase exponent e in [0, 2d) has the value exp(i*pi*e/d)."""
    for d in (2, 3, 5):
        for e in range(2 * d):
            assert abs(roots_of_unity(d)[e] - np.exp(1j * np.pi * e / d)) < 1e-14


def test_phase_multiplication_matches_complex():
    """Adding phase exponents mod 2d multiplies their values."""
    for d in (2, 3):
        roots = roots_of_unity(d)
        for a in range(2 * d):
            for b in range(2 * d):
                assert abs(roots[(a + b) % (2 * d)] - roots[a] * roots[b]) < 1e-14


def weyls_on(d, n):
    """Weyl operators on n qudits of dimension d, any phase."""
    dits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
    return st.builds(lambda x, z, e: WeylOperator(d, x, z, e), dits, dits, st.integers(0, 2 * d - 1))


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
@settings(max_examples=100)
@given(data=st.data())
def test_braiding_soundness(d, data):
    """Dense oracle: P Q P^dagger = conj(omega^m) Q with m = braiding_exponent(P, Q)."""
    n = data.draw(st.integers(1, 2))
    p, q = data.draw(weyls_on(d, n)), data.draw(weyls_on(d, n))
    m = braiding_exponent(p, q)
    assert isinstance(m, int) and 0 <= m < d
    lhs = p.to_matrix() @ q.to_matrix() @ p.dagger().to_matrix()
    rhs = np.exp(-2j * np.pi * m / d) * q.to_matrix()
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_braiding_trivial_and_qubit_values():
    X = WeylOperator.from_label("X")
    Z = WeylOperator.from_label("Z")
    assert braiding_exponent(X, X) == 0
    assert braiding_exponent(X, Z) == 1
    assert braiding_exponent(Z, X) == 1  # -1 mod 2


@given(d=st.sampled_from((2, 3, 5)), data=st.data())
def test_braiding_antisymmetry(d, data):
    n = data.draw(st.integers(1, 3))
    p, q = data.draw(weyls_on(d, n)), data.draw(weyls_on(d, n))
    assert braiding_exponent(q, p) == (-braiding_exponent(p, q)) % d
    assert braiding_exponent(p, p) == 0


@settings(max_examples=200)
@given(d=st.sampled_from((2, 3, 5)), data=st.data())
def test_braiding_bicharacter_law_exact(d, data):
    """Additivity: braid(P, QR) = braid(P, Q) + braid(P, R) mod d, phases ignored."""
    n = data.draw(st.integers(1, 3))
    p, q, r = (data.draw(weyls_on(d, n)) for _ in range(3))
    assert braiding_exponent(p, q.mul(r)) == (braiding_exponent(p, q) + braiding_exponent(p, r)) % d


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
    expect = (roots_of_unity(w.d)[w.phase_exp] * u) * psi[perm]
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


WEYL_KINDS = ("any", "x-free", "z-free", "phase-only")


@st.composite
def weyls_of(draw, d, n, kind):
    """A Weyl on n qudits of dimension d; X-free, Z-free and phase-only ones on purpose."""
    dits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    x = (0,) * n if kind in ("x-free", "phase-only") else tuple(draw(dits))
    z = (0,) * n if kind in ("z-free", "phase-only") else tuple(draw(dits))
    return WeylOperator(d, x, z, draw(st.integers(0, 2 * d - 1)))


@st.composite
def weyls_beside_the_table_cap(draw):
    """A Weyl on 64 dimensions, where its tables are cached, or on 81, 125, 128 or
    256, where they are not."""
    d, n = draw(st.sampled_from(((2, 6), (2, 7), (3, 4), (2, 8), (5, 3))))
    return draw(weyls_of(d, n, draw(st.sampled_from(WEYL_KINDS))))


@settings(max_examples=30)
@given(w=weyls_beside_the_table_cap(), seed=st.integers(0, 2**32 - 1))
def test_cached_gather_tables_equal_the_formula_bit_for_bit(w, seed):
    """The shift/phase formula of the index-map test, on both sides of the cap;
    the second conjugation of each operand reads the cached tables."""
    d, n, D = w.d, w.n, w.dim
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
    shifted = (digits - np.asarray(w.x)) % d
    perm = shifted @ (d ** np.arange(n - 1, -1, -1, dtype=np.int64))
    u = np.exp(2j * np.pi * ((shifted @ np.asarray(w.z)) % d) / d)
    rng = np.random.default_rng(seed)
    big = rng.normal(size=(2 * D, 2 * D)) + 1j * rng.normal(size=(2 * D, 2 * D))
    for M in (np.ascontiguousarray(big[:D, :D]), big[:D, :D].T, big[::2, 1::2]):
        expect = (u[:, None] * u.conj()[None, :]) * M[np.ix_(perm, perm)]
        for _ in range(2):
            assert np.array_equal(w.conjugate_matrix(M).view(np.float64), expect.view(np.float64))


def test_gather_table_cache_is_bounded_read_only_and_small_registers_only():
    assert _gather_tables.cache_parameters()["maxsize"] == 256
    _gather_tables.cache_clear()
    small = [random_weyl(d, n) for d, n in [(2, 6), (3, 3), (5, 2)]]
    for w in small + [random_weyl(2, 7), random_weyl(3, 4)]:
        w.conjugate_matrix(np.eye(w.dim, dtype=complex))
    assert _gather_tables.cache_info().currsize == len(small)
    for w in small:
        idx, outer = _gather_tables(w.d, w.x, w.z)
        assert idx.shape == outer.shape == (w.dim, w.dim)
        assert not idx.flags.writeable and not outer.flags.writeable
        assert _gather_tables(w.d, w.x, w.z)[0] is idx  # cached, not rebuilt
    assert _gather_tables.cache_info().currsize == len(small)


def gather_formula(w, M):
    """(u_i conj(u_j)) M[perm_i, perm_j], the D^2 index-and-phase form of W M W^dagger."""
    d, n = w.d, w.n
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
    shifted = (digits - np.asarray(w.x)) % d
    perm = shifted @ (d ** np.arange(n - 1, -1, -1, dtype=np.int64))
    u = np.exp(2j * np.pi * ((shifted @ np.asarray(w.z)) % d) / d)
    return (u[:, None] * u.conj()[None, :]) * M[np.ix_(perm, perm)]


@pytest.mark.parametrize("kind", WEYL_KINDS)
@pytest.mark.parametrize("d,n", [(2, 7), (2, 8), (3, 4), (5, 3)])
@settings(max_examples=4)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_wide_conjugation_is_the_formula_contiguous_and_keeps_no_square_table(d, n, kind, data, seed):
    """Above the table cap: the bits of the formula on C-ordered, F-ordered and
    strided operands, a C-contiguous result, and only length-D tables cached."""
    w = data.draw(weyls_of(d, n, kind))
    D = w.dim
    rng = np.random.default_rng(seed)
    big = rng.normal(size=(2 * D, 2 * D)) + 1j * rng.normal(size=(2 * D, 2 * D))
    _gather_tables.cache_clear()
    for M in (np.ascontiguousarray(big[:D, :D]), big[:D, :D].T, big[::2, 1::2]):
        got = w.conjugate_matrix(M)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.float64), gather_formula(w, M).view(np.float64))
    assert _gather_tables.cache_info().currsize == 0
    assert all(table.size == D for table in _shift_and_phases(w.d, w.x, w.z))


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


# -- the root table ----------------------------------------------------------------


def bits(values) -> np.ndarray:
    """The float64 view of complex values, for bit-for-bit comparisons."""
    return np.array(values, dtype=complex).reshape(-1).view(np.float64)


def test_root_table_is_cached_read_only_and_holds_the_dth_roots_at_even_entries():
    for d in (2, 3, 5):
        roots = roots_of_unity(d)
        assert roots.shape == (2 * d,) and not roots.flags.writeable
        assert roots_of_unity(d) is roots
        np.testing.assert_allclose(roots[0::2], np.exp(2j * np.pi * np.arange(d) / d), rtol=0, atol=1e-15)


def test_weyl_phases_keep_their_qubit_bits():
    """At d = 2, roots_of_unity, _shift_and_phases and to_matrix (over every
    phase) give the bits of the np.exp formulas that the root table replaced."""
    old_value = [complex(np.exp(1j * np.pi * e / 2)) for e in range(4)]
    assert np.array_equal(bits(roots_of_unity(2)), bits(old_value))
    for n in (1, 2, 3):
        D = 2**n
        digits = np.array(list(itertools.product(range(2), repeat=n)), dtype=np.int64)
        place = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
        for w in iter_weyls(2, n):
            x, z = np.asarray(w.x), np.asarray(w.z)
            shifted = (digits - x) % 2
            perm, u = _shift_and_phases(2, w.x, w.z)
            assert np.array_equal(perm, shifted @ place)
            assert np.array_equal(bits(u), bits(np.exp(2j * np.pi * ((shifted @ z) % 2) / 2)))
            for e in range(4):
                old = np.zeros((D, D), dtype=complex)
                vals = old_value[e] * np.exp(2j * np.pi * ((digits @ z) % 2) / 2)
                old[((digits + x) % 2) @ place, np.arange(D)] = vals
                assert np.array_equal(bits(w.with_phase_exp(e).to_matrix()), bits(old))


@pytest.mark.parametrize("d", [3, 5])
def test_dense_phase_sites_agree_beyond_qubits(d):
    """The root table, the clock's diagonal and the Fourier matrix read one value per root."""
    from lrc.circuits import fourier_matrix

    values = roots_of_unity(d)[0::2]
    assert np.array_equal(bits(np.diag(WeylOperator.z_op(d, 1).to_matrix())), bits(values))
    jk = np.multiply.outer(np.arange(d), np.arange(d)) % d
    assert np.array_equal(bits(fourier_matrix(d)), bits(values[jk] / np.sqrt(d)))


@st.composite
def weyls_of_order_d(draw):
    """A Weyl W with W^d = 1 on at most 125 dimensions, d in {2, 3, 5}."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 2 if d == 5 else 3))
    dits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    w = WeylOperator(d, tuple(draw(dits)), tuple(draw(dits)), 2 * draw(st.integers(0, d - 1)))
    if not (w**d).is_identity():  # (X^x Z^z)^d = -1 for some x, z at even d
        w = w.with_phase_exp(w.phase_exp + 1)
    assert (w**d).is_identity()
    return w


@settings(max_examples=60)
@given(w=weyls_of_order_d())
def test_weyl_eigenprojectors_resolve_the_identity(w):
    d, W = w.d, w.to_matrix()
    projectors = [eigenprojector(w, b) for b in range(d)]
    for b, P in enumerate(projectors):
        np.testing.assert_allclose(P, P.conj().T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(P @ P, P, rtol=0, atol=1e-12)
        np.testing.assert_allclose(W @ P, np.exp(2j * np.pi * b / d) * P, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sum(projectors), np.eye(w.dim), rtol=0, atol=1e-12)


@given(d=st.sampled_from((2, 3, 5)))
def test_fourier_matrix_conjugates_the_clock_into_the_shift(d):
    from lrc.circuits import fourier_matrix

    F = fourier_matrix(d)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    X = np.roll(np.eye(d), 1, axis=0)  # |j> -> |j+1 mod d>
    np.testing.assert_allclose(F.conj().T @ F, np.eye(d), rtol=0, atol=1e-12)
    np.testing.assert_allclose(F.conj().T @ Z @ F, X, rtol=0, atol=1e-12)


@st.composite
def powers(draw):
    d = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 3))
    dits = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    w = WeylOperator(d, tuple(draw(dits)), tuple(draw(dits)), draw(st.integers(0, 2 * d - 1)))
    return w, draw(st.integers(-(3 * d + 1), 3 * d + 1))


@settings(max_examples=200)
@given(case=powers())
def test_power_equals_the_product_of_its_factors(case):
    """The closed form of W^k against k-fold multiplication, of W^dagger when k < 0."""
    w, k = case
    factor = w if k >= 0 else w.dagger()
    expect = WeylOperator.identity(w.d, w.n)
    for _ in range(abs(k)):
        expect = expect.mul(factor)
    assert w**k == expect
