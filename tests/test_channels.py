import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lrc.channels import (
    Superoperator,
    apply_local_channel,
    apply_local_kraus,
    apply_local_measurement,
    average,
    coherent_rotation,
    compose,
    embed_operator,
    from_sites,
    identity_channel,
    is_trace_preserving,
    lift_local_superop,
    max_offdiagonal,
    natural_rep,
    partial_trace,
    reset_sites,
    stochastic_weyl,
    to_sites,
    twirl,
    unvec,
    vec,
    weyl_transfer_matrix,
)
from lrc.circuits import _superop_from_json, _superop_to_json
from lrc.codes import (
    builtin_code,
    enumerate_pure_errors,
    enumerate_stabilizers,
    logical_basis_state,
    projector_for_syndrome,
    syndrome_of,
)
from lrc.weyl import CapacityError, DimensionError, WeylOperator, iter_weyls

X = WeylOperator.from_label("X")
Y = WeylOperator.from_label("Y")
Z = WeylOperator.from_label("Z")
I1 = WeylOperator.identity(2, 1)


def choi_matrix(C: Superoperator) -> np.ndarray:
    """sum_ij |i><j| (x) C(|i><j|); positive iff the channel is completely positive."""
    D = C.dim
    # Entry (i, a), (j, b) is C(|i><j|)[a, b], the matrix entry (a + D b, i + D j).
    return C.matrix.reshape(D, D, D, D).transpose(3, 1, 2, 0).reshape(D * D, D * D)


def min_choi_eigenvalue(C: Superoperator) -> float:
    return float(np.min(np.linalg.eigvalsh(choi_matrix(C))))


def random_state(D, rng):
    m = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    m = m @ m.conj().T
    return m / np.trace(m)


def test_vec_unvec_column_stacking():
    rho = np.arange(4).reshape(2, 2)
    np.testing.assert_array_equal(vec(rho), [0, 2, 1, 3])
    np.testing.assert_array_equal(unvec(vec(rho)), rho)


def test_natural_rep_identity():
    np.testing.assert_allclose(natural_rep(np.eye(3)).matrix, np.eye(9), atol=1e-15)


def test_natural_rep_matches_conjugation_oracle():
    rng = np.random.default_rng(11)
    for op in (X, Z):
        C = natural_rep(op)
        rho = random_state(2, rng)
        np.testing.assert_allclose(
            C(rho), op.to_matrix() @ rho @ op.to_matrix().conj().T, atol=1e-13
        )


def test_natural_rep_z_flips_coherence_sign():
    C = natural_rep(Z)
    coh = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    np.testing.assert_allclose(C(coh), -coh, atol=1e-14)


def test_natural_rep_x_swaps_populations():
    C = natural_rep(X)
    np.testing.assert_allclose(
        C(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]), atol=1e-14
    )


def test_natural_rep_rejects_nonsquare():
    with pytest.raises(DimensionError):
        natural_rep(np.ones((2, 3)))


def test_superoperator_capacity():
    with pytest.raises(CapacityError):
        Superoperator(128, np.eye(128**2))


def test_natural_rep_refuses_a_wide_matrix_before_its_product():
    """conj(M) (x) M of an 81-dimensional M would hold 689 MB: the channel holds M,
    and the first read of its matrix meets the cap before the product."""
    m = np.eye(81)
    tracemalloc.start()
    try:
        C = natural_rep(m)
        with pytest.raises(CapacityError, match="superoperator dimension 81 exceeds the cap 64"):
            C.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert C.dim == 81 and np.array_equal(C.kraus[0], m)


@pytest.mark.parametrize("d", [2, 3, 5])
@settings(max_examples=12)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_natural_rep_builds_the_eager_matrix_on_first_read(d, data, seed):
    Dk = d ** data.draw(st.integers(1, {2: 6, 3: 3, 5: 2}[d]))
    U = random_unitary(np.random.default_rng(seed), Dk)
    C = natural_rep(U)
    m = C.matrix
    assert m.shape == (Dk * Dk, Dk * Dk) and not m.flags.writeable
    assert C.matrix is m
    # np.kron(U.conj(), U) one row block at a time: entry (i Dk + a, j Dk + b) is conj(U[i, j]) U[a, b].
    for i in range(Dk):
        assert np.array_equal(m[i * Dk : (i + 1) * Dk], np.kron(U.conj()[i : i + 1], U))


def test_natural_rep_holds_no_matrix_until_read():
    U = random_unitary(np.random.default_rng(20), 32)
    tracemalloc.start()
    try:
        C = natural_rep(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # conj(U) (x) U would be 16.8 MB
    assert C.matrix.nbytes == 16 * 32**4


def test_superoperator_copies_a_given_matrix_and_freezes_what_it_builds():
    m = np.eye(4, dtype=complex)
    C = Superoperator(2, m)
    assert m.flags.writeable and not C.matrix.flags.writeable
    m[0, 0] = 5.0
    assert C.matrix[0, 0] == 1.0
    built = [
        compose(natural_rep(X), natural_rep(Z)),
        average([natural_rep(X), natural_rep(Z)]),
        identity_channel(2),
        stochastic_weyl({I1: 0.5, X: 0.5}),
        lift_local_superop(natural_rep(X), (1,), 2, 2),
    ]
    for C in built:
        assert C.kraus is None and not C.matrix.flags.writeable
    with pytest.raises(ValueError, match="needs a matrix or a Kraus form"):
        Superoperator(2, kraus=())


def kraus_sets(rng, D, count):
    """A trace-preserving Kraus set, the blocks of a random isometry, and two that are not."""
    Q = np.linalg.qr(rng.normal(size=(count * D, D)) + 1j * rng.normal(size=(count * D, D)))[0]
    tp = [Q[j * D : (j + 1) * D] for j in range(count)]
    return {
        "isometry": (tp, True),
        "scaled": ([0.9 * K for K in tp], False),
        "random": ([random_matrix(rng, D) for _ in range(count)], False),
    }


@pytest.mark.parametrize("D", [2, 3, 4, 5, 9, 25])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_trace_preservation_read_from_a_kraus_form_matches_its_matrix(D, count):
    for name, (kraus, expected) in kraus_sets(np.random.default_rng(D * 10 + count), D, count).items():
        oracle = Superoperator(D, sum(np.kron(K.conj(), K) for K in kraus))
        C = Superoperator(D, kraus=kraus)
        assert is_trace_preserving(C) == is_trace_preserving(oracle) == expected, name
        assert C._matrix is None


def test_coherent_rotation_matches_expm_oracle():
    rng = np.random.default_rng(3)
    for P, n in [(X, 1), (WeylOperator.from_label("XII"), 3), (Y, 1)]:
        theta = float(rng.uniform(0, 0.4))
        U = scipy.linalg.expm(-1j * theta * P.to_matrix())
        np.testing.assert_allclose(
            coherent_rotation(P, theta).matrix, natural_rep(U).matrix, atol=1e-12
        )


def test_coherent_rotation_zero_angle_is_identity():
    np.testing.assert_allclose(
        coherent_rotation(X, 0.0).matrix, np.eye(4), atol=1e-15
    )


def test_coherent_rotation_half_pi_is_x_channel():
    C = coherent_rotation(X, np.pi / 2)
    np.testing.assert_allclose(C.matrix, natural_rep(X).matrix, atol=1e-12)


def test_coherent_rotation_rejects_non_hermitian():
    xz = WeylOperator(2, (1,), (1,))  # phase-free XZ, anti-Hermitian
    with pytest.raises(ValueError):
        coherent_rotation(xz, 0.1)


def test_stochastic_weyl_bit_flip():
    C = stochastic_weyl({I1: 0.9, X: 0.1})
    np.testing.assert_allclose(C(np.diag([1.0, 0.0])), np.diag([0.9, 0.1]), atol=1e-14)


def test_stochastic_weyl_uniform_depolarises():
    C = stochastic_weyl({I1: 0.25, X: 0.25, Y: 0.25, Z: 0.25})
    R = weyl_transfer_matrix(C, 2, 1)
    np.testing.assert_allclose(np.diag(R), [1, 0, 0, 0], atol=1e-12)
    assert max_offdiagonal(R) < 1e-12


def test_stochastic_weyl_validates_distribution():
    with pytest.raises(ValueError):
        stochastic_weyl({I1: 0.5, X: 0.4})


def test_compose_order():
    # compose(A, B) applies B first.
    zx = compose(natural_rep(Z), natural_rep(X))
    np.testing.assert_allclose(
        zx.matrix, natural_rep(Z.to_matrix() @ X.to_matrix()).matrix, atol=1e-13
    )
    plus = np.ones((2, 2)) / 2
    m = Z.to_matrix() @ X.to_matrix()
    np.testing.assert_allclose(zx(plus), m @ plus @ m.conj().T, atol=1e-13)


def test_compose_trivial_cases():
    A = natural_rep(X)
    np.testing.assert_allclose(compose(identity_channel(2), A).matrix, A.matrix)
    np.testing.assert_allclose(compose(A, A).matrix, np.eye(4), atol=1e-13)


def test_average_single_and_theorem1_form():
    code = builtin_code("bitflip3")
    lhs = average([natural_rep(s) for s in enumerate_stabilizers(code)])
    rhs = sum(
        natural_rep(projector_for_syndrome(code, syndrome_of(code, t))).matrix
        for t in enumerate_pure_errors(code)
    )
    assert np.max(np.abs(lhs.matrix - rhs)) < 1e-12


def test_average_of_identity_and_z_dephases():
    C = average([natural_rep(I1), natural_rep(Z)])
    plus = np.ones((2, 2)) / 2
    np.testing.assert_allclose(C(plus), np.diag([0.5, 0.5]), atol=1e-14)


def test_average_rejects_empty():
    with pytest.raises(ValueError):
        average([])
    with pytest.raises(ValueError):
        average(c for c in [])


def test_average_sums_a_generator_in_order():
    rng = np.random.default_rng(3)
    unitaries = [np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0] for _ in range(5)]
    chans = [natural_rep(U) for U in unitaries]
    expect = np.zeros((9, 9), dtype=complex)
    for c in chans:
        expect = expect + c.matrix
    got = average(c for c in chans)
    assert np.array_equal(got.matrix.view(np.float64), (expect / 5).view(np.float64))
    with pytest.raises(DimensionError):
        average(c for c in (natural_rep(X), identity_channel(3)))


def test_twirl_identity_is_identity():
    group = [I1, X, Y, Z]
    out = twirl(identity_channel(2), group)
    np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-13)


def test_twirl_over_trivial_group_is_noop():
    L = coherent_rotation(Z, 0.1)
    np.testing.assert_allclose(twirl(L, [I1]).matrix, L.matrix, atol=1e-14)


def test_twirl_diagonalises_coherent_rotation():
    L = coherent_rotation(Z, 0.1)
    out = twirl(L, [I1, X, Y, Z])
    R = weyl_transfer_matrix(out, 2, 1)
    assert max_offdiagonal(R) < 1e-12


def test_twirl_idempotent():
    L = coherent_rotation(Z, 0.23)
    g = [I1, X, Y, Z]
    once = twirl(L, g)
    twice = twirl(once, g)
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12


def test_full_weyl_twirl_is_ptm_diagonal_two_qubits():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    U = np.linalg.qr(m)[0]
    out = twirl(natural_rep(U), list(iter_weyls(2, 2)))
    R = weyl_transfer_matrix(out, 2, 2)
    assert max_offdiagonal(R) < 1e-12


def test_twirl_and_average_preserve_cptp():
    rng = np.random.default_rng(23)
    ops = []
    for _ in range(3):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ops.append(natural_rep(np.linalg.qr(m)[0]))
    mixed = average(ops)
    assert is_trace_preserving(mixed)
    assert min_choi_eigenvalue(mixed) > -1e-9
    tw = twirl(mixed, [I1, X, Y, Z])
    assert is_trace_preserving(tw)
    assert min_choi_eigenvalue(tw) > -1e-9


def test_apply_identity_and_x():
    rho = np.diag([1.0, 0.0])
    np.testing.assert_allclose(identity_channel(2)(rho), rho)
    np.testing.assert_allclose(natural_rep(X)(rho), np.diag([0.0, 1.0]), atol=1e-14)


def test_apply_coherent_rotation_populations():
    code = builtin_code("bitflip3")
    delta = 0.1
    psi = logical_basis_state(code, (0,))
    xii = WeylOperator.from_label("XII")
    out = coherent_rotation(xii, delta)(np.outer(psi, psi.conj()))
    p_code, p_err = (projector_for_syndrome(code, syndrome_of(code, T)) for T in (code.identity(), xii))
    pop_code = float(np.real(np.trace(p_code @ out)))
    pop_err = float(np.real(np.trace(p_err @ out)))
    assert abs(pop_code - np.cos(delta) ** 2) < 1e-12
    assert abs(pop_err - np.sin(delta) ** 2) < 1e-12


def test_choi_of_unitary_is_rank_one():
    C = natural_rep(X)
    eig = np.linalg.eigvalsh(choi_matrix(C))
    np.testing.assert_allclose(sorted(eig), [0, 0, 0, 2], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_choi_of_unitary_is_outer_product_of_its_vectorisation(d, seed):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    v = U.flatten(order="F")  # column stacking, written out independently of vec
    np.testing.assert_allclose(choi_matrix(natural_rep(U)), np.outer(v, v.conj()), atol=1e-15)


def test_embed_operator_matches_kron():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(
        embed_operator(A, [0], 2, 2), np.kron(A, np.eye(2)), atol=1e-14
    )
    np.testing.assert_allclose(
        embed_operator(A, [1], 2, 2), np.kron(np.eye(2), A), atol=1e-14
    )
    B = rng.normal(size=(4, 4))
    got = embed_operator(B, [2, 0], 2, 3)
    # site 2 is the first factor of B, site 0 the second
    expect = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for ap in range(2):
                    for bp in range(2):
                        for cp in range(2):
                            expect[a * 4 + b * 2 + c, ap * 4 + bp * 2 + cp] = (
                                B[c * 2 + a, cp * 2 + ap] * (b == bp)
                            )
    np.testing.assert_allclose(got, expect, atol=1e-14)


def test_weyl_embed_agrees_with_matrix_embed():
    w = WeylOperator.from_label("XZ")
    lifted = w.embed([3, 1], 4)
    np.testing.assert_allclose(
        lifted.to_matrix(), embed_operator(w.to_matrix(), [3, 1], 2, 4), atol=1e-13
    )


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    a = random_state(2, rng)
    b = random_state(4, rng)
    joint = np.kron(a, b)
    np.testing.assert_allclose(partial_trace(joint, [0], 2, 3), a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(joint, [1, 2], 2, 3), b, atol=1e-13)


def test_reset_sites():
    rng = np.random.default_rng(9)
    rho = random_state(8, rng)
    zero = np.array([1.0, 0.0])
    out = reset_sites(rho, [1], zero, 2, 3)
    np.testing.assert_allclose(partial_trace(out, [1], 2, 3), np.diag([1.0, 0.0]), atol=1e-13)
    np.testing.assert_allclose(
        partial_trace(out, [0, 2], 2, 3), partial_trace(rho, [0, 2], 2, 3), atol=1e-13
    )


def test_apply_local_channel_matches_embedded_unitary():
    rng = np.random.default_rng(13)
    rho = random_state(8, rng)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    U = np.linalg.qr(m)[0]
    local = natural_rep(U)
    got = apply_local_channel(rho, local, [1], 2, 3)
    full = embed_operator(U, [1], 2, 3)
    np.testing.assert_allclose(got, full @ rho @ full.conj().T, atol=1e-12)


def test_apply_local_channel_two_sites_unordered():
    rng = np.random.default_rng(14)
    rho = random_state(8, rng)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    U = np.linalg.qr(m)[0]
    got = apply_local_channel(rho, natural_rep(U), [2, 0], 2, 3)
    full = embed_operator(U, [2, 0], 2, 3)
    np.testing.assert_allclose(got, full @ rho @ full.conj().T, atol=1e-12)


# -- local operators against kron and an explicit basis permutation --------------


@st.composite
def footprints(draw):
    """(d, n, positions): d^n <= 125 and 1-2 sites in any order."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 6, 3: 4, 5: 3}[d]))
    k = draw(st.integers(1, min(2, n)))
    return d, n, tuple(draw(st.permutations(range(n)))[:k])


def site_permutation(positions, d, n):
    """P with P (A (x) B) P^T acting as A on positions (in order) and B on the other sites."""
    order = list(positions) + [i for i in range(n) if i not in positions]
    P = np.zeros((d**n, d**n))
    for digits in itertools.product(range(d), repeat=n):
        local = [digits[i] for i in order]
        P[np.ravel_multi_index(digits, (d,) * n), np.ravel_multi_index(local, (d,) * n)] = 1.0
    return P


def dense_on_sites(K, positions, d, n):
    P = site_permutation(positions, d, n)
    return P @ np.kron(K, np.eye(d ** (n - len(positions)))) @ P.T


def random_matrix(rng, D):
    return (rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))) / D


@settings(max_examples=40)
@given(site=footprints(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
def test_apply_local_kraus_matches_dense(site, seed, count):
    d, n, positions = site
    rng = np.random.default_rng(seed)
    rho = random_matrix(rng, d**n)
    kraus = [random_matrix(rng, d ** len(positions)) for _ in range(count)]
    want = sum(E @ rho @ E.conj().T for E in (dense_on_sites(K, positions, d, n) for K in kraus))
    np.testing.assert_allclose(apply_local_kraus(rho, kraus, positions, d, n), want, atol=1e-12)


@settings(max_examples=40)
@given(site=footprints(), seed=st.integers(0, 2**32 - 1))
def test_apply_local_channel_matches_dense(site, seed):
    d, n, positions = site
    rng = np.random.default_rng(seed)
    rho = random_matrix(rng, d**n)
    Dk = d ** len(positions)
    # rho -> sum_j A_j rho B_j^dagger, whose column-stacked matrix is sum_j conj(B_j) (x) A_j
    pairs = [(random_matrix(rng, Dk), random_matrix(rng, Dk)) for _ in range(2)]
    C = Superoperator(Dk, sum(np.kron(B.conj(), A) for A, B in pairs))
    want = sum(
        dense_on_sites(A, positions, d, n) @ rho @ dense_on_sites(B, positions, d, n).conj().T
        for A, B in pairs
    )
    np.testing.assert_allclose(apply_local_channel(rho, C, positions, d, n), want, atol=1e-12)


def channel_through_the_site_layout(rho, C, positions, d, n):
    """The four-copy route: into the site layout, (footprint columns, footprint
    rows, other rows, other columns) for the product, and back."""
    t = to_sites(rho, positions, d, n)
    Dk, R = t.shape[0], t.shape[1]
    out = C.matrix @ t.transpose(3, 0, 1, 2).reshape(Dk * Dk, R * R)
    return from_sites(out.reshape(Dk, Dk, R, R).transpose(1, 2, 3, 0), positions, d, n)


@pytest.mark.parametrize("d", [2, 3, 5])
@settings(max_examples=25)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_apply_local_channel_equals_the_site_layout_route_bit_for_bit(d, data, seed):
    n = data.draw(st.integers(2, {2: 6, 3: 4, 5: 3}[d]))
    positions = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, 2))])
    rng = np.random.default_rng(seed)
    rho = random_matrix(rng, d**n)
    Dk = d ** len(positions)
    C = Superoperator(Dk, random_matrix(rng, Dk * Dk))
    got = np.ascontiguousarray(apply_local_channel(rho, C, positions, d, n))
    want = np.ascontiguousarray(channel_through_the_site_layout(rho, C, positions, d, n))
    assert got.shape == (d**n, d**n)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def random_unitary(rng, D):
    return np.linalg.qr(rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)))[0]


@st.composite
def unitary_footprints(draw):
    """(d, n, positions) with Dk <= 32 on either side of the Kraus route's bound
    Dk >= 8: the whole register in order, or any sites in any order."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 6, 3: 4, 5: 3}[d]))
    k_max = {2: 5, 3: 3, 5: 2}[d]
    if n <= k_max and draw(st.booleans()):
        return d, n, tuple(range(n))
    k = draw(st.integers(1, min(k_max, n)))
    return d, n, tuple(draw(st.permutations(range(n)))[:k])


@settings(max_examples=60)
@given(site=unitary_footprints(), seed=st.integers(0, 2**32 - 1))
def test_unitary_channels_match_the_matrix_route(site, seed):
    d, n, positions = site
    rng = np.random.default_rng(seed)
    rho = random_matrix(rng, d**n)
    U = random_unitary(rng, d ** len(positions))
    C = natural_rep(U)
    got = apply_local_channel(rho, C, positions, d, n)
    want = channel_through_the_site_layout(rho, C, positions, d, n)
    assert got.shape == (d**n, d**n)
    if len(C.kraus) * 8 <= C.dim:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(got, want)


def test_unitary_route_covers_both_sides_of_its_bound():
    """Below Dk = 8 the matrix route keeps its bits; from Dk = 8 on, the bits are
    those of apply_local_kraus, the whole register in order included."""
    rng = np.random.default_rng(17)
    for d, n, positions, kraus_route in [
        (2, 3, (2, 0), False),
        (5, 2, (1,), False),
        (2, 3, (0, 1, 2), True),
        (2, 4, (3, 0, 2), True),
        (3, 3, (2, 0), True),
    ]:
        rho = random_matrix(rng, d**n)
        U = random_unitary(rng, d ** len(positions))
        got = apply_local_channel(rho, natural_rep(U), positions, d, n)
        if kraus_route:
            want = apply_local_kraus(rho, (U,), positions, d, n)
        else:
            want = channel_through_the_site_layout(rho, natural_rep(U), positions, d, n)
        assert np.array_equal(got, want)
        full = dense_on_sites(U, positions, d, n)
        np.testing.assert_allclose(got, full @ rho @ full.conj().T, atol=1e-12)


def channels_without_a_kraus_form():
    rng = np.random.default_rng(18)
    U, V = random_unitary(rng, 4), random_unitary(rng, 4)
    xx = WeylOperator.from_label("XX")
    zi = WeylOperator.from_label("ZI")
    return {
        "compose": compose(natural_rep(U), natural_rep(V)),
        "average": average([natural_rep(U), natural_rep(V)]),
        "twirl": twirl(natural_rep(U), [WeylOperator.identity(2, 2), xx, zi]),
        "stochastic_weyl": stochastic_weyl({WeylOperator.identity(2, 2): 0.75, xx: 0.25}),
        "json": _superop_from_json(_superop_to_json(Superoperator(4, natural_rep(U).matrix)), "$"),
        "constructor": Superoperator(4, natural_rep(U).matrix),
    }


@pytest.mark.parametrize("name", sorted(channels_without_a_kraus_form()))
@pytest.mark.parametrize("d_n_positions", [(2, 2, (0, 1)), (2, 3, (2, 0)), (2, 4, (1, 3))])
def test_channels_without_a_kraus_form_keep_the_matrix_route_bit_for_bit(name, d_n_positions):
    d, n, positions = d_n_positions
    C = channels_without_a_kraus_form()[name]
    assert C.kraus is None
    rho = random_matrix(np.random.default_rng(19), d**n)
    got = apply_local_channel(rho, C, positions, d, n)
    assert np.array_equal(got, channel_through_the_site_layout(rho, C, positions, d, n))


def test_natural_rep_keeps_a_read_only_copy_of_its_matrix():
    m = np.array([[0, 1], [1j, 0]], dtype=complex)
    C = natural_rep(m)
    (K,) = C.kraus
    assert np.array_equal(K, m) and not np.shares_memory(K, m)
    assert not K.flags.writeable
    assert m.flags.writeable
    m[0, 0] = 5.0
    assert K[0, 0] == 0


def test_superoperator_checks_its_kraus_shapes():
    with pytest.raises(DimensionError, match="Kraus operator has shape"):
        Superoperator(2, np.eye(4), kraus=(np.eye(3),))
    kraus = Superoperator(2, np.eye(4), kraus=[np.eye(2)]).kraus
    assert isinstance(kraus, tuple) and kraus[0].dtype == complex


def kraus_through_the_site_layout(rho, kraus, positions, d, n):
    """sum_K K rho K^dagger written out: into the site layout, two products per
    operator, summed from the first term, and back."""
    t = to_sites(rho, positions, d, n)
    Dk = t.shape[0]
    terms = [(K @ t.reshape(Dk, -1)).reshape(-1, Dk) @ K.conj().T for K in kraus]
    out = terms[0]
    for term in terms[1:]:
        out += term
    return from_sites(out, positions, d, n)


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
def test_apply_local_kraus_keeps_the_bits_of_the_measurement_kernel(d, data, seed, count):
    """The Kraus sum that logical measurements ran through, written out in the test."""
    n = data.draw(st.integers(2, {2: 6, 3: 4}[d]))
    positions = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(2, min(3, n)))])
    if list(positions) == sorted(positions):
        positions = positions[::-1]
    rng = np.random.default_rng(seed)
    rho = random_matrix(rng, d**n)
    kraus = tuple(random_matrix(rng, d ** len(positions)) for _ in range(count))
    got = apply_local_kraus(rho, kraus, positions, d, n)
    assert np.array_equal(got, kraus_through_the_site_layout(rho, kraus, positions, d, n))


def test_an_outcome_without_operators_yields_the_zero_state():
    """A basis of one outcome's block and one outcome without columns."""
    rng = np.random.default_rng(16)
    rho = random_matrix(rng, 27)
    v = np.linalg.qr(random_matrix(rng, 3))[0][:, :1]
    kept, empty = apply_local_measurement(rho, ((v, (1,)), (np.zeros((3, 0)), ())), (2,), 3, 3)
    assert empty.shape == (27, 27) and not np.any(empty)
    assert np.max(np.abs(kept - apply_local_kraus(rho, (v @ v.conj().T,), (2,), 3, 3))) <= 1e-12


@settings(max_examples=40)
@given(site=footprints(), seed=st.integers(0, 2**32 - 1))
def test_partial_trace_matches_dense(site, seed):
    d, n, keep = site
    rng = np.random.default_rng(seed)
    rho = random_matrix(rng, d**n)
    P = site_permutation(keep, d, n)
    ordered = P.T @ rho @ P  # keep's sites first, in keep's order
    eye = np.eye(d ** len(keep))
    want = sum(
        np.kron(eye, e[None, :]) @ ordered @ np.kron(eye, e[:, None])
        for e in np.eye(d ** (n - len(keep)))
    )
    np.testing.assert_allclose(partial_trace(rho, keep, d, n), want, atol=1e-12)
