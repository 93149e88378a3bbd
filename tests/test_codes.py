import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrc.codes import (
    BUILTIN_CODE_NAMES,
    CodeValidationError,
    StabilizerCode,
    builtin_code,
    code_from_dict,
    code_to_dict,
    codespace_projector,
    cospace_table,
    encoding_isometry,
    enumerate_pure_errors,
    enumerate_stabilizers,
    logical_basis_state,
    logical_weyls,
    projector_for_syndrome,
    syndrome_of,
    trivial_code,
)
from lrc.weyl import WeylOperator, braiding_exponent, roots_of_unity

ALL_CODES = [builtin_code(name) for name in BUILTIN_CODE_NAMES]


def brute_force_closure(gens, d, n):
    """Independent group-closure oracle over phase-free (x, z) pairs."""
    seen = {((0,) * n, (0,) * n)}
    frontier = [WeylOperator.identity(d, n)]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                p = a.mul(g)
                key = (p.x, p.z)
                if key not in seen:
                    seen.add(key)
                    nxt.append(p)
        frontier = nxt
    return seen


def test_bitflip_stabilizer_enumeration():
    code = builtin_code("bitflip3")
    labels = {(s.x, s.z) for s in enumerate_stabilizers(code)}
    expect = {
        (w.x, w.z)
        for w in map(WeylOperator.from_label, ["III", "ZZI", "IZZ", "ZIZ"])
    }
    assert labels == expect
    assert enumerate_stabilizers(code)[0].is_identity()


def test_trivial_code_enumeration():
    code = trivial_code(2, 2)
    assert enumerate_stabilizers(code) == (WeylOperator.identity(2, 2),)
    assert len(logical_weyls(code)) == 16


def test_five_one_three_group_order_matches_brute_force():
    code = builtin_code("five_one_three")
    stabs = enumerate_stabilizers(code)
    assert len(stabs) == 16
    closure = brute_force_closure(code.stab_gens, 2, 5)
    assert {(s.x, s.z) for s in stabs} == closure


def test_duplicate_generators_rejected():
    z = WeylOperator.from_label("ZZI")
    with pytest.raises(CodeValidationError):
        StabilizerCode(
            d=2,
            n=3,
            k=1,
            stab_gens=(z, z),
            pure_error_gens=(
                WeylOperator.from_label("XII"),
                WeylOperator.from_label("IXI"),
            ),
            logical_gens=(WeylOperator.from_label("XXX"), WeylOperator.from_label("ZZZ")),
        )


def test_anticommuting_generators_rejected():
    with pytest.raises(CodeValidationError):
        StabilizerCode(
            d=2,
            n=2,
            k=0,
            stab_gens=(WeylOperator.from_label("XI"), WeylOperator.from_label("ZI")),
            pure_error_gens=(
                WeylOperator.from_label("ZI"),
                WeylOperator.from_label("IZ"),
            ),
            logical_gens=(),
        )


def test_phase_multiple_of_identity_rejected():
    # (XZ)^2 = -I, so XZ alone is not a valid stabilizer generator.
    xz = WeylOperator(2, (1,), (1,))
    with pytest.raises(CodeValidationError):
        StabilizerCode(
            d=2,
            n=1,
            k=0,
            stab_gens=(xz,),
            pure_error_gens=(WeylOperator.from_label("X"),),
            logical_gens=(),
        )


def test_bitflip_codespace_projector_matches_spans():
    code = builtin_code("bitflip3")
    P = codespace_projector(code)
    expect = np.zeros((8, 8))
    expect[0, 0] = expect[7, 7] = 1
    np.testing.assert_allclose(P, expect, atol=1e-14)


def test_trivial_codespace_projector_is_identity():
    assert np.allclose(codespace_projector(trivial_code(2, 2)), np.eye(4))


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_codespace_projector_idempotent_with_rank(code):
    P = codespace_projector(code)
    np.testing.assert_allclose(P @ P, P, atol=1e-12)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-12)
    eig = np.linalg.eigvalsh(np.asarray(P))
    assert int(round(eig.sum())) == code.d**code.k


def test_bitflip_cospace_projector_example():
    code = builtin_code("bitflip3")
    P = projector_for_syndrome(code, syndrome_of(code, WeylOperator.from_label("XII")))
    expect = np.zeros((8, 8))
    expect[4, 4] = expect[3, 3] = 1  # |100> and |011>
    np.testing.assert_allclose(P, expect, atol=1e-14)


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_cospace_projector_two_forms_agree(code):
    # Character-sum oracle: E_S conj(chi_T(S)) S, phases evaluated densely.
    stabs = enumerate_stabilizers(code)
    for T in enumerate_pure_errors(code):
        lhs = projector_for_syndrome(code, syndrome_of(code, T))
        rhs = np.zeros((code.dim, code.dim), dtype=complex)
        for S in stabs:
            rhs += np.conj(roots_of_unity(code.d)[2 * braiding_exponent(T, S)]) * S.to_matrix()
        rhs /= len(stabs)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_cospace_orthogonality_and_completeness(code):
    projs = [projector_for_syndrome(code, syndrome_of(code, T)) for T in enumerate_pure_errors(code)]
    total = np.zeros((code.dim, code.dim), dtype=complex)
    for i, P in enumerate(projs):
        total += P
        for j, Q in enumerate(projs):
            expect = P if i == j else np.zeros_like(np.asarray(P))
            assert np.max(np.abs(P @ Q - expect)) < 1e-12
    np.testing.assert_allclose(total, np.eye(code.dim), atol=1e-12)


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_both_cospace_lookups_read_one_cached_conjugation(code):
    codespace = np.asarray(codespace_projector(code))
    table = cospace_table(code)
    assert list(table) == [syndrome_of(code, T) for T in enumerate_pure_errors(code)]
    for T in enumerate_pure_errors(code):
        t, P = table[syndrome_of(code, T)]
        assert t is T and P is projector_for_syndrome(code, syndrome_of(code, T))
        assert not P.flags.writeable
        expect = WeylOperator(code.d, T.x, T.z).conjugate_matrix(codespace)
        assert np.array_equal(P.view(np.float64), expect.view(np.float64))


def test_syndrome_examples():
    code = builtin_code("bitflip3")
    for s in enumerate_stabilizers(code):
        assert syndrome_of(code, s) == (0, 0)
    assert syndrome_of(code, WeylOperator.from_label("XII")) == (1, 0)
    assert syndrome_of(code, WeylOperator.from_label("IXI")) == (1, 1)


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_syndrome_bijective_on_pure_errors(code):
    syns = {syndrome_of(code, t) for t in enumerate_pure_errors(code)}
    assert len(syns) == code.d ** (code.n - code.k)


def test_bitflip_pure_errors_documented_choice():
    code = builtin_code("bitflip3")
    labels = {(t.x, t.z) for t in enumerate_pure_errors(code)}
    expect = {
        (w.x, w.z)
        for w in map(WeylOperator.from_label, ["III", "XII", "IXI", "XXI"])
    }
    assert labels == expect


def test_phaseflip_is_hadamard_conjugate_of_bitflip():
    code = builtin_code("phaseflip3")
    bflip = builtin_code("bitflip3")
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    H3 = np.kron(np.kron(H, H), H)
    np.testing.assert_allclose(
        codespace_projector(code),
        H3 @ codespace_projector(bflip) @ H3,
        atol=1e-12,
    )


def test_qutrit_rep3_passes_validation_and_has_nine_stabilizers():
    code = builtin_code("qutrit_rep3")
    assert len(enumerate_stabilizers(code)) == 9
    assert len(enumerate_pure_errors(code)) == 9
    assert len(logical_weyls(code)) == 9


def test_unknown_builtin_name():
    with pytest.raises(ValueError):
        builtin_code("steane7")


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_logical_weyls_commute_with_stabilizers(code):
    for l in logical_weyls(code):
        for g in code.stab_gens:
            assert braiding_exponent(l, g) == 0


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_encoding_isometry_carries_standard_action(code):
    V = encoding_isometry(code)
    dk = code.d**code.k
    np.testing.assert_allclose(V.conj().T @ V, np.eye(dk), atol=1e-12)
    # Logical X and Z reduce to the standard shift and clock.
    shift = np.zeros((code.d, code.d))
    for j in range(code.d):
        shift[(j + 1) % code.d, j] = 1
    clock = np.diag([np.exp(2j * np.pi * j / code.d) for j in range(code.d)])
    for i in range(code.k):
        dims = [code.d] * code.k
        ident = [np.eye(code.d)] * code.k
        for base, local in [(code.logical_x(i), shift), (code.logical_z(i), clock)]:
            ops = list(ident)
            ops[i] = local
            expect = ops[0]
            for o in ops[1:]:
                expect = np.kron(expect, o)
            got = V.conj().T @ base.to_matrix() @ V
            np.testing.assert_allclose(got, expect, atol=1e-10)


def old_encoding_isometry(code):
    """encoding_isometry with the matrix_power sum that the Weyl eigenprojector replaced."""
    proj = np.array(codespace_projector(code))
    for i in range(code.k):
        zbar = code.logical_z(i).to_matrix()
        proj = proj @ (sum(np.linalg.matrix_power(zbar, j) for j in range(code.d)) / code.d)
    v0 = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    v0 = v0 / np.linalg.norm(v0)
    lead = v0[np.argmax(np.abs(v0) > 1e-12)]
    v0 = v0 * (abs(lead) / lead)
    cols = []
    for b in itertools.product(range(code.d), repeat=code.k):
        v = v0
        for i, bi in enumerate(b):
            v = (code.logical_x(i) ** bi).apply_to_vector(v)
        cols.append(v)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("name", ["bitflip3", "phaseflip3", "five_one_three"])
def test_encoding_isometry_keeps_its_qubit_bits(name):
    code = builtin_code(name)
    V = encoding_isometry(code)
    assert np.array_equal(V.view(np.float64), old_encoding_isometry(code).view(np.float64))


def test_bitflip_codewords():
    code = builtin_code("bitflip3")
    zero = logical_basis_state(code, (0,))
    one = logical_basis_state(code, (1,))
    expect0 = np.zeros(8)
    expect0[0] = 1
    expect1 = np.zeros(8)
    expect1[7] = 1
    np.testing.assert_allclose(zero, expect0, atol=1e-12)
    np.testing.assert_allclose(one, expect1, atol=1e-12)


@pytest.mark.parametrize("code", ALL_CODES, ids=BUILTIN_CODE_NAMES)
def test_json_round_trip(code):
    assert code_from_dict(json.loads(json.dumps(code_to_dict(code)))) == code


def test_equal_codes_built_apart_share_one_cache_entry():
    """The hash is computed once per code, from the same fields equality reads."""
    a = builtin_code("bitflip3")
    b = code_from_dict(json.loads(json.dumps(code_to_dict(a))))
    assert a is not b and a == b and hash(a) == hash(b)
    fields = (a.d, a.n, a.k, a.stab_gens, a.pure_error_gens, a.logical_gens)
    assert hash(a) == hash(fields)
    enumerate_stabilizers(a)
    before = enumerate_stabilizers.cache_info()
    assert enumerate_stabilizers(b) is enumerate_stabilizers(a)
    after = enumerate_stabilizers.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits + 2, before.misses, before.currsize)
    assert repr(a) == (
        "StabilizerCode(d=2, n=3, k=1, "
        "stab_gens=(WeylOperator('0;0,0,0;1,1,0;2'), WeylOperator('0;0,0,0;0,1,1;2')), "
        "pure_error_gens=(WeylOperator('0;1,0,0;0,0,0;2'), WeylOperator('0;0,1,0;0,0,0;2')), "
        "logical_gens=(WeylOperator('0;1,1,1;0,0,0;2'), WeylOperator('0;0,0,0;1,1,1;2')))"
    )
    assert code_to_dict(b) == {
        "d": 2,
        "n": 3,
        "k": 1,
        "stabilizer_generators": ["0;0,0,0;1,1,0;2", "0;0,0,0;0,1,1;2"],
        "pure_error_generators": ["0;1,0,0;0,0,0;2", "0;0,1,0;0,0,0;2"],
        "logical_generators": ["0;1,1,1;0,0,0;2", "0;0,0,0;1,1,1;2"],
    }
    assert b != StabilizerCode(a.d, a.n, a.k, a.stab_gens, a.pure_error_gens, a.logical_gens[::-1])


_BITFLIP3 = code_to_dict(builtin_code("bitflip3"))
_NO_LOGICALS = {k: v for k, v in _BITFLIP3.items() if k != "logical_generators"}


@pytest.mark.parametrize(
    "data,message",
    [
        ({"d": 2}, "code definition lacks the field 'n'"),
        (_NO_LOGICALS, "code definition lacks the field 'logical_generators'"),
        ([1], "a code definition must be a JSON object, not [1]"),
        ("bitflip3", "a code definition must be a JSON object, not 'bitflip3'"),
        ({**_BITFLIP3, "d": "2"}, "code field 'd' must be an integer, not '2'"),
        ({**_BITFLIP3, "n": 3.9}, "code field 'n' must be an integer, not 3.9"),
        ({**_BITFLIP3, "k": True}, "code field 'k' must be an integer, not True"),
        ({**_BITFLIP3, "stabilizer_generators": "ZZI"}, "code field 'stabilizer_generators' must be a JSON list, not 'ZZI'"),
        ({**_BITFLIP3, "pure_error_generators": [5]}, "code field 'pure_error_generators'[0] must be a string, not 5"),
        ({**_BITFLIP3, "logical_generators": None}, "code field 'logical_generators' must be a JSON list, not None"),
        (
            {**_BITFLIP3, "stabilizer_generators": ["0;1;0;2", "ZZI"]},
            "code field 'stabilizer_generators'[1]: malformed operator text 'ZZI'",
        ),
        (
            {**_BITFLIP3, "logical_generators": ["0;1;x;2"]},
            "code field 'logical_generators'[0]: invalid literal for int() with base 10: 'x'",
        ),
    ],
)
def test_code_from_dict_names_what_is_malformed(data, message):
    with pytest.raises(CodeValidationError) as info:
        code_from_dict(data)
    assert str(info.value) == message


def unencoded_code(d: int, k: int) -> dict:
    """k bare qudits of dimension d as a code: no stabilizers, X_i and Z_i logical."""
    def unit(i):
        return ",".join("1" if j == i else "0" for j in range(k))

    zero = ",".join(["0"] * k)
    logicals = [text for i in range(k) for text in (f"0;{unit(i)};{zero};{d}", f"0;{zero};{unit(i)};{d}")]
    return {"d": d, "n": k, "k": k, "stabilizer_generators": [], "pure_error_generators": [], "logical_generators": logicals}


@pytest.mark.parametrize("d,k", [(10**7, 1), (65, 1), (5, 3)])
def test_a_logical_group_above_the_enumeration_bound_is_refused(d, k):
    """A logical twirl lists all d^(2k) logical Weyls, so no code may have more
    than MAX_GROUP_ORDER of them."""
    with pytest.raises(CodeValidationError, match=f"logical group order {d ** (2 * k)} exceeds"):
        code_from_dict(unencoded_code(d, k))


def test_a_logical_group_at_the_enumeration_bound_is_accepted():
    assert code_from_dict(unencoded_code(64, 1)).k == 1
    assert code_from_dict(unencoded_code(2, 6)).k == 6
    assert max(code.d ** (2 * code.k) for code in ALL_CODES) == 9


# -- mutated code definitions against dense matrix checks ----------------------


def _code_dict(d, n, k, stabs, pures, logicals) -> dict:
    """The JSON form of a code given by (x, z) pairs, validated on the way."""
    def ops(pairs):
        return tuple(WeylOperator(d, x, z) for x, z in pairs)

    return code_to_dict(StabilizerCode(d, n, k, ops(stabs), ops(pures), ops(logicals)))


def _unit(n, i, power=1):
    return tuple(power if j == i else 0 for j in range(n))


def _mutation_bases() -> list:
    """Valid codes over d in {2, 3, 5} and n <= 3: Z- and X-type repetition codes, bare
    qudits, and the Bell pair X X, Z Z^-1 (k = 0)."""
    out = []
    for d in (2, 3, 5):
        for n in (2, 3):
            zero = (0,) * n
            checks = [tuple(a + b for a, b in zip(_unit(n, i), _unit(n, i + 1, d - 1))) for i in range(n - 1)]
            singles = [_unit(n, i) for i in range(n - 1)]
            out.append(_code_dict(d, n, 1, [(zero, c) for c in checks], [(s, zero) for s in singles],
                                  [((1,) * n, zero), (zero, _unit(n, 0))]))
            out.append(_code_dict(d, n, 1, [(c, zero) for c in checks], [(zero, s) for s in singles],
                                  [(_unit(n, 0), zero), (zero, (1,) * n)]))
            out.append(code_to_dict(trivial_code(d, n - 1)))
        out.append(_code_dict(d, 2, 0, [((1, 1), (0, 0)), ((0, 0), (1, d - 1))],
                              [((0, 0), (1, 0)), ((1, 0), (0, 0))], []))
    return out


MUTATION_BASES = _mutation_bases()


def dense_checks_pass(data: dict) -> bool:
    """Whether a code definition passes every check, each made on dense matrices: the
    stabilizers commute, have order d with trivial phase and generate d^(n-k) operators
    distinct up to phase; the pure errors have distinct syndromes; the logicals have order
    d, commute with the stabilizers and with each other except that logical X_i and Z_i
    commute as the single-qudit X and Z do."""
    d, n, k = data["d"], data["n"], data["k"]
    S, T, L = ([WeylOperator.from_string(t).to_matrix() for t in data[key]] for key in
               ("stabilizer_generators", "pure_error_generators", "logical_generators"))
    eye = np.eye(d**n)
    X, Z = WeylOperator.x_op(d, 1).to_matrix(), WeylOperator.z_op(d, 1).to_matrix()
    braid = (X @ Z @ X.conj().T @ Z.conj().T)[0, 0]

    def commutator(a, b):  # a b a^-1 b^-1, a phase times the identity for Weyl operators
        return a @ b @ a.conj().T @ b.conj().T

    def products(gens):
        out = []
        for powers in itertools.product(range(d), repeat=len(gens)):
            acc = eye
            for g, a in zip(gens, powers):
                acc = acc @ np.linalg.matrix_power(g, a)
            out.append(acc)
        return out

    def up_to_phase(M):
        first = M.flat[np.flatnonzero(np.abs(M) > 0.5)[0]]
        return (np.round(M / first, 8) + 0.0).tobytes()

    def syndrome(t):
        return tuple(complex(np.round(commutator(t, s)[0, 0], 8) + 0.0) for s in S)

    checks = [np.allclose(np.linalg.matrix_power(g, d), eye) for g in S + L]
    checks += [np.allclose(commutator(a, b), eye) for a, b in itertools.combinations(S, 2)]
    checks.append(len({up_to_phase(M) for M in products(S)}) == d ** (n - k))
    checks.append(len({syndrome(t) for t in products(T)}) == d ** (n - k))
    checks += [np.allclose(commutator(l, s), eye) for l in L for s in S]
    for i, j in itertools.product(range(k), repeat=2):
        checks.append(np.allclose(commutator(L[2 * i], L[2 * j + 1]), (braid if i == j else 1.0) * eye))
        checks.append(np.allclose(commutator(L[2 * i], L[2 * j]), eye))
        checks.append(np.allclose(commutator(L[2 * i + 1], L[2 * j + 1]), eye))
    return all(checks)


def test_the_mutation_bases_pass_the_dense_checks():
    assert len(MUTATION_BASES) == 21 and all(map(dense_checks_pass, MUTATION_BASES))


@settings(max_examples=150)
@given(st.data())
def test_a_mutated_code_is_refused_exactly_when_a_dense_check_fails(data):
    """One x or z digit, or the phase, of one generator of a valid code is changed."""
    base = data.draw(st.sampled_from(MUTATION_BASES))
    d, n = base["d"], base["n"]
    field = data.draw(st.sampled_from([key for key in base if isinstance(base[key], list) and base[key]]))
    index = data.draw(st.integers(0, len(base[field]) - 1))
    op = WeylOperator.from_string(base[field][index])
    part = data.draw(st.sampled_from(("x", "z", "phase")))
    if part == "phase":
        op = op.with_phase_exp(op.phase_exp + data.draw(st.integers(1, 2 * d - 1)))
    else:
        digits = list(getattr(op, part))
        digits[data.draw(st.integers(0, n - 1))] += data.draw(st.integers(1, d - 1))
        op = WeylOperator(d, **{"x": op.x, "z": op.z, part: digits}, phase_exp=op.phase_exp)
    mutated = {**base, field: [*base[field][:index], op.to_string(), *base[field][index + 1:]]}
    if dense_checks_pass(mutated):
        code_from_dict(mutated)
    else:
        with pytest.raises(CodeValidationError):
            code_from_dict(mutated)
