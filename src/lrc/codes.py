"""Stabilizer code definitions, syndrome structure and projectors.

A code on n qudits of dimension d encoding k logical qudits is specified by
n-k stabilizer generators, n-k pure-error generators and 2k logical
generators ordered as (logical X_1, logical Z_1, ..., logical X_k,
logical Z_k).  Validation runs eagerly at construction: the stabilizer
generators must commute, generate d^(n-k) distinct elements containing no
nontrivial phase multiple of the identity, the pure errors must enumerate
every syndrome exactly once, and the logical generators must commute with
the stabilizers while braiding pairwise like single-qudit X and Z.  A code
whose stabilizer group order d^(n-k) or logical group order d^(2k) (up to
phases) exceeds ``MAX_GROUP_ORDER`` is refused before anything is enumerated.

Pure-error generators are stored with phase exponent zero; cospace
projectors do not depend on that choice.  Logical generators keep whatever
phase the definition supplies.
"""

from __future__ import annotations

import functools
import itertools
import json
import types
from dataclasses import dataclass

import numpy as np

from .weyl import DimensionError, WeylOperator, braiding_exponent, budgeted_cache, eigenprojector, iter_weyls

BUILTIN_CODE_NAMES = ("bitflip3", "phaseflip3", "five_one_three", "qutrit_rep3")

#: Largest stabilizer group order d^(n-k), and logical group order d^(2k), a
#: code may have: validation and the syndrome tables enumerate the group and its
#: pure errors element by element, and logical twirls the logical Weyls.
MAX_GROUP_ORDER = 4096


class CodeValidationError(ValueError):
    """A stabilizer code definition violates a structural requirement."""


@dataclass(frozen=True)
class StabilizerCode:
    d: int
    n: int
    k: int
    stab_gens: tuple
    pure_error_gens: tuple
    logical_gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "stab_gens", tuple(self.stab_gens))
        object.__setattr__(
            self,
            "pure_error_gens",
            tuple(t.with_phase_exp(0) for t in self.pure_error_gens),
        )
        object.__setattr__(self, "logical_gens", tuple(self.logical_gens))
        # Hashed once: every lru_cache keyed by a code hashes it on each lookup.
        fields = (self.d, self.n, self.k, self.stab_gens, self.pure_error_gens, self.logical_gens)
        object.__setattr__(self, "_hash", hash(fields))
        _validate(self)

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @property
    def n_generators(self) -> int:
        return self.n - self.k

    def logical_x(self, i: int = 0) -> WeylOperator:
        return self.logical_gens[2 * i]

    def logical_z(self, i: int = 0) -> WeylOperator:
        return self.logical_gens[2 * i + 1]

    def identity(self) -> WeylOperator:
        return WeylOperator.identity(self.d, self.n)


def _enumerate_products(gens, d: int, n: int):
    """All products g1^a1 ... gm^am, exponent tuples in lexicographic order."""
    out = []
    for powers in itertools.product(range(d), repeat=len(gens)):
        acc = WeylOperator.identity(d, n)
        for g, a in zip(gens, powers):
            acc = acc.mul(g**a)
        out.append(acc)
    return tuple(out)


def _validate(code: StabilizerCode):
    d, n, k = code.d, code.n, code.k
    if not (0 <= k <= n):
        raise CodeValidationError(f"invalid logical count k={k} for n={n}")
    if len(code.stab_gens) != n - k:
        raise CodeValidationError(
            f"expected {n - k} stabilizer generators, got {len(code.stab_gens)}"
        )
    if len(code.pure_error_gens) != n - k:
        raise CodeValidationError(
            f"expected {n - k} pure-error generators, got {len(code.pure_error_gens)}"
        )
    if len(code.logical_gens) != 2 * k:
        raise CodeValidationError(
            f"expected {2 * k} logical generators, got {len(code.logical_gens)}"
        )
    for op in code.stab_gens + code.pure_error_gens + code.logical_gens:
        if op.d != d or op.n != n:
            raise CodeValidationError(f"{op} does not act on {n} qudits of dimension {d}")
    if d ** (n - k) > MAX_GROUP_ORDER:
        raise CodeValidationError(
            f"stabilizer group order {d ** (n - k)} exceeds the enumeration bound {MAX_GROUP_ORDER}"
        )
    if d ** (2 * k) > MAX_GROUP_ORDER:
        raise CodeValidationError(
            f"logical group order {d ** (2 * k)} exceeds the enumeration bound {MAX_GROUP_ORDER}"
        )

    for i, g in enumerate(code.stab_gens):
        if g**d != WeylOperator.identity(d, n):
            raise CodeValidationError(
                f"stabilizer generator {i} does not have order dividing {d} "
                "with trivial phase"
            )
        for j, h in enumerate(code.stab_gens[i + 1 :], start=i + 1):
            if braiding_exponent(g, h) != 0:
                raise CodeValidationError(f"stabilizer generators {i} and {j} do not commute")

    stabs = _enumerate_products(code.stab_gens, d, n)
    if len({(s.x, s.z) for s in stabs}) != d ** (n - k):
        raise CodeValidationError(
            "stabilizer generators are not a minimal generating set "
            f"(group order below {d ** (n - k)})"
        )

    # Each enumerated pure error must carry a distinct syndrome.
    seen = {}
    for powers, t in zip(
        itertools.product(range(d), repeat=n - k),
        _enumerate_products(code.pure_error_gens, d, n),
    ):
        syn = syndrome_of(code, t)
        if syn in seen:
            raise CodeValidationError(
                f"pure errors {seen[syn]} and {powers} share the syndrome {syn}"
            )
        seen[syn] = powers

    for i, l in enumerate(code.logical_gens):
        if l**d != WeylOperator.identity(d, n):
            raise CodeValidationError(
                f"logical generator {i} does not have order dividing {d} with trivial phase"
            )
        for j, g in enumerate(code.stab_gens):
            if braiding_exponent(l, g) != 0:
                raise CodeValidationError(
                    f"logical generator {i} does not commute with stabilizer generator {j}"
                )
    for i in range(k):
        for j in range(k):
            m = braiding_exponent(code.logical_x(i), code.logical_z(j))
            if m != (1 if i == j else 0):  # single-qudit X and Z braid with exponent 1
                raise CodeValidationError(f"logical pair ({i},{j}) braids with exponent {m}")
            if braiding_exponent(code.logical_x(i), code.logical_x(j)) != 0:
                raise CodeValidationError(f"logical X {i} and {j} do not commute")
            if braiding_exponent(code.logical_z(i), code.logical_z(j)) != 0:
                raise CodeValidationError(f"logical Z {i} and {j} do not commute")


@functools.lru_cache(maxsize=None)
def enumerate_stabilizers(code: StabilizerCode):
    """All d^(n-k) stabilizers, identity first, exact phases included."""
    return _enumerate_products(code.stab_gens, code.d, code.n)


@functools.lru_cache(maxsize=None)
def enumerate_pure_errors(code: StabilizerCode):
    """All d^(n-k) pure errors, identity first.

    Products of the phase-free generators; any phases arising from the
    products are irrelevant to syndromes and cospace projectors.
    """
    return _enumerate_products(code.pure_error_gens, code.d, code.n)


def syndrome_of(code: StabilizerCode, E: WeylOperator) -> tuple:
    """The syndrome of E: its tuple of braiding exponents against the stabilizer generators."""
    if E.d != code.d or E.n != code.n:
        raise DimensionError(f"{E} does not act on the code register")
    return tuple(braiding_exponent(E, g) for g in code.stab_gens)


# An entry holds one D x D matrix; `lrc verify --all` and the workloads read 5 keys.
@budgeted_cache(8, "projector dimension {} exceeds the dense cap", lambda code: (code.dim**2, code.dim))
def codespace_projector(code: StabilizerCode) -> np.ndarray:
    """Mean of all stabilizer matrices; Hermitian idempotent of rank d^k."""
    acc = np.zeros((code.dim, code.dim), dtype=complex)
    for s in enumerate_stabilizers(code):
        acc += s.to_matrix()
    acc /= len(enumerate_stabilizers(code))
    acc.setflags(write=False)
    return acc


# An entry holds d^(n-k) D x D projectors (16.8 MB for a 7-qubit repetition code).
@budgeted_cache(8, "{} cospace projectors of dimension {} exceed the dense cap",
                lambda code: (code.d ** (code.n - code.k) * code.dim**2, code.d ** (code.n - code.k), code.dim))
def cospace_table(code: StabilizerCode) -> types.MappingProxyType:
    """Read-only map from each syndrome to its pure error T and cospace projector
    T P T^dagger, in pure-error order; the projectors are read-only too."""
    codespace = np.asarray(codespace_projector(code))
    table = {}
    for t in enumerate_pure_errors(code):
        projector = t.conjugate_matrix(codespace)
        projector.setflags(write=False)
        table[syndrome_of(code, t)] = (t, projector)
    return types.MappingProxyType(table)


def projector_for_syndrome(code: StabilizerCode, syndrome: tuple) -> np.ndarray:
    return cospace_table(code)[syndrome][1]


@functools.lru_cache(maxsize=None)
def logical_weyls(code: StabilizerCode):
    """The d^(2k) channel-distinct logical Weyl operators.

    Products Xbar^a Zbar^b with (a, b) in lexicographic order; the identity
    comes first.
    """
    return _enumerate_products(code.logical_gens[0::2] + code.logical_gens[1::2], code.d, code.n)


def is_logical_weyl(code: StabilizerCode, op: WeylOperator) -> bool:
    return any(op.same_xz(l) for l in logical_weyls(code))


# An entry holds one D x d^k matrix (524 KB at D=16,384 and d^k=2).
@functools.lru_cache(maxsize=8)
def encoding_isometry(code: StabilizerCode) -> np.ndarray:
    """Isometry from the d^k logical space into the codespace.

    Column b is the codeword reached from the joint +1 eigenvector of the
    logical Z generators by applying Xbar^b, so the logical generators act
    as exact shift and clock operators in this basis.
    """
    d, k = code.d, code.k
    D = code.dim
    proj = np.array(codespace_projector(code))
    for i in range(k):
        proj = proj @ eigenprojector(code.logical_z(i))
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    v0 = proj[:, col]
    norm = np.linalg.norm(v0)
    if norm < 1e-9:
        raise CodeValidationError("could not isolate the logical zero state")
    v0 = v0 / norm
    lead = v0[np.argmax(np.abs(v0) > 1e-12)]
    v0 = v0 * (abs(lead) / lead)
    cols = []
    for b in itertools.product(range(d), repeat=k):
        v = v0
        for i, bi in enumerate(b):
            v = (code.logical_x(i) ** bi).apply_to_vector(v)
        cols.append(v)
    V = np.stack(cols, axis=1)
    if np.max(np.abs(V.conj().T @ V - np.eye(d**k))) > 1e-10:
        raise CodeValidationError("codeword basis is not orthonormal")
    V.setflags(write=False)
    return V


def logical_basis_state(code: StabilizerCode, dits) -> np.ndarray:
    """The encoded computational basis state |dits>."""
    dits = tuple(int(v) for v in dits)
    if len(dits) != code.k or any(not 0 <= v < code.d for v in dits):
        raise ValueError(f"invalid logical basis label {dits}")
    index = 0
    for v in dits:
        index = index * code.d + v
    return np.array(encoding_isometry(code)[:, index])


# -- builtin codes ---------------------------------------------------------


def _min_weight_unit_generators(d, n, stab_gens):
    """Minimum-weight generators with unit syndromes.

    Candidates are ordered by (weight, lexicographic (x, z)); generator i is
    the first operator whose syndrome is the i-th unit vector, which makes
    the enumerated pure-error group hit every syndrome exactly once.
    """
    ranked = sorted(iter_weyls(d, n), key=lambda w: (w.weight(), w.x, w.z))
    m = len(stab_gens)
    gens = []
    for i in range(m):
        target = tuple(1 if j == i else 0 for j in range(m))
        for w in ranked:
            syn = tuple(braiding_exponent(w, g) for g in stab_gens)
            if syn == target:
                gens.append(w)
                break
        else:
            raise CodeValidationError(f"no operator realises unit syndrome {target}")
    return tuple(gens)


def builtin_code(name: str) -> StabilizerCode:
    """One of bitflip3, phaseflip3, five_one_three, qutrit_rep3."""
    try:
        return _BUILTIN_FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; expected one of {', '.join(BUILTIN_CODE_NAMES)}"
        ) from None


@functools.lru_cache(maxsize=None)
def _bitflip3() -> StabilizerCode:
    lab = WeylOperator.from_label
    return StabilizerCode(
        d=2,
        n=3,
        k=1,
        stab_gens=(lab("ZZI"), lab("IZZ")),
        # Enumerates {III, XII, IXI, XXI}; syndromes (0,0),(1,0),(1,1),(0,1).
        pure_error_gens=(lab("XII"), lab("IXI")),
        logical_gens=(lab("XXX"), lab("ZZZ")),
    )


@functools.lru_cache(maxsize=None)
def _phaseflip3() -> StabilizerCode:
    lab = WeylOperator.from_label
    return StabilizerCode(
        d=2,
        n=3,
        k=1,
        stab_gens=(lab("XXI"), lab("IXX")),
        pure_error_gens=(lab("ZII"), lab("IZI")),
        logical_gens=(lab("ZZZ"), lab("XXX")),
    )


@functools.lru_cache(maxsize=None)
def _five_one_three() -> StabilizerCode:
    lab = WeylOperator.from_label
    stab = (lab("XZZXI"), lab("IXZZX"), lab("XIXZZ"), lab("ZXIXZ"))
    return StabilizerCode(
        d=2,
        n=5,
        k=1,
        stab_gens=stab,
        pure_error_gens=_min_weight_unit_generators(2, 5, stab),
        logical_gens=(lab("XXXXX"), lab("ZZZZZ")),
    )


@functools.lru_cache(maxsize=None)
def _qutrit_rep3() -> StabilizerCode:
    w = WeylOperator
    stab = (w(3, (0, 0, 0), (1, 2, 0)), w(3, (0, 0, 0), (0, 1, 2)))
    return StabilizerCode(
        d=3,
        n=3,
        k=1,
        stab_gens=stab,
        pure_error_gens=(w(3, (1, 0, 0), (0, 0, 0)), w(3, (0, 1, 0), (0, 0, 0))),
        logical_gens=(w(3, (1, 1, 1), (0, 0, 0)), w(3, (0, 0, 0), (1, 0, 0))),
    )


def trivial_code(d: int, n: int = 1) -> StabilizerCode:
    """The unencoded register: no stabilizers, site-wise logical pairs."""
    logicals = []
    for i in range(n):
        logicals.append(WeylOperator.x_op(d, n, i))
        logicals.append(WeylOperator.z_op(d, n, i))
    return StabilizerCode(
        d=d, n=n, k=n, stab_gens=(), pure_error_gens=(), logical_gens=tuple(logicals)
    )


_BUILTIN_FACTORIES = {
    "bitflip3": _bitflip3,
    "phaseflip3": _phaseflip3,
    "five_one_three": _five_one_three,
    "qutrit_rep3": _qutrit_rep3,
}


# -- JSON form ---------------------------------------------------------------


_CODE_FIELDS = ("d", "n", "k", "stabilizer_generators", "pure_error_generators", "logical_generators")


def code_to_dict(code: StabilizerCode) -> dict:
    return {
        "d": code.d,
        "n": code.n,
        "k": code.k,
        "stabilizer_generators": [g.to_string() for g in code.stab_gens],
        "pure_error_generators": [g.to_string() for g in code.pure_error_gens],
        "logical_generators": [g.to_string() for g in code.logical_gens],
    }


def _json_object(value, what: str, error, keys=None) -> dict:
    """value, if it is a JSON object whose keys are all among ``keys`` (any, if None);
    otherwise raises ``error``."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, not {value!r}")
    for key in value:
        if keys is not None and key not in keys:
            raise error(f"unknown key {key!r} in {what}; expected one of {', '.join(keys)}")
    return value


def _json_int(value, what: str, error) -> int:
    """value, if it is a JSON integer (not a boolean); otherwise raises ``error``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def _json_str(value, what: str, error) -> str:
    """value, if it is a JSON string; otherwise raises ``error``."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string, not {value!r}")
    return value


def _json_list(value, what: str, error, item) -> tuple:
    """value, if it is a JSON list, as the tuple of ``item(entry, its path, error)``;
    otherwise raises ``error``."""
    if not isinstance(value, list):
        raise error(f"{what} must be a JSON list, not {value!r}")
    return tuple(item(v, f"{what}[{j}]", error) for j, v in enumerate(value))


def _json_weyl(value, what: str, error) -> WeylOperator:
    """The operator whose text form is value; otherwise raises ``error``."""
    try:
        return WeylOperator.from_string(value)
    except (ValueError, TypeError, AttributeError) as exc:
        raise error(f"{what}: {exc}") from None


def _generators_from_json(data: dict, key: str) -> tuple:
    what = f"code field {key!r}"
    texts = _json_list(data[key], what, CodeValidationError, _json_str)
    return tuple(_json_weyl(t, f"{what}[{j}]", CodeValidationError) for j, t in enumerate(texts))


def code_from_dict(data: dict) -> StabilizerCode:
    _json_object(data, "a code definition", CodeValidationError)
    for key in _CODE_FIELDS:
        if key not in data:
            raise CodeValidationError(f"code definition lacks the field {key!r}")
    d, n, k = (_json_int(data[key], f"code field {key!r}", CodeValidationError) for key in "dnk")
    return StabilizerCode(
        d=d,
        n=n,
        k=k,
        stab_gens=_generators_from_json(data, "stabilizer_generators"),
        pure_error_gens=_generators_from_json(data, "pure_error_generators"),
        logical_gens=_generators_from_json(data, "logical_generators"),
    )


def load_code(spec: str) -> StabilizerCode:
    """Resolve a builtin name or a path to a code definition JSON file."""
    if spec in _BUILTIN_FACTORIES:
        return builtin_code(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return code_from_dict(json.load(fh))
