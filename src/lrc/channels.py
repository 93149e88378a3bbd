"""Dense quantum channels in the natural representation, plus states.

A channel acting on a D-dimensional system is a D^2 x D^2 matrix applied to
column-stacked density matrices, so the channel of a unitary M is
conj(M) (x) M.  Composition is written compose(A, B) with B applied first.

Structural identities are expected to hold to 1e-12 and physicality checks
to 1e-10; superoperators are restricted to D <= 64 while density matrices
may use the full dense capacity.

Every operator on a footprint of k of the n sites meets a d^n x d^n matrix
in one site layout: ``to_sites`` views the matrix as a (d^k, R, R, d^k)
tensor, R = d^(n-k), of footprint row digits (in footprint order), other row
digits, other column digits and footprint column digits; ``from_sites`` undoes it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .weyl import (
    CapacityError,
    DimensionError,
    WeylOperator,
    dense_limit,
    iter_weyls,
)

#: Largest Hilbert dimension representable as a dense superoperator.
SUPEROP_DIM_LIMIT = 64

HERMITICITY_TOL = 1e-10


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation."""
    return np.asarray(rho).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    D = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape((D, D), order="F")


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, WeylOperator):
        return op.to_matrix()
    return np.asarray(op, dtype=complex)


@dataclass(frozen=True)
class Superoperator:
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim > SUPEROP_DIM_LIMIT:
            raise CapacityError(
                f"superoperator dimension {self.dim} exceeds the cap {SUPEROP_DIM_LIMIT}"
            )
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"superoperator matrix has shape {m.shape}, expected "
                f"({self.dim**2}, {self.dim**2})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Apply to a raw matrix (no physicality checks)."""
        return unvec(self.matrix @ vec(rho))


def identity_channel(dim: int) -> Superoperator:
    return Superoperator(dim, np.eye(dim**2, dtype=complex))


def natural_rep(M) -> Superoperator:
    """The channel conj(M) (x) M of conjugation by a square matrix M."""
    m = _as_matrix(M)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return Superoperator(m.shape[0], np.kron(m.conj(), m))


def coherent_rotation(P: WeylOperator, theta: float) -> Superoperator:
    """Unitary channel of exp(-i*theta*P) for a Hermitian Weyl operator P.

    P must be Hermitian as a matrix so that the rotation reduces to
    cos(theta) I - i sin(theta) P.
    """
    M = P.to_matrix()
    if np.max(np.abs(M - M.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"{P} is not Hermitian; rotations are undefined for it")
    U = np.cos(theta) * np.eye(M.shape[0]) - 1j * np.sin(theta) * M
    return natural_rep(U)


def stochastic_weyl(probs) -> Superoperator:
    """Convex mixture of Weyl conjugations, sum_P p_P A(P)."""
    items = list(probs.items())
    if not items:
        raise ValueError("empty distribution")
    total = sum(p for _, p in items)
    if any(p < -1e-12 for _, p in items) or abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities must be nonnegative and sum to 1, got {total}")
    dim = items[0][0].dim
    acc = np.zeros((dim**2, dim**2), dtype=complex)
    for op, p in items:
        if op.dim != dim:
            raise DimensionError("mixture terms act on different registers")
        acc += p * natural_rep(op).matrix
    return Superoperator(dim, acc)


def compose(A: Superoperator, B: Superoperator) -> Superoperator:
    """The channel applying B first, then A."""
    if A.dim != B.dim:
        raise DimensionError(f"dimensions differ: {A.dim} vs {B.dim}")
    return Superoperator(A.dim, A.matrix @ B.matrix)


def average(channels) -> Superoperator:
    channels = list(channels)
    if not channels:
        raise ValueError("cannot average zero channels")
    dim = channels[0].dim
    acc = np.zeros_like(np.asarray(channels[0].matrix))
    for c in channels:
        if c.dim != dim:
            raise DimensionError("averaged channels act on different registers")
        acc = acc + c.matrix
    return Superoperator(dim, acc / len(channels))


def twirl(L: Superoperator, group) -> Superoperator:
    """Group-averaged conjugation E_G A(G^dagger) L A(G)."""
    elements = [_as_matrix(g) for g in group]
    if not elements:
        raise ValueError("empty twirling group")
    terms = []
    for g in elements:
        if g.shape[0] != L.dim:
            raise DimensionError("group element dimension does not match the channel")
        terms.append(compose(natural_rep(g.conj().T), compose(L, natural_rep(g))))
    return average(terms)


def factor_noise(Gamma: Superoperator, U) -> Superoperator:
    """The noise D with Gamma = compose(A(U), D), for unitary U."""
    m = _as_matrix(U)
    if np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) > 1e-10:
        raise ValueError("factoring requires a unitary ideal action")
    return compose(natural_rep(m.conj().T), Gamma)


@dataclass(frozen=True)
class DensityMatrix:
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"state has shape {m.shape}, expected ({self.dim},)*2")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, m, check: bool = True) -> "DensityMatrix":
        m = np.asarray(m, dtype=complex)
        state = cls(m.shape[0], m)
        if check:
            state.validate()
        return state

    @classmethod
    def from_vector(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(psi.size, np.outer(psi, psi.conj()))

    @classmethod
    def basis_state(cls, d: int, n: int, dits) -> "DensityMatrix":
        index = 0
        for v in dits:
            index = index * d + int(v)
        psi = np.zeros(d**n)
        psi[index] = 1.0
        return cls.from_vector(psi)

    def validate(self, atol_herm=1e-12, atol_trace=1e-12, eig_floor=-1e-10):
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > atol_herm:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(m) - 1.0) > atol_trace:
            raise ValueError(f"state trace is {np.trace(m)}, expected 1")
        if np.min(np.linalg.eigvalsh(np.asarray(m))) < eig_floor:
            raise ValueError("state has a significantly negative eigenvalue")
        return self

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def apply(C: Superoperator, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a state, restoring Hermiticity within tolerance."""
    if C.dim != rho.dim:
        raise DimensionError(f"dimensions differ: {C.dim} vs {rho.dim}")
    out = C(rho.matrix)
    drift = np.max(np.abs(out - out.conj().T))
    if drift > HERMITICITY_TOL:
        raise ValueError(f"channel output is non-Hermitian by {drift:.2e}")
    return DensityMatrix(rho.dim, (out + out.conj().T) / 2)


# -- diagnostics --------------------------------------------------------------


def is_trace_preserving(C: Superoperator, atol: float = 1e-10) -> bool:
    ident = vec(np.eye(C.dim))
    return bool(np.max(np.abs(ident.conj() @ C.matrix - ident.conj())) < atol)


def choi_matrix(C: Superoperator) -> np.ndarray:
    """sum_ij |i><j| (x) C(|i><j|); positive iff the channel is CP."""
    D = C.dim
    # Entry (i, a), (j, b) is C(|i><j|)[a, b], the matrix entry (a + D b, i + D j).
    return C.matrix.reshape(D, D, D, D).transpose(3, 1, 2, 0).reshape(D * D, D * D)


def min_choi_eigenvalue(C: Superoperator) -> float:
    return float(np.min(np.linalg.eigvalsh(choi_matrix(C))))


@functools.lru_cache(maxsize=None)
def _weyl_basis_matrices(d: int, n: int):
    return tuple(w.to_matrix() for w in iter_weyls(d, n))


def weyl_transfer_matrix(C: Superoperator, d: int, n: int) -> np.ndarray:
    """Transfer matrix over the phase-free Weyl basis, (x, z) lexicographic.

    R[i, j] = Tr(W_i^dagger C(W_j)) / D.  A channel is a stochastic Weyl
    mixture exactly when R is diagonal.
    """
    D = d**n
    if D != C.dim:
        raise DimensionError(f"channel dimension {C.dim} is not {d}^{n}")
    basis = _weyl_basis_matrices(d, n)
    R = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, Wj in enumerate(basis):
        out = C(Wj)
        for i, Wi in enumerate(basis):
            R[i, j] = np.trace(Wi.conj().T @ out) / D
    return R


def max_offdiagonal(R: np.ndarray) -> float:
    off = np.asarray(R).copy()
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off))) if off.size else 0.0


# -- multi-register tensor helpers --------------------------------------------


@functools.lru_cache(maxsize=None)
def _site_axes(positions: tuple, n: int):
    """Axis permutation into the site layout of a footprint, and its inverse."""
    rest = [i for i in range(n) if i not in positions]
    perm = (*positions, *rest, *(n + i for i in rest), *(n + i for i in positions))
    return perm, tuple(np.argsort(perm))


def to_sites(M: np.ndarray, positions, d: int, n: int) -> np.ndarray:
    """A d^n x d^n matrix in the site layout of the footprint, shape (Dk, R, R, Dk)."""
    positions = tuple(positions)
    Dk = d ** len(positions)
    t = np.asarray(M).reshape((d,) * (2 * n)).transpose(_site_axes(positions, n)[0])
    return t.reshape(Dk, d**n // Dk, d**n // Dk, Dk)


def from_sites(t: np.ndarray, positions, d: int, n: int) -> np.ndarray:
    """The d^n x d^n matrix of a tensor in the site layout (inverse of to_sites)."""
    inv = _site_axes(tuple(positions), n)[1]
    return t.reshape((d,) * (2 * n)).transpose(inv).reshape(d**n, d**n)


def embed_operator(M: np.ndarray, positions, d: int, n_total: int) -> np.ndarray:
    """Extend an operator on the given sites by the identity elsewhere."""
    D = d**n_total
    if D > dense_limit():
        raise CapacityError(f"embedding dimension {D} exceeds the dense cap")
    rest = np.eye(D // d ** len(positions))
    full = np.asarray(M, dtype=complex)[:, None, None, :] * rest[None, :, :, None]
    return from_sites(full, positions, d, n_total)


def partial_trace(rho: np.ndarray, keep, d: int, n: int) -> np.ndarray:
    """Trace out every site not listed in keep; keep order is preserved."""
    return np.einsum("abbc->ac", to_sites(rho, keep, d, n))


def reset_sites(rho: np.ndarray, positions, state: np.ndarray, d: int, n: int) -> np.ndarray:
    """Replace the reduced state on the given sites by a fresh pure state."""
    rest = [i for i in range(n) if i not in positions]
    reduced = partial_trace(rho, rest, d, n) if rest else np.array([[1.0 + 0j]])
    block = np.outer(state, np.conj(state))
    return from_sites(block[:, None, None, :] * reduced[None, :, :, None], positions, d, n)


def lift_local_superop(C: Superoperator, positions, d: int, n: int) -> Superoperator:
    """Extend a channel on a subset of sites by the identity elsewhere.

    With column stacking, vec index r + D*c makes a superoperator an
    operator on 2n sites ordered (column digits, row digits), so the lift is
    an operator embedding on the doubled register.
    """
    doubled = [*positions, *(n + p for p in positions)]
    return Superoperator(d**n, embed_operator(C.matrix, doubled, d, 2 * n))


def apply_local_channel(
    rho: np.ndarray, C: Superoperator, positions, d: int, n: int
) -> np.ndarray:
    """Apply a channel on a subset of sites to a global density matrix."""
    Dk = d ** len(positions)
    if C.dim != Dk:
        raise DimensionError(f"channel dimension {C.dim} does not match footprint {Dk}")
    t = to_sites(rho, positions, d, n)
    R = t.shape[1]
    # Column-stacked vec index r + Dk*c: the channel acts on (c, r)-ordered rows.
    out = C.matrix @ t.transpose(3, 0, 1, 2).reshape(Dk * Dk, R * R)
    return from_sites(out.reshape(Dk, Dk, R, R).transpose(1, 2, 3, 0), positions, d, n)


def apply_local_measurement(rho: np.ndarray, kraus_by_outcome, positions, d: int, n: int):
    """Yields, per outcome, sum_K K rho K^dagger over its operators K on the given sites.

    rho enters the site layout once, whatever the number of outcomes and operators.
    With kraus_by_outcome None, one site is read out in the computational basis:
    outcome m copies the block of rho whose row and column digits there are m, which
    equals |m><m| rho |m><m| entry for entry.
    """
    if kraus_by_outcome is None:
        (site,) = positions
        t = np.asarray(rho).reshape((d**site, d, d ** (n - site - 1)) * 2)
        for m in range(d):
            out = np.zeros_like(t)
            out[:, m, :, :, m, :] = t[:, m, :, :, m, :]
            yield out.reshape(d**n, d**n)
        return
    t = to_sites(rho, positions, d, n)
    Dk = t.shape[0]
    rows = t.reshape(Dk, -1)
    for kraus in kraus_by_outcome:
        out = np.zeros((rows.size // Dk, Dk), dtype=complex)
        for K in kraus:
            out += (K @ rows).reshape(-1, Dk) @ K.conj().T
        yield from_sites(out, positions, d, n)


def apply_local_kraus(rho: np.ndarray, kraus, positions, d: int, n: int) -> np.ndarray:
    """sum_K K rho K^dagger for operators K on the given sites."""
    return next(apply_local_measurement(rho, (kraus,), positions, d, n))
