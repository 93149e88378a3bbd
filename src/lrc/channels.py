"""Dense quantum channels in the natural representation.

A channel acting on a D-dimensional system is a D^2 x D^2 matrix applied to
column-stacked density matrices, so the channel of a unitary M is
conj(M) (x) M.  Composition is written compose(A, B) with B applied first.

Structural identities are expected to hold to 1e-12 and physicality checks
to 1e-10.  A dense array is built once ``weyl.check_budget`` admits its entries: D^4
for a superoperator (D <= 64 by default), D^2 for a density matrix (D <= 4096).

``natural_rep`` holds only its matrix M, as the channel's Kraus form (the
``kraus`` field); the D^2 x D^2 matrix is built when something first reads it,
and the budget is checked there.  ``is_trace_preserving``, and so circuit
validation, reads a Kraus form when there is one.  Every other constructor holds
a matrix and leaves ``kraus`` None.  ``apply_local_channel`` applies a channel
with a Kraus form of r operators on a footprint of dimension Dk >= 8 r as
sum_K K rho K^dagger, and any other channel by one product with its matrix.

Every operator on a footprint of k of the n sites meets a d^n x d^n matrix
in one site layout: ``to_sites`` views the matrix as a (d^k, R, R, d^k)
tensor, R = d^(n-k), of footprint row digits (in footprint order), other row
digits, other column digits and footprint column digits; ``from_sites`` undoes it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .weyl import DimensionError, WeylOperator, check_budget, deviation, iter_weyls

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


def _check_superop_dim(dim: int):
    check_budget(dim**4, "superoperator dimension {} exceeds the cap {root}", dim)  # dim^2 x dim^2


class Superoperator:
    """A channel on a dim-dimensional system: its D^2 x D^2 matrix, operators K with
    rho -> sum_K K rho K^dagger (``kraus``), or both.  A matrix given here is copied;
    a Kraus-only channel builds ``matrix`` on first read, sum_K conj(K) (x) K in Kraus
    order, and keeps it.  Either way the budget is checked before any allocation."""

    __slots__ = ("dim", "kraus", "_matrix")

    def __init__(self, dim: int, matrix=None, kraus=None):
        if matrix is None and not kraus:
            raise ValueError("a channel needs a matrix or a Kraus form")
        self.dim, self.kraus, self._matrix = dim, None, None
        if matrix is not None:
            _check_superop_dim(dim)
            self._keep(np.array(matrix, dtype=complex))  # a copy: the caller's array stays writable
        if kraus is not None:
            kraus = tuple(np.array(K, dtype=complex) for K in kraus)
            for K in kraus:
                if K.shape != (dim, dim):
                    raise DimensionError(f"Kraus operator has shape {K.shape}, expected ({dim}, {dim})")
                K.setflags(write=False)
            self.kraus = kraus

    def _keep(self, m: np.ndarray):
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"superoperator matrix has shape {m.shape}, expected ({self.dim**2}, {self.dim**2})"
            )
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            _check_superop_dim(self.dim)
            self._keep(functools.reduce(np.add, (np.kron(K.conj(), K) for K in self.kraus)))
        return self._matrix

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Apply to a raw matrix (no physicality checks)."""
        return unvec(self.matrix @ vec(rho))


def _owned(dim: int, m: np.ndarray) -> Superoperator:
    """The channel of a matrix its caller has just built within the budget, frozen in place, not copied."""
    C = Superoperator.__new__(Superoperator)
    C.dim, C.kraus, C._matrix = dim, None, None
    C._keep(m)
    return C


def identity_channel(dim: int) -> Superoperator:
    _check_superop_dim(dim)  # before the D^2 x D^2 identity, not after
    return _owned(dim, np.eye(dim**2, dtype=complex))


def natural_rep(M) -> Superoperator:
    """The channel conj(M) (x) M of conjugation by a square matrix M, held as a
    read-only copy of M, its Kraus form; the matrix is built on first read."""
    m = _as_matrix(M)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return Superoperator(m.shape[0], kraus=(m,))


def coherent_rotation(P: WeylOperator, theta: float) -> Superoperator:
    """Unitary channel of exp(-i*theta*P) for a Hermitian Weyl operator P.

    P must be Hermitian as a matrix so that the rotation reduces to
    cos(theta) I - i sin(theta) P.
    """
    M = P.to_matrix()
    if deviation(M, M.conj().T) > HERMITICITY_TOL:
        raise ValueError(f"{P} is not Hermitian; rotations are undefined for it")
    U = np.cos(theta) * np.eye(M.shape[0]) - 1j * np.sin(theta) * M
    return natural_rep(U)


def stochastic_weyl(probs) -> Superoperator:
    """Convex mixture of Weyl conjugations, sum_P p_P A(P)."""
    items = list(probs.items())
    if not items:
        raise ValueError("empty distribution")
    total = sum(p for _, p in items)
    if any(p < -1e-12 for _, p in items) or deviation(total, 1.0) > 1e-12:
        raise ValueError(f"probabilities must be nonnegative and sum to 1, got {total}")
    dim = items[0][0].dim
    _check_superop_dim(dim)
    acc = np.zeros((dim**2, dim**2), dtype=complex)
    for op, p in items:
        if op.dim != dim:
            raise DimensionError("mixture terms act on different registers")
        acc += p * natural_rep(op).matrix
    return _owned(dim, acc)


def compose(A: Superoperator, B: Superoperator) -> Superoperator:
    """The channel applying B first, then A."""
    if A.dim != B.dim:
        raise DimensionError(f"dimensions differ: {A.dim} vs {B.dim}")
    return _owned(A.dim, A.matrix @ B.matrix)


def average(channels) -> Superoperator:
    """Mean of the channels, summed in iteration order as they are produced."""
    acc, count = None, 0
    for c in channels:
        if acc is None:
            dim, acc = c.dim, np.zeros_like(np.asarray(c.matrix))
        elif c.dim != dim:
            raise DimensionError("averaged channels act on different registers")
        acc += c.matrix
        count += 1
    if acc is None:
        raise ValueError("cannot average zero channels")
    return _owned(dim, acc / count)


def twirl(L: Superoperator, group) -> Superoperator:
    """Group-averaged conjugation E_G A(G^dagger) L A(G)."""
    elements = [_as_matrix(g) for g in group]
    if not elements:
        raise ValueError("empty twirling group")
    if any(g.shape[0] != L.dim for g in elements):
        raise DimensionError("group element dimension does not match the channel")
    return average(compose(natural_rep(g.conj().T), compose(L, natural_rep(g))) for g in elements)


# -- diagnostics --------------------------------------------------------------


def is_trace_preserving(C: Superoperator, atol: float = 1e-10) -> bool:
    """sum_K K^dagger K = I from a Kraus form when there is one, so its matrix stays unbuilt."""
    if C.kraus is not None:
        return deviation(sum(K.conj().T @ K for K in C.kraus), np.eye(C.dim)) < atol
    ident = vec(np.eye(C.dim))
    return deviation(ident.conj() @ C.matrix, ident.conj()) < atol


def weyl_transfer_matrix(C: Superoperator, d: int, n: int) -> np.ndarray:
    """Transfer matrix over the phase-free Weyl basis, (x, z) lexicographic.

    R[i, j] = Tr(W_i^dagger C(W_j)) / D.  A channel is a stochastic Weyl
    mixture exactly when R is diagonal.
    """
    D = d**n
    if D != C.dim:
        raise DimensionError(f"channel dimension {C.dim} is not {d}^{n}")
    _check_superop_dim(D)  # the d^(2n) basis matrices hold D^4 entries, as C's matrix does
    basis = [w.to_matrix() for w in iter_weyls(d, n)]
    R = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, Wj in enumerate(basis):
        out = C(Wj)
        for i, Wi in enumerate(basis):
            R[i, j] = np.trace(Wi.conj().T @ out) / D
    return R


def max_offdiagonal(R: np.ndarray) -> float:
    off = np.asarray(R).copy()
    np.fill_diagonal(off, 0.0)
    return deviation(off)


# -- multi-register tensor helpers --------------------------------------------


@functools.lru_cache(maxsize=None)
def _site_axes(positions: tuple, n: int, lead: int = 0):
    """Axis permutation into the site layout of a footprint, after ``lead`` fixed axes, and its inverse."""
    rest = [i for i in range(n) if i not in positions]
    perm = (*positions, *rest, *(n + i for i in rest), *(n + i for i in positions))
    perm = (*range(lead), *(lead + a for a in perm))
    return perm, tuple(np.argsort(perm))


def to_sites(M: np.ndarray, positions, d: int, n: int) -> np.ndarray:
    """A d^n x d^n matrix (or a stack) in the site layout of the footprint, shape (..., Dk, R, R, Dk)."""
    positions, M = tuple(positions), np.asarray(M)
    Dk, lead = d ** len(positions), M.shape[:-2]
    t = M.reshape(lead + (d,) * (2 * n)).transpose(_site_axes(positions, n, len(lead))[0])
    return t.reshape(lead + (Dk, d**n // Dk, d**n // Dk, Dk))


def from_sites(t: np.ndarray, positions, d: int, n: int, lead: tuple = ()) -> np.ndarray:
    """The d^n x d^n matrix (after the ``lead`` stack axes) of a tensor in the site layout."""
    inv = _site_axes(tuple(positions), n, len(lead))[1]
    return t.reshape(lead + (d,) * (2 * n)).transpose(inv).reshape(lead + (d**n, d**n))


def _footprint_rows(psi: np.ndarray, positions: tuple) -> np.ndarray:
    """A state tensor as the digits of the axes ``positions`` by the others: the rows of
    the site layout.  A stack of (d,)*n states has its sites at axes 1..n."""
    Dk = math.prod(psi.shape[a] for a in positions)
    return psi.transpose(_site_axes(positions, psi.ndim)[0][: psi.ndim]).reshape(Dk, -1)


def _from_footprint_rows(rows: np.ndarray, positions: tuple, shape: tuple) -> np.ndarray:
    n, (perm, inv) = len(shape), _site_axes(positions, len(shape))
    return rows.reshape([shape[a] for a in perm[:n]]).transpose(inv[:n])


def _on_footprint(K: np.ndarray, psi: np.ndarray, positions: tuple) -> np.ndarray:
    """K psi for an operator K on the given sites of a (d,)*n state tensor."""
    return _from_footprint_rows(K @ _footprint_rows(psi, positions), positions, psi.shape)


def embed_operator(M: np.ndarray, positions, d: int, n_total: int) -> np.ndarray:
    """Extend an operator on the given sites by the identity elsewhere."""
    D = d**n_total
    check_budget(D * D, "embedding dimension {} exceeds the dense cap", D)
    rest = np.eye(D // d ** len(positions))
    full = np.asarray(M, dtype=complex)[:, None, None, :] * rest[None, :, :, None]
    return from_sites(full, positions, d, n_total)


def partial_trace(rho: np.ndarray, keep, d: int, n: int) -> np.ndarray:
    """Trace out every site not listed in keep; keep order is preserved."""
    return np.einsum("...abbc->...ac", to_sites(rho, keep, d, n))


def reset_sites(rho: np.ndarray, positions, state: np.ndarray, d: int, n: int) -> np.ndarray:
    """Replace the reduced state on the given sites by a fresh pure state."""
    rest, lead = [i for i in range(n) if i not in positions], np.shape(rho)[:-2]
    reduced = partial_trace(rho, rest, d, n) if rest else np.ones(lead + (1, 1), dtype=complex)
    block = np.outer(state, np.conj(state))
    return from_sites(block[:, None, None, :] * reduced[..., None, :, :, None], positions, d, n, lead)


def lift_local_superop(C: Superoperator, positions, d: int, n: int) -> Superoperator:
    """Extend a channel on a subset of sites by the identity elsewhere.

    With column stacking, vec index r + D*c makes a superoperator an
    operator on 2n sites ordered (column digits, row digits), so the lift is
    an operator embedding on the doubled register.
    """
    doubled = [*positions, *(n + p for p in positions)]
    return _owned(d**n, embed_operator(C.matrix, doubled, d, 2 * n))


def apply_local_channel(
    rho: np.ndarray, C: Superoperator, positions, d: int, n: int
) -> np.ndarray:
    """Apply a channel on a subset of sites to a global density matrix, or to each of a stack.

    A Kraus form of r <= Dk / 8 operators is applied as sum_K K rho K^dagger,
    2 r Dk^3 products per footprint block against Dk^4 for the matrix.  Two
    small products cost one more call than one product with the matrix, which
    only a flop ratio 2 r / Dk of at most 1/4 repays; a larger r, and a channel
    without a Kraus form, take the single product with the matrix.
    """
    Dk = d ** len(positions)
    if C.dim != Dk:
        raise DimensionError(f"channel dimension {C.dim} does not match footprint {Dk}")
    if C.kraus is not None and 8 * len(C.kraus) <= Dk:
        if len(C.kraus) == 1 and tuple(positions) == tuple(range(n)):
            (K,) = C.kraus
            return K @ rho @ K.conj().T  # the footprint is the register, in order
        return apply_local_kraus(rho, C.kraus, positions, d, n)
    lead = np.shape(rho)[:-2]
    # Column-stacked vec index r + Dk*c: the channel acts on the site layout, footprint columns first.
    cols = to_sites(rho, positions, d, n).reshape(lead + (-1, Dk)).swapaxes(-1, -2)
    out = (C.matrix @ cols.reshape(lead + (Dk * Dk, -1))).reshape(lead + (Dk, -1)).swapaxes(-1, -2)
    return from_sites(out, positions, d, n, lead)


def apply_local_measurement(rho: np.ndarray, bases, positions, d: int, n: int) -> np.ndarray:
    """Per outcome, on a new axis after the stack's, the state a measurement on the sites leaves
    of rho (or of each of a stack).  ``bases`` holds per outcome an isometry V, its columns in
    blocks, and the block sizes: the outcome keeps the diagonal blocks of V^dagger rho V and
    maps them back, sum_blk P_blk rho P_blk, P_blk = V_blk V_blk^dagger (no columns: zero).
    With bases None, one site is read out: outcome m copies the block of rho whose row and
    column digits there are m (|m><m| rho |m><m| entry for entry) into one zeroed output."""
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    if bases is None:
        (site,) = positions
        t = rho.reshape(lead + (d**site, d, d ** (n - site - 1)) * 2)
        out = np.zeros(lead + (d,) + t.shape[len(lead) :], dtype=complex)
        for m in range(d):
            out[..., m, :, m, :, :, m, :] = t[..., m, :, :, m, :]
        return out.reshape(lead + (d,) + rho.shape[-2:])
    t = to_sites(rho, positions, d, n)
    Dk, R2 = t.shape[-1], t.shape[-3] * t.shape[-2]
    rows = t.reshape(lead + (Dk, -1))
    outs = np.empty(lead + (len(bases),) + rho.shape[-2:], dtype=complex)
    for b, (V, sizes) in enumerate(bases):
        m, Vh = V.shape[1], V.conj().T
        T = ((Vh @ rows).reshape(lead + (-1, Dk)) @ V).reshape(lead + (m, R2, m))
        if m == len(sizes):  # blocks of one column: the diagonal of T, as (..., m, R2, 1)
            diag = T.diagonal(axis1=-3, axis2=-1).swapaxes(-1, -2)[..., None]
            out = V @ (diag * Vh[:, None, :]).reshape(lead + (m, R2 * Dk))
        else:
            block = np.repeat(np.arange(len(sizes)), sizes)
            T *= (block[:, None] == block)[:, None, :]
            out = (V @ T.reshape(lead + (m, -1))).reshape(lead + (-1, m)) @ Vh
        view = outs[..., b, :, :].reshape(lead + (d,) * (2 * n))  # from_sites, written in place
        view[...] = out.reshape(view.shape).transpose(_site_axes(tuple(positions), n, len(lead))[1])
    return outs


def apply_local_kraus(rho: np.ndarray, kraus, positions, d: int, n: int) -> np.ndarray:
    """sum_K K rho K^dagger for operators K on the given sites, summed from the first term;
    rho may be a stack of density matrices."""
    t = to_sites(rho, positions, d, n)
    lead, Dk = t.shape[:-4], t.shape[-1]
    rows = t.reshape(lead + (Dk, -1))
    terms = ((K @ rows).reshape(lead + (-1, Dk)) @ K.conj().T for K in kraus)
    out = next(terms)
    for term in terms:
        out += term
    return from_sites(out, positions, d, n, lead)
