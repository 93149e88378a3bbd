"""Exact algebra of n-qudit Weyl operators with integer phase tracking.

A Weyl operator is stored as ``exp(i*pi*phase_exp/d) * X^x * Z^z`` acting on
n qudits of dimension d.  X is the cyclic shift ``|j> -> |j+1 mod d>``, Z is
the clock ``|j> -> exp(2*pi*i*j/d)|j>``, and x, z are exponent vectors over
Z_d.  Global phases live in the group of 2d-th roots of unity (the smallest
phase group closed under qubit products such as Y = iZX for every d), so
products, inverses and commutation phases are exact integer arithmetic.
A phase is its integer exponent e in [0, 2d), whose dense value is
``roots_of_unity(d)[e]``; a commutation phase omega^m = exp(2*pi*i*m/d) is
its integer m in [0, d), the ``braiding_exponent``.  Dense matrices are
materialised only on demand.

Canonical (normal-ordered) form puts every X factor left of every Z factor.
Basis states are indexed with site 0 as the most significant digit, matching
the order of Kronecker products.

Text form, used by circuit JSON and the CLI:
``phase_exp;x1,x2,...;z1,z2,...;d``  e.g. ``0;1,1,1;0,0,0;2`` for XXX.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

#: Default cap on the Hilbert dimension of dense realisations.
DEFAULT_DENSE_LIMIT = 4096

#: Environment variable overriding the dense-dimension cap, and so the memory budget.
DENSE_LIMIT_ENV = "LRC_DENSE_LIMIT"

#: Largest register dimension whose work is kept for reuse: the cached flat D^2
#: conjugation tables (256 of them hold at most about 25 MB) and the evaluator's
#: gadget prefix.  Above it, conjugation keeps only the length-D tables of
#: _shift_and_phases: it gathers with two axis takes, and its phase products are
#: d^|S| x D per call, S the sites where z != 0, instead of D^2 index and phase tables.
_SMALL_DIM = 64


class DimensionError(ValueError):
    """Operands act on incompatible qudit registers."""


class CapacityError(RuntimeError):
    """A dense realisation would exceed the configured size limit."""


def dense_limit() -> int:
    """Largest Hilbert dimension that may be realised densely."""
    return int(os.environ.get(DENSE_LIMIT_ENV) or DEFAULT_DENSE_LIMIT)


def check_budget(entries: int, message: str, *args) -> int:
    """The one memory budget: refuse more complex entries than a density matrix at the dense
    cap holds (268 MB by default), else return that count.  Only a refusal formats
    ``message``, with ``args`` and ``root`` = isqrt(dense_limit()), the superoperator cap."""
    limit = dense_limit()
    if entries > limit * limit:
        raise CapacityError(message.format(*args, root=math.isqrt(limit))
                            + f" ({DENSE_LIMIT_ENV}={limit} allows {limit * limit} complex entries)")
    return limit * limit


def deviation(a, b=None) -> float:
    """The one residual rule: max |a - b| over every entry (max |a| with b None, 0 for no
    entries), inf when an entry is not finite, so no tolerance test and no max() passes a NaN."""
    worst = float(np.abs(a if b is None else np.subtract(a, b)).max(initial=0.0))
    return worst if worst == worst else math.inf


def budgeted_cache(maxsize: int, message: str, entries):
    """``functools.lru_cache(maxsize)`` of a function returning dense arrays, which checks
    ``entries(*args)`` = (count, *message args) against the budget on a hit as on a miss,
    so a lowered limit refuses what a higher one cached."""
    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def call(*args):
            count, *shown = entries(*args)
            check_budget(count, message, *shown)
            return cached(*args)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        call.cache_parameters = cached.cache_parameters
        return call

    return decorate


@functools.lru_cache(maxsize=None)
def roots_of_unity(d: int) -> np.ndarray:
    """Read-only exp(i*pi*k/d) for k in [0, 2d), the one source of dense Weyl phases.

    The d-th root of unity omega^m = exp(2*pi*i*m/d) is entry 2m.
    """
    out = np.exp(1j * np.pi * np.arange(2 * d) / d)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=256)
def _shift_and_phases(d: int, x: tuple, z: tuple):
    """(perm, u) with (X^x Z^z psi)[i] = u[i] * psi[perm[i]]; read-only, length d^n."""
    perm = exponent = np.zeros(1, dtype=np.int64)
    for zk, digits in zip(z, (np.arange(d) - np.array(x)[:, None]) % d):  # per site, i - x by i
        perm = np.add.outer(d * perm, digits).ravel()
        exponent = np.add.outer(exponent, zk * digits).ravel()
    u = roots_of_unity(d)[2 * (exponent % d)]
    perm.setflags(write=False)
    u.setflags(write=False)
    return perm, u


@functools.lru_cache(maxsize=256)
def _gather_tables(d: int, x: tuple, z: tuple):
    """(idx, outer) with X^x Z^z M (X^x Z^z)^dagger = outer * ravel(M)[idx]; read-only."""
    perm, u = _shift_and_phases(d, x, z)
    idx = (perm * len(perm))[:, None] + perm[None, :]
    outer = u[:, None] * u.conj()[None, :]
    idx.setflags(write=False)
    outer.setflags(write=False)
    return idx, outer


@dataclass(frozen=True)
class WeylOperator:
    """phase * X^x * Z^z on n qudits of dimension d.

    Immutable; all arithmetic returns new operators.  The phase exponent is
    reduced into [0, 2d) and the exponent vectors into [0, d)^n.
    """

    d: int
    x: tuple
    z: tuple
    phase_exp: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        x = tuple(int(v) % self.d for v in self.x)
        z = tuple(int(v) % self.d for v in self.z)
        if len(x) != len(z):
            raise DimensionError(f"x and z lengths differ: {len(x)} vs {len(z)}")
        if not x:
            raise ValueError("operator needs at least one site")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase_exp", self.phase_exp % (2 * self.d))

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, d: int, n: int) -> "WeylOperator":
        return cls(d, (0,) * n, (0,) * n)

    @classmethod
    def x_op(cls, d: int, n: int, site: int = 0, power: int = 1) -> "WeylOperator":
        x = [0] * n
        x[site] = power
        return cls(d, tuple(x), (0,) * n)

    @classmethod
    def z_op(cls, d: int, n: int, site: int = 0, power: int = 1) -> "WeylOperator":
        z = [0] * n
        z[site] = power
        return cls(d, (0,) * n, tuple(z))

    @classmethod
    def from_label(cls, label: str, d: int = 2) -> "WeylOperator":
        """Build a qubit operator from an IXYZ string, e.g. ``"ZZI"``.

        Y carries the phase making it Hermitian ([[0,-i],[i,0]]).  A leading
        '-' negates the overall phase.  Only valid for d = 2.
        """
        if d != 2:
            raise ValueError("label form is only defined for qubits")
        neg = label.startswith("-")
        if neg:
            label = label[1:]
        x, z, phase = [], [], 0
        for ch in label:
            if ch == "I":
                x.append(0), z.append(0)
            elif ch == "X":
                x.append(1), z.append(0)
            elif ch == "Z":
                x.append(0), z.append(1)
            elif ch == "Y":
                # Y = i X Z, the Hermitian [[0,-i],[i,0]]
                x.append(1), z.append(1)
                phase += 1
            else:
                raise ValueError(f"unknown Pauli letter {ch!r}")
        if neg:
            phase += 2
        return cls(2, tuple(x), tuple(z), phase)

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def is_identity(self, ignore_phase: bool = False) -> bool:
        flat = not any(self.x) and not any(self.z)
        return flat if ignore_phase else (flat and self.phase_exp == 0)

    def with_phase_exp(self, phase_exp: int) -> "WeylOperator":
        return WeylOperator(self.d, self.x, self.z, phase_exp)

    def same_xz(self, other: "WeylOperator") -> bool:
        return self.x == other.x and self.z == other.z

    def _check_compatible(self, other: "WeylOperator"):
        if self.d != other.d:
            raise DimensionError(f"qudit dimensions differ: {self.d} vs {other.d}")
        if self.n != other.n:
            raise DimensionError(f"site counts differ: {self.n} vs {other.n}")

    # -- algebra ----------------------------------------------------------

    def mul(self, other: "WeylOperator") -> "WeylOperator":
        """Operator product self * other (other applied first to states)."""
        self._check_compatible(other)
        d = self.d
        # Z^zP X^xQ = chi_{xQ}(zP) X^xQ Z^zP reorders the middle factors.
        cross = sum(xq * zp for xq, zp in zip(other.x, self.z)) % d
        phase = self.phase_exp + other.phase_exp + 2 * cross
        x = tuple((a + b) % d for a, b in zip(self.x, other.x))
        z = tuple((a + b) % d for a, b in zip(self.z, other.z))
        return WeylOperator(d, x, z, phase)

    __mul__ = mul

    def dagger(self) -> "WeylOperator":
        d = self.d
        x = tuple(-v % d for v in self.x)
        z = tuple(-v % d for v in self.z)
        cross = sum(a * b for a, b in zip(x, z)) % d
        return WeylOperator(d, x, z, -self.phase_exp + 2 * cross)

    def __pow__(self, k: int) -> "WeylOperator":
        if k < 0:
            return self.dagger() ** (-k)
        # Each of the k(k-1)/2 reorderings of a Z^z past an X^x adds omega^(x.z).
        xz = sum(a * b for a, b in zip(self.x, self.z))
        x = tuple(k * v for v in self.x)
        z = tuple(k * v for v in self.z)
        return WeylOperator(self.d, x, z, k * self.phase_exp + xz * k * (k - 1))

    def tensor(self, other: "WeylOperator") -> "WeylOperator":
        if self.d != other.d:
            raise DimensionError(f"qudit dimensions differ: {self.d} vs {other.d}")
        return WeylOperator(
            self.d,
            self.x + other.x,
            self.z + other.z,
            self.phase_exp + other.phase_exp,
        )

    __matmul__ = tensor

    def embed(self, sites, n_total: int) -> "WeylOperator":
        """Scatter this operator onto the given sites of a larger register."""
        sites = tuple(sites)
        if len(sites) != self.n:
            raise DimensionError("site list does not match operator size")
        x = [0] * n_total
        z = [0] * n_total
        for local, site in enumerate(sites):
            x[site] = self.x[local]
            z[site] = self.z[local]
        return WeylOperator(self.d, tuple(x), tuple(z), self.phase_exp)

    # -- realisation -------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense unitary, including the global phase."""
        D = self.dim
        check_budget(D * D, "dense realisation of dimension {} exceeds the dense cap", D)
        perm, u = _shift_and_phases(self.d, self.x, self.z)
        M = np.zeros((D, D), dtype=complex)
        M[np.arange(D), perm] = roots_of_unity(self.d)[self.phase_exp] * u
        return M

    def apply_to_vector(self, psi: np.ndarray) -> np.ndarray:
        """W |psi> without forming the matrix; psi may be a stack of states, (..., D)."""
        D = self.dim
        if psi.shape[-1:] != (D,):
            raise DimensionError(f"state has dimension {psi.shape}, expected ({D},)")
        # An entry holds 24 D bytes: 256 of them are at most 25 MB up to the default cap.
        tables = _shift_and_phases if D <= DEFAULT_DENSE_LIMIT else _shift_and_phases.__wrapped__
        perm, u = tables(self.d, self.x, self.z)
        return (roots_of_unity(self.d)[self.phase_exp] * u) * psi.take(perm, axis=-1)

    def conjugate_matrix(self, M: np.ndarray) -> np.ndarray:
        """W M W^dagger as a gather plus phases, O(dim^2); C-contiguous.  M may be a
        stack of matrices, (..., D, D).

        Entry (i, j) is u[i] * conj(u[j]) times M[perm[i], perm[j]], one product
        of the same values on both sides of _SMALL_DIM.
        """
        D = self.dim
        if M.shape[-2:] != (D, D):
            raise DimensionError(f"matrix has shape {M.shape}, expected ({D},{D})")
        d, x, z, lead = self.d, self.x, self.z, M.shape[:-2]
        if D <= _SMALL_DIM:
            idx, outer = _gather_tables(d, x, z)
            g = M.reshape(lead + (D * D,)).take(idx, axis=-1)
            return np.multiply(outer, g, out=g)
        perm, u = _shift_and_phases(d, x, z)
        g = M.take(perm, -2).take(perm, -1) if any(x) else None
        # u[i] reads only the digits of i where z != 0: those d^|S| values broadcast
        # over the (d,)*n row digits, conj(u) runs along the D columns.
        rows = u.reshape((d,) * self.n)[tuple(slice(None if zk else 1) for zk in z)]
        outer = rows[..., None] * u.conj()
        shape = lead + (d,) * self.n + (D,)
        if g is None:
            return np.multiply(outer, M.reshape(shape), order="C").reshape(M.shape)
        np.multiply(outer, g.reshape(shape), out=g.reshape(shape))  # g is fresh and C-ordered
        return g

    # -- text form ----------------------------------------------------------

    def to_string(self) -> str:
        xs = ",".join(str(v) for v in self.x)
        zs = ",".join(str(v) for v in self.z)
        return f"{self.phase_exp};{xs};{zs};{self.d}"

    @classmethod
    def from_string(cls, text: str) -> "WeylOperator":
        parts = text.strip().split(";")
        if len(parts) != 4:
            raise ValueError(f"malformed operator text {text!r}")
        phase = int(parts[0])
        x = tuple(int(v) for v in parts[1].split(","))
        z = tuple(int(v) for v in parts[2].split(","))
        return cls(int(parts[3]), x, z, phase)

    def __repr__(self):
        return f"WeylOperator({self.to_string()!r})"


def braiding_exponent(P: WeylOperator, Q: WeylOperator) -> int:
    """The m in [0, d) with P Q P^dagger = conj(omega^m) Q as matrices, omega = exp(2*pi*i/d).

    m = x(P).z(Q) - x(Q).z(P) mod d; zero exactly when the operators commute.
    The same convention makes the two cospace-projector forms T Pi T^dagger
    and E_S conj(omega^m(T, S)) S agree entrywise.
    """
    P._check_compatible(Q)
    m = sum(xp * zq for xp, zq in zip(P.x, Q.z)) - sum(xq * zp for xq, zp in zip(Q.x, P.z))
    return m % P.d


def xz_rows(ops, n: int) -> np.ndarray:
    """The (len(ops), 2n) int64 rows x | z of n-qudit operators, phases dropped."""
    return np.array([op.x + op.z for op in ops], dtype=np.int64).reshape(len(ops), 2 * n)


def braiding_matrix(P: np.ndarray, Q: np.ndarray, d: int) -> np.ndarray:
    """``braiding_exponent`` of every pair of x | z rows: entry (i, j) is x_i.z_j - z_i.x_j mod d."""
    n = P.shape[1] // 2
    return (P[:, :n] @ Q[:, n:].T - P[:, n:] @ Q[:, :n].T) % d


def exponent_rows(d: int, m: int) -> np.ndarray:
    """All d^m exponent tuples as (d^m, m) int64 rows, in ``itertools.product(range(d), repeat=m)``
    order; over x | z digits (m = 2n) that is the (x, z) order of ``iter_weyls``."""
    return np.indices((d,) * m, dtype=np.int64).reshape(m, d**m).T


def iter_weyls(d: int, n: int):
    """All d^(2n) phase-free Weyl operators, (x, z) in lexicographic order."""
    for x in itertools.product(range(d), repeat=n):
        for z in itertools.product(range(d), repeat=n):
            yield WeylOperator(d, x, z)


def eigenprojector(W: WeylOperator, b: int = 0) -> np.ndarray:
    """Projector onto the omega^b eigenspace of W, for W^d = 1: the mean of omega^(-jb) W^j."""
    roots = roots_of_unity(W.d)
    acc = np.zeros((W.dim, W.dim), dtype=complex)
    for j in range(W.d):  # W^j scaled in place and dropped: two D x D arrays at a time
        M = (W**j).to_matrix()
        acc += np.multiply(np.conj(roots[2 * (j * b % W.d)]), M, out=M)
        del M
    return np.divide(acc, W.d, out=acc)


def weyl_from_matrix(M: np.ndarray, d: int, n: int, atol: float = 1e-10):
    """Recognise a dense matrix as a Weyl operator, or return None.

    The global phase is snapped to the nearest 2d-th root of unity; the
    reconstruction is verified entrywise against the input.
    """
    D = d**n
    if M.shape != (D, D):
        return None
    col0 = M[:, 0]
    row = int(np.argmax(np.abs(col0)))
    phase = col0[row]
    if deviation(abs(phase), 1.0) > 1e-6:
        return None
    x = tuple(int(v) for v in np.unravel_index(row, (d,) * n))
    z = []
    for site in range(n):
        col = d ** (n - 1 - site)  # basis state e_site
        r = int(np.argmax(np.abs(M[:, col])))
        ratio = M[r, col] / phase
        m = round(d * np.angle(ratio) / (2 * np.pi)) % d
        z.append(int(m))
    p = round(d * np.angle(phase) / np.pi) % (2 * d)
    cand = WeylOperator(d, x, tuple(z), int(p))
    if deviation(cand.to_matrix(), M) < atol:
        return cand
    return None
