"""Exact algebra of n-qudit Weyl operators with integer phase tracking.

A Weyl operator is stored as ``exp(i*pi*phase_exp/d) * X^x * Z^z`` acting on
n qudits of dimension d.  X is the cyclic shift ``|j> -> |j+1 mod d>``, Z is
the clock ``|j> -> exp(2*pi*i*j/d)|j>``, and x, z are exponent vectors over
Z_d.  Global phases live in the group of 2d-th roots of unity (the smallest
phase group closed under qubit products such as Y = iZX for every d), so
products, inverses and commutation phases are exact integer arithmetic.
Dense matrices are materialised only on demand.

Canonical (normal-ordered) form puts every X factor left of every Z factor.
Basis states are indexed with site 0 as the most significant digit, matching
the order of Kronecker products.

Text form, used by circuit JSON and the CLI:
``phase_exp;x1,x2,...;z1,z2,...;d``  e.g. ``0;1,1,1;0,0,0;2`` for XXX.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

#: Default cap on the Hilbert dimension of dense realisations.
DEFAULT_DENSE_LIMIT = 4096

#: Environment variable overriding the dense-dimension cap.
DENSE_LIMIT_ENV = "LRC_DENSE_LIMIT"


class DimensionError(ValueError):
    """Operands act on incompatible qudit registers."""


class CapacityError(RuntimeError):
    """A dense realisation would exceed the configured size limit."""


def dense_limit() -> int:
    """Largest Hilbert dimension that may be realised densely."""
    raw = os.environ.get(DENSE_LIMIT_ENV)
    if raw:
        return int(raw)
    return DEFAULT_DENSE_LIMIT


@functools.lru_cache(maxsize=None)
def _digit_table(d: int, n: int) -> np.ndarray:
    """Map basis index -> digit vector, site 0 most significant."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for site in range(n - 1, -1, -1):
        digits[:, site] = idx % d
        idx = idx // d
    digits.setflags(write=False)
    return digits


@functools.lru_cache(maxsize=None)
def _place_values(d: int, n: int) -> np.ndarray:
    out = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=256)
def _shift_and_phases(d: int, x: tuple, z: tuple):
    """(perm, u) with (X^x Z^z psi)[i] = u[i] * psi[perm[i]]; read-only, length d^n."""
    digits = _digit_table(d, len(x))
    shifted = (digits - np.asarray(x)) % d
    perm = shifted @ _place_values(d, len(x))
    u = np.exp(2j * np.pi * ((shifted @ np.asarray(z)) % d) / d)
    perm.setflags(write=False)
    u.setflags(write=False)
    return perm, u


@dataclass(frozen=True)
class RootPhase:
    """A 2d-th root of unity exp(i*pi*exp/d) with exact exponent arithmetic."""

    d: int
    exp: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "exp", self.exp % (2 * self.d))

    @classmethod
    def one(cls, d: int) -> "RootPhase":
        return cls(d, 0)

    @classmethod
    def from_dth_exponent(cls, d: int, m: int) -> "RootPhase":
        """The d-th root of unity exp(2*pi*i*m/d)."""
        return cls(d, 2 * (m % d))

    @property
    def value(self) -> complex:
        return complex(np.exp(1j * np.pi * self.exp / self.d))

    @property
    def is_one(self) -> bool:
        return self.exp == 0

    def dth_exponent(self) -> int:
        """Exponent m with self == exp(2*pi*i*m/d); requires an even exp."""
        if self.exp % 2:
            raise ValueError(f"{self} is not a d-th root of unity")
        return (self.exp // 2) % self.d

    def conjugate(self) -> "RootPhase":
        return RootPhase(self.d, -self.exp)

    def __mul__(self, other: "RootPhase") -> "RootPhase":
        if self.d != other.d:
            raise DimensionError("phase dimensions differ")
        return RootPhase(self.d, self.exp + other.exp)

    def __pow__(self, k: int) -> "RootPhase":
        return RootPhase(self.d, self.exp * k)

    def __repr__(self):
        return f"RootPhase(d={self.d}, exp={self.exp})"


def chi(a, b, d: int) -> RootPhase:
    """The bicharacter exp(2*pi*i*(a.b)/d) for vectors a, b over Z_d."""
    a = tuple(int(v) for v in a)
    b = tuple(int(v) for v in b)
    if len(a) != len(b):
        raise DimensionError(f"vector lengths differ: {len(a)} vs {len(b)}")
    dot = sum(x * y for x, y in zip(a, b)) % d
    return RootPhase.from_dth_exponent(d, dot)


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

    @property
    def phase(self) -> RootPhase:
        return RootPhase(self.d, self.phase_exp)

    def weight(self) -> int:
        """Number of sites with a non-identity factor."""
        return sum(1 for xi, zi in zip(self.x, self.z) if xi or zi)

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
        out = WeylOperator.identity(self.d, self.n)
        for _ in range(k):
            out = out.mul(self)
        return out

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
        if D > dense_limit():
            raise CapacityError(
                f"dense realisation of dimension {D} exceeds the cap {dense_limit()}"
            )
        digits = _digit_table(self.d, self.n)
        place = _place_values(self.d, self.n)
        x = np.asarray(self.x)
        z = np.asarray(self.z)
        rows = ((digits + x) % self.d) @ place
        vals = self.phase.value * np.exp(2j * np.pi * ((digits @ z) % self.d) / self.d)
        M = np.zeros((D, D), dtype=complex)
        M[rows, np.arange(D)] = vals
        return M

    def apply_to_vector(self, psi: np.ndarray) -> np.ndarray:
        """W |psi> without forming the matrix."""
        D = self.dim
        if psi.shape != (D,):
            raise DimensionError(f"state has dimension {psi.shape}, expected ({D},)")
        perm, u = _shift_and_phases(self.d, self.x, self.z)
        return (self.phase.value * u) * psi[perm]

    def conjugate_matrix(self, M: np.ndarray) -> np.ndarray:
        """W M W^dagger as one flat gather plus phases, O(dim^2)."""
        D = self.dim
        if M.shape != (D, D):
            raise DimensionError(f"matrix has shape {M.shape}, expected ({D},{D})")
        perm, u = _shift_and_phases(self.d, self.x, self.z)
        g = np.ravel(M).take((perm * D)[:, None] + perm[None, :])
        return np.multiply(u[:, None] * u.conj()[None, :], g, out=g)

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


def braiding_phase(P: WeylOperator, Q: WeylOperator) -> RootPhase:
    """The phase c with P Q P^dagger = conj(c) Q as matrices.

    Exponent x(P).z(Q) - x(Q).z(P); unity exactly when the operators
    commute.  The same convention makes the two cospace-projector forms
    T Pi T^dagger and E_S conj(c_T(S)) S agree entrywise.
    """
    P._check_compatible(Q)
    m = sum(xp * zq for xp, zq in zip(P.x, Q.z)) - sum(
        xq * zp for xq, zp in zip(Q.x, P.z)
    )
    return RootPhase.from_dth_exponent(P.d, m)


def braiding_exponent(P: WeylOperator, Q: WeylOperator) -> int:
    """Integer m with braiding_phase(P, Q) = exp(2*pi*i*m/d)."""
    return braiding_phase(P, Q).dth_exponent()


def iter_weyls(d: int, n: int):
    """All d^(2n) phase-free Weyl operators, (x, z) in lexicographic order."""
    for x in itertools.product(range(d), repeat=n):
        for z in itertools.product(range(d), repeat=n):
            yield WeylOperator(d, x, z)


def weyl_from_matrix(M: np.ndarray, d: int, n: int, atol: float = 1e-10):
    """Recognise a dense matrix as a Weyl operator, or return None.

    The global phase is snapped to the nearest 2d-th root of unity; the
    reconstruction is verified entrywise against the input.
    """
    D = d**n
    if M.shape != (D, D):
        return None
    place = _place_values(d, n)
    col0 = M[:, 0]
    row = int(np.argmax(np.abs(col0)))
    phase = col0[row]
    if abs(abs(phase) - 1.0) > 1e-6:
        return None
    digits = _digit_table(d, n)
    x = tuple(int(v) for v in digits[row])
    z = []
    for site in range(n):
        col = int(place[site])  # basis state e_site
        r = int(((digits[col] + np.asarray(x)) % d) @ place)
        ratio = M[r, col] / phase
        m = round(d * np.angle(ratio) / (2 * np.pi)) % d
        z.append(int(m))
    p = round(d * np.angle(phase) / np.pi) % (2 * d)
    cand = WeylOperator(d, x, tuple(z), int(p))
    if np.max(np.abs(cand.to_matrix() - M)) < atol:
        return cand
    return None
