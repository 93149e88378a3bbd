"""Executable checks of the compilation guarantees at desk scale.

Every check compares channels (or exactly averaged channels), so the
results do not depend on probe states.  Reports are reproducible
bit-for-bit from (inputs, seed); wall-clock timings are carried alongside
but never feed back into values.

Check registry (CLI names):
  theorem1                stabilizer averaging equals the cospace projector sum
  character_orthogonality exact integer character sums over each builtin code
  theorem2                corrected twirl equals ideal-then-twirled-noise
  clifford_path           averaged compiled Clifford noise is Weyl-diagonal
  t_path                  dihedral-compiled T noise is Pauli with p_X = p_Y
  toffoli                 the three-block overrotated Toffoli experiment
  measurement_rc          compiled extraction factorizes channel x confusion
  compiled_equals_bare    random compiled instances match their bare circuits
  sampling_equivalence    one shot per random compilation samples the average
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import os
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    Superoperator,
    _check_superop_dim,
    _owned,
    average,
    compose,
    coherent_rotation,
    embed_operator,
    identity_channel,
    is_trace_preserving,
    lift_local_superop,
    max_offdiagonal,
    natural_rep,
    partial_trace,
    stochastic_weyl,
    twirl,
    vec,
    weyl_transfer_matrix,
)
from .circuits import (
    Gadget,
    LogicalCircuit,
    Register,
    _instance_steps,
    controlled_weyl,
    evaluate,
    fourier_matrix,
    readout_weyls,
)
from .codes import (
    StabilizerCode,
    _enumerate_products,
    builtin_code,
    cospace_table,
    encoding_isometry,
    enumerate_pure_errors,
    enumerate_stabilizers,
    logical_weyls,
    trivial_code,
)
from .compiler import (
    RandomizationPolicy,
    TwirlGroupSpec,
    compute_propagation_correction,
    element_matrix,
    group_elements,
    instantiate,
    t_gate_matrix,
)
from .weyl import (
    CapacityError, DimensionError, WeylOperator, braiding_exponent, braiding_matrix, deviation, iter_weyls,
    roots_of_unity, xz_rows,
)

STRUCTURAL_TOL = 1e-10

BUILTIN_CHECK_CODES = ("bitflip3", "phaseflip3", "qutrit_rep3", "five_one_three")


def derive_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


@dataclass
class CoherenceReport:
    """State-level coherence diagnostics against one code.

    inter_cospace sums the Frobenius norms of every ordered off-diagonal
    cospace block; intra_cospace sums, per cospace, the off-diagonal mass of
    the logical content in the encoded computational basis; populations maps
    each syndrome to its probability weight.
    """

    inter_cospace: float
    intra_cospace: float
    populations: dict

    def populations_by_string(self) -> dict:
        return {",".join(map(str, k)): v for k, v in sorted(self.populations.items())}


@dataclass
class VerificationReport:
    check: str
    passed: bool
    value: float
    tolerance: float
    seed: int
    details: dict = field(default_factory=dict)
    runtime_ms: float = field(default=0.0, kw_only=True)  # set by @_timed

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "check": self.check,
            "pass": bool(self.passed),
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "runtime_ms": float(self.runtime_ms) if include_timings else 0.0,
            "seed": int(self.seed),
            "details": self.details,
        }


def _timed(check):
    """Decorator of a check: its report's runtime_ms is the wall time of the whole call, in ms."""
    @functools.wraps(check)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        report = check(*args, **kwargs)
        report.runtime_ms = (time.perf_counter() - start) * 1e3
        return report

    return timed


def _structural_report(check: str, value: float, seed: int, details=None):
    """Report of a check that passes when its residual is below STRUCTURAL_TOL."""
    return VerificationReport(
        check=check,
        passed=value < STRUCTURAL_TOL,
        value=value,
        tolerance=STRUCTURAL_TOL,
        seed=seed,
        details=details or {},
    )


# -- state diagnostics ---------------------------------------------------------


def coherence_metrics(rho: np.ndarray, code: StabilizerCode) -> CoherenceReport:
    m = np.asarray(rho)
    if m.shape != (code.dim, code.dim):
        raise ValueError(f"state of shape {m.shape} does not match the code space")
    table = cospace_table(code)
    projs = [P for _, P in table.values()]
    inter = 0.0
    for i, Pi in enumerate(projs):
        for j, Pj in enumerate(projs):
            if i != j:
                inter += float(np.linalg.norm(Pi @ m @ Pj))
    populations = {s: float(np.real(np.trace(P @ m))) for s, (_, P) in table.items()}
    V = encoding_isometry(code)
    intra = 0.0
    for t, _ in table.values():
        Vt = t.apply_to_vector(V.T).T
        block = Vt.conj().T @ m @ Vt
        off = block - np.diag(np.diag(block))
        intra += float(np.linalg.norm(off))
    return CoherenceReport(inter_cospace=inter, intra_cospace=intra, populations=populations)


# -- channel building blocks ---------------------------------------------------


def stabilizer_average_channel(code: StabilizerCode) -> Superoperator:
    return average(natural_rep(s) for s in enumerate_stabilizers(code))


def cospace_projector_sum(code: StabilizerCode) -> Superoperator:
    acc = None
    for _, P in cospace_table(code).values():
        term = natural_rep(P)
        acc = term if acc is None else _owned(term.dim, acc.matrix + term.matrix)
    return acc


def group_unitaries(spec: TwirlGroupSpec, code: StabilizerCode | None):
    if spec.kind == "trivial":
        return [np.eye(code.dim if code else 2)]
    return [element_matrix(G) for G in group_elements(spec, code)]


def logical_channel(C: Superoperator, code: StabilizerCode) -> Superoperator:
    """Restriction of a physical channel to the encoded logical system."""
    V = np.asarray(encoding_isometry(code))
    dk = code.d**code.k
    cols = []
    basis = np.zeros((dk, dk), dtype=complex)
    for j in range(dk):
        for i in range(dk):
            basis[i, j] = 1.0
            out = V.conj().T @ C(V @ basis @ V.conj().T) @ V
            cols.append(vec(out))
            basis[i, j] = 0.0
    # columns were produced in vec order (i fastest), matching column stacking
    return _owned(dk, np.stack(cols, axis=1))


def logical_transfer_matrix(C: Superoperator, code: StabilizerCode) -> np.ndarray:
    return weyl_transfer_matrix(logical_channel(C, code), code.d, code.k)


def weyl_error_probabilities(R: np.ndarray, d: int, n: int) -> dict:
    """Invert the diagonal of a stochastic-Weyl transfer matrix to weights."""
    basis = list(iter_weyls(d, n))
    diag = np.diag(R)
    roots = roots_of_unity(d)
    out = {}
    for P in basis:
        acc = 0.0 + 0.0j
        for q, Q in enumerate(basis):
            acc += roots[2 * braiding_exponent(P, Q)] * diag[q]
        out[P] = float(np.real(acc)) / len(basis)
    return out


# -- individual checks ----------------------------------------------------------


def _resolve(code_spec):
    """Accepts a builtin name, a StabilizerCode, or a (label, code) pair."""
    if isinstance(code_spec, str):
        return code_spec, builtin_code(code_spec)
    if isinstance(code_spec, tuple):
        return code_spec
    return "custom", code_spec


@_timed
def check_theorem1(code_name, seed: int = 0) -> VerificationReport:
    """max |stabilizer_average_channel - cospace_projector_sum| in O(D^3) memory, bit for bit:
    both sides are summed in those functions' order one row block at a time, block i of
    conj(M) (x) M being the slab [k, j, l] = conj(M)[i, j] M[k, l] of row iD + k, column jD + l."""
    name, code = _resolve(code_name)
    _check_superop_dim(code.dim)
    D = code.dim
    stabs = [s.to_matrix() for s in enumerate_stabilizers(code)]
    first, *rest = [P for _, P in cospace_table(code).values()]
    lhs, rhs, tmp = (np.empty((D, D, D), dtype=complex) for _ in range(3))
    worst = 0.0
    for i in range(D):
        lhs.fill(0)
        for m in stabs:
            lhs += np.multiply(m[i, None, :, None].conj(), m[:, None, :], out=tmp)
        lhs /= len(stabs)
        np.multiply(first[i, None, :, None].conj(), first[:, None, :], out=rhs)
        for m in rest:
            rhs += np.multiply(m[i, None, :, None].conj(), m[:, None, :], out=tmp)
        worst = max(worst, deviation(np.subtract(lhs, rhs, out=tmp)))
    return _structural_report(f"theorem1:{name}", worst, seed)


@_timed
def check_character_orthogonality(code_name, seed: int = 0) -> VerificationReport:
    """Exact integer check of sum_T conj(c_T(S)) c_T(S') = delta |S|, c_T(S) = omega^m(T, S): per S,
    a (|T|, |S|) slab of m(T, S') - m(T, S) gives 0 |S| times for S' = S, and otherwise each exponent
    of a nontrivial subgroup of Z_d equally often."""
    name, code = _resolve(code_name)
    d, stabs = code.d, xz_rows(enumerate_stabilizers(code), code.n)
    table = braiding_matrix(xz_rows(enumerate_pure_errors(code), code.n), stabs, d)
    bins = d * np.arange(len(stabs))  # exponent e of column j counts in bin d j + e
    violations = 0
    for i, row in enumerate(stabs):
        slab = (table - table[:, i, None]) % d + bins
        counts = np.bincount(slab.ravel(), minlength=d * len(stabs)).reshape(len(stabs), d).tolist()
        for c, same in zip(counts, (stabs == row).all(axis=1).tolist()):
            support = {e for e, k in enumerate(c) if k}
            if same:
                violations += support != {0} or c[0] != len(stabs)
            else:
                subgroup = 0 in support and all((a + b) % d in support for a in support for b in support)
                violations += support == {0} or not (subgroup and len({c[e] for e in support}) == 1)
    return VerificationReport(
        check=f"character_orthogonality:{name}",
        passed=violations == 0,
        value=float(violations),
        tolerance=0.0,
        seed=seed,
    )


def _single_register_circuit(code: StabilizerCode, gadget_builder):
    reg = Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code)
    return LogicalCircuit(
        d=code.d, registers=(reg,), gadgets=(gadget_builder("L0"),), classical_wires=()
    )


def _step_superop(step, d: int, n: int) -> Superoperator:
    """The superoperator of a Weyl, gate or channel step on n sites of dimension d."""
    kind = step[0]
    if kind == "weyl":
        return natural_rep(step[1].to_matrix())
    if kind == "gate":
        return natural_rep(embed_operator(step[2], step[1], d, n))
    if kind == "channel":
        return lift_local_superop(step[2], step[1], d, n)
    raise ValueError(f"instance contains a non-channel step {kind!r}")


def instance_channel(inst, ideal: bool = False) -> Superoperator:
    """Superoperator of a measurement-free compiled instance, one product per step."""
    c = inst.base
    acc = identity_channel(c.dim)
    for steps in _instance_steps(c, inst.insertions, ideal):
        for step in steps:
            acc = compose(_step_superop(step, c.d, c.n_qudits), acc)
    return acc


def averaged_compiled_unitary(
    code: StabilizerCode, U, noise: Superoperator, group: TwirlGroupSpec
) -> Superoperator:
    """Exhaustive average of the compiled gadget channel, twirl draws only."""
    weyl = U if isinstance(U, WeylOperator) else None
    matrix = None if weyl is not None else np.asarray(U)
    circuit = _single_register_circuit(
        code, lambda r: Gadget.unitary(r, weyl=weyl, matrix=matrix, noise=noise)
    )
    policy = RandomizationPolicy(stabilizers=False, twirl_groups={0: group})
    return average(instance_channel(inst) for inst in instantiate(circuit, policy))


@_timed
def check_theorem2(
    U, noise: Superoperator, group: TwirlGroupSpec, code: StabilizerCode, label: str = "", seed: int = 0
) -> VerificationReport:
    averaged = averaged_compiled_unitary(code, U, noise, group)
    u_matrix = U.to_matrix() if isinstance(U, WeylOperator) else np.asarray(U)
    rhs = compose(natural_rep(u_matrix), twirl(noise, group_unitaries(group, code)))
    value = deviation(averaged.matrix, rhs.matrix)
    return _structural_report(f"theorem2:{label}" if label else "theorem2", value, seed)


def random_hermitian_weyl(rng, d: int, n: int) -> WeylOperator:
    """Uniform nonidentity Weyl with the phase fixed to make it Hermitian."""
    if d != 2:
        raise ValueError("Hermitian Weyl rotations are defined for qubits")
    while True:
        x = tuple(int(v) for v in rng.integers(0, d, n))
        z = tuple(int(v) for v in rng.integers(0, d, n))
        if any(x) or any(z):
            break
    overlap = sum(a * b for a, b in zip(x, z)) % 2
    return WeylOperator(2, x, z, overlap)


def random_noise_channel(rng, d: int, n: int, kind: str) -> Superoperator:
    if kind == "coherent":
        P = random_hermitian_weyl(rng, d, n)
        theta = float(rng.uniform(0.0, 0.3))
        return coherent_rotation(P, theta)
    ops = list(iter_weyls(d, n))
    picks = rng.choice(len(ops), size=3, replace=False)
    weights = rng.dirichlet([10.0, 1.0, 1.0, 1.0])
    probs = {WeylOperator.identity(d, n): float(weights[0])}
    for w, p in zip(picks, weights[1:]):
        op = ops[int(w)]
        probs[op] = probs.get(op, 0.0) + float(p)
    return stochastic_weyl(probs)


@_timed
def check_theorem2_suite(seed: int, noise_draws: int = 10) -> VerificationReport:
    """Corrected-twirl equality for random noise on a logical X and on T."""
    rng = np.random.default_rng(derive_seed(seed, "theorem2"))
    bitflip = builtin_code("bitflip3")
    tcode = trivial_code(2, 1)
    worst = 0.0
    for i in range(noise_draws):
        kind = "coherent" if i % 2 == 0 else "stochastic"
        noise3 = random_noise_channel(rng, 2, 3, kind)
        rep = check_theorem2(bitflip.logical_x(), noise3, TwirlGroupSpec.logical_weyl(), bitflip)
        worst = max(worst, rep.value)
        noise1 = random_noise_channel(rng, 2, 1, kind)
        rep = check_theorem2(t_gate_matrix(), noise1, TwirlGroupSpec.dihedral(), tcode)
        worst = max(worst, rep.value)
    return _structural_report("theorem2", worst, seed)


def logical_s_gate(code: StabilizerCode) -> np.ndarray:
    """Transversal quarter-phase realisation of the logical S on bitflip3."""
    s = np.diag([1.0, 1j])
    return np.kron(np.kron(s, s), s.conj().T)


@_timed
def check_clifford_path(seed: int, noise_draws: int = 5) -> VerificationReport:
    """Averaged compiled logical-Clifford noise is diagonal in the logical
    Weyl transfer matrix."""
    rng = np.random.default_rng(derive_seed(seed, "clifford_path"))
    code = builtin_code("bitflip3")
    U = logical_s_gate(code)
    worst = 0.0
    for _ in range(noise_draws):
        noise = random_noise_channel(rng, 2, 3, "coherent")
        averaged = averaged_compiled_unitary(code, U, noise, TwirlGroupSpec.logical_weyl())
        residual_noise = compose(natural_rep(U.conj().T), averaged)
        R = logical_transfer_matrix(residual_noise, code)
        worst = max(worst, max_offdiagonal(R))
    return _structural_report("clifford_path", worst, seed)


@_timed
def check_t_path(seed: int, noise_draws: int = 5) -> VerificationReport:
    """Dihedral-compiled T noise is a Pauli channel with p_X = p_Y."""
    rng = np.random.default_rng(derive_seed(seed, "t_path"))
    code = trivial_code(2, 1)
    T = t_gate_matrix()
    worst = 0.0
    px_py = []
    for _ in range(noise_draws):
        noise = random_noise_channel(rng, 2, 1, "coherent")
        averaged = averaged_compiled_unitary(code, T, noise, TwirlGroupSpec.dihedral())
        residual = compose(natural_rep(T.conj().T), averaged)
        R = weyl_transfer_matrix(residual, 2, 1)
        worst = max(worst, max_offdiagonal(R))
        probs = weyl_error_probabilities(R, 2, 1)
        p_x = probs[WeylOperator(2, (1,), (0,))]
        p_y = probs[WeylOperator(2, (1,), (1,))]
        px_py.append((p_x, p_y))
        worst = max(worst, deviation(p_x, p_y))
    return _structural_report("t_path", worst, seed, {"px_py": [[float(a), float(b)] for a, b in px_py]})


# -- the three-block Toffoli experiment -----------------------------------------


def ccx_matrix(delta: float = 0.0) -> np.ndarray:
    """Doubly controlled X with the conditional X overrotated by delta."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    xrot = np.cos(delta) * np.eye(2) - 1j * np.sin(delta) * x
    out = np.eye(8, dtype=complex)
    out[6:, 6:] = x @ xrot
    return out


def transversal_toffoli(delta: float = 0.0) -> np.ndarray:
    """Transversal Toffoli over three repetition blocks, 512 x 512.

    Block b occupies qubits (3b, 3b+1, 3b+2); gate i couples qubit i of each
    block and only the first carries the overrotation.
    """
    out = embed_operator(ccx_matrix(delta), [0, 3, 6], 2, 9)
    for cols in ([1, 4, 7], [2, 5, 8]):
        out = embed_operator(ccx_matrix(0.0), cols, 2, 9) @ out
    return out


def _block_stabilizer_draws(code: StabilizerCode, blocks):
    """Global stabilizer insertions over the selected blocks, exhaustively."""
    gens = [g.embed(range(3 * block, 3 * block + 3), 9) for block in blocks for g in code.stab_gens]
    return _enumerate_products(gens, code.d, 9)


@_timed
def run_toffoli_example(delta: float, blocks: str = "all", seed: int = 0) -> VerificationReport:
    """Overrotated transversal Toffoli on |111> of three bit-flip blocks.

    Verifies the residual error is a coherent X rotation on the third block,
    then averages over exhaustive stabilizer insertions (all three blocks or
    the third only) and checks the coherence between cospaces is removed
    while the syndrome populations stay cos^2, sin^2.
    """
    code = builtin_code("bitflip3")
    block_ids = (0, 1, 2) if blocks == "all" else (2,)
    psi = np.zeros(512)
    psi[int("111111111", 2)] = 1.0
    gate = transversal_toffoli(delta)
    draws = _block_stabilizer_draws(code, block_ids)
    # Stabilizers inserted before the gadget act on the prepared state
    # trivially; assert once instead of averaging over them.
    pre_trivial = deviation([np.linalg.norm(s.apply_to_vector(psi) - psi) for s in draws])
    out = gate @ psi
    rho = np.outer(out, out.conj())
    rho3 = partial_trace(rho, [6, 7, 8], 2, 9)
    pre = coherence_metrics(rho3, code)

    target = np.zeros(512)
    target[int("111111000", 2)] = 1.0
    fidelity = float(np.real(target.conj() @ rho @ target))

    avg = np.zeros_like(rho)
    for s in draws:
        avg += s.conjugate_matrix(rho)
    avg /= len(draws)
    rho3_avg = partial_trace(avg, [6, 7, 8], 2, 9)
    post = coherence_metrics(rho3_avg, code)

    details = {
        "delta": delta,
        "blocks": blocks,
        "fidelity_with_target": fidelity,
        "pre_insertion_trivial": pre_trivial,
        "inter_cospace_before": pre.inter_cospace,
        "inter_cospace_after": post.inter_cospace,
        "populations_after": post.populations_by_string(),
    }
    if delta == 0.0:
        value = 1.0 - fidelity
        tolerance = 1e-12
        passed = value <= tolerance
    else:
        expected = {
            (0, 0): float(np.cos(delta) ** 2),
            (1, 0): float(np.sin(delta) ** 2),
        }
        pop_dev = deviation([post.populations.get(k, 0.0) for k in expected], list(expected.values()))
        stray = sum(v for k, v in post.populations.items() if k not in expected)
        value = deviation([post.inter_cospace, pop_dev, stray, pre_trivial])
        tolerance = STRUCTURAL_TOL
        passed = value < tolerance and pre.inter_cospace > 0.19
        details["pre_coherence_exceeds_0.19"] = pre.inter_cospace > 0.19
    return VerificationReport(
        check=f"toffoli:delta={delta:g}:{blocks}",
        passed=passed,
        value=value,
        tolerance=tolerance,
        seed=seed,
        details=details,
    )


# -- syndrome extraction randomization ------------------------------------------


#: Estimated flops above which averaged_extraction_channels refuses to run.
EXTRACTION_FLOP_LIMIT = 1e12
#: Estimated bytes above which check_sampling_equivalence refuses to run.
SAMPLING_BYTE_LIMIT = 2**30


def averaged_extraction_channels(
    code: StabilizerCode,
    generator: int = 0,
    readout_noise: Superoperator | None = None,
    idle_noise: Superoperator | None = None,
    policy: RandomizationPolicy | None = None,
):
    """Exact exhaustive average of the compiled single-dit extraction.

    Returns {reported dit: conditioned channel on the encoded register};
    the nested structure of the draws lets the full product space be
    averaged as a cascade of small group averages instead of enumerating
    every instance.
    """
    if policy is None:
        policy = RandomizationPolicy()
    d = code.d
    n = code.n
    if readout_noise is not None and readout_noise.dim != d:
        raise DimensionError(f"readout noise dimension {readout_noise.dim}, the code needs {d}")
    if not 0 <= generator < code.n_generators:
        raise ValueError(f"generator {generator} lies outside [0, {code.n_generators})")
    Df = code.dim * d
    _check_superop_dim(Df)
    # Df^2 x Df^2 compositions from the loop bounds below.
    composes = 3 + 2 * d + (d**2 + d**3 + d**4 if policy.measurement_rc else d) + 2 * policy.stabilizers
    composes += 2 * d * d + 5 * len(logical_weyls(code)) if policy.twirl else 0
    flops = composes * 8 * Df**6
    if flops > EXTRACTION_FLOP_LIMIT:
        raise CapacityError(
            f"extraction averaging needs about {flops:.1e} flops, over {EXTRACTION_FLOP_LIMIT:.0e}"
        )
    enc = list(range(n))
    ro = [n]
    A = code.stab_gens[generator]
    ident = identity_channel(Df)

    def step(kind, sites, op):  # a Weyl on ``sites``, or a gate or channel there
        return _step_superop(("weyl", op.embed(sites, n + 1)) if kind == "weyl" else (kind, sites, op), d, n + 1)

    stab_avg = step("channel", enc, stabilizer_average_channel(code)) if policy.stabilizers else ident

    # Coupling block: F, (L, P), controlled-A, (L^dagger, P^dagger), G, F^dagger.
    lam = step("gate", enc + ro, controlled_weyl(A))
    if policy.twirl:
        # Averages sum as they go: no list of Df^2 x Df^2 channels is held.
        p_twirled = average(
            compose(step("weyl", ro, P.dagger()), compose(lam, step("weyl", ro, P))) for P in iter_weyls(d, 1)
        )

        def corrected(L):
            G = compute_propagation_correction(A, L).dagger()
            inner = compose(step("weyl", enc, L.dagger()), compose(p_twirled, step("weyl", enc, L)))
            return compose(step("weyl", ro, G), inner)

        coupled = average(corrected(L) for L in logical_weyls(code))
    else:
        coupled = lam
    F = fourier_matrix(d)
    coupling = compose(
        step("channel", ro, natural_rep(F.conj().T)), compose(coupled, step("channel", ro, natural_rep(F)))
    )

    # Measurement block conditioned on the reported dit.
    noise_chan = step("channel", ro, readout_noise) if readout_noise is not None else ident

    def projector_chan(m):
        proj = np.zeros((d, d))
        proj[m, m] = 1.0
        return step("channel", ro, natural_rep(proj))

    if policy.measurement_rc:
        # Each product is built once per draw it depends on; outcomes sum in (x, z, z') order.
        sums: dict = {}
        for x, z in itertools.product(range(d), repeat=2):
            weyls = [readout_weyls(d, x, z, zp) for zp in range(d)]
            noisy = compose(noise_chan, step("weyl", ro, weyls[0][0]))
            for b in range(d):
                projected = compose(projector_chan((b + x) % d), noisy)
                for _, post in weyls:
                    term = compose(step("weyl", ro, post), projected).matrix
                    sums[b] = sums[b] + term if b in sums else term
        measured = {b: _owned(Df, sums.pop(b) / d**3) for b in range(d)}
    else:
        measured = {b: compose(projector_chan(b), noise_chan) for b in range(d)}

    # Idle window on the encoded register during readout.
    phi = step("channel", enc, idle_noise) if idle_noise is not None else ident
    if policy.twirl:
        phi = average(
            compose(step("weyl", enc, L.dagger()), compose(phi, step("weyl", enc, L))) for L in logical_weyls(code)
        )
    tail = compose(stab_avg, compose(phi, stab_avg)) if policy.stabilizers else phi

    # vec index (i*d + io) + Df*(j*d + jo) splits rows and columns as (j, jo, i, io):
    # the readout starts in |0> (column jo = io = 0) and is traced out (row jo = io).
    De = code.dim
    head = compose(coupling, stab_avg)
    out = {}
    for b in range(d):
        chain = compose(tail, compose(measured[b], head))
        block = chain.matrix.reshape((De, d) * 4)[..., 0, :, 0]
        out[b] = _owned(De, np.einsum("jaiakl->jikl", block).reshape(De**2, De**2))
    return out


def readout_rotation(d: int, theta: float) -> Superoperator:
    """Coherent readout noise: exp(-i theta X) on a qubit, exp(-i theta (X + X^dagger))
    on a qudit of dimension d > 2."""
    X = WeylOperator.x_op(d, 1)
    if d == 2:
        return coherent_rotation(X, theta)
    w, V = np.linalg.eigh(X.to_matrix() + X.dagger().to_matrix())
    return natural_rep((V * np.exp(-1j * theta * w)) @ V.conj().T)


def readout_flip(d: int, p: float) -> Superoperator:
    """Stochastic readout noise: the shift X with probability p."""
    return stochastic_weyl({WeylOperator.identity(d, 1): 1.0 - p, WeylOperator.x_op(d, 1): p})


@_timed
def check_measurement_rc(
    code_name="bitflip3",
    readout_noise: Superoperator | None = None,
    generator: int = 0,
    idle_noise: Superoperator | None = None,
    seed: int = 0,
    label: str = "",
) -> VerificationReport:
    """The compiled extraction factorizes into a stochastic Weyl channel on
    the encoded register and a classical confusion matrix on the dit."""
    _, code = _resolve(code_name)
    channels = averaged_extraction_channels(
        code, generator=generator, readout_noise=readout_noise, idle_noise=idle_noise
    )
    d = code.d
    total = _owned(code.dim, sum(c.matrix for c in channels.values()))
    weyl_residual = max_offdiagonal(weyl_transfer_matrix(total, d, code.n))
    tp = is_trace_preserving(total)

    confusion = np.zeros((d, d))
    residual = 0.0
    table = cospace_table(code)
    for syndrome, (_, P) in table.items():
        proj = natural_rep(P)
        t = syndrome[generator]
        base = compose(proj, total).matrix
        norm = float(np.real(np.vdot(base, base)))
        for b, chan in channels.items():
            M = compose(proj, chan).matrix
            coeff = float(np.real(np.vdot(base, M))) / norm
            confusion[b, t] += coeff / (len(table) // d)
            residual = max(residual, deviation(M, coeff * base))
    row_sums = deviation(confusion.sum(axis=0), 1.0)
    value = max(weyl_residual, residual, row_sums, 0.0 if tp else 1.0)
    check = f"measurement_rc:{label}" if label else "measurement_rc"
    return _structural_report(check, value, seed, {"confusion": confusion.tolist()})


# -- compiled equals bare --------------------------------------------------------


def _random_circuit(rng) -> tuple:
    """A small reset-first circuit plus a policy for its compilation."""
    code = builtin_code(("bitflip3", "phaseflip3")[int(rng.integers(2))])
    use_trivial = rng.random() < 0.2
    if use_trivial:
        code = trivial_code(2, 1)
    regs = [Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code)]
    gadgets = [Gadget.reset("L0", (int(rng.integers(2)),))]
    wires = []
    twirl_groups = {}
    shape = int(rng.integers(6))
    logicals = logical_weyls(code)

    def random_unitary_gadget(index):
        roll = rng.random()
        if roll < 0.5:
            w = logicals[int(rng.integers(len(logicals)))]
            twirl_groups[index] = TwirlGroupSpec.logical_weyl()
            return Gadget.unitary("L0", weyl=w)
        if roll < 0.8 and code == builtin_code("bitflip3"):
            # transversal quarter phase, a logical Clifford of this code only
            twirl_groups[index] = TwirlGroupSpec.logical_weyl()
            return Gadget.unitary("L0", matrix=logical_s_gate(code), label="S_bar")
        ops = list(iter_weyls(code.d, code.n))
        return Gadget.unitary("L0", weyl=ops[int(rng.integers(len(ops)))])

    if shape == 0:
        pass
    elif shape == 1:
        gadgets.append(random_unitary_gadget(1))
    elif shape == 2:
        gadgets.append(random_unitary_gadget(1))
        gadgets.append(Gadget.measurement("L0", "m"))
        wires.append("m")
    elif shape == 3:
        gadgets.append(Gadget.measurement("L0", "m"))
        wires.append("m")
    elif shape == 4:
        gadgets.append(random_unitary_gadget(1))
        gadgets.append(random_unitary_gadget(2))
    else:
        if code.k == code.n:  # no stabilizer generators to extract
            gadgets.append(Gadget.idle("L0", ticks=2))
            gadgets.append(Gadget.measurement("L0", "m"))
            wires.append("m")
        else:
            regs.append(Register(name="R0", kind="readout", qudits=(code.n,)))
            gadgets.append(Gadget.reset("R0", (0,)))
            gadgets.append(
                Gadget.syndrome_extraction("L0", int(rng.integers(code.n_generators)), "R0", "s")
            )
            wires.append("s")
    circuit = LogicalCircuit(
        d=code.d, registers=tuple(regs), gadgets=tuple(gadgets), classical_wires=tuple(wires)
    )
    from .compiler import draw_space_size

    policy = RandomizationPolicy(seed=int(rng.integers(2**32)), twirl_groups=twirl_groups)
    if draw_space_size(circuit, policy) > 256:
        policy.mode = "sampled"
        policy.samples = 48
    return circuit, policy


@_timed
def check_compiled_equals_bare(seed: int, n_circuits: int = 100) -> VerificationReport:
    rng = np.random.default_rng(derive_seed(seed, "compiled_equals_bare"))
    worst = 0.0
    checked = 0
    for _ in range(n_circuits):
        circuit, policy = _random_circuit(rng)
        bare = evaluate(circuit, ideal=True).branch_table()
        for inst in instantiate(circuit, policy):
            table = inst.evaluate(ideal=True).branch_table()
            if set(table) != set(bare):
                worst = max(worst, 1.0)
                continue
            for key, (p, state) in table.items():
                bp, bstate = bare[key]
                # a NaN p makes state = (p rho) / p NaN, so the state comparison reads inf
                worst = max(worst, abs(p - bp), deviation(state, bstate))
            checked += 1
    details = {"instances_checked": checked, "circuits": n_circuits}
    return _structural_report("compiled_equals_bare", worst, seed, details)


# -- sampling equivalence ---------------------------------------------------------


def noisy_reset_measure_circuit(code_name: str = "bitflip3", theta: float = 0.35) -> LogicalCircuit:
    code = builtin_code(code_name)
    noise = compose(
        coherent_rotation(code.pure_error_gens[0].with_phase_exp(0), theta),
        coherent_rotation(code.logical_x(), theta / 2),
    )
    reg = Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code)
    return LogicalCircuit(
        d=code.d,
        registers=(reg,),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )


@_timed
def check_sampling_equivalence(
    circuit: LogicalCircuit | None = None,
    policy: RandomizationPolicy | None = None,
    shots: int = 10**5,
    seed: int = 0,
) -> VerificationReport:
    """One shot per uniformly drawn compilation, against the exact average."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if circuit is None:
        circuit = noisy_reset_measure_circuit()
    # Per shot: the drawn compilation and uniform (8 B each), the summed
    # outcome (8 B), and its compilation's CDF row with the comparison (9 B per key).
    n_bytes = shots * (24 + 9 * circuit.d ** len(circuit.classical_wires))
    if n_bytes > SAMPLING_BYTE_LIMIT:
        raise ValueError(
            f"{shots} shots need about {n_bytes:.2e} bytes, over {SAMPLING_BYTE_LIMIT:.2e}"
        )
    if policy is None:
        policy = RandomizationPolicy(seed=derive_seed(seed, "sampling_policy"))
    keys = sorted(itertools.product(range(circuit.d), repeat=len(circuit.classical_wires)))
    key_index = {k: i for i, k in enumerate(keys)}
    rows = []
    for inst in instantiate(circuit, policy):
        dist = inst.evaluate().distribution()
        row = np.zeros(len(keys))
        for k, p in dist.items():
            row[key_index[k]] = p
        rows.append(row)
    table = np.stack(rows)
    p_avg = table.mean(axis=0)

    rng = np.random.default_rng(derive_seed(seed, "sampling_shots"))
    comp = rng.integers(len(rows), size=shots)
    cdf = np.cumsum(table, axis=1)
    us = rng.random(shots)
    outcomes = (us[:, None] > cdf[comp]).sum(axis=1)
    counts = np.bincount(outcomes, minlength=len(keys))
    empirical = counts / shots
    tvd = 0.5 * float(np.abs(empirical - p_avg).sum())
    bound = 3.0 * float(np.sqrt(len(keys) / shots))
    return VerificationReport(
        check="sampling_equivalence",
        passed=tvd <= bound,
        value=tvd,
        tolerance=bound,
        seed=seed,
        details={"compilations": len(rows), "p_avg": [float(p) for p in p_avg], "shots": shots},
    )


# -- registry ---------------------------------------------------------------------


def _per_code(check):
    return lambda seed, code: [check(c, seed=seed) for c in ([code] if code else BUILTIN_CHECK_CODES)]


def _measurement_rc_pair(seed, code):
    code = code or "bitflip3"
    d = _resolve(code)[1].d
    return [
        check_measurement_rc(code, readout_rotation(d, 0.2), seed=seed, label="coherent"),
        check_measurement_rc(code, readout_flip(d, 0.1), seed=seed, label="stochastic"),
    ]


#: Each registry check by name, as fn(seed, code) -> reports, in ``--all`` order.
_CHECKS = {
    "theorem1": _per_code(check_theorem1),
    "character_orthogonality": _per_code(check_character_orthogonality),
    "theorem2": lambda seed, code: [check_theorem2_suite(seed)],
    "clifford_path": lambda seed, code: [check_clifford_path(seed)],
    "t_path": lambda seed, code: [check_t_path(seed)],
    "toffoli": lambda seed, code: [
        run_toffoli_example(0.0, seed=seed),
        run_toffoli_example(0.1, seed=seed),
    ],
    "measurement_rc": _measurement_rc_pair,
    "compiled_equals_bare": lambda seed, code: [check_compiled_equals_bare(seed)],
    "sampling_equivalence": lambda seed, code: [check_sampling_equivalence(seed=seed)],
}
CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, seed: int, code: str | None = None) -> list:
    """Run one named check (optionally scoped to a code); returns reports."""
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}")
    return _CHECKS[name](seed, code)


def _run_claimed(bounds, front: bool, names, seed: int, code) -> dict:
    """{index: reports or the exception raised} of the checks this process claims from one end
    of ``bounds`` = [first, end), the unclaimed indices of ``names``.  No check after a failed
    one is needed: the front's first error ends all claims; the back's claims all come earlier."""
    done = {}
    while True:
        with bounds.get_lock():
            first, end = bounds[:]
            if first >= end:
                return done
            i = first if front else end - 1
            bounds[:] = [first + 1, end] if front else [first, i]
        try:
            done[i] = run_check(names[i], seed, code)
        except Exception as exc:
            done[i] = exc
            if front:
                bounds[1] = i + 1


def _helper(conn, bounds, names, seed: int, code) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt reaches the caller, which ends the helper
    conn.send(_run_claimed(bounds, True, names, seed, code))


def run_checks(names, seed: int, code=None) -> list:
    """The reports of run_check over ``names``, in order; the earliest failing check raises.
    With two names or more, two CPUs, no other thread and fork, a forked helper runs part
    of the list (see _run_forked); the reports are the same either way."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if len(names) >= 2 and cpus >= 2 and threading.active_count() == 1:  # a fork keeps other threads' locks
        import multiprocessing  # only here: importing it costs about 16 ms

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            return _run_forked(multiprocessing.get_context("fork"), names, seed, code)
    return [r for name in names for r in run_check(name, seed, code)]


def _run_forked(ctx, names, seed: int, code) -> list:
    """run_checks with a forked helper that writes no output and claims checks from the front
    of ``names`` while this process claims them from the back, so that the last checks'
    instances are drawn here.  The helper has ended when the call returns or raises."""
    bounds = ctx.Array("i", [0, len(names)])
    receive, send = ctx.Pipe(duplex=False)
    helper = ctx.Process(target=_helper, args=(send, bounds, names, seed, code))
    gc.freeze()  # else this process's collections write object headers into pages both share
    try:
        helper.start()
    finally:
        gc.unfreeze()
        send.close()
    try:
        done = _run_claimed(bounds, False, names, seed, code)
        done.update(receive.recv())
    except EOFError:
        raise RuntimeError("the check helper ended without sending its reports") from None
    except BaseException:
        helper.terminate()
        raise
    finally:
        helper.join()
        receive.close()
    if errors := [done[i] for i in sorted(done) if isinstance(done[i], Exception)]:
        raise errors[0]
    return [r for i in sorted(done) for r in done[i]]
