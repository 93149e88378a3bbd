"""Gadget-level intermediate representation of encoded circuits.

A circuit is a list of registers (logical blocks carrying a stabilizer code,
or single-qudit readout registers) and an ordered list of gadgets: state
resets, unitaries, logical measurements, syndrome extractions, idles, and
raw readout measurements.  Each gadget may carry a noise channel on its
footprint; noise conventions are

  * reset: noise applied after the ideal preparation,
  * unitary: noise applied before the ideal action (the factored form
    where the implementation is ideal-action-after-noise),
  * measurements: noise applied just before the ideal projection,
  * syndrome extraction: ``noise`` acts on the readout qudit before its
    measurement, ``idle_noise`` acts on the encoded register during the
    readout window.

The evaluator tracks the exact distribution over measurement outcomes by
branch enumeration, with a configurable branch limit and a sampling
fallback.  Compiled randomization draws enter as insertion layers around
and inside gadgets; the same evaluator runs bare and compiled circuits.
``expand_gadget`` lowers gadgets to five step kinds: ("weyl", op),
("gate", sites, U), ("channel", sites, C), ("reset", sites, state) and
("measure", sites, kraus_by_outcome, wire), one step for site readouts
(kraus_by_outcome None: the diagonal blocks of |m><m|, copied) and logical
measurements (cospace-refined projectors on the block); "weyl" is an index
map, the others act on their footprint in the site layout of ``channels``.

Circuits serialize to JSON (schema_version 1) with top-level keys
"codes", "registers", "gadgets" and "classical_wires".
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    SUPEROP_DIM_LIMIT,
    Superoperator,
    apply_local_channel,
    apply_local_kraus,
    apply_local_measurement,
    compose,
    embed_operator,
    identity_channel,
    lift_local_superop,
    natural_rep,
    reset_sites,
)
from .codes import (
    StabilizerCode,
    code_from_dict,
    code_to_dict,
    enumerate_pure_errors,
    is_logical_weyl,
    logical_basis_state,
    projector_for_syndrome,
    syndrome_of,
)
from .weyl import CapacityError, WeylOperator, dense_limit

SCHEMA_VERSION = 1

RESET = "reset"
UNITARY = "unitary"
MEASUREMENT = "measurement"
SYNDROME_EXTRACTION = "syndrome_extraction"
IDLE = "idle"
READOUT_MEASUREMENT = "readout_measurement"

GADGET_KINDS = (RESET, UNITARY, MEASUREMENT, SYNDROME_EXTRACTION, IDLE, READOUT_MEASUREMENT)


class SchemaError(ValueError):
    """Circuit JSON violates the schema; the message names the path."""


class EvaluationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Register:
    name: str
    kind: str  # 'logical' | 'readout'
    qudits: tuple
    code: StabilizerCode | None = None

    def __post_init__(self):
        object.__setattr__(self, "qudits", tuple(int(q) for q in self.qudits))


@dataclass(frozen=True, eq=False)
class Gadget:
    kind: str
    registers: tuple
    state: tuple | None = None
    weyl: WeylOperator | None = None
    matrix: np.ndarray | None = None
    label: str | None = None
    generator: int | None = None
    readout: str | None = None
    wire: str | None = None
    ticks: int = 1
    noise: Superoperator | None = None
    idle_noise: Superoperator | None = None

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(self.registers))
        if self.state is not None:
            object.__setattr__(self, "state", tuple(int(v) for v in self.state))
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=complex)
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)

    # convenience constructors

    @classmethod
    def reset(cls, register: str, state=(0,), noise=None) -> "Gadget":
        return cls(RESET, (register,), state=tuple(state), noise=noise)

    @classmethod
    def unitary(cls, registers, weyl=None, matrix=None, label=None, noise=None) -> "Gadget":
        if isinstance(registers, str):
            registers = (registers,)
        return cls(UNITARY, tuple(registers), weyl=weyl, matrix=matrix, label=label, noise=noise)

    @classmethod
    def measurement(cls, register: str, wire: str, weyl=None, noise=None) -> "Gadget":
        return cls(MEASUREMENT, (register,), weyl=weyl, wire=wire, noise=noise)

    @classmethod
    def syndrome_extraction(
        cls, register: str, generator: int, readout: str, wire: str, noise=None, idle_noise=None
    ) -> "Gadget":
        return cls(
            SYNDROME_EXTRACTION,
            (register,),
            generator=generator,
            readout=readout,
            wire=wire,
            noise=noise,
            idle_noise=idle_noise,
        )

    @classmethod
    def idle(cls, register: str, ticks: int = 1, noise=None) -> "Gadget":
        return cls(IDLE, (register,), ticks=ticks, noise=noise)

    @classmethod
    def readout_measurement(cls, register: str, wire: str, noise=None) -> "Gadget":
        return cls(READOUT_MEASUREMENT, (register,), wire=wire, noise=noise)


@dataclass(frozen=True, eq=False)
class LogicalCircuit:
    d: int
    registers: tuple
    gadgets: tuple
    classical_wires: tuple

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(self.registers))
        object.__setattr__(self, "gadgets", tuple(self.gadgets))
        object.__setattr__(self, "classical_wires", tuple(self.classical_wires))

    @property
    def n_qudits(self) -> int:
        return sum(len(r.qudits) for r in self.registers)

    @property
    def dim(self) -> int:
        return self.d**self.n_qudits

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise KeyError(f"no register named {name!r}")

    def footprint(self, gadget: Gadget) -> tuple:
        out = []
        for name in gadget.registers:
            out.extend(self.register(name).qudits)
        return tuple(out)


@dataclass(frozen=True)
class Diagnostic:
    gadget: int | None
    rule: str
    message: str


def validate(circuit: LogicalCircuit) -> list:
    """Structural diagnostics; an empty list means the circuit is well formed."""
    diags = []

    def bad(gadget, rule, message):
        diags.append(Diagnostic(gadget, rule, message))

    names = [r.name for r in circuit.registers]
    if len(set(names)) != len(names):
        bad(None, "register-names", "register names are not unique")
    all_q = [q for r in circuit.registers for q in r.qudits]
    if sorted(all_q) != list(range(len(all_q))):
        bad(None, "qudit-indices", "register qudit indices must partition 0..N-1")
    for r in circuit.registers:
        if r.kind == "logical":
            if r.code is None:
                bad(None, "register-code", f"logical register {r.name} has no code")
            elif len(r.qudits) != r.code.n or r.code.d != circuit.d:
                bad(None, "register-code", f"register {r.name} does not match its code")
        elif r.kind == "readout":
            if len(r.qudits) != 1:
                bad(None, "readout-size", f"readout register {r.name} must hold one qudit")
        else:
            bad(None, "register-kind", f"unknown register kind {r.kind!r}")
    if diags:
        return diags

    wires_written = {}
    readout_ready = {r.name: False for r in circuit.registers if r.kind == "readout"}
    for i, g in enumerate(circuit.gadgets):
        try:
            regs = [circuit.register(name) for name in g.registers]
        except KeyError as exc:
            bad(i, "unknown-register", str(exc))
            continue
        footprint = circuit.footprint(g)
        fdim = circuit.d ** len(footprint)

        if g.noise is not None:
            expected = circuit.d if g.kind == SYNDROME_EXTRACTION else fdim
            if g.noise.dim != expected:
                bad(i, "noise-dim", f"noise dimension {g.noise.dim}, footprint needs {expected}")
        if g.idle_noise is not None:
            if g.kind != SYNDROME_EXTRACTION:
                bad(i, "idle-noise", "idle_noise is only defined for syndrome extraction")
            elif g.idle_noise.dim != fdim:
                bad(i, "noise-dim", f"idle noise dimension {g.idle_noise.dim}, expected {fdim}")

        if g.kind == RESET:
            reg = regs[0]
            width = reg.code.k if reg.kind == "logical" else 1
            if g.state is None or len(g.state) != width:
                bad(i, "reset-state", f"reset state must have {width} dits")
            elif any(not 0 <= v < circuit.d for v in g.state):
                bad(i, "reset-state", "reset dits out of range")
            if reg.kind == "readout":
                readout_ready[reg.name] = True
        elif g.kind == UNITARY:
            if (g.weyl is None) == (g.matrix is None):
                bad(i, "unitary-realisation", "exactly one of weyl or matrix must be given")
            elif g.weyl is not None:
                if g.weyl.d != circuit.d or g.weyl.n != len(footprint):
                    bad(i, "unitary-realisation", "weyl does not match the gadget footprint")
            else:
                if g.matrix.shape != (fdim, fdim):
                    bad(i, "unitary-realisation", f"matrix shape {g.matrix.shape} != ({fdim},)*2")
                elif np.max(np.abs(g.matrix @ g.matrix.conj().T - np.eye(fdim))) > 1e-10:
                    bad(i, "unitary-realisation", "matrix is not unitary")
        elif g.kind == MEASUREMENT:
            reg = regs[0]
            if reg.kind != "logical":
                bad(i, "measurement-target", "logical measurement needs a logical register")
            elif g.weyl is not None and not is_logical_weyl(reg.code, g.weyl):
                bad(i, "measurement-basis", f"{g.weyl} is not a logical Weyl of the code")
            if g.wire is None:
                bad(i, "wire", "measurement must name an output wire")
        elif g.kind == SYNDROME_EXTRACTION:
            reg = regs[0]
            if reg.kind != "logical":
                bad(i, "extraction-target", "extraction needs a logical register")
            elif not (g.generator is not None and 0 <= g.generator < reg.code.n_generators):
                bad(i, "generator-index", f"generator index {g.generator} out of range")
            try:
                ro = circuit.register(g.readout) if g.readout else None
            except KeyError:
                ro = None
            if ro is None or ro.kind != "readout":
                bad(i, "readout-register", "extraction needs a readout register")
            elif not readout_ready.get(ro.name, False):
                bad(i, "readout-reset", f"readout {ro.name} is not reset before use")
            else:
                readout_ready[ro.name] = False
            if g.wire is None:
                bad(i, "wire", "extraction must name an output wire")
        elif g.kind == READOUT_MEASUREMENT:
            reg = regs[0]
            if reg.kind != "readout":
                bad(i, "measurement-target", "readout measurement needs a readout register")
            elif not readout_ready.get(reg.name, False):
                bad(i, "readout-reset", f"readout {reg.name} is not reset before measurement")
            else:
                readout_ready[reg.name] = False
            if g.wire is None:
                bad(i, "wire", "measurement must name an output wire")
        elif g.kind == IDLE:
            if g.ticks < 1:
                bad(i, "idle-ticks", "idle duration must be at least one tick")
        else:
            bad(i, "gadget-kind", f"unknown gadget kind {g.kind!r}")

        if g.wire is not None and g.kind in (MEASUREMENT, SYNDROME_EXTRACTION, READOUT_MEASUREMENT):
            if g.wire in wires_written:
                bad(i, "wire-rewrite", f"wire {g.wire!r} already written by gadget {wires_written[g.wire]}")
            wires_written[g.wire] = i

    declared = set(circuit.classical_wires)
    if declared != set(wires_written):
        bad(None, "classical-wires", f"declared wires {sorted(declared)} != written wires {sorted(wires_written)}")
    return diags


# -- insertion layers ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Layer:
    """A compiled insertion: a Weyl or a raw unitary on named registers."""

    registers: tuple
    weyl: WeylOperator | None = None
    matrix: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(self.registers))
        if (self.weyl is None) == (self.matrix is None):
            raise ValueError("layer needs exactly one of weyl or matrix")


@dataclass
class GadgetInsertions:
    before: tuple = ()
    after: tuple = ()
    internal: dict = field(default_factory=dict)
    classical_add: dict = field(default_factory=dict)
    draws: dict = field(default_factory=dict)


EMPTY_INSERTIONS = GadgetInsertions()


@dataclass
class CompiledInstance:
    """One randomization draw over a base circuit.

    Replaying with the same seed and index reproduces the instance exactly;
    classical_post maps each wire to the additive correction applied to its
    raw value.
    """

    base: LogicalCircuit
    insertions: tuple
    classical_post: dict
    seed: int | None = None
    index: int | None = None

    def evaluate(self, ideal: bool = False, **kwargs) -> "CircuitResult":
        return evaluate(
            self.base,
            insertions=self.insertions,
            classical_post=self.classical_post,
            ideal=ideal,
            **kwargs,
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "base": circuit_to_dict(self.base),
            "insertions": [_insertions_to_dict(ins) for ins in self.insertions],
            "classical_post": {k: int(v) for k, v in sorted(self.classical_post.items())},
            "seed": self.seed,
            "index": self.index,
            "inserted_layer_count": sum(
                len(ins.before) + len(ins.after) + len(ins.internal)
                for ins in self.insertions
            ),
        }


# -- gadget expansion ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fourier_matrix(d: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    out = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def controlled_weyl(A: WeylOperator) -> np.ndarray:
    """sum_s A^s (x) |s><s| with the control qudit as the last factor."""
    d = A.d
    Da = A.dim
    out = np.zeros((Da * d, Da * d), dtype=complex)
    for s in range(d):
        ctrl = np.zeros((d, d))
        ctrl[s, s] = 1.0
        out += np.kron((A**s).to_matrix(), ctrl)
    out.setflags(write=False)
    return out


def _step_weyl(op: WeylOperator, positions, n_total: int):
    return ("weyl", op.embed(positions, n_total))


def _layer_steps(circuit: LogicalCircuit, layers) -> list:
    steps = []
    n = circuit.n_qudits
    for layer in layers:
        positions = []
        for name in layer.registers:
            positions.extend(circuit.register(name).qudits)
        if layer.weyl is not None:
            steps.append(_step_weyl(layer.weyl, positions, n))
        else:
            steps.append(("gate", tuple(positions), layer.matrix))
    return steps


def _readout_steps(d: int, n: int, site: int, wire: str, ins: GadgetInsertions, noise: list) -> list:
    """X^x Z^z, the readout noise, the measurement, then the restore Z^z' X^-x."""
    steps = []
    rc = ins.internal.get("rc")
    if rc is not None:
        x, z = rc
        steps.append(_step_weyl(WeylOperator(d, (x,), (z,)), (site,), n))
    steps += noise
    steps.append(("measure", (site,), None, wire))
    zp = ins.internal.get("post_z")
    if rc is not None or zp is not None:
        x = rc[0] if rc is not None else 0
        zp = zp if zp is not None else 0
        w_post = WeylOperator(d, (0,), (zp,)).mul(WeylOperator(d, (-x,), (0,)))
        if not w_post.is_identity():
            steps.append(_step_weyl(w_post, (site,), n))
    return steps


def expand_gadget(circuit: LogicalCircuit, g: Gadget, ins: GadgetInsertions, ideal: bool) -> list:
    """Primitive step list for one gadget with its compiled insertions."""
    d = circuit.d
    n = circuit.n_qudits
    reg = circuit.register(g.registers[0])
    positions = circuit.footprint(g)
    noise_sites = circuit.register(g.readout).qudits if g.kind == SYNDROME_EXTRACTION else positions
    noise = [] if ideal or g.noise is None else [("channel", noise_sites, g.noise)]
    steps = _layer_steps(circuit, ins.before)

    if g.kind == RESET:
        if reg.kind == "logical":
            state = logical_basis_state(reg.code, g.state)
        else:
            state = np.zeros(d)
            state[g.state[0] % d] = 1.0
        steps.append(("reset", tuple(reg.qudits), state))
        steps += noise

    elif g.kind == UNITARY:
        steps += noise
        if g.weyl is not None:
            steps.append(_step_weyl(g.weyl, positions, n))
        else:
            steps.append(("gate", tuple(positions), g.matrix))

    elif g.kind == MEASUREMENT:
        steps += noise
        measured = g.weyl if g.weyl is not None else reg.code.logical_z(0)
        kraus = _logical_measurement_kraus(reg.code, measured)
        steps.append(("measure", tuple(reg.qudits), kraus, g.wire))
        restore = ins.internal.get("restore")
        if restore is not None and not restore.is_identity(ignore_phase=True):
            steps.append(_step_weyl(restore, reg.qudits, n))

    elif g.kind == SYNDROME_EXTRACTION:
        ro_pos = noise_sites
        A = reg.code.stab_gens[g.generator]
        F = fourier_matrix(d)
        steps.append(("gate", ro_pos, F))
        L = ins.internal.get("enc_twirl")
        P = ins.internal.get("readout_weyl")
        if L is not None:
            steps.append(_step_weyl(L, reg.qudits, n))
        if P is not None:
            steps.append(_step_weyl(P, ro_pos, n))
        steps.append(("gate", tuple(reg.qudits) + ro_pos, controlled_weyl(A)))
        if L is not None:
            steps.append(_step_weyl(L.dagger(), reg.qudits, n))
        if P is not None:
            steps.append(_step_weyl(P.dagger(), ro_pos, n))
        G = ins.internal.get("readout_correction")
        if G is not None and not G.is_identity():
            steps.append(_step_weyl(G, ro_pos, n))
        steps.append(("gate", ro_pos, F.conj().T))
        steps += _readout_steps(d, n, ro_pos[0], g.wire, ins, noise)
        ib = ins.internal.get("idle_before")
        if ib is not None:
            steps.append(_step_weyl(ib, reg.qudits, n))
        if not ideal and g.idle_noise is not None:
            steps.append(("channel", tuple(reg.qudits), g.idle_noise))
        ia = ins.internal.get("idle_after")
        if ia is not None:
            steps.append(_step_weyl(ia, reg.qudits, n))

    elif g.kind == IDLE:
        steps += noise

    elif g.kind == READOUT_MEASUREMENT:
        steps += _readout_steps(d, n, positions[0], g.wire, ins, noise)

    else:
        raise EvaluationError(f"unknown gadget kind {g.kind!r}")

    return steps + _layer_steps(circuit, ins.after)


# -- evaluation ----------------------------------------------------------------


@dataclass
class Branch:
    probability: float
    state: np.ndarray
    record: dict


@dataclass
class CircuitResult:
    circuit: LogicalCircuit
    branches: list
    exact: bool = True

    def distribution(self) -> dict:
        """Probability of each joint wire assignment, keyed in wire order."""
        wires = self.circuit.classical_wires
        out = {}
        for br in self.branches:
            key = tuple(br.record.get(w) for w in wires)
            out[key] = out.get(key, 0.0) + br.probability
        return out

    def final_state(self) -> np.ndarray:
        D = self.circuit.dim
        acc = np.zeros((D, D), dtype=complex)
        for br in self.branches:
            acc += br.probability * br.state
        return acc

    def branch_table(self) -> dict:
        """record tuple -> (probability, normalized conditional state)."""
        wires = self.circuit.classical_wires
        probs: dict = {}
        states: dict = {}
        for br in self.branches:
            key = tuple(br.record.get(w) for w in wires)
            probs[key] = probs.get(key, 0.0) + br.probability
            states[key] = states.get(key, 0.0) + br.probability * br.state
        return {k: (p, states[k] / p) for k, p in probs.items()}


@functools.lru_cache(maxsize=None)
def _logical_measurement_kraus(code: StabilizerCode, measured: WeylOperator):
    """Per outcome b, the cospace-refined projectors onto eigenvalue w^b, on the code block."""
    d = code.d
    M = measured.to_matrix()
    spectral = []
    for b in range(d):
        acc = np.zeros((code.dim, code.dim), dtype=complex)
        for j in range(d):
            acc += np.exp(-2j * np.pi * j * b / d) * np.linalg.matrix_power(M, j)
        spectral.append(acc / d)
    syndromes = [syndrome_of(code, T) for T in enumerate_pure_errors(code)]
    pis = [projector_for_syndrome(code, s) for s in syndromes]
    by_outcome = ([pi_t @ S for pi_t in pis] for S in spectral)
    return tuple(tuple(K for K in kraus if np.max(np.abs(K)) >= 1e-14) for kraus in by_outcome)


def evaluate(
    circuit: LogicalCircuit,
    insertions=None,
    classical_post=None,
    ideal: bool = False,
    branch_limit: int = 4096,
    rng: np.random.Generator | None = None,
) -> CircuitResult:
    """Run the circuit, returning the exact branch decomposition.

    With ``ideal=True`` every noise channel is skipped.  If the branch count
    would exceed ``branch_limit`` and an rng is supplied, measurements fall
    back to sampling one outcome per branch (the result is then a stochastic
    estimate and ``exact`` is False); without an rng the limit raises.
    """
    diags = validate(circuit)
    if diags:
        raise EvaluationError(f"invalid circuit: {diags[0].rule}: {diags[0].message}")
    d = circuit.d
    n = circuit.n_qudits
    D = circuit.dim
    if D > dense_limit():
        raise CapacityError(f"circuit dimension {D} exceeds the dense cap")
    if insertions is None:
        insertions = [EMPTY_INSERTIONS] * len(circuit.gadgets)

    steps = []
    for g, ins in zip(circuit.gadgets, insertions):
        steps.extend(expand_gadget(circuit, g, ins, ideal))

    rho0 = np.zeros((D, D), dtype=complex)
    rho0[0, 0] = 1.0
    branches = [Branch(1.0, rho0, {})]
    exact = True

    for step in steps:
        kind = step[0]
        if kind == "weyl":
            op = step[1]
            for br in branches:
                br.state = op.conjugate_matrix(br.state)
        elif kind == "gate":
            _, positions, matrix = step
            for br in branches:
                br.state = apply_local_kraus(br.state, (matrix,), positions, d, n)
        elif kind == "channel":
            _, positions, chan = step
            for br in branches:
                br.state = apply_local_channel(br.state, chan, positions, d, n)
        elif kind == "reset":
            _, positions, state = step
            for br in branches:
                br.state = reset_sites(br.state, positions, state, d, n)
        elif kind == "measure":
            _, sites, kraus, wire = step
            outcomes = (apply_local_measurement(br.state, kraus, sites, d, n) for br in branches)
            branches, exact = _branch_measure(branches, outcomes, wire, branch_limit, rng, exact)
        else:
            raise EvaluationError(f"unknown step {kind!r}")

    if classical_post:
        for br in branches:
            for wire, add in classical_post.items():
                if wire in br.record:
                    br.record[wire] = (br.record[wire] + add) % d
    return CircuitResult(circuit, branches, exact=exact)


def _branch_measure(branches, outcome_states, wire, branch_limit, rng, exact):
    """Split every branch on one measurement.

    outcome_states yields, for each branch in order, an iterable of the
    unnormalised post-measurement states of outcomes 0, 1, ...; outcomes of
    probability at most 1e-14 are dropped.
    """
    outcomes = []
    for states in outcome_states:
        rows = []
        for m, sub in enumerate(states):
            p = float(np.real(np.trace(sub)))
            if p > 1e-14:
                rows.append((m, p, sub))
        outcomes.append(rows)
    total = sum(len(rows) for rows in outcomes)
    if total > branch_limit:
        if rng is None:
            raise EvaluationError(
                f"branch limit {branch_limit} exceeded; pass an rng for the sampling fallback"
            )
        new = []
        for br, rows in zip(branches, outcomes):
            ps = np.array([p for _, p, _ in rows])
            pick = rng.choice(len(rows), p=ps / ps.sum())
            m, p, sub = rows[pick]
            new.append(Branch(br.probability, sub / p, {**br.record, wire: m}))
        return new, False
    new = []
    for br, rows in zip(branches, outcomes):
        for m, p, sub in rows:
            new.append(Branch(br.probability * p, sub / p, {**br.record, wire: m}))
    return new, exact


def instance_channel(inst, ideal: bool = False) -> Superoperator:
    """Superoperator of a measurement-free compiled instance."""
    c = inst.base
    d, n = c.d, c.n_qudits
    acc = identity_channel(c.dim)
    for g, ins in zip(c.gadgets, inst.insertions):
        for step in expand_gadget(c, g, ins, ideal):
            kind = step[0]
            if kind == "weyl":
                term = natural_rep(step[1].to_matrix())
            elif kind == "gate":
                term = natural_rep(embed_operator(step[2], step[1], d, n))
            elif kind == "channel":
                term = lift_local_superop(step[2], step[1], d, n)
            else:
                raise ValueError(f"instance contains a non-channel step {kind!r}")
            acc = compose(term, acc)
    return acc


def ideal_channel(circuit: LogicalCircuit):
    """Reference semantics with all noise ignored.

    Unitary-only circuits return a Superoperator (dimension permitting);
    circuits containing resets or measurements return the ideal
    CircuitResult from the branch evaluator.
    """
    unitary_only = all(g.kind in (UNITARY, IDLE) for g in circuit.gadgets)
    if unitary_only:
        D = circuit.dim
        if D > SUPEROP_DIM_LIMIT:
            raise CapacityError(
                f"superoperator for dimension {D} exceeds the cap {SUPEROP_DIM_LIMIT}"
            )
        diags = validate(circuit)
        if diags:
            raise EvaluationError(f"invalid circuit: {diags[0].rule}: {diags[0].message}")
        empty = (EMPTY_INSERTIONS,) * len(circuit.gadgets)
        return instance_channel(CompiledInstance(circuit, empty, {}), ideal=True)
    return evaluate(circuit, ideal=True)


# -- serialization -------------------------------------------------------------


def _matrix_to_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows, path: str) -> np.ndarray:
    try:
        return np.array([[complex(a, b) for a, b in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed complex matrix ({exc})") from None


def _superop_to_json(s: Superoperator) -> dict:
    return {"dim": s.dim, "matrix": _matrix_to_json(s.matrix)}


def _superop_from_json(data, path: str) -> Superoperator:
    if not isinstance(data, dict) or "dim" not in data or "matrix" not in data:
        raise SchemaError(f"{path}: expected an object with dim and matrix")
    return Superoperator(int(data["dim"]), _matrix_from_json(data["matrix"], path + ".matrix"))


def _gadget_to_dict(g: Gadget) -> dict:
    out: dict = {"kind": g.kind, "registers": list(g.registers)}
    if g.state is not None:
        out["state"] = list(g.state)
    if g.weyl is not None:
        out["weyl"] = g.weyl.to_string()
    if g.matrix is not None:
        out["matrix"] = _matrix_to_json(g.matrix)
    if g.label is not None:
        out["label"] = g.label
    if g.generator is not None:
        out["generator"] = g.generator
    if g.readout is not None:
        out["readout"] = g.readout
    if g.wire is not None:
        out["wire"] = g.wire
    if g.kind == IDLE:
        out["ticks"] = g.ticks
    if g.noise is not None:
        out["noise"] = _superop_to_json(g.noise)
    if g.idle_noise is not None:
        out["idle_noise"] = _superop_to_json(g.idle_noise)
    return out


def circuit_to_dict(circuit: LogicalCircuit) -> dict:
    codes = {}
    code_keys = {}
    for r in circuit.registers:
        if r.code is not None and id(r.code) not in code_keys:
            key = f"code{len(codes)}"
            for name, factory in _builtin_items():
                if factory() == r.code:
                    key = name
                    break
            codes[key] = code_to_dict(r.code)
            code_keys[id(r.code)] = key
    return {
        "schema_version": SCHEMA_VERSION,
        "d": circuit.d,
        "codes": codes,
        "registers": [
            {
                "name": r.name,
                "kind": r.kind,
                "qudits": list(r.qudits),
                **({"code": code_keys[id(r.code)]} if r.code is not None else {}),
            }
            for r in circuit.registers
        ],
        "gadgets": [_gadget_to_dict(g) for g in circuit.gadgets],
        "classical_wires": list(circuit.classical_wires),
    }


def _builtin_items():
    from .codes import _BUILTIN_FACTORIES

    return _BUILTIN_FACTORIES.items()


def serialize(circuit: LogicalCircuit) -> str:
    return json.dumps(circuit_to_dict(circuit), sort_keys=True, separators=(",", ":")) + "\n"


def _need(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return data[key]


def circuit_from_dict(data: dict) -> LogicalCircuit:
    if not isinstance(data, dict):
        raise SchemaError("$: expected a JSON object")
    version = _need(data, "schema_version", "$")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"$.schema_version: unsupported version {version}")
    d = int(_need(data, "d", "$"))
    codes = {}
    for key, cdata in _need(data, "codes", "$").items():
        try:
            codes[key] = code_from_dict(cdata)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"$.codes.{key}: {exc}") from None
    registers = []
    for i, rdata in enumerate(_need(data, "registers", "$")):
        path = f"$.registers[{i}]"
        kind = _need(rdata, "kind", path)
        code = None
        if kind == "logical":
            ckey = _need(rdata, "code", path)
            if ckey not in codes:
                raise SchemaError(f"{path}.code: unknown code key {ckey!r}")
            code = codes[ckey]
        registers.append(
            Register(
                name=_need(rdata, "name", path),
                kind=kind,
                qudits=tuple(_need(rdata, "qudits", path)),
                code=code,
            )
        )
    gadgets = []
    for i, gdata in enumerate(_need(data, "gadgets", "$")):
        path = f"$.gadgets[{i}]"
        kind = _need(gdata, "kind", path)
        if kind not in GADGET_KINDS:
            raise SchemaError(f"{path}.kind: unknown gadget kind {kind!r}")
        weyl = None
        if "weyl" in gdata:
            try:
                weyl = WeylOperator.from_string(gdata["weyl"])
            except (ValueError, TypeError) as exc:
                raise SchemaError(f"{path}.weyl: {exc}") from None
        matrix = _matrix_from_json(gdata["matrix"], path + ".matrix") if "matrix" in gdata else None
        noise = _superop_from_json(gdata["noise"], path + ".noise") if "noise" in gdata else None
        idle_noise = (
            _superop_from_json(gdata["idle_noise"], path + ".idle_noise")
            if "idle_noise" in gdata
            else None
        )
        gadgets.append(
            Gadget(
                kind=kind,
                registers=tuple(_need(gdata, "registers", path)),
                state=tuple(gdata["state"]) if "state" in gdata else None,
                weyl=weyl,
                matrix=matrix,
                label=gdata.get("label"),
                generator=gdata.get("generator"),
                readout=gdata.get("readout"),
                wire=gdata.get("wire"),
                ticks=int(gdata.get("ticks", 1)),
                noise=noise,
                idle_noise=idle_noise,
            )
        )
    return LogicalCircuit(
        d=d,
        registers=tuple(registers),
        gadgets=tuple(gadgets),
        classical_wires=tuple(_need(data, "classical_wires", "$")),
    )


def parse(text: str) -> LogicalCircuit:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return circuit_from_dict(data)


def _layer_to_dict(layer: Layer) -> dict:
    out: dict = {"registers": list(layer.registers)}
    if layer.weyl is not None:
        out["weyl"] = layer.weyl.to_string()
    else:
        out["matrix"] = _matrix_to_json(layer.matrix)
    if layer.label:
        out["label"] = layer.label
    return out


def _insertions_to_dict(ins: GadgetInsertions) -> dict:
    internal = {}
    for key, value in sorted(ins.internal.items()):
        if isinstance(value, WeylOperator):
            internal[key] = value.to_string()
        elif isinstance(value, tuple):
            internal[key] = list(value)
        else:
            internal[key] = value
    return {
        "before": [_layer_to_dict(l) for l in ins.before],
        "after": [_layer_to_dict(l) for l in ins.after],
        "internal": internal,
        "classical_add": {k: int(v) for k, v in sorted(ins.classical_add.items())},
        "draws": {k: ins.draws[k] for k in sorted(ins.draws)},
    }
