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
    readout window,
  * idle: noise applied once per tick.

Every noise channel must be trace-preserving (diagnostic ``noise-trace``).
The evaluator tracks the exact distribution over measurement outcomes by
branch enumeration, with a configurable branch limit and a sampling
fallback.  Compiled randomization draws enter as inserted layers, which are
noise-free unitary gadgets before and after a gadget, and as settings inside
it; the same evaluator runs bare and compiled circuits.
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
import types
import weakref
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    Superoperator,
    apply_local_channel,
    apply_local_kraus,
    apply_local_measurement,
    compose,
    embed_operator,
    identity_channel,
    is_trace_preserving,
    lift_local_superop,
    natural_rep,
    reset_sites,
)
from .codes import (
    _BUILTIN_FACTORIES,
    StabilizerCode,
    _json_int,
    _json_object,
    _json_strs,
    _json_weyl,
    code_from_dict,
    code_to_dict,
    cospace_table,
    is_logical_weyl,
    logical_basis_state,
)
from .weyl import (
    _SMALL_DIM,
    CapacityError,
    WeylOperator,
    dense_limit,
    eigenprojector,
    roots_of_unity,
)

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
        for chan in (g.noise, g.idle_noise):
            if chan is not None and not is_trace_preserving(chan):
                bad(i, "noise-trace", f"noise of dimension {chan.dim} is not trace-preserving")

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
            elif g.weyl is not None and (g.weyl.d != circuit.d or g.weyl.n != reg.code.n):
                message = f"{g.weyl} does not act on {reg.code.n} qudits of dimension {circuit.d}"
                bad(i, "measurement-basis", message)
            elif g.weyl is not None and not is_logical_weyl(reg.code, g.weyl):
                bad(i, "measurement-basis", f"{g.weyl} is not a logical Weyl of the code")
            elif g.weyl is not None and not (g.weyl**circuit.d).is_identity():
                # Its eigenprojectors are means of w^(-jb) W^j, projectors only when W^d = 1.
                bad(i, "measurement-basis", f"{g.weyl} has W^{circuit.d} != 1, phase included")
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


#: Diagnostics per circuit object: circuits are immutable, so each is validated once.
_DIAGNOSTICS = weakref.WeakKeyDictionary()


def check_valid(circuit: LogicalCircuit, error=EvaluationError) -> None:
    """Raise ``error`` naming the circuit's first diagnostic, if it has one."""
    diags = _DIAGNOSTICS.get(circuit)
    if diags is None:
        diags = _DIAGNOSTICS[circuit] = tuple(validate(circuit))
    if diags:
        raise error(f"invalid circuit: {diags[0].rule}: {diags[0].message}")


# -- insertion layers ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GadgetInsertions:
    """One gadget's draw: the noise-free unitary gadgets inserted before and after
    it, internal settings, output corrections and the raw drawn values by name.
    Immutable and shared by the instances of a stream with equal draws, which
    read one cached expansion of it; compared by identity."""

    before: tuple = ()
    after: tuple = ()
    internal: types.MappingProxyType = field(default_factory=dict)
    classical_add: types.MappingProxyType = field(default_factory=dict)
    draws: types.MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        for g in (*self.before, *self.after):
            noise_free = isinstance(g, Gadget) and g.noise is None and g.idle_noise is None
            if not (noise_free and g.kind == UNITARY and (g.weyl is None) != (g.matrix is None)):
                raise ValueError("an inserted layer is a noise-free unitary gadget with one weyl or matrix")
        for name in ("internal", "classical_add", "draws"):  # read-only copies
            object.__setattr__(self, name, types.MappingProxyType(dict(getattr(self, name))))


EMPTY_INSERTIONS = GadgetInsertions()


@dataclass
class CompiledInstance:
    """One randomization draw over a base circuit: one insertion record per gadget.

    Replaying with the same seed and index reproduces the instance exactly.
    """

    base: LogicalCircuit
    insertions: tuple
    seed: int | None = None
    index: int | None = None

    @property
    def classical_post(self) -> dict:
        """Each wire's additive correction to its raw value, read from the insertions."""
        out: dict = {}
        for ins in self.insertions:
            out.update(ins.classical_add)
        return out

    def evaluate(self, ideal: bool = False, **kwargs) -> "CircuitResult":
        return evaluate(self.base, insertions=self.insertions, ideal=ideal, **kwargs)

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
    jk = np.multiply.outer(np.arange(d), np.arange(d)) % d
    out = roots_of_unity(d)[2 * jk] / np.sqrt(d)
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
    return [step for g in layers for step in expand_gadget(circuit, g, EMPTY_INSERTIONS)]


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


def measured_weyl(g: Gadget, code: StabilizerCode) -> WeylOperator:
    """The Weyl a logical measurement measures: its own, else the code's first logical Z."""
    return g.weyl if g.weyl is not None else code.logical_z(0)


def expand_gadget(circuit: LogicalCircuit, g: Gadget, ins: GadgetInsertions) -> list:
    """Primitive step list for one gadget with its compiled insertions; every
    "channel" step is the gadget's noise."""
    d = circuit.d
    n = circuit.n_qudits
    reg = circuit.register(g.registers[0])
    positions = circuit.footprint(g)
    noise_sites = circuit.register(g.readout).qudits if g.kind == SYNDROME_EXTRACTION else positions
    noise = [] if g.noise is None else [("channel", noise_sites, g.noise)]
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
        kraus = _logical_measurement_kraus(reg.code, measured_weyl(g, reg.code))
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
        if g.idle_noise is not None:
            steps.append(("channel", tuple(reg.qudits), g.idle_noise))
        ia = ins.internal.get("idle_after")
        if ia is not None:
            steps.append(_step_weyl(ia, reg.qudits, n))

    elif g.kind == IDLE:
        steps += noise * g.ticks

    elif g.kind == READOUT_MEASUREMENT:
        steps += _readout_steps(d, n, positions[0], g.wire, ins, noise)

    else:
        raise EvaluationError(f"unknown gadget kind {g.kind!r}")

    return steps + _layer_steps(circuit, ins.after)


#: Expanded steps per insertions object, keyed (circuit, gadget index).
#: An entry lives as long as its insertions object, so a stream's expansions
#: go with the stream; the noisy and the ideal runs of one object share it.
_EXPANSIONS = weakref.WeakKeyDictionary()


def _instance_steps(circuit: LogicalCircuit, insertions, ideal: bool, first: int = 0) -> list:
    """Each gadget's steps from gadget ``first`` on, each gadget expanded once
    per insertions object; ``ideal`` drops the noise ("channel") steps."""
    if len(insertions) != len(circuit.gadgets):
        raise EvaluationError(
            f"{len(insertions)} insertion records for {len(circuit.gadgets)} gadgets"
        )
    out = []
    for i, (g, ins) in enumerate(zip(circuit.gadgets[first:], insertions[first:]), first):
        if ins is EMPTY_INSERTIONS:  # never freed: caching it would pin every bare circuit
            steps = expand_gadget(circuit, g, ins)
        else:
            cached = _EXPANSIONS.setdefault(ins, {})
            key = (circuit, i)
            if key not in cached:
                cached[key] = tuple(expand_gadget(circuit, g, ins))
            steps = cached[key]
        out.append([step for step in steps if step[0] != "channel"] if ideal else steps)
    return out


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


# An entry holds d*|pure errors| code-sized arrays (31 MB for repetition3(5));
# the registry reads 3 keys.
@functools.lru_cache(maxsize=8)
def _logical_measurement_kraus(code: StabilizerCode, measured: WeylOperator):
    """Per outcome b, the cospace-refined projectors onto eigenvalue w^b, on the code block."""
    spectral = [eigenprojector(measured, b) for b in range(code.d)]
    by_outcome = ([pi_t @ S for _, pi_t in cospace_table(code).values()] for S in spectral)
    return tuple(tuple(K for K in kraus if np.max(np.abs(K)) >= 1e-14) for kraus in by_outcome)


#: Per circuit object, (ideal, branch_limit) -> (weak references to the first G-1 records
#: of the last exact run, its read-only (probability, state, record) branches after them).
_PREFIXES = weakref.WeakKeyDictionary()


def evaluate(
    circuit: LogicalCircuit,
    insertions=None,
    ideal: bool = False,
    branch_limit: int = 4096,
    rng: np.random.Generator | None = None,
) -> CircuitResult:
    """Run the circuit, returning the exact branch decomposition.

    Each insertion's ``classical_add`` corrects the raw value of its wire.
    With ``ideal=True`` every noise channel is skipped.  If the branch count
    would exceed ``branch_limit`` and an rng is supplied, measurements fall
    back to sampling one outcome per branch (the result is then a stochastic
    estimate and ``exact`` is False); without an rng the limit raises.  Up to
    _SMALL_DIM dimensions, a run whose first G-1 insertion records are those of
    the circuit's last exact run resumes from its branches after them.
    """
    check_valid(circuit)
    d = circuit.d
    n = circuit.n_qudits
    D = circuit.dim
    if D > dense_limit():
        raise CapacityError(f"circuit dimension {D} exceeds the dense cap")
    if insertions is None:
        insertions = [EMPTY_INSERTIONS] * len(circuit.gadgets)
    last = len(circuit.gadgets) - 1
    memo = _PREFIXES.setdefault(circuit, {}) if D <= _SMALL_DIM and last >= 1 else None
    key = (ideal, branch_limit)
    saved = memo.get(key) if memo is not None else None
    if saved is not None and all(ref() is ins for ref, ins in zip(saved[0], insertions)):
        first = last
        branches = [Branch(p, state, dict(record)) for p, state, record in saved[1]]
    else:
        first = 0
        rho0 = np.zeros((D, D), dtype=complex)
        rho0[0, 0] = 1.0
        branches = [Branch(1.0, rho0, {})]
    exact = True

    for i, steps in enumerate(_instance_steps(circuit, insertions, ideal, first), first):
        if i == last and first == 0 and memo is not None and exact:
            for br in branches:
                br.state.setflags(write=False)
            memo[key] = (
                tuple(weakref.ref(ins) for ins in insertions[:last]),
                tuple((br.probability, br.state, dict(br.record)) for br in branches),
            )
        for step in steps:
            kind = step[0]
            if kind == "weyl":
                op = step[1]
                if op.is_identity(ignore_phase=True):
                    continue  # its conjugation multiplies every entry by exactly 1+0j
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

    for ins in insertions:
        for wire, add in ins.classical_add.items():
            for br in branches:
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
            new.append(Branch(br.probability, np.divide(sub, p, out=sub), {**br.record, wire: m}))
        return new, False
    new = []
    for br, rows in zip(branches, outcomes):
        for m, p, sub in rows:
            new.append(Branch(br.probability * p, np.divide(sub, p, out=sub), {**br.record, wire: m}))
    return new, exact


def instance_channel(inst, ideal: bool = False) -> Superoperator:
    """Superoperator of a measurement-free compiled instance."""
    c = inst.base
    d, n = c.d, c.n_qudits
    acc = identity_channel(c.dim)
    for step in (s for steps in _instance_steps(c, inst.insertions, ideal) for s in steps):
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
    dim = _int(data["dim"], path + ".dim")
    return Superoperator(dim, _matrix_from_json(data["matrix"], path + ".matrix"))


def circuit_to_dict(circuit: LogicalCircuit) -> dict:
    codes = {}
    code_keys = {}
    for r in circuit.registers:
        if r.code is not None and id(r.code) not in code_keys:
            key = f"code{len(codes)}"
            for name, factory in _BUILTIN_FACTORIES.items():
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
        "gadgets": [{"kind": g.kind, **_gadget_fields(g)} for g in circuit.gadgets],
        "classical_wires": list(circuit.classical_wires),
    }


def serialize(circuit: LogicalCircuit) -> str:
    return json.dumps(circuit_to_dict(circuit), sort_keys=True, separators=(",", ":")) + "\n"


def _need(data: dict, key: str, path: str, read=None):
    """data[key], through ``read(value, its path)`` if given; a missing key raises SchemaError."""
    if key not in data:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return data[key] if read is None else read(data[key], f"{path}.{key}")


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path} must be a string, not {value!r}")
    return value


def _json_list(value, path: str, item) -> tuple:
    """value, if it is a JSON list, as the tuple of ``item(entry, its path)``."""
    if not isinstance(value, list):
        raise SchemaError(f"{path} must be a JSON list, not {value!r}")
    return tuple(item(v, f"{path}[{j}]") for j, v in enumerate(value))


_int = functools.partial(_json_int, error=SchemaError)
_object = functools.partial(_json_object, error=SchemaError)
_ints = functools.partial(_json_list, item=_int)
_strs = functools.partial(_json_strs, error=SchemaError)
_objects = functools.partial(_json_list, item=_object)
_weyl_from_json = functools.partial(_json_weyl, error=SchemaError)

#: Each optional gadget field's JSON reader and writer.  A field is written when
#: it is set, except ``ticks``, which only an idle writes.
_GADGET_FIELDS = {
    "state": (_ints, list),
    "weyl": (_weyl_from_json, WeylOperator.to_string),
    "matrix": (_matrix_from_json, _matrix_to_json),
    "label": (_str, str),
    "generator": (_int, int),
    "readout": (_str, str),
    "wire": (_str, str),
    "ticks": (_int, int),
    "noise": (_superop_from_json, _superop_to_json),
    "idle_noise": (_superop_from_json, _superop_to_json),
}


def _gadget_fields(g: Gadget) -> dict:
    """JSON form of a gadget without its kind, which is how an inserted layer exports."""
    out: dict = {"registers": list(g.registers)}
    for name, (_, write) in _GADGET_FIELDS.items():
        value = getattr(g, name)
        if value is not None and (name != "ticks" or g.kind == IDLE):
            out[name] = write(value)
    return out


def circuit_from_dict(data: dict) -> LogicalCircuit:
    """The circuit of a parsed JSON object; a value of the wrong JSON type raises
    SchemaError naming its path, never coerced."""
    _object(data, "$")
    version = _need(data, "schema_version", "$", _int)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"$.schema_version: unsupported version {version}")
    codes = {}
    for key, cdata in _need(data, "codes", "$", _object).items():
        try:
            codes[key] = code_from_dict(cdata)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"$.codes.{key}: {exc}") from None
    registers = []
    for i, rdata in enumerate(_need(data, "registers", "$", _objects)):
        path = f"$.registers[{i}]"
        kind = _need(rdata, "kind", path, _str)
        code = None
        if kind == "logical":
            ckey = _need(rdata, "code", path, _str)
            if ckey not in codes:
                raise SchemaError(f"{path}.code: unknown code key {ckey!r}")
            code = codes[ckey]
        name = _need(rdata, "name", path, _str)
        registers.append(Register(name, kind, _need(rdata, "qudits", path, _ints), code))
    gadgets = []
    for i, gdata in enumerate(_need(data, "gadgets", "$", _objects)):
        path = f"$.gadgets[{i}]"
        kind = _need(gdata, "kind", path)
        if kind not in GADGET_KINDS:
            raise SchemaError(f"{path}.kind: unknown gadget kind {kind!r}")
        names = _need(gdata, "registers", path, _strs)
        fields = {k: read(gdata[k], f"{path}.{k}") for k, (read, _) in _GADGET_FIELDS.items() if k in gdata}
        gadgets.append(Gadget(kind, names, **fields))
    return LogicalCircuit(
        d=_need(data, "d", "$", _int),
        registers=tuple(registers),
        gadgets=tuple(gadgets),
        classical_wires=_need(data, "classical_wires", "$", _strs),
    )


def parse(text: str) -> LogicalCircuit:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return circuit_from_dict(data)


def _audit(value):
    """JSON form of a drawn or internal value: Weyls as strings, tuples as lists."""
    if isinstance(value, WeylOperator):
        return value.to_string()
    if isinstance(value, tuple):
        return [_audit(v) for v in value]
    return value


def _insertions_to_dict(ins: GadgetInsertions) -> dict:
    return {
        "before": [_gadget_fields(g) for g in ins.before],
        "after": [_gadget_fields(g) for g in ins.after],
        "internal": {k: _audit(v) for k, v in sorted(ins.internal.items())},
        "classical_add": {k: int(v) for k, v in sorted(ins.classical_add.items())},
        "draws": {k: _audit(v) for k, v in sorted(ins.draws.items())},
    }
