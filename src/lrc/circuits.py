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
branch enumeration, with a configurable branch limit and a sampling fallback.
A run holds its branches as stacks and applies each step once to all of them:
density matrices, or above 64 dimensions, in a run whose noise channels all
have Kraus forms, pure states psi (the pure route), which resets, measurements
and Kraus forms of several operators split.  A split weighs every row before it
builds the kept ones; ``Branch`` objects are made for the result, which builds
rho = sum p |psi><psi| only when asked.  Compiled randomization draws enter as
inserted layers (noise-free unitary gadgets) and as settings inside a gadget.
``expand_gadget`` lowers gadgets to five step kinds: ("weyl", op),
("gate", sites, U), ("channel", sites, C), ("reset", sites, state) and
("measure", sites, bases, wire), one step for site readouts (bases None: the
diagonal blocks of |m><m|, copied) and logical measurements (per outcome b, one
isometry whose column blocks span the ranges of Pi_s P_b); "weyl" is an index
map, as is a controlled-Weyl "gate" on the pure route (it carries its nonzero
entry per row); the others act on their footprint in the layout of ``channels``.

Circuits serialize to JSON (schema_version 1) with top-level keys
"codes", "registers", "gadgets" and "classical_wires".
"""

from __future__ import annotations

import functools
import itertools
import json
import types
import weakref
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    Superoperator,
    _footprint_rows,
    _from_footprint_rows,
    _on_footprint,
    _site_axes,
    apply_local_channel,
    apply_local_kraus,
    apply_local_measurement,
    is_trace_preserving,
    reset_sites,
)
from .codes import (
    BUILTIN_CODE_NAMES,
    StabilizerCode,
    _json_int,
    _json_list,
    _json_object,
    _json_str,
    _json_weyl,
    builtin_code,
    code_from_dict,
    code_to_dict,
    codespace_projector,
    enumerate_pure_errors,
    is_logical_weyl,
    logical_basis_state,
)
from .weyl import (
    _SMALL_DIM, WeylOperator, braiding_exponent, budgeted_cache, check_budget, deviation, eigenprojector,
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
            m = np.array(self.matrix, dtype=complex)  # a copy: the caller's array stays writable
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

    @functools.cached_property
    def n_qudits(self) -> int:
        return sum(len(r.qudits) for r in self.registers)

    @functools.cached_property
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


def _layer_rule(circuit: LogicalCircuit, g: Gadget):
    """(rule, message) of the first unknown-register or unitary-realisation rule the
    gadget breaks, else None: the rules of an inserted layer, as well as ``validate``'s."""
    try:
        fdim = circuit.d ** len(circuit.footprint(g))
    except KeyError as exc:
        return "unknown-register", exc.args[0]
    if g.kind != UNITARY:
        return None
    if (g.weyl is None) == (g.matrix is None):
        return "unitary-realisation", "exactly one of weyl or matrix must be given"
    if g.weyl is not None:
        if g.weyl.d != circuit.d or g.weyl.dim != fdim:
            return "unitary-realisation", "weyl does not match the gadget footprint"
        return None
    if g.matrix.shape != (fdim, fdim):
        return "unitary-realisation", f"matrix shape {g.matrix.shape} != ({fdim},)*2"
    if not np.isfinite(g.matrix).all():
        return "unitary-realisation", "matrix has an entry that is not finite"
    if deviation(g.matrix @ g.matrix.conj().T, np.eye(fdim)) > 1e-10:
        return "unitary-realisation", "matrix is not unitary"
    return None


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
        rule = _layer_rule(circuit, g)
        if rule is not None:
            bad(i, *rule)
            if rule[0] == "unknown-register":
                continue
        regs = [circuit.register(name) for name in g.registers]
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
        elif g.kind != UNITARY:  # a unitary's rules are _layer_rule's
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


def classical_post(insertions) -> dict:
    """Each wire's additive correction to its raw value: the sum of its insertions' adds."""
    out: dict = {}
    for ins in insertions:
        for wire, add in ins.classical_add.items():
            out[wire] = out.get(wire, 0) + add
    return out


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
        return classical_post(self.insertions)

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


# `lrc verify --all` reads 1 Fourier and 4 controlled-Weyl keys, the three benchmark
# workloads together 2 and 5; a controlled-Weyl entry holds (d^(n+1))^2 entries.
@budgeted_cache(8, "a Fourier matrix of dimension {} exceeds the dense cap", lambda d: (d * d, d))
def fourier_matrix(d: int) -> np.ndarray:
    jk = np.multiply.outer(np.arange(d), np.arange(d)) % d
    out = roots_of_unity(d)[2 * jk] / np.sqrt(d)
    out.setflags(write=False)
    return out


@budgeted_cache(8, "a controlled Weyl of dimension {} exceeds the dense cap",
                lambda A: ((A.dim * A.d) ** 2, A.dim * A.d))
def controlled_weyl(A: WeylOperator) -> np.ndarray:
    """sum_s A^s (x) |s><s| with the control qudit as the last factor."""
    out = np.zeros((A.dim, A.d) * 2, dtype=complex)
    for s in range(A.d):
        out[:, s, :, s] = (A**s).to_matrix()
    out.setflags(write=False)
    return out.reshape((A.dim * A.d,) * 2)  # a read-only view


@functools.lru_cache(maxsize=8)
def _controlled_weyl_rows(A: WeylOperator):
    """Per row of controlled_weyl(A), the column and the value of its one nonzero entry."""
    M = controlled_weyl(A)
    return np.nonzero(M)[1], M[M != 0]  # both in row order


def _step_weyl(op: WeylOperator | None, positions, n_total: int) -> list:
    """The step of a Weyl on the given sites, none for None or a phase times the identity,
    whose conjugation multiplies every entry by exactly 1+0j."""
    if op is None or op.is_identity(ignore_phase=True):
        return []
    return [("weyl", op.embed(positions, n_total))]


def _layer_steps(circuit: LogicalCircuit, layers) -> list:
    return [step for g in layers for step in expand_gadget(circuit, g, EMPTY_INSERTIONS)]


def readout_weyls(d: int, x: int, z: int, zp: int) -> tuple:
    """The randomized readout's X^x Z^z on one qudit and its restore Z^z' X^-x."""
    return WeylOperator(d, (x,), (z,)), WeylOperator(d, (0,), (zp,)).mul(WeylOperator(d, (-x,), (0,)))


def _readout_steps(d: int, n: int, site: int, wire: str, ins: GadgetInsertions, noise: list) -> list:
    """X^x Z^z, the readout noise, the measurement, then the restore Z^z' X^-x."""
    x, z = ins.internal.get("rc", (0, 0))
    pre, post = readout_weyls(d, x, z, ins.internal.get("post_z") or 0)
    return _step_weyl(pre, (site,), n) + noise + [("measure", (site,), None, wire)] + _step_weyl(post, (site,), n)


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
            steps += _step_weyl(g.weyl, positions, n)
        else:
            steps.append(("gate", tuple(positions), g.matrix))

    elif g.kind == MEASUREMENT:
        steps += noise
        basis = _logical_measurement_basis(reg.code, measured_weyl(g, reg.code))
        steps.append(("measure", tuple(reg.qudits), basis, g.wire))
        steps += _step_weyl(ins.internal.get("restore"), reg.qudits, n)

    elif g.kind == SYNDROME_EXTRACTION:
        ro_pos, enc = noise_sites, tuple(reg.qudits)
        A = reg.code.stab_gens[g.generator]
        F = fourier_matrix(d)
        steps.append(("gate", ro_pos, F))
        L = ins.internal.get("enc_twirl")
        P = ins.internal.get("readout_weyl")
        steps += _step_weyl(L, enc, n) + _step_weyl(P, ro_pos, n)
        steps.append(("gate", enc + ro_pos, controlled_weyl(A), _controlled_weyl_rows(A)))
        if L is not None:
            steps += _step_weyl(L.dagger(), enc, n)
        if P is not None:
            steps += _step_weyl(P.dagger(), ro_pos, n)
        steps += _step_weyl(ins.internal.get("readout_correction"), ro_pos, n)
        steps.append(("gate", ro_pos, F.conj().T))
        steps += _readout_steps(d, n, ro_pos[0], g.wire, ins, noise)
        steps += _step_weyl(ins.internal.get("idle_before"), enc, n)
        if g.idle_noise is not None:
            steps.append(("channel", enc, g.idle_noise))
        steps += _step_weyl(ins.internal.get("idle_after"), enc, n)

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
    """Each gadget's steps from gadget ``first`` on, each gadget expanded (its inserted layers
    checked) once per insertions object; ``ideal`` drops the noise ("channel") steps."""
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
            if key not in cached:  # a record's layers are checked once per circuit
                for layer in (*ins.before, *ins.after):
                    rule = _layer_rule(circuit, layer)
                    if rule is not None:
                        raise EvaluationError(f"gadget {i}: inserted layer: {rule[0]}: {rule[1]}")
                cached[key] = tuple(expand_gadget(circuit, g, ins))
            steps = cached[key]
        out.append([step for step in steps if step[0] != "channel"] if ideal else steps)
    return out


# -- evaluation ----------------------------------------------------------------


@dataclass
class Branch:
    probability: float
    state: np.ndarray  # the D x D density matrix, or on the pure route a length-D vector psi
    record: dict


@dataclass
class CircuitResult:
    circuit: LogicalCircuit
    branches: list
    exact: bool = True
    #: the route ("dense" or "pure"), the peak branch count and the splits that sampled
    stats: dict = field(default_factory=dict)

    def distribution(self) -> dict:
        """Probability of each joint wire assignment, keyed in wire order."""
        wires = self.circuit.classical_wires
        out = {}
        for br in self.branches:
            key = tuple(br.record.get(w) for w in wires)
            out[key] = out.get(key, 0.0) + br.probability
        return out

    def _densities(self):
        """Each branch's density matrix; |psi><psi| is built here for a pure branch."""
        D = self.circuit.dim
        check_budget(D * D, "density matrices of dimension {} exceed the dense cap", D)
        return (s if s.ndim == 2 else np.outer(s, s.conj()) for s in (br.state for br in self.branches))

    def final_state(self) -> np.ndarray:
        rhos = self._densities()
        acc = np.zeros((self.circuit.dim,) * 2, dtype=complex)
        for br, rho in zip(self.branches, rhos):
            acc += br.probability * rho
        return acc

    def branch_table(self) -> dict:
        """record tuple -> (probability, normalized conditional density matrix)."""
        wires = self.circuit.classical_wires
        probs: dict = {}
        states: dict = {}
        for br, rho in zip(self.branches, self._densities()):
            key = tuple(br.record.get(w) for w in wires)
            probs[key] = probs.get(key, 0.0) + br.probability
            states[key] = states.get(key, 0.0) + br.probability * rho
        return {k: (p, states[k] / p) for k, p in probs.items()}


# An entry holds Dk x Dk columns of the code block (250 KB for repetition3(5));
# the registry reads 3 keys.
@budgeted_cache(8, "measurement bases of dimension {} exceed the dense cap",
                lambda code, W: (code.dim**2, code.dim))
def _logical_measurement_basis(code: StabilizerCode, measured: WeylOperator):
    """Per outcome b, a read-only isometry V_b and its block sizes: for each pure error T
    in order, T applied to an orthonormal basis of the codespace's W = w^(b - c) eigenspace,
    c the braiding exponent of T with W.  A block's V V^dagger is Pi_s P_b, s T's syndrome."""
    d, codespace = code.d, codespace_projector(code)
    eigenbases = []
    for b in range(d):  # W commutes with the stabilizers: P_0 P_b is a projector
        values, vectors = np.linalg.eigh(codespace @ eigenprojector(measured, b))
        eigenbases.append(vectors[:, values > 0.5].T)
        del vectors  # before the next eigenprojector
    out = []
    for b in range(d):
        blocks = [[T.apply_to_vector(v) for v in eigenbases[(b - braiding_exponent(T, measured)) % d]]
                  for T in enumerate_pure_errors(code)]
        V = np.ascontiguousarray(np.array([v for blk in blocks for v in blk]).reshape(-1, code.dim).T)
        V.setflags(write=False)
        out.append((V, tuple(len(blk) for blk in blocks if blk)))
    return tuple(out)


#: Per circuit object, (ideal, branch_limit) -> (weak references to the first G-1 records
#: of the last exact run, its read-only probability, state and record stacks after them).
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
    estimate and ``exact`` is False); without an rng the limit raises.
    One loop runs two routes: above _SMALL_DIM dimensions, a run whose noise
    channels all have Kraus forms takes the pure route, where ``branch_limit``
    counts pure branches; every other run is dense.  Both stay within ``weyl.check_budget``.
    Up to _SMALL_DIM dimensions, a run whose first G-1 insertion records are
    those of the circuit's last exact run resumes from its branches after them.
    """
    check_valid(circuit)
    if insertions is None:
        insertions = [EMPTY_INSERTIONS] * len(circuit.gadgets)
    pure = circuit.dim > _SMALL_DIM and (ideal or all(
        c.kraus is not None for g in circuit.gadgets for c in (g.noise, g.idle_noise) if c is not None))
    return CircuitResult(circuit, *_run(circuit, insertions, ideal, branch_limit, rng, pure))


def _run(circuit, insertions, ideal, branch_limit, rng, pure):
    """Branches, whether they are exact, and the run's stats.  The B branches are stacks: a
    probability vector, (B, D, D) density matrices or with ``pure`` (B, d, ..., d) states psi,
    and a B x wires array of outcomes, each step acting on all of them.  A measurement splits
    every branch; on the pure route so do a reset and a Kraus form of several operators."""
    d, n, D, wires = circuit.d, circuit.n_qudits, circuit.dim, circuit.classical_wires
    fits = _stack_check(D, pure)
    last = len(circuit.gadgets) - 1
    memo = _PREFIXES.setdefault(circuit, {}) if D <= _SMALL_DIM and last >= 1 else None
    key = (ideal, branch_limit)
    saved = memo.get(key) if memo is not None else None
    if saved is not None and all(ref() is ins for ref, ins in zip(saved[0], insertions)):
        first, (probs, states, records) = last, saved[1]
        fits(len(probs))
    else:
        first, probs, records = 0, np.array([1.0]), np.zeros((1, len(wires)), dtype=np.int64)
        states = np.zeros((1,) + ((d,) * n if pure else (D, D)), dtype=complex)
        states.flat[0] = 1.0
    stats = {"route": "pure" if pure else "dense", "peak_branches": len(probs), "fallback_splits": 0}

    for i, steps in enumerate(_instance_steps(circuit, insertions, ideal, first), first):
        if i == last and first == 0 and memo is not None and not stats["fallback_splits"]:
            for stack in (probs, states, records):
                stack.setflags(write=False)
            memo[key] = (tuple(weakref.ref(ins) for ins in insertions[:last]), (probs, states, records))
        for step in steps:
            kind = step[0]
            if kind == "measure" or pure and (kind == "reset" or kind == "channel" and len(step[2].kraus) > 1):
                p, labels, build = _split_rows(step, states, d, n, pure)
                probs, states, records = _branch_measure(
                    p, labels, build, probs, records, wires.index(step[3]) if kind == "measure" else None,
                    branch_limit, rng, stats, fits)
            else:
                states = _act(step, states, d, n, pure)
    post = classical_post(insertions)
    adds = [post.get(wire, 0) for wire in wires]
    flat = states.reshape(len(probs), D) if pure else states
    branches = [Branch(p, s, {w: (v + a) % d for w, v, a in zip(wires, r, adds)})
                for p, s, r in zip(probs.tolist(), flat, records.tolist())]
    return branches, not stats["fallback_splits"], stats


def _act(step, states, d, n, pure):
    """A Weyl, gate, one-operator Kraus or (dense) channel or reset step on every branch."""
    kind = step[0]
    if kind == "weyl":  # one gather of the index map on every branch
        if pure:
            return step[1].apply_to_vector(states.reshape(len(states), -1)).reshape(states.shape)
        return step[1].conjugate_matrix(states)
    if pure:  # one product with the footprint rows of every branch, a gather for a monomial gate
        axes = tuple(q + 1 for q in step[1])  # axis 0 of the stack counts branches
        if len(step) > 3:
            cols, vals = step[3]
            rows = vals[:, None] * _footprint_rows(states, axes)[cols]
            return _from_footprint_rows(rows, axes, states.shape)
        return _on_footprint(step[2] if kind == "gate" else step[2].kraus[0], states, axes)
    if kind == "reset":
        return reset_sites(states, step[1], step[2], d, n)
    if kind == "channel":
        return apply_local_channel(states, step[2], step[1], d, n)
    return apply_local_kraus(states, (step[2],), step[1], d, n)  # a gate


def _stack_check(D: int, pure: bool):
    """Refuse one branch over the memory budget, which is read once, here, and return the
    run's check of B branches: B D entries (pure) or B D^2 (dense)."""
    per, kind = (D, "pure states") if pure else (D * D, "density matrices")

    def refuse(count):
        return check_budget(count * per, "{} {} of dimension {} need {} bytes, over those of a density matrix "
                            "at the dense cap", count, kind, D, 16 * count * per)

    budget = refuse(1)
    return lambda count: count * per <= budget or refuse(count)


def _split_rows(step, states, d, n, pure):
    """(p, labels, build) of a split: p[i, c] is the probability of row c of branch i, and
    build(branch, row, weight) forms only the chosen rows, normalised.  On density matrices
    row m is the state outcome m leaves; on pure states, X their footprint rows, row m of X
    gives a reset's |s><m| psi or a readout's slice m of psi, a Kraus operator K gives K X,
    and column block c of V = [V_0 ... V_(d-1)] gives V_c A_c, A = V^dagger X."""
    kind, positions, ops = step[:3]
    if not pure:  # (branch, outcome, D, D), so that keeping every row copies nothing
        outs = apply_local_measurement(states, ops, positions, d, n)

        def build(branch, row, weight):
            new = outs.reshape(-1, *outs.shape[2:]) if len(branch) == len(outs) * d else outs[branch, row]
            return np.divide(new, weight[:, None, None], out=new)

        return outs.trace(axis1=-2, axis2=-1).real, np.arange(d), build
    X = _footprint_rows(states, tuple(q + 1 for q in positions)).reshape(d ** len(positions), len(states), -1)
    Dk, labels, inv = len(X), np.arange(len(X)), _site_axes(tuple(positions), n, 1)[1][: n + 1]

    def back(new):  # (rows, footprint digits, other digits) as a stack of states
        return new.reshape((-1,) + states.shape[1:]).transpose(inv)

    def squares(rows):  # summed over the other digits
        return sum(np.einsum("...r,...r->...", part, part) for part in (rows.real, rows.imag))

    if kind == "reset" or ops is None:  # a reset is unrecorded

        def build(branch, row, weight):
            kept = (X[row, branch] / np.sqrt(weight)[:, None])[:, None, :]
            return back(kept * (ops[:, None] if kind == "reset" else (labels == row[:, None])[..., None]))

        return squares(X).T, labels, build
    if kind == "channel":  # unrecorded
        p = np.stack([squares(np.tensordot(K, X, 1)).sum(axis=0) for K in ops.kraus], axis=1)

        def build(branch, row, weight):
            new = np.empty((len(branch), Dk, X.shape[2]), dtype=complex)
            for k in np.unique(row):  # one product per Kraus operator
                chosen = X[:, branch[row == k]] / np.sqrt(weight[row == k])[:, None]
                new[row == k] = np.tensordot(ops.kraus[k], chosen, 1).transpose(1, 0, 2)
            return back(new)

        return p, labels, build
    conj = X.conj().reshape(Dk, -1)  # A = conj(V^T conj(X)) copies no V_b
    A = np.concatenate([V.T @ conj for V, _ in ops]).conj().reshape(X.shape)
    sizes = [size for _, outcome in ops for size in outcome]

    def build(branch, row, weight):
        V = np.hstack([V for V, _ in ops])
        if len(sizes) == Dk:  # blocks of one column: column c of V times row c of A
            return back(V.T[row][..., None] * (A[row, branch] / np.sqrt(weight)[:, None])[:, None, :])
        blocks = np.repeat(np.arange(len(sizes)), sizes)  # the column block of each row of A
        chosen = A[:, branch] * ((blocks[:, None] == row) / np.sqrt(weight))[..., None]
        return back((V @ chosen.reshape(Dk, -1)).reshape(Dk, len(branch), -1).transpose(1, 0, 2))

    p = np.add.reduceat(squares(A), list(itertools.accumulate(sizes, initial=0))[:-1], axis=0).T
    return p, np.repeat(np.arange(len(ops)), [len(outcome) for _, outcome in ops]), build


def _branch_measure(p, labels, build, probs, records, wire, branch_limit, rng, stats, fits):
    """Split every branch: row c of branch i has probability p[i, c] (a trace, or a squared
    norm) and records labels[c] in column ``wire`` (None: unrecorded).  Rows of probability
    at most 1e-14 are dropped, the rest kept in branch-major, row order; over branch_limit
    each branch keeps one row, drawn for every branch at once.  Only then are they built,
    if ``fits`` (the run's stack check) admits their count."""
    keep = p > 1e-14
    branch, row = np.nonzero(keep)
    drawn = len(branch) > branch_limit
    if drawn:
        if rng is None:
            raise EvaluationError(
                f"branch limit {branch_limit} exceeded; pass an rng for the sampling fallback"
            )
        cdf = np.cumsum(np.where(keep, p, 0.0), axis=1)
        branch, row = np.arange(len(p)), (cdf > rng.random(len(p))[:, None] * cdf[:, -1:]).argmax(axis=1)
        stats["fallback_splits"] += 1
    fits(len(branch))
    weight = p[branch, row] if drawn else p[keep]
    records = records[branch]
    if wire is not None:
        records[:, wire] = labels[row]
    stats["peak_branches"] = max(stats["peak_branches"], len(branch))
    return (probs[branch] if drawn else probs[branch] * weight), build(branch, row, weight), records


# -- serialization -------------------------------------------------------------


def _matrix_to_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows, path: str, error) -> np.ndarray:
    """The matrix of a JSON list of rows of [real, imaginary] pairs of finite JSON numbers
    (NaN, Infinity and booleans are none), read as one value."""
    try:
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise TypeError("rows must be JSON lists")
        m = np.array([[complex(a, b) for a, b in row] for row in rows])
        if not all(type(v) in (int, float) for row in rows for pair in row for v in pair) or not np.isfinite(m).all():
            raise TypeError("entries must be finite JSON numbers")
        return m
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{path}: malformed complex matrix ({exc})") from None


def _superop_to_json(s: Superoperator) -> dict:
    if s.kraus is not None:  # its Kraus form when it has one, which builds no matrix
        return {"dim": s.dim, "kraus": [_matrix_to_json(K) for K in s.kraus]}
    return {"dim": s.dim, "matrix": _matrix_to_json(s.matrix)}


def _superop_from_json(data, path: str) -> Superoperator:
    """A channel of dim and exactly one of its matrix or its Kraus form: with both, the
    two could disagree, and which one acts would depend on the route."""
    if not isinstance(data, dict) or "dim" not in data or ("matrix" in data) == ("kraus" in data):
        raise SchemaError(f"{path}: expected an object with dim and exactly one of a matrix or kraus field")
    _object(data, path, keys=("dim", "matrix", "kraus"))
    dim, field = _int(data["dim"], path + ".dim"), "matrix" if "matrix" in data else "kraus"
    form = (_matrix if field == "matrix" else _matrices)(data[field], f"{path}.{field}")
    try:
        return Superoperator(dim, **{field: form})
    except ValueError as exc:  # no operators, or one of the wrong shape
        raise SchemaError(f"{path}: {exc}") from None


def circuit_to_dict(circuit: LogicalCircuit) -> dict:
    codes = {}
    code_keys = {}
    for r in circuit.registers:
        if r.code is not None and id(r.code) not in code_keys:
            builtin = (name for name in BUILTIN_CODE_NAMES if builtin_code(name) == r.code)
            key = next(builtin, f"code{len(codes)}")
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
    """Circuit JSON; a value that is not finite raises ValueError, as JSON has none."""
    return json.dumps(circuit_to_dict(circuit), sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _need(data: dict, key: str, path: str, read=None):
    """data[key], through ``read(value, its path)`` if given; a missing key raises SchemaError."""
    if key not in data:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return data[key] if read is None else read(data[key], f"{path}.{key}")


_int = functools.partial(_json_int, error=SchemaError)
_str = functools.partial(_json_str, error=SchemaError)
_object = functools.partial(_json_object, error=SchemaError)
_ints = functools.partial(_json_list, error=SchemaError, item=_json_int)
_strs = functools.partial(_json_list, error=SchemaError, item=_json_str)
_objects = functools.partial(_json_list, error=SchemaError, item=_json_object)
_matrix = functools.partial(_matrix_from_json, error=SchemaError)
_matrices = functools.partial(_json_list, error=SchemaError, item=_matrix_from_json)
_weyl_from_json = functools.partial(_json_weyl, error=SchemaError)

#: Each optional gadget field's JSON reader and writer.  A field is written when
#: it is set, except ``ticks``, which only an idle writes.
_GADGET_FIELDS = {
    "state": (_ints, list),
    "weyl": (_weyl_from_json, WeylOperator.to_string),
    "matrix": (_matrix, _matrix_to_json),
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
    _object(data, "$", keys=("schema_version", "d", "codes", "registers", "gadgets", "classical_wires"))
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
        _object(rdata, path, keys=("name", "kind", "qudits", "code"))
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
        _object(gdata, path, keys=("kind", "registers", *_GADGET_FIELDS))
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
