"""Randomizing compilation passes over the gadget IR.

Each gadget type owns a draw space of named components; a policy selects
exhaustive enumeration of the full product space or seeded uniform
sampling, with per-gadget toggles for the three randomizations:

  * stabilizers: uniformly random stabilizer layers around every
    operation on encoded registers,
  * twirl: the corrected twirl G before / U G^dagger U^dagger after a
    unitary, the encoded-register and readout Weyls inside a syndrome
    extraction, and the idle-window twirl pair,
  * measurement_rc: random X^x Z^z ahead of a measurement with the
    classical output corrected by -x and the post-measurement restore
    Z^z' X^-x.

Adjacent inserted Weyls acting on the same register are merged into a
single layer; non-Weyl corrections (the rotation factors of the dihedral
path) stay separate.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    IDLE,
    MEASUREMENT,
    READOUT_MEASUREMENT,
    RESET,
    SYNDROME_EXTRACTION,
    UNITARY,
    CompiledInstance,
    GadgetInsertions,
    Layer,
    LogicalCircuit,
    check_valid,
)
from .codes import StabilizerCode, enumerate_stabilizers, logical_weyls
from .weyl import WeylOperator, braiding_exponent, braiding_phase, iter_weyls, weyl_from_matrix

DEFAULT_SEED = 271828


class CompileError(ValueError):
    pass


def t_gate_matrix() -> np.ndarray:
    """exp(-i*pi*Z/8), the eighth-root phase gate up to global phase."""
    return np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])


def _rotation_power(r: int) -> np.ndarray:
    """(T^2)^r, a power of the quarter phase gate."""
    return np.diag([1.0, 1j**r]).astype(complex)


@dataclass(frozen=True)
class TwirlGroupSpec:
    """Which group the corrected twirl of a unitary gadget draws from.

    kinds: 'trivial' (no twirl), 'logical_weyl' (the d^2k channel-distinct
    logical Weyls of the register's code), 'dihedral' (rotation-times-Weyl
    factored elements for a single-qubit T gadget).
    """

    kind: str = "trivial"

    def __post_init__(self):
        if self.kind not in ("trivial", "logical_weyl", "dihedral"):
            raise CompileError(
                f"unknown twirl group kind {self.kind!r}; use trivial, logical_weyl or dihedral"
            )

    @classmethod
    def trivial(cls):
        return cls("trivial")

    @classmethod
    def logical_weyl(cls):
        return cls("logical_weyl")

    @classmethod
    def dihedral(cls):
        return cls("dihedral")


@dataclass
class RandomizationPolicy:
    seed: int = DEFAULT_SEED
    mode: str = "exhaustive"  # 'exhaustive' | 'sampled'
    samples: int = 0
    stabilizers: bool = True
    twirl: bool = True
    measurement_rc: bool = True
    stabilizer_registers: tuple | None = None
    exhaustive_cap: int = 10**6
    twirl_groups: dict = field(default_factory=dict)  # gadget index -> TwirlGroupSpec
    default_twirl_group: TwirlGroupSpec = field(default_factory=TwirlGroupSpec.trivial)

    def group_for(self, gadget_index: int) -> TwirlGroupSpec:
        return self.twirl_groups.get(gadget_index, self.default_twirl_group)

    def stabilizers_for(self, register_name: str) -> bool:
        if not self.stabilizers:
            return False
        if self.stabilizer_registers is None:
            return True
        return register_name in self.stabilizer_registers

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mode": "exhaustive" if self.mode == "exhaustive" else {"sampled": self.samples},
            "toggles": {
                "stabilizers": self.stabilizers,
                "twirl": self.twirl,
                "measurement_rc": self.measurement_rc,
            },
            "stabilizer_registers": (
                list(self.stabilizer_registers) if self.stabilizer_registers is not None else None
            ),
            "exhaustive_cap": self.exhaustive_cap,
            "twirl_groups": {str(i): spec.kind for i, spec in sorted(self.twirl_groups.items())},
            "default_twirl_group": self.default_twirl_group.kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RandomizationPolicy":
        mode = data.get("mode", "exhaustive")
        if mode == "exhaustive":
            mode_name, samples = "exhaustive", 0
        elif isinstance(mode, dict) and "sampled" in mode:
            mode_name, samples = "sampled", int(mode["sampled"])
        else:
            raise CompileError(f"unknown mode {mode!r}")
        toggles = data.get("toggles", {})
        regs = data.get("stabilizer_registers")
        return cls(
            seed=int(data.get("seed", DEFAULT_SEED)),
            mode=mode_name,
            samples=samples,
            stabilizers=bool(toggles.get("stabilizers", True)),
            twirl=bool(toggles.get("twirl", True)),
            measurement_rc=bool(toggles.get("measurement_rc", True)),
            stabilizer_registers=tuple(regs) if regs is not None else None,
            exhaustive_cap=int(data.get("exhaustive_cap", 10**6)),
            twirl_groups={
                int(k): TwirlGroupSpec(v) for k, v in data.get("twirl_groups", {}).items()
            },
            default_twirl_group=TwirlGroupSpec(data.get("default_twirl_group", "trivial")),
        )

    @classmethod
    def from_json(cls, text: str) -> "RandomizationPolicy":
        return cls.from_dict(json.loads(text))


# -- group enumeration -----------------------------------------------------


def dihedral_elements(d: int = 2):
    """(rotation power, Weyl) pairs factoring the single-qubit dihedral group.

    Enumerates r in [0, 4) with every single-qubit Weyl; the channel-distinct
    projective elements are each covered a constant number of times, so a
    uniform draw over pairs is a uniform draw over the group.
    """
    if d != 2:
        raise CompileError("the dihedral twirl is defined for qubits only")
    out = []
    for r in range(4):
        for L in iter_weyls(2, 1):
            out.append((r, L))
    return out


def group_elements(spec: TwirlGroupSpec, code: StabilizerCode | None):
    if spec.kind == "trivial":
        return []
    if spec.kind == "dihedral":
        return dihedral_elements()
    if code is None:
        raise CompileError("logical_weyl twirl needs an encoded register")
    return list(logical_weyls(code))


def compute_propagation_correction(A: WeylOperator, L: WeylOperator) -> WeylOperator:
    """Readout-register Weyl G with (L x I) ctrl-A (L^dagger x G) = ctrl-A.

    The encoded operator kicks Z^m onto the control, m being the braiding
    exponent of L with A; logical Weyls commute with every stabilizer
    generator, so for them the correction is the identity.
    """
    m = braiding_exponent(L, A)
    return WeylOperator(A.d, (0,), (m,))


# -- draw spaces -------------------------------------------------------------


@dataclass
class Component:
    name: str
    values: list


def gadget_components(circuit: LogicalCircuit, index: int, policy: RandomizationPolicy):
    """Named draw components for one gadget under the policy toggles."""
    g = circuit.gadgets[index]
    d = circuit.d
    comps: list = []

    def stab_component(tag, reg_name):
        reg = circuit.register(reg_name)
        if reg.kind != "logical" or not policy.stabilizers_for(reg_name):
            return
        stabs = list(enumerate_stabilizers(reg.code))
        if len(stabs) > 1:
            comps.append(Component(f"{tag}:{reg_name}", stabs))

    if g.kind == RESET:
        reg = circuit.register(g.registers[0])
        if reg.kind == "logical":
            stab_component("S", g.registers[0])

    elif g.kind == UNITARY:
        for name in g.registers:
            stab_component("S", name)
        spec = policy.group_for(index)
        if policy.twirl and spec.kind != "trivial":
            code = _single_logical_code(circuit, g)
            if spec.kind == "dihedral":
                _require_t_gadget(circuit, g)
            comps.append(Component("G", group_elements(spec, code)))
        for name in g.registers:
            stab_component("S'", name)

    elif g.kind == MEASUREMENT:
        reg = circuit.register(g.registers[0])
        stab_component("S", g.registers[0])
        if policy.measurement_rc:
            k = reg.code.k
            vectors = list(itertools.product(range(d), repeat=k))
            comps.append(Component("x", vectors))
            comps.append(Component("z", vectors))

    elif g.kind == SYNDROME_EXTRACTION:
        reg = circuit.register(g.registers[0])
        stab_component("S", g.registers[0])
        if policy.twirl:
            comps.append(Component("L", list(logical_weyls(reg.code))))
            comps.append(Component("P", list(iter_weyls(d, 1))))
        if policy.measurement_rc:
            comps.append(Component("x", list(range(d))))
            comps.append(Component("z", list(range(d))))
            comps.append(Component("z'", list(range(d))))
        stab_component("S'", g.registers[0])
        if policy.twirl:
            comps.append(Component("Lh", list(logical_weyls(reg.code))))
        stab_component("S''", g.registers[0])

    elif g.kind == IDLE:
        reg = circuit.register(g.registers[0])
        if reg.kind == "logical":
            stab_component("S", g.registers[0])
            if policy.twirl:
                comps.append(Component("Lh", list(logical_weyls(reg.code))))
            stab_component("S'", g.registers[0])

    elif g.kind == READOUT_MEASUREMENT:
        if policy.measurement_rc:
            comps.append(Component("x", list(range(d))))
            comps.append(Component("z", list(range(d))))
            comps.append(Component("z'", list(range(d))))

    return comps


def _single_logical_code(circuit, g):
    codes = [
        circuit.register(name).code
        for name in g.registers
        if circuit.register(name).kind == "logical"
    ]
    if len(codes) != 1:
        raise CompileError(
            "a nontrivial twirl group requires a single-register unitary gadget"
        )
    return codes[0]


def _require_t_gadget(circuit, g):
    footprint = circuit.footprint(g)
    if circuit.d != 2 or len(footprint) != 1 or g.matrix is None:
        raise CompileError("the dihedral twirl applies to single-qubit T gadgets")
    T = t_gate_matrix()
    overlap = abs(np.trace(g.matrix @ T.conj().T)) / 2
    if abs(overlap - 1.0) > 1e-10:
        raise CompileError("the dihedral twirl applies only to gadgets implementing T")


# -- realization --------------------------------------------------------------


def _ideal_unitary_matrix(circuit, g):
    if g.weyl is not None:
        return g.weyl.to_matrix()
    return np.asarray(g.matrix)


def _merge_weyl_layers(reg_names, ops):
    """Single merged Weyl layer for the operator product ops[0]*ops[1]*...

    The product is an operator product: the last element is applied first.
    """
    acc = None
    for op in ops:
        acc = op if acc is None else acc.mul(op)
    if acc is None or acc.is_identity(ignore_phase=True):
        return ()
    return (Layer(reg_names, weyl=acc),)


def element_matrix(G) -> np.ndarray:
    """Dense matrix of a twirl-group element: a Weyl or a dihedral (r, L) pair."""
    if isinstance(G, tuple):  # dihedral (r, L): operator R * L
        r, L = G
        return _rotation_power(r) @ L.to_matrix()
    return G.to_matrix()


def _stabilizer_layers(reg_names, stabs: dict) -> tuple:
    """One Weyl layer per register with a drawn stabilizer, in register order."""
    out = []
    for name in reg_names:
        s = stabs.get(name)
        if s is not None:
            out.extend(_merge_weyl_layers((name,), [s]))
    return tuple(out)


def _unitary_correction_layers(circuit, g, G, s_after: dict):
    """Layers for the after box: stabilizers composed onto U G^dagger U^dagger.

    Returns the time-ordered layer tuple.  s_after maps register name to the
    drawn stabilizer (possibly empty).
    """
    d = circuit.d
    reg_names = g.registers
    if G is None:
        return _stabilizer_layers(reg_names, s_after)

    if isinstance(G, WeylOperator) and g.weyl is not None:
        # U G^dagger U^dagger = conj(braid(U, G^dagger)) * G^dagger, exactly.
        gd = G.dagger()
        phase = braiding_phase(g.weyl, gd)
        corr = WeylOperator(d, gd.x, gd.z, gd.phase_exp - phase.exp)
    else:
        U = _ideal_unitary_matrix(circuit, g)
        corr = U @ element_matrix(G).conj().T @ U.conj().T
        rec = weyl_from_matrix(corr, d, len(circuit.footprint(g)))
        if rec is None:
            layer = Layer(reg_names, matrix=corr, label="twirl-correction")
            return (layer,) + _stabilizer_layers(reg_names, s_after)
        corr = rec
    if len(reg_names) == 1 and reg_names[0] in s_after:
        return _merge_weyl_layers(reg_names, [s_after[reg_names[0]], corr])
    return _merge_weyl_layers(reg_names, [corr]) + _stabilizer_layers(reg_names, s_after)


def _before_twirl_layers(reg_names, G, s_before):
    """Layers for the before box: G composed onto the drawn stabilizers."""
    if G is None:
        return _stabilizer_layers(reg_names, s_before)
    if isinstance(G, WeylOperator):
        if len(reg_names) == 1 and reg_names[0] in s_before:
            return _merge_weyl_layers(reg_names, [G, s_before[reg_names[0]]])
        return _stabilizer_layers(reg_names, s_before) + _merge_weyl_layers(reg_names, [G])
    r, L = G  # dihedral (r, L): operator R * L * S
    s = s_before.get(reg_names[0])
    layers = _merge_weyl_layers(reg_names, [L, s] if s is not None else [L])
    if r % 4:
        layers = layers + (Layer(reg_names, matrix=_rotation_power(r), label=f"T2^{r}"),)
    return layers


def _readout_randomization(draws: dict, wire: str, d: int):
    """(internal, classical_add) for X^x Z^z ahead of a readout, the output
    corrected by -x and the restore Z^z' X^-x after it."""
    if "x" not in draws:
        return {}, {}
    add = (-draws["x"]) % d
    internal = {"rc": (draws["x"], draws["z"]), "post_z": draws["z'"]}
    return internal, ({wire: add} if add else {})


def realize_gadget(
    circuit: LogicalCircuit, index: int, draws: dict, policy: RandomizationPolicy
) -> GadgetInsertions:
    """Build the insertion record for one gadget from drawn values."""
    g = circuit.gadgets[index]
    d = circuit.d

    if g.kind == RESET:
        s = draws.get(f"S:{g.registers[0]}")
        after = _merge_weyl_layers(g.registers, [s]) if s is not None else ()
        return GadgetInsertions(after=after, draws=draws)

    if g.kind == UNITARY:
        s_before = {
            name: draws[f"S:{name}"] for name in g.registers if f"S:{name}" in draws
        }
        s_after = {
            name: draws[f"S':{name}"] for name in g.registers if f"S':{name}" in draws
        }
        G = draws.get("G")
        before = _before_twirl_layers(g.registers, G, s_before)
        after = _unitary_correction_layers(circuit, g, G, s_after)
        return GadgetInsertions(before=before, after=after, draws=draws)

    if g.kind == MEASUREMENT:
        reg = circuit.register(g.registers[0])
        code = reg.code
        parts = []
        add = 0
        if "x" in draws or "z" in draws:
            x = draws.get("x", (0,) * code.k)
            z = draws.get("z", (0,) * code.k)
            shift = WeylOperator.identity(d, code.n)
            for i, xi in enumerate(x):
                shift = shift.mul(code.logical_x(i) ** xi)
            for i, zi in enumerate(z):
                shift = shift.mul(code.logical_z(i) ** zi)
            measured = g.weyl if g.weyl is not None else code.logical_z(0)
            add = (-braiding_exponent(shift, measured)) % d
            parts.append(shift)
        s = draws.get(f"S:{g.registers[0]}")
        ops = ([s] if s is not None else []) + parts
        before = _merge_weyl_layers(g.registers, ops) if ops else ()
        classical = {g.wire: add} if add else {}
        internal = {}
        if before:
            # Undo the inserted Weyl after the projection so the instance is
            # channel-equivalent to the bare gadget, not just classically.
            internal["restore"] = before[0].weyl.dagger()
        return GadgetInsertions(
            before=before, internal=internal, classical_add=classical, draws=draws
        )

    if g.kind == SYNDROME_EXTRACTION:
        reg = circuit.register(g.registers[0])
        A = reg.code.stab_gens[g.generator]
        internal, classical = _readout_randomization(draws, g.wire, d)
        s = draws.get(f"S:{g.registers[0]}")
        before = _merge_weyl_layers(g.registers, [s]) if s is not None else ()
        L = draws.get("L")
        if L is not None:
            internal["enc_twirl"] = L
            internal["readout_correction"] = compute_propagation_correction(A, L).dagger()
        P = draws.get("P")
        if P is not None:
            internal["readout_weyl"] = P
        lh = draws.get("Lh")
        sp = draws.get(f"S':{g.registers[0]}")
        spp = draws.get(f"S'':{g.registers[0]}")
        idle_pre = [op for op in (sp, lh) if op is not None]
        idle_post = [op for op in (spp, lh.dagger() if lh is not None else None) if op is not None]
        if idle_pre:
            internal["idle_before"] = functools.reduce(WeylOperator.mul, idle_pre)
        if idle_post:
            internal["idle_after"] = functools.reduce(WeylOperator.mul, idle_post)
        return GadgetInsertions(
            before=before, internal=internal, classical_add=classical, draws=draws
        )

    if g.kind == IDLE:
        s = draws.get(f"S:{g.registers[0]}")
        lh = draws.get("Lh")
        sp = draws.get(f"S':{g.registers[0]}")
        before_ops = [op for op in (lh, s) if op is not None]
        after_ops = []
        if sp is not None:
            after_ops.append(sp)
        if lh is not None:
            after_ops.append(lh.dagger())
        before = _merge_weyl_layers(g.registers, before_ops) if before_ops else ()
        after = _merge_weyl_layers(g.registers, after_ops) if after_ops else ()
        return GadgetInsertions(before=before, after=after, draws=draws)

    if g.kind == READOUT_MEASUREMENT:
        internal, classical = _readout_randomization(draws, g.wire, d)
        return GadgetInsertions(internal=internal, classical_add=classical, draws=draws)

    raise CompileError(f"cannot compile gadget kind {g.kind!r}")


# -- single-gadget entry point -------------------------------------------------


def _draw(components, rng) -> dict:
    """One uniform draw of every component, in component order."""
    return {c.name: c.values[int(rng.integers(len(c.values)))] for c in components}


def compile_gadget(circuit, index, policy, rng=None) -> GadgetInsertions:
    """Insertions for gadget ``index`` from one uniform draw of its components."""
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    draws = _draw(gadget_components(circuit, index, policy), rng)
    return realize_gadget(circuit, index, draws, policy)


# -- instantiation -------------------------------------------------------------


def draw_space_size(circuit: LogicalCircuit, policy: RandomizationPolicy) -> int:
    return math.prod(
        len(comp.values)
        for i in range(len(circuit.gadgets))
        for comp in gadget_components(circuit, i, policy)
    )


def instantiate(circuit: LogicalCircuit, policy: RandomizationPolicy):
    """Stream of compiled instances, deterministic under the policy seed.

    An instance is one independent draw per gadget: exhaustive mode runs
    through every combination of per-gadget draws in lexicographic order,
    sampled mode draws each gadget's components uniformly, gadget by gadget.
    Equal draws of a gadget share one ``GadgetInsertions`` across the stream.
    """
    check_valid(circuit, CompileError)
    per_gadget = [gadget_components(circuit, i, policy) for i in range(len(circuit.gadgets))]
    if policy.mode == "exhaustive":
        total = math.prod(len(comp.values) for comps in per_gadget for comp in comps)
        if total > policy.exhaustive_cap:
            raise CompileError(
                f"exhaustive draw space has {total} instances, above the cap "
                f"{policy.exhaustive_cap}"
            )
        names = [[comp.name for comp in comps] for comps in per_gadget]
        spaces = [itertools.product(*[comp.values for comp in comps]) for comps in per_gadget]
        draws = ([dict(zip(n, v)) for n, v in zip(names, row)] for row in itertools.product(*spaces))
    elif policy.mode == "sampled":
        if policy.samples < 1:
            raise CompileError(f"sampled mode needs at least one sample, not {policy.samples}")
        rng = np.random.default_rng(policy.seed)
        draws = ([_draw(comps, rng) for comps in per_gadget] for _ in range(policy.samples))
    else:
        raise CompileError(f"unknown policy mode {policy.mode!r}")
    shared = {}  # (gadget index, drawn values) -> the one record of that draw
    for index, per_gadget_draws in enumerate(draws):
        insertions = []
        for i, gadget_draws in enumerate(per_gadget_draws):
            key = (i, tuple(gadget_draws.values()))
            if key not in shared:
                shared[key] = realize_gadget(circuit, i, gadget_draws, policy)
            insertions.append(shared[key])
        yield CompiledInstance(circuit, tuple(insertions), seed=policy.seed, index=index)
