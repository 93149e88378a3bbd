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

An inserted layer is a noise-free unitary gadget.  Adjacent inserted Weyls
acting on the same register are merged into a single layer; non-Weyl
corrections (the rotation factors of the dihedral path) stay separate.
"""

from __future__ import annotations

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
    Gadget,
    GadgetInsertions,
    LogicalCircuit,
    check_valid,
    measured_weyl,
)
from .codes import StabilizerCode, _json_int, _json_object, enumerate_stabilizers, logical_weyls
from .weyl import WeylOperator, braiding_exponent, deviation, iter_weyls, weyl_from_matrix

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
        """The policy of a parsed JSON object with keys that ``to_dict`` writes; a value
        of the wrong JSON type or shape raises CompileError, never coerced or ignored."""
        known = cls().to_dict()
        _json_object(data, "policy", CompileError, known)
        mode = data.get("mode", "exhaustive")
        if mode == "exhaustive":
            mode_name, samples = "exhaustive", 0
        elif isinstance(mode, dict) and "sampled" in _json_object(mode, "mode", CompileError, ("sampled",)):
            mode_name, samples = "sampled", _json_int(mode["sampled"], "mode.sampled", CompileError)
        else:
            raise CompileError(f"unknown mode {mode!r}")
        toggles = _json_object(data.get("toggles", {}), "toggles", CompileError, known["toggles"])
        for name, value in toggles.items():
            if not isinstance(value, bool):
                raise CompileError(f"toggles.{name} must be true or false, not {value!r}")
        regs = data.get("stabilizer_registers")
        if regs is not None and not (isinstance(regs, list) and all(isinstance(r, str) for r in regs)):
            raise CompileError(
                f"stabilizer_registers must be a list of register names or null, not {regs!r}"
            )
        groups = _json_object(data.get("twirl_groups", {}), "twirl_groups", CompileError)
        for k in groups:
            if not (isinstance(k, str) and k.isdecimal()):
                raise CompileError(f"twirl_groups key {k!r} is not a gadget index")
        return cls(
            seed=_json_int(data.get("seed", DEFAULT_SEED), "seed", CompileError),
            mode=mode_name,
            samples=samples,
            stabilizers=toggles.get("stabilizers", True),
            twirl=toggles.get("twirl", True),
            measurement_rc=toggles.get("measurement_rc", True),
            stabilizer_registers=tuple(regs) if regs is not None else None,
            exhaustive_cap=_json_int(data.get("exhaustive_cap", 10**6), "exhaustive_cap", CompileError),
            twirl_groups={int(k): TwirlGroupSpec(v) for k, v in groups.items()},
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
    """The elements of a nontrivial twirl group."""
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


# -- randomization ------------------------------------------------------------


@dataclass
class Component:
    name: str
    values: list


def _product(ops):
    """Operator product of the Weyls in ops, skipping None (the last is applied first)."""
    acc = None
    for op in ops:
        if op is not None:
            acc = op if acc is None else acc.mul(op)
    return acc


def _dagger(op):
    return None if op is None else op.dagger()


def _lazy(fn, *args):
    """The values of fn(*args), computed only when iterated."""
    yield from fn(*args)


def _randomize(circuit: LogicalCircuit, index: int, policy: RandomizationPolicy, pick) -> dict:
    """How gadget ``index`` is randomized: its draw components and their insertions.

    Calls ``pick(name, values)`` for each component the policy enables, in draw
    order, and returns the ``GadgetInsertions`` fields built from the picked
    values; a value picked as None inserts nothing.  Which components are
    picked depends only on the gadget and the policy, never on a picked value.
    ``values`` is a lazy iterable, so realizing a draw builds no value list.
    """
    g = circuit.gadgets[index]
    d = circuit.d
    regs = g.registers
    reg = circuit.register(regs[0])

    def stabilizer(tag, name):
        if not policy.stabilizers_for(name):
            return None
        r = circuit.register(name)
        if r.kind != "logical" or not r.code.stab_gens:
            return None  # a code without stabilizer generators has only the identity
        return pick(f"{tag}:{name}", _lazy(enumerate_stabilizers, r.code))

    def logical_twirl(name):
        return pick(name, _lazy(logical_weyls, reg.code)) if policy.twirl else None

    def together(names, values):
        """pick(name, values()) for each name, all picked or none: half a shift cannot be undone."""
        picked = [pick(name, values()) for name in names]
        missing = [name for name, value in zip(names, picked) if value is None]
        if 0 < len(missing) < len(names):
            raise CompileError(f"gadget {index} draws {', '.join(names)} together; missing {', '.join(missing)}")
        return picked

    def readout(wire):
        """X^x Z^z ahead of a readout, the output corrected by -x and the
        restore Z^z' X^-x after it: (internal, classical_add)."""
        if not policy.measurement_rc:
            return {}, {}
        x, z, zp = together(("x", "z", "z'"), lambda: range(d))
        if x is None:
            return {}, {}
        add = (-x) % d
        return {"rc": (x, z), "post_z": zp}, ({wire: add} if add else {})

    if g.kind == RESET:
        return {"after": _merge_weyl_layers(regs, [stabilizer("S", regs[0])])}

    if g.kind == UNITARY:
        s_before = {name: stabilizer("S", name) for name in regs}
        spec = policy.group_for(index)
        G = None
        if policy.twirl and spec.kind != "trivial":
            code = _single_logical_code(circuit, g)
            if spec.kind == "dihedral":
                _require_t_gadget(circuit, g)
            G = pick("G", _lazy(group_elements, spec, code))
        s_after = {name: stabilizer("S'", name) for name in regs}
        return {
            "before": _before_twirl_layers(regs, G, s_before),
            "after": _unitary_correction_layers(circuit, g, G, s_after),
        }

    if g.kind == MEASUREMENT:
        code = reg.code
        s = stabilizer("S", regs[0])
        shift, add = None, 0
        if policy.measurement_rc:
            x, z = together(("x", "z"), lambda: itertools.product(range(d), repeat=code.k))
            if x is not None:
                logicals = code.logical_gens[0::2] + code.logical_gens[1::2]  # Xbar_1..k, then Zbar_1..k
                shift = _product([WeylOperator.identity(d, code.n), *map(pow, logicals, (*x, *z))])
                add = (-braiding_exponent(shift, measured_weyl(g, code))) % d
        before = _merge_weyl_layers(regs, [s, shift])
        # Undo the inserted Weyl after the projection so the instance is
        # channel-equivalent to the bare gadget, not just classically.
        internal = {"restore": before[0].weyl.dagger()} if before else {}
        return {"before": before, "internal": internal, "classical_add": {g.wire: add} if add else {}}

    if g.kind == SYNDROME_EXTRACTION:
        s = stabilizer("S", regs[0])
        L = logical_twirl("L")
        P = pick("P", iter_weyls(d, 1)) if policy.twirl else None
        rc, classical = readout(g.wire)
        sp = stabilizer("S'", regs[0])
        lh = logical_twirl("Lh")
        spp = stabilizer("S''", regs[0])
        A = reg.code.stab_gens[g.generator]
        internal = {
            "enc_twirl": L,
            "readout_correction": None if L is None else compute_propagation_correction(A, L).dagger(),
            "readout_weyl": P,
            **rc,
            "idle_before": _product([sp, lh]),
            "idle_after": _product([spp, _dagger(lh)]),
        }
        return {
            "before": _merge_weyl_layers(regs, [s]),
            "internal": {k: v for k, v in internal.items() if v is not None},
            "classical_add": classical,
        }

    if g.kind == IDLE:
        if reg.kind != "logical":
            return {}
        s = stabilizer("S", regs[0])
        lh = logical_twirl("Lh")
        sp = stabilizer("S'", regs[0])
        return {
            "before": _merge_weyl_layers(regs, [lh, s]),
            "after": _merge_weyl_layers(regs, [sp, _dagger(lh)]),
        }

    if g.kind == READOUT_MEASUREMENT:
        internal, classical = readout(g.wire)
        return {"internal": internal, "classical_add": classical}

    raise CompileError(f"cannot compile gadget kind {g.kind!r}")


def gadget_components(circuit: LogicalCircuit, index: int, policy: RandomizationPolicy):
    """Named draw components for one gadget under the policy toggles, in draw order."""
    comps: list = []
    _randomize(circuit, index, policy, lambda name, values: comps.append(Component(name, list(values))))
    return comps


def realize_gadget(
    circuit: LogicalCircuit, index: int, draws: dict, policy: RandomizationPolicy
) -> GadgetInsertions:
    """Build the insertion record for one gadget from drawn values, each named by a
    component the gadget offers under the policy."""
    offered = []
    fields = _randomize(circuit, index, policy, lambda name, values: offered.append(name) or draws.get(name))
    unknown = [name for name in draws if name not in offered]
    if unknown:
        raise CompileError(f"gadget {index} offers no draw {', '.join(map(repr, unknown))} under the policy")
    return GadgetInsertions(**fields, draws=draws)


def _single_logical_code(circuit, g):
    regs = [circuit.register(name) for name in g.registers]
    if len(regs) != 1 or regs[0].kind != "logical":
        raise CompileError(
            "a nontrivial twirl group requires a unitary gadget on one logical register"
        )
    return regs[0].code


def _require_t_gadget(circuit, g):
    footprint = circuit.footprint(g)
    if circuit.d != 2 or len(footprint) != 1 or g.matrix is None:
        raise CompileError("the dihedral twirl applies to single-qubit T gadgets")
    T = t_gate_matrix()
    overlap = abs(np.trace(g.matrix @ T.conj().T)) / 2
    if deviation(overlap, 1.0) > 1e-10:
        raise CompileError("the dihedral twirl applies only to gadgets implementing T")


# -- insertion layers -----------------------------------------------------------


def _merge_weyl_layers(reg_names, ops):
    """Single merged Weyl layer for the operator product ops[0]*ops[1]*...,
    skipping None; the last element is applied first."""
    acc = _product(ops)
    if acc is None or acc.is_identity(ignore_phase=True):
        return ()
    return (Gadget.unitary(reg_names, weyl=acc),)


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
        out.extend(_merge_weyl_layers((name,), [stabs[name]]))
    return tuple(out)


def _unitary_correction_layers(circuit, g, G, s_after: dict):
    """Layers for the after box: stabilizers composed onto U G^dagger U^dagger.

    Returns the time-ordered layer tuple.  s_after maps each register name to
    its drawn stabilizer or None; a drawn G means a single register.
    """
    d = circuit.d
    reg_names = g.registers
    if G is None:
        return _stabilizer_layers(reg_names, s_after)

    if isinstance(G, WeylOperator) and g.weyl is not None:
        # U G^dagger U^dagger = conj(omega^m) G^dagger with m = braiding_exponent(U, G^dagger).
        gd = G.dagger()
        corr = WeylOperator(d, gd.x, gd.z, gd.phase_exp - 2 * braiding_exponent(g.weyl, gd))
    else:
        U = g.weyl.to_matrix() if g.weyl is not None else np.asarray(g.matrix)
        corr = U @ element_matrix(G).conj().T @ U.conj().T
        rec = weyl_from_matrix(corr, d, len(circuit.footprint(g)))
        if rec is None:
            layer = Gadget.unitary(reg_names, matrix=corr, label="twirl-correction")
            return (layer,) + _stabilizer_layers(reg_names, s_after)
        corr = rec
    return _merge_weyl_layers(reg_names, [s_after[reg_names[0]], corr])


def _before_twirl_layers(reg_names, G, s_before):
    """Layers for the before box: G composed onto the drawn stabilizers."""
    if G is None:
        return _stabilizer_layers(reg_names, s_before)
    r, L = G if isinstance(G, tuple) else (0, G)  # dihedral (r, L) or Weyl L: operator R * L * S
    layers = _merge_weyl_layers(reg_names, [L, s_before[reg_names[0]]])
    if r % 4:
        layers = layers + (Gadget.unitary(reg_names, matrix=_rotation_power(r), label=f"T2^{r}"),)
    return layers


# -- instantiation -------------------------------------------------------------


def _draw(components, rng) -> dict:
    """One uniform draw of every component, in component order."""
    return {c.name: c.values[int(rng.integers(len(c.values)))] for c in components}


def draw_space_size(circuit: LogicalCircuit, policy: RandomizationPolicy) -> int:
    return math.prod(
        len(comp.values)
        for i in range(len(circuit.gadgets))
        for comp in gadget_components(circuit, i, policy)
    )


def _check_policy_names(circuit: LogicalCircuit, policy: RandomizationPolicy):
    """Every gadget and register the policy names exists in the circuit, of the right kind."""
    for index in policy.twirl_groups:
        if index not in range(len(circuit.gadgets)) or circuit.gadgets[index].kind != UNITARY:
            raise CompileError(f"twirl_groups key {index!r} is not the index of a unitary gadget")
    logical = [r.name for r in circuit.registers if r.kind == "logical"]
    for name in policy.stabilizer_registers or ():
        if name not in logical:
            raise CompileError(f"stabilizer_registers names {name!r}, not a logical register")


def instantiate(circuit: LogicalCircuit, policy: RandomizationPolicy):
    """Stream of compiled instances, deterministic under the policy seed.

    An instance is one independent draw per gadget: exhaustive mode runs
    through every combination of per-gadget draws in lexicographic order,
    sampled mode draws each gadget's components uniformly, gadget by gadget.
    Equal draws of a gadget share one ``GadgetInsertions`` across the stream.
    """
    check_valid(circuit, CompileError)
    _check_policy_names(circuit, policy)
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
