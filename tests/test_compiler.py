import dataclasses
import gc
import itertools
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_circuits import random_circuits

import lrc.circuits
from lrc.channels import coherent_rotation
from lrc.circuits import (
    CompiledInstance,
    Gadget,
    GadgetInsertions,
    LogicalCircuit,
    Register,
    controlled_weyl,
    evaluate,
)
from lrc.codes import builtin_code, logical_weyls, trivial_code
from lrc.compiler import (
    CompileError,
    RandomizationPolicy,
    TwirlGroupSpec,
    _draw,
    compute_propagation_correction,
    dihedral_elements,
    draw_space_size,
    gadget_components,
    instantiate,
    realize_gadget,
    t_gate_matrix,
)
from lrc.weyl import WeylOperator, braiding_exponent

BITFLIP = builtin_code("bitflip3")


def drawn_gadget(circuit, index, policy, rng):
    """The insertions of one uniform draw of a gadget's components."""
    return realize_gadget(circuit, index, _draw(gadget_components(circuit, index, policy), rng), policy)


def block(code=BITFLIP, name="L0"):
    return Register(name=name, kind="logical", qudits=tuple(range(code.n)), code=code)


def reset_circuit():
    return LogicalCircuit(
        d=2, registers=(block(),), gadgets=(Gadget.reset("L0", (0,)),), classical_wires=()
    )


def reset_measure_circuit(noise=None):
    return LogicalCircuit(
        d=2,
        registers=(block(),),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )


def extraction_circuit(code=BITFLIP, generator=0):
    regs = (
        Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code),
        Register(name="R0", kind="readout", qudits=(code.n,)),
    )
    gadgets = (
        Gadget.reset("L0", (0,)),
        Gadget.reset("R0", (0,)),
        Gadget.syndrome_extraction("L0", generator, "R0", "s"),
    )
    return LogicalCircuit(d=code.d, registers=regs, gadgets=gadgets, classical_wires=("s",))


def test_reset_with_stabilizers_off_has_no_insertion():
    policy = RandomizationPolicy(stabilizers=False)
    ins = drawn_gadget(reset_circuit(), 0, policy, np.random.default_rng(0))
    assert ins.before == () and ins.after == ()


def test_reset_exhaustive_yields_four_instances():
    instances = list(instantiate(reset_circuit(), RandomizationPolicy()))
    assert len(instances) == 4
    drawn = {inst.insertions[0].draws["S:L0"] for inst in instances}
    assert len(drawn) == 4


def test_reset_sampled_draw_frequencies():
    policy = RandomizationPolicy(mode="sampled", samples=4000, seed=11)
    counts = {}
    for inst in instantiate(reset_circuit(), policy):
        key = inst.insertions[0].draws.get("S:L0", "none")
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4
    for v in counts.values():
        assert abs(v - 1000) <= 100


def test_unitary_trivial_group_sandwich_only():
    c = LogicalCircuit(
        d=2,
        registers=(block(),),
        gadgets=(Gadget.unitary("L0", weyl=WeylOperator.from_label("XXX")),),
        classical_wires=(),
    )
    policy = RandomizationPolicy(twirl_groups={0: TwirlGroupSpec.trivial()})
    ins = drawn_gadget(c, 0, policy, np.random.default_rng(0))
    assert len(ins.before) == 1 and ins.before[0].weyl is not None
    assert len(ins.after) == 1 and ins.after[0].weyl is not None
    assert "G" not in ins.draws


def test_unitary_identity_gadget_correction_is_the_drawn_weyl():
    c = LogicalCircuit(
        d=2,
        registers=(block(),),
        gadgets=(Gadget.unitary("L0", weyl=WeylOperator.identity(2, 3)),),
        classical_wires=(),
    )
    policy = RandomizationPolicy(
        stabilizers=False, twirl_groups={0: TwirlGroupSpec.logical_weyl()}
    )
    xbar = WeylOperator.from_label("XXX")
    from lrc.compiler import realize_gadget

    ins = realize_gadget(c, 0, {"G": xbar}, policy)
    assert len(ins.after) == 1
    assert ins.after[0].weyl.same_xz(xbar)


def test_unitary_before_layer_merges_g_and_s():
    c = LogicalCircuit(
        d=2,
        registers=(block(),),
        gadgets=(Gadget.unitary("L0", weyl=WeylOperator.from_label("ZZZ")),),
        classical_wires=(),
    )
    policy = RandomizationPolicy(twirl_groups={0: TwirlGroupSpec.logical_weyl()})
    from lrc.compiler import realize_gadget

    s = WeylOperator.from_label("ZZI")
    g = WeylOperator.from_label("XXX")
    ins = realize_gadget(c, 0, {"S:L0": s, "S':L0": s, "G": g}, policy)
    assert len(ins.before) == 1
    assert ins.before[0].weyl == g.mul(s)


def test_t_gadget_dihedral_correction_has_sqrt_z_structure():
    c = LogicalCircuit(
        d=2,
        registers=(Register(name="Q", kind="logical", qudits=(0,), code=trivial_code(2, 1)),),
        gadgets=(Gadget.unitary("Q", matrix=t_gate_matrix(), label="T"),),
        classical_wires=(),
    )
    policy = RandomizationPolicy(stabilizers=False, twirl_groups={0: TwirlGroupSpec.dihedral()})
    from lrc.compiler import _rotation_power, realize_gadget

    sqrt_z = _rotation_power(1)
    T = t_gate_matrix()
    for r, L in dihedral_elements():
        ins = realize_gadget(c, 0, {"G": (r, L)}, policy)
        # Composite of the inserted ops around the ideal gate equals T.
        mats = []
        for layer in ins.before:
            mats.append(layer.weyl.to_matrix() if layer.weyl is not None else layer.matrix)
        pre = np.eye(2)
        for m in mats:
            pre = m @ pre
        post = np.eye(2)
        for layer in ins.after:
            m = layer.weyl.to_matrix() if layer.weyl is not None else layer.matrix
            post = m @ post
        total = post @ T @ pre
        assert abs(abs(np.trace(total @ T.conj().T)) / 2 - 1.0) < 1e-12
        # The correction factors as (Weyl) (rotation) sqrtZ^{x(L)}.
        corr = post
        xl = L.x[0]
        matched = False
        for r2 in range(4):
            cand = L.to_matrix() @ _rotation_power(r2) @ np.linalg.matrix_power(sqrt_z, xl)
            if abs(abs(np.trace(cand.conj().T @ corr)) / 2 - 1.0) < 1e-10:
                matched = True
                break
        assert matched


def test_dihedral_rejects_non_t_gadget():
    c = LogicalCircuit(
        d=2,
        registers=(Register(name="Q", kind="logical", qudits=(0,), code=trivial_code(2, 1)),),
        gadgets=(Gadget.unitary("Q", weyl=WeylOperator.from_label("X")),),
        classical_wires=(),
    )
    policy = RandomizationPolicy(twirl_groups={0: TwirlGroupSpec.dihedral()})
    with pytest.raises(CompileError):
        list(instantiate(c, policy))


def test_measurement_exhaustive_sixteen_instances():
    instances = list(instantiate(reset_measure_circuit(), RandomizationPolicy()))
    # reset S (4) x measurement S (4) x x (2) x z (2) = 64; measurement alone 16
    assert len(instances) == 64
    policy = RandomizationPolicy(stabilizer_registers=())
    instances = list(instantiate(reset_measure_circuit(), policy))
    assert len(instances) == 4  # x, z only


def test_measurement_gadget_draw_space_is_sixteen():
    from lrc.compiler import gadget_components

    comps = gadget_components(reset_measure_circuit(), 1, RandomizationPolicy())
    sizes = {c.name: len(c.values) for c in comps}
    assert sizes == {"S:L0": 4, "x": 2, "z": 2}


def test_unitary_twirl_correctness_composite():
    # after * U * before equals U up to a global phase for every twirl draw
    for target in ("ZZZ", "XXX", "III"):
        c = LogicalCircuit(
            d=2,
            registers=(block(),),
            gadgets=(Gadget.unitary("L0", weyl=WeylOperator.from_label(target)),),
            classical_wires=(),
        )
        policy = RandomizationPolicy(
            stabilizers=False, twirl_groups={0: TwirlGroupSpec.logical_weyl()}
        )
        U = WeylOperator.from_label(target).to_matrix()
        for inst in instantiate(c, policy):
            ins = inst.insertions[0]
            total = np.eye(8)
            for layer in ins.before:
                total = layer.weyl.to_matrix() @ total
            total = U @ total
            for layer in ins.after:
                total = layer.weyl.to_matrix() @ total
            assert abs(abs(np.trace(total @ U.conj().T)) / 8 - 1.0) < 1e-12


def test_measurement_rc_correction_restores_outcome():
    c = reset_measure_circuit()
    policy = RandomizationPolicy()
    for inst in instantiate(c, policy):
        dist = inst.evaluate(ideal=True).distribution()
        assert dist == pytest.approx({(0,): 1.0})


def test_measurement_correction_value():
    c = reset_measure_circuit()
    from lrc.compiler import realize_gadget

    ins = realize_gadget(
        c, 1, {"x": (1,), "z": (0,)}, RandomizationPolicy()
    )
    assert ins.classical_add == {"m": 1}


@pytest.mark.parametrize("name", ["bitflip3", "qutrit_rep3"])
def test_propagation_correction_matrix_oracle(name):
    code = builtin_code(name)
    d = code.d
    rng = np.random.default_rng(3)
    for A in code.stab_gens:
        lam = controlled_weyl(A)
        for _ in range(10):
            W = WeylOperator(
                d, tuple(rng.integers(0, d, code.n)), tuple(rng.integers(0, d, code.n))
            )
            G = compute_propagation_correction(A, W)
            lhs = (
                np.kron(W.to_matrix(), np.eye(d))
                @ lam
                @ np.kron(W.dagger().to_matrix(), G.to_matrix())
            )
            assert np.max(np.abs(lhs - lam)) < 1e-12


def test_propagation_correction_identity_for_logicals():
    for name in ("bitflip3", "qutrit_rep3", "five_one_three"):
        code = builtin_code(name)
        for A in code.stab_gens:
            for L in logical_weyls(code):
                assert compute_propagation_correction(A, L).is_identity()


def test_propagation_correction_qutrit_power_matches_braiding():
    code = builtin_code("qutrit_rep3")
    A = code.stab_gens[0]
    W = WeylOperator(3, (0, 0, 0), (1, 0, 0))  # ZII braids with nothing... use X-type
    W = WeylOperator(3, (1, 0, 0), (0, 0, 0))
    G = compute_propagation_correction(A, W)
    assert G.z == (braiding_exponent(W, A) % 3,)


def test_extraction_with_nonlogical_twirl_and_correction_still_reports_syndrome():
    code = BITFLIP
    circ = extraction_circuit(code)
    A = code.stab_gens[0]
    W = WeylOperator.from_label("IXI")  # anticommutes with ZZI
    ins = [
        GadgetInsertions(),
        GadgetInsertions(),
        GadgetInsertions(
            internal={
                "enc_twirl": W,
                "readout_correction": compute_propagation_correction(A, W).dagger(),
            }
        ),
    ]
    dist = evaluate(circ, insertions=ins).distribution()
    assert dist == pytest.approx({(0,): 1.0})
    # Omitting the correction flips the reported dit.
    ins[2] = GadgetInsertions(internal={"enc_twirl": W})
    dist = evaluate(circ, insertions=ins).distribution()
    assert dist == pytest.approx({(1,): 1.0})


def test_extraction_exhaustive_draw_space():
    policy = RandomizationPolicy()
    c = extraction_circuit()
    # reset S (4) x [S, L, P, x, z, z', S', Lh, S''] = 4 * (4*4*4*2*2*2*4*4*4)
    assert draw_space_size(c, policy) == 4 * 4 * 4 * 4 * 2 * 2 * 2 * 4 * 4 * 4


def test_extraction_compiled_instances_report_true_syndrome():
    c = extraction_circuit()
    policy = RandomizationPolicy(mode="sampled", samples=40, seed=5)
    for inst in instantiate(c, policy):
        dist = inst.evaluate(ideal=True).distribution()
        assert dist == pytest.approx({(0,): 1.0}), inst.insertions[2].draws


def test_instantiate_deterministic_under_seed():
    c = reset_measure_circuit()
    policy = RandomizationPolicy(mode="sampled", samples=25, seed=99)
    a = [json.dumps(i.to_dict(), sort_keys=True) for i in instantiate(c, policy)]
    b = [json.dumps(i.to_dict(), sort_keys=True) for i in instantiate(c, policy)]
    assert a == b


def test_exhaustive_cap():
    c = extraction_circuit()
    policy = RandomizationPolicy(exhaustive_cap=100)
    with pytest.raises(CompileError):
        list(instantiate(c, policy))


def test_compiled_instances_are_ideal_equivalent():
    noise = coherent_rotation(WeylOperator.from_label("XII"), 0.2)
    c = LogicalCircuit(
        d=2,
        registers=(block(),),
        gadgets=(
            Gadget.reset("L0", (1,), noise=noise),
            Gadget.unitary("L0", weyl=WeylOperator.from_label("XXX")),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("m",),
    )
    policy = RandomizationPolicy(
        mode="sampled", samples=30, seed=2, twirl_groups={1: TwirlGroupSpec.logical_weyl()}
    )
    bare = evaluate(c, ideal=True).branch_table()
    for inst in instantiate(c, policy):
        table = inst.evaluate(ideal=True).branch_table()
        assert set(table) == set(bare)
        for key, (p, state) in table.items():
            bp, bstate = bare[key]
            assert abs(p - bp) < 1e-10
            assert np.max(np.abs(state - bstate)) < 1e-10


def test_policy_round_trip():
    policy = RandomizationPolicy(
        seed=7,
        mode="sampled",
        samples=12,
        measurement_rc=False,
        twirl_groups={2: TwirlGroupSpec.logical_weyl()},
    )
    again = RandomizationPolicy.from_dict(policy.to_dict())
    assert again.to_dict() == policy.to_dict()


def test_idle_compilation_twirl_pair():
    c = LogicalCircuit(
        d=2,
        registers=(block(),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.idle("L0", ticks=3)),
        classical_wires=(),
    )
    policy = RandomizationPolicy()
    insts = list(instantiate(c, policy))
    # reset S (4) x idle S (4) x Lh (4) x S' (4)
    assert len(insts) == 256
    for inst in insts[:8]:
        res = inst.evaluate(ideal=True)
        zero = np.zeros(8)
        zero[0] = 1.0
        assert np.real(zero @ res.final_state() @ zero) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["bogus", "custom", ""])
def test_twirl_group_kind_is_validated(kind):
    with pytest.raises(CompileError, match="unknown twirl group kind"):
        TwirlGroupSpec(kind)
    with pytest.raises(CompileError, match="unknown twirl group kind"):
        RandomizationPolicy.from_dict({"twirl_groups": {"1": kind}})


@pytest.mark.parametrize("samples", [0, -2])
def test_sampled_mode_needs_a_sample(samples):
    policy = RandomizationPolicy(mode="sampled", samples=samples)
    with pytest.raises(CompileError, match="at least one sample"):
        list(instantiate(reset_circuit(), policy))


def test_classical_post_is_read_from_the_insertions():
    for inst in instantiate(reset_measure_circuit(), RandomizationPolicy()):
        assert inst.classical_post == inst.insertions[1].classical_add
        with pytest.raises(AttributeError):
            inst.classical_post = {}


def test_classical_post_sums_the_adds_of_a_wire_as_evaluate_does():
    c = LogicalCircuit(
        d=2,
        registers=(block(),),
        gadgets=(
            Gadget.reset("L0", (0,)),
            Gadget.unitary("L0", weyl=BITFLIP.logical_z(0)),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("m",),
    )
    add = GadgetInsertions(classical_add={"m": 1})
    inst = CompiledInstance(c, (add, add, lrc.circuits.EMPTY_INSERTIONS))
    assert inst.classical_post == {"m": 2} == inst.to_dict()["classical_post"]
    raw = evaluate(c).distribution()
    assert raw == {(0,): 1.0}
    corrected = {tuple((v + inst.classical_post[w]) % c.d for w, v in zip(c.classical_wires, key)): p
                 for key, p in raw.items()}
    assert inst.evaluate().distribution() == corrected


def extraction_measurement_circuit():
    base = extraction_circuit()
    gadgets = base.gadgets + (Gadget.measurement("L0", "m"),)
    return LogicalCircuit(d=2, registers=base.registers, gadgets=gadgets, classical_wires=("s", "m"))


@pytest.mark.parametrize(
    "index,draws,names,missing",
    [
        (2, {"x": 1}, "x, z, z'", "z, z'"),
        (2, {"x": 1, "z": 0}, "x, z, z'", "z'"),
        (2, {"z'": 1}, "x, z, z'", "x, z"),
        (2, {"x": 1, "z": None, "z'": 0}, "x, z, z'", "z"),
        (3, {"x": (1,)}, "x, z", "z"),
        (3, {"z": (0,)}, "x, z", "x"),
    ],
)
def test_a_partial_readout_or_measurement_draw_is_refused(index, draws, names, missing):
    """A readout's x, z, z' and a logical measurement's x, z are drawn together: half a
    shift cannot be restored, so realize_gadget names what is missing."""
    c, policy = extraction_measurement_circuit(), RandomizationPolicy()
    with pytest.raises(CompileError, match=f"^gadget {index} draws {names} together; missing {missing}$"):
        realize_gadget(c, index, draws, policy)


@pytest.mark.parametrize(
    "index,draws,unknown",
    [
        (2, {"X": 1, "zz": 0}, "'X', 'zz'"),
        (0, {"S:L1": 0}, "'S:L1'"),
        (3, {"x": (1,), "z": (0,), "z'": 0}, "\"z'\""),
    ],
)
def test_a_draw_name_the_gadget_does_not_offer_is_refused(index, draws, unknown):
    """A misspelt name used to be dropped: the record inserted nothing but listed the draw."""
    c, policy = extraction_measurement_circuit(), RandomizationPolicy()
    with pytest.raises(CompileError, match=re.escape(f"gadget {index} offers no draw {unknown} under the policy")):
        realize_gadget(c, index, draws, policy)
    offered = {comp.name: comp.values[-1] for comp in gadget_components(c, index, policy)}
    assert realize_gadget(c, index, offered, policy).draws == offered


def test_a_readout_or_measurement_draw_given_in_full_or_not_at_all_is_realized():
    c, policy = extraction_measurement_circuit(), RandomizationPolicy()
    assert [comp.name for comp in gadget_components(c, 3, policy)] == ["S:L0", "x", "z"]
    for index in (2, 3):
        assert "rc" not in realize_gadget(c, index, {}, policy).internal
        assert not realize_gadget(c, index, {}, policy).classical_add
    full = realize_gadget(c, 2, {"x": 1, "z": 1, "z'": 0}, policy)
    assert full.internal["rc"] == (1, 1) and full.classical_add == {"s": 1}
    measured = realize_gadget(c, 3, {"x": (1,), "z": (0,)}, policy)
    assert measured.classical_add == {"m": 1} and "restore" in measured.internal
    insertions = (lrc.circuits.EMPTY_INSERTIONS,) * 2 + (full, measured)
    dist = CompiledInstance(c, insertions).evaluate(ideal=True).distribution()
    assert dist == pytest.approx(evaluate(c, ideal=True).distribution())


# -- the instance stream against the flat enumeration ---------------------------


def flat_enumeration(circuit, policy):
    """Oracle: every component of every gadget in one flat list, drawn as one
    itertools.product row (exhaustive) or one rng draw per component in list
    order (sampled), then filtered back into per-gadget draws."""
    flat = [
        (gi, comp)
        for gi in range(len(circuit.gadgets))
        for comp in gadget_components(circuit, gi, policy)
    ]
    if policy.mode == "exhaustive":
        rows = itertools.product(*[comp.values for _, comp in flat])
    else:
        rng = np.random.default_rng(policy.seed)
        rows = (
            [comp.values[int(rng.integers(len(comp.values)))] for _, comp in flat]
            for _ in range(policy.samples)
        )
    for index, values in enumerate(rows):
        insertions, post = [], {}
        for gi in range(len(circuit.gadgets)):
            draws = {comp.name: v for (gj, comp), v in zip(flat, values) if gj == gi}
            insertions.append(realize_gadget(circuit, gi, draws, policy))
            post.update(insertions[-1].classical_add)
        yield CompiledInstance(circuit, tuple(insertions), policy.seed, index), post


#: Instances are evaluated only up to this register dimension, which holds
#: repetition3(5) with a readout qudit.
EVALUATE_DIM_LIMIT = 625

#: The shared-insertions test evaluates every instance five times; above this
#: dimension its noisy runs take the dense route (about 30 s in all at D=625).
SHARED_EVALUATE_DIM_LIMIT = 125


def _twirled_policy(circuit, **kwargs):
    """A logical Weyl twirl on each Weyl unitary, toggles as given."""
    groups = {
        i: TwirlGroupSpec.logical_weyl() for i, g in enumerate(circuit.gadgets) if g.weyl is not None
    }
    return RandomizationPolicy(twirl_groups=groups, **kwargs)


def _assert_stream_matches_oracle(circuit, policy):
    expected = list(flat_enumeration(circuit, policy))
    got = list(instantiate(circuit, policy))
    assert len(got) == len(expected) > 0
    for inst, (oracle, post) in zip(got, expected):
        got_dict, oracle_dict = inst.to_dict(), oracle.to_dict()
        assert json.dumps(got_dict, sort_keys=True) == json.dumps(oracle_dict, sort_keys=True)
        assert inst.classical_post == post
    if circuit.dim > EVALUATE_DIM_LIMIT:
        return
    bare = evaluate(circuit, ideal=True).distribution()
    for inst in got:
        dist = inst.evaluate(ideal=True).distribution()
        for key in set(dist) | set(bare):
            assert abs(dist.get(key, 0.0) - bare.get(key, 0.0)) < 1e-10, (key, inst.index)


@settings(max_examples=25)
@given(circuit=random_circuits())
def test_exhaustive_stream_is_the_flat_product_and_equals_bare(circuit):
    """The first policy with at most 64 instances: every toggle on, then
    stabilizers, twirl and measurement randomization switched off in turn."""
    toggles = ("stabilizers", "twirl", "measurement_rc")
    for k in range(len(toggles) + 1):
        policy = _twirled_policy(circuit, **dict.fromkeys(toggles[:k], False))
        if draw_space_size(circuit, policy) <= 64:
            break
    _assert_stream_matches_oracle(circuit, policy)


@settings(max_examples=25)
@given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1))
def test_sampled_stream_is_the_flat_rng_order_and_equals_bare(circuit, seed):
    policy = _twirled_policy(circuit, mode="sampled", samples=3, seed=seed)
    _assert_stream_matches_oracle(circuit, policy)


# -- shared insertions and the expansion cache ---------------------------------


def _assert_same_branches(got, want):
    assert got.exact == want.exact
    assert len(got.branches) == len(want.branches)
    for a, b in zip(got.branches, want.branches):
        assert a.record == b.record
        assert np.array_equal(a.probability, b.probability)
        assert np.array_equal(a.state, b.state)


def two_measurements(code=BITFLIP):
    """Two measurements with one draw space, so equal draws of different gadgets occur."""
    gadgets = (Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m1"), Gadget.measurement("L0", "m2"))
    return LogicalCircuit(d=code.d, registers=(block(code),), gadgets=gadgets, classical_wires=("m1", "m2"))


@settings(max_examples=25)
@given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1))
@example(circuit=two_measurements(trivial_code(2)), seed=0)
def test_shared_insertions_evaluate_like_fresh_ones(circuit, seed):
    """Every instance, evaluated through the shared insertions and the
    expansion cache, equals an oracle that evaluates fresh insertion records
    once, so no cache has seen them.  A shared record is evaluated noisy and
    ideal in alternating order, on the circuit and on a noiseless copy of it,
    and one hand-built record is reused at every gadget."""
    if circuit.dim > SHARED_EVALUATE_DIM_LIMIT:
        return
    policy = _twirled_policy(circuit)
    if draw_space_size(circuit, policy) > 64:
        policy = _twirled_policy(circuit, mode="sampled", samples=3, seed=seed)
    quiet = LogicalCircuit(
        d=circuit.d,
        registers=circuit.registers,
        gadgets=tuple(dataclasses.replace(g, noise=None, idle_noise=None) for g in circuit.gadgets),
        classical_wires=circuit.classical_wires,
    )

    def fresh(inst):
        records = (
            realize_gadget(circuit, i, dict(ins.draws), policy) for i, ins in enumerate(inst.insertions)
        )
        return CompiledInstance(circuit, tuple(records), inst.seed, inst.index)

    for inst in instantiate(circuit, policy):
        assert inst.to_dict() == fresh(inst).to_dict()
        want = {ideal: fresh(inst).evaluate(ideal=ideal) for ideal in (False, True)}
        for ideal in (False, True) if inst.index % 2 else (True, False):
            _assert_same_branches(inst.evaluate(ideal=ideal), want[ideal])
        # Without noise the steps are the ideal ones.
        _assert_same_branches(evaluate(quiet, insertions=inst.insertions), want[True])
    blank = GadgetInsertions()
    for ideal in (False, True):
        got = evaluate(circuit, insertions=[blank] * len(circuit.gadgets), ideal=ideal)
        _assert_same_branches(got, evaluate(circuit, ideal=ideal))


def test_equal_draws_share_one_immutable_record():
    """Equal draws of one gadget share a record; equal draws of two gadgets do not."""
    instances = list(instantiate(two_measurements(), RandomizationPolicy(stabilizers=False)))
    by_draw = {}
    for inst in instances:
        for i, ins in enumerate(inst.insertions):
            by_draw.setdefault((i, tuple(ins.draws.values())), []).append(ins)
    assert len(instances) == 16 and len(by_draw) == 1 + 4 + 4
    for records in by_draw.values():
        assert all(ins is records[0] for ins in records)
    assert len({id(records[0]) for records in by_draw.values()}) == len(by_draw)
    with pytest.raises(dataclasses.FrozenInstanceError):
        instances[0].insertions[1].before = ()


def test_expansions_live_as_long_as_their_insertions():
    gc.collect()
    sizes = len(lrc.circuits._EXPANSIONS), len(lrc.circuits._DIAGNOSTICS)
    noise = coherent_rotation(WeylOperator.from_label("XII"), 0.2)
    instances = list(instantiate(reset_measure_circuit(noise), RandomizationPolicy()))
    for inst in instances:
        inst.evaluate()
        inst.evaluate(ideal=True)
    assert len(lrc.circuits._EXPANSIONS) == sizes[0] + 4 + 16
    # The noisy and the ideal run of a record share its one expansion.
    assert all(len(lrc.circuits._EXPANSIONS[ins]) == 1 for inst in instances for ins in inst.insertions)
    probe = weakref.ref(instances[0].insertions[1])
    del instances, inst
    gc.collect()
    assert probe() is None
    assert (len(lrc.circuits._EXPANSIONS), len(lrc.circuits._DIAGNOSTICS)) == sizes


def test_each_circuit_object_is_validated_once(monkeypatch):
    calls = []
    validate = lrc.circuits.validate
    monkeypatch.setattr(lrc.circuits, "validate", lambda c: calls.append(c) or validate(c))
    c = reset_measure_circuit()
    for inst in instantiate(c, RandomizationPolicy(mode="sampled", samples=3, seed=5)):
        inst.evaluate()
    evaluate(c, ideal=True)
    assert calls == [c]
    again = reset_measure_circuit()
    evaluate(again)
    assert calls == [c, again]


# -- what a policy may name ------------------------------------------------------


def two_register_circuit(form):
    """Reset, then a logical X on bitflip3 and a readout qudit, as a matrix or a Weyl."""
    xbar = BITFLIP.logical_x().tensor(WeylOperator.identity(2, 1))
    gate = (
        Gadget.unitary(("L0", "R0"), matrix=xbar.to_matrix())
        if form == "matrix"
        else Gadget.unitary(("L0", "R0"), weyl=xbar)
    )
    return LogicalCircuit(
        d=2,
        registers=(block(), Register(name="R0", kind="readout", qudits=(3,))),
        gadgets=(Gadget.reset("L0", (0,)), gate),
        classical_wires=(),
    )


@pytest.mark.parametrize("form", ["matrix", "weyl"])
def test_nontrivial_twirl_needs_a_single_logical_register(form):
    circuit = two_register_circuit(form)
    assert len(list(instantiate(circuit, RandomizationPolicy()))) == 4**3  # stabilizers only
    policy = RandomizationPolicy(twirl_groups={1: TwirlGroupSpec.logical_weyl()})
    with pytest.raises(CompileError, match="a unitary gadget on one logical register"):
        list(instantiate(circuit, policy))
    readout_only = dataclasses.replace(circuit, gadgets=(Gadget.unitary("R0", weyl=WeylOperator.x_op(2, 1)),))
    policy.twirl_groups = {0: TwirlGroupSpec.logical_weyl()}
    with pytest.raises(CompileError, match="a unitary gadget on one logical register"):
        list(instantiate(readout_only, policy))


@pytest.mark.parametrize(
    "policy,message",
    [
        ({"twirl_groups": {"7": "logical_weyl"}}, "twirl_groups key 7 is not the index of a unitary gadget"),
        ({"twirl_groups": {"0": "dihedral"}}, "twirl_groups key 0 is not the index of a unitary gadget"),
        ({"twirl_groups": {"0": "trivial"}}, "twirl_groups key 0 is not the index of a unitary gadget"),
        ({"stabilizer_registers": ["L9"]}, "stabilizer_registers names 'L9', not a logical register"),
        ({"stabilizer_registers": ["L0", "R0"]}, "stabilizer_registers names 'R0', not a logical register"),
    ],
    ids=["missing_gadget", "reset_gadget", "trivial_on_reset", "missing_register", "readout_register"],
)
def test_policy_names_must_exist_in_the_circuit(policy, message):
    with pytest.raises(CompileError) as info:
        list(instantiate(two_register_circuit("weyl"), RandomizationPolicy.from_dict(policy)))
    assert str(info.value) == message


def test_an_empty_stabilizer_register_list_is_valid():
    (inst,) = instantiate(two_register_circuit("weyl"), RandomizationPolicy(stabilizer_registers=()))
    assert all(not ins.before and not ins.after and not ins.draws for ins in inst.insertions)
