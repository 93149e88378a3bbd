import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrc.channels
import lrc.circuits
from lrc.channels import (
    Superoperator,
    apply_local_channel,
    apply_local_measurement,
    coherent_rotation,
    embed_operator,
    identity_channel,
    natural_rep,
    partial_trace,
)
from lrc.codes import (
    StabilizerCode,
    builtin_code,
    enumerate_pure_errors,
    logical_basis_state,
    projector_for_syndrome,
    syndrome_of,
    trivial_code,
)
from lrc.circuits import (
    EMPTY_INSERTIONS,
    CompiledInstance,
    EvaluationError,
    Gadget,
    GadgetInsertions,
    LogicalCircuit,
    Register,
    SchemaError,
    circuit_from_dict,
    controlled_weyl,
    evaluate,
    fourier_matrix,
    instance_channel,
    parse,
    serialize,
    validate,
)
from lrc.compiler import RandomizationPolicy, TwirlGroupSpec, instantiate
from lrc.verify import readout_flip, readout_rotation
from lrc.weyl import WeylOperator

BITFLIP = builtin_code("bitflip3")


def one_block(code=BITFLIP, name="L0"):
    return Register(name=name, kind="logical", qudits=tuple(range(code.n)), code=code)


def block_plus_readout(code=BITFLIP):
    return (
        Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code),
        Register(name="R0", kind="readout", qudits=(code.n,)),
    )


def ccx_matrix():
    m = np.eye(8, dtype=complex)
    m[6, 6] = m[7, 7] = 0
    m[6, 7] = m[7, 6] = 1
    return m


def transversal_toffoli(delta=0.0):
    """Three-block transversal Toffoli on 9 qubits, first gate overrotated."""
    base = ccx_matrix()
    noisy = base.copy()
    xrot = np.cos(delta) * np.eye(2) - 1j * np.sin(delta) * np.array([[0, 1], [1, 0]])
    noisy[6:, 6:] = np.array([[0, 1], [1, 0]]) @ xrot
    out = embed_operator(noisy, [0, 3, 6], 2, 9)
    for cols in ([1, 4, 7], [2, 5, 8]):
        out = embed_operator(base, cols, 2, 9) @ out
    return out


def toffoli_circuit(delta=0.0):
    regs = tuple(
        Register(name=f"B{i}", kind="logical", qudits=(3 * i, 3 * i + 1, 3 * i + 2), code=BITFLIP)
        for i in range(3)
    )
    gadgets = (
        Gadget.reset("B0", (1,)),
        Gadget.reset("B1", (1,)),
        Gadget.reset("B2", (1,)),
        Gadget.unitary(("B0", "B1", "B2"), matrix=transversal_toffoli(delta), label="CCX_transversal"),
    )
    return LogicalCircuit(d=2, registers=regs, gadgets=gadgets, classical_wires=())


def test_validate_empty_circuit():
    c = LogicalCircuit(d=2, registers=(one_block(),), gadgets=(), classical_wires=())
    assert validate(c) == []


def test_validate_noise_dimension_mismatch():
    g = Gadget.reset("L0", (0,), noise=identity_channel(2))
    c = LogicalCircuit(d=2, registers=(one_block(),), gadgets=(g,), classical_wires=())
    diags = validate(c)
    assert len(diags) == 1
    assert diags[0].gadget == 0
    assert diags[0].rule == "noise-dim"


def test_validate_readout_reused_without_reset():
    regs = block_plus_readout()
    gadgets = (
        Gadget.reset("L0", (0,)),
        Gadget.reset("R0", (0,)),
        Gadget.syndrome_extraction("L0", 0, "R0", "s0"),
        Gadget.syndrome_extraction("L0", 1, "R0", "s1"),
    )
    c = LogicalCircuit(d=2, registers=regs, gadgets=gadgets, classical_wires=("s0", "s1"))
    assert any(d.rule == "readout-reset" and d.gadget == 3 for d in validate(c))


def test_validate_wire_written_twice():
    regs = (one_block(),)
    gadgets = (
        Gadget.reset("L0", (0,)),
        Gadget.measurement("L0", "m"),
        Gadget.measurement("L0", "m"),
    )
    c = LogicalCircuit(d=2, registers=regs, gadgets=gadgets, classical_wires=("m",))
    assert any(d.rule == "wire-rewrite" for d in validate(c))


def test_validate_measurement_basis_must_be_logical():
    g = Gadget.measurement("L0", "m", weyl=WeylOperator.from_label("XII"))
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,)), g),
        classical_wires=("m",),
    )
    assert any(d.rule == "measurement-basis" for d in validate(c))


def test_serialize_round_trip_toffoli():
    c = toffoli_circuit(0.1)
    text = serialize(c)
    again = parse(text)
    assert serialize(again) == text


def test_serialize_deterministic():
    c = toffoli_circuit(0.0)
    assert serialize(c) == serialize(c)


def test_parse_missing_field_names_path():
    c = toffoli_circuit(0.0)
    import json

    data = json.loads(serialize(c))
    del data["d"]
    with pytest.raises(SchemaError, match=r"\$: missing required field 'd'"):
        circuit_from_dict(data)


def test_parse_reports_bad_weyl_path():
    regs = (one_block(),)
    c = LogicalCircuit(
        d=2,
        registers=regs,
        gadgets=(Gadget.unitary("L0", weyl=WeylOperator.from_label("XXX")),),
        classical_wires=(),
    )
    import json

    data = json.loads(serialize(c))
    data["gadgets"][0]["weyl"] = "garbage"
    with pytest.raises(SchemaError, match=r"gadgets\[0\].weyl"):
        circuit_from_dict(data)


@pytest.mark.parametrize(
    "code_data,message",
    [({"d": 2}, "code definition lacks the field 'n'"), ([1], "a code definition must be a JSON object")],
)
def test_parse_reports_a_malformed_code_at_its_path(code_data, message):
    import json

    data = json.loads(serialize(LogicalCircuit(d=2, registers=(one_block(),), gadgets=(), classical_wires=())))
    data["codes"]["bitflip3"] = code_data
    with pytest.raises(SchemaError, match=rf"\$\.codes\.bitflip3: {re.escape(message)}"):
        circuit_from_dict(data)


def _strict_reader_circuit():
    regs = block_plus_readout()
    gadgets = (
        Gadget.reset("L0", (0,)),
        Gadget.reset("R0", (0,)),
        Gadget.syndrome_extraction("L0", 0, "R0", "s"),
        Gadget.idle("L0", ticks=2),
    )
    return LogicalCircuit(d=2, registers=regs, gadgets=gadgets, classical_wires=("s",))


@pytest.mark.parametrize(
    "keys,value,message",
    [
        (("registers", 0, "qudits"), "012", "$.registers[0].qudits must be a JSON list, not '012'"),
        (("gadgets", 0, "state"), "0", "$.gadgets[0].state must be a JSON list, not '0'"),
        (("d",), "2", "$.d must be an integer, not '2'"),
        (("d",), 2.9, "$.d must be an integer, not 2.9"),
        (("gadgets", 3, "ticks"), 2.7, "$.gadgets[3].ticks must be an integer, not 2.7"),
        (("gadgets", 3, "ticks"), True, "$.gadgets[3].ticks must be an integer, not True"),
        (("registers",), [5], "$.registers[0] must be a JSON object, not 5"),
        (("codes",), [], "$.codes must be a JSON object, not []"),
        (("gadgets", 2, "generator"), "0", "$.gadgets[2].generator must be an integer, not '0'"),
        (("gadgets", 2, "wire"), ["s"], "$.gadgets[2].wire must be a string, not ['s']"),
        (("registers", 0, "name"), ["L0"], "$.registers[0].name must be a string, not ['L0']"),
        (("schema_version",), True, "$.schema_version must be an integer, not True"),
    ],
)
def test_parse_rejects_a_value_of_the_wrong_json_type_at_its_path(keys, value, message):
    import json

    data = json.loads(serialize(_strict_reader_circuit()))
    assert validate(circuit_from_dict(data)) == []  # unmodified, it reads and is well formed
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(SchemaError) as info:
        circuit_from_dict(data)
    assert str(info.value) == message


def test_measurement_weyl_whose_dth_power_is_not_the_identity_is_rejected():
    def reset_then_measure(weyl):
        gadgets = (Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m", weyl=weyl))
        return LogicalCircuit(d=2, registers=(one_block(),), gadgets=gadgets, classical_wires=("m",))

    assert evaluate(reset_then_measure(BITFLIP.logical_z(0))).distribution() == pytest.approx({(0,): 1.0})
    bad = reset_then_measure(BITFLIP.logical_z(0).with_phase_exp(1))  # iZ: (iZ)^2 = -1
    assert [diag.rule for diag in validate(bad)] == ["measurement-basis"]
    with pytest.raises(EvaluationError, match="measurement-basis"):
        evaluate(bad)


@pytest.mark.parametrize(
    "code_name,text",
    [
        ("bitflip3", "0;0,0,0;0,0,0;3"),  # the qutrit identity, whose x and z match a logical
        ("bitflip3", "0;1,1;0,0;2"),
        ("qutrit_rep3", "0;1,1,1;0,0,0;2"),  # a qubit XXX on the qutrit block
    ],
)
def test_measurement_weyl_off_the_block_is_rejected(code_name, text):
    code = builtin_code(code_name)
    gadgets = (Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m", weyl=WeylOperator.from_string(text)))
    c = LogicalCircuit(d=code.d, registers=(one_block(code),), gadgets=gadgets, classical_wires=("m",))
    diags = validate(c)
    assert [diag.rule for diag in diags] == ["measurement-basis"]
    assert diags[0].message.endswith(f"does not act on 3 qudits of dimension {code.d}")
    with pytest.raises(EvaluationError, match="measurement-basis"):
        evaluate(c)


def test_fourier_and_logical_measurement_keep_their_qubit_bits():
    """At d = 2, fourier_matrix and the logical-measurement Kraus operators of
    bitflip3 and phaseflip3 give the bits of the np.exp and matrix_power sums
    that the root table and the Weyl eigenprojector replaced."""
    j, k = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
    old = np.exp(2j * np.pi * j * k / 2) / np.sqrt(2)
    assert np.array_equal(fourier_matrix(2).view(np.float64), old.view(np.float64))
    for code in (BITFLIP, builtin_code("phaseflip3")):
        M = code.logical_z(0).to_matrix()
        pis = [projector_for_syndrome(code, syndrome_of(code, T)) for T in enumerate_pure_errors(code)]
        kraus = lrc.circuits._logical_measurement_kraus(code, code.logical_z(0))
        for b in range(2):
            acc = np.zeros((code.dim, code.dim), dtype=complex)
            for j in range(2):
                acc += np.exp(-2j * np.pi * j * b / 2) * np.linalg.matrix_power(M, j)
            old = [K for K in (pi @ (acc / 2) for pi in pis) if np.max(np.abs(K)) >= 1e-14]
            assert len(kraus[b]) == len(old) > 0
            for K, K_old in zip(kraus[b], old):
                assert np.array_equal(K.view(np.float64), K_old.view(np.float64))


def test_ideal_channel_unitary_only_matches_natural_rep():
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(
            Gadget.unitary("L0", weyl=WeylOperator.from_label("XXX")),
            Gadget.unitary("L0", weyl=WeylOperator.from_label("ZZI")),
        ),
        classical_wires=(),
    )
    got = instance_channel(CompiledInstance(c, (EMPTY_INSERTIONS,) * 2), ideal=True)
    expect = natural_rep(
        WeylOperator.from_label("ZZI").to_matrix() @ WeylOperator.from_label("XXX").to_matrix()
    )
    np.testing.assert_allclose(got.matrix, expect.matrix, atol=1e-12)


def test_ideal_logical_x_flips_codeword():
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(
            Gadget.reset("L0", (0,)),
            Gadget.unitary("L0", weyl=WeylOperator.from_label("XXX")),
        ),
        classical_wires=(),
    )
    result = evaluate(c, ideal=True)
    one = logical_basis_state(BITFLIP, (1,))
    fid = np.real(one.conj() @ result.final_state() @ one)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_ideal_toffoli_maps_111_to_110():
    res = evaluate(toffoli_circuit(0.0), ideal=True)
    psi = np.zeros(512)
    psi[int("111111000", 2)] = 1.0
    fid = np.real(psi.conj() @ res.final_state() @ psi)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_noisy_toffoli_leaves_residual_rotation_on_block_three():
    delta = 0.1
    res = evaluate(toffoli_circuit(delta))
    rho3 = partial_trace(res.final_state(), [6, 7, 8], 2, 9)
    xii = WeylOperator.from_label("XII")
    zero = logical_basis_state(BITFLIP, (0,))
    expect = np.cos(delta) * zero - 1j * np.sin(delta) * xii.apply_to_vector(zero)
    fid = np.real(expect.conj() @ rho3 @ expect)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_ideal_extraction_reports_syndrome_of_injected_error():
    for err in ("XII", "IXI", "XXI"):
        regs = block_plus_readout()
        gadgets = (
            Gadget.reset("L0", (0,)),
            Gadget.unitary("L0", weyl=WeylOperator.from_label(err)),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L0", 0, "R0", "s0"),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L0", 1, "R0", "s1"),
        )
        c = LogicalCircuit(d=2, registers=regs, gadgets=gadgets, classical_wires=("s0", "s1"))
        dist = evaluate(c).distribution()
        syn = syndrome_of(BITFLIP, WeylOperator.from_label(err))
        assert dist == pytest.approx({syn: 1.0})


def test_qutrit_extraction_round():
    code = builtin_code("qutrit_rep3")
    regs = (
        Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),
        Register(name="R0", kind="readout", qudits=(3,)),
    )
    err = code.pure_error_gens[0]
    gadgets = (
        Gadget.reset("L0", (0,)),
        Gadget.unitary("L0", weyl=err),
        Gadget.reset("R0", (0,)),
        Gadget.syndrome_extraction("L0", 0, "R0", "s0"),
    )
    c = LogicalCircuit(d=3, registers=regs, gadgets=gadgets, classical_wires=("s0",))
    dist = evaluate(c).distribution()
    assert dist == pytest.approx({syndrome_of(code, err)[:1]: 1.0})


def test_logical_measurement_of_codewords():
    for value in (0, 1):
        c = LogicalCircuit(
            d=2,
            registers=(one_block(),),
            gadgets=(Gadget.reset("L0", (value,)), Gadget.measurement("L0", "m")),
            classical_wires=("m",),
        )
        assert evaluate(c).distribution() == pytest.approx({(value,): 1.0})


def test_noisy_reset_measurement_distribution():
    theta = 0.3
    noise = coherent_rotation(WeylOperator.from_label("XXX"), theta)
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    dist = evaluate(c).distribution()
    assert dist[(0,)] == pytest.approx(np.cos(theta) ** 2, abs=1e-12)
    assert dist[(1,)] == pytest.approx(np.sin(theta) ** 2, abs=1e-12)
    assert evaluate(c, ideal=True).distribution() == pytest.approx({(0,): 1.0})


def test_measurement_dephases_between_cospaces():
    # A coherent X rotation creates cross-cospace terms; measuring the logical
    # Z leaves the conditional states inside single cospaces.
    noise = coherent_rotation(WeylOperator.from_label("XII"), 0.4)
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    table = evaluate(c).branch_table()
    state = table[(0,)][1]
    p_i = projector_for_syndrome(BITFLIP, syndrome_of(BITFLIP, BITFLIP.identity()))
    p_x = projector_for_syndrome(BITFLIP, syndrome_of(BITFLIP, WeylOperator.from_label("XII")))
    cross = p_i @ state @ p_x
    assert np.max(np.abs(cross)) < 1e-12


def test_noise_fields_inert_in_ideal_evaluator():
    noise = coherent_rotation(WeylOperator.from_label("XXX"), 0.3)
    noisy = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    stripped = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    a = evaluate(noisy, ideal=True)
    b = evaluate(stripped, ideal=True)
    assert a.distribution() == b.distribution()
    np.testing.assert_allclose(a.final_state(), b.final_state(), atol=1e-14)


def test_insertions_weyl_layers_and_classical_post():
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    ins = [
        GadgetInsertions(),
        GadgetInsertions(
            before=(Gadget.unitary("L0", weyl=WeylOperator.from_label("XXX")),),
            classical_add={"m": 1},
        ),
    ]
    # X-bar flips the raw outcome to 1, the classical correction restores 0.
    res = evaluate(c, insertions=ins)
    assert res.distribution() == pytest.approx({(0,): 1.0})


XXX = WeylOperator.from_label("XXX")


@pytest.mark.parametrize(
    "layer",
    [
        Gadget.unitary("L0", weyl=XXX, noise=identity_channel(8)),
        Gadget.unitary("L0"),
        Gadget.unitary("L0", weyl=XXX, matrix=np.eye(8)),
        Gadget.idle("L0"),
        XXX,
    ],
)
def test_inserted_layers_are_noise_free_unitary_gadgets(layer):
    for side in ("before", "after"):
        with pytest.raises(ValueError, match="noise-free unitary gadget"):
            GadgetInsertions(**{side: (layer,)})


def test_insertion_mappings_are_read_only_copies():
    """A shared record mutated after an evaluation used to leave its cached expansion stale."""
    internal = {"rc": (1, 0)}
    ins = GadgetInsertions(internal=internal, classical_add={"r": 1}, draws={"x": 1})
    internal["rc"] = (0, 0)
    assert ins.internal == {"rc": (1, 0)}
    for mapping in (ins.internal, ins.classical_add, ins.draws):
        with pytest.raises(TypeError):
            mapping["rc"] = (0, 0)
        with pytest.raises(TypeError):
            del mapping[next(iter(mapping))]


def test_idle_noise_acts_once_per_tick():
    noise = coherent_rotation(WeylOperator.from_label("XII"), 0.3)
    reset = Gadget.reset("L0", (0,))
    rho = evaluate(LogicalCircuit(2, (one_block(),), (reset,), ())).final_state()
    for _ in range(3):
        rho = apply_local_channel(rho, noise, (0, 1, 2), 2, 3)
    idle = LogicalCircuit(2, (one_block(),), (reset, Gadget.idle("L0", ticks=3, noise=noise)), ())
    assert np.array_equal(evaluate(idle).final_state(), rho)


def test_noise_must_be_trace_preserving():
    """Half the identity used to pass validation, and evaluate then summed to 0.5."""
    lossy = Superoperator(8, 0.5 * np.eye(64))
    gadgets = [
        (Gadget.reset("L0", (0,), noise=lossy), Gadget.measurement("L0", "m")),
        (
            Gadget.reset("L0", (0,)),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L0", 0, "R0", "m", idle_noise=lossy),
        ),
    ]
    for gs in gadgets:
        c = LogicalCircuit(d=2, registers=block_plus_readout(), gadgets=gs, classical_wires=("m",))
        assert [d.rule for d in validate(c)] == ["noise-trace"]
        with pytest.raises(EvaluationError, match="noise-trace"):
            evaluate(c)


@pytest.mark.parametrize("count", [1, 3])
def test_insertions_must_match_the_gadgets(count):
    """A short list used to drop the trailing measurement; a long one was cut."""
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    ins = [GadgetInsertions() for _ in range(count)]
    with pytest.raises(EvaluationError, match=f"{count} insertion records for 2 gadgets"):
        evaluate(c, insertions=ins)
    x = Gadget.unitary("L0", weyl=WeylOperator.from_label("XXX"))
    u = LogicalCircuit(d=2, registers=(one_block(),), gadgets=(x, x), classical_wires=())
    with pytest.raises(EvaluationError, match=f"{count} insertion records for 2 gadgets"):
        instance_channel(CompiledInstance(u, tuple(ins)))


def test_branch_limit_raises_then_samples():
    gadgets = [Gadget.reset("L0", (0,), noise=coherent_rotation(WeylOperator.from_label("XXX"), 0.7))]
    for i in range(3):
        gadgets.append(Gadget.measurement("L0", f"m{i}"))
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=tuple(gadgets),
        classical_wires=tuple(f"m{i}" for i in range(3)),
    )
    with pytest.raises(EvaluationError):
        evaluate(c, branch_limit=1)
    res = evaluate(c, branch_limit=1, rng=np.random.default_rng(4))
    assert not res.exact
    assert len(res.branches) == 1


def test_controlled_weyl_writes_eigenvalue():
    code = BITFLIP
    A = code.stab_gens[0]
    gate = controlled_weyl(A)
    F = fourier_matrix(2)
    full = np.kron(np.eye(8), F.conj().T) @ gate @ np.kron(np.eye(8), F)
    err = WeylOperator.from_label("XII")
    state = err.apply_to_vector(logical_basis_state(code, (0,)))
    joint = np.kron(state, np.array([1.0, 0.0]))
    out = full @ joint
    # readout should end in |1> since XII anticommutes with ZZI
    expect = np.kron(state, np.array([0.0, 1.0]))
    assert abs(abs(expect.conj() @ out) - 1.0) < 1e-12


@pytest.mark.parametrize("site", [0, 1, 2])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_site_measurement_equals_dense_projector_sandwich(d, site):
    n = 3
    rng = np.random.default_rng(10 * d + site)
    m = rng.normal(size=(d**n, d**n)) + 1j * rng.normal(size=(d**n, d**n))
    rho = m @ m.conj().T
    outcomes = list(apply_local_measurement(rho, None, (site,), d, n))
    assert len(outcomes) == d
    for value, sub in enumerate(outcomes):
        block = np.zeros((d, d))
        block[value, value] = 1.0
        K = embed_operator(block, [site], d, n)
        assert np.array_equal(sub, K @ rho @ K)


def test_evaluate_never_embeds_into_the_full_register(monkeypatch):
    """Two-block syndrome extraction on a shared readout, then a logical
    measurement: every gate and measurement acts on its footprint."""

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate built a full-register operator")

    monkeypatch.setattr(lrc.channels, "embed_operator", refuse)
    monkeypatch.setattr(lrc.circuits, "embed_operator", refuse)
    code = builtin_code("bitflip3")
    circuit = LogicalCircuit(
        d=2,
        registers=(
            Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),
            Register(name="L1", kind="logical", qudits=(3, 4, 5), code=code),
            Register(name="R0", kind="readout", qudits=(6,)),
        ),
        gadgets=(
            Gadget.reset("L0", (1,)),
            Gadget.reset("L1", (0,)),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L0", 0, "R0", "s0"),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L1", 1, "R0", "s1"),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("s0", "s1", "m"),
    )
    res = evaluate(circuit)
    assert res.distribution() == {(0, 0, 1): pytest.approx(1.0, abs=1e-12)}


def repetition3(d):
    """The three-qudit repetition code Z_i Z_{i+1}^-1 of any dimension d."""
    w = WeylOperator
    return StabilizerCode(
        d=d,
        n=3,
        k=1,
        stab_gens=(w(d, (0, 0, 0), (1, d - 1, 0)), w(d, (0, 0, 0), (0, 1, d - 1))),
        pure_error_gens=(w(d, (1, 0, 0), (0, 0, 0)), w(d, (0, 1, 0), (0, 0, 0))),
        logical_gens=(w(d, (1, 1, 1), (0, 0, 0)), w(d, (0, 0, 0), (1, 0, 0))),
    )


@st.composite
def random_circuits(draw):
    """A valid circuit over d in {2, 3, 5}: a code block, a readout qudit and a
    random run of every gadget kind, with Weyl, matrix and noisy gadgets."""
    d = draw(st.sampled_from((2, 3, 5)))
    codes = {2: ("bitflip3", "phaseflip3"), 3: ("qutrit_rep3",), 5: ()}[d]
    code = draw(st.sampled_from([builtin_code(c) for c in codes] + [repetition3(d), trivial_code(d)]))
    dit = st.integers(0, d - 1)
    noise = st.none() | st.builds(readout_flip, st.just(d), st.floats(0, 1)) | st.builds(
        readout_rotation, st.just(d), st.floats(-3, 3)
    )
    gadgets = [Gadget.reset("L0", draw(st.lists(dit, min_size=code.k, max_size=code.k)))]
    wires = []
    for i in range(draw(st.integers(0, 5))):
        wire = f"w{i}"
        kind = draw(st.sampled_from(("weyl", "matrix", "measure", "extract", "idle", "readout")))
        if kind == "weyl":
            dits = st.lists(dit, min_size=code.n, max_size=code.n)
            weyl = WeylOperator(d, draw(dits), draw(dits), draw(st.integers(0, 2 * d - 1)))
            gadgets.append(Gadget.unitary("L0", weyl=weyl, label=draw(st.none() | st.text(max_size=3))))
        elif kind == "matrix":
            gadgets.append(Gadget.unitary("R0", matrix=fourier_matrix(d), noise=draw(noise)))
        elif kind == "measure":
            gadgets.append(Gadget.measurement("L0", wire))
        elif kind == "idle":
            gadgets.append(Gadget.idle("L0", ticks=draw(st.integers(1, 3))))
        elif kind == "readout" or not code.n_generators:
            gadgets.append(Gadget.reset("R0", (draw(dit),), noise=draw(noise)))
            gadgets.append(Gadget.readout_measurement("R0", wire, noise=draw(noise)))
        else:
            generator = draw(st.integers(0, code.n_generators - 1))
            gadgets.append(Gadget.reset("R0", (0,)))
            gadgets.append(Gadget.syndrome_extraction("L0", generator, "R0", wire, noise=draw(noise)))
        if kind in ("measure", "extract", "readout"):
            wires.append(wire)
    return LogicalCircuit(
        d=d,
        registers=(
            Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code),
            Register(name="R0", kind="readout", qudits=(code.n,)),
        ),
        gadgets=tuple(gadgets),
        classical_wires=tuple(wires),
    )


@settings(max_examples=40)
@given(circuit=random_circuits())
def test_serialize_parse_round_trip(circuit):
    """LogicalCircuit compares by identity, so the serialized forms are compared."""
    assert validate(circuit) == []
    text = serialize(circuit)
    again = parse(text)
    assert validate(again) == []
    assert serialize(again) == text


# -- resuming from the previous run's gadget prefix ----------------------------


def twirled_x_circuit(theta=0.2, code=BITFLIP, idle=False):
    """Noisy reset, twirled logical X, a measurement, then (if asked) a noisy idle."""
    noise = coherent_rotation(WeylOperator.from_label("X" + "I" * (code.n - 1)), theta)
    gadgets = (
        Gadget.reset("L0", (0,), noise=noise),
        Gadget.unitary("L0", weyl=code.logical_x(), noise=noise),
        Gadget.measurement("L0", "m", noise=noise),
    )
    if idle:
        gadgets += (Gadget.idle("L0", noise=noise),)
    return LogicalCircuit(d=2, registers=(one_block(code),), gadgets=gadgets, classical_wires=("m",))


def twirled_stream(circuit, **kwargs):
    policy = RandomizationPolicy(twirl_groups={1: TwirlGroupSpec.logical_weyl()}, **kwargs)
    return list(instantiate(circuit, policy))


def fresh_copy(c):
    """An equal circuit object, so no cache or memo has seen it."""
    return LogicalCircuit(d=c.d, registers=c.registers, gadgets=c.gadgets, classical_wires=c.classical_wires)


def assert_same_result(got, want):
    assert got.exact == want.exact
    assert len(got.branches) == len(want.branches)
    for a, b in zip(got.branches, want.branches):
        assert a.record == b.record
        assert np.array_equal(a.probability, b.probability)
        assert np.array_equal(a.state, b.state)


@pytest.fixture
def reset_calls(monkeypatch):
    """Counts the reset steps run: a run that resumes skips the first gadget's reset."""
    calls = []
    original = lrc.circuits.reset_sites
    monkeypatch.setattr(lrc.circuits, "reset_sites", lambda *a: calls.append(1) or original(*a))
    return calls


@pytest.mark.parametrize("shuffle", [False, True])
def test_resumed_stream_equals_fresh_evaluations(shuffle, reset_calls):
    c = twirled_x_circuit()
    instances = twirled_stream(c, stabilizers=False)
    if shuffle:
        np.random.default_rng(3).shuffle(instances)
    prefixes = [inst.insertions[:2] for inst in instances]
    changes = 1 + sum(any(a is not b for a, b in zip(p, q)) for p, q in zip(prefixes, prefixes[1:]))
    assert len(instances) == 16
    for inst in instances:
        want = evaluate(fresh_copy(c), insertions=inst.insertions)
        assert_same_result(evaluate(c, insertions=inst.insertions), want)
    assert len(reset_calls) == 2 * len(instances) - (len(instances) - changes)
    if not shuffle:
        assert changes == 4


def test_interleaved_circuits_ideal_runs_and_branch_limits_resume_only_their_own():
    circuits = [twirled_x_circuit(0.2), twirled_x_circuit(0.5)]
    streams = [twirled_stream(c, stabilizers=False) for c in circuits]
    for k, pair in enumerate(zip(*streams)):
        for c, inst in zip(circuits, pair):
            ideal, limit = bool(k % 2), (4096, 16)[k % 3 == 0]
            got = evaluate(c, insertions=inst.insertions, ideal=ideal, branch_limit=limit)
            want = evaluate(fresh_copy(c), insertions=inst.insertions, ideal=ideal, branch_limit=limit)
            assert_same_result(got, want)
    assert {key for c in circuits for key in lrc.circuits._PREFIXES[c]} == {
        (False, 4096), (True, 4096), (False, 16), (True, 16)
    }


def test_sampling_fallback_neither_stores_nor_resumes(reset_calls):
    gadgets = [Gadget.reset("L0", (0,), noise=coherent_rotation(WeylOperator.from_label("XXX"), 0.7))]
    gadgets += [Gadget.measurement("L0", f"m{i}") for i in range(3)]
    c = LogicalCircuit(
        d=2, registers=(one_block(),), gadgets=tuple(gadgets), classical_wires=("m0", "m1", "m2")
    )
    for seed in (4, 4, 5):
        got = evaluate(c, branch_limit=1, rng=np.random.default_rng(seed))
        want = evaluate(fresh_copy(c), branch_limit=1, rng=np.random.default_rng(seed))
        assert not got.exact
        assert_same_result(got, want)
    assert (False, 1) not in lrc.circuits._PREFIXES.get(c, {})
    assert len(reset_calls) == 6


def test_empty_last_gadget_returns_read_only_states(reset_calls):
    """An ideal idle has no steps, so its branches are the stored read-only ones;
    their records still take the measurement's correction once per run."""
    c = twirled_x_circuit(idle=True)
    bare = [EMPTY_INSERTIONS] * 4
    instances = [inst.insertions for inst in twirled_stream(c, stabilizers=False)]
    empty = [ins for ins in instances if not ins[3].before and not ins[3].after]
    assert 0 < len(empty) < len(instances)
    for insertions in [bare, bare] + instances + empty:
        got = evaluate(c, insertions=insertions, ideal=True)
        assert_same_result(got, evaluate(fresh_copy(c), insertions=insertions, ideal=True))
        if insertions in [bare] + empty:
            assert all(not br.state.flags.writeable for br in got.branches)
    assert len(reset_calls) < 2 * (len(instances) + len(empty) + 2)


def test_registers_over_64_dimensions_store_nothing(reset_calls):
    two = (one_block(), Register(name="L1", kind="logical", qudits=(3, 4, 5), code=BITFLIP))
    c = LogicalCircuit(
        d=2,
        registers=two + (Register(name="R0", kind="readout", qudits=(6,)),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.reset("L1", (1,)), Gadget.measurement("L1", "m")),
        classical_wires=("m",),
    )
    assert c.dim == 128
    for _ in range(2):
        assert evaluate(c).distribution() == pytest.approx({(1,): 1.0})
    assert c not in lrc.circuits._PREFIXES
    assert len(reset_calls) == 4


WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def test_wide_register_pass_matches_the_recorded_averages(tmp_path, monkeypatch):
    """One pass of the D = 81, 128 and 256 extraction workload of the benchmark,
    seed 7: every instance is exact and sums to 1, and each circuit's averaged
    distribution is within 1e-10 of the one recorded in benchmarks/reference."""
    spec = importlib.util.spec_from_file_location("lrc_benchmark_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    work = workloads.build("wide_register", 7, tmp_path)
    assert sorted(c.dim for _, c, _ in work.circuits) == [81, 128, 256]
    result = work.run_pass()
    assert result.failures == []
    assert result.instances == sum(work.sizes)
    # one attempt per instance and one per circuit compared with the reference
    assert result.attempted == result.instances + len(work.circuits)


def test_caches_of_measurement_operators_and_weyl_bases_are_bounded():
    for cached in (lrc.circuits._logical_measurement_kraus, lrc.channels._weyl_basis_matrices):
        assert isinstance(cached.cache_parameters()["maxsize"], int)
