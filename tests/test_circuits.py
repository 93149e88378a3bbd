import copy
import functools
import importlib.util
import itertools
import json
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrc.channels
import lrc.circuits
from lrc.channels import (
    Superoperator,
    _on_footprint,
    apply_local_channel,
    apply_local_kraus,
    apply_local_measurement,
    coherent_rotation,
    embed_operator,
    identity_channel,
    lift_local_superop,
    natural_rep,
    partial_trace,
    stochastic_weyl,
)
from lrc.codes import (
    StabilizerCode,
    builtin_code,
    cospace_table,
    enumerate_pure_errors,
    load_code,
    logical_basis_state,
    projector_for_syndrome,
    syndrome_of,
    trivial_code,
)
from lrc.circuits import (
    EMPTY_INSERTIONS,
    CircuitResult,
    CompiledInstance,
    EvaluationError,
    Gadget,
    GadgetInsertions,
    LogicalCircuit,
    Register,
    SchemaError,
    _instance_steps,
    circuit_from_dict,
    controlled_weyl,
    evaluate,
    fourier_matrix,
    parse,
    serialize,
    validate,
)
from lrc.compiler import RandomizationPolicy, TwirlGroupSpec, gadget_components, instantiate, realize_gadget
from lrc.verify import instance_channel, readout_flip, readout_rotation
from lrc.weyl import CapacityError, WeylOperator, dense_limit, eigenprojector, iter_weyls

from branch_oracle import evaluate_per_branch

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


def test_a_gadget_freezes_a_copy_of_the_caller_s_matrix():
    m = np.eye(2, dtype=complex)
    g = Gadget.unitary("L0", matrix=m)
    assert m.flags.writeable and not g.matrix.flags.writeable
    m[0, 1] = 1.0
    assert g.matrix[0, 1] == 0
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    Gadget.reset("L0", (0,), noise=natural_rep(u))
    assert u.flags.writeable


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


@pytest.mark.parametrize(
    "keys,key,message",
    [
        ((), "extra", "unknown key 'extra' in $; expected one of schema_version, d, codes, registers"),
        (("codes", "bitflip3"), "extra", "$.codes.bitflip3: unknown key 'extra' in a code definition; expected one of d"),
        (("registers", 1), "extra", "unknown key 'extra' in $.registers[1]; expected one of name, kind, qudits, code"),
        (("gadgets", 2), "nosie", "unknown key 'nosie' in $.gadgets[2]; expected one of kind, registers, state"),
        (("gadgets", 1, "noise"), "extra", "unknown key 'extra' in $.gadgets[1].noise; expected one of dim, matrix, kraus"),
    ],
)
def test_parse_rejects_an_unknown_key_at_its_path(keys, key, message):
    """A misspelled field is refused, not read as absent: a gadget with "nosie" would run noise-free."""
    data = json.loads(serialize(_strict_reader_circuit()))
    data["gadgets"][1]["noise"] = {"dim": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    assert validate(circuit_from_dict(data)) == []
    target = data
    for k in keys:
        target = target[k]
    target[key] = 0
    with pytest.raises(SchemaError) as info:
        circuit_from_dict(data)
    assert str(info.value).startswith(message)


def _with_gadgets(*gadgets, wires=(), registers=None, d=2):
    registers = block_plus_readout() if registers is None else registers
    return LogicalCircuit(d=d, registers=registers, gadgets=gadgets, classical_wires=wires)


def _registers_only(*registers, d=2):
    return _with_gadgets(registers=registers, d=d)


_FLAT8 = natural_rep(np.eye(8))
_EXTRACT = functools.partial(Gadget.syndrome_extraction, "L0", 0, "R0", "s")

#: One malformed circuit per diagnostic branch of ``validate``: (rule, circuit).
_MALFORMED = {
    "duplicate-register-name": ("register-names", lambda: _registers_only(
        one_block(), Register("L0", "readout", (3,)))),
    "qudits-not-a-partition": ("qudit-indices", lambda: _registers_only(
        Register("L0", "logical", (1, 2, 3), BITFLIP))),
    "logical-without-code": ("register-code", lambda: _registers_only(Register("L0", "logical", (0, 1, 2)))),
    "code-size-mismatch": ("register-code", lambda: _registers_only(Register("L0", "logical", (0, 1), BITFLIP))),
    "code-d-mismatch": ("register-code", lambda: _registers_only(one_block(), d=3)),
    "wide-readout": ("readout-size", lambda: _registers_only(Register("R0", "readout", (0, 1)))),
    "unknown-register-kind": ("register-kind", lambda: _registers_only(Register("Q", "ancilla", (0,)))),
    "unknown-register": ("unknown-register", lambda: _with_gadgets(Gadget.reset("L9", (0,)))),
    "noise-dim": ("noise-dim", lambda: _with_gadgets(Gadget.reset("R0", (0,), noise=_FLAT8))),
    "idle-noise-off-extraction": ("idle-noise", lambda: _with_gadgets(Gadget("idle", ("L0",), idle_noise=_FLAT8))),
    "idle-noise-dim": ("noise-dim", lambda: _with_gadgets(
        Gadget.reset("R0", (0,)), _EXTRACT(idle_noise=natural_rep(np.eye(2))), wires=("s",))),
    "noise-trace": ("noise-trace", lambda: _with_gadgets(
        Gadget.reset("R0", (0,), noise=Superoperator(2, 2 * np.eye(4))))),
    "reset-width": ("reset-state", lambda: _with_gadgets(Gadget.reset("L0", (0, 0)))),
    "reset-range": ("reset-state", lambda: _with_gadgets(Gadget.reset("L0", (2,)))),
    "unitary-without-realisation": ("unitary-realisation", lambda: _with_gadgets(Gadget.unitary("L0"))),
    "unitary-weyl-size": ("unitary-realisation", lambda: _with_gadgets(
        Gadget.unitary("L0", weyl=WeylOperator.from_label("XX")))),
    "unitary-matrix-shape": ("unitary-realisation", lambda: _with_gadgets(Gadget.unitary("L0", matrix=np.eye(2)))),
    "unitary-not-unitary": ("unitary-realisation", lambda: _with_gadgets(
        Gadget.unitary("R0", matrix=2 * np.eye(2)))),
    "measurement-of-a-readout": ("measurement-target", lambda: _with_gadgets(
        Gadget.measurement("R0", "m"), wires=("m",))),
    "measurement-weyl-size": ("measurement-basis", lambda: _with_gadgets(
        Gadget.measurement("L0", "m", weyl=WeylOperator.from_label("XX")), wires=("m",))),
    "measurement-weyl-not-logical": ("measurement-basis", lambda: _with_gadgets(
        Gadget.measurement("L0", "m", weyl=WeylOperator.from_label("ZII")), wires=("m",))),
    "measurement-weyl-power": ("measurement-basis", lambda: _with_gadgets(
        Gadget.measurement("L0", "m", weyl=BITFLIP.logical_z(0).with_phase_exp(1)), wires=("m",))),
    "measurement-without-wire": ("wire", lambda: _with_gadgets(Gadget.measurement("L0", None))),
    "extraction-of-a-readout": ("extraction-target", lambda: _with_gadgets(
        Gadget.reset("R0", (0,)), Gadget.syndrome_extraction("R0", 0, "R0", "s"), wires=("s",))),
    "generator-index": ("generator-index", lambda: _with_gadgets(
        Gadget.reset("R0", (0,)), Gadget.syndrome_extraction("L0", 2, "R0", "s"), wires=("s",))),
    "unknown-readout": ("readout-register", lambda: _with_gadgets(
        Gadget.syndrome_extraction("L0", 0, "R9", "s"), wires=("s",))),
    "logical-readout": ("readout-register", lambda: _with_gadgets(
        Gadget.syndrome_extraction("L0", 0, "L0", "s"), wires=("s",))),
    "extraction-readout-not-reset": ("readout-reset", lambda: _with_gadgets(_EXTRACT(), wires=("s",))),
    "extraction-without-wire": ("wire", lambda: _with_gadgets(
        Gadget.reset("R0", (0,)), Gadget.syndrome_extraction("L0", 0, "R0", None))),
    "readout-measurement-of-a-block": ("measurement-target", lambda: _with_gadgets(
        Gadget.readout_measurement("L0", "r"), wires=("r",))),
    "readout-not-reset": ("readout-reset", lambda: _with_gadgets(
        Gadget.readout_measurement("R0", "r"), wires=("r",))),
    "readout-measurement-without-wire": ("wire", lambda: _with_gadgets(
        Gadget.reset("R0", (0,)), Gadget.readout_measurement("R0", None))),
    "idle-ticks": ("idle-ticks", lambda: _with_gadgets(Gadget.idle("L0", ticks=0))),
    "gadget-kind": ("gadget-kind", lambda: _with_gadgets(Gadget("teleport", ("L0",)))),
    "wire-rewrite": ("wire-rewrite", lambda: _with_gadgets(
        Gadget.measurement("L0", "m"), Gadget.measurement("L0", "m"), wires=("m",))),
    "undeclared-wire": ("classical-wires", lambda: _with_gadgets(Gadget.measurement("L0", "m"))),
    "unwritten-wire": ("classical-wires", lambda: _with_gadgets(wires=("m",))),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_every_validate_rule_fires_on_a_minimal_malformed_circuit(case):
    rule, build = _MALFORMED[case]
    circuit = build()
    assert validate(circuit)[0].rule == rule
    with pytest.raises(EvaluationError, match=f"invalid circuit: {rule}: "):
        evaluate(circuit)


def _json_kind_circuits():
    """Circuits with every gadget kind and every optional gadget field, and noise
    both as a Kraus form and as a matrix, on a builtin and on a non-builtin code."""
    flip, tilt = readout_flip(2, 0.1), coherent_rotation(WeylOperator.from_label("XII"), 0.1)
    qubit = LogicalCircuit(d=2, registers=block_plus_readout(), classical_wires=("s", "m", "r"), gadgets=(
        Gadget.reset("L0", (0,)),
        Gadget.reset("R0", (0,), noise=readout_rotation(2, 0.2)),
        Gadget.unitary("L0", weyl=BITFLIP.logical_x(0)),
        Gadget.unitary("R0", matrix=fourier_matrix(2), label="F", noise=flip),
        Gadget.syndrome_extraction("L0", 1, "R0", "s", noise=flip, idle_noise=tilt),
        Gadget.idle("L0", ticks=2),
        Gadget.measurement("L0", "m", weyl=BITFLIP.logical_z(0)),
        Gadget.reset("R0", (1,)),
        Gadget.readout_measurement("R0", "r", noise=flip),
    ))
    qutrit = LogicalCircuit(d=3, registers=(one_block(trivial_code(3)),), classical_wires=("m",), gadgets=(
        Gadget.reset("L0", (2,), noise=readout_rotation(3, 0.2)),
        Gadget.measurement("L0", "m"),
    ))
    return [json.loads(serialize(c)) for c in (qubit, qutrit)]


def _json_paths(value, keys=()):
    """The key path of value and of every value inside it; inside a matrix, the first and
    the last item of each list stand for all of them."""
    yield keys
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
        if "matrix" in keys or "kraus" in keys[:-1]:
            items = items[:1] + items[1:][-1:]
    else:
        items = []
    for key, inner in items:
        yield from _json_paths(inner, keys + (key,))


_JSON_CASES = [(data, keys) for data in _json_kind_circuits() for keys in _json_paths(data)]

#: A strategy per JSON kind; ints and floats are one kind.
_JSON_KINDS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=3),
    "list": st.lists(st.integers(0, 2) | st.text(max_size=2) | st.lists(st.floats(0, 1), max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
}


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list", dict: "object"}[type(value)]


def _refusing_path(keys) -> tuple:
    """The key path a refusal names: a code and a matrix are each read as one value."""
    if keys[:1] == ("codes",):
        return keys[:2]
    for cut, key in enumerate(keys):
        if key == "matrix":
            return keys[: cut + 1]
        if key == "kraus":
            return keys[: cut + 2]
    return keys


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(_JSON_CASES), data=st.data())
def test_a_value_of_another_json_kind_is_refused_at_its_path(case, data):
    original, keys = case
    value = original
    for key in keys:
        value = value[key]
    in_matrix = "matrix" in keys or "kraus" in keys

    def canonical(kind):  # complex() accepts a boolean, so in a matrix it is a number
        return "number" if in_matrix and kind == "boolean" else kind

    own = canonical(_json_kind(value))
    kind = data.draw(st.sampled_from([k for k in _JSON_KINDS if canonical(k) != own]))
    replacement = data.draw(_JSON_KINDS[kind])
    changed = copy.deepcopy(original)
    if keys:
        target = changed
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = replacement
    else:
        changed = replacement
    path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in _refusing_path(keys))
    with pytest.raises(SchemaError) as info:
        parse(json.dumps(changed))
    assert re.match(re.escape(path) + "[ :]", str(info.value)), (path, str(info.value))


def test_the_json_kind_circuits_read_back_and_are_well_formed():
    for data in _json_kind_circuits():
        assert validate(circuit_from_dict(data)) == []


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
    """At d = 2, fourier_matrix and the oracle's logical-measurement projectors of
    bitflip3 and phaseflip3 give the bits of the np.exp and matrix_power sums
    that the root table and the Weyl eigenprojector replaced."""
    j, k = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
    old = np.exp(2j * np.pi * j * k / 2) / np.sqrt(2)
    assert np.array_equal(fourier_matrix(2).view(np.float64), old.view(np.float64))
    for code in (BITFLIP, builtin_code("phaseflip3")):
        M = code.logical_z(0).to_matrix()
        pis = [projector_for_syndrome(code, syndrome_of(code, T)) for T in enumerate_pure_errors(code)]
        kraus = logical_measurement_kraus(code, code.logical_z(0))
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


@pytest.mark.parametrize("code_name", ["bitflip3", "qutrit_rep3"])
def test_no_expanded_step_is_a_weyl_of_phase_only(code_name):
    """An extraction whose drawn Weyls are all the identity, a Weyl gadget of phase only
    and a logical measurement restored by a phase expand to no Weyl step with x = z = 0."""
    code = builtin_code(code_name)
    phase = WeylOperator(code.d, (0,) * code.n, (0,) * code.n, 1)
    circuit = LogicalCircuit(
        d=code.d,
        registers=block_plus_readout(code),
        gadgets=(
            Gadget.reset("L0", (0,)),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L0", 0, "R0", "s"),
            Gadget.unitary("L0", weyl=phase),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("s", "m"),
    )
    policy = RandomizationPolicy()
    draws = {c.name: c.values[0] for c in gadget_components(circuit, 2, policy)}  # identities and zeros
    extraction = realize_gadget(circuit, 2, draws, policy)
    drawn = {"enc_twirl", "readout_weyl", "readout_correction", "rc", "post_z", "idle_before", "idle_after"}
    assert drawn <= set(extraction.internal)
    assert all(w.is_identity() for w in extraction.internal.values() if isinstance(w, WeylOperator))
    # A phase-only restore never comes out of the compiler, which drops phase-only layers.
    restored = GadgetInsertions(internal={"restore": phase})
    insertions = (EMPTY_INSERTIONS, EMPTY_INSERTIONS, extraction, EMPTY_INSERTIONS, restored)
    for ideal in (False, True):
        steps = [step for gadget in _instance_steps(circuit, insertions, ideal) for step in gadget]
        assert [step for step in steps if step[0] == "weyl" and step[1].is_identity(ignore_phase=True)] == []
    assert evaluate(circuit, insertions).distribution() == pytest.approx({(0, 0): 1.0})


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
    """Half the identity used to pass validation, and evaluate then summed to 0.5.
    Half a unitary, a Kraus-only channel, is refused from its Kraus form."""
    half_unitary = natural_rep(0.5 * random_unitary(np.random.default_rng(4), 8))
    for lossy in (Superoperator(8, 0.5 * np.eye(64)), half_unitary):
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
    assert not hasattr(lrc.circuits, "embed_operator")
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


def qubit_repetition(n):
    """The n-qubit repetition code: Z_j Z_(j+1) stabilizers, X on every qubit after j
    as pure errors."""
    zero = (0,) * n
    site = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    zz = [tuple(a ^ b for a, b in zip(site[j], site[j + 1])) for j in range(n - 1)]
    after = [tuple(int(i > j) for i in range(n)) for j in range(n - 1)]
    return StabilizerCode(
        d=2,
        n=n,
        k=1,
        stab_gens=tuple(WeylOperator(2, zero, z) for z in zz),
        pure_error_gens=tuple(WeylOperator(2, x, zero) for x in after),
        logical_gens=(WeylOperator(2, (1,) * n, zero), WeylOperator(2, zero, site[0])),
    )


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
    """The dense route above 64 dimensions: its noise has no Kraus form."""
    two = (one_block(), Register(name="L1", kind="logical", qudits=(3, 4, 5), code=BITFLIP))
    flip = stochastic_weyl({WeylOperator.from_label("III"): 0.5, WeylOperator.from_label("XII"): 0.5})
    c = LogicalCircuit(
        d=2,
        registers=two + (Register(name="R0", kind="readout", qudits=(6,)),),
        gadgets=(Gadget.reset("L0", (0,), noise=flip), Gadget.reset("L1", (1,)), Gadget.measurement("L1", "m")),
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
    for cached in (lrc.circuits._logical_measurement_basis,):
        assert isinstance(cached.cache_parameters()["maxsize"], int)


# -- the pure route above 64 dimensions ----------------------------------------


def random_unitary(rng, D):
    return np.linalg.qr(rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)))[0]


def dense_run(circuit, ideal=False):
    """The dense route's result for a circuit without insertions."""
    insertions = [EMPTY_INSERTIONS] * len(circuit.gadgets)
    return CircuitResult(circuit, *lrc.circuits._run(circuit, insertions, ideal, 4096, None, pure=False))


#: d -> codes of its blocks, trivial codes standing in where no small code exists
WIDE_CODES = {
    2: ("bitflip3", "phaseflip3", 2),
    3: ("qutrit_rep3", 2),
    5: (1, 2),
}


@st.composite
def wide_circuits(draw):
    """A valid circuit over d in {2, 3, 5} of 65 to 1024 dimensions: code blocks and
    readout qudits reset, then a random run that entangles a block with a readout
    first: resets of entangled registers, logical and readout measurements,
    extractions, Weyl and two-register matrix gadgets, each with unitary noise or none."""
    d = draw(st.sampled_from((2, 3, 5)))
    name = draw(st.sampled_from(WIDE_CODES[d]))
    code = builtin_code(name) if isinstance(name, str) else trivial_code(d, name)
    sizes = [(b, r) for b in (1, 2, 3) for r in (1, 2) if 65 <= d ** (b * code.n + r) <= 1024]
    n_blocks, n_readouts = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [f"L{b}" for b in range(n_blocks)]
    readouts = [f"R{r}" for r in range(n_readouts)]
    registers = [
        Register(name=b, kind="logical", qudits=tuple(range(i * code.n, (i + 1) * code.n)), code=code)
        for i, b in enumerate(blocks)
    ]
    registers += [
        Register(name=r, kind="readout", qudits=(n_blocks * code.n + i,)) for i, r in enumerate(readouts)
    ]

    def noise(dim):  # superoperators stop at 64 dimensions
        return natural_rep(random_unitary(rng, dim)) if dim <= 64 and draw(st.booleans()) else None

    dit = st.integers(0, d - 1)
    block_dim, ready, D = d**code.n, set(readouts), d ** (n_blocks * code.n + n_readouts)
    # the most pure branches each gadget kind makes of one, a readout reset included
    fanout = dict(entangle=1, weyl=1, reset=block_dim, extract=d * d, readout=d * d)
    fanout["measure"] = d ** (code.n - code.k + 1)
    pure_bound = 1
    gadgets = [Gadget.reset(b, draw(st.lists(dit, min_size=code.k, max_size=code.k))) for b in blocks]
    gadgets += [Gadget.reset(r, (draw(dit),)) for r in readouts]
    wires = []
    for i in range(draw(st.integers(3, 7))):
        wire, block, readout = f"w{i}", draw(st.sampled_from(blocks)), draw(st.sampled_from(readouts))
        kind = draw(st.sampled_from(("entangle", "weyl", "reset", "measure", "extract", "readout"))) if i else "entangle"
        if kind == "extract" and not code.n_generators:
            kind = "entangle"
        # At most 512 pure branches, and 2^22 entries of density matrices on the dense route.
        measuring = kind in ("measure", "extract", "readout")
        if pure_bound * fanout[kind] > 512 or measuring and d ** (len(wires) + 1) * D * D > 2**22:
            kind, measuring = "weyl", False
        pure_bound *= fanout[kind]
        if kind in ("extract", "readout") and readout not in ready:
            gadgets.append(Gadget.reset(readout, (draw(dit),), noise=noise(d)))
        if kind == "entangle":
            matrix = random_unitary(rng, block_dim * d)
            gadgets.append(Gadget.unitary((block, readout), matrix=matrix, noise=noise(block_dim * d)))
        elif kind == "weyl":
            dits = st.lists(dit, min_size=code.n, max_size=code.n)
            weyl = WeylOperator(d, draw(dits), draw(dits), draw(st.integers(0, 2 * d - 1)))
            gadgets.append(Gadget.unitary(block, weyl=weyl, noise=noise(block_dim)))
        elif kind == "reset" and draw(st.booleans()):
            gadgets.append(Gadget.reset(readout, (draw(dit),), noise=noise(d)))
            ready.add(readout)
        elif kind == "reset":
            state = draw(st.lists(dit, min_size=code.k, max_size=code.k))
            gadgets.append(Gadget.reset(block, state, noise=noise(block_dim)))
        elif kind == "measure":
            gadgets.append(Gadget.measurement(block, wire, noise=noise(block_dim)))
        elif kind == "extract":
            generator = draw(st.integers(0, code.n_generators - 1))
            idle = noise(block_dim)
            gadgets.append(Gadget.syndrome_extraction(block, generator, readout, wire, noise(d), idle))
        else:
            gadgets.append(Gadget.readout_measurement(readout, wire, noise=noise(d)))
        if measuring:
            wires.append(wire)
        if kind in ("extract", "readout"):
            ready.discard(readout)
    return LogicalCircuit(d=d, registers=tuple(registers), gadgets=tuple(gadgets), classical_wires=tuple(wires))


def assert_routes_agree(got, want):
    circuit = got.circuit
    assert got.exact and want.exact
    assert all(br.state.shape == (circuit.dim,) for br in got.branches)
    assert len({id(br.record) for br in got.branches}) == len(got.branches)  # classical_add edits them
    dist, ref = got.distribution(), want.distribution()
    assert max(abs(dist.get(k, 0.0) - ref.get(k, 0.0)) for k in set(dist) | set(ref)) <= 1e-12
    table, ref_table = got.branch_table(), want.branch_table()
    for key in set(table) | set(ref_table):
        p, rho = table.get(key, (0.0, 0.0))
        q, sigma = ref_table.get(key, (0.0, 0.0))
        assert np.max(np.abs(p * rho - q * sigma)) <= 1e-12
    assert np.max(np.abs(got.final_state() - want.final_state())) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(circuit=wide_circuits(), ideal=st.booleans())
def test_pure_route_equals_the_dense_route(circuit, ideal):
    assert validate(circuit) == []
    assert_routes_agree(evaluate(circuit, ideal=ideal), dense_run(circuit, ideal))


def test_a_kraus_form_of_several_operators_splits_into_unrecorded_branches():
    kraus = (np.sqrt(0.7) * np.eye(8), np.sqrt(0.3) * WeylOperator.from_label("XII").to_matrix())
    flip = Superoperator(8, sum(np.kron(K.conj(), K) for K in kraus), kraus=kraus)
    idle = natural_rep(random_unitary(np.random.default_rng(6), 8))
    c = LogicalCircuit(
        d=2,
        registers=(one_block(), Register(name="L1", kind="logical", qudits=(3, 4, 5), code=BITFLIP))
        + (Register(name="R0", kind="readout", qudits=(6,)),),
        gadgets=(
            Gadget.reset("L0", (1,), noise=flip),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L0", 0, "R0", "s", idle_noise=idle),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("s", "m"),
    )
    got, want = evaluate(c), dense_run(c)
    assert len(got.branches) > len(want.branches)
    assert_routes_agree(got, want)


def test_noise_without_a_kraus_form_keeps_the_dense_route_and_its_bits():
    flip = readout_flip(2, 0.2)
    assert flip.kraus is None
    c = LogicalCircuit(
        d=2,
        registers=(one_block(), Register(name="L1", kind="logical", qudits=(3, 4, 5), code=BITFLIP))
        + (Register(name="R0", kind="readout", qudits=(6,)),),
        gadgets=(
            Gadget.reset("L0", (1,), noise=coherent_rotation(WeylOperator.from_label("XII"), 0.3)),
            Gadget.reset("L1", (0,)),
            Gadget.reset("R0", (0,)),
            Gadget.syndrome_extraction("L0", 0, "R0", "s", noise=flip),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("s", "m"),
    )
    want = dense_run(fresh_copy(c))
    got = evaluate(c)
    assert all(br.state.shape == (128, 128) for br in got.branches)
    assert_same_result(got, want)


@pytest.mark.parametrize("ideal", [False, True])
def test_registers_up_to_64_dimensions_never_take_the_pure_route(ideal):
    two = (one_block(), Register(name="L1", kind="logical", qudits=(3, 4, 5), code=BITFLIP))
    noise = coherent_rotation(WeylOperator.from_label("XII"), 0.3)
    c = LogicalCircuit(
        d=2,
        registers=two,
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.reset("L1", (1,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    assert c.dim == 64
    res = evaluate(c, ideal=ideal)
    assert all(br.state.shape == (64, 64) for br in res.branches)
    assert res.distribution().get((1,), 0.0) == pytest.approx(0.0 if ideal else np.sin(0.3) ** 2, abs=1e-12)


def extraction_circuit(code, blocks, readouts, seed):
    """Blocks reset, then one extraction per block with unitary readout and idle noise."""
    rng = np.random.default_rng(seed)
    d, n = code.d, code.n
    regs = [Register(f"L{b}", "logical", tuple(range(b * n, (b + 1) * n)), code) for b in range(blocks)]
    regs += [Register(f"R{r}", "readout", (blocks * n + r,)) for r in range(readouts)]
    gadgets = [Gadget.reset(f"L{b}", (b % d,)) for b in range(blocks)]
    for b in range(blocks):
        ro = f"R{b % readouts}"
        gadgets.append(Gadget.reset(ro, (0,)))
        unitary = [natural_rep(random_unitary(rng, dim)) for dim in (d, d**n)]
        gadgets.append(Gadget.syndrome_extraction(f"L{b}", b % code.n_generators, ro, f"s{b}", *unitary))
    wires = tuple(f"s{b}" for b in range(blocks))
    return LogicalCircuit(d=d, registers=tuple(regs), gadgets=tuple(gadgets), classical_wires=wires)


def test_sixteen_thousand_dimensions_past_the_dense_cap():
    """Four bitflip3 blocks and two readouts, D = 2^14: only the pure route runs it."""
    c = extraction_circuit(BITFLIP, 4, 2, seed=3)
    assert c.dim == 16384 > dense_limit()
    res = evaluate(c)
    assert res.exact
    assert abs(sum(res.distribution().values()) - 1.0) <= 1e-12
    assert all(br.state.shape == (16384,) for br in res.branches)
    with pytest.raises(CapacityError, match="dense cap"):
        res.final_state()
    with pytest.raises(CapacityError, match="dense cap"):
        res.branch_table()


def test_kraus_only_noise_above_the_cap_runs():
    """One extraction on the 7-qubit repetition code with 7-qubit coherent idle noise
    (Dk = 128): the pure route applies its Kraus form, and nothing builds its matrix."""
    c = extraction_circuit(qubit_repetition(7), 1, 1, seed=8)
    idle = c.gadgets[-1].idle_noise
    assert c.dim == 256 and idle.dim == 128
    assert validate(c) == []
    got = evaluate(c)
    assert abs(sum(got.distribution().values()) - 1.0) <= 1e-12
    assert_routes_agree(got, dense_run(c))
    assert idle._matrix is None
    cap = "superoperator dimension 128 exceeds the cap 64"
    with pytest.raises(CapacityError, match=cap):
        idle.matrix
    with pytest.raises(CapacityError, match=cap):
        lift_local_superop(idle, range(7), 2, 8)
    with pytest.raises(CapacityError, match="superoperator dimension 256 exceeds the cap 64"):
        instance_channel(CompiledInstance(c, (EMPTY_INSERTIONS,) * len(c.gadgets)))


def test_kraus_only_noise_round_trips_through_circuit_json():
    """The Dk = 128 idle noise is written as its Kraus form, read back bit for bit, and
    its matrix is never built."""
    c = extraction_circuit(qubit_repetition(7), 1, 1, seed=8)
    text = serialize(c)
    again = parse(text)
    assert serialize(again) == text
    for g, h in zip(c.gadgets, again.gadgets, strict=True):
        for a, b in ((g.noise, h.noise), (g.idle_noise, h.idle_noise)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a._matrix is None and b._matrix is None
                assert all(np.array_equal(K, L) for K, L in zip(a.kraus, b.kraus, strict=True))
    assert evaluate(again).distribution() == evaluate(c).distribution()


def test_noise_json_with_both_a_matrix_and_a_kraus_form_is_refused_at_its_path():
    """Validation reads a Kraus form and the small dense route applies the matrix, so a
    channel given both ways could pass as trace-preserving and act as another channel."""
    import json

    circuit = LogicalCircuit(
        d=2,
        registers=(Register("R0", "readout", (0,)),),
        gadgets=(Gadget.reset("R0", (0,)), Gadget.readout_measurement("R0", "m")),
        classical_wires=("m",),
    )
    data = json.loads(serialize(circuit))
    data["gadgets"][1]["noise"] = {
        "dim": 2,
        "matrix": [[[2.0 * (i == j == 0), 0.0] for j in range(4)] for i in range(4)],
        "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    }
    with pytest.raises(SchemaError, match=r"^\$\.gadgets\[1\]\.noise: .*exactly one of a matrix or kraus"):
        circuit_from_dict(data)
    for field in ("matrix", "kraus"):  # either one alone reads
        one = json.loads(json.dumps(data))
        del one["gadgets"][1]["noise"][field]
        assert circuit_from_dict(one).gadgets[1].noise is not None


def reset_and_measure():
    return LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )


@pytest.mark.parametrize(
    "noise,reason",
    [
        ({"dim": 8, "kraus": []}, "a channel needs a matrix or a Kraus form"),
        ({"dim": 8, "matrix": [[[1, 0]]]}, r"superoperator matrix has shape \(1, 1\)"),
        ({"dim": 8, "kraus": [[[[1, 0]]]]}, r"Kraus operator has shape \(1, 1\)"),
    ],
)
def test_noise_json_of_the_wrong_shape_is_refused_at_its_path(noise, reason):
    """A noise object without operators, or with an array of the wrong shape, names its
    path like every other malformed field."""
    data = json.loads(serialize(reset_and_measure()))
    data["gadgets"][1]["noise"] = noise
    with pytest.raises(SchemaError, match=r"^\$\.gadgets\[1\]\.noise: " + reason):
        circuit_from_dict(data)


def _unitary_with_entry(value):
    m = np.eye(8, dtype=complex)
    m[0, 0] = value
    return Gadget.unitary("L0", matrix=m)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)])
def test_a_unitary_matrix_with_an_entry_that_is_not_finite_is_invalid(value):
    """A NaN matrix used to pass validate and evaluate to {} with exact=True, an inf one after
    a RuntimeWarning from M M^dagger, which is no longer formed for it."""
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,)), _unitary_with_entry(value), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    message = "matrix has an entry that is not finite"
    assert [(x.gadget, x.rule, x.message) for x in validate(c)] == [(1, "unitary-realisation", message)]
    with pytest.raises(EvaluationError, match=f"^invalid circuit: unitary-realisation: {message}$"):
        evaluate(c)


def test_serialize_writes_no_value_that_is_not_finite():
    """It used to write the constant NaN, which is not JSON, and parse read it back."""
    c = LogicalCircuit(d=2, registers=(one_block(),), gadgets=(_unitary_with_entry(np.nan),), classical_wires=())
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize(c)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e999", "true", "false"])
@pytest.mark.parametrize(
    "keys,path",
    [(("gadgets", 1, "matrix"), "$.gadgets[1].matrix"), (("gadgets", 0, "noise", "kraus", 0), "$.gadgets[0].noise.kraus[0]")],
)
def test_parse_refuses_a_matrix_entry_that_is_not_a_finite_json_number(keys, path, entry):
    """json reads NaN, Infinity and 1e999 as floats and true as 1; each used to reach the matrix."""
    c = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,), noise=natural_rep(np.eye(8))), Gadget.unitary("L0", matrix=np.eye(8))),
        classical_wires=(),
    )
    data = json.loads(serialize(c))
    target = data
    for key in keys:
        target = target[key]
    target[0][0][0] = "ENTRY"
    text = json.dumps(data).replace('"ENTRY"', entry)
    with pytest.raises(SchemaError) as info:
        parse(text)
    assert str(info.value) == f"{path}: malformed complex matrix (entries must be finite JSON numbers)"


@pytest.mark.parametrize(
    "layer,rule",
    [
        (Gadget.unitary("L0", matrix=np.zeros((8, 8))), "unitary-realisation: matrix is not unitary"),
        (Gadget.unitary("nope", weyl=WeylOperator.from_label("XXX")), "unknown-register: .*'nope'"),
        (Gadget.unitary("L0", matrix=np.eye(4)), r"unitary-realisation: matrix shape \(4, 4\)"),
        (Gadget.unitary("L0", weyl=WeylOperator(3, (1, 0, 0), (0, 0, 0))), "unitary-realisation: weyl does not"),
        (Gadget.unitary("L0", matrix=np.full((8, 8), np.nan)), "unitary-realisation: matrix has an entry that is not"),
    ],
)
def test_an_inserted_layer_is_checked_against_its_circuit(layer, rule):
    """An inserted layer meets the rules of a unitary gadget of the circuit: a zero matrix
    used to evaluate to an empty distribution, the others to a KeyError or numpy's error."""
    c = reset_and_measure()
    insertions = (GadgetInsertions(after=(layer,)), EMPTY_INSERTIONS)
    for _ in range(2):  # a refused record is not cached as expanded
        with pytest.raises(EvaluationError, match=f"^gadget 0: inserted layer: {rule}"):
            evaluate(c, insertions)
    with pytest.raises(EvaluationError, match=f"^gadget 0: inserted layer: {rule}"):
        instance_channel(CompiledInstance(c, insertions))


def test_an_unknown_register_is_named_in_plain_text():
    """validate and an inserted layer print the KeyError's message, not its repr in quotes."""
    want = "unknown-register: no register named 'nope'"
    layer = Gadget.unitary("nope", weyl=WeylOperator.from_label("XXX"))
    assert [f"{diag.rule}: {diag.message}" for diag in validate(_with_gadgets(layer))] == [want]
    with pytest.raises(EvaluationError, match=f"^gadget 0: inserted layer: {re.escape(want)}$"):
        evaluate(reset_and_measure(), (GadgetInsertions(after=(layer,)), EMPTY_INSERTIONS))


def test_validation_and_evaluation_leave_a_unitary_noise_matrix_unbuilt():
    """32-dimensional unitary noise is checked and applied through its Kraus form."""
    noise = natural_rep(random_unitary(np.random.default_rng(9), 32))
    c = LogicalCircuit(
        d=2,
        registers=(one_block(builtin_code("five_one_three")),),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    assert validate(c) == []
    assert abs(sum(evaluate(c).distribution().values()) - 1.0) <= 1e-12
    assert noise._matrix is None


def test_pure_route_branch_limit_raises_then_samples():
    c = extraction_circuit(BITFLIP, 2, 1, seed=5)
    assert c.dim == 128 and len(evaluate(c).branches) > 2
    with pytest.raises(EvaluationError, match="branch limit 2 exceeded"):
        evaluate(c, branch_limit=2)
    res = evaluate(c, branch_limit=2, rng=np.random.default_rng(1))
    assert not res.exact
    assert len(res.branches) <= 2 and sum(br.probability for br in res.branches) == pytest.approx(1.0)
    for br in res.branches:
        assert np.linalg.norm(br.state) == pytest.approx(1.0, abs=1e-12)


def test_pure_branches_are_bounded_by_the_largest_density_matrix(monkeypatch):
    c = extraction_circuit(BITFLIP, 2, 2, seed=4)
    assert c.dim == 256 and len(evaluate(c).branches) > 1
    monkeypatch.setenv("LRC_DENSE_LIMIT", "16")  # 256 entries: one branch of D = 256
    with pytest.raises(CapacityError, match=r"[2-9] pure states of dimension 256 need \d+ bytes"):
        evaluate(c)
    monkeypatch.setenv("LRC_DENSE_LIMIT", "15")
    with pytest.raises(CapacityError, match="1 pure states of dimension 256 need 4096 bytes"):
        evaluate(c)


def test_the_registry_reads_the_gadget_matrix_caches_without_evicting(registry_run_on_one_cpu):
    """Every key `lrc verify --all` reads of fourier_matrix and controlled_weyl stays
    cached: with more keys than the bound, some key would miss twice.  The run cleared
    both caches first, and ran every check in this process."""
    assert registry_run_on_one_cpu.code == 0
    for cached in (fourier_matrix, controlled_weyl):
        info = registry_run_on_one_cpu.cache_info[cached]
        assert 0 < info.misses <= info.maxsize < 64 and info.hits > info.misses


# -- instance_channel against evaluate -----------------------------------------


#: d -> (block code, readout count): two or three registers of at most 32 dimensions,
#: where a superoperator product takes milliseconds (1 s at 64)
CHANNEL_LAYOUTS = {
    2: (("bitflip3", 1), ("phaseflip3", 2), (2, 1)),
    3: ((1, 1), (1, 2), (2, 1)),
    5: ((1, 1),),
}


@st.composite
def channel_instances(draw):
    """One sampled instance of a measurement-free circuit over d in {2, 3, 5}: a block
    and readouts, Weyl gadgets (some logically twirled), matrix gadgets on one or two
    registers and idles, each with unitary, Weyl-mixture or two-operator noise or none."""
    d = draw(st.sampled_from((2, 3, 5)))
    name, n_readouts = draw(st.sampled_from(CHANNEL_LAYOUTS[d]))
    code = builtin_code(name) if isinstance(name, str) else trivial_code(d, name)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    registers = (Register("L0", "logical", tuple(range(code.n)), code),)
    registers += tuple(Register(f"R{r}", "readout", (code.n + r,)) for r in range(n_readouts))
    width = {r.name: len(r.qudits) for r in registers}

    def noise(k):  # a channel on k sites
        kind = draw(st.sampled_from((None, "unitary", "mixture", "kraus")))
        if kind == "unitary":
            return natural_rep(random_unitary(rng, d**k))
        if kind == "mixture":
            basis = list(iter_weyls(d, k))
            return stochastic_weyl(dict(zip((basis[j] for j in rng.choice(len(basis), 3, replace=False)),
                                            rng.dirichlet(np.ones(3)).tolist())))
        if kind == "kraus":
            p = rng.uniform()
            kraus = (np.sqrt(p) * random_unitary(rng, d**k), np.sqrt(1 - p) * random_unitary(rng, d**k))
            return Superoperator(d**k, sum(np.kron(K.conj(), K) for K in kraus), kraus=kraus)
        return None

    gadgets, groups = [], {}
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("weyl", "matrix", "idle")))
        regs = draw(st.lists(st.sampled_from(list(width)), min_size=1, max_size=1 + (kind == "matrix"), unique=True))
        k = sum(width[r] for r in regs)
        if kind == "weyl":
            dits = st.lists(st.integers(0, d - 1), min_size=k, max_size=k)
            weyl = WeylOperator(d, draw(dits), draw(dits), draw(st.integers(0, 2 * d - 1)))
            gadgets.append(Gadget.unitary(regs, weyl=weyl, noise=noise(k)))
            if regs == ["L0"] and draw(st.booleans()):
                groups[i] = TwirlGroupSpec.logical_weyl()
        elif kind == "matrix":
            gadgets.append(Gadget.unitary(regs, matrix=random_unitary(rng, d**k), noise=noise(k)))
        else:
            gadgets.append(Gadget.idle(regs[0], draw(st.integers(1, 2)), noise=noise(k)))
    circuit = LogicalCircuit(d=d, registers=registers, gadgets=tuple(gadgets), classical_wires=())
    policy = RandomizationPolicy(seed=draw(st.integers(0, 2**16)), mode="sampled", samples=1, twirl_groups=groups)
    return next(iter(instantiate(circuit, policy)))


@settings(max_examples=40, deadline=None)
@given(inst=channel_instances(), ideal=st.booleans())
def test_instance_channel_equals_the_evaluator_on_footprints_smaller_than_the_register(inst, ideal):
    """The superoperator interpreter (embed_operator, lift_local_superop) against the
    branch evaluator (site-layout kernels), two independent readings of one step list."""
    D = inst.base.dim
    rho0 = np.zeros((D, D), dtype=complex)
    rho0[0, 0] = 1.0
    got = instance_channel(inst, ideal=ideal)(rho0)
    assert np.max(np.abs(got - inst.evaluate(ideal=ideal).final_state())) <= 1e-12


# -- logical measurement through one basis per (code, W) ---------------------------


def logical_measurement_kraus(code, W):
    """Oracle: per outcome b, the nonzero cospace-refined projectors Pi_s P_b on the
    code block, in pure-error order."""
    spectral = [eigenprojector(W, b) for b in range(code.d)]
    by_outcome = ([pi @ S for _, pi in cospace_table(code).values()] for S in spectral)
    return tuple(tuple(K for K in kraus if np.max(np.abs(K)) >= 1e-14) for kraus in by_outcome)


def measured_weyls(code):
    """Z-bar, X-bar, X-bar Z-bar with the phase that makes its d-th power 1, and the identity."""
    xz = code.logical_x(0).mul(code.logical_z(0))
    xz = next(w for w in map(xz.with_phase_exp, range(2 * code.d)) if (w**code.d).is_identity())
    return (code.logical_z(0), code.logical_x(0), xz, code.identity())


def oracle_codes(d):
    builtins = {2: ("bitflip3", "phaseflip3", "five_one_three"), 3: ("qutrit_rep3",), 5: ()}[d]
    return [builtin_code(name) for name in builtins] + [repetition3(d), trivial_code(d, 2)]


def blocks_of(V, sizes):
    return [V[:, lo:hi] for lo, hi in itertools.pairwise(itertools.accumulate(sizes, initial=0))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_measurement_basis_decodes_like_the_cospace_refined_projectors(data):
    """Every block of outcome b spans the range of one Pi_s P_b, in pure-error order, and
    both routes measure a footprint smaller than the register, in any order, like the
    projector list: the dense kernel's outcomes equal their Kraus sums up to 64
    dimensions, and above them each pure branch equals Pi_s P_b psi."""
    d = data.draw(st.sampled_from((2, 3, 5)))
    code = data.draw(st.sampled_from(oracle_codes(d)))
    W = data.draw(st.sampled_from(measured_weyls(code)))
    basis = lrc.circuits._logical_measurement_basis(code, W)
    kraus = logical_measurement_kraus(code, W)
    assert len(basis) == len(kraus) == d
    total = np.zeros((code.dim, code.dim), dtype=complex)
    for (V, sizes), ops in zip(basis, kraus):
        assert V.flags.c_contiguous and not V.flags.writeable
        assert V.shape == (code.dim, sum(sizes)) and len(sizes) == len(ops)
        assert np.max(np.abs(V.conj().T @ V - np.eye(V.shape[1])), initial=0.0) <= 1e-12
        total += V @ V.conj().T
        for blk, K in zip(blocks_of(V, sizes), ops):
            assert np.max(np.abs(blk @ blk.conj().T - K)) <= 1e-12
    assert np.max(np.abs(total - np.eye(code.dim))) <= 1e-12

    n = code.n + data.draw(st.sampled_from([e for e in (1, 2, 3) if d ** (code.n + e) <= 1024]))
    positions = tuple(data.draw(st.permutations(range(n)))[: code.n])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    D = d**n
    if D <= 64:
        m = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        rho = m @ m.conj().T / np.trace(m @ m.conj().T)
        for got, ops in zip(apply_local_measurement(rho, basis, positions, d, n), kraus, strict=True):
            want = apply_local_kraus(rho, ops, positions, d, n) if ops else np.zeros((D, D))
            assert np.max(np.abs(got - want)) <= 1e-12
    else:
        psi = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
        psi /= np.linalg.norm(psi)
        # every row of a stack of one branch, built unnormalised (weight 1), with its probability
        p, labels, build = lrc.circuits._split_rows(("measure", positions, basis, "m"), psi[None], d, n, True)
        rows = np.arange(p.shape[1])
        got = build(np.zeros_like(rows), rows, np.ones(len(rows)))
        want = [(b, _on_footprint(K, psi, positions)) for b, ops in enumerate(kraus) for K in ops]
        assert list(labels) == [b for b, _ in want]
        for v, q, (_, w) in zip(got, p[0], want, strict=True):
            assert v.shape == psi.shape and np.max(np.abs(v - w)) <= 1e-12
            assert abs(q - np.vdot(w, w).real) <= 1e-12


def test_the_measurement_basis_is_small_and_reads_no_cospace_table():
    """repetition3(5) held 125 projectors of 125 x 125 (31 MB) in one cache entry."""
    code = repetition3(5)
    lrc.circuits._logical_measurement_basis.cache_clear()
    lrc.codes.codespace_projector.cache_clear()
    calls = cospace_table.cache_info()
    tracemalloc.start()
    try:
        basis = lrc.circuits._logical_measurement_basis(code, code.logical_z(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sum(V.nbytes for V, _ in basis) == 16 * code.dim**2
    info = cospace_table.cache_info()
    assert (info.hits, info.misses) == (calls.hits, calls.misses)


def surface_code():
    """The [[9,1,3]] rotated surface code on a 3 x 3 lattice, qubit 3r + c: weight-four
    Z and X plaquettes, weight-two boundary checks, and one-qubit pure errors, each of
    which anticommutes with one check only, the one at its index."""
    return load_code(str(Path(__file__).parent / "data" / "surface_9_1_3.json"))


def test_surface_code_measurement_with_a_readout_qubit():
    """|0-bar> under exp(-i theta X_0), one idle readout qubit (D = 1024), then a logical Z
    measurement: X_0 flips Z-bar and one check, so b = 1 has probability sin^2 theta."""
    theta = 0.3
    code = surface_code()
    assert [syndrome_of(code, T).index(1) for T in code.pure_error_gens] == list(range(8))
    noise = coherent_rotation(WeylOperator.x_op(2, 9, 0), theta)
    c = LogicalCircuit(
        d=2,
        registers=(one_block(code), Register(name="R0", kind="readout", qudits=(9,))),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    assert c.dim == 1024
    start = time.perf_counter()
    tracemalloc.start()
    try:
        dist = evaluate(c).distribution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 3.0
    assert peak < 300 * 2**20
    assert abs(dist[(1,)] - np.sin(theta) ** 2) <= 1e-12
    assert abs(dist[(0,)] - np.cos(theta) ** 2) <= 1e-12


# -- stacked branches against the per-branch route --------------------------------


def two_operator_kraus(rng, dim, matrix):
    """sqrt(q) U_1, sqrt(1 - q) U_2 for random unitaries, with its matrix only if asked."""
    q = rng.uniform(0.2, 0.8)
    kraus = (np.sqrt(q) * random_unitary(rng, dim), np.sqrt(1 - q) * random_unitary(rng, dim))
    return Superoperator(dim, sum(np.kron(K.conj(), K) for K in kraus) if matrix else None, kraus=kraus)


@st.composite
def branching_circuits(draw, pure):
    """A valid circuit over d in {2, 3, 5} of 8 to 64 dimensions, or with ``pure`` of 65 to
    1024: blocks and readouts reset, then a block entangled with a readout, then Weyl and
    matrix gadgets, resets, logical and readout measurements and extractions, each with
    noise or none: unitary, two Kraus operators, or on the dense route a Weyl mixture.
    Half the draws are one compiled instance of it, the other half the bare circuit."""
    d = draw(st.sampled_from((2, 3, 5)))
    lo, hi = (65, 1024) if pure else (8, 64)
    codes = [builtin_code(x) if isinstance(x, str) else trivial_code(d, x) for x in WIDE_CODES[d] + (1,)]
    layouts = [(c, b, r) for c in codes for b in (1, 2, 3) for r in (1, 2) if lo <= d ** (b * c.n + r) <= hi]
    code, n_blocks, n_readouts = draw(st.sampled_from(layouts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, readouts = [f"L{b}" for b in range(n_blocks)], [f"R{r}" for r in range(n_readouts)]
    registers = [Register(b, "logical", tuple(range(i * code.n, (i + 1) * code.n)), code) for i, b in enumerate(blocks)]
    registers += [Register(r, "readout", (n_blocks * code.n + i,)) for i, r in enumerate(readouts)]
    fanout = [1]  # the most branches the pure route can hold so far, at most 512

    def noise(dim):
        kind = draw(st.sampled_from((None, "unitary", "kraus") + (() if pure else ("mixture",))))
        if kind == "unitary" or kind == "kraus" and fanout[0] * 2 > 512 or kind == "mixture" and dim > 64:
            return natural_rep(random_unitary(rng, dim))
        if kind == "kraus":
            fanout[0] *= 2 if pure else 1
            return two_operator_kraus(rng, dim, matrix=dim <= 64 and draw(st.booleans()))
        if kind == "mixture":
            weyls = list(iter_weyls(d, round(np.log(dim) / np.log(d))))
            picked = rng.choice(len(weyls), 2, replace=False)
            return stochastic_weyl(dict(zip((weyls[j] for j in picked), (0.3, 0.7))))
        return None

    dit = st.integers(0, d - 1)
    block_dim, ready = d**code.n, set(readouts)
    gadgets = [Gadget.reset(b, draw(st.lists(dit, min_size=code.k, max_size=code.k))) for b in blocks]
    gadgets += [Gadget.reset(r, (draw(dit),)) for r in readouts]
    wires = []
    for i in range(draw(st.integers(2, 6))):
        wire, block, readout = f"w{i}", draw(st.sampled_from(blocks)), draw(st.sampled_from(readouts))
        kind = draw(st.sampled_from(("entangle", "weyl", "reset", "measure", "extract", "readout"))) if i else "entangle"
        if kind == "extract" and not code.n_generators:
            kind = "entangle"
        split = {"reset": block_dim if pure else 1, "measure": d ** (code.n - code.k + 1), "extract": d, "readout": d}
        if fanout[0] * split.get(kind, 1) > 512 / 4:  # room for two Kraus splits after it
            kind = "weyl"
        fanout[0] *= split.get(kind, 1)
        if kind in ("extract", "readout") and readout not in ready:
            gadgets.append(Gadget.reset(readout, (draw(dit),), noise=noise(d)))
        if kind == "entangle":
            gadgets.append(Gadget.unitary((block, readout), matrix=random_unitary(rng, block_dim * d),
                                          noise=noise(block_dim * d)))
        elif kind == "weyl":
            dits = st.lists(dit, min_size=code.n, max_size=code.n)
            weyl = WeylOperator(d, draw(dits), draw(dits), draw(st.integers(0, 2 * d - 1)))
            gadgets.append(Gadget.unitary(block, weyl=weyl, noise=noise(block_dim)))
        elif kind == "reset":
            gadgets.append(Gadget.reset(block, draw(st.lists(dit, min_size=code.k, max_size=code.k)),
                                        noise=noise(block_dim)))
        elif kind == "measure":
            gadgets.append(Gadget.measurement(block, wire, noise=noise(block_dim)))
        elif kind == "extract":
            generator = draw(st.integers(0, code.n_generators - 1))
            gadgets.append(Gadget.syndrome_extraction(block, generator, readout, wire, noise(d), noise(block_dim)))
        else:
            gadgets.append(Gadget.readout_measurement(readout, wire, noise=noise(d)))
        if kind in ("measure", "extract", "readout"):
            wires.append(wire)
        if kind in ("extract", "readout"):
            ready.discard(readout)
    circuit = LogicalCircuit(d=d, registers=tuple(registers), gadgets=tuple(gadgets), classical_wires=tuple(wires))
    if not draw(st.booleans()):
        return circuit, None
    policy = RandomizationPolicy(seed=draw(st.integers(0, 2**16)), mode="sampled", samples=1)
    return circuit, next(iter(instantiate(circuit, policy))).insertions


@settings(max_examples=40, deadline=None)
@given(drawn=branching_circuits(pure=False), ideal=st.booleans())
def test_stacked_dense_branches_keep_the_bits_of_the_per_branch_route(drawn, ideal):
    """Up to 64 dimensions every branch's state, probability and record, in order, equals
    bit for bit those of the route that walked each step once per branch."""
    circuit, insertions = drawn
    assert validate(circuit) == []
    got = evaluate(circuit, insertions=insertions, ideal=ideal)
    want = evaluate_per_branch(circuit, insertions=insertions, ideal=ideal)
    assert got.stats["route"] == "dense" and got.exact and want.exact
    assert_same_result(got, want)


@settings(max_examples=40, deadline=None)
@given(drawn=branching_circuits(pure=True), ideal=st.booleans())
def test_stacked_pure_branches_agree_with_the_per_branch_route(drawn, ideal):
    """From 65 to 1024 dimensions, with unitary noise and Kraus forms of two operators,
    the branches agree in order with the per-branch route to 1e-12."""
    circuit, insertions = drawn
    assert validate(circuit) == []
    got = evaluate(circuit, insertions=insertions, ideal=ideal)
    want = evaluate_per_branch(circuit, insertions=insertions, ideal=ideal)
    assert got.stats["route"] == "pure" and got.exact and want.exact
    assert [br.record for br in got.branches] == [br.record for br in want.branches]
    for a, b in zip(got.branches, want.branches):
        assert abs(a.probability - b.probability) <= 1e-12
        assert a.state.shape == b.state.shape == (circuit.dim,)
        assert np.max(np.abs(a.state - b.state)) <= 1e-12


def test_stats_name_the_route_the_peak_branch_count_and_the_sampled_splits():
    pure = extraction_circuit(BITFLIP, 2, 1, seed=5)  # D = 128
    exact = evaluate(pure)
    assert exact.stats == {"route": "pure", "peak_branches": len(exact.branches), "fallback_splits": 0}
    sampled = evaluate(pure, branch_limit=2, rng=np.random.default_rng(1))
    assert not sampled.exact and sampled.stats["route"] == "pure"
    assert sampled.stats["fallback_splits"] >= 1 and sampled.stats["peak_branches"] == 2
    dense = LogicalCircuit(
        d=2,
        registers=(one_block(),),
        gadgets=(Gadget.reset("L0", (0,), noise=coherent_rotation(WeylOperator.from_label("XXX"), 0.7)),)
        + tuple(Gadget.measurement("L0", f"m{i}") for i in range(3)),
        classical_wires=("m0", "m1", "m2"),
    )
    res = evaluate(dense, branch_limit=1, rng=np.random.default_rng(4))  # the first measurement samples
    assert res.stats == {"route": "dense", "peak_branches": 1, "fallback_splits": 1}


def surface_rounds(rounds, theta=0.05, readout_theta=0.1):
    """The surface code and one readout qubit (D = 1024): reset to |0-bar>, then rounds of
    eight extractions sharing the readout, under a Z over-rotation of every code qubit,
    passed as one 512 x 512 idle unitary, and an X over-rotation of the readout."""
    code = surface_code()
    z = np.diag(np.exp([-1j * theta, 1j * theta]))
    idle = natural_rep(functools.reduce(np.kron, [z] * 9))
    readout = coherent_rotation(WeylOperator.x_op(2, 1), readout_theta)
    gadgets, wires = [Gadget.reset("L0", (0,))], []
    for r, g in itertools.product(range(rounds), range(8)):
        wires.append(f"s{r}.{g}")
        gadgets += [Gadget.reset("R0", (0,)), Gadget.syndrome_extraction("L0", g, "R0", wires[-1], readout, idle)]
    registers = (one_block(code), Register(name="R0", kind="readout", qudits=(9,)))
    return LogicalCircuit(d=2, registers=registers, gadgets=tuple(gadgets), classical_wires=tuple(wires))


def test_one_surface_code_round_runs_exactly_as_one_stack_of_branches():
    c = surface_rounds(1)
    assert c.dim == 1024
    logical_basis_state(c.registers[0].code, (0,))  # the encoding isometry, built once
    start = time.perf_counter()
    got = evaluate(c)
    assert time.perf_counter() - start < 3.0
    assert got.exact and len(got.branches) == 256
    assert got.stats == {"route": "pure", "peak_branches": 256, "fallback_splits": 0}
    want = evaluate_per_branch(c)
    assert [br.record for br in got.branches] == [br.record for br in want.branches]
    for a, b in zip(got.branches, want.branches):
        assert abs(a.probability - b.probability) <= 1e-12
        assert np.max(np.abs(a.state - b.state)) <= 1e-12


def test_a_split_past_the_memory_bound_is_refused_before_its_rows_exist(monkeypatch):
    """The surface code under a random 512 x 512 unitary, then a logical measurement: all
    512 blocks have weight.  At LRC_DENSE_LIMIT=512 the cached 512 x 512 measurement basis
    and one pure state of D = 1024 fit and 512 states do not, and the split refuses from
    their probabilities alone, tracing under 1 MB where the rows would take 8 MB."""
    noise = natural_rep(random_unitary(np.random.default_rng(2), 512))
    c = LogicalCircuit(
        d=2,
        registers=(one_block(surface_code()), Register(name="R0", kind="readout", qudits=(9,))),
        gadgets=(Gadget.reset("L0", (0,), noise=noise), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    assert len(evaluate(c).branches) == 512  # and the measurement basis is cached
    monkeypatch.setenv("LRC_DENSE_LIMIT", "512")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="512 pure states of dimension 1024 need 8388608 bytes"):
            evaluate(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def readout_after_measurement():
    """bitflip3 under a coherent XXX rotation and one readout, D = 16: the logical
    measurement splits in two."""
    rotation = coherent_rotation(WeylOperator.from_label("XXX"), 0.7)
    return LogicalCircuit(
        d=2,
        registers=(one_block(), Register(name="R0", kind="readout", qudits=(3,))),
        gadgets=(Gadget.reset("L0", (0,), noise=rotation), Gadget.reset("R0", (0,)),
                 Gadget.measurement("L0", "m"), Gadget.readout_measurement("R0", "r")),
        classical_wires=("m", "r"),
    )


def test_a_dense_stack_past_the_memory_budget_is_refused(monkeypatch):
    """At LRC_DENSE_LIMIT=16 one density matrix of D = 16 is the whole budget: a run
    refuses at its first two-row split, and a run resuming from two branches at once."""
    resumed = readout_after_measurement()
    assert evaluate(resumed).stats == {"route": "dense", "peak_branches": 2, "fallback_splits": 0}
    monkeypatch.setenv("LRC_DENSE_LIMIT", "16")
    refusal = r"^2 density matrices of dimension 16 need 8192 bytes, .*\(LRC_DENSE_LIMIT=16 allows 256 "
    for c in (readout_after_measurement(), resumed):
        with pytest.raises(CapacityError, match=refusal):
            evaluate(c)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lrc.codes.codespace_projector(builtin_code("five_one_three")),
        lambda: cospace_table(builtin_code("five_one_three")),
        lambda code=builtin_code("five_one_three"): lrc.circuits._logical_measurement_basis(code, code.logical_z(0)),
        lambda: controlled_weyl(WeylOperator.from_label("XXXX")),
        lambda: fourier_matrix(11),
    ],
    ids=["codespace_projector", "cospace_table", "logical_measurement_basis", "controlled_weyl", "fourier_matrix"],
)
def test_a_cached_array_is_refused_once_the_limit_is_lowered(monkeypatch, call):
    """A bounded cache of dense arrays checks the budget on a hit as on a miss: an array of
    more than 64 entries, cached at the default limit, is refused at LRC_DENSE_LIMIT=8."""
    call()
    monkeypatch.setenv("LRC_DENSE_LIMIT", "8")
    with pytest.raises(CapacityError, match=r"\(LRC_DENSE_LIMIT=8 allows 64 complex entries\)$"):
        call()


@settings(max_examples=30, deadline=None)
@given(pure=st.booleans(), room=st.integers(1, 512), ideal=st.booleans(), data=st.data())
def test_a_run_stays_within_the_memory_budget_or_is_refused(pure, room, ideal, data):
    """Over d in {2, 3} on both routes, at a limit whose budget holds ``room`` branches, the
    peak stack of B branches holds B D (pure) or B D^2 (dense) entries, at most
    LRC_DENSE_LIMIT squared, or the run is refused naming it."""
    circuit, insertions = data.draw(branching_circuits(pure=pure).filter(lambda drawn: drawn[0].d < 5))
    per = circuit.dim if pure else circuit.dim**2
    limit = math.isqrt(room * per)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("LRC_DENSE_LIMIT", str(limit))
        try:
            res = evaluate(circuit, insertions=insertions, ideal=ideal)
        except CapacityError as exc:
            assert "LRC_DENSE_LIMIT" in str(exc)
            return
    assert res.stats["route"] == ("pure" if pure else "dense")
    assert res.stats["peak_branches"] * per <= limit**2


@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_controlled_weyl_gate_is_one_gather_on_the_pure_route(d):
    """controlled_weyl(A) is sum_s A^s (x) |s><s|, and on a stack of pure states its step, which
    carries the one nonzero entry of each row, acts like the product with the matrix."""
    rng = np.random.default_rng(d)
    for _ in range(4):
        A = WeylOperator(d, rng.integers(0, d, 2), rng.integers(0, d, 2), int(rng.integers(0, 2 * d)))
        M = controlled_weyl(A)
        assert np.array_equal(M, sum(np.kron((A**s).to_matrix(), np.diag(np.eye(d)[s])) for s in range(d)))
        positions = tuple(int(q) for q in rng.permutation(4)[:3])
        states = rng.normal(size=(3,) + (d,) * 4) + 1j * rng.normal(size=(3,) + (d,) * 4)
        step = ("gate", positions, M, lrc.circuits._controlled_weyl_rows(A))
        want = _on_footprint(M, states, tuple(q + 1 for q in positions))
        assert np.max(np.abs(lrc.circuits._act(step, states, d, 4, pure=True) - want)) <= 1e-12
