import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrc.channels
import lrc.circuits
from lrc.channels import (
    apply_local_measurement,
    coherent_rotation,
    embed_operator,
    identity_channel,
    natural_rep,
    partial_trace,
)
from lrc.codes import StabilizerCode, builtin_code, logical_basis_state, syndrome_of, trivial_code
from lrc.circuits import (
    EvaluationError,
    Gadget,
    GadgetInsertions,
    Layer,
    LogicalCircuit,
    Register,
    SchemaError,
    circuit_from_dict,
    controlled_weyl,
    evaluate,
    fourier_matrix,
    ideal_channel,
    parse,
    serialize,
    validate,
)
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
    got = ideal_channel(c)
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
    result = ideal_channel(c)
    one = logical_basis_state(BITFLIP, (1,))
    fid = np.real(one.conj() @ result.final_state() @ one)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_ideal_toffoli_maps_111_to_110():
    res = ideal_channel(toffoli_circuit(0.0))
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
        assert dist == pytest.approx({tuple(syn.dits): 1.0})


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
    assert dist == pytest.approx({(syndrome_of(code, err).dits[0],): 1.0})


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
    from lrc.codes import cospace_projector

    p_i = cospace_projector(BITFLIP, BITFLIP.identity())
    p_x = cospace_projector(BITFLIP, WeylOperator.from_label("XII"))
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
            before=(Layer(("L0",), weyl=WeylOperator.from_label("XXX")),),
            classical_add={"m": 1},
        ),
    ]
    # X-bar flips the raw outcome to 1, the classical correction restores 0.
    res = evaluate(c, insertions=ins, classical_post={"m": 1})
    assert res.distribution() == pytest.approx({(0,): 1.0})


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
