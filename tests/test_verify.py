import numpy as np
import pytest

from lrc.channels import (
    Superoperator,
    average,
    coherent_rotation,
    compose,
    embed_operator,
    identity_channel,
    is_trace_preserving,
    lift_local_superop,
    natural_rep,
    stochastic_weyl,
)
from lrc.circuits import (
    Gadget,
    LogicalCircuit,
    Register,
    expand_gadget,
)
from lrc.codes import (
    builtin_code,
    code_from_json,
    enumerate_pure_errors,
    logical_basis_state,
    projector_for_syndrome,
    syndrome_of,
    trivial_code,
)
from lrc.compiler import RandomizationPolicy, TwirlGroupSpec, gadget_components, realize_gadget
from lrc.verify import (
    averaged_extraction_channels,
    check_character_orthogonality,
    check_clifford_path,
    check_compiled_equals_bare,
    check_measurement_rc,
    check_sampling_equivalence,
    check_t_path,
    check_theorem1,
    check_theorem2,
    check_theorem2_suite,
    coherence_metrics,
    cospace_projector_sum,
    derive_seed,
    instance_channel,
    run_toffoli_example,
    stabilizer_average_channel,
    weyl_error_probabilities,
)
from lrc.weyl import DimensionError, WeylOperator

BITFLIP = builtin_code("bitflip3")


# -- coherence metrics -----------------------------------------------------------


def test_coherence_metrics_codeword():
    rho = np.outer(*(2 * [logical_basis_state(BITFLIP, (0,))]))
    rep = coherence_metrics(rho, BITFLIP)
    assert rep.inter_cospace == pytest.approx(0.0, abs=1e-14)
    assert rep.intra_cospace == pytest.approx(0.0, abs=1e-14)
    assert rep.populations[syndrome_of(BITFLIP, BITFLIP.identity())] == pytest.approx(1.0)


def test_coherence_metrics_overrotation_values():
    delta = 0.1
    zero = logical_basis_state(BITFLIP, (0,))
    xii = WeylOperator.from_label("XII")
    psi = np.cos(delta) * zero - 1j * np.sin(delta) * xii.apply_to_vector(zero)
    rep = coherence_metrics(np.outer(psi, psi.conj()), BITFLIP)
    assert sum(rep.populations.values()) == pytest.approx(1.0, abs=1e-10)
    # two ordered off-diagonal blocks, each of norm |cos sin|
    assert rep.inter_cospace == pytest.approx(2 * np.cos(delta) * np.sin(delta), abs=1e-12)
    assert rep.populations[syndrome_of(BITFLIP, BITFLIP.identity())] == pytest.approx(
        np.cos(delta) ** 2, abs=1e-12
    )
    assert rep.populations[syndrome_of(BITFLIP, xii)] == pytest.approx(
        np.sin(delta) ** 2, abs=1e-12
    )


def test_coherence_metrics_block_diagonal_state():
    delta = 0.4
    zero = logical_basis_state(BITFLIP, (0,))
    xii = WeylOperator.from_label("XII")
    psi = np.cos(delta) * zero - 1j * np.sin(delta) * xii.apply_to_vector(zero)
    rho = np.outer(psi, psi.conj())
    blocked = sum(
        projector_for_syndrome(BITFLIP, syndrome_of(BITFLIP, t))
        @ rho
        @ projector_for_syndrome(BITFLIP, syndrome_of(BITFLIP, t))
        for t in enumerate_pure_errors(BITFLIP)
    )
    rep = coherence_metrics(blocked, BITFLIP)
    assert rep.inter_cospace == pytest.approx(0.0, abs=1e-12)


def test_coherence_metrics_logical_rotation_is_intra():
    theta = 0.3
    zero = logical_basis_state(BITFLIP, (0,))
    xbar = WeylOperator.from_label("XXX")
    psi = np.cos(theta) * zero - 1j * np.sin(theta) * xbar.apply_to_vector(zero)
    rep = coherence_metrics(np.outer(psi, psi.conj()), BITFLIP)
    assert rep.inter_cospace == pytest.approx(0.0, abs=1e-12)
    assert rep.intra_cospace > 0.2


# -- theorem 1 and character orthogonality ---------------------------------------


@pytest.mark.parametrize("name", ["bitflip3", "phaseflip3", "qutrit_rep3", "five_one_three"])
def test_theorem1_checks_pass(name):
    rep = check_theorem1(name)
    assert rep.passed, rep.value
    assert rep.value < 1e-12


def test_theorem1_trivial_code():
    code = trivial_code(2, 2)
    lhs = stabilizer_average_channel(code)
    rhs = cospace_projector_sum(code)
    np.testing.assert_allclose(lhs.matrix, np.eye(16), atol=1e-14)
    np.testing.assert_allclose(rhs.matrix, np.eye(16), atol=1e-14)


@pytest.mark.parametrize("name", ["bitflip3", "phaseflip3", "qutrit_rep3", "five_one_three"])
def test_character_orthogonality_exact(name):
    rep = check_character_orthogonality(name)
    assert rep.passed
    assert rep.value == 0.0


def test_projection_idempotence():
    for name in ("bitflip3", "qutrit_rep3"):
        proj = cospace_projector_sum(builtin_code(name))
        assert np.max(np.abs(compose(proj, proj).matrix - proj.matrix)) < 1e-12


def test_stabilizer_sandwich_realisation():
    # Averaging an inserted stabilizer at a fixed location equals composing
    # the cospace projector sum there.
    code = BITFLIP
    rng = np.random.default_rng(8)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    before = natural_rep(np.linalg.qr(m)[0])
    after = coherent_rotation(WeylOperator.from_label("XII"), 0.2)
    from lrc.codes import enumerate_stabilizers

    sandwiched = average(
        [
            compose(after, compose(natural_rep(s), before))
            for s in enumerate_stabilizers(code)
        ]
    )
    direct = compose(after, compose(cospace_projector_sum(code), before))
    assert np.max(np.abs(sandwiched.matrix - direct.matrix)) < 1e-10


# -- theorem 2 and the twirl paths -----------------------------------------------


def test_theorem2_identity_noise():
    code = BITFLIP
    rep = check_theorem2(
        code.logical_x(), identity_channel(8), TwirlGroupSpec.logical_weyl(), code
    )
    assert rep.passed and rep.value < 1e-12


def test_theorem2_suite_passes():
    rep = check_theorem2_suite(seed=5, noise_draws=4)
    assert rep.passed, rep.value


def test_clifford_path_logical_diagonal():
    rep = check_clifford_path(seed=3, noise_draws=3)
    assert rep.passed, rep.value


def test_t_path_px_equals_py():
    rep = check_t_path(seed=3, noise_draws=3)
    assert rep.passed, rep.value
    for px, py in rep.details["px_py"]:
        assert abs(px - py) < 1e-10


def test_weyl_error_probabilities_roundtrip():
    probs = {
        WeylOperator.identity(2, 1): 0.7,
        WeylOperator.from_label("X"): 0.1,
        WeylOperator.from_label("Y"): 0.1,
        WeylOperator.from_label("Z"): 0.1,
    }
    from lrc.channels import weyl_transfer_matrix

    R = weyl_transfer_matrix(stochastic_weyl(probs), 2, 1)
    out = weyl_error_probabilities(R, 2, 1)
    for op, p in probs.items():
        match = [v for k, v in out.items() if k.same_xz(op)]
        assert match[0] == pytest.approx(p, abs=1e-12)


def test_instance_channel_matches_evaluator():
    code = BITFLIP
    noise = coherent_rotation(WeylOperator.from_label("ZII"), 0.25)
    reg = Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code)
    circ = LogicalCircuit(
        d=2,
        registers=(reg,),
        gadgets=(Gadget.unitary("L0", weyl=code.logical_x(), noise=noise),),
        classical_wires=(),
    )
    from lrc.compiler import instantiate

    policy = RandomizationPolicy(twirl_groups={0: TwirlGroupSpec.logical_weyl()})
    inst = next(iter(instantiate(circ, policy)))
    chan = instance_channel(inst)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    # oracle: run the dense steps by hand
    expect = rho.copy()
    for step in expand_gadget(circ, circ.gadgets[0], inst.insertions[0], ideal=False):
        if step[0] == "weyl":
            expect = step[1].conjugate_matrix(expect)
        elif step[0] == "gate":
            U = embed_operator(step[2], step[1], 2, 3)
            expect = U @ expect @ U.conj().T
        else:
            from lrc.channels import apply_local_channel

            expect = apply_local_channel(expect, step[2], step[1], 2, 3)
    np.testing.assert_allclose(chan(rho), expect, atol=1e-12)


# -- Toffoli example --------------------------------------------------------------


def test_toffoli_delta_zero():
    rep = run_toffoli_example(0.0)
    assert rep.passed
    assert rep.details["fidelity_with_target"] == pytest.approx(1.0, abs=1e-12)


def test_toffoli_delta_point_one():
    rep = run_toffoli_example(0.1, blocks="all")
    assert rep.passed, rep.details
    assert rep.details["inter_cospace_before"] > 0.19
    assert rep.details["inter_cospace_after"] < 1e-10
    pops = rep.details["populations_after"]
    assert pops["0,0"] == pytest.approx(np.cos(0.1) ** 2, abs=1e-10)
    assert pops["1,0"] == pytest.approx(np.sin(0.1) ** 2, abs=1e-10)


def test_toffoli_third_block_matches_all_blocks():
    all_blocks = run_toffoli_example(0.1, blocks="all")
    third = run_toffoli_example(0.1, blocks="third")
    assert third.passed
    assert abs(
        all_blocks.details["inter_cospace_after"] - third.details["inter_cospace_after"]
    ) < 1e-10
    for key, val in all_blocks.details["populations_after"].items():
        assert third.details["populations_after"][key] == pytest.approx(val, abs=1e-10)


# -- measurement randomization -----------------------------------------------------


def extraction_circuit(code=BITFLIP, generator=0, noise=None, idle_noise=None):
    regs = (
        Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code),
        Register(name="R0", kind="readout", qudits=(code.n,)),
    )
    gadgets = (
        Gadget.reset("L0", (0,)),
        Gadget.reset("R0", (0,)),
        Gadget.syndrome_extraction(
            "L0", generator, "R0", "s", noise=noise, idle_noise=idle_noise
        ),
    )
    return LogicalCircuit(d=code.d, registers=regs, gadgets=gadgets, classical_wires=("s",))


def brute_force_extraction_channels(code, policy, noise=None, idle_noise=None, generator=0):
    """Oracle: enumerate the extraction gadget's draw space instance by
    instance and average the conditioned step-product channels."""
    import itertools

    circ = extraction_circuit(code, generator, noise, idle_noise)
    d = code.d
    n = code.n + 1
    comps = gadget_components(circ, 2, policy)
    from lrc.verify import _inject_readout, _trace_readout

    J = _inject_readout(code.dim, d)
    R = _trace_readout(code.dim, d)
    acc = {b: 0.0 for b in range(d)}
    combos = list(itertools.product(*[c.values for c in comps])) or [()]
    for values in combos:
        draws = {c.name: v for c, v in zip(comps, values)}
        ins = realize_gadget(circ, 2, draws, policy)
        add = ins.classical_add.get("s", 0)
        prefix = [(None, identity_channel(d**n))]
        for step in expand_gadget(circ, circ.gadgets[2], ins, ideal=False):
            if step[0] == "weyl":
                term = natural_rep(step[1].to_matrix())
                prefix = [(m, compose(term, p)) for m, p in prefix]
            elif step[0] == "gate":
                term = natural_rep(embed_operator(step[2], step[1], d, n))
                prefix = [(m, compose(term, p)) for m, p in prefix]
            elif step[0] == "channel":
                term = lift_local_superop(step[2], step[1], d, n)
                prefix = [(m, compose(term, p)) for m, p in prefix]
            elif step[0] == "measure":
                _, positions, kraus_by_outcome, _ = step
                if kraus_by_outcome is None:  # a site readout: |m><m| on its qudit
                    kraus_by_outcome = [(np.outer(e, e),) for e in np.eye(d)]
                new = []
                for m, (block,) in enumerate(kraus_by_outcome):
                    proj = natural_rep(embed_operator(block, positions, d, n))
                    new.extend((m, compose(proj, p)) for _, p in prefix)
                prefix = new
        for m, chain in prefix:
            b = (m + add) % d
            acc[b] = acc[b] + R @ chain.matrix @ J / len(combos)
    return {b: Superoperator(code.dim, m) for b, m in acc.items()}


@pytest.mark.parametrize(
    "toggles",
    [
        dict(stabilizers=True, twirl=False, measurement_rc=False),
        dict(stabilizers=False, twirl=True, measurement_rc=False),
        dict(stabilizers=False, twirl=False, measurement_rc=True),
        dict(stabilizers=False, twirl=False, measurement_rc=False),
    ],
)
def test_extraction_engine_matches_brute_force(toggles):
    policy = RandomizationPolicy(**toggles)
    noise = coherent_rotation(WeylOperator.x_op(2, 1), 0.2)
    idle = coherent_rotation(WeylOperator.from_label("ZII"), 0.15)
    engine = averaged_extraction_channels(
        BITFLIP, readout_noise=noise, idle_noise=idle, policy=policy
    )
    brute = brute_force_extraction_channels(BITFLIP, policy, noise=noise, idle_noise=idle)
    for b in range(2):
        assert np.max(np.abs(engine[b].matrix - brute[b].matrix)) < 1e-11


def test_measurement_rc_no_noise_identity_confusion():
    rep = check_measurement_rc("bitflip3", readout_noise=None)
    assert rep.passed, rep.value
    np.testing.assert_allclose(rep.details["confusion"], np.eye(2), atol=1e-10)


def test_measurement_rc_stochastic_flip():
    noise = stochastic_weyl(
        {WeylOperator.identity(2, 1): 0.9, WeylOperator.x_op(2, 1): 0.1}
    )
    rep = check_measurement_rc("bitflip3", readout_noise=noise)
    assert rep.passed, rep.value
    np.testing.assert_allclose(
        rep.details["confusion"], [[0.9, 0.1], [0.1, 0.9]], atol=1e-10
    )


def test_measurement_rc_coherent_rotation():
    theta = 0.2
    rep = check_measurement_rc(
        "bitflip3", readout_noise=coherent_rotation(WeylOperator.x_op(2, 1), theta)
    )
    assert rep.passed, rep.value
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    np.testing.assert_allclose(
        rep.details["confusion"], [[c2, s2], [s2, c2]], atol=1e-10
    )


def test_extraction_channels_trace_preserving():
    channels = averaged_extraction_channels(
        BITFLIP, readout_noise=coherent_rotation(WeylOperator.x_op(2, 1), 0.2)
    )
    total = Superoperator(8, sum(c.matrix for c in channels.values()))
    assert is_trace_preserving(total)


# -- compiled equals bare and sampling ---------------------------------------------


def test_compiled_equals_bare_smoke():
    rep = check_compiled_equals_bare(seed=7, n_circuits=12)
    assert rep.passed, rep.value
    assert rep.details["instances_checked"] > 0


def test_sampling_equivalence_within_bound():
    rep = check_sampling_equivalence(shots=20000, seed=11)
    assert rep.passed
    assert rep.value <= rep.tolerance


def test_sampling_equivalence_deterministic_circuit():
    code = BITFLIP
    reg = Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code)
    circ = LogicalCircuit(
        d=2,
        registers=(reg,),
        gadgets=(Gadget.reset("L0", (1,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    rep = check_sampling_equivalence(circ, shots=5000, seed=2)
    assert rep.value == 0.0


def test_sampling_equivalence_seed_stable():
    a = check_sampling_equivalence(shots=5000, seed=3)
    b = check_sampling_equivalence(shots=5000, seed=3)
    assert a.value == b.value
    assert a.details == b.details


def test_two_point_mixture_matches_average_formula():
    # Hand-built pair of compilations with distinct outcome distributions.
    p0 = np.array([0.9, 0.1])
    p1 = np.array([0.3, 0.7])
    rng = np.random.default_rng(5)
    shots = 200000
    comp = rng.integers(2, size=shots)
    us = rng.random(shots)
    outcome = np.where(comp == 0, us > p0[0], us > p1[0]).astype(int)
    empirical = np.bincount(outcome, minlength=2) / shots
    p_avg = (p0 + p1) / 2
    assert 0.5 * np.abs(empirical - p_avg).sum() < 3 * np.sqrt(2 / shots)


def test_derive_seed_stable():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_extraction_rejects_readout_noise_of_another_dimension():
    qutrit_z = code_from_json(
        '{"d":3,"n":1,"k":0,"stabilizer_generators":["0;0;1;3"],'
        '"pure_error_generators":["0;1;0;3"],"logical_generators":[]}'
    )
    qubit_flip = stochastic_weyl({WeylOperator.identity(2, 1): 0.9, WeylOperator.x_op(2, 1): 0.1})
    with pytest.raises(DimensionError):
        averaged_extraction_channels(qutrit_z, readout_noise=qubit_flip)
