import itertools
import multiprocessing
import multiprocessing.connection
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrc.cli
import lrc.verify
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
    controlled_weyl,
    expand_gadget,
    fourier_matrix,
)
from lrc.codes import (
    StabilizerCode,
    builtin_code,
    code_from_dict,
    enumerate_pure_errors,
    logical_basis_state,
    projector_for_syndrome,
    syndrome_of,
    trivial_code,
)
from lrc.cli import main, reports_to_json
from lrc.compiler import CompileError, RandomizationPolicy, TwirlGroupSpec, gadget_components, realize_gadget
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
    readout_flip,
    readout_rotation,
    run_check,
    run_checks,
    run_toffoli_example,
    stabilizer_average_channel,
    weyl_error_probabilities,
)
from lrc.weyl import DimensionError, WeylOperator
from test_circuits import blocks_of, repetition3

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


def _qudit5_code():
    """A d = 5 code on two qudits (D = 25): stabilizer Z (x) Z^-1, logicals X (x) X and Z (x) I."""
    w = WeylOperator
    return StabilizerCode(
        d=5,
        n=2,
        k=1,
        stab_gens=(w(5, (0, 0), (1, 4)),),
        pure_error_gens=(w(5, (0, 1), (0, 0)),),
        logical_gens=(w(5, (1, 1), (0, 0)), w(5, (0, 0), (1, 0))),
    )


@pytest.mark.parametrize(
    "code",
    [builtin_code(c) for c in ("bitflip3", "phaseflip3", "qutrit_rep3", "five_one_three")]
    + [repetition3(2), repetition3(3), _qudit5_code()],
    ids=["bitflip3", "phaseflip3", "qutrit_rep3", "five_one_three", "rep3_d2", "rep3_d3", "qudit5"],
)
def test_theorem1_checks_pass(code):
    """The row-block comparison passes and reports, to the bit, the largest entry of
    the difference of the two D^2 x D^2 superoperators."""
    rep = check_theorem1(code)
    assert rep.passed, rep.value
    assert rep.value < 1e-12
    oracle = np.max(np.abs(stabilizer_average_channel(code).matrix - cospace_projector_sum(code).matrix))
    assert rep.value == oracle


def test_theorem1_never_holds_a_superoperator():
    # One D^2 x D^2 complex matrix of five_one_three (D = 32) alone is 16.8 MB.
    tracemalloc.start()
    try:
        check_theorem1("five_one_three")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_measurement_rc_averages_as_it_goes():
    """The twirl averages sum their channels as they are built (1 MB each at Df = 16);
    holding them as lists peaked at 24.1 MB."""
    tracemalloc.start()
    try:
        check_measurement_rc("bitflip3", readout_rotation(2, 0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21 * 2**20


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
    for step in expand_gadget(circ, circ.gadgets[0], inst.insertions[0]):
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
    # vec(rho) -> vec(rho (x) |0><0|) and its partial trace back, readout last.
    De, Df = code.dim, code.dim * d
    J = np.zeros((Df**2, De**2))
    R = np.zeros((De**2, Df**2))
    for i in range(De):
        for j in range(De):
            J[(i * d) + Df * (j * d), i + De * j] = 1.0
            for o in range(d):
                R[i + De * j, (i * d + o) + Df * (j * d + o)] = 1.0
    acc = {b: 0.0 for b in range(d)}
    combos = list(itertools.product(*[c.values for c in comps])) or [()]
    for values in combos:
        draws = {c.name: v for c, v in zip(comps, values)}
        ins = realize_gadget(circ, 2, draws, policy)
        add = ins.classical_add.get("s", 0)
        prefix = [(None, identity_channel(d**n))]
        for step in expand_gadget(circ, circ.gadgets[2], ins):
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
                _, positions, bases, _ = step
                if bases is None:  # a site readout: |m><m| on its qudit
                    by_outcome = [(np.outer(e, e),) for e in np.eye(d)]
                else:  # a logical measurement: the projector of each block of the outcome
                    by_outcome = [[b @ b.conj().T for b in blocks_of(V, sizes)] for V, sizes in bases]
                new = []
                for m, projectors in enumerate(by_outcome):
                    for block in projectors:
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


QUTRIT_Z = {
    "d": 3,
    "n": 1,
    "k": 0,
    "stabilizer_generators": ["0;0;1;3"],
    "pure_error_generators": ["0;1;0;3"],
    "logical_generators": [],
}


def test_extraction_rejects_readout_noise_of_another_dimension():
    qutrit_z = code_from_dict(QUTRIT_Z)
    qubit_flip = stochastic_weyl({WeylOperator.identity(2, 1): 0.9, WeylOperator.x_op(2, 1): 0.1})
    with pytest.raises(DimensionError):
        averaged_extraction_channels(qutrit_z, readout_noise=qubit_flip)


def draw_by_draw_extraction(code, readout_noise):
    """averaged_extraction_channels under measurement randomization alone, with the
    measurement block built term by term: each outcome b sums, over the draws
    (x, z, z') in that order, post(x, z') . projector(b + x) . noise . rc(x, z)."""
    d, n, De = code.d, code.n, code.dim
    Df = De * d

    def ro_chan(C):
        return lift_local_superop(C, [n], d, n + 1)

    def weyl_chan(op):
        return natural_rep(op.embed([n], n + 1).to_matrix())

    ident = identity_channel(Df)
    lam = natural_rep(embed_operator(controlled_weyl(code.stab_gens[0]), list(range(n + 1)), d, n + 1))
    F = fourier_matrix(d)
    coupling = compose(ro_chan(natural_rep(F.conj().T)), compose(lam, ro_chan(natural_rep(F))))
    out = {}
    for b in range(d):
        acc = None
        for x, z, zp in itertools.product(range(d), repeat=3):
            proj = np.zeros((d, d))
            proj[(b + x) % d, (b + x) % d] = 1.0
            rc = weyl_chan(WeylOperator(d, (x,), (z,)))
            post = weyl_chan(WeylOperator(d, (0,), (zp,)).mul(WeylOperator(d, (-x,), (0,))))
            term = compose(post, compose(ro_chan(natural_rep(proj)), compose(ro_chan(readout_noise), rc)))
            acc = term if acc is None else Superoperator(Df, acc.matrix + term.matrix)
        measured = Superoperator(Df, acc.matrix / d**3)
        chain = compose(ident, compose(measured, compose(coupling, ident)))
        block = chain.matrix.reshape((De, d) * 4)[..., 0, :, 0]
        out[b] = np.einsum("jaiakl->jikl", block).reshape(De**2, De**2)
    return out


@pytest.mark.parametrize(
    "code",
    [builtin_code("bitflip3"), builtin_code("phaseflip3"), code_from_dict(QUTRIT_Z)],
    ids=["bitflip3", "phaseflip3", "qutrit_z"],
)
@pytest.mark.parametrize("noise", ["rotation", "flip"])
def test_extraction_cascade_keeps_the_bits_of_the_draw_by_draw_sum(code, noise):
    readout_noise = readout_rotation(code.d, 0.2) if noise == "rotation" else readout_flip(code.d, 0.1)
    policy = RandomizationPolicy(stabilizers=False, twirl=False)
    engine = averaged_extraction_channels(code, readout_noise=readout_noise, policy=policy)
    for b, matrix in draw_by_draw_extraction(code, readout_noise).items():
        assert np.array_equal(engine[b].matrix, matrix)


# -- the check runner ------------------------------------------------------------

REFERENCE_REPORT = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "registry_seed7.json"

#: Checks of a few milliseconds each, for runs of many lists.
CHEAP_CHECKS = ("character_orthogonality", "clifford_path", "t_path", "sampling_equivalence")

two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the helper needs a second CPU")


@pytest.fixture
def no_process_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def fake_checks(monkeypatch):
    """Registers fn(seed, code) -> reports under a name, for run_checks and for the CLI."""

    def register(name, fn):
        monkeypatch.setitem(lrc.verify._CHECKS, name, fn)
        monkeypatch.setattr(lrc.cli, "CHECK_NAMES", (*lrc.cli.CHECK_NAMES, name))

    return register


def _raising(message):
    def check(seed, code):
        raise CompileError(message)

    return check


@settings(max_examples=10, deadline=None)
@given(names=st.lists(st.sampled_from(CHEAP_CHECKS), max_size=4))
def test_the_runner_gives_the_bytes_of_one_check_after_another(names):
    """Any list of checks, repeats included, on one process or two."""
    want = reports_to_json([r for name in names for r in run_check(name, 5)])
    assert reports_to_json(run_checks(names, 5)) == want
    assert multiprocessing.active_children() == []


def test_on_one_cpu_the_registry_runs_in_process_to_the_same_bytes(registry_run_on_one_cpu):
    """The instances of theorem2, clifford_path and t_path, which a helper would draw,
    are drawn in this process."""
    assert registry_run_on_one_cpu.code == 0
    assert registry_run_on_one_cpu.report == REFERENCE_REPORT.read_bytes()
    drawing = {"theorem2", "clifford_path", "t_path", "compiled_equals_bare", "sampling_equivalence"}
    assert registry_run_on_one_cpu.drawn.keys() == drawing
    assert multiprocessing.active_children() == []


@two_cpus
def test_the_caller_draws_every_instance_of_the_last_checks(registry_run, registry_run_on_one_cpu):
    """A probe around lrc.verify.instantiate in the calling process, such as the benchmark's
    latency probe, sees all of compiled_equals_bare and sampling_equivalence; theorem2,
    clifford_path and t_path, near the front of the list, are the helper's."""
    assert registry_run.code == 0
    last = {name: registry_run_on_one_cpu.drawn[name] for name in ("compiled_equals_bare", "sampling_equivalence")}
    assert registry_run.drawn == last


@pytest.mark.usefixtures("no_process_left")
def test_the_earliest_failing_check_raises(fake_checks):
    """As in a loop over the names, wherever each check runs."""
    fake_checks("ok", lambda seed, code: [])
    fake_checks("first", _raising("first"))
    fake_checks("second", _raising("second"))
    for names in (["ok", "first", "second"], ["first", "ok", "ok", "second"], ["ok", "ok", "first", "second"]):
        with pytest.raises(CompileError, match="^first$"):
            run_checks(names, 0)


@two_cpus
@pytest.mark.usefixtures("no_process_left")
def test_an_error_in_the_helper_exits_2_with_its_message(fake_checks, capfd):
    """The helper claims the front check: the caller's back check waits until the helper
    has run it, so the error is the helper's.  Only the caller writes to stderr."""
    read, write = os.pipe()
    try:
        def front(seed, code):
            os.write(write, b"x")
            raise CompileError("raised in the helper")

        fake_checks("front", front)
        fake_checks("back", lambda seed, code: os.read(read, 1) and [])
        assert main(["verify", "--check", "front", "--check", "back"]) == 2
    finally:
        os.close(read)
        os.close(write)
    assert capfd.readouterr() == ("", "error: raised in the helper\n")


class _Alarm(BaseException):
    """Like the SIGALRM exception of a wall-time budget, which no ``except Exception`` stops."""


@two_cpus
@pytest.mark.usefixtures("no_process_left")
def test_an_alarm_while_waiting_for_the_helper_ends_it(fake_checks, monkeypatch):
    """The helper would sleep for a minute; an alarm raised while the caller waits for its
    reports ends it at once, and no process is left."""
    read, write = os.pipe()
    try:
        def front(seed, code):
            os.write(write, b"x")
            time.sleep(60)
            return []

        fake_checks("front", front)
        fake_checks("back", lambda seed, code: os.read(read, 1) and [])

        def alarm(self):
            raise _Alarm

        monkeypatch.setattr(multiprocessing.connection.Connection, "recv", alarm)
        start = time.perf_counter()
        with pytest.raises(_Alarm):
            run_checks(["front", "back"], 0)
        assert time.perf_counter() - start < 30
    finally:
        os.close(read)
        os.close(write)
