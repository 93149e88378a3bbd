import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lrc.cli import main
from lrc.channels import Superoperator, natural_rep
from lrc.circuits import Gadget, LogicalCircuit, Register, serialize
from lrc.codes import builtin_code, code_to_dict, trivial_code
from lrc.compiler import RandomizationPolicy, instantiate, t_gate_matrix
from lrc.verify import logical_s_gate
from lrc.weyl import WeylOperator
from test_circuits import extraction_circuit, qubit_repetition, random_unitary


@pytest.fixture
def reset_circuit_file(tmp_path):
    code = builtin_code("bitflip3")
    circuit = LogicalCircuit(
        d=2,
        registers=(Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),),
        gadgets=(Gadget.reset("L0", (0,)),),
        classical_wires=(),
    )
    path = tmp_path / "reset.json"
    path.write_text(serialize(circuit))
    return path


def test_verify_single_check(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--check", "theorem1", "--code", "bitflip3", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    assert reports[0]["check"] == "theorem1:bitflip3"
    assert reports[0]["pass"] is True
    assert reports[0]["runtime_ms"] == 0.0
    assert "PASS" in capsys.readouterr().err


def test_verify_unknown_check(capsys):
    assert main(["verify", "--check", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_requires_selection(capsys):
    assert main(["verify"]) == 2


def test_verify_csv_header(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "verify",
            "--check",
            "character_orthogonality",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,pass,value,tolerance,runtime_ms,seed"
    assert len(lines) == 5  # one per builtin code


def test_verify_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify", "--check", "toffoli", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compile_exhaustive_reset(tmp_path, reset_circuit_file):
    out = tmp_path / "instances.json"
    code = main(
        ["compile", "--circuit", str(reset_circuit_file), "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["instances"]) == 4
    assert payload["policy"]["mode"] == "exhaustive"


def test_compile_sampled_deterministic(tmp_path, reset_circuit_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = [
        "compile",
        "--circuit",
        str(reset_circuit_file),
        "--mode",
        "sampled=100",
        "--seed",
        "7",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(json.loads(a.read_text())["instances"]) == 100


def test_compile_invalid_circuit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "codes": {}}')
    assert main(["compile", "--circuit", str(bad)]) == 2
    assert "missing required field" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["sampled=0", "sampled=-3"])
def test_compile_rejects_sampled_mode_without_samples(reset_circuit_file, mode, capsys):
    assert main(["compile", "--circuit", str(reset_circuit_file), "--mode", mode]) == 2
    assert "at least one sample" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["sampled=abc", "sampled=", "sampled", "sampled=2.5", "bogus"])
def test_compile_rejects_a_malformed_mode(reset_circuit_file, mode, capsys):
    assert main(["compile", "--circuit", str(reset_circuit_file), "--mode", mode]) == 2
    assert f"bad --mode {mode!r}; use exhaustive or sampled=N" in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy,message",
    [
        ('{"mode": {"sampled": -2}}', "at least one sample"),
        ('{"twirl_groups": {"0": "bogus"}}', "invalid policy: unknown twirl group kind 'bogus'"),
        ('{"twirl_groups": {"0": "custom"}}', "invalid policy: unknown twirl group kind 'custom'"),
        ('{"default_twirl_group": "bogus"}', "invalid policy: unknown twirl group kind 'bogus'"),
        ('{"toggles": {"stabilizers": "false"}}', "invalid policy: toggles.stabilizers must be true or false"),
        ('{"toggles": {"twirl": 0}}', "invalid policy: toggles.twirl must be true or false, not 0"),
        ('{"stabilizer_registers": "L0"}', "invalid policy: stabilizer_registers must be a list"),
        ('{"stabilizer_registers": [0]}', "invalid policy: stabilizer_registers must be a list"),
        ('{"mode": {"sampled": 2.5}}', "invalid policy: mode.sampled must be an integer, not 2.5"),
        ('{"mode": {"sampled": true}}', "invalid policy: mode.sampled must be an integer, not True"),
        ('{"seed": 2.9}', "invalid policy: seed must be an integer, not 2.9"),
        ('{"exhaustive_cap": true}', "invalid policy: exhaustive_cap must be an integer, not True"),
        ('{"toggles": "off"}', "invalid policy: toggles must be a JSON object, not 'off'"),
        ("[]", "invalid policy: policy must be a JSON object, not []"),
        ('{"twirl_groups": []}', "invalid policy: twirl_groups must be a JSON object, not []"),
        ('{"twirl_groups": {"a": "logical_weyl"}}', "invalid policy: twirl_groups key 'a' is not a gadget index"),
        ('{"toggles": {"stabilisers": false}}', "invalid policy: unknown key 'stabilisers' in toggles"),
        ('{"mode": {"sampled": 2, "x": 1}}', "invalid policy: unknown key 'x' in mode"),
        ('{"mode": []}', "invalid policy: unknown mode []"),
        ('{"sed": 3}', "invalid policy: unknown key 'sed' in policy"),
    ],
    ids=[
        "sampled_negative",
        "bogus_group",
        "custom_group",
        "bogus_default_group",
        "string_toggle",
        "integer_toggle",
        "string_registers",
        "integer_register",
        "sampled_float",
        "sampled_bool",
        "float_seed",
        "bool_cap",
        "string_toggles",
        "list_policy",
        "list_twirl_groups",
        "word_gadget_index",
        "misspelled_toggle",
        "extra_mode_key",
        "list_mode",
        "misspelled_key",
    ],
)
def test_compile_rejects_bad_policy_file(reset_circuit_file, tmp_path, policy, message, capsys):
    path = tmp_path / "p.json"
    path.write_text(policy)
    assert main(["compile", "--circuit", str(reset_circuit_file), "--policy", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_compile_missing_file(capsys):
    assert main(["compile", "--circuit", "/nonexistent/x.json"]) == 2


@pytest.mark.parametrize("command", ["compile", "sample"])
@pytest.mark.parametrize("text", [None, "{not json", '{"schema_version": 1, "codes": {}}'])
def test_compile_and_sample_report_an_unloadable_circuit_alike(tmp_path, command, text, capsys):
    path = tmp_path / "circuit.json"
    if text is not None:
        path.write_text(text)
    assert main([command, "--circuit", str(path)]) == 2
    assert f"cannot load circuit {str(path)!r}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["compile"], ["sample", "--shots", "100"]])
def test_measurement_weyl_whose_dth_power_is_not_the_identity_exits_two(tmp_path, argv, capsys):
    code = builtin_code("bitflip3")
    iz = code.logical_z(0).with_phase_exp(1)  # (iZ)^2 = -1
    circuit = LogicalCircuit(
        d=2,
        registers=(Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m", weyl=iz)),
        classical_wires=("m",),
    )
    path = tmp_path / "iz.json"
    path.write_text(serialize(circuit))
    assert main(argv + ["--circuit", str(path)]) == 2
    assert "measurement-basis" in capsys.readouterr().err


def test_measurement_weyl_of_another_dimension_exits_two(tmp_path, capsys):
    code = builtin_code("bitflip3")
    qutrit_identity = WeylOperator.identity(3, 3)
    circuit = LogicalCircuit(
        d=2,
        registers=(Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m", weyl=qutrit_identity)),
        classical_wires=("m",),
    )
    path = tmp_path / "qutrit_identity.json"
    path.write_text(serialize(circuit))
    assert main(["compile", "--circuit", str(path)]) == 2
    assert "measurement-basis" in capsys.readouterr().err


def test_toffoli_populations(tmp_path):
    out = tmp_path / "toffoli.json"
    code = main(["toffoli", "--delta", "0.1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())[0]
    pops = report["details"]["populations_after"]
    assert pops["0,0"] == pytest.approx(np.cos(0.1) ** 2, abs=1e-10)
    assert pops["1,0"] == pytest.approx(np.sin(0.1) ** 2, abs=1e-10)


def test_toffoli_delta_zero(tmp_path):
    out = tmp_path / "t0.json"
    assert main(["toffoli", "--delta", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())[0]
    assert report["details"]["fidelity_with_target"] == pytest.approx(1.0, abs=1e-12)


def test_toffoli_rejects_bad_delta(capsys):
    assert main(["toffoli", "--delta", "notanumber"]) == 2
    assert main(["toffoli", "--delta", "nan"]) == 2


def test_toffoli_csv_format(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["toffoli", "--delta", "0.1", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,pass,value,tolerance,runtime_ms,seed"
    assert lines[1].startswith("toffoli:delta=0.1")


def test_syndrome_command(tmp_path):
    out = tmp_path / "syn.json"
    assert main(["syndrome", "--rotation", "0.2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())[0]
    conf = np.array(report["details"]["confusion"])
    np.testing.assert_allclose(
        conf, [[np.cos(0.2) ** 2, np.sin(0.2) ** 2], [np.sin(0.2) ** 2, np.cos(0.2) ** 2]], atol=1e-10
    )


def test_syndrome_flip_prob_validation(capsys):
    assert main(["syndrome", "--flip-prob", "1.5"]) == 2


@pytest.mark.parametrize("rotation", ["nan", "inf", "-inf"])
def test_syndrome_rejects_nonfinite_rotation(rotation, capsys):
    assert main(["syndrome", f"--rotation={rotation}"]) == 2
    assert "--rotation must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("generator", ["-1", "99"])
def test_syndrome_generator_out_of_range(generator, capsys):
    assert main(["syndrome", "--code", "bitflip3", "--generator", generator]) == 2
    assert "outside [0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_sample_rejects_nonpositive_shots(shots, capsys):
    assert main(["sample", "--shots", shots]) == 2
    assert "shots must be at least 1" in capsys.readouterr().err


def test_sample_rejects_shots_over_the_memory_budget(capsys):
    # 10**9 shots at two keys would need 4.2e10 B; refused before any allocation.
    start = time.perf_counter()
    assert main(["sample", "--shots", str(10**9)]) == 2
    assert time.perf_counter() - start < 5.0
    assert "1000000000 shots need about 4.20e+10 bytes, over 1.07e+09" in capsys.readouterr().err


def test_sample_command(tmp_path):
    out = tmp_path / "sample.json"
    assert main(["sample", "--shots", "20000", "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())[0]
    assert report["value"] <= report["tolerance"]


def test_sample_runs_a_circuit_file_with_kraus_only_noise_above_the_cap(tmp_path):
    """An unencoded qubit and six readout qubits (D = 128) under an identity gate whose
    noise is a 128-dimensional unitary U: the file holds U as the noise's Kraus form,
    and lrc sample reads it and runs the circuit on the pure route.  Z on qubit 0
    reads 1 with probability sum_(i >= 64) |U[i, 0]|^2."""
    U = random_unitary(np.random.default_rng(8), 128)
    readouts = [f"R{i}" for i in range(6)]
    circuit = LogicalCircuit(
        d=2,
        registers=(Register(name="L0", kind="logical", qudits=(0,), code=trivial_code(2, 1)),)
        + tuple(Register(name=r, kind="readout", qudits=(i + 1,)) for i, r in enumerate(readouts)),
        gadgets=(
            Gadget.unitary(("L0", *readouts), matrix=np.eye(128), noise=natural_rep(U)),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("m",),
    )
    path = tmp_path / "kraus.json"
    path.write_text(serialize(circuit))
    assert sorted(json.loads(path.read_text())["gadgets"][0]["noise"]) == ["dim", "kraus"]
    out = tmp_path / "sample.json"
    assert main(["sample", "--circuit", str(path), "--shots", "1000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())[0]
    assert report["pass"] is True
    p1 = float(np.sum(np.abs(U[64:, 0]) ** 2))
    assert np.max(np.abs(np.array(report["details"]["p_avg"]) - [1 - p1, p1])) <= 1e-12


def test_sample_takes_a_policy_file_with_the_overrides_of_compile(tmp_path, capsys):
    """The extraction circuit of the seven-qubit repetition code (D = 256) has an exhaustive
    draw space of 2^33 instances; a sampled policy runs it on the pure route, and --mode
    and --seed override the file as they do for compile."""
    path, policy, out = tmp_path / "rep7.json", tmp_path / "policy.json", tmp_path / "sample.json"
    path.write_text(serialize(extraction_circuit(qubit_repetition(7), 1, 1, seed=8)))
    assert main(["sample", "--circuit", str(path), "--shots", "100"]) == 2
    assert "exhaustive draw space has 8589934592 instances" in capsys.readouterr().err
    policy.write_text(json.dumps({"seed": 3, "mode": {"sampled": 4}}))
    argv = ["sample", "--circuit", str(path), "--policy", str(policy), "--shots", "1000", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())[0]
    assert report["pass"] is True and report["details"]["compilations"] == 4
    assert main(argv + ["--seed", "9"]) == 0  # the compilations of seed 9, not of the file's 3
    p_avg = json.loads(out.read_text())[0]["details"]["p_avg"]
    policy.write_text(json.dumps({"seed": 9, "mode": {"sampled": 4}}))
    assert main(argv) == 0
    assert json.loads(out.read_text())[0]["details"]["p_avg"] == p_avg != report["details"]["p_avg"]
    assert main(argv + ["--mode", "sampled=2", "--seed", "9"]) == 0
    assert json.loads(out.read_text())[0]["details"]["compilations"] == 2
    assert main(argv + ["--mode", "sampled=x"]) == 2
    assert "bad --mode 'sampled=x'" in capsys.readouterr().err


def test_sample_refuses_noise_that_is_not_trace_preserving(tmp_path, capsys):
    """Half the identity as reset noise used to end in a numpy broadcast error."""
    circuit = LogicalCircuit(
        d=2,
        registers=(Register(name="L0", kind="logical", qudits=(0, 1, 2), code=builtin_code("bitflip3")),),
        gadgets=(
            Gadget.reset("L0", (0,), noise=Superoperator(8, 0.5 * np.eye(64))),
            Gadget.measurement("L0", "m"),
        ),
        classical_wires=("m",),
    )
    path = tmp_path / "lossy.json"
    path.write_text(serialize(circuit))
    assert main(["sample", "--circuit", str(path), "--shots", "100"]) == 2
    assert "noise-trace" in capsys.readouterr().err


def test_syndrome_refuses_a_code_above_the_enumeration_bound(tmp_path):
    """d = 10^7 with n - k = 1 used to hang in W^d and then in the d^(n-k) enumeration."""
    d = 10**7
    path = tmp_path / "huge.json"
    code = {
        "d": d,
        "n": 1,
        "k": 0,
        "stabilizer_generators": [f"0;0;1;{d}"],
        "pure_error_generators": [f"0;1;0;{d}"],
        "logical_generators": [],
    }
    path.write_text(json.dumps(code))
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "lrc.cli", "syndrome", "--code", str(path)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        timeout=30,
    )
    assert run.returncode == 2
    assert "stabilizer group order 10000000 exceeds the enumeration bound" in run.stderr.decode()



def test_compile_refuses_a_logical_group_above_the_enumeration_bound(tmp_path):
    """A logical_weyl twirl on d = 10^7, n = k = 1 used to list all 10^14 logical Weyls."""
    d = 10**7
    code = {
        "d": d,
        "n": 1,
        "k": 1,
        "stabilizer_generators": [],
        "pure_error_generators": [],
        "logical_generators": [f"0;1;0;{d}", f"0;0;1;{d}"],
    }
    circuit = {
        "schema_version": 1,
        "d": d,
        "codes": {"big": code},
        "registers": [{"name": "L0", "kind": "logical", "qudits": [0], "code": "big"}],
        "gadgets": [
            {"kind": "reset", "registers": ["L0"], "state": [0]},
            {"kind": "unitary", "registers": ["L0"], "weyl": f"0;1;0;{d}"},
        ],
        "classical_wires": [],
    }
    policy = {"default_twirl_group": "logical_weyl", "mode": {"sampled": 1}}
    (tmp_path / "circuit.json").write_text(json.dumps(circuit))
    (tmp_path / "policy.json").write_text(json.dumps(policy))
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "lrc.cli", "compile", "--circuit", str(tmp_path / "circuit.json"),
         "--policy", str(tmp_path / "policy.json"), "--out", str(tmp_path / "out.json")],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        timeout=30,
    )
    assert run.returncode == 2
    assert f"logical group order {d**2} exceeds the enumeration bound" in run.stderr.decode()

def test_verify_code_from_file(tmp_path):
    from lrc.codes import code_to_dict

    path = tmp_path / "mycode.json"
    path.write_text(json.dumps(code_to_dict(builtin_code("bitflip3"))))
    out = tmp_path / "rep.json"
    assert main(["verify", "--check", "theorem1", "--code", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())[0]
    assert report["check"] == "theorem1:mycode"


def test_failing_check_exits_one(monkeypatch, tmp_path):
    import lrc.cli as cli_mod
    from lrc.verify import VerificationReport

    def fake(delta, blocks="all", seed=0):
        return VerificationReport(
            check="toffoli", passed=False, value=1.0, tolerance=1e-10, runtime_ms=0.0, seed=seed
        )

    monkeypatch.setattr(cli_mod, "run_toffoli_example", fake)
    assert main(["toffoli", "--delta", "0.1", "--out", str(tmp_path / "t.json")]) == 1


REPO = Path(__file__).resolve().parents[1]

#: One-qutrit code with the single stabilizer Z and no logical qudit.
QUTRIT_CODE = (
    '{"d":3,"n":1,"k":0,"stabilizer_generators":["0;0;1;3"],'
    '"pure_error_generators":["0;1;0;3"],"logical_generators":[]}'
)


def test_verify_all_passes(registry_run):
    assert registry_run.code == 0
    reports = json.loads(registry_run.report)
    assert all(r["pass"] for r in reports)
    names = {r["check"] for r in reports}
    assert "theorem1:five_one_three" in names
    assert "compiled_equals_bare" in names
    assert "sampling_equivalence" in names
    # The report is reproducible byte for byte, rounding residuals included.
    assert registry_run.report == (REPO / "benchmarks/reference/registry_seed7.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["verify", "--check", "measurement_rc"], ["syndrome"], ["syndrome", "--flip-prob", "0.2"]],
    ids=["verify", "syndrome_rotation", "syndrome_flip"],
)
def test_measurement_rc_on_a_qutrit_code_file(tmp_path, argv):
    path = tmp_path / "q.json"
    path.write_text(QUTRIT_CODE)
    out = tmp_path / "rep.json"
    assert main(argv + ["--code", str(path), "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert reports and all(r["pass"] for r in reports)
    for r in reports:
        assert np.array(r["details"]["confusion"]).shape == (3, 3)


def test_syndrome_unknown_code_file(tmp_path, capsys):
    assert main(["syndrome", "--code", str(tmp_path / "missing.json")]) == 2
    assert "unknown code" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (["syndrome"], '{"d": 2}', "code definition lacks the field 'n'"),
        (["verify", "--check", "theorem1"], "[1]", "a code definition must be a JSON object, not [1]"),
    ],
    ids=["syndrome_missing_field", "verify_list"],
)
def test_malformed_code_file_is_reported_as_an_unknown_code(tmp_path, argv, text, message, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(argv + ["--code", str(path)]) == 2
    assert capsys.readouterr().err == f"unknown code {str(path)!r}: {message}\n"


def _two_gadget_circuit(form):
    """Reset, then a logical X on L0 alone or, as a matrix or a Weyl, on L0 and the readout R0."""
    code = builtin_code("bitflip3")
    regs = (Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),)
    xbar = code.logical_x()
    if form == "one_register":
        gate = Gadget.unitary("L0", weyl=xbar)
    else:
        regs += (Register(name="R0", kind="readout", qudits=(3,)),)
        xbar = xbar.tensor(WeylOperator.identity(2, 1))
        gate = Gadget.unitary(("L0", "R0"), **({"weyl": xbar} if form == "weyl" else {"matrix": xbar.to_matrix()}))
    return LogicalCircuit(d=2, registers=regs, gadgets=(Gadget.reset("L0", (0,)), gate), classical_wires=())


_ONE_REGISTER = "a nontrivial twirl group requires a unitary gadget on one logical register"


@pytest.mark.parametrize(
    "form,policy,message",
    [
        ("matrix", '{"twirl_groups": {"1": "logical_weyl"}}', _ONE_REGISTER),
        ("weyl", '{"twirl_groups": {"1": "logical_weyl"}}', _ONE_REGISTER),
        ("one_register", '{"twirl_groups": {"7": "logical_weyl"}}', "twirl_groups key 7 is not the index of a unitary gadget"),
        ("one_register", '{"twirl_groups": {"0": "dihedral"}}', "twirl_groups key 0 is not the index of a unitary gadget"),
        ("one_register", '{"stabilizer_registers": ["L9"]}', "stabilizer_registers names 'L9', not a logical register"),
    ],
    ids=["two_registers_matrix", "two_registers_weyl", "missing_gadget", "reset_gadget", "missing_register"],
)
def test_compile_rejects_a_policy_the_circuit_cannot_take(tmp_path, form, policy, message, capsys):
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text(serialize(_two_gadget_circuit(form)))
    policy_path = tmp_path / "p.json"
    policy_path.write_text(policy)
    argv = ["compile", "--circuit", str(circuit_path), "--policy", str(policy_path)]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"compilation failed: {message}\n"
    policy_path.write_text('{"stabilizer_registers": []}')
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--check", "measurement_rc", "--code", "five_one_three"], "flops"),
        (["syndrome", "--code", "five_one_three"], "flops"),
        (["verify", "--check", "measurement_rc", "--code", "qutrit_rep3"], "exceeds the cap"),
    ],
    ids=["verify_five_one_three", "syndrome_five_one_three", "verify_qutrit_rep3"],
)
def test_extraction_out_of_range_fails_fast(argv, message, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert message in capsys.readouterr().err


def test_theorem1_refuses_a_code_above_the_superoperator_cap_at_once(tmp_path, capsys):
    """The 7-qubit repetition code (D = 128)."""
    path = tmp_path / "rep7.json"
    path.write_text(json.dumps(code_to_dict(qubit_repetition(7))))
    start = time.perf_counter()
    assert main(["verify", "--check", "theorem1", "--code", str(path)]) == 2
    assert time.perf_counter() - start < 5.0
    assert "superoperator dimension 128 exceeds the cap 64" in capsys.readouterr().err


def _pinned_circuit(name):
    """A code name gives every gadget kind with Weyl gadgets only, so the output
    holds no computed floats; ``s_bar`` and ``t`` give matrix-gate streams."""
    if name == "s_bar":
        code = builtin_code("bitflip3")
        reg = Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code)
        gate = Gadget.unitary("L0", matrix=logical_s_gate(code), label="S")
    elif name == "t":
        reg = Register(name="L0", kind="logical", qudits=(0,), code=trivial_code(2, 1))
        gate = Gadget.unitary("L0", matrix=t_gate_matrix(), label="T")
    else:
        code = builtin_code(name)
        return LogicalCircuit(
            d=code.d,
            registers=(
                Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),
                Register(name="R0", kind="readout", qudits=(3,)),
            ),
            gadgets=(
                Gadget.reset("L0", (0,)),
                Gadget.reset("R0", (0,)),
                Gadget.unitary("L0", weyl=code.logical_x()),
                Gadget.idle("L0", ticks=2),
                Gadget.syndrome_extraction("L0", 0, "R0", "s"),
                Gadget.reset("R0", (0,)),
                Gadget.readout_measurement("R0", "r"),
                Gadget.measurement("L0", "m"),
            ),
            classical_wires=("s", "r", "m"),
        )
    return LogicalCircuit(
        d=2,
        registers=(reg,),
        gadgets=(Gadget.reset("L0", (0,)), gate, Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )


_SAMPLED = '"seed": 7, "mode": {"sampled": 24}'
_PINNED_POLICIES = {
    "base": '{%s, "twirl_groups": {"2": "logical_weyl"}}' % _SAMPLED,
    "no_stabilizers": '{%s, "toggles": {"stabilizers": false}}' % _SAMPLED,
    "no_twirl": '{%s, "toggles": {"twirl": false}, "default_twirl_group": "logical_weyl"}' % _SAMPLED,
    "no_measurement_rc": '{%s, "toggles": {"measurement_rc": false}}' % _SAMPLED,
    "no_stabilizer_registers": '{%s, "stabilizer_registers": []}' % _SAMPLED,
    "stabilizer_registers_L0": '{%s, "stabilizer_registers": ["L0"]}' % _SAMPLED,
    "default_logical_weyl": '{%s, "default_twirl_group": "logical_weyl"}' % _SAMPLED,
    "dihedral_exhaustive": '{"seed": 7, "twirl_groups": {"1": "dihedral"}}',
}

#: sha256 of each (circuit, policy) case's output: a compiler change that moves
#: any byte of an instance fails here.
_PINNED = {
    ("bitflip3", "base"): "ab714bdb118b0c0a281803c9ac5e1f5240fd065265c9a805e7ea44931fe729e3",
    ("bitflip3", "no_stabilizers"): "49919d86fb03acb781cf38d2e95a9c59145e95daa6aa760d81dd1a59eeb3fe38",
    ("bitflip3", "no_twirl"): "bd2f2c1a353ae4b6eabb48f053a4b13eaf9ca7a2bbad1c40f76289da3afb2603",
    ("bitflip3", "no_measurement_rc"): "478d1e3cc5685948b1d9f8d15fc1e6a3fa79681edf5fb59fa275f934c22084e1",
    ("bitflip3", "no_stabilizer_registers"): "71d25cf19dc9627c16c926012bafb05584b5a44c0897e85039aed5aedc2ee42c",
    ("bitflip3", "stabilizer_registers_L0"): "720803e8b2cba6e521dbfa79b31c637338534809156e9ff1496d2514cd7f582b",
    ("bitflip3", "default_logical_weyl"): "31ee92c1e9841cff5a1ef652f07d10018c334808638a633b6e05d90d0b1aeb41",
    ("qutrit_rep3", "base"): "12d2a09f1c7f053d8a0db6410bd67ee16f83b93209c3199285377cce35eb9e9d",
    ("qutrit_rep3", "no_stabilizers"): "feec136b2ad70f376dfa98e0f7535cf6454255b5051203c9ab9eb424bff96f4a",
    ("qutrit_rep3", "no_twirl"): "4a326bc75b62b1f3508dd1f0ed742c366b1b524a7359b7c7cbc95936a12338e5",
    ("qutrit_rep3", "no_measurement_rc"): "ef9a3cfcf089d592a44634c9c03e7a16b7508bc7ab2918c21ebd26126ac05dbc",
    ("qutrit_rep3", "no_stabilizer_registers"): "9cf6e2a8bf7469df25f867a86cf0bd2be489eb12d7c4ef166cf021ef084d61a9",
    ("qutrit_rep3", "stabilizer_registers_L0"): "4d4eb296c907a49f49f8c54561205033e0fa293209ffbee91ae3fa9a3539c0ba",
    ("qutrit_rep3", "default_logical_weyl"): "3996d5b8adb1255e6dfbbcd231557c16522f6064422bcb7df4f500c2c7ae5e28",
    ("s_bar", "default_logical_weyl"): "06c5584bcad49854682777458b1502dc289d18fe6dab9421151aa3c3e3517f85",
    ("t", "dihedral_exhaustive"): "81f00261490903498ae71029747eea4ed7fbb18230fc683952568f820fb41f60",
}


@pytest.mark.parametrize("circuit_name,policy_name", list(_PINNED), ids=["-".join(case) for case in _PINNED])
def test_compile_output_is_pinned(tmp_path, circuit_name, policy_name):
    """`lrc compile` output for the Weyl-only circuits, and the instances of the
    matrix-gate streams hashed in process, are pinned byte for byte."""
    circuit = _pinned_circuit(circuit_name)
    policy_text = _PINNED_POLICIES[policy_name]
    if circuit_name in ("s_bar", "t"):
        instances = instantiate(circuit, RandomizationPolicy.from_json(policy_text))
        data = json.dumps([inst.to_dict() for inst in instances], sort_keys=True, separators=(",", ":")).encode()
    else:
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(serialize(circuit))
        policy_path = tmp_path / "p.json"
        policy_path.write_text(policy_text)
        out = tmp_path / "instances.json"
        argv = ["compile", "--circuit", str(circuit_path), "--policy", str(policy_path), "--out", str(out)]
        assert main(argv) == 0
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == _PINNED[circuit_name, policy_name]


def test_sample_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["sample", "--shots", "5000", "--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_registry_report_is_pinned_under_one_and_two_blas_threads():
    """`lrc verify --all --seed 7` prints the recorded reference report byte for
    byte, whether numpy's BLAS runs one thread or two."""
    root = Path(__file__).resolve().parents[1]
    reference = (root / "benchmarks" / "reference" / "registry_seed7.json").read_bytes()
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "lrc.cli", "verify", "--all", "--seed", "7"],
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout == reference, f"the report differs with OPENBLAS_NUM_THREADS={threads}"
