import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from lrc.cli import main
from lrc.circuits import Gadget, LogicalCircuit, Register, serialize
from lrc.codes import builtin_code


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


def test_compile_missing_file(capsys):
    assert main(["compile", "--circuit", "/nonexistent/x.json"]) == 2


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


@pytest.mark.parametrize("generator", ["-1", "99"])
def test_syndrome_generator_out_of_range(generator, capsys):
    assert main(["syndrome", "--code", "bitflip3", "--generator", generator]) == 2
    assert "outside [0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_sample_rejects_nonpositive_shots(shots, capsys):
    assert main(["sample", "--shots", shots]) == 2
    assert "shots must be at least 1" in capsys.readouterr().err


def test_sample_command(tmp_path):
    out = tmp_path / "sample.json"
    assert main(["sample", "--shots", "20000", "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())[0]
    assert report["value"] <= report["tolerance"]


def test_verify_code_from_file(tmp_path):
    from lrc.codes import code_to_json

    path = tmp_path / "mycode.json"
    path.write_text(code_to_json(builtin_code("bitflip3")))
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


def test_verify_all_passes(tmp_path):
    out = tmp_path / "all.json"
    code = main(["verify", "--all", "--seed", "7", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["pass"] for r in reports)
    names = {r["check"] for r in reports}
    assert "theorem1:five_one_three" in names
    assert "compiled_equals_bare" in names
    assert "sampling_equivalence" in names
    # The report is reproducible byte for byte, rounding residuals included.
    assert out.read_bytes() == (REPO / "benchmarks/reference/registry_seed7.json").read_bytes()


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


def test_compile_output_is_pinned(tmp_path):
    """Every gadget kind, Weyl gadgets only, so the output holds no computed floats."""
    code = builtin_code("bitflip3")
    circuit = LogicalCircuit(
        d=2,
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
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text(serialize(circuit))
    policy_path = tmp_path / "p.json"
    policy_path.write_text('{"seed": 7, "mode": {"sampled": 24}, "twirl_groups": {"2": "logical_weyl"}}')
    out = tmp_path / "instances.json"
    argv = ["compile", "--circuit", str(circuit_path), "--policy", str(policy_path), "--out", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ab714bdb118b0c0a281803c9ac5e1f5240fd065265c9a805e7ea44931fe729e3"


def test_sample_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["sample", "--shots", "5000", "--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
