"""Smoke test of the benchmark itself: a tiny pass of each workload.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import lrc.circuits  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _patchable_names():
    owners = list(tracing.MODULES) + [lrc.weyl.WeylOperator]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_reports_every_metric(name, trace):
    original_evaluate = lrc.circuits.evaluate
    before = _patchable_names()

    result = run.run_workload(name, seed=7, seconds=0.1, trace_run=trace, tiny=True)

    wanted = run.bench_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert lrc.circuits.evaluate is original_evaluate
    after = _patchable_names()
    assert all(after[key] is value for key, value in before.items())
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["correct"]
