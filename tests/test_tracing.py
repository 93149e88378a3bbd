"""The per-layer trace of the benchmark patches lrc functions by name; every
traced name must still exist, be replaced while the tracer is installed, and
be restored afterwards."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import lrc.compiler
import lrc.weyl
from lrc.circuits import Gadget, LogicalCircuit, Register
from lrc.codes import builtin_code
from lrc.compiler import RandomizationPolicy, instantiate

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lrc_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracing) -> dict:
    """(layer, name) -> the object currently bound to it."""
    out = {}
    for layer, names in tracing.FUNCTIONS.items():
        owner = lrc.weyl.WeylOperator if layer == "weyl" else sys.modules[f"lrc.{layer}"]
        for name in names + (("run_check",) if layer == "verify" else ()):
            out[(layer, name)] = vars(owner)[name]
    return out


def test_tracer_replaces_and_restores_every_traced_name():
    tracing = _load_tracing()
    before = _traced(tracing)
    with tracing.Tracer().installed():
        during = _traced(tracing)
    after = _traced(tracing)
    for key, original in before.items():
        assert during[key] is not original, key
        assert during[key].__wrapped__ is original, key
        assert after[key] is original, key


def test_tracer_counts_the_instance_stream():
    """instantiate calls gadget_components and realize_gadget through the
    module globals the tracer patches, realize_gadget once per distinct draw
    of a gadget."""
    tracing = _load_tracing()
    code = builtin_code("bitflip3")
    circuit = LogicalCircuit(
        d=2,
        registers=(Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    policy = RandomizationPolicy(mode="sampled", samples=5, seed=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        instances = list(lrc.compiler.instantiate(circuit, policy))
    metrics = tracer.metrics()
    assert len(instances) == metrics["compiler.instances"] == 5
    assert metrics["compiler.instantiate.calls"] == 6  # five instances and the final next()
    assert metrics["compiler.gadget_components.calls"] == 2
    distinct = {(i, tuple(ins.draws.values())) for inst in instances for i, ins in enumerate(inst.insertions)}
    records = {id(ins) for inst in instances for ins in inst.insertions}
    assert metrics["compiler.realize_gadget.calls"] == len(distinct) == len(records) == 8
    assert lrc.compiler.instantiate is instantiate


def test_cold_passes_start_without_tables_or_an_earlier_stream_prefix():
    """clear_caches empties the Weyl gather tables, and a new instance stream
    of the same circuit holds new records, so it never resumes from the
    prefix an earlier stream left; its first evaluation runs every gadget."""
    tracing = _load_tracing()
    lrc.weyl.WeylOperator.from_label("XXX").conjugate_matrix(np.eye(8, dtype=complex))
    assert lrc.weyl._gather_tables.cache_info().currsize > 0
    tracing.clear_caches()
    assert lrc.weyl._gather_tables.cache_info().currsize == 0

    code = builtin_code("bitflip3")
    circuit = LogicalCircuit(
        d=2,
        registers=(Register(name="L0", kind="logical", qudits=(0, 1, 2), code=code),),
        gadgets=(Gadget.reset("L0", (0,)), Gadget.measurement("L0", "m")),
        classical_wires=("m",),
    )
    policy = RandomizationPolicy(mode="sampled", samples=3, seed=1)
    first = list(instantiate(circuit, policy))
    for inst in first + first[:1]:
        inst.evaluate()
    second = list(instantiate(circuit, policy))
    assert second[0].insertions[0] is not first[0].insertions[0]
    assert second[0].insertions[0].draws == first[0].insertions[0].draws
    tracer = tracing.Tracer()
    with tracer.installed():
        second[0].evaluate()
    metrics = tracer.metrics()
    assert metrics["circuits.evaluate.calls"] == metrics["channels.reset_sites.calls"] == 1
