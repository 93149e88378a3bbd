"""Inputs and one timed pass for each benchmark workload.

The program under test receives only what ``build`` generates from the
seed: CLI arguments for ``registry``, and circuits, policies and noise for
``instance_stream`` and ``wide_register``.  Every pass checks its own
outputs and returns a digest, so passes (cold, warm, traced) can be
compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lrc.cli
import lrc.verify
from lrc import compiler
from lrc.channels import natural_rep
from lrc.circuits import Gadget, LogicalCircuit, Register
from lrc.codes import builtin_code
from lrc.compiler import RandomizationPolicy, TwirlGroupSpec
from lrc.weyl import WeylOperator

WORKLOADS = ("registry", "instance_stream", "wide_register")

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

#: ``verify --all`` always runs with this seed, the ROADMAP's byte-identical
#: contract.  The registry's work depends on its seed (the instance count of
#: compiled_equals_bare has an interquartile range of 18% of its median over
#: seeds 0-39), so a per-run seed would swamp any code change in the spread.
REGISTRY_SEED = 7

PROB_SUM_TOL = 1e-12
REFERENCE_TOL = 1e-10


@dataclass
class PassResult:
    seconds: float
    latencies_ms: list
    attempted: int
    failures: list
    digest: str
    #: circuit label -> outcome distribution averaged over its instances
    averages: dict = field(default_factory=dict)
    #: the clock's reading at the end of each latency sample
    stamps: list = field(default_factory=list)

    @property
    def instances(self) -> int:
        return len(self.latencies_ms)


@dataclass
class Workload:
    name: str
    seed: int
    tiny: bool
    out_dir: Path
    argv: list = field(default_factory=list)
    #: (label, circuit, policy) triples for the instance workloads
    circuits: list = field(default_factory=list)
    #: instances per pass of each circuit
    sizes: list = field(default_factory=list)

    def run_pass(self, clock=time.perf_counter) -> PassResult:
        """One checked pass, its times read from ``clock`` (in seconds)."""
        if self.name == "registry":
            return _registry_pass(self, clock)
        return _instance_pass(self, clock)


# -- noise ---------------------------------------------------------------------


def _rotation(d: int, which: str, theta: float) -> np.ndarray:
    """exp(-i theta (W + W^dagger)) for the single-qudit shift or clock W."""
    m = (WeylOperator.x_op(d, 1) if which == "x" else WeylOperator.z_op(d, 1)).to_matrix()
    w, v = np.linalg.eigh(m + m.conj().T)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def coherent_noise(rng, d: int, n: int, lo: float = 0.02, hi: float = 0.12):
    """Product over n sites of a random X-type then Z-type coherent rotation."""
    U = np.eye(1, dtype=complex)
    for _ in range(n):
        tx, tz = rng.uniform(lo, hi, size=2)
        U = np.kron(U, _rotation(d, "z", tz) @ _rotation(d, "x", tx))
    return natural_rep(U)


# -- input builders --------------------------------------------------------------


def _twirled_weyl_circuit(rng, code_name: str):
    """Reset, then a twirled logical X, then a logical measurement."""
    code = builtin_code(code_name)
    reg = Register(name="L0", kind="logical", qudits=tuple(range(code.n)), code=code)
    circuit = LogicalCircuit(
        d=code.d,
        registers=(reg,),
        gadgets=(
            Gadget.reset("L0", (0,), noise=coherent_noise(rng, code.d, code.n)),
            Gadget.unitary("L0", weyl=code.logical_x(), noise=coherent_noise(rng, code.d, code.n)),
            Gadget.measurement("L0", "m", noise=coherent_noise(rng, code.d, code.n)),
        ),
        classical_wires=("m",),
    )
    return circuit, {1: TwirlGroupSpec.logical_weyl()}


def _extraction_circuit(rng, code_name: str, blocks: int, readouts: int):
    """Encoded blocks reset, then one compiled syndrome extraction per block.

    With one readout for several blocks, the readout is reset again before
    each extraction.  Readout and idle noise are coherent rotations.
    """
    code = builtin_code(code_name)
    d, n = code.d, code.n
    regs = [
        Register(name=f"L{b}", kind="logical", qudits=tuple(range(b * n, (b + 1) * n)), code=code)
        for b in range(blocks)
    ]
    regs += [Register(name=f"R{r}", kind="readout", qudits=(blocks * n + r,)) for r in range(readouts)]
    gadgets = [Gadget.reset(f"L{b}", (0,)) for b in range(blocks)]
    wires = []
    for b in range(blocks):
        ro = f"R{b % readouts}"
        gadgets.append(Gadget.reset(ro, (0,)))
        gadgets.append(
            Gadget.syndrome_extraction(
                f"L{b}",
                b % code.n_generators,
                ro,
                f"s{b}",
                noise=coherent_noise(rng, d, 1),
                idle_noise=coherent_noise(rng, d, n),
            )
        )
        wires.append(f"s{b}")
    if blocks == 1:
        gadgets.append(Gadget.measurement("L0", "m"))
        wires.append("m")
    return (
        LogicalCircuit(d=d, registers=tuple(regs), gadgets=tuple(gadgets), classical_wires=tuple(wires)),
        {},
    )


# label, builder, sampled instances per pass (0 = exhaustive draw space)
INSTANCE_STREAM = (
    ("bitflip3_weyl", lambda rng: _twirled_weyl_circuit(rng, "bitflip3"), 0),
    ("qutrit_rep3_weyl", lambda rng: _twirled_weyl_circuit(rng, "qutrit_rep3"), 200),
    ("five_one_three_weyl", lambda rng: _twirled_weyl_circuit(rng, "five_one_three"), 100),
    ("bitflip3_extraction", lambda rng: _extraction_circuit(rng, "bitflip3", 1, 1), 300),
)

WIDE_REGISTER = (
    ("qutrit_rep3_readout", lambda rng: _extraction_circuit(rng, "qutrit_rep3", 1, 1), 8),
    ("bitflip3_x2_shared_readout", lambda rng: _extraction_circuit(rng, "bitflip3", 2, 1), 8),
    ("bitflip3_x2_two_readouts", lambda rng: _extraction_circuit(rng, "bitflip3", 2, 2), 8),
)

#: Small registry used by the smoke test of the benchmark itself.
TINY_REGISTRY_CHECKS = ("theorem1", "sampling_equivalence")


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """Generate the workload's inputs from the seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Workload(name, seed, tiny, out_dir)
    if name == "registry":
        checks = ["--check=" + c for c in TINY_REGISTRY_CHECKS] if tiny else ["--all"]
        work.argv = ["verify", *checks, "--seed", str(REGISTRY_SEED), "--out", str(out_dir / "registry-report.json")]
        return work
    rng = np.random.default_rng(seed)
    for label, make, samples in INSTANCE_STREAM if name == "instance_stream" else WIDE_REGISTER:
        circuit, groups = make(rng)
        policy = RandomizationPolicy(seed=int(rng.integers(2**31)), twirl_groups=groups)
        if samples or tiny:
            policy.mode, policy.samples = "sampled", 3 if tiny else samples
        work.circuits.append((label, circuit, policy))
        work.sizes.append(compiler.draw_space_size(circuit, policy) if policy.mode == "exhaustive" else policy.samples)
    return work


# -- passes ------------------------------------------------------------------------


def _registry_pass(work: Workload, clock) -> PassResult:
    """One in-process ``lrc verify`` run with its report checked.

    Per-instance latency is read by a generator probe around the instance
    stream of lrc.verify: the time from a request for an instance to the
    request for the next one, which covers its evaluation and comparison.
    """
    latencies, stamps = [], []
    original = lrc.verify.instantiate

    def probed(*args, **kwargs):
        start = clock()
        for inst in original(*args, **kwargs):
            yield inst
            now = clock()
            latencies.append((now - start) * 1e3)
            stamps.append(now)
            start = now

    out = Path(work.argv[-1])
    out.unlink(missing_ok=True)
    lrc.verify.instantiate = probed
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            start = clock()
            code = lrc.cli.main(list(work.argv))
            seconds = clock() - start
    finally:
        lrc.verify.instantiate = original

    failures = []
    if code != 0:
        failures.append(f"lrc verify exited with {code}")
    report = out.read_bytes() if out.exists() else b""
    try:
        reports = json.loads(report)
    except ValueError:
        reports = []
        failures.append("report is not JSON")
    failures += [f"check {r['check']} failed" for r in reports if not r["pass"]]
    attempted = 2 + len(reports)
    if not work.tiny:
        attempted += 1
        if report != (REFERENCE_DIR / f"registry_seed{REGISTRY_SEED}.json").read_bytes():
            failures.append("report differs from the seed commit's reference")
    digest = hashlib.sha256(report).hexdigest()
    return PassResult(seconds, latencies, attempted, failures, digest, stamps=stamps)


def _instance_pass(work: Workload, clock) -> PassResult:
    """Instantiate and evaluate every compiled instance of every circuit.

    The circuits' instance streams are interleaved evenly: the k-th of a
    circuit's n instances comes at the fraction (k + 1/2) / n of the pass,
    so each circuit's latencies are spread over the whole pass.
    """
    latencies, stamps = [], []
    failures = []
    attempted = 0
    streams = [compiler.instantiate(circuit, policy) for _, circuit, policy in work.circuits]
    sizes = work.sizes
    totals = [{} for _ in streams]
    counts = [0] * len(streams)
    digest = hashlib.sha256()
    due = [(0.5 / n, i) for i, n in enumerate(sizes)]
    heapq.heapify(due)
    start = clock()
    while due:
        _, i = heapq.heappop(due)
        t0 = clock()
        inst = next(streams[i], None)
        if inst is None:
            continue
        result = inst.evaluate()
        t1 = clock()
        latencies.append((t1 - t0) * 1e3)
        stamps.append(t1)
        dist = result.distribution()
        attempted += 1
        keys = sorted(dist)
        probs = np.array([dist[k] for k in keys])
        if not result.exact or abs(probs.sum() - 1.0) > PROB_SUM_TOL or probs.min() < -PROB_SUM_TOL:
            label = work.circuits[i][0]
            failures.append(f"{label} instance {inst.index}: distribution sums to {probs.sum()!r}")
        digest.update(repr(keys).encode())
        digest.update(probs.tobytes())
        total = totals[i]
        for k, p in zip(keys, probs):
            total[k] = total.get(k, 0.0) + p
        counts[i] += 1
        heapq.heappush(due, ((counts[i] + 0.5) / sizes[i], i))
    averages = {
        label: {",".join(map(str, k)): p / count for k, p in sorted(total.items())}
        for (label, _, _), total, count in zip(work.circuits, totals, counts)
    }
    seconds = clock() - start
    reference = _instance_reference(work)
    if reference is not None:
        attempted += len(averages)
        for label, avg in averages.items():
            ref = reference[label]
            keys = set(ref) | set(avg)
            worst = max(abs(avg.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)
            if worst > REFERENCE_TOL:
                failures.append(f"{label}: averaged distribution is {worst:.3e} from the reference")
    return PassResult(seconds, latencies, attempted, failures, digest.hexdigest(), averages, stamps)


def _instance_reference(work: Workload):
    path = REFERENCE_DIR / f"{work.name}_seed{work.seed}.json"
    if work.tiny or not path.exists():
        return None
    return json.loads(path.read_text())
