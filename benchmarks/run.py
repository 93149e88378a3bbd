"""Benchmark of lrc: end-to-end metrics per workload, or per-layer metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload registry --seed 7 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all

``--trace 0`` measures the end-to-end metrics with nothing wrapped except a
per-instance clock probe (see workloads.py).  ``--trace 1`` alternates
untraced and traced cold passes, prints every per-layer metric and the
tracing overhead, and writes the spans of the last traced pass to
``.bench_build/lrcbench/``.  Every pass checks its outputs; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics listed in BENCHMARK.json.  The exit code is 0
when every check passed, 1 when one failed or a pass overran its time
budget, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# set-up subprocess, which inherits this environment.
PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse
import contextlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "lrcbench"

DEFAULT_SEED = 7
SETUP_REPEATS = 7
#: Reference samples taken just before and just after each set-up process.
SETUP_SAMPLES = 20
MIN_PASSES = 2

#: Wall-time budget of one pass, about ten times its time on the seed code;
#: the whole run is also held under RUN_BUDGET_S.
PASS_BUDGET_S = {"registry": 50.0, "instance_stream": 60.0, "wide_register": 30.0}
RUN_BUDGET_S = 170.0
SETUP_BUDGET_S = 30.0

SETUP_CHILD = """
import time
start = time.perf_counter()
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from pathlib import Path
import workloads
workloads.build({name!r}, {seed!r}, Path({out!r}), tiny={tiny!r})
print(time.perf_counter() - start)
"""


class BudgetExceeded(BaseException):
    """A pass ran past its wall-time budget.

    Derived from BaseException so that ``lrc.cli.main``'s catch-all handler
    cannot turn it into an ordinary exit code.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@contextlib.contextmanager
def time_budget(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": PINNED_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unavailable' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def setup_seconds(name: str, seed: int, tiny: bool, sampler) -> tuple:
    """Import lrc and build the inputs in a fresh interpreter.

    Returns (seconds at the reference speed, raw seconds); the reference
    work is timed just before and just after the subprocess.
    """
    code = SETUP_CHILD.format(bench=str(BENCH_DIR), src=str(SRC), name=name, seed=seed, out=str(OUT_DIR), tiny=tiny)
    first = len(sampler.factors)
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=SETUP_BUDGET_S
    )
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    raw = float(proc.stdout.split()[-1])
    return raw * sampler.mean_factor(first), raw


class Run:
    """One benchmark invocation: its passes, checks and failures."""

    def __init__(self, name: str, seed: int, seconds: float, tiny: bool, started: float):
        import workloads

        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.started = started
        self.attempted = 0
        self.failures = []
        self.digest = None
        self.work = workloads.build(name, seed, OUT_DIR, tiny=tiny)

    def timed_pass(self, cold: bool, sampler=None):
        """One checked pass under its budget; None once the budget is spent.

        With a speed.Sampler, the pass's times are brought to the reference
        speed and its raw seconds are kept as ``raw_seconds``.
        """
        import tracing

        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        budget = min(PASS_BUDGET_S[self.name], remaining)
        if cold:
            tracing.clear_caches()
        try:
            with time_budget(budget):
                if sampler is None:
                    result = self.work.run_pass()
                    result.raw_seconds = result.seconds
                else:
                    result, first = sampler.measure(lambda: self.work.run_pass(sampler.now))
                    result.raw_seconds = result.seconds
                    result.seconds *= sampler.mean_factor(first)
                    result.latencies_ms = [
                        ms * sampler.factor_during(end - ms / 1e3, end)
                        for ms, end in zip(result.latencies_ms, result.stamps)
                    ]
        except BudgetExceeded:
            self.attempted += 1
            self.failures.append(f"a pass exceeded its {budget:.0f} s wall-time budget")
            return None
        except Exception as exc:  # an exception from lrc is a failed operation
            traceback.print_exc()
            self.attempted += 1
            self.failures.append(f"a pass raised {type(exc).__name__}: {exc}")
            return None
        self.attempted += result.attempted + 1
        self.failures += result.failures
        if self.digest is None:
            self.digest = result.digest
        elif result.digest != self.digest:
            self.failures.append("a pass produced different outputs from the first pass")
        return result


def _median_with_quartiles(values, raw=None) -> tuple:
    q1, med, q3 = quartiles(values)
    detail = f"median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g}"
    if raw:
        detail += f"; raw median {statistics.median(raw):.6g}"
    return med, detail


def measure(run: Run) -> dict:
    """End-to-end metrics: set-up in fresh processes, then alternating
    cold passes (every lru_cache emptied first) and warm passes.  Times are
    at the reference speed of speed.py; the raw medians are printed beside."""
    import speed

    sampler = speed.Sampler()
    stats = {}
    setups = []
    for _ in range(2 if run.tiny else SETUP_REPEATS):
        run.attempted += 1
        try:
            setups.append(setup_seconds(run.name, run.seed, run.tiny, sampler))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            run.failures.append(str(exc))
    if setups:
        stats["setup_s"] = _median_with_quartiles([s for s, _ in setups], [r for _, r in setups])

    cold, warm = [], []
    begin = time.perf_counter()
    while True:
        is_cold = len(cold) <= len(warm)
        result = run.timed_pass(cold=is_cold, sampler=sampler)
        if result is None:
            break
        (cold if is_cold else warm).append(result)
        typical = statistics.median(p.seconds for p in cold + warm)
        enough = min(len(cold), len(warm)) >= MIN_PASSES
        if enough and time.perf_counter() - begin + typical > run.seconds:
            break

    if cold:
        stats["cold_s"] = _median_with_quartiles([p.seconds for p in cold], [p.raw_seconds for p in cold])
    if warm:
        stats["wall_s"] = _median_with_quartiles([p.seconds for p in warm], [p.raw_seconds for p in warm])
        rate, detail = _median_with_quartiles([p.instances / p.seconds for p in warm])
        stats["instances_per_s"] = (rate, detail + f"; {warm[0].instances} instances a pass")
        latencies = [ms for p in warm for ms in p.latencies_ms]
        for q in (50, 99) if latencies else ():
            stats[f"instance_ms.p{q}"] = (percentile(latencies, q), f"{len(latencies)} samples")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    stats["peak_rss_mb"] = (peak, "peak resident set of this process")
    factors = sampler.factors
    q1, med, q3 = quartiles(factors)
    print(
        f"host speed: {len(factors)} reference samples, speed factor median {med:.4g} "
        f"(q1 {q1:.4g}, q3 {q3:.4g}); times below are at the reference speed"
    )
    return stats


def trace(run: Run) -> tuple:
    """Pairs of an untraced and a traced cold pass; per-layer metrics of
    the traced passes and the tracing overhead within each pair."""
    import tracing

    ratios, per_pass = [], []
    begin = time.perf_counter()
    tracer = None
    while True:
        untraced = run.timed_pass(cold=True)
        if untraced is None:
            break
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run.timed_pass(cold=True)
        if traced is None:
            break
        ratios.append(traced.seconds / untraced.seconds)
        per_pass.append(tracer.metrics())
        if time.perf_counter() - begin + untraced.seconds + traced.seconds > run.seconds:
            break
    layer = {}
    if per_pass:
        for key in per_pass[0]:
            layer[key] = statistics.median(m.get(key, 0.0) for m in per_pass)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{run.name}-seed{run.seed}.json")
    overhead = statistics.median(ratios) - 1 if ratios else None
    return layer, overhead, len(ratios)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace_run: bool, tiny: bool = False) -> dict:
    """Run one workload; print its report and return the result object."""
    started = time.perf_counter()
    spec = bench_spec()
    print(f"== lrc benchmark: workload {name}, seed {seed}, trace {int(trace_run)}")
    print("environment: " + json.dumps(environment(name, seed), sort_keys=True))
    run = Run(name, seed, seconds, tiny, started)
    if trace_run:
        import tracing

        layer, overhead, count = trace(run)
        units = tracing.metric_units()
        listed = {m["name"] for m in spec["per_layer"]}
        for key in sorted(layer):
            value = layer[key]
            unit = units.get(key, "ms")
            note = "" if key in listed else "  (printed only: not listed in BENCHMARK.json)"
            if value == 0 and unit in ("s", "ms"):
                note = "  (absent: this workload makes no such call)"
            print(f"{key:48s} = {value!r} {unit}{note}")
        if overhead is not None:
            print(f"tracing overhead: {overhead:+.2%} over the untraced cold pass (median of {count} pairs)")
        wanted, values = spec["per_layer"], layer
    else:
        stats = measure(run)
        wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        for key, (value, detail) in stats.items():
            print(f"{key:16s} = {value!r} {units[key]}  ({detail})")
        values = {k: v[0] for k, v in stats.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    failed = len(run.failures)
    attempted = max(run.attempted, failed, 1)
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} operations)")
    correct = failed == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="registry, instance_stream, wide_register or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lrc" / "__init__.py").is_file():
        print(f"error: no lrc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lrc
    import workloads

    if Path(lrc.__file__).resolve().parent != SRC / "lrc":
        print(f"error: imported lrc from {lrc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        sys.stdout.flush()
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
