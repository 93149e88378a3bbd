"""Command-line front end.

Commands: verify, compile, toffoli, syndrome, sample.  Every command takes
a master seed (default 271828) from which all randomness derives, so equal
invocations produce byte-identical output files.  Wall-clock timings are
reported in files as 0 unless --timings is given, keeping outputs
reproducible; real timings always go to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
LRC_DENSE_LIMIT (default 4096) sets the dense cap, and with it the memory budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .circuits import parse
from .codes import BUILTIN_CODE_NAMES, load_code
from .compiler import DEFAULT_SEED, CompileError, RandomizationPolicy, instantiate
from .verify import (
    CHECK_NAMES,
    check_measurement_rc,
    check_sampling_equivalence,
    derive_seed,
    readout_flip,
    readout_rotation,
    run_checks,
    run_toffoli_example,
)


def reports_to_json(reports, include_timings: bool = False) -> str:
    return (
        json.dumps(
            [r.to_dict(include_timings) for r in reports],
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )


def reports_to_csv(reports, include_timings: bool = False) -> str:
    lines = ["check,pass,value,tolerance,runtime_ms,seed"]
    for r in reports:
        ms = repr(float(r.runtime_ms)) if include_timings else "0.0"
        lines.append(
            f"{r.check},{str(bool(r.passed)).lower()},{r.value!r},{r.tolerance!r},{ms},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(reports, args) -> int:
    """Summarise the reports on stderr, write them out and return the exit code."""
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.check}: value={r.value:.3e} tol={r.tolerance:.3e} "
            f"({r.runtime_ms:.0f} ms)",
            file=sys.stderr,
        )
    render = reports_to_csv if args.format == "csv" else reports_to_json
    _emit(render(reports, args.timings), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _resolve_code(spec: str):
    """(name, code) for a builtin name or a code definition path; None after
    reporting a definition that cannot be read."""
    try:
        code = load_code(spec)
    except (OSError, ValueError) as exc:
        print(f"unknown code {spec!r}: {exc}", file=sys.stderr)
        return None
    return (spec if spec in BUILTIN_CODE_NAMES else Path(spec).stem), code


def _load_circuit(path: str):
    """The circuit in a JSON file; None after reporting a file that cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        print(f"cannot load circuit {path!r}: {exc}", file=sys.stderr)
        return None


def cmd_verify(args) -> int:
    if not args.all and not args.check:
        print("verify needs --all or --check NAME", file=sys.stderr)
        return 2
    names = list(CHECK_NAMES) if args.all else args.check
    for name in names:
        if name not in CHECK_NAMES:
            print(
                f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}",
                file=sys.stderr,
            )
            return 2
    code = None
    if args.code is not None:
        code = _resolve_code(args.code)
        if code is None:
            return 2
    return _report(run_checks(names, args.seed, code), args)


def _read_policy(args, policy: RandomizationPolicy, seed: int | None):
    """The policy of --policy, else ``policy``, with the --mode override and, if not None,
    the seed; None after reporting a policy that cannot be read or a bad --mode."""
    if args.policy:
        try:
            with open(args.policy, "r", encoding="utf-8") as fh:
                policy = RandomizationPolicy.from_json(fh.read())
        except (OSError, ValueError, CompileError) as exc:
            print(f"invalid policy: {exc}", file=sys.stderr)
            return None
    if args.mode:
        kind, _, count = args.mode.partition("=")
        if args.mode == "exhaustive":
            policy.mode, policy.samples = "exhaustive", 0
        elif kind == "sampled" and count.removeprefix("-").isdecimal():
            policy.mode, policy.samples = "sampled", int(count)
        else:
            print(f"bad --mode {args.mode!r}; use exhaustive or sampled=N", file=sys.stderr)
            return None
    if seed is not None:
        policy.seed = seed
    return policy


def cmd_compile(args) -> int:
    circuit = _load_circuit(args.circuit)
    if circuit is None:
        return 2
    if (policy := _read_policy(args, RandomizationPolicy(), args.seed)) is None:
        return 2
    try:
        instances = [inst.to_dict() for inst in instantiate(circuit, policy)]
    except CompileError as exc:
        print(f"compilation failed: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema_version": 1,
        "policy": policy.to_dict(),
        "instances": instances,
    }
    _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    print(f"compiled {len(instances)} instance(s)", file=sys.stderr)
    return 0


def cmd_toffoli(args) -> int:
    if args.delta is None or not np.isfinite(args.delta):
        print("toffoli needs a finite --delta", file=sys.stderr)
        return 2
    report = run_toffoli_example(args.delta, blocks=args.blocks, seed=args.seed)
    return _report([report], args)


def cmd_syndrome(args) -> int:
    if args.flip_prob is not None and not 0.0 <= args.flip_prob <= 1.0:
        print("--flip-prob must lie in [0, 1]", file=sys.stderr)
        return 2
    if not np.isfinite(args.rotation):
        print("--rotation must be finite", file=sys.stderr)
        return 2
    code = _resolve_code(args.code)
    if code is None:
        return 2
    d = code[1].d
    if args.flip_prob is not None:
        noise = readout_flip(d, args.flip_prob)
        label = f"flip={args.flip_prob:g}"
    else:
        noise = readout_rotation(d, args.rotation)
        label = f"rotation={args.rotation:g}"
    try:
        report = check_measurement_rc(
            code, readout_noise=noise, generator=args.generator, seed=args.seed, label=label
        )
    except (ValueError, IndexError) as exc:
        print(f"syndrome check failed: {exc}", file=sys.stderr)
        return 2
    return _report([report], args)


def cmd_sample(args) -> int:
    circuit = None
    if args.circuit:
        circuit = _load_circuit(args.circuit)
        if circuit is None:
            return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed  # a given --seed also overrides a policy file's
    policy = RandomizationPolicy(seed=derive_seed(seed, "sampling_policy"))  # the default of the check
    if (policy := _read_policy(args, policy, args.seed if args.policy else None)) is None:
        return 2
    report = check_sampling_equivalence(circuit=circuit, policy=policy, shots=args.shots, seed=seed)
    return _report([report], args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrc",
        description="Randomizing compilation for encoded circuits, with a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--timings",
            action="store_true",
            help="write real runtimes into the report (breaks byte reproducibility)",
        )

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("--all", action="store_true", help="run the full registry")
    p.add_argument("--check", action="append", default=[], help="run one named check")
    p.add_argument("--code", help="restrict code-scoped checks to one builtin code or code file")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compile", help="randomize a circuit into compiled instances")
    p.add_argument("--circuit", required=True, help="circuit JSON path")
    p.add_argument("--policy", help="policy JSON path")
    p.add_argument("--mode", help="exhaustive or sampled=N (overrides the policy)")
    p.add_argument("--seed", type=int, default=None, help="override the policy seed")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("toffoli", help="run the three-block overrotated Toffoli experiment")
    p.add_argument("--delta", type=float, required=True, help="overrotation angle")
    p.add_argument("--blocks", choices=("all", "third"), default="all")
    common(p)
    p.set_defaults(fn=cmd_toffoli)

    p = sub.add_parser("syndrome", help="verify compiled syndrome extraction under readout noise")
    p.add_argument("--code", default="bitflip3", help="builtin code name or code JSON path")
    p.add_argument("--generator", type=int, default=0)
    p.add_argument("--rotation", type=float, default=0.2, help="coherent X rotation angle")
    p.add_argument("--flip-prob", type=float, default=None, help="stochastic flip probability")
    common(p)
    p.set_defaults(fn=cmd_syndrome)

    p = sub.add_parser("sample", help="compare one-shot-per-compilation sampling to the average")
    p.add_argument("--shots", type=int, default=10**5)
    p.add_argument("--circuit", help="circuit JSON path (default: builtin noisy reset+measure)")
    p.add_argument("--policy", help="policy JSON path (default: derived from the master seed)")
    p.add_argument("--mode", help="exhaustive or sampled=N (overrides the policy)")
    common(p)
    p.set_defaults(fn=cmd_sample, seed=None)  # None: the default master seed
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except Exception as exc:  # surface as a usage/input failure, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
