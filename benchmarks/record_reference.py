"""Record the outputs the benchmark checks against, for the default seed.

Run from the repository root on the commit whose outputs are the contract:

    python3 benchmarks/record_reference.py

It writes the ``lrc verify --all`` report and, for each instance workload,
every circuit's averaged outcome distribution into benchmarks/reference/.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import lrc.cli  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def main() -> int:
    ref = workloads.REFERENCE_DIR
    ref.mkdir(exist_ok=True)
    out = ref / f"registry_seed{workloads.REGISTRY_SEED}.json"
    code = lrc.cli.main(["verify", "--all", "--seed", str(workloads.REGISTRY_SEED), "--out", str(out)])
    if code != 0:
        return code
    for name in ("instance_stream", "wide_register"):
        path = ref / f"{name}_seed{SEED}.json"
        path.unlink(missing_ok=True)
        result = workloads.build(name, SEED, BENCH_DIR.parent / ".bench_build" / "lrcbench").run_pass()
        if result.failures:
            print("\n".join(result.failures), file=sys.stderr)
            return 1
        path.write_text(json.dumps(result.averages, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
