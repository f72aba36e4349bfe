"""Fresh-interpreter probe: set-up time, and optionally an untraced pass.

    python3 perfbench/probe.py --workload NAME --seed N [--ops K]

Times ``import propertime`` (through the workload module) plus generating
the inputs of the first ops, then runs ops 0..K-1 untraced.  Prints one JSON
line with ``setup_s`` (wall time), the pass's ``ops_per_s``, ``attempted``,
``failed`` and the median scaled seconds of each op tag.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_OPS = 64  # inputs generated as part of set-up


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=0)
    args = parser.parse_args()

    import harness

    for var in harness.THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workload = workloads.make(args.workload, args.seed, tmp)
        for i in range(SETUP_OPS):
            workload.op(i)
        setup_s = time.perf_counter() - T0
        records = harness.run_ops(workload, range(args.ops))
    by_tag = {}
    for r in records:
        by_tag.setdefault(r.tag, []).append(r.scaled)
    print(json.dumps({
        "setup_s": setup_s,
        "ops_per_s": harness.ops_per_s(records),
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "tag_median_s": {tag: statistics.median(s) for tag, s in by_tag.items()},
    }))


if __name__ == "__main__":
    main()
