"""Record the golden output digests into perfbench/golden.json.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose answers are known to be right; every
later run of the benchmark compares its outputs against these digests.  It
records the p = 7 sweep and the first MAX_OPS ops of the default seed of the
other workloads, and takes a few minutes.
"""

import json
import sys

import run
import workloads


def main() -> int:
    golden = {"seed": workloads.DEFAULT_SEED}
    sweep = run.worker({"mode": "sweep"})
    if sweep["failed_ops"]:
        raise SystemExit(f"sweep has {sweep['failed_ops']} failed pairs")
    golden["sweep-p7"] = sweep["digests"]
    for name in workloads.WORKLOADS[1:]:
        n = workloads.MAX_OPS[name]
        r = run.worker({"mode": "ops", "workload": name,
                        "seed": workloads.DEFAULT_SEED, "count": n}, timeout=3600)
        # the old digests may differ on purpose; the ops' own checks may not
        failed = workloads.count_failed(r["oks"], None)
        if failed:
            raise SystemExit(f"{name}: {failed} ops failed: {r['errors']}")
        every = workloads.CHECK_EVERY[name]
        marks = workloads.chain_marks(name, r["digests"])
        golden[name] = {"every": every,
                        "chain": [marks[k] for k in range(every, n + 1, every)]}
        print(f"{name}: {n} ops recorded", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
