"""Record the reference output hashes the benchmark checks against.

    python3 bench/record.py --seeds 0-63

Runs the check pass of every workload for every seed and rewrites
``references.json``.  A seed whose commands or re-checks fail is not
recorded and the script exits with 1.  Record only from a commit whose
outputs are known to be right: every later run is held to these hashes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-63", help="inclusive range a-b")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.ROOT / "src"))
    refs = {"fixed": {}, "seeded": {}}
    status = 0
    for workload, make_plan in run.WORKLOADS.items():
        for seed in range(lo, hi + 1):
            work = run.ROOT / ".bench_work" / f"record-{workload}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            plan = make_plan(work.relative_to(run.ROOT), seed)
            runner = run.Runner(deadline=time.monotonic() + run.RUN_LIMIT_S)
            hashes = run.check_pass(runner, plan)
            if runner.failed:
                print(f"{workload} seed {seed}: not recorded", file=sys.stderr)
                status = 1
                continue
            for cmd in plan.check:
                node = refs
                for key in run.reference_key(workload, seed, cmd):
                    node = node.setdefault(key, {})
                node[cmd.label] = hashes[cmd.label]
            refs["seeded"][workload][str(seed)]["input"] = run.input_hash(plan)
            print(f"{workload} seed {seed}: recorded", flush=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
