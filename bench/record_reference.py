"""Record the reference outputs that run.py checks every pass against.

    python3 bench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites bench/reference.json.  Each output is checked for
the invariants that need no reference before it is recorded.  Outputs
are expected to stay byte-identical, so re-recording is a deliberate
change of the reference and is stated as such.
"""
import json
import os
import subprocess
import sys
import time

import run
import workloads

INSPECT_SEEDS = range(11)


def one_pass(name, seed):
    job = workloads.job(name, seed)
    result = run.spawn(job, time.monotonic() + run.RUN_LIMIT_S)[1]
    return job, result["ops"]


def main():
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True).stdout.strip()
    reference = {"recorded_at": sha}
    for name in ("verify_all", "reconcile_r14"):
        job, ops = one_pass(name, 0)
        entry = workloads.record(name, ops)
        if name == "verify_all":
            problems = workloads.check_verify_all(ops[0][0], ops[0][1], entry)
        else:
            problems = workloads.check_reconcile_r14(ops[0][0], ops[0][1], entry)
        if problems:
            sys.exit(f"{name}: {problems}")
        reference[name] = entry
    reference["inspect_seeded"] = {}
    for seed in INSPECT_SEEDS:
        job, ops = one_pass("inspect_seeded", seed)
        for argv, (code, out, *_) in zip(job["argvs"], ops):
            problems = workloads.check_inspect(argv, code, out)
            if problems:
                sys.exit(f"seed {seed} {argv}: {problems}")
        reference["inspect_seeded"][str(seed)] = workloads.record(
            "inspect_seeded", ops, job["argvs"])
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE)} at {sha}")


if __name__ == "__main__":
    main()
