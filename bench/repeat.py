"""Repeat run.py over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload verify_all --seeds 1-10
    python3 bench/repeat.py --workload verify_all --seeds 1-10 --trace-seed 1 \\
        --out bench/results/BENCH_1.json

Run from the root of a checkout.  For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With --trace-seed it adds one traced
run.  With --out it merges the summary, the run records and the per-layer
metrics into that JSON file under the workload's name.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    record = next(x["run_record"] for x in lines if "run_record" in x)
    return record, lines[-1]


def summarize(results, bounds):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": statistics.median(values), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(values),
                         "bound": bounds.get(name), "values": values}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records, results = [], []
    for seed in parse_seeds(args.seeds):
        record, result = run_once(args.workload, seed, seconds, 0)
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        records.append(record)
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = summarize(results, bounds)
    print(f"{'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for name, s in summary.items():
        print(f"{name:12s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
              f"{s['spread']:7.3f} {s['bound']:6.2f}")
    entry = {"seconds": seconds, "runs": records, "end_to_end": summary}
    if args.trace_seed is not None:
        record, result = run_once(args.workload, args.trace_seed, seconds, 1)
        entry["traced_run"] = record
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        data[args.workload] = entry
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
