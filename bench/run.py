"""Cold-process benchmark of hodgerep.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(bench/worker.py), because a CLI user pays cold caches on every
invocation.  With --trace 0 the last stdout line holds the end-to-end
metrics, timed against a speed probe so that the host's changing speed
drops out; with --trace 1 it holds the per-layer metrics of traced passes,
each paired with an untraced pass so the tracing overhead is reported.
The line before it is the run record.  Outputs are checked against
bench/reference.json; see bench/README.md.
"""
import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SPAWNS = 4           # set-up-only spawns at the start; one more before every pass
RUN_LIMIT_S = 150          # no pass starts past this; the whole run must end by 180 s
PROBE_REF_S = 0.001        # timings are reported at the speed where worker.probe takes 1 ms
PROBE_WINDOW_S = 0.25      # probes this close to an interval set its speed

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "op_p50_ms": "ms", "op_p99_ms": "ms"}

# per-layer functions whose calls, total_s and self_s are reported
LAYERS = {
    "rootdata": ("root_system", "weight_to_root_coords", "mu_plus_mu_star_closed_form",
                 "dual_weight"),
    "classify": ("enumerate_level", "evaluate_simple", "canonicalize"),
    "hodgecore": ("level", "reality_type", "mu_of_grading", "center_charge",
                  "eigenspace_dims", "hodge_vector"),
    "repweights": ("weight_system", "weyl_orbit", "weyl_dim"),
    "products": ("combine", "convolve_eigen", "tensor_reality"),
    "expected": ("load_expected", "instantiate"),
    "cli": ("main", "record_of"),
}
COUNTERS = {
    "classify.candidates_accepted": "count", "classify.accept_ratio": "ratio",
    "hodgecore.shape_errors": "count",
    "repweights.distinct_systems": "count", "repweights.reuse_ratio": "ratio",
    "repweights.max_dim_built": "count",
    "products.combine_rejected": "count", "products.reject_ratio": "ratio",
    "expected.instances": "count",
}
TRACE_UNITS = {"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
               "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}


def per_layer_units():
    units = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            units.update({f"{module}.{fn}.calls": "count", f"{module}.{fn}.total_s": "s",
                          f"{module}.{fn}.self_s": "s"})
    units.update(COUNTERS)
    units.update({f"{module}.self_share": "ratio" for module in LAYERS})
    units.update(TRACE_UNITS)
    return units


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# workers

def _read_until(proc, deadline, need_line):
    """Read the worker's stdout until a full line (need_line) or EOF."""
    fd = proc.stdout.fileno()
    data = b""
    while not (need_line and data.endswith(b"\n")):
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise BenchError("worker timed out")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        data += chunk
    return data


def spawn(job, deadline):
    """Run one worker; returns ((setup_s, probe_s), result or None for set-up only)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    try:
        if _read_until(proc, deadline, True) != b"ready\n":
            raise BenchError("worker failed during set-up")
        setup_s = time.perf_counter() - t0
        proc.stdin.write(b"\n" if job is None else json.dumps(job).encode() + b"\n")
        proc.stdin.close()
        lines = _read_until(proc, deadline, False).splitlines()
        if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if len(lines) != (1 if job is None else 2):
        raise BenchError("worker printed no result")
    setup = (setup_s, float(lines[0]))
    return setup, (None if job is None else json.loads(lines[1]))


# ---------------------------------------------------------------------------
# checking

def check_pass(name, job, result, recorded):
    """Per-operation problem lists for one pass."""
    problems = []
    expected = recorded["outputs"].split() if name == "inspect_seeded" and recorded else None
    for i, (code, out, *_) in enumerate(result["ops"]):
        if name == "verify_all":
            problems.append(workloads.check_verify_all(code, out, recorded))
        elif name == "reconcile_r14":
            problems.append(workloads.check_reconcile_r14(code, out, recorded))
        else:
            problems.append(workloads.check_inspect(job["argvs"][i], code, out,
                                                    expected[i] if expected else None))
    for i, p in enumerate(problems):
        if p:
            print(f"check failed ({name}, op {i}): {'; '.join(p)}", file=sys.stderr)
    return problems


def recorded_outputs(name, seed, job):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    recorded = workloads.reference_entry(name, seed, reference)
    if name == "inspect_seeded" and recorded is not None:
        if recorded["argv_sha256"] != workloads.digest(json.dumps(job["argvs"])):
            raise BenchError(f"seed {seed}: generated candidates differ from the recorded ones")
    return recorded


# ---------------------------------------------------------------------------
# statistics

def tail(samples):
    """The highest order statistic with min(10, (n-1)//2) samples above it:
    the p99 rule (ten samples beyond) once there are 21 or more samples,
    falling back toward the median for fewer."""
    s = sorted(samples)
    return s[len(s) - 1 - min(10, (len(s) - 1) // 2)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(t0, t1, probes):
    """Time from t0 to t1, less the probes run inside it, at the speed at
    which a probe takes PROBE_REF_S: multiplied by the mean of
    PROBE_REF_S / probe over the probes taken from PROBE_WINDOW_S before
    t0 to PROBE_WINDOW_S after t1."""
    inside = sum(d for t, d in probes if t0 <= t < t1)
    near = [d for t, d in probes if t0 - PROBE_WINDOW_S <= t < t1 + PROBE_WINDOW_S]
    factor = statistics.fmean(PROBE_REF_S / d for d in near) if near else 1.0
    return (t1 - t0 - inside) * factor


def end_to_end(name, passes, setups, problems):
    """Timings are scaled to a fixed host speed, then take medians.

    This host runs the same code at two speeds about 1.7x apart and
    switches every few seconds, so a raw pass time depends on how much of
    it fell in the slow stretches.  Every worker times a fixed probe
    (worker.probe) after set-up and every 50 ms of a pass, and each time
    is scaled by the probes taken around it (see README.md).
    """
    clean = [(r, p) for r, p in zip(passes, problems) if not any(p)] or \
        list(zip(passes, problems))
    walls, cpus, raw = [], [], []
    for r, _ in clean:
        t0, t1 = r["span"]
        walls.append(scaled(t0, t1, r["probes"]))
        probe_time = sum(d for _, d in r["probes"])
        cpus.append((r["cpu_s"] - probe_time) * walls[-1] / (t1 - t0 - probe_time))
        raw.append(t1 - t0 - probe_time)
    # one latency per distinct operation: its median over the passes in
    # which it came out right
    n_ops = len(passes[0]["ops"])
    op_lat = [statistics.median(scaled(r["ops"][i][2], r["ops"][i][3], r["probes"])
                                for r, p in zip(passes, problems) if not p[i])
              for i in range(n_ops) if any(not p[i] for p in problems)]
    values = {
        "setup_s": statistics.median(s * PROBE_REF_S / d for s, d in setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r, _ in clean) / 1024,
        "op_p50_ms": statistics.median(op_lat or walls) * 1e3,
        "op_p99_ms": tail(op_lat or walls) * 1e3,
    }
    probes = [d for r in passes for _, d in r["probes"]]
    info = {"op_samples": len(op_lat),
            "probe_ms": {"min": min(probes) * 1e3, "median": statistics.median(probes) * 1e3}
            if probes else None,
            "raw_wall_s": {"min": min(raw), "median": statistics.median(raw)},
            "raw_setup_s": statistics.median(s for s, _ in setups)}
    return {k: metric(v, E2E_UNITS[k]) for k, v in values.items()}, info


def layer_values(trace):
    """Per-layer metric values of one traced pass, and the absent names."""
    fns, raised, counts = trace["functions"], trace["raised"], trace["counts"]
    values, absent = {}, []
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            if name not in trace["wrapped"]:
                absent.append(name)
            s = fns.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in ("calls", "total_s", "self_s"):
                values[f"{name}.{key}"] = s[key]
    simple_calls = values["classify.evaluate_simple.calls"]
    systems = counts["distinct_systems"]
    combines = values["products.combine.calls"]
    rejected = raised.get("products.combine", {}).get("ShapeError", 0)
    values.update({
        "classify.candidates_accepted": counts["accepted"],
        "classify.accept_ratio": counts["accepted"] / simple_calls if simple_calls else 0.0,
        "hodgecore.shape_errors": raised.get("hodgecore.hodge_vector", {}).get("ShapeError", 0),
        "repweights.distinct_systems": systems,
        "repweights.reuse_ratio": values["repweights.weight_system.calls"] / systems
        if systems else 0.0,
        "repweights.max_dim_built": counts["max_dim_built"],
        "products.combine_rejected": rejected,
        "products.reject_ratio": rejected / combines if combines else 0.0,
        "expected.instances": counts["instances"],
    })
    total_self = sum(s["self_s"] for s in fns.values()) or 1.0
    for module in LAYERS:
        values[f"{module}.self_share"] = sum(
            s["self_s"] for n, s in fns.items() if n.startswith(module + ".")) / total_self
    return values, absent


# ---------------------------------------------------------------------------
# runs

def timed_run(name, job, recorded, seconds, start):
    """Set-up spawns, then untraced passes while the next one fits."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(None, deadline)[0] for _ in range(SETUP_SPAWNS)]
    passes, problems, durations = [], [], []
    while True:
        t = time.perf_counter()
        setups.append(spawn(None, deadline)[0])
        setup, result = spawn(job, deadline)
        durations.append(time.perf_counter() - t)
        setups.append(setup)
        passes.append(result)
        problems.append(check_pass(name, job, result, recorded))
        now = time.perf_counter() - start
        if now + statistics.median(durations) > min(seconds, RUN_LIMIT_S):
            break
    metrics, info = end_to_end(name, passes, setups, problems)
    return metrics, problems, dict(info, passes=len(passes), setup_samples=len(setups))


def traced_run(name, job, recorded, seconds, start):
    """Pairs of (untraced, traced) passes while the next pair fits."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain, traced, problems, durations = [], [], [], []
    while True:
        t = time.perf_counter()
        for traced_flag, sink in ((False, plain), (True, traced)):
            # both sides run without speed probes, so their difference is the tracing
            result = spawn(dict(job, trace=traced_flag, probe=False), deadline)[1]
            sink.append(result)
            problems.append(check_pass(name, job, result, recorded))
        durations.append(time.perf_counter() - t)
        now = time.perf_counter() - start
        if now + statistics.median(durations) > min(seconds, RUN_LIMIT_S):
            break
    per_pass = [layer_values(r["trace"]) for r in traced]
    absent = per_pass[0][1]
    values = {k: statistics.median(v[k] for v, _ in per_pass) for k in per_pass[0][0]}
    plain_wall = min(r["span"][1] - r["span"][0] for r in plain)
    traced_wall = min(r["span"][1] - r["span"][0] for r in traced)
    values.update({"trace.untraced_wall_s": plain_wall, "trace.traced_wall_s": traced_wall,
                   "trace.overhead_s": traced_wall - plain_wall,
                   "trace.overhead_ratio": traced_wall / plain_wall - 1})
    units = per_layer_units()
    top = traced[0]["trace"]["top_paths"]
    print(json.dumps({"top_paths_by_self_s": top}))
    return ({k: metric(values[k], units[k]) for k in units}, problems,
            {"pairs": len(traced), "absent": absent})


def run_record(args, info, attempted, failed):
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "fail_frac": failed / attempted, **info}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # a terminated run still stops its worker (spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "hodgerep", "__init__.py")):
        print("run.py: no hodgerep source under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        job = workloads.job(args.workload, args.seed)
        recorded = recorded_outputs(args.workload, args.seed, job)
        run = traced_run if args.trace else timed_run
        metrics, problems, info = run(args.workload, job, recorded, args.seconds, start)
    except (BenchError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    info["run_s"] = time.perf_counter() - start
    attempted = sum(len(p) for p in problems)
    failed = sum(1 for per_pass in problems for p in per_pass if p)
    print(json.dumps({"run_record": run_record(args, info, attempted, failed)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
