"""One cold pass of a workload, run in a fresh interpreter.

Started by run.py as `python3 -I bench/worker.py` from the checkout root.
It imports hodgerep from ./src, loads the expected tables (the set-up the
parent times), prints "ready" and reads one JSON job line from stdin.  It
then prints the duration of a warm speed probe.  An empty job means set-up
only.  Otherwise it runs the pass, untraced or traced, and prints one JSON
result line: the raw outputs, the start and end of every operation and of
the pass, the pass CPU time, the speed probes taken during the pass (none
when traced, or when the job sets "probe" false) and the peak resident
memory.  Checking and scaling are left to the parent.

The engine is reached only through public names (hodgerep.cli.main,
hodgerep.verify_paper, hodgerep.expected.load_expected), so this file
runs unchanged on both sides of a refactor of the engine's internals.
"""
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
PROBE_INTERVAL_S = 0.05


def probe():
    """Seconds taken by a fixed piece of exact arithmetic and dict work,
    about a millisecond, the same kind of work the engine does."""
    t = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, 7)
    table = {}
    for i in range(2000):
        table[(i, i % 5)] = i
    return time.perf_counter() - t


class SpeedProbes:
    """Runs probe() from a wall-clock timer signal every PROBE_INTERVAL_S.

    The probe runs in the measured thread, on whichever CPU it is on, so
    its duration tracks the speed the pass is getting at that moment.
    Samples are (start, duration) in time.perf_counter seconds.
    """

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup():
    sys.path[:0] = [SRC, HERE]
    import hodgerep
    import hodgerep.cli
    import hodgerep.expected
    if not os.path.abspath(hodgerep.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hodgerep imported from {hodgerep.__file__}, not from {SRC}")
    hodgerep.expected.load_expected()


def _cli(argv):
    """(exit code, stdout) of one `hodgerep` invocation, in process."""
    import hodgerep.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hodgerep.cli.main(list(argv))
    return code, out.getvalue()


def _report_text(report):
    """Row statuses and per-instance diffs of a reconciliation report."""
    rows = []
    for row in sorted(report.rows, key=lambda r: (r.table, r.item)):
        rows.append([row.table, row.item, row.status, row.allowlisted, row.n_instances,
                     [[inst.instance.describe(), [list(d) for d in inst.diffs]]
                      for inst in row.failing()]])
    return json.dumps({"ok": report.ok, "rows": rows}, sort_keys=True)


def run_pass(job):
    """Run the job's work; returns (ops, [start, end], cpu_s).

    Each op is [exit code, stdout, start, end].  A raised exception
    becomes exit code null with the traceback as its output, so the parent
    counts it as failed.
    """
    import hodgerep
    ops = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    if job["workload"] == "reconcile_r14":
        try:
            ops.append([0, hodgerep.verify_paper(**job["kwargs"]), start])
        except Exception:
            ops.append([None, traceback.format_exc(), start])
        ops[-1].append(time.perf_counter())
    else:
        for argv in job["argvs"]:
            t = time.perf_counter()
            try:
                code, out = _cli(argv)
            except Exception:
                code, out = None, traceback.format_exc()
            ops.append([code, out, t, time.perf_counter()])
    span = [start, time.perf_counter()]
    cpu = time.process_time() - cpu0
    for op in ops:
        if op[0] is not None and not isinstance(op[1], str):
            op[1] = _report_text(op[1])
    return ops, span, cpu


def trace_observers(counts):
    """Outcome counters kept next to the spans, keyed by wrapped name."""
    systems = set()

    def evaluate_simple(args, kwargs, result):
        counts["accepted"] += result is not None

    def weight_system(args, kwargs, result):
        systems.add((args[0], tuple(args[1]), args[2:], tuple(sorted(kwargs.items()))))
        counts["distinct_systems"] = len(systems)
        counts["max_dim_built"] = max(counts["max_dim_built"], getattr(result, "dimension", 0))

    def instantiate(args, kwargs, result):
        counts["instances"] += sum(len(v) for v in result.values())

    return {"classify.evaluate_simple": evaluate_simple,
            "repweights.weight_system": weight_system,
            "expected.instantiate": instantiate}


def traced_pass(job):
    import tracer
    counts = {"accepted": 0, "distinct_systems": 0, "max_dim_built": 0, "instances": 0}
    t = tracer.Tracer(observers=trace_observers(counts))
    names, undo = tracer.install(t, "hodgerep")
    try:
        ops, span, cpu = run_pass(job)
    finally:
        undo()
    paths = sorted(t.paths(), key=lambda p: -p[3])[:40]
    trace = {"wrapped": names, "functions": t.functions(), "raised": t.raised,
             "counts": counts,
             "top_paths": [[" > ".join(p), c, tot, s] for p, c, tot, s in paths]}
    return ops, span, cpu, trace


def main():
    channel = sys.stdout
    setup()
    channel.write("ready\n")
    channel.flush()
    line = sys.stdin.readline()
    # the first probes in a fresh interpreter run cold; the last of three is warm
    channel.write(f"{[probe() for _ in range(3)][-1]!r}\n")
    channel.flush()
    if not line.strip():
        return 0
    job = json.loads(line)
    result = {"probes": [], "trace": None}
    if job.get("trace"):
        ops, span, cpu, result["trace"] = traced_pass(job)
    elif job.get("probe", True):
        with SpeedProbes() as probes:
            ops, span, cpu = run_pass(job)
        result["probes"] = probes.samples
    else:
        ops, span, cpu = run_pass(job)
    result.update(ops=ops, span=span, cpu_s=cpu,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    channel.write(json.dumps(result) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
