"""Self-checks of the benchmark's own machinery.

    python3 bench/selfcheck.py

Run from the root of a checkout.  Covers the tracer's self-time
arithmetic, its patching of every module that imported a function by
name, the determinism of the inspect_seeded generator, the independent
Weyl dimensions, the output checks and the metric names in
BENCHMARK.json.  These are not part of the repository's test suite.
"""
import collections
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import run        # noqa: E402
import tracer     # noqa: E402
import weyl       # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerArithmetic(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.t = tracer.Tracer(clock=self.clock)
        self.ns = {}

    def wrap(self, name, fn):
        self.ns[name] = self.t.wrap(name, fn)

    def test_self_time_of_nested_calls(self):
        def inner():
            self.clock.now += 3

        def outer():
            self.clock.now += 2
            self.ns["inner"]()
            self.clock.now += 5
            self.ns["inner"]()

        self.wrap("inner", inner)
        self.wrap("outer", outer)
        self.ns["outer"]()
        fns = self.t.functions()
        self.assertEqual(fns["outer"], {"calls": 1, "total_s": 13.0, "self_s": 7.0})
        self.assertEqual(fns["inner"], {"calls": 2, "total_s": 6.0, "self_s": 6.0})
        self.assertEqual([p[0] for p in self.t.paths()], [("outer",), ("outer", "inner")])

    def test_same_function_on_two_paths(self):
        def leaf():
            self.clock.now += 1

        def a():
            self.ns["leaf"]()

        def b():
            self.clock.now += 4
            self.ns["leaf"]()

        for name, fn in (("leaf", leaf), ("a", a), ("b", b)):
            self.wrap(name, fn)
        self.ns["a"]()
        self.ns["b"]()
        self.ns["leaf"]()
        fns = self.t.functions()
        self.assertEqual(fns["leaf"], {"calls": 3, "total_s": 3.0, "self_s": 3.0})
        self.assertEqual(fns["b"]["self_s"], 4.0)
        self.assertEqual(len(self.t.paths()), 5)

    def test_recursion_counts_total_once(self):
        def rec(n):
            self.clock.now += 1
            if n:
                self.ns["rec"](n - 1)

        self.wrap("rec", rec)
        self.ns["rec"](2)
        self.assertEqual(self.t.functions()["rec"],
                         {"calls": 3, "total_s": 3.0, "self_s": 3.0})

    def test_exceptions_are_counted_and_reraised(self):
        def bad():
            self.clock.now += 2
            raise KeyError("x")

        def caller():
            try:
                self.ns["bad"]()
            except KeyError:
                self.clock.now += 1

        self.wrap("bad", bad)
        self.wrap("caller", caller)
        self.ns["caller"]()
        self.assertEqual(self.t.raised, {"bad": {"KeyError": 1}})
        self.assertEqual(self.t.functions()["caller"]["self_s"], 1.0)

    def test_observer_sees_results(self):
        seen = []
        t = tracer.Tracer(clock=self.clock,
                          observers={"f": lambda a, k, r: seen.append((a, k, r))})
        f = t.wrap("f", lambda x, y=0: x + y)
        self.assertEqual(f(1, y=2), 3)
        self.assertEqual(seen, [((1,), {"y": 2}, 3)])


class TracerInstall(unittest.TestCase):
    def test_patches_every_importing_module(self):
        import hodgerep
        import hodgerep.classify
        import hodgerep.hodgecore
        import hodgerep.products
        original = hodgerep.hodgecore.level
        names, undo = tracer.install(tracer.Tracer(), "hodgerep")
        try:
            self.assertIn("hodgecore.level", names)
            self.assertIn("repweights.weight_system", names)
            self.assertFalse(any(n.split(".")[1].startswith("_") for n in names))
            wrapped = hodgerep.hodgecore.level
            self.assertIsNot(wrapped, original)
            self.assertIs(hodgerep.classify.level, wrapped)
            self.assertIs(hodgerep.products.level, wrapped)
            self.assertIs(hodgerep.level, wrapped)
            self.assertIs(hodgerep.hodgecore.weight_system, hodgerep.repweights.weight_system)
        finally:
            undo()
        self.assertIs(hodgerep.hodgecore.level, original)
        self.assertIs(hodgerep.classify.level, original)

    def test_absent_functions_are_reported_not_fatal(self):
        trace = {"wrapped": ["cli.main"], "functions": {}, "raised": {},
                 "counts": {"accepted": 0, "distinct_systems": 0, "max_dim_built": 0,
                            "instances": 0}}
        values, absent = run.layer_values(trace)
        self.assertIn("hodgecore.level", absent)
        self.assertNotIn("cli.main", absent)
        self.assertEqual(values["hodgecore.level.calls"], 0)


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 7, 12345):
            self.assertEqual(workloads.inspect_candidates(seed),
                             workloads.inspect_candidates(seed))
        self.assertNotEqual(workloads.inspect_candidates(1), workloads.inspect_candidates(2))

    def test_stream_shape(self):
        cap = workloads.DIM_BANDS[-1][1]
        for seed in (3, 99):
            argvs = workloads.inspect_candidates(seed)
            self.assertEqual(len({tuple(a) for a in argvs}), len(argvs))
            arity = collections.Counter(len(a[1].split("x")) for a in argvs)
            self.assertEqual({2: arity[2], 3: arity[3]}, workloads.PRODUCTS)
            per_type = len(workloads.DIM_BANDS) + workloads.FUNDAMENTALS \
                + len(workloads.SIBLING_SLOTS)
            self.assertGreaterEqual(arity[1], 0.99 * per_type * len(weyl.catalog()))
            self.assertEqual({a[7] for a in argvs if len(a) == 8}, {"1", "3"})
            for a in argvs:
                for label, mu in zip(a[1].split("x"), a[5].split("x")):
                    mu = [int(c) for c in mu.split(",")]
                    self.assertLessEqual(weyl.weyl_dim(label[0], int(label[1:]), mu), cap)

    def test_recorded_seeds_match_generator(self):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        for seed, entry in reference["inspect_seeded"].items():
            argvs = workloads.inspect_candidates(int(seed))
            self.assertEqual(entry["argv_sha256"], workloads.digest(json.dumps(argvs)))
            self.assertEqual(len(entry["outputs"].split()), len(argvs))


class WeylDimensions(unittest.TestCase):
    def test_known_dimensions(self):
        known = [("A", 4, [1, 0, 0, 0], 5), ("A", 2, [1, 1], 8), ("B", 3, [0, 0, 1], 8),
                 ("C", 3, [0, 0, 1], 14), ("D", 5, [0, 0, 0, 0, 1], 16),
                 ("D", 4, [0, 1, 0, 0], 28), ("G", 2, [1, 0], 7), ("G", 2, [0, 1], 14),
                 ("F", 4, [0, 0, 0, 1], 26), ("F", 4, [1, 0, 0, 0], 52),
                 ("E", 6, [1, 0, 0, 0, 0, 0], 27), ("E", 7, [0] * 6 + [1], 56),
                 ("E", 8, [0] * 7 + [1], 248), ("E", 8, [1] + [0] * 7, 3875)]
        for family, rank, mu, dim in known:
            self.assertEqual(weyl.weyl_dim(family, rank, mu), dim, (family, rank, mu))

    def test_root_counts(self):
        counts = {("A", 8): 36, ("B", 8): 64, ("C", 5): 25, ("D", 8): 56, ("E", 6): 36,
                  ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}
        for (family, rank), n in counts.items():
            self.assertEqual(len(weyl.positive_roots(family, rank)), n)


class OutputChecks(unittest.TestCase):
    SIMPLE = ["inspect", "C3", "--E", "3", "--mu", "0,0,1", "--level", "3"]
    OUT = ("algebra:    C3\nE:          A3\nmu:         0,0,1\n(mu+mu*)(E): 3\n"
           "eigenspaces of E_ss on U (raw eigenvalues):\n"
           "       3/2  dim 1\n       1/2  dim 6\n      -1/2  dim 6\n      -3/2  dim 1\n"
           "algebra: C3\nE: [3]\nmu: [0, 0, 1]\nc: 0\nspan: 3\nlevel: 3\nreality: real\n"
           "hodge: [1, 6, 6, 1]\nreal_form: sp(3,R)\ncanonical: True\n")

    def test_inspect_invariants(self):
        self.assertEqual(workloads.check_inspect(self.SIMPLE, 0, self.OUT), [])
        key = workloads.output_key(0, self.OUT)
        self.assertEqual(workloads.check_inspect(self.SIMPLE, 0, self.OUT, key), [])
        self.assertTrue(workloads.check_inspect(self.SIMPLE, 0, self.OUT.replace("dim 6", "dim 5")))
        self.assertTrue(workloads.check_inspect(self.SIMPLE, 0,
                                                self.OUT.replace("1, 6, 6, 1", "6, 6")))
        self.assertTrue(workloads.check_inspect(self.SIMPLE, 64, "error: x\n"))
        self.assertTrue(workloads.check_inspect(self.SIMPLE, 0, self.OUT + " ", key))

    def test_product_invariants(self):
        argv = ["inspect", "D4xA1", "--E", "1x1", "--mu", "1,0,0,0x1"]
        out = ("factor A1 A1: levels 1/2:1 -1/2:1\nfactor D4 A1: levels 1:1 0:6 -1:1\n"
               "hodge: [1, 7, 7, 1]\n")
        self.assertEqual(workloads.check_inspect(argv, 0, out), [])
        self.assertTrue(workloads.check_inspect(argv, 0, out.replace("0:6", "0:5")))

    def test_verify_checks_flagged_rows(self):
        rows = [{"table": "t", "item": i, "status": "match", "allowlisted": False}
                for i in range(workloads.VERIFY_MATCH_ROWS)]
        rows += [{"table": t, "item": i, "status": "mismatch", "allowlisted": True}
                 for t, i in sorted(workloads.FLAGGED)]
        out = json.dumps({"rows": rows, "computed_only": [0] * workloads.VERIFY_COMPUTED_ONLY})
        ref = {"exit": 0, "sha256": workloads.digest(out)}
        self.assertEqual(workloads.check_verify_all(0, out, ref), [])
        rows[-1]["status"] = "match"
        self.assertTrue(workloads.check_verify_all(0, json.dumps({"rows": rows}), ref))
        self.assertTrue(workloads.check_verify_all(1, out, ref))


class Statistics(unittest.TestCase):
    def test_scaling_by_probes(self):
        ref = run.PROBE_REF_S
        slow = [(t / 10, 2 * ref) for t in range(10)]
        # probes inside the interval are removed, then time runs at half speed
        self.assertAlmostEqual(run.scaled(0.0, 1.0, slow), (1.0 - 20 * ref) / 2)
        # a short interval between probes takes the speed of the probes nearby
        self.assertAlmostEqual(run.scaled(0.51, 0.52, slow), 0.005)
        self.assertAlmostEqual(run.scaled(0.0, 1.0, []), 1.0)

    def test_tail_rule(self):
        self.assertEqual(run.tail(list(range(100))), 89)
        self.assertEqual(run.tail(list(range(21))), 10)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.tail([5.0]), 5.0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
