"""Workload inputs and output checks.

Three workloads, each chosen to load a different layer of the engine:

verify_all      `hodgerep verify-paper --scope all --max-rank 8 --format json`
                through the CLI entry point.  Almost all of its time is
                exhaustive candidate generation with level, reality and
                charge arithmetic (classify, hodgecore, rootdata).
reconcile_r14   verify_paper(scope="all", max_rank=14,
                include_computed_only=False): checks the 1,372 row instances
                at rank <= 14 and enumerates nothing, so weight systems
                (repweights) and eigenspace bucketing dominate.
inspect_seeded  a seeded stream of distinct one-shot `hodgerep inspect`
                candidates, simple and product, valid and shape-invalid.
                Weight systems are reused little, so a per-candidate cost
                change in Freudenthal or orbit expansion shows as latency.

Only inspect_seeded depends on the seed.
"""
import hashlib
import json
import random
import re

import weyl

VERIFY_ARGV = ["verify-paper", "--scope", "all", "--max-rank", "8", "--format", "json"]
R14 = {"scope": "all", "max_rank": 14, "include_computed_only": False}
NAMES = ("verify_all", "reconcile_r14", "inspect_seeded")

# allowlisted discrepancies that every verify run must keep flagging
FLAGGED = {("prop3.3", 7), ("prop3.9", 4), ("prop3.9", 5)}
VERIFY_MATCH_ROWS = 44
VERIFY_COMPUTED_ONLY = 12

# inspect_seeded stream shape: per simple type one weight from each
# dimension band and two fundamental weights of dimension <= FUNDAMENTAL_DIM,
# a second candidate for the weights in SIBLING_SLOTS, plus a fixed number
# of 2- and 3-factor products, so every seed carries the same mix of light
# and heavy candidates
DIM_BANDS = ((1, 10), (11, 30), (31, 100), (101, 300), (301, 1000), (1001, 2000),
             (2001, 3000))
FUNDAMENTALS = 2
FUNDAMENTAL_DIM = 100
SIBLING_SLOTS = (1, 3, 7)
PRODUCTS = {2: 30, 3: 20}
PRODUCT_MAX_RANK = 4
# largest coordinate sum drawn per rank: low ranks get large weights
MAX_SUM = {1: 40, 2: 12, 3: 8}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# inspect_seeded inputs

def _random_weight(rng, rank, max_sum):
    """A dominant weight with a log-uniform coordinate sum in [1, max_sum]."""
    mu = [0] * rank
    for _ in range(int(round(max_sum ** rng.random()))):
        mu[rng.randrange(rank)] += 1
    return mu


def _weight_in_band(rng, family, rank, lo, hi):
    """A dominant weight whose dimension lies in [lo, hi], else the nearest
    one drawn under the top band's cap (low ranks stay small, E8 starts at
    248), else the smallest fundamental weight.  Low ranks draw larger
    coordinates."""
    cap = DIM_BANDS[-1][1]
    best = None
    for _ in range(60):
        mu = _random_weight(rng, rank, MAX_SUM.get(rank, max(2, 10 - rank)))
        dim = weyl.weyl_dim(family, rank, mu)
        if lo <= dim <= hi:
            return mu
        gap = lo - dim if dim < lo else dim - hi
        if dim <= cap and (best is None or gap < best[0]):
            best = (gap, mu)
    if best is not None:
        return best[1]
    return _fundamentals(family, rank, 0)[0]


def _fundamentals(family, rank, cap):
    """Fundamental weights of dimension <= cap, or the smallest one."""
    out = [[int(i == j) for j in range(rank)] for i in range(rank)]
    dims = [weyl.weyl_dim(family, rank, mu) for mu in out]
    return [mu for mu, d in zip(out, dims) if d <= cap] or [out[dims.index(min(dims))]]


def _grading(rng, rank, mu, extremal):
    """Painted nodes: a superset of supp(mu) when `extremal` (the top
    eigenspace is then one-dimensional), else 1 to 3 random nodes."""
    support = {i + 1 for i, c in enumerate(mu) if c}
    if extremal and len(support) <= 3:
        rest = [n for n in range(1, rank + 1) if n not in support]
        extra = rng.randint(0, min(3 - len(support), len(rest)))
        return sorted(support | set(rng.sample(rest, extra)))
    return sorted(rng.sample(range(1, rank + 1), rng.randint(1, min(3, rank))))


def _csv(values):
    return ",".join(str(v) for v in values)


def _simple_argv(rng, family, rank, mu, fundamental):
    if fundamental and rng.random() < 0.7:
        nodes = [mu.index(1) + 1]     # a fundamental weight painted at its node
    else:
        nodes = _grading(rng, rank, mu, rng.random() < 0.5)
    return ["inspect", f"{family}{rank}", "--E", _csv(nodes), "--mu", _csv(mu),
            "--level", str(rng.choice((1, 3)))]


def _factor(rng):
    if rng.random() < 0.5:
        # sl(r+1) with its first or last fundamental weight painted at that
        # node: a level-1 factor, so that many products are valid
        rank = rng.randint(1, PRODUCT_MAX_RANK)
        node = rng.choice((1, rank))
        return f"A{rank}", [node], [int(j == node - 1) for j in range(rank)]
    family, rank = rng.choice(weyl.catalog(PRODUCT_MAX_RANK))
    mu = None
    while mu is None or weyl.weyl_dim(family, rank, mu) > DIM_BANDS[-1][1]:
        if rng.random() < 0.7:
            node = rng.randrange(rank)
            mu = [int(j == node) for j in range(rank)]
        else:
            mu = _random_weight(rng, rank, 2)
    return f"{family}{rank}", _grading(rng, rank, mu, rng.random() < 0.8), mu


def _product_argv(rng, n_factors):
    factors = [_factor(rng) for _ in range(n_factors)]
    return ["inspect", "x".join(f[0] for f in factors),
            "--E", "x".join(_csv(f[1]) for f in factors),
            "--mu", "x".join(_csv(f[2]) for f in factors)]


def inspect_candidates(seed):
    """The argv lists of one inspect_seeded pass; same seed, same list."""
    rng = random.Random(seed)
    seen = set()

    def distinct(make):
        # redraw a duplicate; A1 has only two candidates per weight
        for _ in range(20):
            argv = make()
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                return [argv]
        return []

    groups = []
    for family, rank in weyl.catalog():
        weights = [_weight_in_band(rng, family, rank, lo, hi) for lo, hi in DIM_BANDS]
        small = _fundamentals(family, rank, FUNDAMENTAL_DIM)
        weights.extend(rng.choice(small) for _ in range(FUNDAMENTALS))
        for k, mu in enumerate(weights):
            # a sibling reuses the weight system with another grading or level
            make = lambda: _simple_argv(rng, family, rank, mu, k >= len(DIM_BANDS))  # noqa: E731
            groups.append([argv for _ in range(1 + (k in SIBLING_SLOTS))
                           for argv in distinct(make)])
    for n_factors, count in sorted(PRODUCTS.items()):
        groups.extend(distinct(lambda: _product_argv(rng, n_factors)) for _ in range(count))
    rng.shuffle(groups)
    return [argv for group in groups for argv in group]


def job(name, seed):
    """The work one pass of `name` hands to the worker."""
    if name == "verify_all":
        return {"workload": name, "argvs": [VERIFY_ARGV]}
    if name == "reconcile_r14":
        return {"workload": name, "kwargs": R14}
    return {"workload": name, "argvs": inspect_candidates(seed)}


def reference_entry(name, seed, reference):
    """The recorded outputs for this workload and seed, or None when the
    seed was not recorded (inspect_seeded then checks invariants only)."""
    if name == "inspect_seeded":
        return reference[name].get(str(seed))
    return reference[name]


def output_key(code, out):
    """Exit code and a 32-bit stdout digest of one inspect candidate."""
    return f"{code}:{digest(out)[:8]}"


def record(name, ops, argvs=None):
    """Reference entry for one correct pass (see record_reference.py)."""
    if name == "inspect_seeded":
        return {"argv_sha256": digest(json.dumps(argvs)),
                "outputs": " ".join(output_key(code, out) for code, out, *_ in ops)}
    code, out = ops[0][:2]
    return {"exit": code, "sha256": digest(out)}


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the op is right

def check_verify_all(code, out, ref):
    problems = []
    if code != ref["exit"]:
        problems.append(f"exit {code}, expected {ref['exit']}")
    if digest(out) != ref["sha256"]:
        problems.append("stdout differs from the recorded bytes")
    try:
        payload = json.loads(out)
        rows = payload["rows"]
    except (ValueError, KeyError, TypeError):
        return problems + ["stdout is not a verify-paper JSON report"]
    matched = sum(r["status"] == "match" for r in rows)
    flagged = {(r["table"], r["item"]) for r in rows
               if r["status"] == "mismatch" and r["allowlisted"]}
    unlisted = [(r["table"], r["item"]) for r in rows
                if r["status"] == "mismatch" and not r["allowlisted"]]
    if matched != VERIFY_MATCH_ROWS:
        problems.append(f"{matched} matching rows, expected {VERIFY_MATCH_ROWS}")
    if flagged != FLAGGED or unlisted:
        problems.append(f"flagged rows {sorted(flagged)}, unlisted mismatches {unlisted}")
    if len(payload.get("computed_only", ())) != VERIFY_COMPUTED_ONLY:
        problems.append(f"{len(payload.get('computed_only', ()))} computed_only tuples, "
                        f"expected {VERIFY_COMPUTED_ONLY}")
    return problems


def check_reconcile_r14(code, out, ref):
    if code != ref["exit"]:
        return [f"raised:\n{out}"]
    if digest(out) != ref["sha256"]:
        return ["row statuses or diffs differ from the recorded report"]
    return []


_EIGEN_LINE = re.compile(r"^\s+-?\d+(?:/\d+)?\s+dim (\d+)$")
_HODGE_LINE = re.compile(r"^hodge: \[([\d, ]+)\]$")


def _type_of(label):
    return label[0], int(label[1:])


def check_inspect(argv, code, out, recorded=None):
    """Exit code 0 or 2, eigenspace dimensions that add up to the Weyl
    dimension computed here, a Hodge vector of the requested shape, and,
    when recorded, the exact exit code and stdout."""
    if code not in (0, 2):
        return [f"exit {code}: {out.strip()[-300:]}"]
    problems = []
    if recorded is not None and recorded != output_key(code, out):
        problems.append("exit code or stdout differs from the recorded output")
    labels = argv[1].split("x")
    mus = [[int(c) for c in part.split(",")] for part in argv[5].split("x")]
    expected = sorted((label, weyl.weyl_dim(*_type_of(label), mu))
                      for label, mu in zip(labels, mus))
    lines = out.splitlines()
    if len(labels) == 1:
        found = [(labels[0], sum(int(m.group(1)) for m in map(_EIGEN_LINE.match, lines) if m))]
    else:
        # "factor C3 A3: levels 3/2:1 1/2:6 ...", in the engine's factor order
        found = sorted((line.split()[1], sum(int(lv.split(":")[1])
                                             for lv in line.split(" levels ")[1].split()))
                       for line in lines if line.startswith("factor "))
        if code == 2 and not found:
            return problems    # rejected before any eigenspace was built
    if found != expected:
        problems.append(f"eigenspace dimensions add up to {found}, Weyl dimensions are {expected}")
    if code == 0:
        hodge = [m for m in map(_HODGE_LINE.match, lines) if m]
        h = [int(x) for x in hodge[0].group(1).split(",")] if hodge else []
        level = 3 if len(labels) > 1 else int(argv[7])
        shape_ok = (len(h) == 4 and h[0] == h[3] == 1 and h[1] == h[2] >= 1) if level == 3 \
            else (len(h) == 2 and h[0] == h[1] >= 1)
        if not shape_ok:
            problems.append(f"hodge vector {h} is not of level-{level} shape")
    return problems
