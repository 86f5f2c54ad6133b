import ast
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hodgerep.classify as classify
import hodgerep.cli as cli
import hodgerep.expected as expected
import hodgerep.hodgecore as hodgecore
import hodgerep.products as products
import hodgerep.repweights as repweights
from hodgerep.classify import (
    SearchConfig,
    _factor_keys,
    _types_in_window,
    candidates,
    coverage_key,
    enumerate_level,
    evaluate_simple,
    verify_paper,
)
from hodgerep.cli import main, record_of
from hodgerep.errors import ConsistencyError, ShapeError
from hodgerep.expected import instantiate, load_expected
from hodgerep.hodgecore import (
    COMPLEX,
    REAL,
    GradingElement,
    extremal_dim_is_one,
    level,
    reality_type,
)
from hodgerep.products import (
    FactorSpec,
    SummaryTable,
    assemble,
    convolve_eigen,
    diagram_automorphisms,
    product_tuples,
)
from hodgerep.repweights import weyl_dim
from hodgerep.rootdata import RANK_BOUNDS, LieType

from oracles import (
    _eval_row,
    annotate_canonical,
    candidates_all_supports,
    canonical_factors,
    dominant_weights_up_to,
    eigenspace_dims,
    enumerate_level_brute,
    evaluate_simple_direct,
    hodge_vector_levels,
    instantiate_eval,
    row_checks_assembled,
)
from test_hodgecore import _run_optimized

E = GradingElement.from_nodes


def fundamental(rank, i):
    return tuple(int(j == i - 1) for j in range(rank))


def find(results, family, rank, nodes, mu):
    for t in results:
        if len(t.factors) == 1 and t.factors[0].lie_type == LieType(family, rank) \
                and t.factors[0].E.support == tuple(nodes) \
                and t.factors[0].mu == tuple(mu):
            return t
    return None


def test_enumerate_level3_families_c():
    res = enumerate_level(SearchConfig(max_rank=3, level=3, families=frozenset("C")))
    got = find(res, "C", 3, (3,), (0, 0, 1))
    assert got is not None
    assert got.c == 0 and got.reality == "real" and got.hodge.dims == (1, 6, 6, 1)


def test_enumerate_level3_families_b():
    res = enumerate_level(SearchConfig(max_rank=2, level=3, families=frozenset("B")))
    got = find(res, "B", 2, (1, 2), (0, 1))
    assert got is not None
    assert got.c == 0 and got.reality == "real" and got.hodge.dims == (1, 1, 1, 1)


def test_enumerate_level1_a1():
    res = enumerate_level(SearchConfig(max_rank=1, level=1, families=frozenset("A")))
    got = find(res, "A", 1, (1,), (1,))
    assert got is not None and got.hodge.dims == (1, 1)


def _canonical_key(t):
    """The factors of `t`'s canonical representative, by the per-tuple
    oracle."""
    return tuple(canonical_factors(t.factors))


def _is_canonical(t):
    """The mark that the sweeps give a tuple, read from the summaries of a
    table of its own."""
    return all(s.is_canonical() for s in SummaryTable().summarise(_factor_keys(t.factors)))


def _representative(t):
    """The tuple that `t`'s canonical key names, assembled afresh."""
    return assemble(_canonical_key(t), t.level)


def test_canonicalize_examples():
    t = evaluate_simple(LieType("A", 4), E(4, [4]), fundamental(4, 4), 3)
    assert _canonical_key(t) == (FactorSpec(LieType("A", 4), E(4, [1]), fundamental(4, 1)),)
    assert not _is_canonical(t) and _is_canonical(_representative(t))
    t = evaluate_simple(LieType("D", 5), E(5, [5]), fundamental(5, 5), 3)
    assert _canonical_key(t) == (FactorSpec(LieType("D", 5), E(5, [4]), fundamental(5, 4)),)
    assert not _is_canonical(t) and _is_canonical(_representative(t))
    t = evaluate_simple(LieType("B", 3), E(3, [1]), fundamental(3, 3), 1)
    assert _canonical_key(t) == t.factors and _is_canonical(t)


# the sweep windows of the canonical-mark tests, by level: level 1 without
# products, level 3 with them
_SWEEP_RANKS = {1: 16, 3: 12}


@lru_cache(maxsize=None)
def _sweep(level_n):
    return tuple(enumerate_level(SearchConfig(
        max_rank=_SWEEP_RANKS[level_n], level=level_n, include_products=level_n == 3)))


@pytest.mark.parametrize("level_n", (1, 3))
def test_canonical_keys_match_the_per_tuple_oracle(level_n):
    """Every tuple of the level-1 sweep to rank 16 and of the level-3
    sweep with products to rank 12 carries the canonical flag that
    comparing it whole with its canonical factors gives."""
    got = list(_sweep(level_n))
    assert got == annotate_canonical(got)
    assert 0 < sum(t.is_canonical for t in got) < len(got)


def test_canonicalize_idempotent_and_invariant():
    """Grouped by the oracle's canonical key, the tuples of the level-1
    sweep to rank 16 and of the level-3 sweep with products to rank 12,
    on every family, hold exactly one tuple marked canonical per group,
    whose factors are the key, and every tuple of a group has that
    tuple's level, reality, c and h: --dedupe keeps one tuple per
    orbit."""
    for level_n in (1, 3):
        groups = {}
        for t in _sweep(level_n):
            groups.setdefault(_canonical_key(t), []).append(t)
        assert len(groups) < len(_sweep(level_n))
        for key, orbit in groups.items():
            rep, = [t for t in orbit if t.is_canonical]
            assert rep.factors == key
            for t in orbit:
                assert (t.level, t.reality, t.c, t.hodge) == \
                    (rep.level, rep.reality, rep.c, rep.hodge)


def test_d4_triality_orbit():
    perms = diagram_automorphisms(LieType("D", 4))
    assert len(perms) == 6
    # the six level-1 (E-node, mu-node) pairs on {1,3,4} form one orbit,
    # with one canonical representative
    keys, marked = set(), 0
    for e_node, mu_node in [(3, 1), (4, 1), (1, 3), (4, 3), (1, 4), (3, 4)]:
        t = evaluate_simple(LieType("D", 4), E(4, [e_node]),
                            fundamental(4, mu_node), 1)
        assert t is not None, (e_node, mu_node)
        keys.add(_canonical_key(t))
        marked += _is_canonical(t)
    assert len(keys) == 1 and marked == 1


def test_soundness_of_emitted_tuples():
    """Every emitted level-3 tuple re-validates against the weight system."""
    res = enumerate_level(SearchConfig(max_rank=4, level=3,
                                       families=frozenset("ABCDG"),
                                       include_products=True))
    assert res
    for t in res:
        vec = t.hodge.dims
        assert vec == tuple(reversed(vec))
        assert vec[0] == vec[-1] == 1 and len(vec) == 4
        if len(t.factors) == 1:
            f = t.factors[0]
            top = eigenspace_dims(f.lie_type, f.mu, f.E).dims[0]
            assert top == 1
            assert 1 <= t.span <= 3


def test_completeness_at_small_rank():
    """Exhaustive search at rank <= 4 covers every printed row in range."""
    rep = verify_paper(scope="all", max_rank=4)
    assert not rep.paper_only
    # rows that fail only do so on the allowlisted discrepancies
    assert rep.ok
    for row in rep.mismatches:
        assert (row.table, row.item) in {("prop3.3", 7), ("prop3.9", 4), ("prop3.9", 5)}

    # superset check: every row candidate within the window appears in the
    # enumeration output (prop3.9 item 4 names no valid candidate)
    from hodgerep.expected import instantiate, load_expected

    enumerated = set()
    for level in (1, 3):
        cfg = SearchConfig(max_rank=4, level=level, include_products=(level == 3))
        for t in enumerate_level(cfg):
            enumerated.add(coverage_key(t))
    tables = load_expected()
    for name in tables.table_names("all"):
        for item, instances in instantiate(name, tables, 4).items():
            if (name, item) == ("prop3.9", 4):
                continue
            for inst in instances:
                if all(t.rank <= 4 for t, _, _ in inst.factors):
                    assert inst.key in enumerated, inst.describe()


def test_products_need_level_3():
    """Factor levels add, so a level-1 window holds no product: asking for
    one is an error, not a silently ignored flag."""
    with pytest.raises(ValueError, match="products need level 3"):
        SearchConfig(max_rank=3, level=1, include_products=True)


def test_determinism():
    cfg = SearchConfig(max_rank=4, level=3, families=frozenset("ABCD"),
                       include_products=True)
    a = json.dumps([record_of(t) for t in enumerate_level(cfg)])
    b = json.dumps([record_of(t) for t in enumerate_level(cfg)])
    assert a == b


@pytest.mark.parametrize("target,products", [(1, False), (3, True)])
def test_level_bound_matches_brute_force_sweep(target, products):
    """The level-bound generator is complete: byte-identical to the
    exhaustive coordinate-sum sweep over every family at rank <= 8."""
    cfg = SearchConfig(max_rank=8, level=target, include_products=products)
    got = json.dumps([record_of(t) for t in enumerate_level(cfg)])
    want = json.dumps([record_of(t) for t in enumerate_level_brute(cfg)])
    assert got == want


@settings(max_examples=60)
@given(families=st.sets(st.sampled_from(sorted(RANK_BOUNDS)), min_size=1, max_size=3),
       max_rank=st.integers(1, 6), target=st.sampled_from([1, 3]),
       data=st.data())
def test_level_bound_matches_brute_force_on_random_windows(families, max_rank, target, data):
    """Random small windows: a family subset, rank <= 6, level 1 or 3,
    with and without products (level 3 only)."""
    products = target == 3 and data.draw(st.booleans(), label="products")
    cfg = SearchConfig(max_rank=max_rank, level=target, families=frozenset(families),
                       include_products=products)
    got = json.dumps([record_of(t) for t in enumerate_level(cfg)])
    assert got == json.dumps([record_of(t) for t in enumerate_level_brute(cfg)])


def test_candidates_respect_level_bound():
    t = LieType("C", 3)
    for target in (1, 3):
        for nodes, mu, span in candidates(t, target):
            g = E(t.rank, nodes)
            assert 1 <= span == level(t, mu, g) <= target and g.support == nodes
            if target == 3:
                assert extremal_dim_is_one(mu, g)
    spans = {(nodes, mu): s for nodes, mu, s in candidates(t, 3)}
    assert spans[((3,), (0, 0, 1))] == 3
    assert ((1,), (0, 0, 1)) not in spans   # supp(mu) outside supp(E)


@pytest.mark.parametrize("target", [1, 3])
def test_candidates_match_the_all_supports_oracle(target):
    """The short-list supports yield the same sequence as visiting every
    support, on every type of rank <= 16."""
    for t in _types_in_window("ABCDEFG", 16):
        assert list(candidates(t, target)) == list(candidates_all_supports(t, target)), t


def _count_grading_elements(monkeypatch):
    """Counts every grading element built, by the constructor or by
    `from_nodes`, which builds through `_make`."""
    seen = Counter()
    real_new, real_make = GradingElement.__new__, GradingElement._make.__func__

    def counting_new(cls, coeffs):
        seen["built"] += 1
        return real_new(cls, coeffs)

    def counting_make(cls, fields):
        seen["built"] += 1
        return real_make(cls, fields)

    monkeypatch.setattr(GradingElement, "__new__", counting_new)
    monkeypatch.setattr(GradingElement, "_make", classmethod(counting_make))
    return seen


def test_candidates_build_no_grading_element(monkeypatch):
    """The generator yields each candidate's E nodes, its summary-table
    key, and builds no grading element: none for the 565 and 1,663
    candidates of the rank-16 passes at levels 1 and 3, where visiting
    every support of at most 3 nodes builds 1,184 at rank 8 and level 3."""
    seen = _count_grading_elements(monkeypatch)
    assert [sum(1 for t in _types_in_window("ABCDEFG", 16) for _ in candidates(t, target))
            for target in (1, 3)] == [565, 1663]
    assert seen["built"] == 0
    for t in _types_in_window("ABCDEFG", 8):
        list(candidates_all_supports(t, 3))
    assert seen["built"] == 1184


def _zero_first_entry(rsd):
    """The root data with entry L[0][0] of its level matrix set to 0."""
    rows = rsd.level_matrix
    return rsd._replace(level_matrix=((0,) + rows[0][1:],) + rows[1:])


@pytest.mark.parametrize("target", [1, 3])
def test_candidates_check_the_level_matrix(monkeypatch, target):
    """The level bound needs every entry of the level matrix to be at least
    1; a type whose matrix breaks that ends the sweep with a
    ConsistencyError naming it, before any candidate."""
    real = classify.root_system
    monkeypatch.setattr(classify, "root_system", lambda t: _zero_first_entry(real(t)))
    with pytest.raises(ConsistencyError, match="level matrix of C3"):
        next(candidates(LieType("C", 3), target))


def test_level_matrix_check_survives_optimize():
    code = ("import hodgerep.classify as classify\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.rootdata import LieType\n"
            "real = classify.root_system\n"
            "def patched(t):\n"
            "    rows = real(t).level_matrix\n"
            "    rows = ((0,) + rows[0][1:],) + rows[1:]\n"
            "    return real(t)._replace(level_matrix=rows)\n"
            "classify.root_system = patched\n"
            "try:\n"
            "    next(classify.candidates(LieType('C', 3), 3))\n"
            "except ConsistencyError as exc:\n"
            "    print(exc)\n")
    assert "level matrix of C3" in _run_optimized(code)


@pytest.mark.parametrize("target", [1, 3])
def test_evaluate_simple_matches_direct_route_on_candidates(target):
    """The one-factor assembly agrees with the former simple route on every
    candidate of every type of rank <= 8."""
    count = 0
    for t in _types_in_window("ABCDEFG", 8):
        for nodes, mu, _ in candidates(t, target):
            g = E(t.rank, nodes)
            assert evaluate_simple(t, g, mu, target) == \
                evaluate_simple_direct(t, g, mu, target), (t, g, mu)
            count += 1
    assert count > 100


def _off_window_inputs():
    """Inputs of rank <= 5 outside the level-3 window, by reason; mu has
    coordinate sum <= 2 and E support <= 3."""
    out = {"supp(mu) outside supp(E)": [], "span above 3": [], "span 3, not real": []}
    for t in _types_in_window("ABCDEFG", 5):
        for mu in dominant_weights_up_to(t.rank, 2):
            for size in range(1, min(t.rank, 3) + 1):
                for nodes in itertools.combinations(range(1, t.rank + 1), size):
                    g = E(t.rank, nodes)
                    if not extremal_dim_is_one(mu, g):
                        out["supp(mu) outside supp(E)"].append((t, g, mu))
                    elif level(t, mu, g) > 3:
                        out["span above 3"].append((t, g, mu))
                    elif level(t, mu, g) == 3 and reality_type(t, mu, g) != REAL:
                        out["span 3, not real"].append((t, g, mu))
    return out


def test_evaluate_simple_matches_direct_route_on_rejected_inputs():
    for reason, inputs in _off_window_inputs().items():
        assert inputs, reason
        for t, g, mu in inputs:
            assert evaluate_simple(t, g, mu, 3) is None, (reason, t, g, mu)
            for target in (1, 3):
                assert evaluate_simple(t, g, mu, target) == \
                    evaluate_simple_direct(t, g, mu, target), (target, t, g, mu)


def _factor_work(monkeypatch):
    """Counts of the summaries built and of the per-factor computations
    they make, by name."""
    seen = Counter()
    for home, name in ((hodgecore, "level"), (hodgecore, "reality_type"),
                       (hodgecore, "mu_of_grading"), (hodgecore, "eigen_ladder"),
                       (hodgecore, "real_form"), (products, "diagram_automorphisms")):
        real = getattr(home, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            seen[_name] += 1
            return _real(*args, **kwargs)

        for module in (hodgecore, products, classify, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)

    class CountingSummary(products._FactorSummary):
        __slots__ = ()

        def __init__(self, *args):
            seen["summaries"] += 1
            super().__init__(*args)

    monkeypatch.setattr(products, "_FactorSummary", CountingSummary)
    return seen


def test_verify_reads_each_factor_once(monkeypatch):
    """Each distinct row factor has one summary, with its level and reality
    type computed once, and mu(E_ss) once per ladder built; only a factor
    of an instance the rule admits builds a ladder."""
    seen = _factor_work(monkeypatch)
    rep = verify_paper(scope="all", max_rank=8, include_computed_only=False)
    checks = [r for row in rep.rows for r in row.instances]
    factors = {f for r in checks for f in r.instance.factors}
    admitted = {f for r in checks if not any(d[0] == "validity" for d in r.diffs)
                for f in r.instance.factors}
    assert seen["summaries"] == seen["level"] == seen["reality_type"] == len(factors) == 263
    assert seen["mu_of_grading"] == seen["eigen_ladder"] == len(admitted) == 262


def _set_factor(field, value):
    return lambda item: item["factors"][0].__setitem__(field, value)


def _set_item(field, value):
    return lambda item: item.__setitem__(field, value)


def _drop_from_cases(field):
    return lambda item: [case.pop(field) for case in item["cases"]]


def _prop39_item3(item):
    """Faults in a row whose bindings start at r = 4, checked at rank 3."""
    item["factors"][1].update(family="Q", E=5)
    item.update(c="__import__", h="oops")


# (table, row index, max_rank) of a mutation; the rest edit thm2.1 item 1
# and verify at rank 4
_prop39_item3.row = ("prop3.9", 2, 3)


@pytest.mark.parametrize("mutate,message", [
    (_set_factor("family", ["A"]), "item 1: family must be a string"),
    (_set_factor("family", "Q"), "item 1: family must be one of A, B, C, D, E, F, G, "
                                 "got 'Q'"),
    (_set_factor("E", {"n": "1"}), "item 1: E must be a list"),
    (_set_factor("E", 1), "item 1: E must be a list"),
    (_set_factor("E", [{"n": 1}]), "item 1: E node must be a string or an integer"),
    (_set_factor("mu", [["r+1", 1]]), "item 1: mu node 2 outside 1..1"),
    (_set_factor("mu", [["0", 1]]), "item 1: mu node 0 outside 1..1"),
    (lambda item: item.pop("c"), "item 1: missing field 'c'"),
    (_drop_from_cases("h"), "item 1: missing field 'h'"),
    (_drop_from_cases("reality"), "item 1: missing field 'reality'"),
    (_set_item("c", "foo"), "item 1: cannot evaluate c expression 'foo' (NameError"),
    (_set_item("c", "1/"), "item 1: cannot evaluate c expression '1/' (SyntaxError"),
    (_set_item("c", "'x'"), "item 1: cannot evaluate c expression \"'x'\" (ValueError"),
    (_set_item("params", 5), "item 1: params must be a dict of dicts, got 5"),
    (_set_item("params", {"r": 5}), "item 1: params must be a dict of dicts, got {'r': 5}"),
    (_set_item("cases", 5), "item 1: cases must be a list of dicts, each with a 'when', got 5"),
    (_drop_from_cases("when"), "item 1: cases must be a list of dicts, each with a 'when'"),
    (lambda item: item.pop("factors"), "item 1: missing field 'factors'"),
    (_set_item("factors", 5), "item 1: factors must be a list, got 5"),
    (_set_item("factors", []), "item 1: factors must be a list of 1 to 3 dicts, got []"),
    (_set_item("factors", [7]), "item 1: factors must be a list of 1 to 3 dicts, got [7]"),
    (lambda item: item["factors"][0].pop("rank"), "item 1: missing field 'rank'"),
    (lambda item: item.pop("item"), "row 1: missing field 'item'"),
    (_set_factor("mu", [5]), "item 1: mu entry must be a [node, coeff] pair, got 5"),
    # a JSON true is no integer: as an item number it once passed as item 1
    (_set_item("item", True), "row 1: item must be an integer, got True"),
    (_set_factor("rank", True), "item 1: rank must be a string or an integer, got True"),
    (_set_factor("E", [True]), "item 1: E node must be a string or an integer, got True"),
    (_set_item("real_form", 5),
     "item 1: real_form must be a string or a list of strings, got 5"),
    # two rows numbered 2: the second once replaced the first unchecked
    (_set_item("item", 2), "item 2: item number repeated"),
    (lambda item: item["factors"].append(dict(item["factors"][0])),
     "item 1: factors must be one factor on a level-1 table (factor levels add, "
     "so no product has level 1), got 2"),
    (_set_factor("E", []), "item 1: E must name one or more distinct nodes, got []"),
    (_set_factor("E", [1, 1]), "item 1: E must name one or more distinct nodes, got [1, 1]"),
    (_set_factor("mu", []), "item 1: mu must be dominant and nonzero, got [0]"),
    (_set_factor("mu", [[1, -1]]), "item 1: mu must be dominant and nonzero, got [-1]"),
    (_set_factor("mu", [[1, 1], [1, 2]]), "item 1: mu node 1 repeated"),
    (_set_item("c", "(2*i-r-1)/(2*(r+1)) + ().__class__.__base__.__subclasses__()"
                    ".__len__() * 0"),
     "item 1: cannot evaluate c expression '(2*i-r-1)/(2*(r+1)) + ().__class__.__base__"
     ".__subclasses__().__len__() * 0' (ValueError: '().__class__.__base__.__subclasses__()"
     ".__len__()' is outside the row grammar)"),
    (_set_item("c", "r.numerator"), "item 1: cannot evaluate c expression 'r.numerator' "
                                    "(ValueError: 'r.numerator' is outside the row grammar)"),
    (_set_item("c", "Q(r)[0]"), "item 1: cannot evaluate c expression 'Q(r)[0]' "
                                "(ValueError: 'Q(r)[0]' is outside the row grammar)"),
    (_set_item("c", "(lambda: r)()"), "item 1: cannot evaluate c expression '(lambda: r)()' "
                                      "(ValueError: '(lambda: r)()' is outside the row "
                                      "grammar)"),
    (_set_item("c", "Q(sum([r for _ in (1, 2)]))"),
     "item 1: cannot evaluate c expression 'Q(sum([r for _ in (1, 2)]))' (ValueError: "
     "'sum([r for _ in (1, 2)])' is outside the row grammar)"),
    (_set_item("c", "Q(r, _normalize=False)"),
     "item 1: cannot evaluate c expression 'Q(r, _normalize=False)' (ValueError: "
     "'Q(r, _normalize=False)' is outside the row grammar)"),
    (lambda item: item["cases"][0].__setitem__("when", "abs(r) != 1"),
     "item 1: cannot evaluate cases.when expression 'abs(r) != 1' (ValueError: 'abs(r)' "
     "is outside the row grammar)"),
    (lambda item: item["cases"][0].__setitem__("when", "(r, 1)"),
     "item 1: cannot evaluate cases.when expression '(r, 1)' (ValueError: '(r, 1)': a "
     "tuple must follow 'in' or 'not in', and only there)"),
    (_set_item("exclude", "r == 2"), "item 1: unknown field 'exclude'; known fields are "
                                     "item, factors, params, cases, reality, h, c, "
                                     "real_form, notes, paper_label, equiv"),
    (_prop39_item3, "item 3: family must be one of A, B, C, D, E, F, G, got 'Q'"),
    (_set_item("c", "2**(r/2)"), "item 1: cannot evaluate c expression '2**(r/2)' "
                                 "(ValueError: exponent 1/2 is not an integer)"),
    (lambda item: item["cases"][0].__setitem__("when", "2**(r/2) > 1"),
     "item 1: cannot evaluate cases.when expression '2**(r/2) > 1' (ValueError: exponent "
     "1/2 is not an integer)"),
    # the first case holds from r = 2, and r/2 is first fractional at r = 3
    (lambda item: item["cases"][0]["h"].__setitem__(0, "binom(r/2, 1)"),
     "item 1: cannot evaluate h expression 'binom(r/2, 1)' (ValueError: binom argument "
     "3/2 is not an integer)"),
], ids=["list-family", "unknown-family", "dict-E", "int-E", "dict-E-node", "mu-node-above-rank",
        "mu-node-0", "missing-c", "missing-h", "missing-reality", "c-unknown-name",
        "c-syntax-error", "c-not-a-number", "int-params", "int-param-spec",
        "int-cases", "case-without-when", "missing-factors", "int-factors",
        "empty-factors", "int-factor", "factor-without-rank", "missing-item",
        "int-mu-entry", "bool-item", "bool-rank", "bool-E-node", "int-real-form",
        "repeated-item", "level1-product", "empty-E",
        "repeated-E-node", "empty-mu", "negative-mu", "repeated-mu-node",
        "c-subclasses-walk", "c-attribute", "c-subscript", "c-lambda", "c-comprehension",
        "c-keyword-argument", "when-calls-abs", "when-bare-tuple", "unknown-row-key",
        "prop39-item3-below-its-ranks", "c-fractional-power", "when-fractional-power",
        "h-binom-of-a-fraction"])
def test_malformed_expected_row_raises(tmp_path, mutate, message):
    table, index, max_rank = getattr(mutate, "row", ("thm2.1", 0, 4))
    tables = load_expected()
    raw = json.loads(json.dumps(tables.raw))
    mutate(raw["tables"][table]["items"][index])
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape(f"{table} {message}")):
        verify_paper(scope=table, max_rank=max_rank, expected_path=str(path),
                     include_computed_only=False)
    assert main(["verify-paper", "--scope", table, "--max-rank", str(max_rank),
                 "--expected-file", str(path)]) == 64


def test_compiled_rows_match_the_eval_route():
    """Every packaged table instantiates to the same instances through the
    compiled rows as through `eval` of each expression's text, at every
    max_rank in 1..16 and at 32, where the rows have the most bindings."""
    tables = load_expected()
    for max_rank in [*range(1, 17), 32]:
        for name in tables.table_names("all"):
            assert instantiate(name, tables, max_rank) == \
                instantiate_eval(name, tables, max_rank), (name, max_rank)


def test_instance_values_are_ints_and_c_a_fraction():
    """Every rank, E node, mu entry, h entry and binding of every packaged
    instance is an int, and every c a Fraction, at every max_rank in
    1..16 and at 32; the eval route's equality cannot see this, since
    Fraction(1) == 1."""
    tables = load_expected()
    for max_rank in [*range(1, 17), 32]:
        for name in tables.table_names("all"):
            for instances in instantiate(name, tables, max_rank).values():
                for inst in instances:
                    values = [*inst.h, *inst.bindings.values()]
                    for t, nodes, mu in inst.factors:
                        values += [t.rank, *nodes, *mu]
                    assert {type(x) for x in values} == {int}, inst.describe()
                    assert type(inst.c) is Fraction, inst.describe()


_ROW_FORMS = ("({} + {})", "({} - {})", "({} * {})", "({} / {})", "({} % {})",
              "Q({} // {})", "-({})", "+({})", "Q(not {})", "Q({})", "Q({}, {})",
              "({} and {})", "({} or {})", "Q({} == {})", "Q({} != {})", "Q({} < {})",
              "Q({} <= {})", "Q({} > {})", "Q({} >= {})", "Q({} < {} <= {})",
              "Q({} >= {} > {})", "Q({} in ({}, {}))", "Q({} not in ({},))")


def _row_expressions():
    """Random row-grammar expressions in r and i on which `eval` over
    Fraction bindings, with every int literal read as `Q(n)`, is exact:
    every constant is `n` or `Q(n)`, every exponent a small int constant,
    every binom argument an integer of bounded size, and every int- or
    bool-valued form is sent through `Q`."""
    leaf = st.sampled_from(["r", "i"]) | st.integers(-2, 4).map("Q({})".format) \
        | st.integers(0, 4).map(str)
    small = leaf | st.builds("({} {} {})".format, leaf, st.sampled_from("+-*%"), leaf)
    expr = leaf
    for _ in range(3):
        forms = [(form, [expr] * form.count("{}")) for form in _ROW_FORMS] + [
            ("({})**{}", [expr, st.integers(0, 3)]), ("Q(binom({}, {}))", [small, small])]
        compound = st.sampled_from(forms).flatmap(
            lambda form: st.builds(form[0].format, *form[1]))
        expr = leaf | compound
    return compound


@settings(max_examples=300)
@given(_row_expressions())
# a bare literal and name, int quotients, exact and not, and int powers,
# negative exponents included
@example("4")
@example("r")
@example("(r / i)")
@example("((r + 4) / 2 - 6 / 4)")
@example("(3 ** i + r ** 2 / 3)")
@example("(0 ** i)")
# `or` and `and` guard a right operand that raises on the rows their left
# operand closes, and a constant one that raises on every row it reaches
@example("Q(r == 0 or 6 % r == 0)")
@example("Q(i != 0 and r / i > 1)")
@example("Q(r > 6 and 1 / 0 > 0)")
def test_built_expressions_match_the_eval_route(text):
    """At every int binding with r and i in -3..6, a built expression run
    on that binding as a one-row column has the value that `eval` of its
    text gives at the Fraction binding, with every int literal read as a
    Fraction, or fails with the same exception; and where no binding
    fails, the whole grid run as one column gives those values row by
    row.  The engine keeps int literals and exact int quotients as ints
    inside the expression, so the two routes meet in value, and the
    result is a Fraction."""
    value = expected._compile(text, ["r", "i"], "row", "c", {}, Fraction)
    as_fractions = re.sub(r"\d+", r"Q(\g<0>)", text)
    grid = list(itertools.product(range(-3, 7), repeat=2))
    wants = []
    for r, i in grid:
        try:
            want = Fraction(_eval_row(as_fractions, {"r": Fraction(r), "i": Fraction(i)}))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ValueError, match=re.escape(f"({type(exc).__name__}: ")):
                value({"r": [r], "i": [i]}, 1)
        else:
            got, = value({"r": [r], "i": [i]}, 1)
            assert got == want and type(got) is Fraction, (r, i)
            wants.append(want)
    if len(wants) == len(grid):
        got = value({"r": [r for r, _ in grid], "i": [i for _, i in grid]}, len(grid))
        assert got == wants and {type(x) for x in got} == {Fraction}


def _expression_texts(item):
    """The texts `expected._compile` parses for one packaged row: every
    expression entry that is not an int, leading blanks dropped."""
    entries = [value for spec in item.get("params", {}).values() for value in spec.values()]
    for fac in item["factors"]:
        entries += [fac["rank"], *fac["E"], *itertools.chain.from_iterable(fac["mu"])]
    for case in item.get("cases", [item]):
        entries += [case.get("when"), *case.get("h", ())]
    entries.append(item["c"])
    rf = item.get("real_form")
    for template in rf if isinstance(rf, list) else [rf]:
        entries += re.findall(r"\{([^}]+)\}", template or "")
    return {str(e).lstrip(" \t") for e in entries if e is not None and type(e) is not int}


def test_expressions_are_parsed_once_per_instantiate(monkeypatch):
    """`load_expected` parses no expression, and a verify run parses one
    tree per distinct expression text of each table (89 with the packaged
    tables), at max_rank 4 as at 16: no tree is parsed per binding or per
    row, and none outlives its `instantiate` call."""
    parsed = Counter()
    real = ast.parse

    def counting(*args, **kwargs):
        parsed["calls"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(expected.ast, "parse", counting)
    tables = load_expected()
    assert parsed["calls"] == 0
    distinct = sum(len(set().union(*map(_expression_texts, tables.tables[name]["items"])))
                   for name in tables.table_names("all"))
    counts = []
    for max_rank in (4, 16):
        parsed.clear()
        verify_paper(max_rank=max_rank, include_computed_only=False)
        counts.append(parsed["calls"])
    assert counts == [distinct, distinct] and distinct > 0


def test_each_compiled_expression_runs_once_per_instantiate(monkeypatch):
    """Every function `expected._compile` returns, the parameter bounds
    included, runs at most once per `instantiate` call of a verify run at
    max_rank 14: each row runs over all its bindings at once, as columns,
    and not once per binding.  Each such function is built inside one
    `instantiate` call, so counting calls per function counts them per
    call."""
    calls = Counter()
    real = expected._compile

    def counted_compile(*args, **kwargs):
        built = real(*args, **kwargs)

        def counted(columns, n):
            calls[counted] += 1
            return built(columns, n)
        calls[counted] = 0
        return counted

    monkeypatch.setattr(expected, "_compile", counted_compile)
    verify_paper(max_rank=14, include_computed_only=False)
    assert len(calls) > 500 and max(calls.values()) == 1


def test_each_expression_is_built_once_per_instantiate(monkeypatch):
    """One `instantiate` pass over the seven tables builds each distinct
    (entry, parameter names) once, and keeps nothing past its call: 384
    `_build` calls, subtrees included, at max_rank 4 as at 16, where
    building every site on its own made 1,285."""
    calls = Counter()
    real = expected._build

    def counting(*args, **kwargs):
        calls["build"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(expected, "_build", counting)
    tables = load_expected()
    counts = []
    for max_rank in (4, 16, 4):
        calls.clear()
        for name in tables.table_names("all"):
            instantiate(name, tables, max_rank)
        counts.append(calls["build"])
    assert counts == [384] * 3


def test_compiled_guards_return_their_truth_values():
    """Every packaged `cases.when` guard compiles to a function that
    returns the guard's own values, bools, on the column of every binding
    of r and i in 1..8, and every row's c to one that returns Fractions."""
    tables = load_expected()
    for name in tables.table_names("all"):
        for item in tables.tables[name]["items"]:
            names = list(item.get("params", {}))
            c_of = expected._compile(item["c"], names, name, "c", {}, Fraction)
            guards = [expected._compile(case["when"], names, name, "cases.when", {}, None)
                      for case in item.get("cases", ()) if "when" in case]
            grid = list(itertools.product(range(1, 9), repeat=len(names)))
            columns = {key: [values[k] for values in grid] for k, key in enumerate(names)}
            assert {type(c) for c in c_of(columns, len(grid))} == {Fraction}, \
                (name, item["item"])
            for guard in guards:
                assert {type(x) for x in guard(columns, len(grid))} == {bool}, name


def test_int_division_builds_one_fraction():
    """Two ints that do not divide give their exact Fraction, and a zero
    divisor the message `Fraction(a) / 0` gives."""
    assert expected._div(6, -3) == -2 and type(expected._div(6, -3)) is int
    assert expected._div(3, -6) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        expected._div(1, 0)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
        Fraction(1) / 0


def test_out_of_range_rank_skips_its_binding(tmp_path):
    """A catalogued family drops only the bindings outside its ranks:
    thm2.1 item 1 read as B_r keeps r = 2..4, since there is no B1; and it
    drops them before any other field runs there, so an h entry that
    raises only at r = 1 raises nothing."""
    raw = json.loads(json.dumps(load_expected().raw))
    item = raw["tables"]["thm2.1"]["items"][0]
    item["factors"][0]["family"] = "B"
    for case in item["cases"]:
        case["h"][0] = "binom(r-2, 1)"
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    got = instantiate("thm2.1", load_expected(str(path)), 4)[1]
    assert {inst.bindings["r"] for inst in got} == {2, 3, 4}
    assert {inst.h[0] for inst in got} == {0, 1, 2}
    item["factors"][0]["family"] = "A"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape("(ValueError: n must be a non-negative")):
        instantiate("thm2.1", load_expected(str(path)), 4)


def test_case_h_runs_only_on_its_own_bindings(tmp_path):
    """A case's h runs only at the bindings its guard takes: thm2.1 item 1
    with a quaternionic h that divides by zero wherever 2i != r + 1, the
    bindings the complex case before it takes, instantiates as before, and
    raises once a guard hands it such a binding."""
    raw = json.loads(json.dumps(load_expected().raw))
    case = raw["tables"]["thm2.1"]["items"][0]["cases"][1]
    assert case["when"].startswith("2*i == r+1") and case["reality"] == "quaternionic"
    case["h"] = [f"({h}) / 0 ** ((2*i-r-1)**2)" for h in case["h"]]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    for max_rank in (4, 8):
        assert instantiate("thm2.1", load_expected(str(path)), max_rank) == \
            instantiate("thm2.1", load_expected(), max_rank)
    raw["tables"]["thm2.1"]["items"][0]["cases"][0]["when"] = "r < 0"
    case["when"] = "i % 2 == 0 or 2*i != r+1"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape("(ZeroDivisionError: ")):
        instantiate("thm2.1", load_expected(str(path)), 4)


@lru_cache(maxsize=None)
def _rank6_candidates(target):
    """Every (type, E, mu) that `candidates` yields at rank <= 6."""
    return tuple((t, E(t.rank, nodes), mu) for t in _types_in_window("ABCDEFG", 6)
                 for nodes, mu, _ in candidates(t, target))


@lru_cache(maxsize=None)
def _rank6_simple():
    """The level-1 and level-3 candidates at rank <= 6 that evaluate_simple
    accepts."""
    got = (evaluate_simple(t, g, mu, target)
           for target in (1, 3) for t, g, mu in _rank6_candidates(target))
    return tuple(x for x in got if x is not None)


@lru_cache(maxsize=None)
def _rank6_products():
    """Every product of level-3 candidates of rank <= 6."""
    table = SummaryTable()
    got = product_tuples(table.summarise((t, g.support, mu)
                                         for t, g, mu in _rank6_candidates(3)), 3, 3)
    return tuple(p for p in got if len(p.factors) > 1)


def _image(perm, vec):
    """vec with entry i moved to node perm[i]."""
    out = [0] * len(vec)
    for src, dst in enumerate(perm):
        out[dst] = vec[src]
    return tuple(out)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_canonicalize_is_idempotent(data):
    t = data.draw(st.sampled_from(_rank6_simple() + _rank6_products()))
    rep = _representative(t)
    assert _is_canonical(rep) and _canonical_key(rep) == _canonical_key(t)
    assert _is_canonical(t) == (t.factors == _canonical_key(t))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_canonical_key_is_invariant_under_diagram_automorphisms(data):
    t = data.draw(st.sampled_from(_rank6_simple()))
    key = _canonical_key(t)
    f = t.factors[0]
    for perm in diagram_automorphisms(f.lie_type):
        g = GradingElement(_image(perm, f.E.coeffs))
        img = evaluate_simple(f.lie_type, g, _image(perm, f.mu), t.level)
        assert (img.hodge, img.c, img.reality) == (t.hodge, t.c, t.reality)
        assert _canonical_key(img) == key
        assert _is_canonical(img) == (img.factors == key)

    p = data.draw(st.sampled_from(_rank6_products()))
    key = _canonical_key(p)
    groups = [diagram_automorphisms(f.lie_type) for f in p.factors]
    for perms in itertools.product(*groups):
        img = assemble([FactorSpec(f.lie_type, GradingElement(_image(perm, f.E.coeffs)),
                                   _image(perm, f.mu))
                        for f, perm in zip(p.factors, perms)], 3)
        assert (img.hodge, img.c, img.reality) == (p.hodge, p.c, p.reality)
        assert _canonical_key(img) == key
        assert _is_canonical(img) == (img.factors == key)


def test_accepted_vectors_match_fraction_oracle():
    """Every simple tuple of rank <= 8 at levels 1 and 3, and every tuple of
    the rank-8 product sweep, carries the vector that the Fraction oracle
    assembles from its joint ladder in its assembly case."""
    simple = [t for target in (1, 3)
              for t in enumerate_level(SearchConfig(max_rank=8, level=target))]
    prods = [t for t in enumerate_level(SearchConfig(max_rank=8, level=3,
                                                     include_products=True))
             if len(t.factors) > 1]
    assert (len(simple), len(prods)) == (287, 137)
    for t in simple + prods:
        ladder = convolve_eigen([eigenspace_dims(f.lie_type, f.mu, f.E) for f in t.factors])
        case = t.reality if t.level == 1 else COMPLEX if t.span < 3 else REAL
        assert hodge_vector_levels(ladder.levels, case, t.c, t.level) == t.hodge, record_of(t)


def _palindromic(dims):
    return dims == dims[::-1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_accepted_hodge_vectors_are_palindromic(data):
    target = data.draw(st.sampled_from((1, 3)))
    t, g, mu = data.draw(st.sampled_from(_rank6_candidates(target)))
    got = evaluate_simple(t, g, mu, target)
    if got is not None:
        assert _palindromic(got.hodge.dims)

    factors = data.draw(st.lists(st.sampled_from(_rank6_candidates(3)),
                                 min_size=2, max_size=3))
    try:
        p = assemble([FactorSpec(*f) for f in factors], 3)
    except ShapeError:
        p = data.draw(st.sampled_from(_rank6_products()))
    assert _palindromic(p.hodge.dims)


def test_dedupe_flag_keeps_canonical_only(capsys):
    """`classify --dedupe` filters the sweep's output: it prints the
    tuples the sweep marks canonical, in sweep order, and no other."""
    full = enumerate_level(SearchConfig(max_rank=5, level=3, families=frozenset("D")))
    assert main(["classify", "--level", "3", "--families", "D", "--max-rank", "5",
                 "--dedupe"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(json.dumps([record_of(t) for t in full if t.is_canonical]))
    assert 0 < len(printed) < len(full)


def test_verify_thm21_all_match():
    rep = verify_paper(scope="thm2.1", max_rank=8)
    assert len(rep.matches) == 12 and not rep.mismatches and not rep.paper_only


def test_verify_prop35_matches_include_e7():
    rep = verify_paper(scope="prop3.5", max_rank=8)
    assert len(rep.matches) == 8 and not rep.mismatches
    row = next(r for r in rep.matches if r.item == 8)
    inst = row.instances[0].instance
    assert inst.h == (1, 27, 27, 1)


def test_verify_prop33_item7_flagged():
    rep = verify_paper(scope="prop3.3", max_rank=6)
    flagged = {r.item for r in rep.mismatches}
    assert flagged == {7}
    row = next(r for r in rep.mismatches if r.item == 7)
    assert row.allowlisted
    for res in row.failing():
        r = res.instance.bindings["r"]
        (field, paper, computed), = res.diffs
        assert field == "h"
        assert computed == str([1, 2 * r, 2 * r, 1])


def _check_report_invariants(rep):
    """Each row lies in exactly one bucket, the bucket its status names,
    and each bucket keeps `rows` order; a row is paper_only exactly when
    it has no instance and a mismatch exactly when one instance has diffs;
    `ok` holds exactly when every mismatch has an allowlist reason."""
    position = {id(row): k for k, row in enumerate(rep.rows)}
    seen = Counter()
    for status, bucket in (("match", rep.matches), ("mismatch", rep.mismatches),
                           ("paper_only", rep.paper_only)):
        assert all(row.status == status for row in bucket)
        places = [position[id(row)] for row in bucket]
        assert places == sorted(places)
        seen.update(places)
    assert seen == Counter(range(len(rep.rows)))
    for row in rep.rows:
        assert (row.status == "paper_only") == (row.instances == [])
        assert (row.status == "mismatch") == any(inst.diffs for inst in row.instances)
        assert row.failing() == [inst for inst in row.instances
                                 if inst.status == "mismatch"]
        assert row.allowlisted == (row.allowlist_reason is not None)
    assert rep.ok == all(row.allowlist_reason is not None for row in rep.mismatches)


@pytest.mark.parametrize("scope,max_rank", [("all", 8), ("all", 2)] + [
    (name, 8) for name in load_expected().table_names("all")])
def test_report_buckets_are_read_off_its_rows(scope, max_rank):
    """At rank 2 six rows have no instance, so all three buckets fill."""
    rep = verify_paper(scope=scope, max_rank=max_rank)
    _check_report_invariants(rep)
    assert rep.ok
    if max_rank == 2:
        assert len(rep.paper_only) == 6


def test_report_invariants_with_a_mismatch_outside_the_allowlist(tmp_path):
    """A wrong printed c on thm2.1 item 1 is a mismatch no allowlist entry
    covers, so the report is not ok, and neither is one whose allowlist
    loses prop3.9 item 4."""
    raw = json.loads(json.dumps(load_expected().raw))
    raw["tables"]["thm2.1"]["items"][0]["c"] = "7"
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    rep = verify_paper(max_rank=8, expected_path=str(path))
    _check_report_invariants(rep)
    assert not rep.ok
    assert [(r.table, r.item) for r in rep.mismatches if not r.allowlisted] == [("thm2.1", 1)]

    raw = json.loads(json.dumps(load_expected().raw))
    raw["allowlist"] = [e for e in raw["allowlist"]
                        if (e["table"], e["item"]) != ("prop3.9", 4)]
    path.write_text(json.dumps(raw))
    rep = verify_paper(scope="prop3.9", max_rank=8, expected_path=str(path))
    _check_report_invariants(rep)
    assert not rep.ok and {r.item for r in rep.mismatches} == {4, 5}


@pytest.mark.parametrize("labels,diffs", [
    (["su(1,1)", None], []),
    ([None, "su(1,1)"], []),
    ([None, None], []),
    (["su(1,1)", "su(1,1)"], []),
    (["su(2,1)", None], [("real_form", "su(2,1)", "su(1,1)+su(1,1)")]),
    (["su(1,1)", "su(2,1)"], [("real_form", "su(1,1)+su(2,1)", "su(1,1)+su(1,1)")]),
    (["su(1,1)"], [("real_form", "su(1,1)", "su(1,1)+su(1,1)")]),
], ids=["first-named", "second-named", "none-named", "both-named", "wrong-named",
        "one-wrong", "short-list"])
def test_a_null_real_form_label_leaves_its_factor_unchecked(tmp_path, labels, diffs):
    """prop3.9 item 1 is A1 x A1 with labels su(1,1) and su(1,1).  With a
    null entry the named labels need only be among the computed ones; a
    fully named list is compared whole, as a multiset."""
    raw = json.loads(json.dumps(load_expected().raw))
    raw["tables"]["prop3.9"]["items"][0]["real_form"] = labels
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    rep = verify_paper(scope="prop3.9", max_rank=6, expected_path=str(path))
    row = next(r for r in rep.rows if r.item == 1)
    assert [inst.diffs for inst in row.instances] == [diffs]


def test_verify_unknown_scope():
    with pytest.raises(ValueError):
        verify_paper(scope="prop9.9")


def test_expected_file_override(tmp_path):
    bad = tmp_path / "expected.json"
    bad.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        verify_paper(scope="all", expected_path=str(bad))


def test_computed_only_reports_spin_families():
    rep = verify_paper(scope="thm2.1", max_rank=6)
    extras = {coverage_key(t) for t in rep.computed_only}
    assert ((LieType("D", 5), (1,), fundamental(5, 5)),) in extras
    assert ((LieType("D", 6), (1,), fundamental(6, 6)),) in extras


def test_table_pattern_order_does_not_scope_computed_only(tmp_path):
    """A table's factor-level pattern is a multiset: written [2, 1], the
    prop3.9 scope keeps the same 2 computed_only products at rank 8 and
    the same row statuses as the packaged [1, 2]."""
    raw = json.loads(json.dumps(load_expected().raw))
    for meta in raw["tables"].values():
        if "pattern" in meta:
            meta["pattern"] = meta["pattern"][::-1]
    assert raw["tables"]["prop3.9"]["pattern"] == [2, 1]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    packaged = verify_paper(scope="prop3.9", max_rank=8)
    reversed_ = verify_paper(scope="prop3.9", max_rank=8, expected_path=str(path))
    assert len(packaged.computed_only) == 2
    assert reversed_.computed_only == packaged.computed_only
    assert ([(r.item, r.status) for r in reversed_.rows]
            == [(r.item, r.status) for r in packaged.rows])


def _row_checks(rep):
    return {(row.table, row.item): [(r.instance, r.status, r.diffs) for r in row.instances]
            for row in rep.rows}


@pytest.mark.parametrize("max_rank", (4, 8, 12))
@pytest.mark.parametrize("scope", ("all",) + expected._ALL_TABLES)
def test_row_checks_match_the_assembly_oracle(scope, max_rank):
    """Looking each instance up in the enumerated window gives every row
    instance the status and diffs that assembling it on its own gives."""
    rep = verify_paper(scope=scope, max_rank=max_rank)
    assert _row_checks(rep) == row_checks_assembled(scope, max_rank)


@pytest.mark.parametrize("max_rank", (4, 8, 12))
@pytest.mark.parametrize("scope", ("all",) + expected._ALL_TABLES)
def test_row_checks_without_enumeration_match_the_assembly_oracle(scope, max_rank):
    """Without computed_only every instance is assembled from the run's
    summary table, and gets the status and diffs that one `assemble` of
    it gives."""
    rep = verify_paper(scope=scope, max_rank=max_rank, include_computed_only=False)
    assert _row_checks(rep) == row_checks_assembled(scope, max_rank)


def _row_assemblies(monkeypatch):
    """The factor keys of every assembly that `classify` makes itself, that
    is from the row checks (the sweeps assemble inside `products`), in call
    order."""
    keys = []
    real = classify.assemble_summaries

    def counting(summaries, level_n):
        keys.append(tuple(sorted((s.factor.lie_type, s.factor.E.support, s.factor.mu)
                                 for s in summaries)))
        return real(summaries, level_n)

    monkeypatch.setattr(classify, "assemble_summaries", counting)
    return keys


@pytest.mark.parametrize("max_rank", (8, 16))
def test_row_checks_assemble_only_what_the_window_lacks(monkeypatch, max_rank):
    """With computed_only the enumerated window holds every row instance
    but prop3.9 item 4 (factor levels 1 and 4), which the rule rejects, so
    that is the one instance the row checks assemble."""
    keys = _row_assemblies(monkeypatch)
    rep = verify_paper(max_rank=max_rank)
    item4, = instantiate("prop3.9", load_expected(), max_rank)[4]
    assert keys == [item4.key]
    row = next(r for r in rep.mismatches if (r.table, r.item) == ("prop3.9", 4))
    assert row.allowlisted and row.instances[0].diffs[0][0] == "validity"


def test_row_checks_without_computed_only_summarise_each_factor_once(monkeypatch):
    """Without computed_only the 1,372 row instances at max_rank 14 use
    1,948 factors, 713 of them distinct: one grading element and one
    summary each, with one level and one reality type, and a ladder and a
    real form for all but the level-4 D4 factor of prop3.9 item 4, which
    the rule rejects first.  Building them per factor use took 1,948
    grading elements and 1,946 real forms.  A second run builds its own
    summaries."""
    seen = _factor_work(monkeypatch)
    real_from_nodes = GradingElement.from_nodes

    def from_nodes(*args):
        seen["from_nodes"] += 1
        return real_from_nodes(*args)

    monkeypatch.setattr(GradingElement, "from_nodes", staticmethod(from_nodes))
    rep = verify_paper(max_rank=14, include_computed_only=False)
    checks = [r for row in rep.rows for r in row.instances]
    assert (len(checks), sum(len(r.instance.factors) for r in checks)) == (1372, 1948)
    assert len({f for r in checks for f in r.instance.factors}) == 713
    work = {"from_nodes": 713, "summaries": 713, "level": 713, "reality_type": 713,
            "mu_of_grading": 712, "eigen_ladder": 712, "real_form": 712}
    assert seen == work
    verify_paper(max_rank=14, include_computed_only=False)
    assert seen == {name: 2 * n for name, n in work.items()}


def test_one_touched_root_pass_per_closed_form_ladder(monkeypatch):
    """Each closed-form ladder is one `weyl_levi_dims` pass, whose bottom
    end is mu's Levi product off sigma(E), read from the same roots: 712
    passes for the row checks without computed_only at max_rank 14 and 272
    for a verify run at max_rank 8, where a second pass for mu* whenever
    mu* != mu made 1,298 and 466."""
    calls = []
    real = repweights.weyl_levi_dims

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (repweights, hodgecore):
        monkeypatch.setattr(module, "weyl_levi_dims", counting)
    verify_paper(max_rank=14, include_computed_only=False)
    assert len(calls) == 712
    calls.clear()
    verify_paper(max_rank=8)
    assert len(calls) == 272


def test_each_key_is_assembled_once_per_verify_run(monkeypatch):
    """The row checks assemble each distinct (level, key) at most once per
    run: 1,145 `assemble_summaries` calls for the 1,372 row instances
    without computed_only at max_rank 14, one per distinct key, where one
    per instance made 1,372."""
    calls = []
    real = classify.assemble_summaries

    def counting(summaries, level_n):
        calls.append(level_n)
        return real(summaries, level_n)

    monkeypatch.setattr(classify, "assemble_summaries", counting)
    rep = verify_paper(max_rank=14, include_computed_only=False)
    tables = load_expected()
    keys = {(tables.level_of(row.table), inst.instance.key)
            for row in rep.rows for inst in row.instances}
    assert sum(row.n_instances for row in rep.rows) == 1372
    assert len(calls) == len(keys) == 1145


def test_computed_only_reads_levels_of_uncovered_products_only(monkeypatch):
    """The computed_only filter asks coverage before the span class and
    reads a product's factor levels once: `verify-paper --scope all` makes
    4 `level` calls in classify, one per factor of its two uncovered
    products, at rank 8 and at rank 32 alike, where reading every
    enumerated product once per pattern table made 315 and 4,299."""
    calls = []
    real = classify.level

    def counting(t, mu, E):
        calls.append((t, tuple(mu), E))
        return real(t, mu, E)

    monkeypatch.setattr(classify, "level", counting)
    for max_rank in (8, 32):
        calls.clear()
        rep = verify_paper(scope="all", max_rank=max_rank)
        products = [t for t in rep.computed_only if len(t.factors) > 1]
        assert Counter(calls) == Counter((f.lie_type, tuple(f.mu), f.E)
                                         for t in products for f in t.factors)
        assert len(calls) == 4


def test_sweeps_summarise_each_candidate_once(monkeypatch):
    """A sweep summarises each candidate once and assembles its simple and
    product tuples from those summaries; a verify run's sweeps and row
    checks share one table: at rank 8 that is 446 summaries and 272
    ladders, where one table per route built 586 and 319.  Each of the
    272 distinct factors of the enumerated tuples builds its real form
    and its canonical mark once, where annotating and assembling each
    tuple's factors built 562 of each."""
    seen = _factor_work(monkeypatch)
    enumerate_level(SearchConfig(max_rank=8, level=3, include_products=True))
    n = sum(1 for t in _types_in_window("ABCDEFG", 8) for _ in candidates(t, 3))
    assert seen["summaries"] == n == 311
    seen.clear()
    verify_paper(max_rank=8)
    work = dict(seen)
    distinct = {f for lv in (1, 3) for t in enumerate_level(SearchConfig(
        max_rank=8, level=lv, include_products=lv == 3)) for f in t.factors}
    assert (work["summaries"], work["eigen_ladder"]) == (446, 272)
    assert work["real_form"] == work["diagram_automorphisms"] == len(distinct) == 272


def _first_instance(key, max_rank):
    """The first row instance, in table order, that names `key`."""
    tables = load_expected()
    return next(inst for name in tables.table_names("all")
                for instances in instantiate(name, tables, max_rank).values()
                for inst in instances if inst.key == key)


# E7 of prop3.5 item 8, and the A1 x A1 x A1 of prop3.11 item 1
_E7 = ((LieType("E", 7), (7,), (0, 0, 0, 0, 0, 0, 1)),)
_A1_CUBED = ((LieType("A", 1), (1,), (1,)),) * 3


@pytest.mark.parametrize("key", (_E7, _A1_CUBED), ids=["simple", "product"])
def test_verify_checks_window_completeness(monkeypatch, key):
    """A window that lacks a tuple some row names ends the run with a
    ConsistencyError naming the table, the item and the candidate, which
    the command line reports with exit 64."""
    inst = _first_instance(key, 8)
    real = classify.enumerate_level
    monkeypatch.setattr(classify, "enumerate_level", lambda config, table=None: [
        t for t in real(config, table) if coverage_key(t) != key])
    with pytest.raises(ConsistencyError, match=re.escape(inst.describe())):
        verify_paper(max_rank=8)
    assert main(["verify-paper", "--max-rank", "8"]) == 64


def test_window_completeness_check_survives_optimize():
    inst = _first_instance(_E7, 8)
    code = ("import hodgerep.classify as classify\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.rootdata import LieType\n"
            "real = classify.enumerate_level\n"
            "classify.enumerate_level = lambda config, table=None: [\n"
            f"    t for t in real(config, table) if classify.coverage_key(t) != {_E7!r}]\n"
            "try:\n"
            "    classify.verify_paper(max_rank=8)\n"
            "except ConsistencyError as exc:\n"
            "    print(exc)\n")
    assert inst.describe() in _run_optimized(code)


def test_rows_outside_the_window_fall_back_to_assembly(tmp_path):
    """A row instance the enumerated window cannot hold is assembled and
    checked without a completeness error: prop3.3 item 12 is D5 at
    max_rank 4, and a product row in a table without a pattern sits in a
    level-3 window without products."""
    rep = verify_paper(scope="prop3.3", max_rank=4)
    row = next(r for r in rep.rows if r.item == 12)
    (t, _, _), = row.instances[0].instance.factors
    assert (t.family, t.rank, row.status) == ("D", 5, "match")

    raw = json.loads(json.dumps(load_expected().raw))
    product = dict(raw["tables"]["prop3.11"]["items"][0], item=99)
    raw["tables"]["prop3.1"]["items"].append(product)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    rep = verify_paper(scope="prop3.1", max_rank=8, expected_path=str(path))
    row = next(r for r in rep.rows if r.item == 99)
    assert row.status == "match" and row.instances[0].instance.key == _A1_CUBED


def test_rows_that_name_one_key_are_compared_on_their_own(tmp_path, monkeypatch):
    """Rows that name one key share its assembly, or its rejection, but
    not its comparison: thm2.1 item 1 at r = 2, i = 1 (A2, omega_1) copied
    as item 98 with another h and c gets its own diffs, the plain copy 99
    matches, and two copies at mu = 5 omega_1, which the rule rejects,
    each get their own validity diff; with the window enumerated or not,
    each key is assembled at most once."""
    raw = json.loads(json.dumps(load_expected().raw))
    items = raw["tables"]["thm2.1"]["items"]
    one = dict(items[0], params={"r": {"min": 2, "max": 2}, "i": {"min": 1, "max": 1}})
    other = json.loads(json.dumps(dict(one, item=98, c="0")))
    for case in other["cases"]:
        case["h"] = ["1", "1"]
    rejected = json.loads(json.dumps(one))
    rejected["factors"][0]["mu"] = [["i", 5]]
    items += [other, dict(one, item=99), dict(rejected, item=96), dict(rejected, item=97)]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    calls = []
    real = classify.assemble_summaries

    def counting(summaries, level_n):
        calls.append([s.key for s in summaries])
        return real(summaries, level_n)

    monkeypatch.setattr(classify, "assemble_summaries", counting)
    for computed_only in (False, True):
        calls.clear()
        rep = verify_paper(scope="thm2.1", max_rank=2, expected_path=str(path),
                           include_computed_only=computed_only)
        rows = {row.item: row for row in rep.rows}
        got = {item: [(inst.instance.item, inst.status, inst.diffs)
                      for inst in rows[item].instances] for item in (96, 97, 98, 99)}
        assert got == {
            96: [(96, "mismatch", [("validity", "valid level-1 tuple", "rejected")])],
            97: [(97, "mismatch", [("validity", "valid level-1 tuple", "rejected")])],
            98: [(98, "mismatch", [("h", "[1, 1]", "[3, 3]"), ("c", "0", "-1/6")])],
            99: [(99, "match", [])],
        }
        assert rows[1].status == "match"
        assert len(calls) == len(set(map(tuple, calls))) > 0


def test_row_division_is_exact(tmp_path):
    """`/` and `**` on ints stay exact: "c": "1/3" is 1/3, not its float,
    and the real-case h of thm2.1 items 1 and 2 is exact above 2**53."""
    raw = json.loads(json.dumps(load_expected().raw))
    raw["tables"]["thm2.1"]["items"][0]["c"] = "1/3"
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    got = instantiate("thm2.1", load_expected(str(path)), 2)[1]
    assert {inst.c for inst in got} == {Fraction(1, 3)}

    text = "(binom(r,i-1)+binom(r,i))/2"
    assert text in raw["tables"]["thm2.1"]["items"][0]["cases"][2]["h"]
    h = expected._compile(text, ["r", "i"], "thm2.1 item 1", "h", {})
    value, = h({"r": [Fraction(60)], "i": [Fraction(30)]}, 1)
    assert value == (math.comb(60, 29) + math.comb(60, 30)) // 2 > 2 ** 53
    power = expected._compile("2**-2 + binom(r,2)**-1", ["r"], "w", "c", {}, Fraction)
    assert power({"r": [Fraction(5)]}, 1) == [Fraction(1, 4) + Fraction(1, 10)]


def _no_orbit_ladder(*args, **kwargs):
    raise AssertionError("a sweep built an orbit ladder")


def test_sweeps_build_no_orbit_ladder(monkeypatch):
    """The assembly rule rejects every candidate of span above 3, and every
    span-3 candidate that is not real, before its ladder is built; so every
    ladder a sweep or a verify run builds is the Levi closed form, and no
    size guard is needed on them.  Every swept tuple holds what its printed
    row holds: its Hodge numbers as a tuple of ints and one real-form
    label, a str, per factor."""
    monkeypatch.setattr(hodgecore, "_orbit_ladder", _no_orbit_ladder)
    for cfg in (SearchConfig(max_rank=12, level=1),
                SearchConfig(max_rank=12, level=3, include_products=True)):
        results = enumerate_level(cfg)
        assert results
        for t in results:
            assert type(t.hodge.dims) is tuple, t
            assert all(type(h) is int for h in t.hodge.dims), t
            assert len(t.real_forms) == len(t.factors), t
            assert all(type(label) is str for label in t.real_forms), t
    assert verify_paper(max_rank=12).ok


def test_level1_sweep_crosses_the_old_size_ceiling():
    """At rank 22 the level-1 sweep holds A22, omega_10 (dimension
    1,144,066) and B20 spin (2^20), which the former size guard of 10^6
    stopped; every vector fills V_C, of dimension weyl_dim in the real case
    (V_C = U) and 2 weyl_dim otherwise (V_C = U + U*)."""
    results = enumerate_level(SearchConfig(max_rank=22, level=1))
    assert find(results, "A", 22, [1], fundamental(22, 10)) is not None
    assert find(results, "B", 20, [1], fundamental(20, 20)) is not None
    for t in results:
        f = t.factors[0]
        dim = weyl_dim(f.lie_type, f.mu)
        assert sum(t.hodge.dims) == (dim if t.reality == REAL else 2 * dim), f
    assert max(weyl_dim(t.factors[0].lie_type, t.factors[0].mu) for t in results) > 10 ** 6
