import json
import re

import pytest

from hodgerep.classify import (
    SearchConfig,
    candidates,
    canonicalize,
    coverage_key,
    diagram_automorphisms,
    enumerate_level,
    evaluate_simple,
    tuple_key,
    verify_paper,
)
from hodgerep.cli import main, record_of
from hodgerep.expected import load_expected
from hodgerep.hodgecore import (
    GradingElement,
    HodgeTuple,
    eigenspace_dims,
    extremal_dim_is_one,
    level,
)
from hodgerep.rootdata import LieType

from oracles import enumerate_level_brute

E = GradingElement.from_nodes


def fundamental(rank, i):
    return tuple(int(j == i - 1) for j in range(rank))


def find(results, family, rank, nodes, mu):
    for t in results:
        if isinstance(t, HodgeTuple) and t.algebra == LieType(family, rank) \
                and t.E.support == tuple(nodes) and t.mu == tuple(mu):
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


def test_canonicalize_examples():
    t = evaluate_simple(LieType("A", 4), E(4, [4]), fundamental(4, 4), 3)
    c = canonicalize(t)
    assert c.E.support == (1,) and c.mu == fundamental(4, 1)
    t = evaluate_simple(LieType("D", 5), E(5, [5]), fundamental(5, 5), 3)
    c = canonicalize(t)
    assert c.E.support == (4,) and c.mu == fundamental(5, 4)
    t = evaluate_simple(LieType("B", 3), E(3, [1]), fundamental(3, 3), 1)
    c = canonicalize(t)
    assert c.E.support == (1,) and c.mu == fundamental(3, 3)


def test_canonicalize_idempotent_and_invariant():
    res = enumerate_level(SearchConfig(max_rank=4, level=3,
                                       families=frozenset("ABCD"),
                                       include_products=True))
    for t in res:
        c = canonicalize(t)
        cc = canonicalize(c)
        assert tuple_key(c) == tuple_key(cc)
        assert c.hodge.dims == t.hodge.dims
        assert c.reality == t.reality
        assert c.c == t.c
        assert c.level == t.level


def test_d4_triality_orbit():
    perms = diagram_automorphisms(LieType("D", 4))
    assert len(perms) == 6
    # the six level-1 (E-node, mu-node) pairs on {1,3,4} form one orbit
    keys = set()
    for e_node, mu_node in [(3, 1), (4, 1), (1, 3), (4, 3), (1, 4), (3, 4)]:
        t = evaluate_simple(LieType("D", 4), E(4, [e_node]),
                            fundamental(4, mu_node), 1)
        assert t is not None, (e_node, mu_node)
        keys.add(canonicalize(t).canonical_key)
    assert len(keys) == 1


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
        if isinstance(t, HodgeTuple):
            top = eigenspace_dims(t.algebra, t.mu, t.E).dims[0]
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


def test_candidates_respect_level_bound():
    t = LieType("C", 3)
    for target in (1, 3):
        for g, mu, span in candidates(t, target):
            assert 1 <= span == level(t, mu, g) <= target
            if target == 3:
                assert extremal_dim_is_one(mu, g)
    spans = {(g.support, mu): s for g, mu, s in candidates(t, 3)}
    assert spans[((3,), (0, 0, 1))] == 3
    assert ((1,), (0, 0, 1)) not in spans   # supp(mu) outside supp(E)


def _set_factor(field, value):
    return lambda item: item["factors"][0].__setitem__(field, value)


def _drop_from_cases(field):
    return lambda item: [case.pop(field) for case in item["cases"]]


@pytest.mark.parametrize("mutate,message", [
    (_set_factor("family", ["A"]), "family must be a string"),
    (_set_factor("E", {"n": "1"}), "E must be a list"),
    (_set_factor("E", 1), "E must be a list"),
    (_set_factor("E", [{"n": 1}]), "E node must be a string or an integer"),
    (_set_factor("mu", [["r+1", 1]]), "mu node 2 outside 1..1"),
    (_set_factor("mu", [["0", 1]]), "mu node 0 outside 1..1"),
    (lambda item: item.pop("c"), "missing field 'c'"),
    (_drop_from_cases("h"), "missing field 'h'"),
    (_drop_from_cases("reality"), "missing field 'reality'"),
], ids=["list-family", "dict-E", "int-E", "dict-E-node", "mu-node-above-rank",
        "mu-node-0", "missing-c", "missing-h", "missing-reality"])
def test_malformed_expected_row_raises(tmp_path, mutate, message):
    tables = load_expected()
    raw = json.loads(json.dumps(tables.raw))
    mutate(raw["tables"]["thm2.1"]["items"][0])
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=r"thm2\.1 item 1: " + re.escape(message)):
        verify_paper(scope="thm2.1", max_rank=4, expected_path=str(path),
                     include_computed_only=False)
    assert main(["verify-paper", "--scope", "thm2.1", "--max-rank", "4",
                 "--expected-file", str(path)]) == 64


def test_dedupe_flag_keeps_canonical_only():
    cfg = SearchConfig(max_rank=5, level=3, families=frozenset("D"))
    full = enumerate_level(cfg)
    deduped = enumerate_level(SearchConfig(max_rank=5, level=3,
                                           families=frozenset("D"),
                                           dedupe_automorphisms=True))
    assert {tuple_key(t) for t in deduped} == \
        {tuple_key(t) for t in full if t.is_canonical}
    assert len(deduped) < len(full)


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
    assert (("D", 5, (1,), fundamental(5, 5)),) in extras
    assert (("D", 6, (1,), fundamental(6, 6)),) in extras
