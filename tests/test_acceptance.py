"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is exact (these are symbolic tables recomputed in
exact arithmetic), and each criterion carries its wall-clock budget.
"""
import itertools
import json
import time
from fractions import Fraction as Q

from hodgerep.classify import SearchConfig, enumerate_level, verify_paper
from hodgerep.cli import record_of
from hodgerep.hodgecore import GradingElement, extremal_dim_is_one, reality_type
from hodgerep.repweights import weight_system, weyl_dim
from hodgerep.rootdata import LieType, catalogued_types, dual_weight, mu_plus_mu_star_closed_form

from oracles import (
    dominant_weights_up_to,
    eigenspace_dims,
    full_weight_map,
    kostant_multiplicity,
    weight_to_root_coords,
)

E = GradingElement.from_nodes


def fundamental(rank, i):
    return tuple(int(j == i - 1) for j in range(rank))


def _report(n, elapsed, budget, text):
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {n} ({elapsed:.2f}s < {budget}s): {text}")


def test_criterion_1_closed_form_equivalence():
    t0 = time.time()
    checked = 0
    for t in catalogued_types(8):
        for i in range(1, t.rank + 1):
            w = fundamental(t.rank, i)
            closed = mu_plus_mu_star_closed_form(t, w)
            direct = tuple(
                a + b for a, b in zip(weight_to_root_coords(t, w),
                                      weight_to_root_coords(t, dual_weight(t, w))))
            assert closed == direct, (str(t), i)
            checked += 1
    _report(1, time.time() - t0, 5,
            f"closed form equals the inverse-Cartan route for {checked} "
            "fundamental weights across the full catalog (exact)")


def test_criterion_2_theorem_2_1():
    t0 = time.time()
    rep = verify_paper(scope="thm2.1", max_rank=8)
    assert len(rep.matches) == 12
    assert not rep.mismatches and not rep.paper_only
    n_instances = sum(r.n_instances for r in rep.matches)
    # the spin mod-4 reality pattern, independently of the table data
    for r in range(2, 9):
        got = reality_type(LieType("B", r), fundamental(r, r), E(r, [1]))
        assert got == ("real" if r % 4 in (1, 2) else "quaternionic"), r
    _report(2, time.time() - t0, 30,
            f"all 12 level-1 items match exactly over {n_instances} "
            "instantiations at rank <= 8, spin reality follows the mod-4 pattern")


def test_criterion_3_props_3_1_and_3_5():
    t0 = time.time()
    rep1 = verify_paper(scope="prop3.1", max_rank=8)
    assert len(rep1.matches) == 2 and not rep1.mismatches and not rep1.paper_only
    for row in rep1.matches:
        for res in row.instances:
            r = res.instance.bindings["r"]
            assert res.instance.c == Q(r + 3, 2 * (r + 1))
    rep5 = verify_paper(scope="prop3.5", max_rank=8)
    assert len(rep5.matches) == 8 and not rep5.mismatches and not rep5.paper_only

    spot = {
        (LieType("C", 3), (3,), fundamental(3, 3)): (1, 6, 6, 1),
        (LieType("A", 5), (3,), fundamental(5, 3)): (1, 9, 9, 1),
        (LieType("D", 6), (5,), fundamental(6, 5)): (1, 15, 15, 1),
        (LieType("E", 7), (7,), fundamental(7, 7)): (1, 27, 27, 1),
    }
    from hodgerep.classify import evaluate_simple
    for (t, nodes, mu), h in spot.items():
        got = evaluate_simple(t, E(t.rank, nodes), mu, 3)
        assert got is not None and got.hodge.dims == h and got.c == 0
    _report(3, time.time() - t0, 60,
            "props 3.1 and 3.5 match exactly, including the C3/A5/D6/E7 "
            "rows and the printed center charges")


def test_criterion_4_prop_3_3():
    t0 = time.time()
    rep = verify_paper(scope="prop3.3", max_rank=8)
    matched = {r.item for r in rep.matches}
    mismatched = {r.item for r in rep.mismatches}
    assert matched == {1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15}
    assert mismatched == {7}
    assert not rep.paper_only

    # item 7: every instance differs exactly in h, computed (1,2r,2r,1)
    row7 = next(r for r in rep.mismatches if r.item == 7)
    assert row7.allowlisted
    for res in row7.failing():
        r = res.instance.bindings["r"]
        (field, paper, computed), = res.diffs
        assert (field, computed) == ("h", str([1, 2 * r, 2 * r, 1]))

    # brute-force oracle confirmation of the so(2r+1) vector eigenspaces (r = 2)
    t = LieType("B", 2)
    mu = fundamental(2, 1)
    by_level = {}
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            lam = (k1, k2)
            m = kostant_multiplicity(t, mu, lam)
            if m:
                rc = weight_to_root_coords(t, tuple(a - b for a, b in zip(mu, lam)))
                ev = Q(1) - rc[0]  # eigenvalue under A1
                by_level[ev] = by_level.get(ev, 0) + m
    assert [by_level[k] for k in sorted(by_level, reverse=True)] == [1, 3, 1]

    # item 9 (the D_r analog): oracle value equals the printed vector, so the
    # row reconciles as a match; the allowlist records the verification
    row9 = next(r for r in rep.matches if r.item == 9)
    assert row9.allowlisted
    for res in row9.instances:
        r = res.instance.bindings["r"]
        d = eigenspace_dims(LieType("D", r), fundamental(r, 1), E(r, [1]))
        assert d.dims == (1, 2 * r - 2, 1)
        assert res.instance.h == (1, 2 * r - 1, 2 * r - 1, 1)

    # specific matched rows named by the criterion
    for row in rep.matches:
        if row.item in (1, 2):
            for res in row.instances:
                r = res.instance.bindings["r"]
                if r <= 6:
                    a = (r + 1) * (r + 2) // 2 - 1
                    assert res.instance.h == (1, a, a, 1)
        if row.item in (14, 15):
            assert row.instances[0].instance.h == (1, 26, 26, 1)
    _report(4, time.time() - t0, 30,
            "prop 3.3: items 1-6, 8, 10-15 match; item 7 mismatches as "
            "(1,2r,2r,1) per the oracle; item 9's printed values are "
            "oracle-confirmed correct (allowlisted, reconciles as a match)")


def test_criterion_5_products():
    t0 = time.time()
    rep7 = verify_paper(scope="prop3.7", max_rank=4)
    assert len(rep7.matches) == 3 and not rep7.mismatches
    for row in rep7.matches:
        for res in row.instances:
            b = res.instance.bindings
            a = b["r1"] + b["r2"] + b["r1"] * b["r2"]
            assert res.instance.h == (1, a, a, 1)

    rep9 = verify_paper(scope="prop3.9", max_rank=8)
    assert {r.item for r in rep9.matches} == {1, 2, 3, 6}
    assert {r.item for r in rep9.mismatches} == {4, 5}
    assert all(r.allowlisted for r in rep9.mismatches)
    row5 = next(r for r in rep9.mismatches if r.item == 5)
    assert any(g == "[1, 7, 7, 1]"
               for res in row5.failing() for f, e, g in res.diffs if f == "h")
    row4 = next(r for r in rep9.mismatches if r.item == 4)
    assert any(f == "validity" for res in row4.failing() for f, e, g in res.diffs)

    rep11 = verify_paper(scope="prop3.11", max_rank=4)
    assert len(rep11.matches) == 1 and not rep11.mismatches
    _report(5, time.time() - t0, 10,
            "prop 3.7 items 1-3 (r1,r2 <= 4), prop 3.9 items 1,2,3,6 and "
            "prop 3.11 match; prop 3.9 items 4,5 flagged with computed values")


def test_criterion_6_extremal_criterion_exhaustive():
    t0 = time.time()
    checked = 0
    for t in catalogued_types(4):
        for mu in dominant_weights_up_to(t.rank, 2):
            for size in range(1, t.rank + 1):
                for nodes in itertools.combinations(range(1, t.rank + 1), size):
                    g = E(t.rank, nodes)
                    top = eigenspace_dims(t, mu, g).dims[0]
                    assert extremal_dim_is_one(mu, g) == (top == 1), \
                        (str(t), mu, nodes)
                    checked += 1
    _report(6, time.time() - t0, 60,
            f"support criterion agrees with the top eigenspace dimension on "
            f"all {checked} (type, mu, E) candidates at rank <= 4")


def test_criterion_7_multiplicity_engine():
    t0 = time.time()
    t = LieType("A", 2)
    ws = weight_system(t, (1, 1))
    assert full_weight_map(t, (1, 1))[(0, 0)] == 2 and ws.dimension == 8
    compared = 0
    for family in ("A", "B", "G"):
        t = LieType(family, 2)
        for mu in dominant_weights_up_to(2, 2):
            for lam, m in sorted(full_weight_map(t, mu).items()):
                assert kostant_multiplicity(t, mu, lam) == m, (family, mu, lam)
                compared += 1
    suite = [
        (LieType("E", 6), fundamental(6, 1), 27),
        (LieType("E", 7), fundamental(7, 7), 56),
        (LieType("D", 6), fundamental(6, 6), 32),
        (LieType("B", 4), fundamental(4, 4), 16),
        (LieType("C", 3), fundamental(3, 3), 14),
        (LieType("F", 4), fundamental(4, 4), 26),
        (LieType("G", 2), fundamental(2, 1), 7),
        (LieType("A", 4), (0, 1, 0, 0), 10),
    ]
    for t, mu, dim in suite:
        assert weyl_dim(t, mu) == dim
        assert weight_system(t, mu).dimension == dim
    _report(7, time.time() - t0, 20,
            f"Freudenthal equals the Kostant oracle on {compared} rank-2 "
            "weights; multiplicity totals match the Weyl dimension on the "
            "cross-family suite (27, 56, 32, ...)")


def test_criterion_8_determinism_and_shape():
    t0 = time.time()
    cfg = SearchConfig(max_rank=4, level=3, families=frozenset("ABCDFG"),
                       include_products=True)
    first = enumerate_level(cfg)
    second = enumerate_level(cfg)
    bytes1 = json.dumps([record_of(t) for t in first]).encode()
    bytes2 = json.dumps([record_of(t) for t in second]).encode()
    assert bytes1 == bytes2

    cfg1 = SearchConfig(max_rank=5, level=1, families=frozenset("ABCD"))
    level1 = enumerate_level(cfg1)
    assert level1
    for t in itertools.chain(first, level1):
        dims = t.hodge.dims
        assert dims == tuple(reversed(dims))
        if t.level == 3:
            assert dims[0] == dims[3] == 1
    _report(8, time.time() - t0, 60,
            f"two classify runs are byte-identical ({len(first)} records); "
            "all vectors palindromic; every level-3 record has h0 = h3 = 1")
