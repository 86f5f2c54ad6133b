import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hodgerep.products as products
from hodgerep.classify import (SearchConfig, _factor_keys, _types_in_window, candidates,
                               enumerate_level)

from hodgerep.errors import ShapeError
from hodgerep.hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    GradingElement,
    extremal_dim_is_one,
    hodge_vector,
    level,
    reality_type,
)
from hodgerep.products import (
    FactorSpec,
    SummaryTable,
    assemble,
    convolve_eigen,
    product_tuples,
    tensor_reality,
)
from hodgerep.rootdata import LieType, dual_weight, mu_plus_mu_star_closed_form

from oracles import annotate_canonical, convolve_levels, eigenspace_dims, products_brute

E = GradingElement.from_nodes


def dec(top, *dims):
    return EigenDecomp(Q(top), dims)


def test_convolution_examples():
    assert convolve_eigen([dec(1, 1, 1), dec(1, 1, 4, 1)]) == dec(2, 1, 5, 5, 1)
    assert convolve_eigen([dec(1, 1, 1), dec(1, 1, 1, 1)]) == dec(2, 1, 2, 2, 1)
    assert convolve_eigen([dec(1, 1, 1)] * 3) == dec(3, 1, 3, 3, 1)


def _random_decomp(rng):
    n = rng.randint(1, 4)
    start = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return EigenDecomp(start, tuple(rng.randint(1, 5) for _ in range(n)))


def test_convolution_conserves_dimension():
    rng = random.Random(20240811)
    for _ in range(50):
        a, b = _random_decomp(rng), _random_decomp(rng)
        conv = convolve_eigen([a, b])
        assert sum(conv.dims) == sum(a.dims) * sum(b.dims)


def test_convolution_commutative_associative():
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (_random_decomp(rng) for _ in range(3))
        assert convolve_eigen([a, b]).levels == convolve_eigen([b, a]).levels
        assert convolve_eigen([convolve_eigen([a, b]), c]).levels == \
            convolve_eigen([a, convolve_eigen([b, c])]).levels
        assert convolve_eigen([a, b, c]).levels == \
            convolve_eigen([convolve_eigen([a, b]), c]).levels


def _convolution(fn, decomps):
    try:
        return fn(decomps)
    except ValueError as exc:
        return str(exc)


@st.composite
def _ladder(draw):
    top = draw(st.fractions(-4, 4, max_denominator=4))
    return EigenDecomp(top, tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))))


@settings(max_examples=150)
@given(st.lists(_ladder(), min_size=1, max_size=4))
def test_convolution_matches_fraction_oracle(decomps):
    got = _convolution(convolve_eigen, decomps)
    want = _convolution(convolve_levels, [d.levels for d in decomps])
    assert (got.levels if isinstance(got, EigenDecomp) else got) == want


def test_tensor_reality_table():
    assert tensor_reality([REAL, REAL]) == REAL
    assert tensor_reality([QUATERNIONIC, QUATERNIONIC]) == REAL
    assert tensor_reality([REAL, QUATERNIONIC]) == QUATERNIONIC
    assert tensor_reality([COMPLEX, REAL]) == COMPLEX
    assert tensor_reality([COMPLEX, QUATERNIONIC, REAL]) == COMPLEX
    assert tensor_reality([REAL, REAL, REAL]) == REAL
    assert tensor_reality([QUATERNIONIC, QUATERNIONIC, QUATERNIONIC]) == QUATERNIONIC


SL2 = FactorSpec(LieType("A", 1), E(1, [1]), (1,))


def test_combine_examples():
    so8 = FactorSpec(LieType("D", 4), E(4, [1]), (1, 0, 0, 0))
    p = assemble([SL2, so8], 3)
    assert p.hodge.dims == (1, 7, 7, 1) and p.reality == REAL and p.c == 0

    so7 = FactorSpec(LieType("B", 3), E(3, [1]), (1, 0, 0))
    p = assemble([SL2, so7], 3)
    assert p.hodge.dims == (1, 6, 6, 1)

    p = assemble([SL2, SL2, SL2], 3)
    assert p.hodge.dims == (1, 3, 3, 1) and p.reality == REAL and p.c == 0


def test_combine_level_charge():
    # sl(2) x sl(r2+1): the factor tops 1/2 and r2/(r2+1), of different
    # denominators, add to the product's top, and c = 3/2 - 1/2 - r2/(r2+1)
    # puts it at 3/2, where U + U* folds
    for r2 in range(2, 5):
        f2 = FactorSpec(LieType("A", r2), E(r2, [1]), (1,) + (0,) * (r2 - 1))
        p = assemble([SL2, f2], 3)
        assert p.c == Q(3, 2) - Q(1, 2) - Q(r2, r2 + 1)
        assert p.hodge.dims == (1, 1 + 2 * r2, 1 + 2 * r2, 1)
        assert p.reality == COMPLEX
        ladder = convolve_eigen([eigenspace_dims(f.lie_type, f.mu, f.E) for f in (SL2, f2)])
        assert ladder.top == Q(1, 2) + Q(r2, r2 + 1)
        assert hodge_vector(ladder, COMPLEX, p.c, 3) == p.hodge


def test_combine_rejects_noncanonical_patterns():
    span1_real = SL2
    span1_cplx = FactorSpec(LieType("A", 2), E(2, [1]), (1, 0))
    span2_real = FactorSpec(LieType("B", 2), E(2, [1]), (1, 0))
    span2_quat = FactorSpec(LieType("C", 2), E(2, [1]), (1, 0))
    span3_real = FactorSpec(LieType("C", 3), E(3, [3]), (0, 0, 1))
    span4 = FactorSpec(LieType("D", 4), E(4, [3]), (0, 0, 2, 0))

    assert level(span3_real.lie_type, span3_real.mu, span3_real.E) == 3
    assert level(span4.lie_type, span4.mu, span4.E) == 4

    accepted = {(1, 1), (1, 2), (1, 1, 1)}
    pool = {1: span1_cplx, 2: span2_real, 3: span3_real, 4: span4}
    for sizes in list(itertools.combinations_with_replacement((1, 2, 3, 4), 2)) + \
            list(itertools.combinations_with_replacement((1, 2, 3, 4), 3)):
        factors = [pool[s] for s in sizes]
        if tuple(sorted(sizes)) in accepted:
            continue
        with pytest.raises(ShapeError):
            assemble(factors, 3)

    # the accepted patterns do build, with compatible reality choices
    assert assemble([span1_real, span1_cplx], 3).hodge.dims == (1, 5, 5, 1)
    assert assemble([span1_real, span2_real], 3).hodge.dims == (1, 4, 4, 1)
    assert assemble([span1_real] * 3, 3).hodge.dims == (1, 3, 3, 1)


def test_combine_reality_constraints():
    # 1+1 with joint real type stays level 2: rejected
    with pytest.raises(ShapeError):
        assemble([SL2, SL2], 3)
    # 1+2 with quaternionic second factor: joint quaternionic, rejected
    span2_quat = FactorSpec(LieType("C", 2), E(2, [1]), (1, 0))
    assert reality_type(span2_quat.lie_type, span2_quat.mu, span2_quat.E) == QUATERNIONIC
    with pytest.raises(ShapeError):
        assemble([SL2, span2_quat], 3)
    # 1+2 with complex second factor: rejected
    span2_cplx = FactorSpec(LieType("A", 3), E(3, [1, 2]), (1, 0, 0))
    with pytest.raises(ShapeError):
        assemble([SL2, span2_cplx], 3)


def test_combine_requires_extremal_factors():
    bad = FactorSpec(LieType("B", 2), E(2, [2]), (1, 0))  # support(mu) not in support(E)
    with pytest.raises(ShapeError):
        assemble([SL2, bad], 3)


def test_joint_reality_matches_concatenated_parity_test():
    """tensor_reality equals the parity test on the concatenated diagram."""
    candidates = [
        FactorSpec(LieType("A", 1), E(1, [1]), (1,)),
        FactorSpec(LieType("A", 1), E(1, [1]), (2,)),
        FactorSpec(LieType("A", 2), E(2, [1]), (1, 0)),
        FactorSpec(LieType("B", 2), E(2, [1]), (1, 0)),
        FactorSpec(LieType("C", 2), E(2, [1]), (1, 0)),
        FactorSpec(LieType("B", 3), E(3, [1]), (0, 0, 1)),
        FactorSpec(LieType("C", 3), E(3, [3]), (0, 0, 1)),
    ]
    for combo in itertools.combinations_with_replacement(candidates, 2):
        joint = tensor_reality(
            [reality_type(f.lie_type, f.mu, f.E) for f in combo])
        # concatenated diagram: self-dual iff all factors self-dual; parity adds
        if any(tuple(f.mu) != dual_weight(f.lie_type, f.mu) for f in combo):
            expected = COMPLEX
        else:
            parity = 0
            for f in combo:
                rc = mu_plus_mu_star_closed_form(f.lie_type, f.mu)
                contrib = sum(rc[j] for j in range(f.lie_type.rank)
                              if f.E.coeffs[j] == 0)
                assert contrib.denominator == 1
                parity += int(contrib)
            expected = QUATERNIONIC if parity % 2 else REAL
        assert joint == expected, combo


def test_combine_messages():
    span1_cplx = FactorSpec(LieType("A", 2), E(2, [1]), (1, 0))
    span2_real = FactorSpec(LieType("B", 2), E(2, [1]), (1, 0))
    span2_quat = FactorSpec(LieType("C", 2), E(2, [1]), (1, 0))
    bad = FactorSpec(LieType("B", 2), E(2, [2]), (1, 0))
    cases = [
        ([SL2] * 4, "products need 2 or 3 simple factors"),
        ([SL2, bad], "factor (B2, A2, (1, 0)) has top eigenspace dimension > 1 "
                     "(support of mu not inside support of E)"),
        ([span2_real, span2_real], "factor levels [2, 2] cannot produce a level-3 "
                                   "product (allowed patterns: 1+1, 1+2, 1+1+1)"),
        ([SL2, SL2], "1+1 products with joint real type stay at level 2; "
                     "the tables keep only complex or quaternionic joint types"),
        ([SL2, span2_quat], "level pattern (1, 2) requires a real joint type, "
                            "got quaternionic"),
        ([span1_cplx, SL2, SL2], "level pattern (1, 1, 1) requires a real joint "
                                 "type, got complex"),
    ]
    for factors, message in cases:
        with pytest.raises(ShapeError, match="^" + re.escape(message) + "$"):
            assemble(factors, 3)


@pytest.mark.parametrize("coeffs", [(1,), (1, 0, 0)])
def test_assemble_rejects_grading_element_of_wrong_length(coeffs):
    """`assemble` hands the summary table each factor's support, so it
    checks the lengths first: on A2, an E with fewer or more coefficients
    than the rank raises rather than being rebuilt at the rank."""
    with pytest.raises(ValueError) as info:
        assemble([FactorSpec(LieType("A", 2), GradingElement(coeffs), (1, 0))], 3)
    assert str(info.value) == f"grading element length {len(coeffs)} != rank 2"


def test_zero_weight_is_refused_by_the_level_patterns():
    """A zero weight has span 0 on any E, and its top eigenspace is
    one-dimensional; the level patterns refuse it at both levels, alone or
    in a product, with no raise of its own."""
    zero = FactorSpec(LieType("A", 2), E(2, [1]), (0, 0))
    cases = [
        ([zero], 1, "factor levels [0] cannot produce a level-1 tuple "
                    "(allowed: one factor of level 1)"),
        ([zero], 3, "factor level 0 is outside 1..3"),
        ([zero, SL2], 3, "factor levels [1, 0] cannot produce a level-3 product "
                         "(allowed patterns: 1+1, 1+2, 1+1+1)"),
        ([zero, SL2, SL2], 3, "factor levels [1, 1, 0] cannot produce a level-3 "
                              "product (allowed patterns: 1+1, 1+2, 1+1+1)"),
    ]
    for factors, level_n, message in cases:
        with pytest.raises(ShapeError, match="^" + re.escape(message) + "$"):
            assemble(factors, level_n)


def _level3_pool(max_rank, spans=(1, 2, 3)):
    """The level-3 candidates of these spans of every type up to max_rank."""
    return [FactorSpec(t, E(t.rank, nodes), mu) for t in _types_in_window("ABCDEFG", max_rank)
            for nodes, mu, span in candidates(t, 3) if span in spans]


def _sweep(pool, level_n=3, max_factors=3):
    """`product_tuples` on the summaries of `pool`, in a table of their
    own, which returns them in FactorSpec.sort_key order."""
    return product_tuples(SummaryTable().summarise(_factor_keys(pool)), level_n, max_factors)


def _brute(pool, level_n=3, max_factors=3):
    """`products_brute` on `pool` in the order the sweep sees it, each
    tuple marked canonical by the per-tuple oracle."""
    return annotate_canonical(products_brute(sorted(pool, key=FactorSpec.sort_key),
                                             level_n, max_factors))


# (max_rank, spans, max_factors): every candidate with up to two factors
# at rank 8, every candidate alone and the span-1 and span-2 ones in pairs
# at rank 16, and the span-1 ones in triples at both
_BRUTE_WINDOWS = [(8, (1, 2, 3), 2), (8, (1,), 3),
                  (16, (1, 2, 3), 1), (16, (1, 2), 2), (16, (1,), 3)]


def test_product_sweep_matches_brute_oracle():
    """The rule-pruned sweep returns exactly what offering every multiset
    of 1 to max_factors pool factors to `assemble` at level 3 returns, in
    the same order, on pools of the rank-8 and rank-16 windows."""
    for max_rank, spans, max_factors in _BRUTE_WINDOWS:
        pool = _level3_pool(max_rank, spans)
        got = _sweep(pool, 3, max_factors)
        assert len(got) > 10
        assert got == _brute(pool, 3, max_factors), (max_rank, spans)


def _count_assembled(monkeypatch):
    """The sorted factor spans of every combination `assemble_summaries`
    is handed."""
    formed = []
    real = products.assemble_summaries

    def counting(summaries, level_n):
        formed.append(tuple(sorted(s.span for s in summaries)))
        return real(summaries, level_n)

    monkeypatch.setattr(products, "assemble_summaries", counting)
    return formed


def _count_rule(monkeypatch):
    """The arguments of every `_assembly_case` call."""
    asked = []
    real = products._assembly_case

    def counting(level_n, summaries):
        asked.append((level_n, tuple(s.key for s in summaries)))
        return real(level_n, summaries)

    monkeypatch.setattr(products, "_assembly_case", counting)
    return asked


@pytest.mark.parametrize("max_rank, accepted", [(8, 275), (16, 931)])
def test_product_sweep_forms_only_what_it_accepts(monkeypatch, max_rank, accepted):
    """Every combination the sweep forms is accepted: one
    `assemble_summaries` call per tuple a level-3 products sweep returns,
    simple or product.  The rule is asked inside those calls and once per
    multiset of 1 to 3 of the 8 (span, reality type, top flag) groups, 164
    in all, whatever the number of candidates."""
    formed = _count_assembled(monkeypatch)
    asked = _count_rule(monkeypatch)
    got = enumerate_level(SearchConfig(max_rank=max_rank, level=3, include_products=True))
    assert len(got) == len(formed) == accepted
    groups = {(level(f.lie_type, f.mu, f.E), reality_type(f.lie_type, f.mu, f.E),
               extremal_dim_is_one(f.mu, f.E)) for f in _level3_pool(max_rank)}
    multisets = sum(math.comb(len(groups) + k - 1, k) for k in (1, 2, 3))
    assert (len(groups), multisets) == (8, 164)
    assert len(asked) == accepted + multisets


def test_product_groups_come_from_the_rule(monkeypatch):
    """The sweep asks `_assembly_case` which groups to form, rather than a
    copy of the rule: with 1+2 also rejected it forms no 1+2 combination,
    and still returns what the brute oracle returns under that rule."""
    pool = _level3_pool(8, (1, 2))
    assert any(len(p.factors) == 2 and p.span == 3 for p in _sweep(pool))
    real = products._assembly_case

    def stricter(level_n, summaries):
        if sorted(s.span for s in summaries) == [1, 2]:
            raise ShapeError("1+2 rejected")
        return real(level_n, summaries)

    monkeypatch.setattr(products, "_assembly_case", stricter)
    formed = _count_assembled(monkeypatch)
    got = _sweep(pool, 3, 2)
    assert got and (1, 2) not in formed and len(formed) == len(got)
    assert got == _brute(pool, 3, 2)


def _rank6_factors():
    """Every level-1 and level-3 candidate of rank <= 6, as factors of any
    span, with or without a one-dimensional top eigenspace."""
    out = {}
    for t in _types_in_window("ABCDEFG", 6):
        for target in (1, 3):
            for nodes, mu, _ in candidates(t, target):
                out.setdefault((t, nodes, mu), FactorSpec(t, E(t.rank, nodes), mu))
    return list(out.values())


_FACTORS = _rank6_factors()
_SPAN2_QUAT = FactorSpec(LieType("C", 2), E(2, [1]), (1, 0))
_NOT_EXTREMAL = FactorSpec(LieType("A", 2), E(2, [1]), (0, 1))   # span 1


def test_rank6_factors_cover_every_reality_type():
    types = {reality_type(f.lie_type, f.mu, f.E) for f in _FACTORS}
    assert types == {REAL, COMPLEX, QUATERNIONIC}
    assert _SPAN2_QUAT in _FACTORS and _NOT_EXTREMAL in _FACTORS


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pool=st.lists(st.sampled_from(_FACTORS), max_size=6, unique=True),
       level_n=st.sampled_from([1, 3]), max_factors=st.integers(1, 3))
@example(pool=[SL2], level_n=3, max_factors=3)
@example(pool=[_SPAN2_QUAT, SL2], level_n=3, max_factors=2)     # no product accepted
@example(pool=[_NOT_EXTREMAL, SL2, _SPAN2_QUAT], level_n=3, max_factors=3)
@example(pool=[_NOT_EXTREMAL, SL2, _SPAN2_QUAT], level_n=1, max_factors=3)
def test_product_sweep_property(pool, level_n, max_factors):
    """On any pool of mixed-span factors, at level 1 or 3, the sweep
    returns what the brute oracle returns."""
    assert _sweep(pool, level_n, max_factors) == _brute(pool, level_n, max_factors)


def test_product_sweep_decomposes_each_factor_once(monkeypatch):
    seen = Counter()
    real = products.eigen_ladder

    def counting(t, mu, g, span, max_dim):
        seen[(t, tuple(mu), g)] += 1
        return real(t, mu, g, span, max_dim)

    monkeypatch.setattr(products, "eigen_ladder", counting)
    _sweep(_level3_pool(8))
    assert seen and max(seen.values()) == 1
