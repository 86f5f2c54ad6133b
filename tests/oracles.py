"""Independent brute-force oracles used by the test suite.

Multiplicities here come from Kostant's formula: an alternating sum of
partition-function counts over the full Weyl group.  Nothing is shared
with the engine's Freudenthal/orbit path except the static root catalog.

The enumeration oracle is the exhaustive sweep the engine's level-bound
generator replaced: every dominant weight with coordinate sum <= 3
against every grading element, each classified by `evaluate_simple`, and
every span-1/span-2 extremal pair offered to `combine`.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, List, Tuple

from hodgerep.classify import SearchConfig, _annotate_canonical, evaluate_simple, tuple_key
from hodgerep.errors import ShapeError
from hodgerep.hodgecore import GradingElement, extremal_dim_is_one, level
from hodgerep.products import FactorSpec, combine
from hodgerep.rootdata import RANK_BOUNDS, LieType, root_system, weight_to_root_coords


def dominant_weights_up_to(rank: int, max_coord_sum: int) -> Iterator[Tuple[int, ...]]:
    """All dominant weights with 1 <= coordinate sum <= max_coord_sum."""

    def rec(pos: int, remaining: int, acc: Tuple[int, ...]):
        if pos == rank:
            if sum(acc) >= 1:
                yield acc
            return
        for c in range(remaining + 1):
            yield from rec(pos + 1, remaining - c, acc + (c,))

    yield from rec(0, max_coord_sum, ())


def enumerate_level_brute(config: SearchConfig) -> list:
    """`enumerate_level` by exhaustive sweep over every dominant weight
    with coordinate sum <= 3.  Complete for levels 1 and 3, since every
    node adds at least 1 to the span per unit of mu."""
    simple = []
    span1, span2 = [], []
    for fam in sorted(config.families):
        lo, hi = RANK_BOUNDS[fam]
        for r in range(lo, min(config.max_rank, hi or config.max_rank) + 1):
            t = LieType(fam, r)
            for mu in dominant_weights_up_to(r, 3):
                for size in range(1, min(r, config.level) + 1):
                    for nodes in itertools.combinations(range(1, r + 1), size):
                        E = GradingElement.from_nodes(r, nodes)
                        got = evaluate_simple(t, E, mu, config.level, config.max_dim)
                        if got is not None:
                            simple.append(got)
                        if config.include_products and config.level == 3 \
                                and extremal_dim_is_one(mu, E):
                            s = level(t, mu, E)
                            if s == 1:
                                span1.append(FactorSpec(t, E, mu))
                            elif s == 2:
                                span2.append(FactorSpec(t, E, mu))

    results = _annotate_canonical(simple)
    if config.include_products and config.level == 3:
        products = {}
        combos = itertools.chain(
            itertools.combinations_with_replacement(span1, 2),
            itertools.product(span1, span2),
            itertools.combinations_with_replacement(span1, 3))
        for factors in combos:
            try:
                p = combine(factors, max_dim=config.max_dim)
            except ShapeError:
                continue
            products.setdefault(tuple_key(p), p)
        results.extend(_annotate_canonical(products.values()))
    if config.dedupe_automorphisms:
        results = [t for t in results if t.is_canonical]
    results.sort(key=tuple_key)
    return results


def weyl_group(t: LieType) -> List[Tuple[Tuple[Tuple[int, ...], ...], int]]:
    """All Weyl group elements as integer matrices on fundamental coords,
    paired with their determinant sign.  Only sane for small groups."""
    rank = t.rank
    cartan = root_system(t).cartan

    def refl_matrix(i):
        # s_i(w)_j = w_j - w_i * cartan[i][j]; column i changes
        m = [[int(r == c) for c in range(rank)] for r in range(rank)]
        for j in range(rank):
            m[i][j] -= cartan[i][j]
        return tuple(tuple(row) for row in m)

    def mul(a, b):
        # (w A) B applied as row-vector matrices: compose b after a
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(rank))
            for i in range(rank)
        )

    identity = tuple(tuple(int(r == c) for c in range(rank)) for r in range(rank))
    gens = [refl_matrix(i) for i in range(rank)]
    seen = {identity: 1}
    frontier = [(identity, 1)]
    while frontier:
        nxt = []
        for m, sgn in frontier:
            for g in gens:
                prod = mul(m, g)
                if prod not in seen:
                    seen[prod] = -sgn
                    nxt.append((prod, -sgn))
        frontier = nxt
    return list(seen.items())


def _apply(m, w):
    rank = len(w)
    return tuple(sum(w[k] * m[k][j] for k in range(rank)) for j in range(rank))


@lru_cache(maxsize=None)
def _partition_count(t: LieType, target: Tuple[int, ...]) -> int:
    """Number of ways to write target (root coords) as a nonnegative
    integer combination of positive roots."""
    roots = root_system(t).positive_roots

    def rec(idx: int, remaining: Tuple[int, ...]) -> int:
        if all(x == 0 for x in remaining):
            return 1
        if idx == len(roots):
            return 0
        beta = roots[idx]
        total = 0
        rem = remaining
        while all(x >= 0 for x in rem):
            total += rec(idx + 1, rem)
            rem = tuple(a - b for a, b in zip(rem, beta))
        return total

    return rec(0, target)


def kostant_multiplicity(t: LieType, mu: Tuple[int, ...], lam: Tuple[int, ...]) -> int:
    """Multiplicity of the weight lam in V(mu) by Kostant's formula."""
    rank = t.rank
    rho = tuple([1] * rank)
    mu_rho = tuple(m + 1 for m in mu)
    lam_rho = tuple(l + 1 for l in lam)
    total = 0
    for m, sgn in weyl_group(t):
        shifted = _apply(m, mu_rho)
        diff = tuple(a - b for a, b in zip(shifted, lam_rho))
        rc = weight_to_root_coords(t, diff)
        if any(x.denominator != 1 or x < 0 for x in rc):
            continue
        total += sgn * _partition_count(t, tuple(int(x) for x in rc))
    return total
