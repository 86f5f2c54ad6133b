"""Independent brute-force oracles used by the test suite.

Multiplicities here come from Kostant's formula: an alternating sum of
partition-function counts over the full Weyl group.  Nothing is shared
with the engine's Freudenthal/orbit path except the static root catalog.

The eigenspace oracle is the full-map route the orbit-walk bucketing
replaced: every Weyl orbit expanded by all-node breadth-first search over
full simple reflections into one weight -> multiplicity map, which is
then grouped by eigenvalue.  It shares only the size guard and the
Freudenthal dominant multiplicities with the engine.  `eigenspace_dims`
is not an oracle: it is the engine's `eigen_ladder` with its span
computed first, for tests that hold only (type, mu, E).

The Weyl- and Levi-dimension oracles are the engine's former `weyl_dim`
and `levi_dim`: (mu + rho, beta) paired for every positive root at once,
multiplied whole for the Weyl dimension, and for the Levi dimension read
only at the roots of the Levi factor, which every root's support mask
picks; the engine now pairs only the roots that meet supp(mu), from the
type's per-node root lists, and reads the Levi dimension of mu* as mu's
off the dual nodes in the same pass (`weyl_levi_dims`), where the oracle
pairs mu* itself.

The positive-root oracle is the engine's former closure: every root
string's depth found by probing lowered tuples, where the engine now
carries each root's string depths from height to height.

The dense inverse oracle is the engine's former `_inverse`: fraction-free
Gauss-Jordan (Bareiss) on the whole n x 2n matrix [cartan | I], every row
combined or rescaled at every step, where the engine works in place in n x
n and keeps a row that no step has combined yet as it was given.

The root-data and level oracles are the engine's former `Fraction`
routes: Gauss-Jordan inversion of the Cartan matrix over `Fraction`, a
weight's simple-root coordinates read off that inverse, and level,
reality type and mu(E_ss) read off those coordinates, which the engine
now takes from its integer inverse and integer level matrix.

The enumeration oracle is the exhaustive sweep the engine's level-bound
generator replaced: every dominant weight with coordinate sum <= 3
against every grading element, each classified by `evaluate_simple` on
its own, and every span-1/span-2 extremal pair and span-1 triple offered
to `assemble` at level 3, where the engine judges one pool of summaries
by group through `products.product_tuples`.

The candidate oracle is the generator the short-list supports replaced:
every support of at most `level` nodes becomes a grading element, and the
node weights w_i = sum_{j in S} L[i][j] are summed over every node.

The product oracle is the sweep the per-factor summaries replaced: every
multiset of one to `max_factors` factors of one pool handed to `assemble`
whole, where the engine asks the rule once per multiset of (span, reality
type, top flag) groups.

The canonical-key oracle is the engine's former per-tuple annotation:
every factor of every tuple brought to its least image under the diagram
automorphisms as a new grading element and FactorSpec, and the tuple
compared whole with its canonical factors in canonical order, where the
engine marks a tuple canonical when each factor's summary is, a mark
built once per distinct factor from permuted coefficients.

The simple-candidate oracle is the engine's former second evaluation
route: span, reality type, case choice, center charge and ladder of one
factor computed beside the product assembly, which now covers a simple
candidate as its one-factor case.

The ladder oracles are the engine's former `Fraction`-keyed routes for
convolution and Hodge-vector assembly: eigenvalues as dict keys, summed
and re-sorted, on (eigenvalue, dimension) level tuples rather than the
engine's (top, dims) ladders.

The table-row oracle is the engine's former instantiation route: every
row expression handed to `eval` as source text at every binding, with no
grammar check, where the engine now checks and compiles each expression
once per row.

The row-check oracle is the engine's former reconciliation route: every
row instance handed to `assemble` on its own, where the engine now looks
each instance up in the enumerated window and assembles only the keys the
window lacks.

The orbit-route oracles are the engine's former Freudenthal and ladder
bodies: the recursion sums over every positive root, conjugates lambda +
k beta to the dominant chamber on every lookup and reads mu - lambda's
simple-root coordinates off the `Fraction` inverse, the dominant-weight
search builds mu minus every positive root before testing it, and the
ladder pairs every orbit element with the grading row, where the engine
now sums over one root per stabilizer orbit, conjugates each weight once
per call, carries mu - lambda's coordinates through its search, tests a
root's positive coordinates first, and counts depths along the orbit
walk.  The stabilizer-orbit oracle finds those orbits by breadth-first
search under the stabilizer's simple reflections, where the engine chains
each root to a higher one in a single pass.

The full-walk ladder oracle is the engine's former orbit-route ladder:
every Weyl orbit walked to its end under E alone by `orbit_walk`, the
engine's former generator, and bucketed by depth, where the engine now
walks E and sigma(E) = -w0(E) each to half the span and reads the lower
half of the ladder off the sigma(E) walks by d_k(mu, E) = d_(n-k)(mu,
sigma E).
"""
from __future__ import annotations

import itertools
import math
import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from hodgerep.classify import SearchConfig, evaluate_simple, tuple_key
from hodgerep.errors import ConsistencyError, InvalidTypeError, ShapeError
from hodgerep.expected import ExpectedInstance, ExpectedTables, instantiate, load_expected
from hodgerep.hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    GradingElement,
    FactorSpec,
    HodgeTuple,
    HodgeVector,
    _grading_row,
    center_charge,
    eigen_ladder,
    extremal_dim_is_one,
    hodge_vector,
    level,
    mu_of_grading,
    real_form,
    reality_type,
)
from hodgerep.products import assemble, diagram_automorphisms
from hodgerep.repweights import (
    DEFAULT_MAX_DIM,
    _dominant,
    _pairings,
    _reflect,
    weight_system,
)
from hodgerep.rootdata import (
    RANK_BOUNDS,
    LieType,
    dual_weight,
    mu_plus_mu_star_closed_form,
    root_system,
)

Levels = Tuple[Tuple[Fraction, int], ...]


def invert_exact(matrix) -> Tuple[Tuple[Fraction, ...], ...]:
    """Invert a small integer matrix by Gauss-Jordan over Fraction."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def inverse_bareiss_dense(matrix) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """(adj, det) of a Cartan matrix of finite type by fraction-free
    Gauss-Jordan on [matrix | I], which ends as [det I | adj].  A row with
    0 in the pivot column is only rescaled."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        pivot_row = aug[k]
        pivot = pivot_row[k]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k]
                aug[i] = ([(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)] if f
                          else [pivot * x // prev for x in row])
        prev = pivot
    return tuple(tuple(row[n:]) for row in aug), prev


@lru_cache(maxsize=None)
def _inverse_cartan(t: LieType) -> Tuple[Tuple[Fraction, ...], ...]:
    """The `Fraction` inverse of t's Cartan matrix, inverted once per type."""
    return invert_exact(root_system(t).cartan)


@lru_cache(maxsize=None)
def weight_to_root_coords(t: LieType, w: Tuple[int, ...]) -> Tuple[Fraction, ...]:
    """Simple-root coordinates of a weight given in fundamental coordinates,
    read off the `Fraction` inverse of the Cartan matrix."""
    inv = _inverse_cartan(t)
    return tuple(sum((w[i] * inv[i][j] for i in range(t.rank)), Fraction(0))
                 for j in range(t.rank))


def positive_roots_probing(cartan) -> Tuple[Tuple[Tuple[int, ...], ...],
                                            Tuple[Tuple[int, ...], ...]]:
    """Positive roots, and their fundamental coordinates, by closure under
    simple-root addition, sorted by (height, coordinates).

    beta + alpha_i is a root iff q > 0 in the alpha_i-string through beta,
    where q = p - <beta, alpha_i^vee>, and p is found by probing beta -
    alpha_i, beta - 2 alpha_i, ... until one is not a root found so far."""
    r = len(cartan)
    fund = {tuple(int(i == j) for j in range(r)): tuple(cartan[i]) for i in range(r)}
    frontier = list(fund)
    while frontier:
        new = []
        for beta in frontier:
            pairings = fund[beta]
            for i in range(r):
                p = 0
                lower = list(beta)
                lower[i] -= 1
                while tuple(lower) in fund:
                    p += 1
                    lower[i] -= 1
                if p > pairings[i]:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in fund:
                        fund[cand] = tuple(x + y for x, y in zip(pairings, cartan[i]))
                        new.append(cand)
        frontier = new
    roots = tuple(sorted(fund, key=lambda b: (sum(b), b)))
    return roots, tuple(fund[b] for b in roots)


def root_to_weight_coords(t: LieType, rc) -> Tuple[Fraction, ...]:
    """Fundamental coordinates of a vector given in simple-root coordinates."""
    cartan = root_system(t).cartan
    n = t.rank
    return tuple(sum(Fraction(rc[j]) * cartan[j][i] for j in range(n)) for i in range(n))


# the engine's former LRU in front of its closed forms, keyed on (type, mu)
_closed_form = lru_cache(maxsize=None)(mu_plus_mu_star_closed_form)


def mu_of_grading_fraction(t: LieType, mu, E: GradingElement) -> Fraction:
    """mu(E_ss) summed over `Fraction` simple-root coordinates."""
    rc = weight_to_root_coords(t, tuple(mu))
    return sum((rc[i - 1] for i in E.support), Fraction(0))


def level_fraction(t: LieType, mu, E: GradingElement) -> int:
    """(mu + mu*)(E_ss) summed as a `Fraction` over the per-type closed
    form of mu + mu*, whose entries are ints, with the integrality check
    made on the sum."""
    rc = _closed_form(t, tuple(mu))
    total = sum((rc[i - 1] for i in E.support), Fraction(0))
    if total.denominator != 1:
        raise ConsistencyError(f"(mu+mu*)(E) = {total} not integral for {tuple(mu)} on {t}")
    return int(total)


def reality_type_fraction(t: LieType, mu, E: GradingElement) -> str:
    """Reality type with the pairing mu(H_phi) summed as a `Fraction` over
    the per-type closed form of mu + mu* = 2 mu."""
    mu = tuple(mu)
    if mu != dual_weight(t, mu):
        return COMPLEX
    rc = _closed_form(t, mu)
    pairing = sum((rc[j] for j in range(t.rank) if E.coeffs[j] == 0), Fraction(0))
    if pairing.denominator != 1:
        raise ConsistencyError(f"mu(H_phi) = {pairing} not integral for self-dual {mu} on {t}")
    return QUATERNIONIC if int(pairing) % 2 == 1 else REAL


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
                        got = evaluate_simple(t, E, mu, config.level)
                        if got is not None:
                            simple.append(got)
                        if config.include_products and config.level == 3 \
                                and extremal_dim_is_one(mu, E):
                            s = level(t, mu, E)
                            if s == 1:
                                span1.append(FactorSpec(t, E, mu))
                            elif s == 2:
                                span2.append(FactorSpec(t, E, mu))

    results = annotate_canonical(simple)
    if config.include_products and config.level == 3:
        # factor levels add: 1+1+1 takes span-1 factors, 1+1 and 1+2 take
        # span-1 and span-2 ones
        products = {}
        for p in itertools.chain(products_brute(span1, 3, 3),
                                 products_brute(span1 + span2, 3, 2)):
            if len(p.factors) > 1:
                products.setdefault(tuple_key(p), p)
        results.extend(annotate_canonical(products.values()))
    results.sort(key=tuple_key)
    return results


def evaluate_simple_direct(t: LieType, E: GradingElement, mu, target_level: int
                           ) -> Optional[HodgeTuple]:
    """`classify.evaluate_simple` by its own route.

    Level 1 takes span exactly 1 with any reality type.  Level 3 takes
    span 1 or 2 with the U + U* assembly (the center charge
    3/2 - mu(E_ss) splits U from U*), or span 3 with U real; the top
    eigenspace must be one-dimensional, i.e. support(mu) inside support(E).
    """
    span = level(t, mu, E)
    reality = reality_type(t, mu, E)
    mu_e = mu_of_grading(t, mu, E)

    if target_level == 1:
        if span != 1:
            return None
        case = reality
    else:
        if span not in (1, 2, 3) or not extremal_dim_is_one(mu, E):
            return None
        if span == 3:
            if reality != REAL:
                return None
            case = REAL
        else:
            case = COMPLEX
    c = center_charge(target_level, mu_e, case)
    decomp = eigenspace_dims(t, mu, E)
    vec = hodge_vector(decomp, case, c, target_level)
    return HodgeTuple(
        factors=(FactorSpec(t, E, tuple(mu)),),
        span=span,
        level=target_level,
        reality=reality,
        c=c,
        hodge=vec,
        real_forms=(real_form(t, E),),
    )


def candidates_all_supports(t: LieType, target_level: int
                            ) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """`classify.candidates` by visiting every support of at most
    target_level nodes, in (size, nodes) order, with a grading element and
    every node's weight built for each; it yields the element's support."""
    rank = t.rank
    level_matrix = root_system(t).level_matrix
    for size in range(1, min(rank, target_level) + 1):
        for support in itertools.combinations(range(1, rank + 1), size):
            E = GradingElement.from_nodes(rank, support)
            sup = [i - 1 for i in E.support]
            w = [sum(row[i] for i in sup) for row in level_matrix]
            if min(w) < 1:
                raise ConsistencyError(
                    f"node weights {w} of {t} on E = {E} are not all positive; "
                    "the level bound would miss candidates")
            nodes = sup if target_level == 3 else range(rank)
            for n in range(1, target_level + 1):
                for picks in itertools.combinations_with_replacement(nodes, n):
                    span = sum(w[i] for i in picks)
                    if span <= target_level:
                        yield E.support, tuple(picks.count(i) for i in range(rank)), span


def products_brute(pool: Sequence[FactorSpec], level_n: int, max_factors: int
                   ) -> List[HodgeTuple]:
    """Every multiset of 1 to max_factors factors of `pool` that `assemble`
    accepts at level_n, each offered to it whole, by size and then in
    `combinations_with_replacement` order."""
    out = []
    for size in range(1, max_factors + 1):
        for factors in itertools.combinations_with_replacement(pool, size):
            try:
                out.append(assemble(factors, level_n))
            except ShapeError:
                pass
    return out


def canonical_form(t: LieType, E: GradingElement, mu
                   ) -> Tuple[GradingElement, Tuple[int, ...]]:
    """Lexicographically least (E, mu) under the diagram automorphisms."""
    best = None
    for perm in diagram_automorphisms(t):
        e2, m2 = [0] * t.rank, [0] * t.rank
        for src, dst in enumerate(perm):
            e2[dst], m2[dst] = E.coeffs[src], mu[src]
        key = (tuple(i + 1 for i, c in enumerate(e2) if c), tuple(m2))
        if best is None or key < best[0]:
            best = (key, tuple(e2), tuple(m2))
    return GradingElement(best[1]), best[2]


def canonical_factors(factors: Sequence[FactorSpec]) -> List[FactorSpec]:
    """Each factor in its canonical form, in canonical order."""
    return sorted((FactorSpec(f.lie_type, *canonical_form(f.lie_type, f.E, f.mu))
                   for f in factors), key=FactorSpec.sort_key)


def annotate_canonical(tuples) -> List[HodgeTuple]:
    """Each tuple marked with whether it is its canonical representative:
    its factors compared whole with the canonical factors of the tuple."""
    return [t._replace(is_canonical=tuple(t.factors) == tuple(canonical_factors(t.factors)))
            for t in tuples]


def weyl_dim_all_pairings(t: LieType, mu) -> int:
    """The Weyl product over every positive root, prod (mu + rho, beta) /
    prod (rho, beta)."""
    rsd = root_system(t)
    num = math.prod(_pairings(rsd, mu, rsd.rho_pairings))
    den = math.prod(rsd.rho_pairings)
    if num % den:
        raise ConsistencyError(f"Weyl dimension of {tuple(mu)} on {t} is not integral")
    return num // den


def levi_dim_all_pairings(t: LieType, mu, nodes) -> int:
    """The Weyl product over the positive roots with support on supp(mu)
    and none on `nodes` (1-based), read from the pairings of every root."""
    rsd = root_system(t)
    painted = sum(1 << (i - 1) for i in nodes)
    touched = sum(1 << j for j, c in enumerate(mu) if c)
    levi = [k for k, m in enumerate(rsd.root_masks) if m & touched and not m & painted]
    if not levi:
        return 1
    pairs, rho = _pairings(rsd, mu, rsd.rho_pairings), rsd.rho_pairings
    num = math.prod(pairs[k] for k in levi)
    den = math.prod(rho[k] for k in levi)
    if num % den:
        raise ConsistencyError(f"Levi dimension of {tuple(mu)} on {t} off the "
                               f"nodes {tuple(nodes)} is not integral")
    return num // den


def reflect(t: LieType, w, i: int) -> Tuple[int, ...]:
    """Simple reflection s_i (0-based node index) in fundamental coordinates."""
    cartan = root_system(t).cartan
    ci = w[i]
    return tuple(w[j] - ci * cartan[i][j] for j in range(len(w)))


def weyl_orbit_bfs(t: LieType, w) -> List[Tuple[int, ...]]:
    """Full Weyl orbit of a weight: breadth-first search over every simple
    reflection, with a visited set."""
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(t.rank):
                u = reflect(t, v, i)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


def stabilizer_orbits_bfs(t: LieType, zeros) -> List[FrozenSet[Tuple[int, ...]]]:
    """The orbits of W_Z, Z the 0-based nodes `zeros`, on the positive roots
    with beta and -beta identified: breadth-first search under s_j for j in
    Z, each image made positive, every image checked to be a root."""
    rsd = root_system(t)
    cartan, roots = rsd.cartan, rsd.positive_roots
    known = frozenset(roots)
    left = set(roots)
    orbits = []
    for beta in roots:
        if beta not in left:
            continue
        orbit, queue = {beta}, [beta]
        while queue:
            b = queue.pop()
            for j in zeros:
                u = list(b)
                u[j] -= sum(b[i] * cartan[i][j] for i in range(t.rank))
                if min(u) < 0:
                    u = [-x for x in u]
                u = tuple(u)
                if u not in known:
                    raise ConsistencyError(f"s_{j + 1} of root {b} on {t} is not a root")
                if u not in orbit:
                    orbit.add(u)
                    queue.append(u)
        left -= orbit
        orbits.append(frozenset(orbit))
    return orbits


@lru_cache(maxsize=None)
def full_weight_map(t: LieType, mu: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
    """Every weight of V(mu) with its multiplicity, each dominant weight's
    Freudenthal multiplicity spread over its breadth-first orbit."""
    ws = weight_system(t, mu)
    full = {}
    for lam, m in ws.dominant:
        for w in weyl_orbit_bfs(t, lam):
            full[w] = m
    ws.check_total(sum(full.values()))
    return full


def eigenspace_dims(t: LieType, mu, E: GradingElement,
                    max_dim: int = DEFAULT_MAX_DIM) -> EigenDecomp:
    """The engine's ladder of E_ss on V(mu), its span computed by `level`."""
    return eigen_ladder(t, mu, E, level(t, mu, E), max_dim)


def eigenspace_dims_full(t: LieType, mu, E: GradingElement,
                         max_dim: int = DEFAULT_MAX_DIM) -> Levels:
    """The (eigenvalue, dimension) levels of `eigenspace_dims`, by grouping
    the full weight map by the eigenvalue lambda(E_ss), summed over the
    `Fraction` simple-root coordinates of lambda."""
    weight_system(t, mu, max_dim=max_dim)  # the size guard
    buckets = {}
    for lam, m in full_weight_map(t, tuple(mu)).items():
        ev = mu_of_grading_fraction(t, lam, E)
        buckets[ev] = buckets.get(ev, 0) + m
    levels = tuple((ev, buckets[ev]) for ev in sorted(buckets, reverse=True))
    if any(a - b != 1 for (a, _), (b, _) in zip(levels, levels[1:])):
        raise ConsistencyError(f"eigenvalue ladder {levels} has a gap")
    return levels


def dominant_candidates_all_roots(t: LieType, mu) -> List[Tuple[int, ...]]:
    """Dominant weights of V(mu): mu minus positive roots, staying dominant,
    each difference built as a tuple before its sign is tested."""
    pos_fund = root_system(t).positive_roots_fund
    rank = t.rank
    seen = {tuple(mu)}
    frontier = [tuple(mu)]
    while frontier:
        nxt = []
        for w in frontier:
            for pf in pos_fund:
                v = tuple(w[i] - pf[i] for i in range(rank))
                if v not in seen and all(c >= 0 for c in v):
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen)


def _root_coords_integral(t: LieType, w: Tuple[int, ...]) -> Tuple[int, ...]:
    """Simple-root coordinates of a weight that must lie in the root lattice."""
    coords = weight_to_root_coords(t, w)
    if any(x.denominator != 1 for x in coords):
        raise ConsistencyError(f"{w} is not in the root lattice of {t}")
    return tuple(int(x) for x in coords)


def dominant_multiplicities_conjugating(t: LieType, mu
                                        ) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The nonzero multiplicities at the dominant weights of V(mu), by
    Freudenthal's recursion, highest first; every lambda + k beta read is
    conjugated to the dominant chamber anew."""
    mu = tuple(mu)
    rsd = root_system(t)
    rank = t.rank
    pos_fund = rsd.positive_roots_fund
    neighbours = rsd.neighbours
    norms = [sum(map(mul, beta, map(mul, pf, rsd.symmetrizer)))
             for beta, pf in zip(rsd.positive_roots, pos_fund)]
    zeros = [0] * len(pos_fund)
    steps = {lam: _root_coords_integral(t, tuple(m - l for m, l in zip(mu, lam)))
             for lam in dominant_candidates_all_roots(t, mu)}
    mult = {mu: 1}
    for lam in sorted(steps, key=lambda lam: sum(steps[lam])):
        if lam == mu:
            continue
        acc = 0
        for lam_beta, pf, bnorm in zip(_pairings(rsd, lam, zeros), pos_fund, norms):
            k = 1
            while True:
                nu = tuple(lam[i] + k * pf[i] for i in range(rank))
                m = mult.get(_dominant(nu, neighbours), 0)
                if m == 0:
                    break
                acc += m * (lam_beta + k * bnorm)
                k += 1
        w = tuple(mu[i] + lam[i] + 2 for i in range(rank))  # rho is all ones
        den = sum(steps[lam][j] * rsd.symmetrizer[j] * w[j] for j in range(rank))
        if den <= 0 or (2 * acc) % den:
            raise ConsistencyError(f"Freudenthal recursion inconsistent at {lam} in V{mu}")
        mult[lam] = (2 * acc) // den
    return tuple((lam, m) for lam, m in mult.items() if m)


def orbit_walk(top: Tuple[int, ...], neighbours, painted
               ) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """(v, depth) for every v in the Weyl orbit of the dominant weight top,
    top first; depth is the number of steps of E_ss from top(E) down to
    v(E), for E the 0/1 node coefficients `painted`.  The engine's tree
    walk, uncapped: each v is reflected in the nodes i with v_i > 0, and
    u = s_i(v) is kept when i is u's first negative node (for i past v's
    first negative node f, only f's neighbours are tried)."""
    queue = deque([(top, 0)])
    while queue:
        v, depth = queue.popleft()
        yield v, depth
        for i, c in enumerate(v):
            if c > 0:
                queue.append((tuple(_reflect(v, i, neighbours)), depth + c * painted[i]))
            elif c < 0:  # i is the first negative node
                for j, _ in neighbours[i]:
                    if j > i and v[j] > 0:
                        u = _reflect(v, j, neighbours)
                        if min(u[:j]) >= 0:
                            queue.append((tuple(u), depth + v[j] * painted[j]))
                break


def orbit_ladder_full_walk(t: LieType, mu, E: GradingElement,
                           max_dim: int = DEFAULT_MAX_DIM) -> EigenDecomp:
    """The orbit-route ladder with every orbit walked to its end under E
    alone: each dominant weight lambda starts (mu - lambda)(E_ss) steps
    below the top and adds its multiplicity at every depth its walk
    yields."""
    ws = weight_system(t, mu, max_dim=max_dim)
    rsd = root_system(t)
    row, den = _grading_row(rsd, E), rsd.inverse_den
    top = sum(map(mul, row, mu))
    buckets = {}
    for lam, m in ws.dominant:
        diff = top - sum(map(mul, row, lam))
        offset, rem = divmod(diff, den)
        if rem:
            raise ConsistencyError(f"(mu - lambda)(E) = {Fraction(diff, den)} is not an "
                                   f"integer for lambda = {lam} in V{mu} on {t} under E = {E}")
        for _, depth in orbit_walk(lam, rsd.neighbours, E.coeffs):
            depth += offset
            buckets[depth] = buckets.get(depth, 0) + m
    ws.check_total(sum(buckets.values()))
    dims = tuple(buckets[k] for k in range(len(buckets)) if k in buckets)
    if len(dims) != len(buckets):
        raise ConsistencyError(f"eigenvalue ladder with depths {sorted(buckets)} below "
                               f"{Fraction(top, den)} has a gap")
    return EigenDecomp(top=Fraction(top, den), dims=dims)


def orbit_ladder_by_pairing(t: LieType, mu, E: GradingElement,
                            max_dim: int = DEFAULT_MAX_DIM) -> EigenDecomp:
    """The orbit-route ladder with every orbit element paired with the
    grading row and bucketed by the integer numerator of its eigenvalue."""
    ws = weight_system(t, mu, max_dim=max_dim)
    rsd = root_system(t)
    row = _grading_row(rsd, E)
    buckets = {}
    for lam, m in ws.dominant:
        for nu, _ in orbit_walk(lam, rsd.neighbours, (0,) * t.rank):
            s = sum(map(mul, row, nu))
            buckets[s] = buckets.get(s, 0) + m
    ws.check_total(sum(buckets.values()))
    den, top = rsd.inverse_den, max(buckets)
    dims = tuple(buckets[s] for s in range(top, top - den * len(buckets), -den)
                 if s in buckets)
    if len(dims) != len(buckets):
        raise ConsistencyError(f"eigenvalue ladder {sorted(buckets)}/{den} has a gap")
    return EigenDecomp(top=Fraction(top, den), dims=dims)


def convolve_levels(decomps: Sequence[Levels]) -> Levels:
    """Convolution of (eigenvalue, dimension) levels: eigenvalues add,
    dimensions multiply and accumulate under `Fraction` dict keys.  A
    single decomposition is its own product."""
    if not 1 <= len(decomps) <= 3:
        raise ValueError("convolution takes 1 to 3 decompositions")
    acc = {ev: d for ev, d in decomps[0]}
    for dec in decomps[1:]:
        nxt = {}
        for ev1, d1 in acc.items():
            for ev2, d2 in dec:
                key = ev1 + ev2
                nxt[key] = nxt.get(key, 0) + d1 * d2
        acc = nxt
    return tuple((ev, acc[ev]) for ev in sorted(acc, reverse=True))


def hodge_vector_levels(levels: Levels, reality: str, c: Fraction,
                        level_n: int) -> HodgeVector:
    """`hodgecore.hodge_vector` on (eigenvalue, dimension) levels: shift by
    c, adjoin U* under negated `Fraction` keys, sort, and check the grid.
    The Hodge shapes are those of weight one, at level 1, and of CY3 type,
    at level 3, so every other level is refused."""
    if level_n not in (1, 3):
        raise ShapeError(f"level {level_n} is neither 1 (weight one) nor 3 (CY3 type)")
    shifted = [(ev + c, d) for ev, d in levels]
    if reality == REAL:
        combined = dict(shifted)
    else:
        combined = {}
        for ev, d in shifted:
            combined[ev] = combined.get(ev, 0) + d
        for ev, d in shifted:
            combined[-ev] = combined.get(-ev, 0) + d
    evs = sorted(combined, reverse=True)
    # trim zero extremes (cannot appear from irreducible input; kept for safety)
    while evs and combined[evs[0]] == 0:
        evs.pop(0)
    while evs and combined[evs[-1]] == 0:
        evs.pop()
    dims = tuple(combined[ev] for ev in evs)

    top = Fraction(level_n, 2)
    expected = [top - k for k in range(level_n + 1)]
    if evs != expected:
        raise ShapeError(
            f"eigenvalues {[str(x) for x in evs]} do not fill the grid "
            f"{[str(x) for x in expected]} for level {level_n}"
        )
    if dims != dims[::-1]:
        raise ShapeError(f"assembled vector {dims} is not palindromic")
    if any(d <= 0 for d in dims):
        raise ShapeError(f"assembled vector {dims} has an empty level")
    # the grid, the palindrome and positivity make (a, a) at level 1; at
    # level 3 they leave (b, a, a, b), and CY3 type asks h^{3,0} = 1
    if level_n == 3 and dims[0] != 1:
        raise ShapeError(f"assembled vector {dims} is not of shape (1,a,a,1)")
    return HodgeVector(dims=dims)


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


def _eval_row(expr, bindings: Dict[str, Fraction]):
    env = {"Q": Fraction, "binom": lambda n, k: math.comb(int(n), int(k))}
    env.update(bindings)
    return eval(expr, {"__builtins__": {}}, env)


def _eval_int(expr, bindings: Dict[str, Fraction]) -> int:
    val = Fraction(_eval_row(str(expr), bindings))
    if val.denominator != 1:
        raise ValueError(f"{expr!r} not integral under {bindings}")
    return int(val)


def _param_bindings(params: dict, max_rank: int) -> List[Dict[str, int]]:
    names = list(params)
    out: List[Dict[str, int]] = []

    def rec(idx: int, acc: Dict[str, int]):
        if idx == len(names):
            out.append(dict(acc))
            return
        spec = params[names[idx]]
        frac_acc = {k: Fraction(v) for k, v in acc.items()}
        lo = _eval_int(spec.get("min", 1), frac_acc)
        hi = max_rank if spec.get("max") is None else \
            min(_eval_int(spec["max"], frac_acc), max_rank)
        for val in range(lo, hi + 1):
            acc[names[idx]] = val
            rec(idx + 1, acc)
        acc.pop(names[idx], None)

    rec(0, {})
    return out


def instantiate_eval(table_name: str, tables: ExpectedTables, max_rank: int
                     ) -> Dict[int, List[ExpectedInstance]]:
    """`expected.instantiate` by `eval` of each expression's source text at
    each binding, for well-formed tables."""
    out: Dict[int, List[ExpectedInstance]] = {}
    for item in tables.tables[table_name]["items"]:
        instances = []
        for binding in _param_bindings(item.get("params", {}), max_rank):
            fbind = {k: Fraction(v) for k, v in binding.items()}
            factors = []
            for fac in item["factors"]:
                rank = _eval_int(fac["rank"], fbind)
                try:
                    lt = LieType(fac["family"], rank)
                except InvalidTypeError:
                    break
                mu = [0] * rank
                for node, coeff in fac["mu"]:
                    mu[_eval_int(node, fbind) - 1] = _eval_int(coeff, fbind)
                factors.append((lt, tuple(sorted(_eval_int(n, fbind) for n in fac["E"])),
                                tuple(mu)))
            else:
                case = next((case for case in item["cases"] if _eval_row(case["when"], fbind)),
                            None) if "cases" in item else item
                rf = item.get("real_form")
                instances.append(ExpectedInstance(
                    table=table_name, item=item["item"], bindings=binding,
                    factors=tuple(factors),
                    c=Fraction(_eval_row(item["c"], fbind)),
                    h=tuple(_eval_int(e, fbind) for e in case["h"]),
                    reality=case["reality"],
                    real_forms=None if rf is None else tuple(
                        None if x is None else re.sub(
                            r"\{([^}]+)\}", lambda m: str(_eval_int(m.group(1), fbind)), x)
                        for x in (rf if isinstance(rf, list) else [rf]))))
        out[item["item"]] = instances
    return out


def check_instance_assembled(inst: ExpectedInstance, target_level: int
                             ) -> Tuple[str, List[Tuple[str, str, str]]]:
    """(status, diffs) of one row instance against `assemble` of its factors."""
    diffs: List[Tuple[str, str, str]] = []
    factors = [FactorSpec(t, GradingElement.from_nodes(t.rank, nodes), mu)
               for t, nodes, mu in inst.factors]
    try:
        got = assemble(factors, target_level)
    except ShapeError as exc:
        if inst.is_product:
            diffs.append(("validity", "valid level-3 product", f"rejected: {exc}"))
        else:
            diffs.append(("validity", f"valid level-{target_level} tuple", "rejected"))
        return "mismatch", diffs

    if tuple(inst.h) != got.hodge.dims:
        diffs.append(("h", str(list(inst.h)), str(list(got.hodge.dims))))
    if inst.c != got.c:
        diffs.append(("c", str(inst.c), str(got.c)))
    if inst.reality != got.reality:
        diffs.append(("reality", inst.reality, got.reality))
    computed_rf = sorted(got.real_forms)
    if inst.real_forms is not None:
        expected_rf = sorted(x for x in inst.real_forms if x is not None)
        if expected_rf and expected_rf != computed_rf:
            diffs.append(("real_form", "+".join(expected_rf), "+".join(computed_rf)))
    return ("match" if not diffs else "mismatch"), diffs


def row_checks_assembled(scope: str, max_rank: int, expected_path: Optional[str] = None
                         ) -> Dict[Tuple[str, int], list]:
    """(table, item) -> [(instance, status, diffs)] for every row of the
    scope, each instance checked by `check_instance_assembled`."""
    tables = load_expected(expected_path)
    out: Dict[Tuple[str, int], list] = {}
    for name in tables.table_names(scope):
        for item, instances in instantiate(name, tables, max_rank).items():
            out[(name, item)] = [
                (inst,) + check_instance_assembled(inst, tables.level_of(name))
                for inst in instances]
    return out
