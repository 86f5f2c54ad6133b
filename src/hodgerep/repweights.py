"""Weight systems of irreducible highest-weight representations.

Multiplicities are computed at dominant weights by Freudenthal's recursion,
which sums at each dominant weight over one positive root per orbit of its
stabilizer (Moody and Patera, "Fast recursion formula for weight
multiplicities", Bull. AMS 7, 1982) and conjugates each weight it visits
to the dominant chamber once per call, and extended to the other chambers
by one orbit walk, which goes down from a dominant weight and counts its
elements by their depth under a grading element, no deeper than asked.
Everything runs in exact integer arithmetic; the invariant form is the
symmetrized pairing (lambda, beta) = sum_j beta_j d_j lambda^j for lambda
in fundamental coordinates and beta a root in simple-root coordinates.  It
is read from the type's root columns over the support of lambda: for
every positive root at once by Freudenthal's recursion, and by the Weyl
dimension formula and the Levi products of lambda and lambda* only for
the roots whose support meets supp(lambda), from the per-node root lists;
every other root adds a factor 1 to those products.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import compress
from operator import add, mul, sub

from .errors import ConsistencyError, NonDominantError, ResourceLimitError
from .rootdata import (LieType, RootCoords, RootSystemData, Weight, _check_length, _node_mask,
                       dual_weight, root_system)

DEFAULT_MAX_DIM = 10 ** 6


class WeightSystem(namedtuple("WeightSystem", "lie_type highest dimension dominant")):
    """Weight system of one irreducible representation, held as its
    dominant weights with their multiplicities; every other weight shares
    the multiplicity of its dominant conjugate."""

    __slots__ = ()

    def check_total(self, total: int) -> None:
        """Raise unless a count over all weights equals the Weyl dimension."""
        if total != self.dimension:
            raise ConsistencyError(f"multiplicity total {total} != weyl_dim "
                                   f"{self.dimension} for {self.highest} on {self.lie_type}")


def _check_dominant(t: LieType, mu) -> None:
    _check_length(t, mu)
    if min(mu) < 0:
        raise NonDominantError(f"weight {tuple(mu)} is not dominant")


def _pairings(rsd: RootSystemData, lam, base) -> list[int]:
    """base[k] + (lambda, beta_k) for every positive root beta_k, lambda in
    fundamental coordinates: the root columns of supp(lambda), scaled by
    lambda's coordinates, added to base."""
    out = list(base)
    for c, col in zip(lam, rsd.root_columns):
        if c:
            out = [x + c * y for x, y in zip(out, col)]
    return out


def weyl_levi_dims(t: LieType, mu, nodes=()) -> tuple[int, int, int]:
    """The dimension of V(mu) by the Weyl formula, prod (mu + rho, beta) /
    (rho, beta), and those of the modules of highest weight mu and mu* over
    the Levi factor off `nodes` (1-based, distinct): the same product over
    the roots with no support on `nodes`, and for mu* = sigma(mu), sigma the
    duality, mu's off sigma(nodes).  All three come from one pass over the
    roots in the node lists of supp(mu): every other root pairs with mu to
    0 and adds a factor 1.  ValueError for a node outside 1..rank or repeated."""
    _check_dominant(t, mu)
    painted = _node_mask(t.rank, nodes)
    rsd = root_system(t)
    lists = [roots for c, roots in zip(mu, rsd.node_roots) if c]
    touched = lists[0] if len(lists) == 1 else sorted(set().union(*lists))
    rho = [rsd.rho_pairings[k] for k in touched]
    pairs = rho
    for c, col in zip(mu, rsd.root_columns):
        if c:
            pairs = [x + c * col[k] for x, k in zip(pairs, touched)]
    dim, rem = divmod(math.prod(pairs), math.prod(rho))
    if rem:
        raise ConsistencyError(f"Weyl dimension of {tuple(mu)} on {t} is not integral")
    if not painted:
        return dim, dim, dim
    flipped = sum(1 << rsd.duality[n - 1] for n in nodes)
    ends = []
    for mask in (painted,) if flipped == painted else (painted, flipped):
        levi = [not rsd.root_masks[k] & mask for k in touched]
        d_levi, rem = divmod(math.prod(compress(pairs, levi)), math.prod(compress(rho, levi)))
        if rem:
            weight = tuple(mu) if mask == painted else dual_weight(t, mu)
            raise ConsistencyError(f"Levi dimension of {weight} on {t} off the "
                                   f"nodes {tuple(nodes)} is not integral")
        ends.append(d_levi)
    return dim, ends[0], ends[-1]


def weyl_dim(t: LieType, mu) -> int:
    """Dimension by the Weyl formula: `weyl_levi_dims` with no painted node."""
    return weyl_levi_dims(t, mu)[0]


def _reflect(v, i: int, neighbours) -> list[int]:
    """s_i(v) as a list: v_i changes sign and only i's Dynkin neighbours move."""
    c = v[i]
    u = list(v)
    u[i] = -c
    for j, a in neighbours[i]:
        u[j] -= c * a
    return u


def _dominant(w, neighbours) -> Weight:
    """The dominant Weyl-chamber representative of the weight w, for a
    type's neighbour table: the first negative node reflected in place
    until none is left."""
    cur = list(w)
    while True:
        for i, c in enumerate(cur):
            if c < 0:
                break
        else:
            return tuple(cur)
        cur[i] = -c
        for j, a in neighbours[i]:
            cur[j] -= c * a


def _orbit_depths(top: Weight, neighbours, painted, depth: int, m: int,
                  counts: list[int]) -> None:
    """Add m to counts[d] for every v in the Weyl orbit of the dominant
    weight top with d < len(counts), where d is depth plus the number of
    steps of E_ss from top(E) down to v(E), for E the 0/1 node
    coefficients `painted`.

    Every orbit element v but the dominant one has a parent s_j(v), j the
    first node with v_j < 0, which lies higher; so the orbit is a tree
    rooted at the dominant weight.  The walk reflects v only in nodes i
    with v_i > 0 and keeps u = s_i(v) when i is the first negative node of
    u, which reaches every element exactly once.  With f the first negative
    node of v, that holds for every i < f; for i > f, s_i leaves v_f < 0
    unless i is a neighbour of f, so only those are tried.  The child
    s_i(v) = v - v_i alpha_i sits v_i painted_i steps below v.  Depth never
    falls down the tree, so a child past the last count is not kept, and
    nothing below it is visited.
    """
    cap = len(counts) - 1
    frontier = [(top, depth)] if depth <= cap else []
    while frontier:
        nxt = []
        for v, depth in frontier:
            counts[depth] += m
            for i, c in enumerate(v):
                if c > 0:
                    d = depth + c * painted[i]
                    if d <= cap:
                        nxt.append((_reflect(v, i, neighbours), d))
                elif c < 0:  # i is the first negative node
                    for j, _ in neighbours[i]:
                        b = v[j]
                        if j > i and b > 0:
                            d = depth + b * painted[j]
                            if d <= cap:
                                u = _reflect(v, j, neighbours)
                                if min(u[:j]) >= 0:
                                    nxt.append((u, d))
                    break
        frontier = nxt


def _dominant_candidates(t: LieType, mu: Weight) -> dict[Weight, RootCoords]:
    """Dominant weights lambda of V(mu), each with the simple-root
    coordinates of mu - lambda: mu minus positive roots, staying dominant,
    the coordinates gaining the root subtracted at each step.  w - beta
    stays dominant iff w_i >= beta_i wherever beta_i > 0, so only those
    coordinates are tested before the difference is built."""
    rsd = root_system(t)
    pos_fund = rsd.positive_roots_fund
    tests = [[(i, b) for i, b in enumerate(pf) if b > 0] for pf in pos_fund]
    found = {mu: (0,) * t.rank}
    frontier = [mu]
    while frontier:
        nxt = []
        for w in frontier:
            below = found[w]
            for pf, beta, test in zip(pos_fund, rsd.positive_roots, tests):
                for i, b in test:
                    if w[i] < b:
                        break
                else:
                    v = tuple(map(sub, w, pf))
                    if v not in found:
                        found[v] = tuple(map(add, below, beta))
                        nxt.append(v)
        frontier = nxt
    return found


def _stabilizer_orbits(rsd: RootSystemData, fixed: tuple[int, ...]) -> list[tuple[int, int]]:
    """(k, n) for each orbit of W_Z on the positive roots, Z the 0-based
    nodes `fixed` and beta identified with -beta on the roots of W_Z's own
    root system: k indexes the orbit's Z-dominant root, n counts the orbit.

    From the highest root down, a root beta with <beta, alpha_j^vee> < 0
    for some j in Z joins the orbit of s_j beta, a higher positive root
    (beta is not alpha_j) and so placed already; a root with no such j is
    Z-dominant and starts an orbit.  Each orbit meets the Z-dominant
    chamber once, so the chains end at one root per orbit.
    """
    roots, pos_fund = rsd.positive_roots, rsd.positive_roots_fund
    index = {beta: k for k, beta in enumerate(roots)}
    rep = [0] * len(roots)
    size = [0] * len(roots)
    for k in range(len(roots) - 1, -1, -1):
        pf = pos_fund[k]
        for j in fixed:
            if pf[j] < 0:
                beta = list(roots[k])
                beta[j] -= pf[j]
                rep[k] = rep[index[tuple(beta)]]
                break
        else:
            rep[k] = k
        size[rep[k]] += 1
    return [(k, n) for k, n in enumerate(size) if n]


@lru_cache(maxsize=None)
def _dominant_multiplicities(t: LieType, mu: Weight) -> tuple[tuple[Weight, int], ...]:
    """The nonzero multiplicities at the dominant weights of V(mu), by
    Freudenthal's recursion, highest first.

    The recursion's sum at lambda runs over one positive root per orbit of
    lambda's stabilizer W_Z, Z the nodes where lambda is 0, each term
    weighted by its orbit's size (Moody and Patera, Bull. AMS 7, 1982):
    F(beta) = sum over k >= 1 of m(lambda + k beta)(lambda + k beta, beta)
    is constant on W_Z-orbits, and F(-beta) = F(beta) on the roots of W_Z,
    which are orthogonal to lambda.
    """
    rsd = root_system(t)
    rank = t.rank
    pos_fund = rsd.positive_roots_fund
    neighbours = rsd.neighbours
    norms = [sum(map(mul, beta, map(mul, pf, rsd.symmetrizer)))
             for beta, pf in zip(rsd.positive_roots, pos_fund)]  # (beta, beta)
    zeros = [0] * len(pos_fund)

    # mu - lam in simple-root coordinates; its height orders the recursion
    steps = _dominant_candidates(t, mu)
    # the stabilizer orbits of each zero-node set met in this call; with no
    # zero node, every root is its own orbit
    orbits = {(): [(k, 1) for k in range(len(pos_fund))]}
    mult: dict[Weight, int] = {mu: 1}
    # the multiplicity of each visited weight's dominant conjugate; that
    # conjugate lies strictly above lambda, so it is final when first read
    conjugated: dict[Weight, int] = {}
    for lam in sorted(steps, key=lambda lam: (sum(steps[lam]), lam)):
        if lam == mu:
            continue
        fixed = tuple(j for j, c in enumerate(lam) if not c)
        terms = orbits.get(fixed)
        if terms is None:
            terms = orbits[fixed] = _stabilizer_orbits(rsd, fixed)
        pairs = _pairings(rsd, lam, zeros)
        acc = 0
        for k, size in terms:
            pf, bnorm, lam_beta = pos_fund[k], norms[k], pairs[k]
            term, i, nu = 0, 1, lam
            while True:
                nu = tuple(map(add, nu, pf))
                m = conjugated.get(nu)
                if m is None:
                    m = conjugated[nu] = mult.get(_dominant(nu, neighbours), 0)
                if m == 0:
                    break
                term += m * (lam_beta + i * bnorm)
                i += 1
            acc += size * term
        # denominator (mu + lam + 2 rho, mu - lam), all integer coordinates;
        # rho is all ones in fundamental coordinates
        w = tuple(mu[i] + lam[i] + 2 for i in range(rank))
        den = sum(steps[lam][j] * rsd.symmetrizer[j] * w[j] for j in range(rank))
        if den <= 0 or (2 * acc) % den:
            raise ConsistencyError(f"Freudenthal recursion inconsistent at {lam} in V{mu}")
        mult[lam] = (2 * acc) // den
    return tuple((lam, m) for lam, m in mult.items() if m)


def weight_system(t: LieType, mu, max_dim: int = DEFAULT_MAX_DIM) -> WeightSystem:
    """Weight system of the irreducible with highest weight mu.

    The size guard: aborts with ResourceLimitError when weyl_dim(mu)
    exceeds max_dim, on every call and before the cache of dominant
    multiplicities.  Only what builds weights runs behind it; the Levi
    closed form of a ladder multiplies integers and is not guarded.
    """
    mu = tuple(int(c) for c in mu)
    dim = weyl_dim(t, mu)
    if dim > max_dim:
        raise ResourceLimitError(
            f"weight system of {t} with highest weight {mu} has dimension "
            f"{dim}, above the size guard {max_dim}",
            dimension=dim,
        )
    return WeightSystem(lie_type=t, highest=mu, dimension=dim,
                        dominant=_dominant_multiplicities(t, mu))
