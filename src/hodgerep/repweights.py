"""Weight systems of irreducible highest-weight representations.

Multiplicities are computed at dominant weights by Freudenthal's recursion
and extended to the other chambers by walking Weyl orbits down from the
dominant weights.  Everything runs in exact integer arithmetic; the
invariant form is the symmetrized pairing (lambda, beta) =
sum_j beta_j d_j lambda^j for lambda in fundamental coordinates and beta a
root in simple-root coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Dict, List, Tuple

from .errors import ConsistencyError, NonDominantError, ResourceLimitError
from .rootdata import (
    LieType,
    RootSystemData,
    Weight,
    root_system,
    weight_to_root_coords,
)

DEFAULT_MAX_DIM = 10 ** 6


@dataclass(frozen=True)
class WeightSystem:
    """Weight system of one irreducible representation.

    Held as its dominant weights with their multiplicities; the full
    multiplicity map, the union of their Weyl orbits, is built on first
    access.
    """

    lie_type: LieType
    highest: Weight
    dimension: int
    dominant: Tuple[Tuple[Weight, int], ...]

    @cached_property
    def multiplicities(self) -> Dict[Weight, int]:
        full = {w: m for lam, m in self.dominant for w in weyl_orbit(self.lie_type, lam)}
        self.check_total(sum(full.values()))
        return full

    def items(self):
        return self.multiplicities.items()

    def check_total(self, total: int) -> None:
        """Raise unless a count over all weights equals the Weyl dimension."""
        if total != self.dimension:
            raise ConsistencyError(f"multiplicity total {total} != weyl_dim "
                                   f"{self.dimension} for {self.highest} on {self.lie_type}")


def _check_dominant(mu) -> None:
    if any(c < 0 for c in mu):
        raise NonDominantError(f"weight {tuple(mu)} is not dominant")


def _pairings(rsd: RootSystemData, lam) -> List[int]:
    """(lambda, beta) for every positive root beta, lambda in fundamental
    coordinates."""
    scaled = list(map(mul, lam, rsd.symmetrizer))
    return [sum(map(mul, beta, scaled)) for beta in rsd.positive_roots]


def weyl_dim(t: LieType, mu) -> int:
    """Dimension by the Weyl formula, prod (mu+rho, beta) / (rho, beta)."""
    _check_dominant(mu)
    rsd = root_system(t)
    num = math.prod(_pairings(rsd, [m + 1 for m in mu]))
    den = math.prod(_pairings(rsd, rsd.weyl_vector))
    if num % den:
        raise ConsistencyError(f"Weyl dimension of {tuple(mu)} on {t} is not integral")
    return num // den


def _reflect(v, i: int, neighbours) -> List[int]:
    """s_i(v) as a list: v_i changes sign and only i's Dynkin neighbours move."""
    c = v[i]
    u = list(v)
    u[i] = -c
    for j, a in neighbours[i]:
        u[j] -= c * a
    return u


def _dominant(w, neighbours) -> Weight:
    """`dominant_conjugate` with the type's neighbour table looked up."""
    cur = list(w)
    while True:
        neg = next((i for i, c in enumerate(cur) if c < 0), None)
        if neg is None:
            return tuple(cur)
        cur = _reflect(cur, neg, neighbours)


def dominant_conjugate(t: LieType, w: Weight) -> Weight:
    """The dominant Weyl-chamber representative of a weight."""
    return _dominant(w, root_system(t).neighbours)


def weyl_orbit(t: LieType, w: Weight) -> List[Weight]:
    """Weyl orbit of a weight, walked down from its dominant conjugate.

    Every orbit element v but the dominant one has a parent s_j(v), j the
    first node with v_j < 0, which lies higher; so the orbit is a tree
    rooted at the dominant weight.  The walk reflects v only in nodes i
    with v_i > 0 and keeps u = s_i(v) when i is the first negative node of
    u, which yields every element exactly once.  With f the first negative
    node of v, that holds for every i < f; for i > f, s_i leaves v_f < 0
    unless i is a neighbour of f, so only those are tried.
    """
    neighbours = root_system(t).neighbours
    orbit = [_dominant(w, neighbours)]
    for v in orbit:  # grows while walked
        for i, c in enumerate(v):
            if c > 0:
                orbit.append(tuple(_reflect(v, i, neighbours)))
            elif c < 0:  # i is the first negative node
                for j, _ in neighbours[i]:
                    if j > i and v[j] > 0:
                        u = _reflect(v, j, neighbours)
                        if min(u[:j]) >= 0:
                            orbit.append(tuple(u))
                break
    return orbit


def _dominant_candidates(t: LieType, mu: Weight) -> List[Weight]:
    """Dominant weights of V(mu): mu minus positive roots, staying dominant."""
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


def _root_height_from(t: LieType, mu: Weight, lam: Weight) -> int:
    """Height of mu - lam in the root lattice (number of simple-root steps)."""
    rc = weight_to_root_coords(t, tuple(m - l for m, l in zip(mu, lam)))
    total = sum(rc)
    if total.denominator != 1:
        raise ConsistencyError(f"{tuple(mu)} - {tuple(lam)} is not in the root lattice")
    return int(total)


@lru_cache(maxsize=None)
def _dominant_multiplicities(t: LieType, mu: Weight) -> Tuple[Tuple[Weight, int], ...]:
    """The nonzero multiplicities at the dominant weights of V(mu), by
    Freudenthal's recursion, highest first."""
    rsd = root_system(t)
    rank = t.rank
    rho = rsd.weyl_vector
    pos_fund = rsd.positive_roots_fund
    neighbours = rsd.neighbours
    norms = [sum(map(mul, beta, map(mul, pf, rsd.symmetrizer)))
             for beta, pf in zip(rsd.positive_roots, pos_fund)]  # (beta, beta)

    candidates = _dominant_candidates(t, mu)
    candidates.sort(key=lambda lam: _root_height_from(t, mu, lam))

    mult: Dict[Weight, int] = {tuple(mu): 1}
    for lam in candidates:
        if lam == tuple(mu):
            continue
        acc = 0
        for lam_beta, pf, bnorm in zip(_pairings(rsd, lam), pos_fund, norms):
            k = 1
            while True:
                nu = tuple(lam[i] + k * pf[i] for i in range(rank))
                m = mult.get(_dominant(nu, neighbours), 0)
                if m == 0:
                    break
                acc += m * (lam_beta + k * bnorm)
                k += 1
        # denominator (mu + lam + 2 rho, mu - lam), all integer coordinates
        diff_rc = weight_to_root_coords(t, tuple(m - l for m, l in zip(mu, lam)))
        w = tuple(mu[i] + lam[i] + 2 * rho[i] for i in range(rank))
        den = sum(int(diff_rc[j]) * rsd.symmetrizer[j] * w[j] for j in range(rank))
        if den <= 0 or (2 * acc) % den:
            raise ConsistencyError(f"Freudenthal recursion inconsistent at {lam} in V{mu}")
        mult[lam] = (2 * acc) // den
    return tuple((lam, m) for lam, m in mult.items() if m)


def weight_system(t: LieType, mu, max_dim: int = DEFAULT_MAX_DIM) -> WeightSystem:
    """Weight system of the irreducible with highest weight mu.

    Aborts with ResourceLimitError when weyl_dim(mu) exceeds max_dim.  The
    guard runs on every call, before the cache of dominant multiplicities.
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
