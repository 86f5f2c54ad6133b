"""Weight systems of irreducible highest-weight representations.

Multiplicities are computed at dominant weights by Freudenthal's recursion
and extended to the other chambers by Weyl-orbit generation.  Everything
runs in exact integer arithmetic; the invariant form is the symmetrized
pairing (lambda, beta) = sum_j beta_j d_j lambda^j for lambda in
fundamental coordinates and beta a root in simple-root coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List

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
    """Complete multiplicity map of one irreducible representation."""

    lie_type: LieType
    highest: Weight
    multiplicities: Dict[Weight, int]

    @property
    def dimension(self) -> int:
        return sum(self.multiplicities.values())

    def items(self):
        return self.multiplicities.items()


def _check_dominant(mu) -> None:
    if any(c < 0 for c in mu):
        raise NonDominantError(f"weight {tuple(mu)} is not dominant")


def _pairing(rsd: RootSystemData, lam, beta) -> int:
    """(lambda, beta) with lambda in fundamental and beta in root coordinates."""
    d = rsd.symmetrizer
    return sum(beta[j] * d[j] * lam[j] for j in range(len(beta)))


def weyl_dim(t: LieType, mu) -> int:
    """Dimension by the Weyl formula, prod (mu+rho, beta) / (rho, beta)."""
    _check_dominant(mu)
    rsd = root_system(t)
    rho = rsd.weyl_vector
    mu_rho = tuple(m + 1 for m in mu)
    num = 1
    den = 1
    for beta in rsd.positive_roots:
        num *= _pairing(rsd, mu_rho, beta)
        den *= _pairing(rsd, rho, beta)
    if num % den:
        raise ConsistencyError(f"Weyl dimension of {tuple(mu)} on {t} is not integral")
    return num // den


def reflect(t: LieType, w: Weight, i: int) -> Weight:
    """Simple reflection s_i (0-based node index) in fundamental coordinates."""
    cartan = root_system(t).cartan
    ci = w[i]
    if ci == 0:
        return tuple(w)
    return tuple(w[j] - ci * cartan[i][j] for j in range(len(w)))


def dominant_conjugate(t: LieType, w: Weight) -> Weight:
    """The dominant Weyl-chamber representative of a weight."""
    cur = tuple(w)
    while True:
        neg = next((i for i, c in enumerate(cur) if c < 0), None)
        if neg is None:
            return cur
        cur = reflect(t, cur, neg)


def weyl_orbit(t: LieType, w: Weight) -> List[Weight]:
    """Full Weyl orbit of a weight, generated by simple reflections."""
    rank = t.rank
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                u = reflect(t, v, i)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


def _dominant_candidates(t: LieType, mu: Weight) -> List[Weight]:
    """Dominant weights of V(mu): mu minus positive roots, staying dominant."""
    rsd = root_system(t)
    rank = t.rank
    pos_fund = [
        tuple(sum(beta[j] * rsd.cartan[j][i] for j in range(rank)) for i in range(rank))
        for beta in rsd.positive_roots
    ]
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


def _freudenthal(t: LieType, mu: Weight) -> Dict[Weight, int]:
    """Multiplicities at the dominant weights of V(mu)."""
    rsd = root_system(t)
    rank = t.rank
    rho = rsd.weyl_vector
    pos = rsd.positive_roots
    pos_fund = [
        tuple(sum(beta[j] * rsd.cartan[j][i] for j in range(rank)) for i in range(rank))
        for beta in pos
    ]
    norms = [_pairing(rsd, pf_to_lam, beta) for beta, pf_to_lam in zip(pos, pos_fund)]

    candidates = _dominant_candidates(t, mu)
    candidates.sort(key=lambda lam: _root_height_from(t, mu, lam))

    mult: Dict[Weight, int] = {tuple(mu): 1}
    for lam in candidates:
        if lam == tuple(mu):
            continue
        acc = 0
        for beta, pf, bnorm in zip(pos, pos_fund, norms):
            lam_beta = _pairing(rsd, lam, beta)
            k = 1
            while True:
                nu = tuple(lam[i] + k * pf[i] for i in range(rank))
                m = mult.get(dominant_conjugate(t, nu), 0)
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
    return mult


@lru_cache(maxsize=64)
def _weight_system_cached(t: LieType, mu: Weight, max_dim: int) -> WeightSystem:
    dim = weyl_dim(t, mu)
    if dim > max_dim:
        raise ResourceLimitError(
            f"weight system of {t} with highest weight {mu} has dimension "
            f"{dim}, above the size guard {max_dim}",
            dimension=dim,
        )
    dom = _freudenthal(t, mu)
    full: Dict[Weight, int] = {}
    for lam, m in dom.items():
        if m == 0:
            continue
        for w in weyl_orbit(t, lam):
            full[w] = m
    ws = WeightSystem(lie_type=t, highest=tuple(mu), multiplicities=full)
    if ws.dimension != dim:
        raise ConsistencyError(f"multiplicity total {ws.dimension} != weyl_dim {dim}")
    return ws


def weight_system(t: LieType, mu, max_dim: int = DEFAULT_MAX_DIM) -> WeightSystem:
    """Full weight system of the irreducible with highest weight mu.

    Aborts with ResourceLimitError when weyl_dim(mu) exceeds max_dim.
    """
    _check_dominant(mu)
    return _weight_system_cached(t, tuple(int(c) for c in mu), max_dim)
