"""Grading elements, eigenspace decompositions, reality types and Hodge vectors.

A grading element E = sum of coweights A^i over a support set evaluates a
weight lambda to the sum of lambda's simple-root coordinates over that
support.  Internal eigenvalues are the raw lambda(E_ss) values; the shift
to the Hodge normalization (top eigenvalue n/2) happens only when the
vector is assembled, so the center charge stays a single auditable step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Tuple

from .errors import ConsistencyError, ShapeError
from .repweights import DEFAULT_MAX_DIM, weight_system, weyl_orbit
from .rootdata import (
    LieType,
    Weight,
    dual_weight,
    mu_plus_mu_star_closed_form,
    root_system,
    weight_to_root_coords,
)

REAL = "real"
COMPLEX = "complex"
QUATERNIONIC = "quaternionic"


@dataclass(frozen=True)
class GradingElement:
    """0/1 coefficients over simple-root indices; E_ss = sum coeffs_i A^i."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if not all(c in (0, 1) for c in self.coeffs):
            raise ValueError(f"grading coefficients must be 0/1, got {self.coeffs}")
        if not any(self.coeffs):
            raise ValueError("grading element must be nonzero")

    @property
    def support(self) -> Tuple[int, ...]:
        """1-based indices of the painted nodes."""
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c)

    @staticmethod
    def from_nodes(rank: int, nodes: Sequence[int]) -> "GradingElement":
        """Build from 1-based node indices, e.g. [1, 3] on rank 4."""
        coeffs = [0] * rank
        for n in nodes:
            if not 1 <= n <= rank:
                raise ValueError(f"node {n} outside 1..{rank}")
            if coeffs[n - 1]:
                raise ValueError(f"node {n} repeated; coefficients must stay 0/1")
            coeffs[n - 1] = 1
        return GradingElement(tuple(coeffs))

    def __str__(self) -> str:
        return "+".join(f"A{i}" for i in self.support)


@dataclass(frozen=True)
class EigenDecomp:
    """(eigenvalue, dimension) pairs with strictly decreasing eigenvalues."""

    levels: Tuple[Tuple[Fraction, int], ...]

    def __post_init__(self):
        evs = [ev for ev, _ in self.levels]
        if any(evs[k] <= evs[k + 1] for k in range(len(evs) - 1)):
            raise ValueError("eigenvalues must be strictly decreasing")

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(d for _, d in self.levels)

    @property
    def eigenvalues(self) -> Tuple[Fraction, ...]:
        return tuple(ev for ev, _ in self.levels)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def span(self) -> Fraction:
        return self.levels[0][0] - self.levels[-1][0]


@dataclass(frozen=True)
class HodgeVector:
    """Eigenspace dimensions read from the top eigenvalue down."""

    dims: Tuple[int, ...]

    @property
    def is_palindromic(self) -> bool:
        return self.dims == tuple(reversed(self.dims))

    @property
    def is_weight1(self) -> bool:
        return len(self.dims) == 2 and self.dims[0] == self.dims[1] >= 1

    @property
    def is_cy3(self) -> bool:
        d = self.dims
        return len(d) == 4 and d[0] == d[3] == 1 and d[1] == d[2] >= 1


@dataclass(frozen=True)
class RealFormDescriptor:
    """Painted-node set (the Vogan data) plus a name when catalogued."""

    painted: Tuple[int, ...]
    name: Optional[str] = None

    def label(self) -> str:
        if self.name is not None:
            return self.name
        return "painted{" + ",".join(str(i) for i in self.painted) + "}"


@dataclass(frozen=True)
class HodgeTuple:
    """One classified record (simple algebra case).

    reality is the type of U with respect to the semisimple real form; rows
    with span < level carry the center charge c = level/2 - mu(E_ss) that
    makes U complex with respect to the full reductive algebra.
    """

    algebra: LieType
    E: GradingElement
    mu: Weight
    span: int
    level: int
    reality: str
    c: Fraction
    hodge: HodgeVector
    real_form: RealFormDescriptor
    is_canonical: bool = True
    canonical_key: Optional[Tuple] = None


def mu_of_grading(t: LieType, mu, E: GradingElement) -> Fraction:
    """mu(E_ss): sum of mu's simple-root coordinates over the support."""
    rc = weight_to_root_coords(t, mu)
    return sum((rc[i - 1] for i in E.support), Fraction(0))


def level(t: LieType, mu, E: GradingElement) -> int:
    """(mu + mu*)(E_ss) by the closed forms; an integer, since mu + mu* =
    mu - w0(mu) lies in the root lattice."""
    rc = mu_plus_mu_star_closed_form(t, mu)
    total = sum((rc[i - 1] for i in E.support), Fraction(0))
    if total.denominator != 1:
        raise ConsistencyError(f"(mu+mu*)(E) = {total} not integral for {tuple(mu)} on {t}")
    return int(total)


def eigenspace_dims(t: LieType, mu, E: GradingElement,
                    max_dim: int = DEFAULT_MAX_DIM) -> EigenDecomp:
    """Dimensions of the eigenspaces of E_ss on the weight spaces of V(mu).

    Each dominant weight lambda adds its multiplicity to the eigenvalue
    nu(E_ss) of every nu in its Weyl orbit; the full weight map is never
    built.  Eigenvalues step down by the number of supported simple roots
    subtracted from mu, so lambda(E) = mu(E) - k with k a nonnegative
    integer.
    """
    ws = weight_system(t, mu, max_dim=max_dim)
    rank = t.rank
    inv = root_system(t).inverse_cartan
    # weights on the support, as one rational row vector over a common denominator
    sup = [i - 1 for i in E.support]
    row = [sum(inv[j][i] for i in sup) for j in range(rank)]
    den = 1
    for x in row:
        den = den * x.denominator // math.gcd(den, x.denominator)
    int_row = [int(x * den) for x in row]

    buckets = {}
    for lam, m in ws.dominant:
        for nu in weyl_orbit(t, lam):
            s = sum(map(mul, int_row, nu))
            buckets[s] = buckets.get(s, 0) + m
    ws.check_total(sum(buckets.values()))
    levels = tuple(
        (Fraction(s, den), buckets[s]) for s in sorted(buckets, reverse=True)
    )
    # irreducibility makes the eigenvalue ladder contiguous with unit steps
    if any(a - b != 1 for (a, _), (b, _) in zip(levels, levels[1:])):
        raise ConsistencyError(f"eigenvalue ladder {levels} has a gap")
    return EigenDecomp(levels=levels)


def extremal_dim_is_one(mu, E: GradingElement) -> bool:
    """Top-eigenspace criterion: support(mu) inside support(E)."""
    if len(mu) != len(E.coeffs):
        raise ValueError("weight and grading element have different ranks")
    return all(E.coeffs[i] == 1 for i, c in enumerate(mu) if c != 0)


def reality_type(t: LieType, mu, E: GradingElement) -> str:
    """Real/complex/quaternionic type of U over the semisimple real form.

    Complex iff mu differs from its dual; otherwise the parity of
    mu(H_phi), H_phi = 2 sum of A^j over unsupported nodes, decides
    (odd: quaternionic, even: real).
    """
    mu = tuple(mu)
    if mu != dual_weight(t, mu):
        return COMPLEX
    rc = mu_plus_mu_star_closed_form(t, mu)  # = 2 mu in root coordinates
    pairing = sum(
        (rc[j] for j in range(t.rank) if E.coeffs[j] == 0), Fraction(0)
    )
    if pairing.denominator != 1:
        raise ConsistencyError(
            f"mu(H_phi) = {pairing} not integral for self-dual {mu} on {t}; "
            "node numbering is inconsistent"
        )
    return QUATERNIONIC if int(pairing) % 2 == 1 else REAL


def center_charge(level_n: int, mu_of_E: Fraction, reality: str) -> Fraction:
    """Charge of the one-dimensional center on U.

    The reality argument is the Hodge-assembly case: `real` means V_C = U
    (forcing c = 0); complex and quaternionic mean V_C = U + U* with the
    shift c = n/2 - mu(E_ss) (zero for quaternionic, where mu(E_ss) = n/2).
    """
    if reality == REAL:
        return Fraction(0)
    if reality == QUATERNIONIC:
        c = Fraction(level_n, 2) - Fraction(mu_of_E)
        if c != 0:
            raise ConsistencyError("quaternionic case requires mu(E_ss) = n/2")
        return c
    return Fraction(level_n, 2) - Fraction(mu_of_E)


def hodge_vector(decomp: EigenDecomp, reality: str, c: Fraction,
                 level_n: int) -> HodgeVector:
    """Assemble the Hodge vector of V_C at the requested level.

    real: V_C = U and the raw eigenvalues are already at the half-integer
    grid.  complex/quaternionic: shift U by c, adjoin U* with negated
    eigenvalues and reversed dimensions, and add level-wise.
    """
    shifted = [(ev + c, d) for ev, d in decomp.levels]
    if reality == REAL:
        combined = dict(shifted)
    else:
        combined = {}
        for ev, d in shifted:
            combined[ev] = combined.get(ev, 0) + d
        for ev, d in shifted:
            combined[-ev] = combined.get(-ev, 0) + d
    levels = sorted(combined, reverse=True)
    # trim zero extremes (cannot appear from irreducible input; kept for safety)
    while levels and combined[levels[0]] == 0:
        levels.pop(0)
    while levels and combined[levels[-1]] == 0:
        levels.pop()
    dims = tuple(combined[ev] for ev in levels)
    vec = HodgeVector(dims=dims)

    top = Fraction(level_n, 2)
    expected_levels = [top - k for k in range(level_n + 1)]
    if levels != expected_levels:
        raise ShapeError(
            f"eigenvalues {[str(x) for x in levels]} do not fill the grid "
            f"{[str(x) for x in expected_levels]} for level {level_n}",
            vector=dims,
        )
    if not vec.is_palindromic:
        raise ShapeError(f"assembled vector {dims} is not palindromic", vector=dims)
    if any(d <= 0 for d in dims):
        raise ShapeError(f"assembled vector {dims} has an empty level", vector=dims)
    if level_n == 3 and not vec.is_cy3:
        raise ShapeError(f"assembled vector {dims} is not of shape (1,a,a,1)", vector=dims)
    if level_n == 1 and not vec.is_weight1:
        raise ShapeError(f"assembled vector {dims} is not of shape (a,a)", vector=dims)
    return vec


def real_form(t: LieType, E: GradingElement) -> RealFormDescriptor:
    """Vogan descriptor (painted = support) with names for catalogued cases."""
    painted = E.support
    name = None
    if len(painted) == 1:
        i = painted[0]
        f, r = t.family, t.rank
        if f == "A":
            name = f"su({i},{r + 1 - i})"
        elif f == "B" and i == 1:
            name = f"so(2,{2 * r - 1})"
        elif f == "C" and i == r:
            name = f"sp({r},R)"
        elif f == "C" and i == 1:
            name = f"sp(1,{r - 1})"
        elif f == "D" and i == 1:
            name = f"so(2,{2 * r - 2})"
        elif f == "D" and i in (r - 1, r):
            name = f"so*({2 * r})"
        elif f == "E" and r == 6 and i in (1, 6):
            name = "e6(-14)"
        elif f == "E" and r == 7 and i == 7:
            name = "e7(-25)"
    return RealFormDescriptor(painted=painted, name=name)
