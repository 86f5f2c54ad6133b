"""Products of 2 or 3 simple factors: the semisimple level-3 cases.

A product representation is a tensor product of per-factor irreducibles;
its eigenspace decomposition is the discrete convolution of the factor
decompositions and its reality type follows the tensor rule (any complex
factor makes the product complex; otherwise parity of the quaternionic
count decides).  Only the factor-level patterns (1,1), (1,2) and (1,1,1)
can produce a CY3-shaped vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import ConsistencyError, ShapeError
from .hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    GradingElement,
    HodgeVector,
    RealFormDescriptor,
    eigenspace_dims,
    extremal_dim_is_one,
    hodge_vector,
    level,
    mu_of_grading,
    real_form,
    reality_type,
)
from .repweights import DEFAULT_MAX_DIM
from .rootdata import LieType, Weight


@dataclass(frozen=True)
class FactorSpec:
    """One simple factor of a product: (algebra, grading element, weight)."""

    lie_type: LieType
    E: GradingElement
    mu: Weight

    def sort_key(self):
        return (self.lie_type.family, self.lie_type.rank, self.E.coeffs, self.mu)


@dataclass(frozen=True)
class ProductTuple:
    """Classified record for a product of 2 or 3 simple factors."""

    factors: Tuple[FactorSpec, ...]
    span: int
    level: int
    reality: str
    c: Fraction
    hodge: HodgeVector
    real_forms: Tuple[RealFormDescriptor, ...]
    is_canonical: bool = True
    canonical_key: Optional[Tuple] = None


def convolve_eigen(decomps: Sequence[EigenDecomp]) -> EigenDecomp:
    """Eigenvalues add, dimensions multiply and accumulate."""
    if not 2 <= len(decomps) <= 3:
        raise ValueError("convolution takes 2 or 3 decompositions")
    acc = {ev: d for ev, d in decomps[0].levels}
    for dec in decomps[1:]:
        nxt = {}
        for ev1, d1 in acc.items():
            for ev2, d2 in dec.levels:
                key = ev1 + ev2
                nxt[key] = nxt.get(key, 0) + d1 * d2
        acc = nxt
    levels = tuple((ev, acc[ev]) for ev in sorted(acc, reverse=True))
    return EigenDecomp(levels=levels)


def tensor_reality(types: Sequence[str]) -> str:
    """Reality type of a tensor product from the factor types."""
    if not 2 <= len(types) <= 3:
        raise ValueError("tensor rule takes 2 or 3 factors")
    if any(t == COMPLEX for t in types):
        return COMPLEX
    quats = sum(1 for t in types if t == QUATERNIONIC)
    return QUATERNIONIC if quats % 2 == 1 else REAL


def combine(factors: Sequence[FactorSpec],
            max_dim: int = DEFAULT_MAX_DIM) -> ProductTuple:
    """Assemble a level-3 product tuple, or raise ShapeError.

    Factor-level patterns: (1,1) needs the joint type complex or
    quaternionic (the center charge 3/2 - sum mu_i(E_i) then splits U from
    U*); (1,2) and (1,1,1) need the joint type real with c = 0.  Every
    factor must have a one-dimensional top eigenspace.
    """
    factors = tuple(sorted(factors, key=FactorSpec.sort_key))
    if not 2 <= len(factors) <= 3:
        raise ShapeError("products need 2 or 3 simple factors")

    spans: List[int] = []
    for f in factors:
        if not extremal_dim_is_one(f.mu, f.E):
            raise ShapeError(
                f"factor ({f.lie_type}, {f.E}, {f.mu}) has top eigenspace "
                "dimension > 1 (support of mu not inside support of E)"
            )
        s = level(f.lie_type, f.mu, f.E)
        if s < 1:
            raise ShapeError(f"factor level {s} is not a positive integer")
        spans.append(s)

    pattern = tuple(sorted(spans))
    if pattern not in ((1, 1), (1, 2), (1, 1, 1)):
        raise ShapeError(
            f"factor levels {spans} cannot produce a level-3 product "
            "(allowed patterns: 1+1, 1+2, 1+1+1)"
        )

    joint = tensor_reality([reality_type(f.lie_type, f.mu, f.E) for f in factors])
    total_span = sum(spans)
    mu_e = sum((mu_of_grading(f.lie_type, f.mu, f.E) for f in factors), Fraction(0))

    if pattern == (1, 1):
        if joint == REAL:
            raise ShapeError(
                "1+1 products with joint real type stay at level 2; "
                "the tables keep only complex or quaternionic joint types"
            )
        c = Fraction(3, 2) - mu_e
        case = COMPLEX
    else:
        if joint != REAL:
            raise ShapeError(
                f"level pattern {pattern} requires a real joint type, got {joint}"
            )
        c = Fraction(0)
        if mu_e != Fraction(3, 2):
            raise ConsistencyError("real product must already sit at mu(E) = 3/2")
        case = REAL

    conv = convolve_eigen([eigenspace_dims(f.lie_type, f.mu, f.E, max_dim=max_dim)
                           for f in factors])
    vec = hodge_vector(conv, case, c, 3)
    return ProductTuple(
        factors=factors,
        span=total_span,
        level=3,
        reality=joint,
        c=c,
        hodge=vec,
        real_forms=tuple(real_form(f.lie_type, f.E) for f in factors),
    )
