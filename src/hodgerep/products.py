"""Products of 2 or 3 simple factors: the semisimple level-3 cases.

A product representation is a tensor product of per-factor irreducibles.
Its eigenspace ladder has the sum of the factor tops as its top and the
integer polynomial product of the factor dimension ladders as its
dimensions; its reality type follows the tensor rule (any complex factor
makes the product complex; otherwise parity of the quaternionic count
decides).  Only the factor-level patterns (1,1), (1,2) and (1,1,1) can
produce a CY3-shaped vector, and the center charge comes from
`hodgecore.center_charge` like that of a simple factor.

Everything the rules read of one factor (the top-eigenspace check, its
level, reality type, mu(E) and eigenspace decomposition) sits in a
per-factor summary; mu(E) and the decomposition are computed on first
use, since only admitted combinations read them.  `combine` builds
summaries for the factors it is given; `product_tuples` builds one per
pool factor and asks the pattern and reality rule about every 1+1, 1+2
and 1+1+1 combination, assembling only those it admits.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter
from typing import List, Optional, Sequence

from .errors import ShapeError
from .hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    FactorSpec,
    HodgeTuple,
    center_charge,
    eigenspace_dims,
    extremal_dim_is_one,
    hodge_vector,
    level,
    mu_of_grading,
    real_form,
    reality_type,
)
from .repweights import DEFAULT_MAX_DIM


def convolve_eigen(decomps: Sequence[EigenDecomp]) -> EigenDecomp:
    """Tops add; the dimension ladders multiply as integer polynomials."""
    if not 2 <= len(decomps) <= 3:
        raise ValueError("convolution takes 2 or 3 decompositions")
    dims = [1]
    for dec in decomps:
        nxt = [0] * (len(dims) + len(dec.dims) - 1)
        for i, a in enumerate(dims):
            for j, b in enumerate(dec.dims):
                nxt[i + j] += a * b
        dims = nxt
    return EigenDecomp(top=sum(d.top for d in decomps), dims=tuple(dims))


def tensor_reality(types: Sequence[str]) -> str:
    """Reality type of a tensor product from the factor types."""
    if not 2 <= len(types) <= 3:
        raise ValueError("tensor rule takes 2 or 3 factors")
    if any(t == COMPLEX for t in types):
        return COMPLEX
    quats = sum(1 for t in types if t == QUATERNIONIC)
    return QUATERNIONIC if quats % 2 == 1 else REAL


class _FactorSummary:
    """What the product rules read of one factor.  Construction runs the
    top-eigenspace and level checks (ShapeError) and the reality type;
    mu(E) and the eigenspace decomposition, which only an admitted
    combination reads, are computed on first use with the caller's max_dim."""

    __slots__ = ("factor", "max_dim", "key", "span", "reality", "_mu_e", "_eigen")

    def __init__(self, f: FactorSpec, max_dim: int):
        if not extremal_dim_is_one(f.mu, f.E):
            raise ShapeError(
                f"factor ({f.lie_type}, {f.E}, {f.mu}) has top eigenspace "
                "dimension > 1 (support of mu not inside support of E)"
            )
        span = level(f.lie_type, f.mu, f.E)
        if span < 1:
            raise ShapeError(f"factor level {span} is not a positive integer")
        self.factor = f
        self.max_dim = max_dim
        self.key = f.sort_key()
        self.span = span
        self.reality = reality_type(f.lie_type, f.mu, f.E)
        self._mu_e: Optional[Fraction] = None
        self._eigen: Optional[EigenDecomp] = None

    def mu_e(self) -> Fraction:
        if self._mu_e is None:
            f = self.factor
            self._mu_e = mu_of_grading(f.lie_type, f.mu, f.E)
        return self._mu_e

    def eigen(self) -> EigenDecomp:
        if self._eigen is None:
            f = self.factor
            self._eigen = eigenspace_dims(f.lie_type, f.mu, f.E, max_dim=self.max_dim)
        return self._eigen


def _assembly_case(spans: List[int], joint: str) -> str:
    """Hodge-assembly case of factor levels `spans` with joint reality type
    `joint`, or ShapeError.

    (1,1) needs the joint type complex or quaternionic (the center charge
    3/2 - sum mu_i(E_i) then splits U from U*); (1,2) and (1,1,1) need the
    joint type real with c = 0.
    """
    pattern = tuple(sorted(spans))
    if pattern not in ((1, 1), (1, 2), (1, 1, 1)):
        raise ShapeError(
            f"factor levels {spans} cannot produce a level-3 product "
            "(allowed patterns: 1+1, 1+2, 1+1+1)"
        )
    if pattern == (1, 1):
        if joint == REAL:
            raise ShapeError(
                "1+1 products with joint real type stay at level 2; "
                "the tables keep only complex or quaternionic joint types"
            )
        return COMPLEX
    if joint != REAL:
        raise ShapeError(
            f"level pattern {pattern} requires a real joint type, got {joint}"
        )
    return REAL


def _assemble(summaries: Sequence[_FactorSummary]) -> HodgeTuple:
    """The product tuple of summaries in factor order, or ShapeError."""
    spans = [s.span for s in summaries]
    joint = tensor_reality([s.reality for s in summaries])
    case = _assembly_case(spans, joint)
    c = center_charge(3, sum(s.mu_e() for s in summaries), case)
    vec = hodge_vector(convolve_eigen([s.eigen() for s in summaries]), case, c, 3)
    factors = tuple(s.factor for s in summaries)
    return HodgeTuple(
        factors=factors,
        span=sum(spans),
        level=3,
        reality=joint,
        c=c,
        hodge=vec,
        real_forms=tuple(real_form(f.lie_type, f.E) for f in factors),
    )


def combine(factors: Sequence[FactorSpec],
            max_dim: int = DEFAULT_MAX_DIM) -> HodgeTuple:
    """Assemble a level-3 product tuple, or raise ShapeError.

    Every factor must have a one-dimensional top eigenspace and a positive
    level; the factor levels and the joint reality type must then pass
    `_assembly_case`.
    """
    factors = tuple(sorted(factors, key=FactorSpec.sort_key))
    if not 2 <= len(factors) <= 3:
        raise ShapeError("products need 2 or 3 simple factors")
    return _assemble([_FactorSummary(f, max_dim) for f in factors])


def _summaries(pool: Sequence[FactorSpec], max_dim: int) -> List[_FactorSummary]:
    """Summaries of the pool factors that pass the per-factor checks; every
    combination holding any other factor is rejected."""
    out = []
    for f in pool:
        try:
            out.append(_FactorSummary(f, max_dim))
        except ShapeError:
            pass
    return out


def product_tuples(pool1: Sequence[FactorSpec], pool2: Sequence[FactorSpec],
                   max_dim: int = DEFAULT_MAX_DIM) -> List[HodgeTuple]:
    """Every 1+1 and 1+1+1 combination of pool1 and 1+2 combination of
    pool1 x pool2 that `combine` accepts, in combination order.

    Each pool factor is summarised once, so a combination that
    `_assembly_case` rejects costs only that rule on cached levels and
    reality types, and a factor in many accepted combinations is
    decomposed once.
    """
    one, two = _summaries(pool1, max_dim), _summaries(pool2, max_dim)
    out = []
    for combo in itertools.chain(
            itertools.combinations_with_replacement(one, 2),
            itertools.product(one, two),
            itertools.combinations_with_replacement(one, 3)):
        try:
            out.append(_assemble(sorted(combo, key=attrgetter("key"))))
        except ShapeError:
            pass
    return out
