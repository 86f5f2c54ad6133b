"""Assembly of a Hodge tuple from one to three simple factors.

A Hodge representation of g1 x ... x gk is the tensor product of per-factor
irreducibles, so a simple algebra is the one-factor case.  The eigenspace
ladder has the sum of the factor tops as its top and the integer
polynomial product of the factor dimension ladders as its dimensions; its
reality type follows the tensor rule (any complex factor makes the product
complex; otherwise parity of the quaternionic count decides).  One rule,
`_assembly_case`, is the engine's whole validity test: it reads the
factor count, each factor's level, reality type and top-eigenspace flag,
and the joint type, and picks the assembly case.  Every ShapeError is
raised there, and `hodgecore.hodge_vector` only folds; the center charge
comes from `hodgecore.center_charge` at the top of the joint ladder.

Everything the rule reads of one factor sits in a per-factor summary, and
so do three facts, each built on first use and once: the factor's
ladder, whose top is mu(E), and its real form, which only assembled
tuples and `inspect` read, and its canonical mark, which only a sweep
reads: is its (E nodes, mu) the least of its images under the diagram
automorphisms?  Those act on each factor alone, so a tuple is the
canonical representative of its orbit exactly when every factor is.  A
ladder is the closed form at spans 1 to 3, which builds no weight system,
and takes the orbit route otherwise; every factor the rule admits has
span 1 to 3, so only `inspect`, which asks for a simple candidate's
ladder before the rule runs, can reach the orbit route, and only it
passes a size guard.  A `SummaryTable` holds one run's summaries keyed by
(type, sorted E nodes, mu), the one key by which the engine names a
factor, and its one method, `summarise`, is the one way in for a factor:
it builds a key's FactorSpec, grading element and summary on the key's
first request, so a factor that recurs within a run is summarised once;
the table dies with its run.  Sweep candidates and table rows are keys as
they stand; `assemble` and `inspect` pass theirs to a table of their own.
A sweep hands its candidates' summaries to `product_tuples`, its one route
to tuples of one to three factors, which marks each tuple canonical from
its summaries.  The sweep groups the summaries by what the rule reads,
(span, reality type, top flag), asks the rule once per multiset of groups,
and assembles only the multisets it admits.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from operator import attrgetter

from .errors import ShapeError
from .hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    FactorSpec,
    GradingElement,
    HodgeTuple,
    _check_lengths,
    center_charge,
    eigen_ladder,
    extremal_dim_is_one,
    hodge_vector,
    level,
    real_form,
    reality_type,
)
from .repweights import DEFAULT_MAX_DIM
from .rootdata import diagram_automorphisms


def convolve_eigen(decomps: Sequence[EigenDecomp]) -> EigenDecomp:
    """Tops add; the dimension ladders multiply as integer polynomials.
    A single ladder is its own product."""
    if not 1 <= len(decomps) <= 3:
        raise ValueError("convolution takes 1 to 3 decompositions")
    top, dims = decomps[0]
    for dec in decomps[1:]:
        nxt = [0] * (len(dims) + len(dec.dims) - 1)
        for i, a in enumerate(dims):
            for j, b in enumerate(dec.dims):
                nxt[i + j] += a * b
        top, dims = top + dec.top, nxt
    # products of positive ladders are positive: no rung to check again
    return EigenDecomp._make((top, tuple(dims)))


def tensor_reality(types: Sequence[str]) -> str:
    """Reality type of a tensor product from the factor types."""
    if not 1 <= len(types) <= 3:
        raise ValueError("tensor rule takes 1 to 3 factors")
    if len(types) == 1:
        return types[0]
    if any(t == COMPLEX for t in types):
        return COMPLEX
    quats = sum(1 for t in types if t == QUATERNIONIC)
    return QUATERNIONIC if quats % 2 == 1 else REAL


def _apply_perm(perm: tuple[int, ...], vec: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(vec)
    for src, dst in enumerate(perm):
        out[dst] = vec[src]
    return tuple(out)


class _FactorSummary:
    """What the assembly rule reads of one factor: its level, reality type
    and whether its top eigenspace is one-dimensional.  The ladder, the
    real form and the canonical mark are each built once, on first use.
    `key` is the factor's FactorSpec.sort_key, by which a tuple orders its
    factors.  Only `SummaryTable.summarise` builds one."""

    __slots__ = ("factor", "key", "span", "reality", "top_is_one", "_eigen",
                 "_real_form", "_canonical")

    def __init__(self, f: FactorSpec):
        self.factor = f
        self.key = f.sort_key()
        self.span = level(f.lie_type, f.mu, f.E)
        self.reality = reality_type(f.lie_type, f.mu, f.E)
        self.top_is_one = extremal_dim_is_one(f.mu, f.E)
        self._eigen: EigenDecomp | None = None
        self._real_form: str | None = None
        self._canonical: bool | None = None

    def eigen(self, max_dim: int = DEFAULT_MAX_DIM) -> EigenDecomp:
        """The factor's ladder, built by the first call.  max_dim guards
        that build only where it takes the orbit route, which no admitted
        factor does; `inspect` passes its --max-dim here."""
        if self._eigen is None:
            f = self.factor
            self._eigen = eigen_ladder(f.lie_type, f.mu, f.E, self.span, max_dim)
        return self._eigen

    def real_form(self) -> str:
        """The factor's real-form label, built by the first call."""
        if self._real_form is None:
            self._real_form = real_form(self.factor.lie_type, self.factor.E)
        return self._real_form

    def is_canonical(self) -> bool:
        """Is the factor the lexicographically least (E nodes, mu) of its
        images under the diagram automorphisms?  Built by the first call,
        from permuted nodes and coefficients."""
        if self._canonical is None:
            f = self.factor
            own = (f.E.support, f.mu)
            # the identity's image is the factor itself
            self._canonical = all(
                own <= (tuple(sorted(perm[n - 1] + 1 for n in f.E.support)),
                        _apply_perm(perm, f.mu))
                for perm in diagram_automorphisms(f.lie_type)[1:])
        return self._canonical


class SummaryTable:
    """One run's factor summaries, one per distinct (type, E nodes, mu),
    and the only place a summary is built.  Each run makes its own table,
    so nothing outlives the run."""

    __slots__ = ("_summaries",)

    def __init__(self):
        self._summaries: dict[tuple, _FactorSummary] = {}

    def summarise(self, keys) -> list[_FactorSummary]:
        """One summary per factor key (type, sorted E nodes, mu), in
        FactorSpec.sort_key order.  A key's FactorSpec and grading element
        are built on its first request, here and nowhere else."""
        found = []
        for key in keys:
            s = self._summaries.get(key)
            if s is None:
                t, nodes, mu = key
                s = self._summaries[key] = _FactorSummary(
                    FactorSpec(t, GradingElement.from_nodes(t.rank, nodes), mu))
            found.append(s)
        return sorted(found, key=attrgetter("key"))


def _assembly_case(level_n: int, summaries: Sequence[_FactorSummary]) -> tuple[str, str]:
    """(Hodge-assembly case, joint reality type) of the factors `summaries`
    at level `level_n`, or ShapeError: the engine's validity test.

    A tuple has at most 3 factors.  At level 3 each factor, in order, needs
    a one-dimensional top eigenspace.  One factor: at level 1 it needs
    span 1, and the case is its own type.  At level 3 every tuple of total
    span below 3, i.e. one factor of span 1 or 2 and 1+1, is the U + U*
    (complex) case, where the center charge 3/2 - mu(E_ss) splits U from
    U*; 1+1 also needs the joint type complex or quaternionic.  Total span
    3, i.e. one factor of span 3, 1+2 and 1+1+1, needs the joint type real
    with c = 0.  A zero weight has span 0, which the level patterns refuse.
    """
    if len(summaries) > 3:
        raise ShapeError("products need 2 or 3 simple factors")
    if level_n == 3:
        for s in summaries:
            if not s.top_is_one:
                f = s.factor
                raise ShapeError(
                    f"factor ({f.lie_type}, {f.E}, {f.mu}) has top eigenspace "
                    "dimension > 1 (support of mu not inside support of E)"
                )
    spans = [s.span for s in summaries]
    joint = tensor_reality([s.reality for s in summaries])
    pattern = tuple(sorted(spans))
    if level_n == 1:
        if pattern != (1,):
            raise ShapeError(f"factor levels {spans} cannot produce a level-1 tuple "
                             "(allowed: one factor of level 1)")
        return joint, joint
    if len(pattern) == 1:
        if not 1 <= pattern[0] <= 3:
            raise ShapeError(f"factor level {pattern[0]} is outside 1..3")
    elif pattern not in ((1, 1), (1, 2), (1, 1, 1)):
        raise ShapeError(
            f"factor levels {spans} cannot produce a level-3 product "
            "(allowed patterns: 1+1, 1+2, 1+1+1)"
        )
    if sum(pattern) < 3:
        if pattern == (1, 1) and joint == REAL:
            raise ShapeError(
                "1+1 products with joint real type stay at level 2; "
                "the tables keep only complex or quaternionic joint types"
            )
        return COMPLEX, joint
    if joint != REAL:
        raise ShapeError(
            f"level pattern {pattern} requires a real joint type, got {joint}"
        )
    return REAL, joint


def assemble_summaries(summaries: Sequence[_FactorSummary], level_n: int) -> HodgeTuple:
    """The level-`level_n` Hodge tuple of summaries in factor order (as
    `SummaryTable.summarise` gives them), or ShapeError from
    `_assembly_case`."""
    case, joint = _assembly_case(level_n, summaries)
    ladder = convolve_eigen([s.eigen() for s in summaries])
    # the top of the joint ladder is mu(E_ss), summed over the factors
    c = center_charge(level_n, ladder.top, case)
    vec = hodge_vector(ladder, case, c, level_n)
    return HodgeTuple(
        factors=tuple(s.factor for s in summaries),
        span=sum(s.span for s in summaries),
        level=level_n,
        reality=joint,
        c=c,
        hodge=vec,
        real_forms=tuple(s.real_form() for s in summaries),
    )


def assemble(factors: Sequence[FactorSpec], level_n: int) -> HodgeTuple:
    """The level-`level_n` Hodge tuple of one to three factors, or
    ShapeError: `assemble_summaries` of their keys' summaries, in a table
    of their own; ValueError for an E whose length is not the rank."""
    for f in factors:
        _check_lengths(f.lie_type, f.mu, f.E)
    return assemble_summaries(SummaryTable().summarise(
        [(f.lie_type, f.E.support, f.mu) for f in factors]), level_n)


def _groups(summaries: Sequence[_FactorSummary]) -> dict[tuple, list[int]]:
    """The positions of the summaries by (span, reality type, top flag):
    all the assembly rule reads of a factor."""
    groups: dict[tuple, list[int]] = {}
    for pos, s in enumerate(summaries):
        groups.setdefault((s.span, s.reality, s.top_is_one), []).append(pos)
    return groups


def _admits(level_n: int, reps: Sequence[_FactorSummary]) -> bool:
    """Does `_assembly_case` admit level `level_n` on these factors, one
    representative summary per group of a multiset?"""
    try:
        _assembly_case(level_n, reps)
    except ShapeError:
        return False
    return True


def _positions(groups: dict[tuple, list[int]], keys: Sequence[tuple]):
    """Every ascending position tuple with one member of each group in the
    multiset `keys`, in which equal keys are adjacent."""
    runs = [itertools.combinations_with_replacement(groups[k], len(list(same)))
            for k, same in itertools.groupby(keys)]
    for parts in itertools.product(*runs):
        yield tuple(sorted(itertools.chain.from_iterable(parts)))


def product_tuples(summaries: Sequence[_FactorSummary], level_n: int,
                   max_factors: int) -> list[HodgeTuple]:
    """The level-`level_n` tuple of every multiset of 1 to `max_factors`
    summaries that `assemble_summaries` accepts, by size and then by
    position, marked canonical when each of its summaries is: the one
    route from a sweep's candidates to its tuples.

    The summaries are grouped by what the rule reads, and `_assembly_case`
    is asked once per multiset of groups, on one representative summary
    per group; only the multisets it admits are assembled, and a factor in
    many of them builds its ladder and its canonical mark once.
    """
    groups = _groups(summaries)
    out = []
    for size in range(1, max_factors + 1):
        formed = sorted(p for keys in itertools.combinations_with_replacement(groups, size)
                        if _admits(level_n, [summaries[groups[k][0]] for k in keys])
                        for p in _positions(groups, keys))
        chosen = [sorted((summaries[i] for i in pos), key=attrgetter("key")) for pos in formed]
        out.extend(assemble_summaries(c, level_n)._replace(
            is_canonical=all(s.is_canonical() for s in c)) for c in chosen)
    return out
