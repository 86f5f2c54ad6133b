"""Grading elements, eigenspace decompositions, reality types and Hodge vectors.

A grading element E = sum of coweights A^i over a support set evaluates a
weight lambda to the sum of lambda's simple-root coordinates over that
support.  The eigenvalues of E_ss on V(mu) form a unit-step ladder down
from mu(E_ss): a decomposition is its top (the one `Fraction`) and the
integer dimensions below it.  These raw eigenvalues are shifted to the
Hodge normalization (top eigenvalue n/2) only when the vector is
assembled, so the center charge stays a single auditable step.

A ladder has one route per span.  At span (mu + mu*)(E) of 1 to 3 it
is read off Weyl dimensions: the top eigenspace is the irreducible module
of the Levi factor l_E with highest weight mu (Green-Griffiths-Kerr), the
bottom one that of mu*, and weyl_dim and the zero trace of E_ss fix the
middle; no weight is visited, so nothing is size-guarded.  Every other
ladder (span 0, or above 3) is counted along the Weyl-orbit walks of the
Freudenthal dominant weights, behind the size guard of `weight_system`:
each dominant weight starts at its integer depth (mu - lambda)(E_ss)
below the top, and each step of its walk adds whole steps, so no orbit
element is paired with E.  The weights are invariant under w0, so the
walks under E and under sigma(E) = -w0(E) each stop at half the span and
give one half of the ladder each.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import add, mul

from .errors import ConsistencyError
from .repweights import DEFAULT_MAX_DIM, _orbit_depths, weight_system, weyl_levi_dims
from .rootdata import (LieType, RootSystemData, Weight, _check_length, _node_mask, dual_weight,
                       root_system)

REAL = "real"
COMPLEX = "complex"
QUATERNIONIC = "quaternionic"

_ZERO = Fraction(0)


class GradingElement(namedtuple("GradingElement", "coeffs support")):
    """0/1 coefficients over simple-root indices; E_ss = sum coeffs_i A^i.

    coeffs is kept as a tuple of ints, whatever 0/1 sequence it is given
    as; `support`, the 1-based indices of the painted nodes, follows from
    it, so the constructor, the repr and pickling take coeffs alone.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        if not all(c in (0, 1) for c in coeffs):
            raise ValueError(f"grading coefficients must be 0/1, got {coeffs}")
        if not any(coeffs):
            raise ValueError("grading element must be nonzero")
        coeffs = tuple(int(c) for c in coeffs)
        return super().__new__(cls, coeffs, tuple(i + 1 for i, c in enumerate(coeffs) if c))

    def __repr__(self) -> str:
        return f"GradingElement(coeffs={self.coeffs!r})"

    def __getnewargs__(self):
        return (self.coeffs,)

    @classmethod
    def from_nodes(cls, rank: int, nodes: Sequence[int]) -> GradingElement:
        """Build from 1-based node indices, e.g. [1, 3] on rank 4."""
        if not _node_mask(rank, nodes):
            raise ValueError("grading element must be nonzero")
        support = tuple(sorted(nodes))
        coeffs = [0] * rank
        for n in support:
            coeffs[n - 1] = 1
        return cls._make((tuple(coeffs), support))

    def __str__(self) -> str:
        return "+".join(f"A{i}" for i in self.support)


class EigenDecomp(namedtuple("EigenDecomp", "top dims")):
    """Eigenspace dimensions on a unit-step ladder: dims[k] sits at
    eigenvalue top - k.  The constructor refuses a non-positive rung for
    outside callers; the engine's routes check their rungs themselves and
    build the record with `_make`."""

    __slots__ = ()

    def __new__(cls, top: Fraction, dims: tuple[int, ...]):
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"ladder dimensions must be positive, got {dims}")
        return super().__new__(cls, top, dims)

    @property
    def levels(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple((self.top - k, d) for k, d in enumerate(self.dims))

    @property
    def span(self) -> int:
        return len(self.dims) - 1


class HodgeVector(namedtuple("HodgeVector", "dims")):
    """The Hodge numbers h^{n-p,p} of a tuple, p = 0..n: one int per
    level, as a printed row holds them.  Only `hodge_vector` checks their
    level-n shape."""

    __slots__ = ()


class FactorSpec(namedtuple("FactorSpec", "lie_type E mu")):
    """One simple factor of a Hodge tuple: (algebra, grading element, weight)."""

    __slots__ = ()

    def sort_key(self):
        return (self.lie_type.family, self.lie_type.rank, self.E.coeffs, self.mu)


class HodgeTuple(namedtuple("HodgeTuple", (
        "factors span level reality c hodge real_forms is_canonical"),
        defaults=(True,))):
    """One classified record of g = g1 x ... x gk: one factor for a simple
    algebra, two or three (in FactorSpec.sort_key order) for a product,
    whose representation is the tensor product of the factors'.

    reality is the type of U with respect to the semisimple real form; rows
    with span < level carry the center charge c = level/2 - mu(E_ss) that
    makes U complex with respect to the full reductive algebra.  hodge and
    real_forms hold what a printed row holds: the Hodge numbers as a
    HodgeVector of ints, and one real-form label (`real_form`) per factor.
    """

    __slots__ = ()


def _grading_row(rsd: RootSystemData, E: GradingElement) -> list[int]:
    """Integer g with lambda(E_ss) = (g . lambda) / inverse_den for lambda in
    fundamental coordinates: inverse_num's support columns summed."""
    sup = [i - 1 for i in E.support]
    return [sum(row[i] for i in sup) for row in rsd.inverse_num]


def _check_lengths(t: LieType, mu, E: GradingElement) -> None:
    """Raise ValueError unless mu and E each have one coordinate per node of t."""
    _check_length(t, mu)
    if len(E.coeffs) != t.rank:
        raise ValueError(f"grading element length {len(E.coeffs)} != rank {t.rank}")


def mu_of_grading(t: LieType, mu, E: GradingElement) -> Fraction:
    """mu(E_ss): sum of mu's simple-root coordinates over the support, read
    from the inverse_num rows of supp(mu) over the support's columns."""
    _check_lengths(t, mu, E)
    rsd = root_system(t)
    sup = [i - 1 for i in E.support]
    num = sum(m * sum(row[i] for i in sup) for m, row in zip(mu, rsd.inverse_num) if m)
    return Fraction(num, rsd.inverse_den)


def _level_sum(t: LieType, mu, nodes: Sequence[int]) -> int:
    """Sum of the simple-root coordinates of mu + mu* over 0-based nodes,
    from the type's integer level matrix."""
    rows = root_system(t).level_matrix
    return sum(m * rows[j][i] for j, m in enumerate(mu) if m for i in nodes)


def level(t: LieType, mu, E: GradingElement) -> int:
    """(mu + mu*)(E_ss); an integer, since mu + mu* = mu - w0(mu) lies in
    the root lattice."""
    _check_lengths(t, mu, E)
    return _level_sum(t, mu, [i - 1 for i in E.support])


def eigen_ladder(t: LieType, mu, E: GradingElement, span: int,
                 max_dim: int = DEFAULT_MAX_DIM) -> EigenDecomp:
    """The eigenspace ladder of E_ss on V(mu), given its span
    level(t, mu, E).

    At span 1 to 3 the ladder is the closed form, which reads its own top
    mu_of_grading(t, mu, E): its ends are the Levi dimensions of mu and
    mu*, and as the weights of V(mu) sum to 0, sum_k d_k = weyl_dim and
    sum_k k d_k = top weyl_dim fix its middle and check the rest, in
    integers.  weyl_dim and both Levi dimensions come from one pass over
    the roots that meet supp(mu), that of mu* as mu's off sigma(E)
    (`weyl_levi_dims`).  Other spans take the orbit walk, whose top comes
    from its grading rows, and which alone builds a weight system and so
    runs behind the size guard max_dim.  Each route checks its rungs once,
    so the record is built without a second scan.
    """
    if not 1 <= span <= 3:
        _check_lengths(t, mu, E)
        return _orbit_ladder(t, tuple(map(int, mu)), E, span, max_dim)
    top = mu_of_grading(t, mu, E)  # mu_of_grading checks the lengths
    mu = tuple(map(int, mu))
    dim, d_top, d_bot = weyl_levi_dims(t, mu, E.support)
    depth_sum, rem = divmod(top.numerator * dim, top.denominator)
    if rem:
        raise ConsistencyError(f"top {top} times weyl_dim {dim} of {mu} on {t} "
                               f"under E = {E} is not an integer")
    # s0 = d_1 + ... + d_{n-1} and s1 = sum of k d_k over the same middle
    s0 = dim - d_top - d_bot
    s1 = depth_sum - span * d_bot
    middle = {1: (), 2: (s0,), 3: (2 * s0 - s1, s1 - s0)}[span]
    dims = (d_top, *middle, d_bot)
    trace_free = sum(k * d for k, d in enumerate(dims)) == depth_sum
    if min(dims) <= 0 or sum(dims) != dim or not trace_free:
        raise ConsistencyError(f"ladder {dims} of {mu} on {t} under E = {E} does not "
                               f"fill weyl_dim {dim} with trace 0 about top {top}")
    return EigenDecomp._make((top, dims))


def _orbit_ladder(t: LieType, mu: Weight, E: GradingElement, span: int,
                  max_dim: int) -> EigenDecomp:
    """The ladder counted along Weyl-orbit walks, given its span
    n = (mu + mu*)(E_ss).  Each dominant weight lambda sits (mu -
    lambda)(E_ss) steps below the top mu(E_ss), and its walk steps each
    orbit element down by whole steps, so lambda's Freudenthal
    multiplicity is added at every depth its orbit reaches, without
    building the full weight map or pairing any orbit element.

    The weights of V(mu) are invariant under w0 = -sigma, sigma the
    duality of the nodes, and depth_E(w0 nu) = n - depth_sigma(E)(nu); so
    d_k(mu, E) = d_(n-k)(mu, sigma E), and the walks under E stop at depth
    floor(n/2) and those under sigma E, read upwards, give the rest.  When
    sigma E = E one set of walks gives both halves.  The tops under E and
    sigma E are mu(E) and mu*(E), so they check the given span.
    """
    ws = weight_system(t, mu, max_dim=max_dim)
    rsd = root_system(t)
    den = rsd.inverse_den
    flipped = GradingElement(tuple(E.coeffs[j] for j in rsd.duality))
    gradings = (E,) if flipped == E else (E, flipped)
    tops, starts = [], []
    for g in gradings:
        row = _grading_row(rsd, g)
        top = sum(map(mul, row, mu))
        depths = []
        for lam, _ in ws.dominant:
            diff = top - sum(map(mul, row, lam))
            depth, rem = divmod(diff, den)
            if rem or depth < 0:
                raise ConsistencyError(f"(mu - lambda)(E) = {Fraction(diff, den)} is not an "
                                       f"integer >= 0 for lambda = {lam} in V{mu} on {t} "
                                       f"under E = {g}")
            depths.append(depth)
        tops.append(top)
        starts.append(depths)
    if span * den != tops[0] + tops[-1]:
        raise ConsistencyError(f"span {span} of {mu} on {t} under E = {E} is not "
                               f"(mu + mu*)(E) = {Fraction(tops[0] + tops[-1], den)}")
    halves = []
    for g, depths, size in zip(gradings, starts, (span // 2 + 1, (span + 1) // 2)):
        counts = [0] * size
        for (lam, m), depth in zip(ws.dominant, depths):
            _orbit_depths(lam, rsd.neighbours, g.coeffs, depth, m, counts)
        halves.append(counts)
    dims = halves[0] + halves[-1][:(span + 1) // 2][::-1]
    ws.check_total(sum(dims))
    # irreducibility makes the eigenvalue ladder contiguous with unit steps
    if 0 in dims:
        raise ConsistencyError(f"eigenvalue ladder {dims} below "
                               f"{Fraction(tops[0], den)} has a gap")
    return EigenDecomp._make((Fraction(tops[0], den), tuple(dims)))


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
    _check_lengths(t, mu, E)
    mu = tuple(mu)
    if mu != dual_weight(t, mu):
        return COMPLEX
    # mu + mu* = 2 mu, so this sum over the unsupported nodes is mu(H_phi)
    pairing = _level_sum(t, mu, [j for j, c in enumerate(E.coeffs) if c == 0])
    return QUATERNIONIC if pairing % 2 == 1 else REAL


def center_charge(level_n: int, mu_of_E: Fraction, reality: str) -> Fraction:
    """Charge c = n/2 - mu(E_ss) of the one-dimensional center on U.

    The reality argument is the Hodge-assembly case: complex means
    V_C = U + U*, where c splits U from U*; real (V_C = U) and quaternionic
    (V_C = U + U* with U = U*) need mu(E_ss) = n/2 already, so c = 0.
    """
    p, q = mu_of_E.numerator, mu_of_E.denominator
    if reality != COMPLEX:
        if 2 * p != level_n * q:
            raise ConsistencyError(f"{reality} case requires mu(E_ss) = n/2")
        return _ZERO
    return Fraction(level_n * q - 2 * p, 2 * q)


def hodge_vector(decomp: EigenDecomp, reality: str, c: Fraction,
                 level_n: int) -> HodgeVector:
    """The Hodge vector of V_C at level n: the U + U* fold.

    The charge c puts the top of U at n/2, so level k of V_C holds dims[k]
    in the real case (V_C = U) and dims[k] + dims[n - k] in the complex and
    quaternionic cases, where U* is U's ladder reversed.  This is the one
    place the level-n shape is checked: the assembly rule in `products`
    admits only candidates whose fold is (a, a) at level 1 or (1, a, a, 1)
    at level 3, with a >= 1, so anything else, at any other level too, is a
    ConsistencyError.
    """
    n, dims = level_n, decomp.dims
    tp, tq, cp, cq = decomp.top.numerator, decomp.top.denominator, c.numerator, c.denominator
    if 2 * (tp * cq + cp * tq) != n * tq * cq:  # top + c = n/2
        raise ConsistencyError(f"ladder {dims} with top {decomp.top} and c = {c} "
                               f"does not start at the top of level {n}")
    # a ladder longer than n + 1 stays longer, and the length clause refuses it
    dims += (0,) * (n + 1 - len(dims))
    if reality != REAL:
        dims = tuple(map(add, dims, reversed(dims)))
    if (n not in (1, 3) or len(dims) != n + 1 or dims != dims[::-1] or min(dims) < 1
            or (n == 3 and dims[0] != 1)):
        raise ConsistencyError(f"assembled vector {dims} is not of level-{n} shape")
    return HodgeVector(dims)


def real_form(t: LieType, E: GradingElement) -> str:
    """The label of the real form that E paints on t: its name where one
    painted node gives a catalogued form, else painted{i,j,...}, the
    painted nodes (the Vogan diagram's data)."""
    painted = E.support
    if len(painted) == 1:
        i = painted[0]
        f, r = t.family, t.rank
        if f == "A":
            return f"su({i},{r + 1 - i})"
        if f == "B" and i == 1:
            return f"so(2,{2 * r - 1})"
        if f == "C" and i == r:
            return f"sp({r},R)"
        if f == "C" and i == 1:
            return f"sp(1,{r - 1})"
        if f == "D" and i == 1:
            return f"so(2,{2 * r - 2})"
        if f == "D" and i in (r - 1, r):
            return f"so*({2 * r})"
        if f == "E" and r == 6 and i in (1, 6):
            return "e6(-14)"
        if f == "E" and r == 7 and i == 7:
            return "e7(-25)"
    return "painted{" + ",".join(map(str, painted)) + "}"
