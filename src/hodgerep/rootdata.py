"""Static catalog of the ten simple Lie types.

Node numbering follows the Bourbaki convention throughout.  The Cartan
matrix is stored so that row i holds the fundamental-weight coordinates of
the simple root alpha_i.  Its inverse is one integer matrix over det(cartan),
so a weight in fundamental coordinates has simple-root coordinates
transpose(inverse_num) / inverse_den.  The level matrix holds omega_i +
omega_i* in simple-root coordinates, integers since mu - w0(mu) lies in
the root lattice; the paper's per-type closed forms of the same rows,
kept as an independent check, are integer too.  The catalog is
integer-only: no `fractions.Fraction` and no floating point.

Simple-root indices are 1-based in the public API, matching the usual
alpha_1..alpha_r labelling of Dynkin diagrams.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress, permutations
from operator import add, gt

from .errors import ConsistencyError, InvalidTypeError

Weight = tuple[int, ...]
RootCoords = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]

# (min rank, max rank or None for unbounded)
RANK_BOUNDS: dict[str, tuple[int, int | None]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class LieType(namedtuple("LieType", "family rank")):
    """A simple type letter with a rank, e.g. C3 for sp(6, C); ordered by
    (family, rank)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in RANK_BOUNDS:
            raise InvalidTypeError(f"unknown family {family!r}")
        lo, hi = RANK_BOUNDS[family]
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidTypeError(
                f"{family}{rank}: rank out of bounds for family "
                f"{family} (allowed {lo}..{hi if hi is not None else 'inf'})"
            )
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(text: str) -> "LieType":
        """Parse a label like "C3" or "E7"."""
        text = text.strip()
        if len(text) < 2 or not text[0].isalpha() or not text[1:].isdigit():
            raise InvalidTypeError(f"cannot parse Lie type {text!r}")
        return LieType(text[0].upper(), int(text[1:]))


class RootSystemData(namedtuple("RootSystemData", (
        "lie_type cartan inverse_num inverse_den level_matrix positive_roots "
        "positive_roots_fund neighbours symmetrizer root_columns node_roots "
        "rho_pairings root_masks duality"))):
    """Immutable root-system catalog entry for one simple type.

    cartan          row i = alpha_i in fundamental-weight coordinates
    inverse_num     adjugate of cartan: row i = inverse_den * omega_i in
                    simple-root coordinates
    inverse_den     det(cartan), the index of connection |P/Q|
    level_matrix    row i = omega_i + omega_i* in simple-root coordinates
    positive_roots  integer vectors in simple-root coordinates, by height
    positive_roots_fund  the same roots in fundamental coordinates
    neighbours      per node i, the pairs (j, cartan[i][j]) with j != i and
                    cartan[i][j] != 0: the Dynkin neighbours that a simple
                    reflection s_i moves besides i itself
    symmetrizer     d_i = (alpha_i, alpha_i)/2 with short roots of length^2 2
    root_columns    per node j, beta_j d_j for every positive root beta, so
                    (lambda, beta) sums lambda^j times column j over the
                    support of lambda
    node_roots      per node j, the indices of the positive roots beta with
                    beta_j > 0, in increasing order: for dominant lambda,
                    the roots in the lists of supp(lambda) are the only
                    ones with (lambda, beta) != 0, so a Weyl product over
                    them alone is the whole product (each other root adds
                    a factor 1)
    rho_pairings    (rho, beta) for every positive root beta
    root_masks      per positive root, the bitmask of its support: beta is
                    a root of the Levi factor off a node set S iff
                    mask & S == 0
    duality         the -w0 node involution as a 0-based index permutation,
                    so mu* = (mu[duality[0]], ..., mu[duality[r-1]])
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.lie_type.rank


def _chain_cartan(r: int) -> list[list[int]]:
    a = [[0] * r for _ in range(r)]
    for i in range(r):
        a[i][i] = 2
        if i + 1 < r:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    return a


def _cartan_matrix(t: LieType) -> IntMatrix:
    f, r = t.family, t.rank
    a = _chain_cartan(r)
    if f == "B":
        # alpha_r short: <alpha_{r-1}, alpha_r^vee> = -2
        a[r - 2][r - 1] = -2
    elif f == "C":
        # alpha_r long: <alpha_r, alpha_{r-1}^vee> = -2
        a[r - 1][r - 2] = -2
    elif f == "D":
        a[r - 2][r - 1] = 0
        a[r - 1][r - 2] = 0
        a[r - 3][r - 1] = -1
        a[r - 1][r - 3] = -1
    elif f == "E":
        # chain 1-3-4-5-..-r with node 2 hanging off node 4
        a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
        chain = [1, 3, 4, 5, 6, 7, 8][: r - 1]
        edges = list(zip(chain, chain[1:])) + [(2, 4)]
        for i, j in edges:
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = -1
    elif f == "F":
        a[1][2] = -2  # alpha_2 long, alpha_3 short
    elif f == "G":
        a[0][1] = -1
        a[1][0] = -3  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


def _symmetrizer(t: LieType) -> tuple[int, ...]:
    f, r = t.family, t.rank
    if f == "B":
        return tuple([2] * (r - 1) + [1])
    if f == "C":
        return tuple([1] * (r - 1) + [2])
    if f == "F":
        return (2, 2, 1, 1)
    if f == "G":
        return (1, 3)
    return tuple([1] * r)


def _inverse(matrix: IntMatrix) -> tuple[IntMatrix, int]:
    """(adj, det) of a Cartan matrix of finite type by fraction-free
    Gauss-Jordan (Bareiss): the pivots are the leading principal minors,
    positive for finite type, every division is exact, and [matrix | I]
    would end as [det I | adj].

    The work is done in one n x n matrix: column k holds the left block
    until step k and the right block after it, so step k sets the pivot
    row's entry to the last pivot `prev` (its scaled identity entry) and
    row i's to -f, f being its entry in the pivot column.  A row that no
    step has combined yet is kept as given: by Bareiss's invariant it
    stands for itself times `prev`, which is why it is 0 left of the
    pivot column.  Such a row is scaled by `prev` when it becomes the
    pivot row; first reached with f != 0 it becomes pivot * x - f * y,
    with no division, f read off the row as kept.  Every other row with 0
    in the pivot column is only rescaled."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    fresh = [True] * n
    prev = 1
    for k in range(n):
        pivot_row = rows[k]
        if fresh[k]:
            fresh[k] = False
            pivot_row = rows[k] = [prev * y for y in pivot_row]
        pivot = pivot_row[k]
        pivot_row[k] = prev
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            if fresh[i]:
                if f:
                    fresh[i] = False
                    row = rows[i] = [pivot * x - f * y for x, y in zip(row, pivot_row)]
                    row[k] = -f * prev
            elif f:
                row = rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
                row[k] = -f
            else:
                rows[i] = [pivot * x // prev for x in row]
        prev = pivot
    return tuple(map(tuple, rows)), prev


def _positive_roots(cartan: IntMatrix, sym: tuple[int, ...]
                    ) -> tuple[tuple[RootCoords, ...], tuple[Weight, ...],
                               tuple[int, ...], tuple[int, ...]]:
    """Positive roots in simple-root and in fundamental coordinates, sorted
    by height and then by coordinates, found one height at a time, with
    each root's support bitmask and its pairing (rho, beta) = sum_j
    beta_j d_j, `sym` holding the d_j.

    Each root beta carries its fundamental coordinates <beta, alpha_i^vee>
    and its string depths p_i, how far the alpha_i-string through beta
    reaches below it.  beta + alpha_i is a root iff p_i > <beta,
    alpha_i^vee> (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 9.4 and 10.2).  Every root gamma of the next
    height is found from each root beta = gamma - alpha_i, which sets
    p_i(gamma) = p_i(beta) + 1; an i with gamma - alpha_i not a root keeps
    p_i(gamma) = 0.  Adding alpha_i adds row i of the Cartan matrix to the
    fundamental coordinates, bit i to the mask and d_i to (rho, beta), so
    the first parent found sets all three.
    """
    r = len(cartan)
    nodes = range(r)
    layer = [(tuple(int(i == j) for j in nodes), cartan[i], [0] * r, 1 << i, sym[i])
             for i in reversed(nodes)]
    roots: list[RootCoords] = []
    fund: list[Weight] = []
    masks: list[int] = []
    rhos: list[int] = []
    while layer:
        above: dict[RootCoords, tuple[Weight, list[int], int, int]] = {}
        for beta, pairings, depths, mask, rho in layer:
            roots.append(beta)
            fund.append(pairings)
            masks.append(mask)
            rhos.append(rho)
            for i in compress(nodes, map(gt, depths, pairings)):
                gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                entry = above.get(gamma)
                if entry is None:
                    entry = above[gamma] = (tuple(map(add, pairings, cartan[i])), [0] * r,
                                            mask | 1 << i, rho + sym[i])
                entry[1][i] = depths[i] + 1
        layer = [(gamma, *entry) for gamma, entry in sorted(above.items())]
    return tuple(roots), tuple(fund), tuple(masks), tuple(rhos)


def _level_matrix(t: LieType, duality: tuple[int, ...], inverse_num: IntMatrix,
                  inverse_den: int) -> IntMatrix:
    """Row i: omega_i + omega_i* in simple-root coordinates, read off the
    integer inverse: (inverse_num[i] + inverse_num[i*]) / inverse_den, with
    i* = duality[i]."""
    rows = [tuple(map(add, row, inverse_num[j])) for row, j in zip(inverse_num, duality)]
    if any(x % inverse_den for row in rows for x in row):
        raise ConsistencyError(f"some omega_i + omega_i* on {t} is not in the root lattice")
    return tuple(tuple(x // inverse_den for x in row) for row in rows)


@lru_cache(maxsize=None)
def root_system(t: LieType) -> RootSystemData:
    """Full catalog entry for a simple type (cached, immutable)."""
    cartan = _cartan_matrix(t)
    r = t.rank
    inverse_num, inverse_den = _inverse(cartan)
    sym = _symmetrizer(t)
    roots, roots_fund, masks, rhos = _positive_roots(cartan, sym)
    duality = duality_permutation(t)
    plain = tuple(zip(*roots))  # beta_j per node j
    indices = tuple(range(len(roots)))  # one int per index, shared by the node lists
    return RootSystemData(
        lie_type=t,
        cartan=cartan,
        inverse_num=inverse_num,
        inverse_den=inverse_den,
        level_matrix=_level_matrix(t, duality, inverse_num, inverse_den),
        positive_roots=roots,
        positive_roots_fund=roots_fund,
        neighbours=tuple(
            tuple((j, cartan[i][j]) for j in range(r) if j != i and cartan[i][j])
            for i in range(r)),
        symmetrizer=sym,
        root_columns=tuple(col if d == 1 else tuple([x * d for x in col])
                           for col, d in zip(plain, sym)),
        node_roots=tuple(tuple(compress(indices, col)) for col in plain),
        rho_pairings=rhos,
        root_masks=masks,
        duality=duality,
    )


def _check_length(t: LieType, w) -> None:
    """Raise ValueError unless the weight w has one coordinate per node of t."""
    if len(w) != t.rank:
        raise ValueError(f"weight length {len(w)} != rank {t.rank}")


def _node_mask(rank: int, nodes) -> int:
    """The bitmask of distinct 1-based nodes on a rank-`rank` diagram, bit
    i - 1 for node i; ValueError for a node outside 1..rank or repeated."""
    mask = 0
    for n in nodes:
        if not 1 <= n <= rank:
            raise ValueError(f"node {n} outside 1..{rank}")
        if mask >> (n - 1) & 1:
            raise ValueError(f"node {n} repeated; coefficients must stay 0/1")
        mask |= 1 << (n - 1)
    return mask


def diagram_automorphisms(t: LieType) -> list[tuple[int, ...]]:
    """The diagram automorphism group as 0-based node permutations, the
    identity first."""
    f, r = t.family, t.rank
    idem = tuple(range(r))
    if f == "A" and r >= 2:
        return [idem, idem[::-1]]
    if f == "D" and r == 4:
        perms = []
        for img in permutations((0, 2, 3)):
            p = list(range(4))
            for src, dst in zip((0, 2, 3), img):
                p[src] = dst
            perms.append(tuple(p))
        return perms
    if f == "D" and r >= 5:
        return [idem, idem[:-2] + (r - 1, r - 2)]
    if f == "E" and r == 6:
        return [idem, (5, 1, 4, 3, 2, 0)]
    return [idem]


def duality_permutation(t: LieType) -> tuple[int, ...]:
    """The -w0 node involution as a 0-based index permutation: the
    nontrivial diagram automorphism on A_r, on D_r with r odd and on E6,
    and the identity elsewhere."""
    if t.family == "A" or t.family == "D" and t.rank % 2 or t == ("E", 6):
        return diagram_automorphisms(t)[-1]
    return tuple(range(t.rank))


def dual_weight(t: LieType, mu) -> Weight:
    """Highest weight of the dual representation, mu* = -w0(mu)."""
    _check_length(t, mu)
    return tuple([mu[j] for j in root_system(t).duality])


# omega_i + omega_i* in simple-root coordinates, row i - 1 for node i
_EXCEPTIONAL_ROWS = {
    ("E", 6): ((2, 2, 3, 4, 3, 2),
               (2, 4, 4, 6, 4, 2),
               (3, 4, 6, 8, 6, 3),
               (4, 6, 8, 12, 8, 4),
               (3, 4, 6, 8, 6, 3),
               (2, 2, 3, 4, 3, 2)),
    ("E", 7): ((4, 4, 6, 8, 6, 4, 2),
               (4, 7, 8, 12, 9, 6, 3),
               (6, 8, 12, 16, 12, 8, 4),
               (8, 12, 16, 24, 18, 12, 6),
               (6, 9, 12, 18, 15, 10, 5),
               (4, 6, 8, 12, 10, 8, 4),
               (2, 3, 4, 6, 5, 4, 3)),
    ("E", 8): ((8, 10, 14, 20, 16, 12, 8, 4),
               (10, 16, 20, 30, 24, 18, 12, 6),
               (14, 20, 28, 40, 32, 24, 16, 8),
               (20, 30, 40, 60, 48, 36, 24, 12),
               (16, 24, 32, 48, 40, 30, 20, 10),
               (12, 18, 24, 36, 30, 24, 16, 8),
               (8, 12, 16, 24, 20, 16, 12, 6),
               (4, 6, 8, 12, 10, 8, 6, 4)),
    ("F", 4): ((4, 6, 8, 4),
               (6, 12, 16, 8),
               (4, 8, 12, 6),
               (2, 4, 6, 4)),
    ("G", 2): ((4, 2),
               (6, 4)),
}


def _closed_form_row(t: LieType, i: int) -> RootCoords:
    """omega_i + omega_i* in simple-root coordinates, by per-type closed form.

    The type-A coefficient of alpha_j is the ramp/plateau profile
    min(j, r+1-j, m) with m = min(i, r+1-i); the literal pair of ramp sums
    double-counts the overlap once 2i >= r+1, so the profile form is used
    for every i.  On B, C and D every node but D's spin nodes at odd r is
    self-dual, and the row is twice omega_i: the ramp min(j, i) doubled,
    taken once where omega_i carries half of it.
    """
    f, r = t
    if f == "A":
        m = min(i, r + 1 - i)
        return tuple(min(j, r + 1 - j, m) for j in range(1, r + 1))
    if f not in "BCD":
        return _EXCEPTIONAL_ROWS[t][i - 1]
    row = [2 * min(j, i) for j in range(1, r + 1)]
    if f == "B" and i == r:  # omega_r = (alpha_1 + 2 alpha_2 + .. + r alpha_r) / 2
        row = list(range(1, r + 1))
    elif f == "C":  # omega_i ends in (i/2) alpha_r
        row[-1] = i
    elif f == "D" and i < r - 1:  # omega_i ends in (i/2)(alpha_{r-1} + alpha_r)
        row[-2:] = [i, i]
    elif f == "D":
        # 2 omega_{r-1} = alpha_1 + 2 alpha_2 + .. + (r-2) alpha_{r-2}
        # + (r/2) alpha_{r-1} + ((r-2)/2) alpha_r, and 2 omega_r swaps the
        # two ends; at odd r the spin nodes are dual, and each row is half
        # the sum of the two, ending in (r-1)/2 twice
        h = r // 2
        ends = [h, h] if r % 2 else [h, h - 1] if i == r - 1 else [h - 1, h]
        row = list(range(1, r - 1)) + ends
    return tuple(row)


def mu_plus_mu_star_closed_form(t: LieType, mu) -> RootCoords:
    """Simple-root coordinates of mu + mu*, in integers: the sum of mu_i
    times the closed-form row of omega_i + omega_i*.  Cross-checked exactly
    against the inverse-Cartan route by the closed-form equivalence
    property."""
    _check_length(t, mu)
    rows = [(m, _closed_form_row(t, i)) for i, m in enumerate(mu, 1) if m]
    return tuple(sum(m * row[j] for m, row in rows) for j in range(t.rank))


def catalogued_types(max_rank: int = 8) -> Iterator[LieType]:
    """All catalogued types with rank <= max_rank (exceptionals included)."""
    for f, (lo, hi) in RANK_BOUNDS.items():
        top = min(max_rank, hi) if hi is not None else max_rank
        for r in range(lo, top + 1):
            yield LieType(f, r)
