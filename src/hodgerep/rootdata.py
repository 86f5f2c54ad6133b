"""Static catalog of the ten simple Lie types.

Node numbering follows the Bourbaki convention throughout.  The Cartan
matrix is stored so that row i holds the fundamental-weight coordinates of
the simple root alpha_i; consequently a weight given in fundamental
coordinates is converted to simple-root coordinates by
transpose(inverse_cartan).  All arithmetic is exact (integers and
`fractions.Fraction`); no floating point appears anywhere in the engine.

Simple-root indices are 1-based in the public API, matching the usual
alpha_1..alpha_r labelling of Dynkin diagrams.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from .errors import InvalidTypeError

Weight = Tuple[int, ...]
RootCoords = Tuple[int, ...]
RationalVector = Tuple[Fraction, ...]
IntMatrix = Tuple[Tuple[int, ...], ...]
RationalMatrix = Tuple[Tuple[Fraction, ...], ...]

# (min rank, max rank or None for unbounded)
RANK_BOUNDS: Dict[str, Tuple[int, int]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class LieType:
    """A simple type letter with a rank, e.g. C3 for sp(6, C)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in RANK_BOUNDS:
            raise InvalidTypeError(f"unknown family {self.family!r}")
        lo, hi = RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidTypeError(
                f"{self.family}{self.rank}: rank out of bounds for family "
                f"{self.family} (allowed {lo}..{hi if hi is not None else 'inf'})"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(text: str) -> "LieType":
        """Parse a label like "C3" or "E7"."""
        text = text.strip()
        if len(text) < 2 or not text[0].isalpha() or not text[1:].isdigit():
            raise InvalidTypeError(f"cannot parse Lie type {text!r}")
        return LieType(text[0].upper(), int(text[1:]))


@dataclass(frozen=True)
class RootSystemData:
    """Immutable root-system catalog entry for one simple type.

    cartan          row i = alpha_i in fundamental-weight coordinates
    inverse_cartan  exact rational inverse of cartan
    positive_roots  integer vectors in simple-root coordinates, by height
    positive_roots_fund  the same roots in fundamental coordinates
    neighbours      per node i, the pairs (j, cartan[i][j]) with j != i and
                    cartan[i][j] != 0: the Dynkin neighbours that a simple
                    reflection s_i moves besides i itself
    weyl_vector     rho, all ones in fundamental coordinates
    symmetrizer     d_i = (alpha_i, alpha_i)/2 with short roots of length^2 2
    """

    lie_type: LieType
    cartan: IntMatrix
    inverse_cartan: RationalMatrix
    positive_roots: Tuple[RootCoords, ...]
    positive_roots_fund: Tuple[Weight, ...]
    neighbours: Tuple[Tuple[Tuple[int, int], ...], ...]
    weyl_vector: Weight
    symmetrizer: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.lie_type.rank


def _chain_cartan(r: int) -> List[List[int]]:
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


def _symmetrizer(t: LieType) -> Tuple[int, ...]:
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


def _invert_exact(matrix: IntMatrix) -> RationalMatrix:
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


def _pair_with_coroot(cartan: IntMatrix, beta: RootCoords, i: int) -> int:
    """<beta, alpha_i^vee> for beta in simple-root coordinates (0-based i)."""
    return sum(b * cartan[j][i] for j, b in enumerate(beta))


def _positive_roots(cartan: IntMatrix) -> Tuple[RootCoords, ...]:
    """Closure under simple-root addition, processed by height.

    beta + alpha_i is a root iff q > 0 in the alpha_i-string through beta,
    where q = p - <beta, alpha_i^vee> and p counts how far the string
    extends below beta.
    """
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new: List[RootCoords] = []
        for beta in frontier:
            for i in range(r):
                p = 0
                lower = list(beta)
                while True:
                    lower[i] -= 1
                    if tuple(lower) in roots:
                        p += 1
                    else:
                        break
                if p - _pair_with_coroot(cartan, beta, i) > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        new.append(cand)
        frontier = new
    return tuple(sorted(roots, key=lambda b: (sum(b), b)))


@lru_cache(maxsize=None)
def root_system(t: LieType) -> RootSystemData:
    """Full catalog entry for a simple type (cached, immutable)."""
    cartan = _cartan_matrix(t)
    r = t.rank
    roots = _positive_roots(cartan)
    return RootSystemData(
        lie_type=t,
        cartan=cartan,
        inverse_cartan=_invert_exact(cartan),
        positive_roots=roots,
        positive_roots_fund=tuple(
            tuple(sum(beta[j] * cartan[j][i] for j in range(r)) for i in range(r))
            for beta in roots),
        neighbours=tuple(
            tuple((j, cartan[i][j]) for j in range(r) if j != i and cartan[i][j])
            for i in range(r)),
        weyl_vector=tuple([1] * t.rank),
        symmetrizer=_symmetrizer(t),
    )


@lru_cache(maxsize=65536)
def _root_coords_cached(t: LieType, w: Tuple[Fraction, ...]) -> RationalVector:
    inv = root_system(t).inverse_cartan
    n = t.rank
    return tuple(sum(inv[i][j] * w[i] for i in range(n)) for j in range(n))


def weight_to_root_coords(t: LieType, w) -> RationalVector:
    """Simple-root coordinates of a weight given in fundamental coordinates."""
    if len(w) != t.rank:
        raise ValueError(f"weight length {len(w)} != rank {t.rank}")
    return _root_coords_cached(t, tuple(Fraction(x) for x in w))


def root_to_weight_coords(t: LieType, rc) -> RationalVector:
    """Fundamental coordinates of a vector given in simple-root coordinates."""
    cartan = root_system(t).cartan
    n = t.rank
    return tuple(sum(Fraction(rc[j]) * cartan[j][i] for j in range(n)) for i in range(n))


def duality_permutation(t: LieType) -> Tuple[int, ...]:
    """The -w0 node involution as a 0-based index permutation."""
    f, r = t.family, t.rank
    perm = list(range(r))
    if f == "A":
        perm = list(reversed(perm))
    elif f == "D" and r % 2 == 1:
        perm[r - 2], perm[r - 1] = perm[r - 1], perm[r - 2]
    elif f == "E" and r == 6:
        perm = [5, 1, 4, 3, 2, 0]
    return tuple(perm)


def dual_weight(t: LieType, mu) -> Weight:
    """Highest weight of the dual representation, mu* = -w0(mu)."""
    perm = duality_permutation(t)
    return tuple(mu[perm[i]] for i in range(t.rank))


def _ar_profile(r: int, i: int) -> List[Fraction]:
    # ramp 1,2,..,m, plateau m, ramp down; m = min{i, r+1-i}
    m = min(i, r + 1 - i)
    return [Fraction(min(j, r + 1 - j, m)) for j in range(1, r + 1)]


def _br_profile(r: int, i: int) -> List[Fraction]:
    if i < r:
        return [Fraction(min(j, i)) for j in range(1, r + 1)]
    return [Fraction(j) for j in range(1, r + 1)]


def _cr_profile(r: int, i: int) -> List[Fraction]:
    prof = [Fraction(min(j, i)) for j in range(1, r)]
    prof.append(Fraction(i, 2))
    return prof


def _dr_tail_rows(r: int) -> Tuple[List[Fraction], List[Fraction]]:
    body = [Fraction(j) for j in range(1, r - 1)]
    row_a = body + [Fraction(r, 2), Fraction(r - 2, 2)]
    row_b = body + [Fraction(r - 2, 2), Fraction(r, 2)]
    return row_a, row_b


def _e6_rows() -> Dict[int, List[int]]:
    return {
        1: [2, 2, 3, 4, 3, 2],
        3: [3, 4, 6, 8, 6, 3],
        2: [1, 2, 2, 3, 2, 1],
        4: [2, 3, 4, 6, 4, 2],
    }


_E7_ROWS = {
    1: (2, [2, 2, 3, 4, 3, 2, 1]),
    2: (1, [4, 7, 8, 12, 9, 6, 3]),
    3: (2, [3, 4, 6, 8, 6, 4, 2]),
    4: (2, [4, 6, 8, 12, 9, 6, 3]),
    5: (1, [6, 9, 12, 18, 15, 10, 5]),
    6: (2, [2, 3, 4, 6, 5, 4, 2]),
    7: (1, [2, 3, 4, 6, 5, 4, 3]),
}

_E8_ROWS = {
    1: [4, 5, 7, 10, 8, 6, 4, 2],
    2: [5, 8, 10, 15, 12, 9, 6, 3],
    3: [7, 10, 14, 20, 16, 12, 8, 4],
    4: [10, 15, 20, 30, 24, 18, 12, 6],
    5: [8, 12, 16, 24, 20, 15, 10, 5],
    6: [6, 9, 12, 18, 15, 12, 8, 4],
    7: [4, 6, 8, 12, 10, 8, 6, 3],
    8: [2, 3, 4, 6, 5, 4, 3, 2],
}

_F4_ROWS = {
    1: [2, 3, 4, 2],
    2: [3, 6, 8, 4],
    3: [2, 4, 6, 3],
    4: [1, 2, 3, 2],
}

_G2_ROWS = {1: [2, 1], 2: [3, 2]}


def mu_plus_mu_star_closed_form(t: LieType, mu) -> RationalVector:
    """Simple-root coordinates of mu + mu*, by per-type closed form.

    The type-A coefficient of alpha_j is the ramp/plateau profile
    min(j, r+1-j, m) with m = min(i, r+1-i); the literal pair of ramp sums
    double-counts the overlap once 2i >= r+1, so the profile form is used
    for every i.  Cross-checked exactly against the inverse-Cartan route by
    the closed-form equivalence property.
    """
    if len(mu) != t.rank:
        raise ValueError(f"weight length {len(mu)} != rank {t.rank}")
    return _closed_form_cached(t, tuple(int(c) for c in mu))


@lru_cache(maxsize=65536)
def _closed_form_cached(t: LieType, mu: Weight) -> RationalVector:
    f, r = t.family, t.rank
    total = [Fraction(0)] * r

    def add(scale, row):
        if scale:
            for j in range(r):
                total[j] += Fraction(scale) * row[j]

    if f == "A":
        for i in range(1, r + 1):
            add(mu[i - 1], _ar_profile(r, i))
    elif f == "B":
        for i in range(1, r):
            add(2 * mu[i - 1], _br_profile(r, i))
        add(mu[r - 1], _br_profile(r, r))
    elif f == "C":
        for i in range(1, r + 1):
            add(2 * mu[i - 1], _cr_profile(r, i))
    elif f == "D":
        for i in range(1, r - 1):
            body = [Fraction(min(j, i)) for j in range(1, r - 1)]
            row = body + [Fraction(i, 2), Fraction(i, 2)]
            add(2 * mu[i - 1], row)
        row_a, row_b = _dr_tail_rows(r)
        if r % 2 == 1:
            avg = Fraction(mu[r - 2] + mu[r - 1], 2)
            add(avg, row_a)
            add(avg, row_b)
        else:
            add(mu[r - 2], row_a)
            add(mu[r - 1], row_b)
    elif f == "E" and r == 6:
        rows = _e6_rows()
        add(mu[0] + mu[5], rows[1])
        add(mu[2] + mu[4], rows[3])
        add(2 * mu[1], rows[2])
        add(2 * mu[3], rows[4])
    elif f == "E" and r == 7:
        for i, (mult, row) in _E7_ROWS.items():
            add(mult * mu[i - 1], row)
    elif f == "E" and r == 8:
        for i, row in _E8_ROWS.items():
            add(2 * mu[i - 1], row)
    elif f == "F":
        for i, row in _F4_ROWS.items():
            add(2 * mu[i - 1], row)
    elif f == "G":
        for i, row in _G2_ROWS.items():
            add(2 * mu[i - 1], row)
    return tuple(total)


def catalogued_types(max_rank: int = 8) -> Iterator[LieType]:
    """All catalogued types with rank <= max_rank (exceptionals included)."""
    for f, (lo, hi) in RANK_BOUNDS.items():
        top = min(max_rank, hi) if hi is not None else max_rank
        for r in range(lo, top + 1):
            yield LieType(f, r)
