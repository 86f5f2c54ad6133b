"""Weyl dimensions computed independently of the engine.

The benchmark checks `inspect` output against these: the eigenspace
dimensions of a candidate must add up to the dimension of its
representation.  Nothing here imports hodgerep.

Roots are built from the symmetric Gram matrix of the simple roots
(Bourbaki numbering, short roots of squared length 2), so this shares no
code or convention with the engine's Cartan-matrix route.
"""
import functools

CATALOG_BOUNDS = {"A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (4, 8),
                  "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def catalog(max_rank=8):
    """Every simple type of rank <= max_rank, as (family, rank) pairs."""
    return [(f, r) for f, (lo, hi) in sorted(CATALOG_BOUNDS.items())
            for r in range(lo, min(hi, max_rank) + 1)]


def gram(family, rank):
    """(alpha_i, alpha_j) for the simple roots of one type."""
    g = [[0] * rank for _ in range(rank)]
    if family == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        edges = list(zip(chain, chain[1:])) + [(2, 4)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    else:
        edges = [(i, i + 1) for i in range(1, rank)]
    norm = [2] * rank
    if family == "B":
        norm = [4] * (rank - 1) + [2]
    elif family == "C":
        norm = [2] * (rank - 1) + [4]
    elif family == "F":
        norm = [4, 4, 2, 2]
    elif family == "G":
        norm = [2, 6]
    for i in range(rank):
        g[i][i] = norm[i]
    for i, j in edges:
        # bonded simple roots pair to minus half the longer squared length
        g[i - 1][j - 1] = g[j - 1][i - 1] = -max(norm[i - 1], norm[j - 1]) // 2
    return g


def positive_roots(family, rank):
    """Positive roots in simple-root coordinates, by alpha-string closure."""
    g = gram(family, rank)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                pairing = 2 * sum(b * g[j][i] for j, b in enumerate(beta)) // g[i][i]
                p = 0
                lower = list(beta)
                while True:
                    lower[i] -= 1
                    if tuple(lower) not in roots:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        new.append(up)
        frontier = new
    return sorted(roots)


@functools.lru_cache(maxsize=None)
def _roots_and_halves(family, rank):
    g = gram(family, rank)
    return positive_roots(family, rank), [g[i][i] // 2 for i in range(rank)]


def weyl_dim(family, rank, mu):
    """dim V(mu) = prod over positive roots of (mu + rho, beta) / (rho, beta)."""
    roots, half = _roots_and_halves(family, rank)
    num = den = 1
    for beta in roots:
        num *= sum(b * half[i] * (mu[i] + 1) for i, b in enumerate(beta))
        den *= sum(b * half[i] for i, b in enumerate(beta))
    if num % den:
        raise ArithmeticError(f"Weyl formula not integral for {family}{rank} {mu}")
    return num // den
