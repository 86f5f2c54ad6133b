from collections import Counter
from itertools import combinations

import pytest

from hodgerep import repweights
from hodgerep.errors import NonDominantError, ResourceLimitError
from hodgerep.repweights import (
    _dominant,
    _dominant_candidates,
    _dominant_multiplicities,
    _orbit_depths,
    _pairings,
    _stabilizer_orbits,
    weight_system,
    weyl_dim,
    weyl_levi_dims,
)
from hodgerep.rootdata import LieType, catalogued_types, dual_weight, root_system

from oracles import (
    dominant_candidates_all_roots,
    dominant_multiplicities_conjugating,
    dominant_weights_up_to,
    full_weight_map,
    kostant_multiplicity,
    levi_dim_all_pairings,
    orbit_walk,
    stabilizer_orbits_bfs,
    weight_to_root_coords,
    weyl_orbit_bfs,
)


def w(*coords):
    return tuple(coords)


@pytest.mark.parametrize("family,rank,mu,dim", [
    ("A", 1, (0,), 1),
    ("C", 3, (0, 0, 1), 14),      # Hodge numbers (1,6,6,1) sum to 14
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
    ("E", 6, (1, 0, 0, 0, 0, 0), 27),
    ("D", 6, (0, 0, 0, 0, 0, 1), 32),
    ("B", 4, (0, 0, 0, 1), 16),
    ("A", 2, (1, 1), 8),
    ("D", 4, (0, 0, 0, 1), 8),
    ("G", 2, (0, 1), 14),
    ("F", 4, (1, 0, 0, 0), 52),
])
def test_weyl_dim(family, rank, mu, dim):
    assert weyl_dim(LieType(family, rank), mu) == dim


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        weyl_dim(LieType("A", 2), (1, -1))


def test_pairing_route_matches_symmetrized_form():
    """The root columns over supp(lambda), added to a base, against
    (lambda, beta) = sum_j beta_j d_j lambda^j summed over every node."""
    for t in catalogued_types(8):
        rsd = root_system(t)
        r = t.rank
        for lam in [(0,) * r, (1,) * r, tuple(range(r)), tuple((3 * j) % 4 for j in range(r))]:
            want = [sum(b * d * c for b, d, c in zip(beta, rsd.symmetrizer, lam))
                    for beta in rsd.positive_roots]
            assert _pairings(rsd, lam, [0] * len(want)) == want, (str(t), lam)
            assert _pairings(rsd, lam, rsd.rho_pairings) == \
                [x + y for x, y in zip(want, rsd.rho_pairings)], (str(t), lam)


@pytest.mark.parametrize("family,rank,mu,nodes,dim", [
    ("C", 3, (1, 0, 0), [3], 3),           # top of the standard rep under sp(3,R)
    ("A", 3, (0, 1, 0), [1], 3),           # Lambda^2 C^4 under su(1,3): C^3 on top
    ("A", 3, (0, 1, 0), [2], 1),           # supp(mu) inside the painted nodes
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), [1], 12),  # 56 of E7 under so(12) x C
    ("B", 4, (0, 0, 0, 1), [1], 8),        # spin(9) on so(7): its spinor
    ("D", 5, (0, 1, 0, 0, 0), [1], 8),     # Lambda^2 C^10: C^8 of the D4 Levi on top
])
def test_levi_dim_examples(family, rank, mu, nodes, dim):
    assert weyl_levi_dims(LieType(family, rank), mu, nodes)[1] == dim


def test_levi_dim_without_painted_nodes_is_weyl_dim():
    for t in catalogued_types(8):
        r = t.rank
        for mu in [tuple(int(j == i) for j in range(r)) for i in range(r)] + [(1,) * r]:
            assert weyl_levi_dims(t, mu, ()) == (weyl_dim(t, mu),) * 3, (str(t), mu)


def test_levi_dim_matches_the_all_pairings_oracle():
    """Pairing only the Levi roots agrees with reading them off the
    pairings of every root, on every type of rank <= 16, every fundamental
    weight and its sum with omega_1, under several painted-node sets."""
    count = 0
    for t in catalogued_types(16):
        r = t.rank
        fund = [tuple(int(j == i) for j in range(r)) for i in range(r)]
        for mu in fund + [tuple(x + y for x, y in zip(f, fund[0])) for f in fund]:
            for nodes in ((), (1,), (r,), tuple(sorted({1, r})), tuple(range(2, r + 1, 2)),
                          tuple(j + 1 for j, c in enumerate(mu) if c)):
                assert weyl_levi_dims(t, mu, nodes)[1] == levi_dim_all_pairings(t, mu, nodes), \
                    (str(t), mu, nodes)
                count += 1
    assert count > 5000


def test_sl2_string():
    assert full_weight_map(LieType("A", 1), (3,)) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_a2_adjoint():
    full = full_weight_map(LieType("A", 2), (1, 1))
    assert full[(0, 0)] == 2
    assert weight_system(LieType("A", 2), (1, 1)).dimension == 8
    assert sum(1 for m in full.values() if m == 1) == 6


def test_d4_spin():
    full = full_weight_map(LieType("D", 4), (0, 0, 0, 1))
    assert len(full) == 8
    assert all(m == 1 for m in full.values())


def test_size_guard():
    with pytest.raises(ResourceLimitError) as exc:
        weight_system(LieType("C", 3), (0, 0, 1), max_dim=10)
    assert exc.value.dimension == 14


DIM_SUITE = [
    ("A", 4, (1, 0, 0, 0)), ("A", 3, (0, 2, 0)), ("B", 3, (0, 0, 1)),
    ("B", 2, (0, 2)), ("C", 3, (0, 0, 1)), ("C", 4, (1, 0, 0, 0)),
    ("D", 4, (0, 1, 0, 0)), ("D", 6, (0, 0, 0, 0, 0, 1)),
    ("E", 6, (1, 0, 0, 0, 0, 0)), ("E", 7, (0, 0, 0, 0, 0, 0, 1)),
    ("B", 4, (0, 0, 0, 1)), ("F", 4, (0, 0, 0, 1)), ("G", 2, (1, 0)),
]


@pytest.mark.parametrize("family,rank,mu", DIM_SUITE)
def test_multiplicity_total_matches_weyl_dim(family, rank, mu):
    t = LieType(family, rank)
    ws = weight_system(t, mu)
    assert sum(full_weight_map(t, mu).values()) == ws.dimension == weyl_dim(t, mu)


@pytest.mark.parametrize("family,rank,mu", DIM_SUITE)
def test_weyl_invariance(family, rank, mu):
    t = LieType(family, rank)
    full = full_weight_map(t, mu)
    neighbours = root_system(t).neighbours
    for lam, m in full.items():
        assert full[_dominant(lam, neighbours)] == m


def test_highest_weight_multiplicity_one():
    for family, rank, mu in DIM_SUITE:
        assert full_weight_map(LieType(family, rank), mu)[tuple(mu)] == 1


@pytest.mark.parametrize("family", ["A", "B", "G"])
def test_freudenthal_matches_kostant_oracle(family):
    t = LieType(family, 2)
    for mu in dominant_weights_up_to(2, 2):
        full = full_weight_map(t, mu)
        for lam, m in sorted(full.items()):
            assert kostant_multiplicity(t, mu, lam) == m, (family, mu, lam)
        # and the oracle finds nothing the engine missed at the dominant cone
        for lam in dominant_weights_up_to(2, 2):
            if lam not in full:
                assert kostant_multiplicity(t, mu, lam) == 0, (family, mu, lam)


def test_dual_weight_set_is_negated():
    for family, rank, mu in [("A", 3, (1, 0, 0)), ("A", 2, (2, 0)),
                             ("D", 5, (0, 0, 0, 1, 0)), ("E", 6, (1, 0, 0, 0, 0, 0))]:
        t = LieType(family, rank)
        negated = {tuple(-c for c in lam): m for lam, m in full_weight_map(t, mu).items()}
        assert full_weight_map(t, dual_weight(t, mu)) == negated


def test_weyl_orbit_of_dominant_regular_weight_has_group_order():
    # regular dominant weight: orbit size = |W|
    for family, order in [("A", 6), ("B", 8), ("C", 8), ("G", 12)]:
        neighbours = root_system(LieType(family, 2)).neighbours
        orbit = [v for v, _ in orbit_walk((1, 1), neighbours, (0, 0))]
        assert len(orbit) == len(set(orbit)) == order, family


def test_weyl_orbit_walk_matches_bfs_oracle():
    """Each element once, from the dominant conjugate of any start in the
    orbit, on every type of rank <= 5."""
    for t in catalogued_types(5):
        r = t.rank
        neighbours = root_system(t).neighbours
        for lam in [tuple(int(j == i) for j in range(r)) for i in range(r)] + [(1,) * r]:
            expected = weyl_orbit_bfs(t, lam)
            for start in (lam, expected[0], expected[-1]):
                top = _dominant(start, neighbours)
                orbit = [v for v, _ in orbit_walk(top, neighbours, (0,) * r)]
                assert len(orbit) == len(set(orbit)), (str(t), start)
                assert sorted(orbit) == expected, (str(t), start)
                assert orbit[0] == top == lam


def test_capped_orbit_depths_match_the_full_walk():
    """Counting orbit elements by depth, from a start depth and up to a
    cap, gives the full walk's depth histogram cut at the cap, on every
    type of rank <= 5, the fundamental weights and rho, under E on node 1,
    on the last node and on every node."""
    for t in catalogued_types(5):
        r = t.rank
        neighbours = root_system(t).neighbours
        for lam in [tuple(int(j == i) for j in range(r)) for i in range(r)] + [(1,) * r]:
            for painted in {tuple(int(j == 0) for j in range(r)),
                            tuple(int(j == r - 1) for j in range(r)), (1,) * r}:
                depths = Counter(d for _, d in orbit_walk(lam, neighbours, painted))
                deepest = max(depths)
                for start, cap in ((0, deepest), (2, deepest + 2), (0, deepest // 2),
                                   (1, 0), (0, -1)):
                    counts = [0] * (cap + 1)
                    _orbit_depths(lam, neighbours, painted, start, 3, counts)
                    want = [3 * depths[k - start] for k in range(cap + 1)]
                    assert counts == want, (str(t), lam, painted, start, cap)


def test_dominant_weights_up_to():
    got = set(dominant_weights_up_to(2, 2))
    assert got == {(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}


def test_weights_lie_below_highest_in_root_lattice():
    for family, rank, mu in [("A", 3, (1, 1, 0)), ("B", 3, (0, 0, 1)),
                             ("G", 2, (0, 1)), ("D", 4, (0, 1, 0, 0))]:
        t = LieType(family, rank)
        for lam in full_weight_map(t, mu):
            rc = weight_to_root_coords(t, tuple(m - l for m, l in zip(mu, lam)))
            assert all(x.denominator == 1 and x >= 0 for x in rc), (mu, lam)


def orbit_route_weights(t):
    """omega_i, omega_i + omega_1 and 2 omega_i for i <= 3, those of Weyl
    dimension <= 20,000: the weights the orbit-route oracles are run on."""
    r = t.rank
    out = set()
    for i in range(min(r, 3)):
        omega = tuple(int(j == i) for j in range(r))
        for mu in (omega, tuple(c + int(j == 0) for j, c in enumerate(omega)),
                   tuple(2 * c for c in omega)):
            if weyl_dim(t, mu) <= 20000:
                out.add(mu)
    return sorted(out)


def test_dominant_search_and_freudenthal_match_their_oracles():
    """Testing a root's positive coordinates before building w - beta,
    carrying mu - lambda's root coordinates through the search, summing
    over stabilizer orbits and conjugating each visited weight once per
    recursion change nothing on every type of rank <= 8."""
    count = 0
    for t in catalogued_types(8):
        for mu in orbit_route_weights(t):
            found = _dominant_candidates(t, mu)
            assert sorted(found) == dominant_candidates_all_roots(t, mu), (str(t), mu)
            for lam, coords in found.items():
                diff = tuple(m - l for m, l in zip(mu, lam))
                assert coords == weight_to_root_coords(t, diff), (str(t), mu, lam)
            assert _dominant_multiplicities(t, mu) == \
                dominant_multiplicities_conjugating(t, mu), (str(t), mu)
            count += 1
    assert count == 217


@pytest.mark.parametrize("family, rank, mu", [
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)),
    ("B", 8, (0, 0, 1, 0, 0, 0, 0, 0)),
    ("A", 6, (0, 0, 1, 0, 0, 1)),
])
def test_freudenthal_conjugates_each_weight_once(monkeypatch, family, rank, mu):
    t = LieType(family, rank)
    want = dominant_multiplicities_conjugating(t, mu)
    conjugated = Counter()
    inner = repweights._dominant

    def counting(w, neighbours):
        conjugated[w] += 1
        return inner(w, neighbours)

    monkeypatch.setattr(repweights, "_dominant", counting)
    assert _dominant_multiplicities.__wrapped__(t, mu) == want
    assert conjugated and max(conjugated.values()) == 1, conjugated.most_common(3)


@pytest.mark.parametrize("family, rank, mu", [
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)),
    ("B", 8, (0, 0, 0, 1, 0, 0, 0, 0)),
    ("B", 8, (1, 1, 0, 0, 0, 0, 0, 0)),
    ("B", 6, (0, 2, 0, 0, 0, 0)),
    ("C", 6, (2, 1, 0, 0, 0, 0)),
    ("E", 7, (0, 0, 0, 0, 0, 1, 0)),
    ("G", 2, (1, 3)),
])
def test_freudenthal_stabilizer_sums_on_many_zero_weights(family, rank, mu):
    """Weights with many zero nodes, where one root stands for a large
    stabilizer orbit, match the every-root oracle in value and order and
    fill the Weyl dimension."""
    t = LieType(family, rank)
    got = _dominant_multiplicities.__wrapped__(t, mu)
    assert got == dominant_multiplicities_conjugating(t, mu)
    assert sum(m * len(weyl_orbit_bfs(t, lam)) for lam, m in got) == weyl_dim(t, mu)
    if family == "E" and rank == 8:
        assert got == ((mu, 1), ((0,) * 8, 8))


def test_stabilizer_orbits_match_bfs():
    """On every type of rank <= 8 and for no node, each node, each pair of
    nodes and all nodes fixed, the single-pass grouping finds the
    breadth-first orbits: one Z-dominant root per orbit, counted by the
    orbit's size."""
    cases = 0
    for t in catalogued_types(8):
        rsd = root_system(t)
        r = t.rank
        roots = rsd.positive_roots
        node_sets = [()] + list(combinations(range(r), 1)) + \
            list(combinations(range(r), 2)) + [tuple(range(r))]
        for zeros in set(node_sets):
            got = _stabilizer_orbits(rsd, zeros)
            assert sum(n for _, n in got) == len(roots), (str(t), zeros)
            assert all(rsd.positive_roots_fund[k][j] >= 0 for k, _ in got for j in zeros), \
                (str(t), zeros)
            orbits = stabilizer_orbits_bfs(t, zeros)
            orbit_of = {beta: i for i, o in enumerate(orbits) for beta in o}
            assert sorted(orbit_of[roots[k]] for k, _ in got) == list(range(len(orbits))), \
                (str(t), zeros)
            assert all(n == len(orbits[orbit_of[roots[k]]]) for k, n in got), (str(t), zeros)
            cases += 1
    assert cases == 625
