import itertools

import pytest
from fractions import Fraction

from hodgerep.errors import ConsistencyError, InvalidTypeError
from hodgerep.rootdata import (
    LieType,
    _cartan_matrix,
    _inverse,
    _level_matrix,
    catalogued_types,
    diagram_automorphisms,
    dual_weight,
    duality_permutation,
    mu_plus_mu_star_closed_form,
    root_system,
)

from oracles import (
    inverse_bareiss_dense,
    invert_exact,
    positive_roots_probing,
    root_to_weight_coords,
    weight_to_root_coords,
)

Q = Fraction

ALGEBRA_DIMS = {
    "A": lambda r: r * (r + 2),
    "B": lambda r: r * (2 * r + 1),
    "C": lambda r: r * (2 * r + 1),
    "D": lambda r: r * (2 * r - 1),
    "E": lambda r: {6: 78, 7: 133, 8: 248}[r],
    "F": lambda r: 52,
    "G": lambda r: 14,
}


def fundamental(rank, i):
    return tuple(int(j == i - 1) for j in range(rank))


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 4),
])
def test_rank_bounds_rejected(family, rank):
    with pytest.raises(InvalidTypeError):
        LieType(family, rank)


def test_rank_bounds_accepted():
    for t in [("A", 1), ("B", 2), ("C", 2), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]:
        LieType(*t)


def test_a1_catalog():
    rsd = root_system(LieType("A", 1))
    assert rsd.cartan == ((2,),)
    assert rsd.positive_roots == ((1,),)
    assert weight_to_root_coords(LieType("A", 1), (1,)) == (Q(1, 2),)


def test_a2_positive_roots():
    rsd = root_system(LieType("A", 2))
    assert set(rsd.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_b3_positive_roots_count():
    # (dim so(7) - 3) / 2 = (21 - 3) / 2
    assert len(root_system(LieType("B", 3)).positive_roots) == 9


def test_positive_root_counts_match_algebra_dims():
    for t in catalogued_types(16):
        rsd = root_system(t)
        dim = ALGEBRA_DIMS[t.family](t.rank)
        assert len(rsd.positive_roots) == (dim - t.rank) // 2, str(t)
        # the fundamental coordinates carried through the closure
        assert rsd.positive_roots_fund == tuple(
            tuple(sum(beta[j] * rsd.cartan[j][i] for j in range(t.rank))
                  for i in range(t.rank))
            for beta in rsd.positive_roots), str(t)


@pytest.mark.parametrize("t", list(catalogued_types(20)) + [
    LieType(family, 32) for family in "ABCD"], ids=str)
def test_positive_roots_match_the_probing_closure(t):
    """The closure by height, with string depths, yields the roots and
    their fundamental coordinates in the order of the former closure,
    which probes every lowered tuple of every root string."""
    rsd = root_system(t)
    assert (rsd.positive_roots, rsd.positive_roots_fund) == positive_roots_probing(rsd.cartan)


COXETER_NUMBER = {
    "A": lambda r: r + 1, "B": lambda r: 2 * r, "C": lambda r: 2 * r,
    "D": lambda r: 2 * r - 2, "E": lambda r: {6: 12, 7: 18, 8: 30}[r],
    "F": lambda r: 12, "G": lambda r: 6,
}


def test_root_counts_and_highest_root_height_to_rank_32():
    """On all 128 types to rank 32, |Phi+| = (dim g - rank) / 2, and the
    highest root has height h - 1 for the Coxeter number h."""
    types = list(catalogued_types(32))
    assert len(types) == 128
    for t in types:
        roots = root_system(t).positive_roots
        assert len(roots) == (ALGEBRA_DIMS[t.family](t.rank) - t.rank) // 2, str(t)
        assert max(map(sum, roots)) == COXETER_NUMBER[t.family](t.rank) - 1, str(t)


def test_weyl_vector_is_half_sum_of_positive_roots():
    for t in catalogued_types(8):
        rsd = root_system(t)
        total = [Q(0)] * t.rank
        for beta in rsd.positive_roots:
            for j in range(t.rank):
                total[j] += beta[j]
        fund = root_to_weight_coords(t, [x / 2 for x in total])
        assert fund == tuple([Q(1)] * t.rank), str(t)


def test_pairing_fields_match_their_definitions():
    """root_columns[j][k] = beta_j d_j, rho_pairings[k] = (rho, beta) and
    root_masks[k] = the support of beta, all ints, for every positive root
    beta_k; node_roots[j] holds exactly the k with beta_j > 0, in
    increasing order.  Ranks to 16, and the four classical types at 32."""
    for t in list(catalogued_types(16)) + [LieType(f, 32) for f in "ABCD"]:
        rsd = root_system(t)
        d = rsd.symmetrizer
        assert all(type(col) is tuple for col in rsd.root_columns), str(t)
        for k, beta in enumerate(rsd.positive_roots):
            assert [col[k] for col in rsd.root_columns] == [b * dj for b, dj in zip(beta, d)]
            assert rsd.rho_pairings[k] == sum(b * dj for b, dj in zip(beta, d)) > 0
            assert rsd.root_masks[k] == sum(1 << j for j, b in enumerate(beta) if b)
            assert {type(col[k]) for col in rsd.root_columns} == {int}, str(t)
            assert type(rsd.rho_pairings[k]) is type(rsd.root_masks[k]) is int, str(t)
        assert len(rsd.node_roots) == t.rank, str(t)
        for j, roots in enumerate(rsd.node_roots):
            assert type(roots) is tuple, str(t)
            assert list(roots) == [k for k, beta in enumerate(rsd.positive_roots)
                                   if beta[j] > 0], (str(t), j)


def test_inverse_cartan_exact():
    for t in catalogued_types(16):
        rsd = root_system(t)
        n = t.rank
        for i in range(n):
            for j in range(n):
                entry = sum(rsd.inverse_num[i][k] * rsd.cartan[k][j]
                            for k in range(n))
                assert entry == (rsd.inverse_den if i == j else 0), str(t)
        assert invert_exact(rsd.cartan) == tuple(
            tuple(Q(x, rsd.inverse_den) for x in row) for row in rsd.inverse_num), str(t)


def test_inverse_matches_the_dense_bareiss_oracle():
    """The in-place, lazy-row inverse gives the dense [cartan | I]
    elimination's (adj, det), as tuples of ints, on all 128 types to rank
    32.  On E6-E8 node 2 meets only node 4, so its row is still as given
    when it becomes the pivot row."""
    types = list(catalogued_types(32))
    assert len(types) == 128
    for t in types:
        cartan = _cartan_matrix(t)
        adj, det = _inverse(cartan)
        assert (adj, det) == inverse_bareiss_dense(cartan), str(t)
        assert type(det) is int and type(adj) is tuple, str(t)
        assert all(type(row) is tuple and {type(x) for x in row} == {int} for row in adj), str(t)


INDEX_OF_CONNECTION = {
    "A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2, "D": lambda r: 4,
    "E": lambda r: {6: 3, 7: 2, 8: 1}[r], "F": lambda r: 1, "G": lambda r: 1,
}


def test_inverse_den_is_index_of_connection():
    for t in catalogued_types(16):
        assert root_system(t).inverse_den == INDEX_OF_CONNECTION[t.family](t.rank), str(t)


def test_level_matrix_is_closed_form_of_fundamentals():
    """The level matrix, read off the integer inverse, equals the paper's
    per-type closed forms of omega_i + omega_i* on every type to rank 16."""
    for t in catalogued_types(16):
        rows = root_system(t).level_matrix
        for i in range(1, t.rank + 1):
            row = rows[i - 1]
            assert all(type(x) is int for x in row), (str(t), i)
            assert row == mu_plus_mu_star_closed_form(t, fundamental(t.rank, i)), (str(t), i)


def test_level_matrix_rejects_a_non_integral_row():
    """An inverse whose omega_i + omega_i* leaves the root lattice raises,
    under `python -O` too."""
    rsd = root_system(LieType("A", 2))
    assert _level_matrix(rsd.lie_type, rsd.duality, rsd.inverse_num,
                         rsd.inverse_den) == rsd.level_matrix
    bad = ((rsd.inverse_num[0][0] + 1,) + rsd.inverse_num[0][1:],) + rsd.inverse_num[1:]
    with pytest.raises(ConsistencyError, match="not in the root lattice"):
        _level_matrix(rsd.lie_type, rsd.duality, bad, rsd.inverse_den)


def test_symmetrizer_makes_cartan_symmetric():
    for t in catalogued_types(8):
        rsd = root_system(t)
        r = t.rank
        for i in range(r):
            for j in range(r):
                assert (rsd.cartan[i][j] * rsd.symmetrizer[j]
                        == rsd.cartan[j][i] * rsd.symmetrizer[i]), str(t)


def test_weight_to_root_coords_examples():
    assert weight_to_root_coords(LieType("C", 3), (0, 0, 1)) == (Q(1), Q(2), Q(3, 2))
    assert weight_to_root_coords(LieType("A", 3), (1, 0, 0)) == (Q(3, 4), Q(2, 4), Q(1, 4))


def test_root_coords_round_trip_exact():
    for t in catalogued_types(8):
        for i in range(1, t.rank + 1):
            w = fundamental(t.rank, i)
            rc = weight_to_root_coords(t, w)
            back = root_to_weight_coords(t, rc)
            assert back == tuple(Q(c) for c in w), (str(t), i)


def test_dual_weight_examples():
    assert dual_weight(LieType("A", 4), fundamental(4, 2)) == fundamental(4, 3)
    mu = (2, 0, 1, 3, 0)
    assert dual_weight(LieType("B", 5), mu) == mu
    assert dual_weight(LieType("D", 5), fundamental(5, 4)) == fundamental(5, 5)
    assert dual_weight(LieType("D", 6), fundamental(6, 5)) == fundamental(6, 5)
    assert dual_weight(LieType("E", 6), fundamental(6, 1)) == fundamental(6, 6)
    assert dual_weight(LieType("E", 6), fundamental(6, 3)) == fundamental(6, 5)
    assert dual_weight(LieType("E", 7), fundamental(7, 7)) == fundamental(7, 7)


def test_dual_weight_is_involution():
    for t in catalogued_types(8):
        coords = range(4) if t.rank <= 4 else range(2)
        for mu in itertools.product(coords, repeat=t.rank):
            assert dual_weight(t, dual_weight(t, mu)) == mu


def _minus_w0_fundamental(cartan, i):
    """-w0(omega_i) in fundamental coordinates: omega_i reflected by simple
    reflections down to the antidominant chamber, where it is w0(omega_i),
    and negated."""
    lam = [int(j == i) for j in range(len(cartan))]
    while True:
        j = next((k for k, c in enumerate(lam) if c > 0), None)
        if j is None:
            return tuple(-c for c in lam)
        lam = [a - lam[j] * b for a, b in zip(lam, cartan[j])]


def test_duality_permutation_is_diagram_automorphism():
    """On every type up to rank 32, the duality is -w0 on each fundamental
    weight, as reflecting it to the antidominant chamber finds, and one of
    the diagram automorphisms: the nontrivial one on A_r (r >= 2), on D_r
    with r odd and on E6.  It fixes the Cartan matrix."""
    for t in catalogued_types(32):
        perm = duality_permutation(t)
        assert root_system(t).duality == perm, str(t)
        assert perm in diagram_automorphisms(t), str(t)
        flips = t.family == "A" and t.rank >= 2 or t.family == "D" and t.rank % 2 \
            or t == LieType("E", 6)
        assert (perm != tuple(range(t.rank))) == flips, str(t)
        cartan = root_system(t).cartan
        for i in range(t.rank):
            assert _minus_w0_fundamental(cartan, i) == fundamental(t.rank, perm[i] + 1), (t, i)
            for j in range(t.rank):
                assert cartan[perm[i]][perm[j]] == cartan[i][j], str(t)


def test_closed_form_examples():
    assert mu_plus_mu_star_closed_form(LieType("E", 6), fundamental(6, 1)) == \
        tuple(Q(x) for x in (2, 2, 3, 4, 3, 2))
    assert mu_plus_mu_star_closed_form(LieType("A", 4), fundamental(4, 1)) == \
        tuple(Q(1) for _ in range(4))
    assert mu_plus_mu_star_closed_form(LieType("G", 2), fundamental(2, 1)) == \
        (Q(4), Q(2))
    # C3 item: 2 alpha1 + 4 alpha2 + 3 alpha3 for omega3
    assert mu_plus_mu_star_closed_form(LieType("C", 3), fundamental(3, 3)) == \
        (Q(2), Q(4), Q(3))


def test_closed_form_equals_inverse_cartan_route():
    """Validates node numbering, the inverse Cartan and the -w0 table at once."""
    for t in catalogued_types(8):
        for i in range(1, t.rank + 1):
            w = fundamental(t.rank, i)
            closed = mu_plus_mu_star_closed_form(t, w)
            direct = tuple(
                a + b for a, b in zip(weight_to_root_coords(t, w),
                                      weight_to_root_coords(t, dual_weight(t, w)))
            )
            assert closed == direct, (str(t), i)


def test_closed_form_linear_in_mu():
    for t in [LieType("A", 3), LieType("B", 3), LieType("C", 3), LieType("D", 4),
              LieType("F", 4), LieType("G", 2)]:
        for mu in itertools.product(range(3), repeat=t.rank):
            if not any(mu):
                continue
            total = [Q(0)] * t.rank
            for i, c in enumerate(mu):
                part = mu_plus_mu_star_closed_form(t, fundamental(t.rank, i + 1))
                for j in range(t.rank):
                    total[j] += c * part[j]
            assert tuple(total) == mu_plus_mu_star_closed_form(t, mu)


def test_parse():
    assert LieType.parse("C3") == LieType("C", 3)
    assert LieType.parse("e7") == LieType("E", 7)
    with pytest.raises(InvalidTypeError):
        LieType.parse("X2")
    with pytest.raises(InvalidTypeError):
        LieType.parse("A")
