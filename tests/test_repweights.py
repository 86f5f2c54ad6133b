import pytest

from hodgerep.errors import NonDominantError, ResourceLimitError
from hodgerep.repweights import (
    dominant_conjugate,
    weight_system,
    weyl_dim,
    weyl_orbit,
)
from hodgerep.rootdata import LieType, dual_weight

from oracles import dominant_weights_up_to, kostant_multiplicity


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


def test_sl2_string():
    ws = weight_system(LieType("A", 1), (3,))
    assert ws.multiplicities == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_a2_adjoint():
    ws = weight_system(LieType("A", 2), (1, 1))
    assert ws.multiplicities[(0, 0)] == 2
    assert ws.dimension == 8
    assert sum(1 for m in ws.multiplicities.values() if m == 1) == 6


def test_d4_spin():
    ws = weight_system(LieType("D", 4), (0, 0, 0, 1))
    assert len(ws.multiplicities) == 8
    assert all(m == 1 for m in ws.multiplicities.values())


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
    assert ws.dimension == weyl_dim(t, mu)


@pytest.mark.parametrize("family,rank,mu", DIM_SUITE)
def test_weyl_invariance(family, rank, mu):
    t = LieType(family, rank)
    ws = weight_system(t, mu)
    for lam, m in ws.items():
        assert ws.multiplicities[dominant_conjugate(t, lam)] == m


def test_highest_weight_multiplicity_one():
    for family, rank, mu in DIM_SUITE:
        ws = weight_system(LieType(family, rank), mu)
        assert ws.multiplicities[tuple(mu)] == 1


@pytest.mark.parametrize("family", ["A", "B", "G"])
def test_freudenthal_matches_kostant_oracle(family):
    t = LieType(family, 2)
    for mu in dominant_weights_up_to(2, 2):
        ws = weight_system(t, mu)
        for lam, m in sorted(ws.items()):
            assert kostant_multiplicity(t, mu, lam) == m, (family, mu, lam)
        # and the oracle finds nothing the engine missed at the dominant cone
        for lam in dominant_weights_up_to(2, 2):
            if lam not in ws.multiplicities:
                assert kostant_multiplicity(t, mu, lam) == 0, (family, mu, lam)


def test_dual_weight_set_is_negated():
    for family, rank, mu in [("A", 3, (1, 0, 0)), ("A", 2, (2, 0)),
                             ("D", 5, (0, 0, 0, 1, 0)), ("E", 6, (1, 0, 0, 0, 0, 0))]:
        t = LieType(family, rank)
        ws = weight_system(t, mu)
        ws_dual = weight_system(t, dual_weight(t, mu))
        negated = {tuple(-c for c in lam): m for lam, m in ws.items()}
        assert ws_dual.multiplicities == negated


def test_weyl_orbit_of_dominant_regular_weight_has_group_order():
    # regular dominant weight: orbit size = |W|
    assert len(weyl_orbit(LieType("A", 2), (1, 1))) == 6
    assert len(weyl_orbit(LieType("B", 2), (1, 1))) == 8
    assert len(weyl_orbit(LieType("G", 2), (1, 1))) == 12


def test_dominant_weights_up_to():
    got = set(dominant_weights_up_to(2, 2))
    assert got == {(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}


def test_weights_lie_below_highest_in_root_lattice():
    from hodgerep.rootdata import weight_to_root_coords

    for family, rank, mu in [("A", 3, (1, 1, 0)), ("B", 3, (0, 0, 1)),
                             ("G", 2, (0, 1)), ("D", 4, (0, 1, 0, 0))]:
        t = LieType(family, rank)
        ws = weight_system(t, mu)
        for lam in ws.multiplicities:
            rc = weight_to_root_coords(t, tuple(m - l for m, l in zip(mu, lam)))
            assert all(x.denominator == 1 and x >= 0 for x in rc), (mu, lam)
