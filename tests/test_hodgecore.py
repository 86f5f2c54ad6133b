import itertools
import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgerep.errors import HodgeRepError, ResourceLimitError, ShapeError
from hodgerep.hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    GradingElement,
    HodgeVector,
    center_charge,
    eigenspace_dims,
    extremal_dim_is_one,
    hodge_vector,
    level,
    mu_of_grading,
    real_form,
    reality_type,
)
from hodgerep.repweights import weight_system, weyl_dim
from hodgerep.rootdata import RANK_BOUNDS, LieType, catalogued_types, dual_weight

from oracles import dominant_weights_up_to, eigenspace_dims_full

E = GradingElement.from_nodes


def fundamental(rank, i):
    return tuple(int(j == i - 1) for j in range(rank))


def test_grading_element_validation():
    with pytest.raises(ValueError):
        GradingElement((0, 0))
    with pytest.raises(ValueError):
        GradingElement((0, 2))
    with pytest.raises(ValueError):
        E(3, [0])
    with pytest.raises(ValueError):
        E(3, [1, 1])
    assert E(4, [1, 3]).support == (1, 3)


def test_level_examples():
    assert level(LieType("A", 4), fundamental(4, 1), E(4, [1])) == 1
    assert level(LieType("C", 3), fundamental(3, 3), E(3, [3])) == 3
    assert level(LieType("B", 3), fundamental(3, 1), E(3, [1])) == 2


def test_eigenspace_examples():
    d = eigenspace_dims(LieType("C", 3), fundamental(3, 3), E(3, [3]))
    assert d.levels == ((Q(3, 2), 1), (Q(1, 2), 6), (Q(-1, 2), 6), (Q(-3, 2), 1))
    d = eigenspace_dims(LieType("A", 1), (3,), E(1, [1]))
    assert d.levels == ((Q(3, 2), 1), (Q(1, 2), 1), (Q(-1, 2), 1), (Q(-3, 2), 1))
    d = eigenspace_dims(LieType("C", 3), fundamental(3, 1), E(3, [3]))
    assert d.levels == ((Q(1, 2), 3), (Q(-1, 2), 3))


def test_extremal_examples():
    assert extremal_dim_is_one(fundamental(3, 3), E(3, [3]))
    assert not extremal_dim_is_one((1, 0, 1), E(3, [3]))
    assert extremal_dim_is_one(fundamental(4, 1), E(4, [1, 4]))


def test_reality_examples():
    assert reality_type(LieType("B", 3), fundamental(3, 3), E(3, [1])) == QUATERNIONIC
    assert reality_type(LieType("B", 5), fundamental(5, 5), E(5, [1])) == REAL
    assert reality_type(LieType("A", 4), fundamental(4, 2), E(4, [1])) == COMPLEX


def test_spin_reality_mod4_pattern():
    for r in range(2, 9):
        t = LieType("B", r)
        got = reality_type(t, fundamental(r, r), E(r, [1]))
        expect = REAL if r % 4 in (1, 2) else QUATERNIONIC
        assert got == expect, r


def test_center_charge():
    t = LieType("A", 4)
    m = mu_of_grading(t, fundamental(4, 1), E(4, [1]))
    assert center_charge(3, m, COMPLEX) == Q(7, 10)
    assert center_charge(3, m, REAL) == 0
    t = LieType("A", 3)
    m = mu_of_grading(t, fundamental(3, 1), E(3, [1]))
    assert center_charge(1, m, COMPLEX) == Q(-1, 4)


def test_quaternionic_charge_check_survives_optimize():
    code = ("from fractions import Fraction\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import center_charge\n"
            "try:\n"
            "    center_charge(3, Fraction(1), 'quaternionic')\n"
            "except ConsistencyError:\n"
            "    print('raised')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


def test_hodge_vector_real():
    d = eigenspace_dims(LieType("C", 3), fundamental(3, 3), E(3, [3]))
    assert hodge_vector(d, REAL, Q(0), 3).dims == (1, 6, 6, 1)


def test_hodge_vector_complex_symmetric_square():
    # 2 omega_1 on A_r under A1 gives (1, (r+1)(r+2)/2 - 1, ..., 1)
    for r in range(1, 7):
        t = LieType("A", r)
        mu = tuple(2 if i == 0 else 0 for i in range(r))
        d = eigenspace_dims(t, mu, E(r, [1]))
        c = center_charge(3, mu_of_grading(t, mu, E(r, [1])), COMPLEX)
        assert c == Q(-r + 3, 2 * (r + 1))
        vec = hodge_vector(d, COMPLEX, c, 3)
        a = (r + 1) * (r + 2) // 2 - 1
        assert vec.dims == (1, a, a, 1)


def test_hodge_vector_quaternionic_doubles():
    t = LieType("D", 4)
    d = eigenspace_dims(t, fundamental(4, 1), E(4, [3]))
    assert d.dims == (4, 4)
    assert hodge_vector(d, QUATERNIONIC, Q(0), 1).dims == (8, 8)


def test_hodge_vector_shape_errors():
    # adjoint of sl(3) under A1 assembles to (2,6,6,2): not CY3
    t = LieType("A", 2)
    d = eigenspace_dims(t, (1, 1), E(2, [1]))
    c = center_charge(3, mu_of_grading(t, (1, 1), E(2, [1])), COMPLEX)
    with pytest.raises(ShapeError) as exc:
        hodge_vector(d, COMPLEX, c, 3)
    assert exc.value.vector == (2, 6, 6, 2)


def test_real_form_names():
    assert real_form(LieType("A", 4), E(4, [1])).label() == "su(1,4)"
    assert real_form(LieType("D", 6), E(6, [5])).label() == "so*(12)"
    assert real_form(LieType("C", 3), E(3, [3])).label() == "sp(3,R)"
    assert real_form(LieType("C", 4), E(4, [1])).label() == "sp(1,3)"
    assert real_form(LieType("B", 4), E(4, [1])).label() == "so(2,7)"
    assert real_form(LieType("D", 5), E(5, [1])).label() == "so(2,8)"
    assert real_form(LieType("E", 6), E(6, [1])).label() == "e6(-14)"
    assert real_form(LieType("E", 7), E(7, [7])).label() == "e7(-25)"
    assert real_form(LieType("B", 2), E(2, [1, 2])).label() == "painted{1,2}"
    assert real_form(LieType("B", 3), E(3, [2])).name is None


def _all_gradings(rank):
    for size in range(1, rank + 1):
        for nodes in itertools.combinations(range(1, rank + 1), size):
            yield E(rank, nodes)


def test_level_equals_eigenvalue_span():
    for t in [LieType("A", 3), LieType("B", 3), LieType("C", 3), LieType("D", 4),
              LieType("G", 2)]:
        for mu in dominant_weights_up_to(t.rank, 2):
            for g in _all_gradings(t.rank):
                d = eigenspace_dims(t, mu, g)
                assert d.span == level(t, mu, g), (str(t), mu, g.support)


def test_self_dual_decomposition_symmetric():
    for t, mu in [(LieType("B", 3), fundamental(3, 3)),
                  (LieType("C", 3), fundamental(3, 3)),
                  (LieType("D", 4), fundamental(4, 1)),
                  (LieType("G", 2), fundamental(2, 1))]:
        assert dual_weight(t, mu) == mu
        for g in _all_gradings(t.rank):
            d = eigenspace_dims(t, mu, g)
            assert d.dims == tuple(reversed(d.dims))
            assert d.eigenvalues == tuple(-e for e in reversed(d.eigenvalues))


def test_duality_flips_decomposition():
    for t, mu in [(LieType("A", 4), fundamental(4, 2)),
                  (LieType("D", 5), fundamental(5, 4)),
                  (LieType("E", 6), fundamental(6, 1))]:
        for g in _all_gradings(t.rank):
            d = eigenspace_dims(t, mu, g)
            dd = eigenspace_dims(t, dual_weight(t, mu), g)
            assert dd.dims == tuple(reversed(d.dims))
            assert dd.eigenvalues == tuple(-e for e in reversed(d.eigenvalues))


def test_extremal_criterion_matches_top_eigenspace_small():
    for t in [LieType("A", 2), LieType("B", 2), LieType("C", 3)]:
        for mu in dominant_weights_up_to(t.rank, 2):
            for g in _all_gradings(t.rank):
                d = eigenspace_dims(t, mu, g)
                assert extremal_dim_is_one(mu, g) == (d.dims[0] == 1)


def test_eigen_decomp_validation():
    with pytest.raises(ValueError):
        EigenDecomp(((Q(1), 2), (Q(1), 3)))


def test_hodge_vector_predicates():
    assert HodgeVector((1, 5, 5, 1)).is_cy3
    assert not HodgeVector((2, 5, 5, 2)).is_cy3
    assert HodgeVector((4, 4)).is_weight1
    assert HodgeVector((1, 2, 2, 1)).is_palindromic


ORACLE_MAX_DIM = 100


def _small_cases():
    """(type, mu, E): every type of rank <= 8 with its fundamental weights,
    and sums of two fundamentals at rank <= 6, of dimension <= ORACLE_MAX_DIM,
    against every grading element of at most 3 nodes."""
    for t in catalogued_types(8):
        r = t.rank
        fund = [fundamental(r, i) for i in range(1, r + 1)]
        mus = fund
        if r <= 6:
            mus = mus + [tuple(map(sum, zip(a, b)))
                         for a, b in itertools.combinations_with_replacement(fund, 2)]
        gradings = [g for g in _all_gradings(r) if len(g.support) <= 3]
        for mu in mus:
            if weyl_dim(t, mu) <= ORACLE_MAX_DIM:
                for g in gradings:
                    yield t, mu, g


def test_orbit_bucketing_matches_full_map_oracle():
    checked = 0
    for t, mu, g in _small_cases():
        got = eigenspace_dims(t, mu, g, max_dim=ORACLE_MAX_DIM)
        assert got == eigenspace_dims_full(t, mu, g, max_dim=ORACLE_MAX_DIM), \
            (str(t), mu, g.support)
        checked += 1
    assert checked > 4000


def test_size_guard_runs_before_the_cache():
    t, mu, g = LieType("C", 3), fundamental(3, 3), E(3, [3])
    assert eigenspace_dims(t, mu, g).total_dim == 14
    with pytest.raises(ResourceLimitError) as exc:
        eigenspace_dims(t, mu, g, max_dim=10)
    assert exc.value.dimension == 14
    assert weight_system(t, mu).dimension == 14
    with pytest.raises(ResourceLimitError):
        weight_system(t, mu, max_dim=10)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except HodgeRepError as exc:
        return type(exc)


@st.composite
def _candidates(draw):
    family = draw(st.sampled_from(sorted(RANK_BOUNDS)))
    lo, hi = RANK_BOUNDS[family]
    rank = draw(st.integers(lo, max(lo, min(hi or 4, 4))))  # E only at rank 6
    mu = tuple(draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)))
    nodes = draw(st.sets(st.integers(1, rank), min_size=1, max_size=3))
    return LieType(family, rank), mu, E(rank, sorted(nodes))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_candidates())
def test_orbit_bucketing_property(case):
    t, mu, g = case
    got = _outcome(eigenspace_dims, t, mu, g, max_dim=500)
    assert got == _outcome(eigenspace_dims_full, t, mu, g, max_dim=500)
    if isinstance(got, EigenDecomp):
        assert got.total_dim == weyl_dim(t, mu)
