import collections
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hodgerep import hodgecore, repweights
from hodgerep.classify import evaluate_simple, verify_paper
from hodgerep.errors import ConsistencyError, HodgeRepError, ResourceLimitError, ShapeError
from hodgerep.hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    FactorSpec,
    GradingElement,
    center_charge,
    eigen_ladder,
    extremal_dim_is_one,
    hodge_vector,
    level,
    mu_of_grading,
    real_form,
    reality_type,
)
from hodgerep.products import assemble
from hodgerep.repweights import DEFAULT_MAX_DIM, weight_system, weyl_dim, weyl_levi_dims
from hodgerep.rootdata import RANK_BOUNDS, LieType, catalogued_types, dual_weight, root_system

from oracles import (
    dominant_weights_up_to,
    eigenspace_dims,
    eigenspace_dims_full,
    hodge_vector_levels,
    level_fraction,
    levi_dim_all_pairings,
    mu_of_grading_fraction,
    orbit_ladder_by_pairing,
    orbit_ladder_full_walk,
    reality_type_fraction,
    weyl_dim_all_pairings,
)
from test_repweights import orbit_route_weights

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


def test_grading_element_keeps_a_tuple_of_ints():
    """A list or float 0/1 input is kept as a tuple of ints: equal to, and
    hashing like, the tuple input, and not open to mutation."""
    g = GradingElement((1, 0))
    for coeffs in ([1, 0], (1.0, 0), [True, False]):
        got = GradingElement(coeffs)
        assert got == g and hash(got) == hash(g) and got.support == (1,)
        assert type(got.coeffs) is tuple and all(type(c) is int for c in got.coeffs)


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


@pytest.mark.parametrize("fn, args", [
    (weyl_dim, ()), (weyl_levi_dims, ((1,),)), (weight_system, ()),
    (dual_weight, ()),
    (level, (E(2, [1]),)), (reality_type, (E(2, [1]),)), (mu_of_grading, (E(2, [1]),)),
], ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("mu", [(1,), (1, 0, 5)])
def test_weight_of_wrong_length_is_rejected(fn, args, mu):
    """A weight with fewer or more coordinates than the rank raises rather
    than being truncated or read past its end."""
    with pytest.raises(ValueError) as info:
        fn(LieType("A", 2), mu, *args)
    assert str(info.value) == f"weight length {len(mu)} != rank 2"


@pytest.mark.parametrize("fn", [level, mu_of_grading, reality_type], ids=lambda f: f.__name__)
@pytest.mark.parametrize("coeffs", [(1,), (1, 0, 0)])
def test_grading_element_of_wrong_length_is_rejected(fn, coeffs):
    """On A2, an E with fewer or more coefficients than the rank raises
    rather than being read short or past its end."""
    with pytest.raises(ValueError) as info:
        fn(LieType("A", 2), (1, 0), GradingElement(coeffs))
    assert str(info.value) == f"grading element length {len(coeffs)} != rank 2"


@pytest.mark.parametrize("fn", [weyl_levi_dims, lambda t, mu, nodes: E(t.rank, nodes)],
                         ids=["weyl_levi_dims", "from_nodes"])
@pytest.mark.parametrize("rank, nodes, message", [
    (3, (1, 1), "node 1 repeated; coefficients must stay 0/1"),
    (2, (5,), "node 5 outside 1..2"),
    (2, (0,), "node 0 outside 1..2"),
])
def test_node_outside_the_diagram_or_repeated_is_rejected(fn, rank, nodes, message):
    """weyl_levi_dims checks its painted nodes as GradingElement.from_nodes
    does.
    It once read a repeated node as another node (on A3, mu = (1, 1, 0)
    off nodes (1, 1) gave 2, the answer off node 2), ignored a node above
    the rank and failed on node 0 with a bare negative shift count."""
    with pytest.raises(ValueError) as info:
        fn(LieType("A", rank), (1, 1, 0)[:rank], nodes)
    assert str(info.value) == message


@pytest.mark.parametrize("coeffs", [(1,), (1, 0, 1)])
def test_eigen_ladder_rejects_grading_element_of_wrong_length(coeffs):
    """On A2 with mu = (1, 0), an E with fewer or more coefficients than the
    rank raises rather than giving the ladder of a neighbouring E."""
    with pytest.raises(ValueError) as info:
        eigen_ladder(LieType("A", 2), (1, 0), GradingElement(coeffs), 1)
    assert str(info.value) == f"grading element length {len(coeffs)} != rank 2"


def test_extremal_examples():
    assert extremal_dim_is_one(fundamental(3, 3), E(3, [3]))
    assert not extremal_dim_is_one((1, 0, 1), E(3, [3]))
    assert extremal_dim_is_one(fundamental(4, 1), E(4, [1, 4]))


def test_reality_examples():
    assert reality_type(LieType("B", 3), fundamental(3, 3), E(3, [1])) == QUATERNIONIC
    assert reality_type(LieType("B", 5), fundamental(5, 5), E(5, [1])) == REAL
    assert reality_type(LieType("A", 4), fundamental(4, 2), E(4, [1])) == COMPLEX


def test_spin_reality_mod4_pattern():
    """The spin weights on node 1: B_r is real for r = 1, 2 mod 4 and
    quaternionic otherwise; both D_r half-spin weights (r = 4..16) are
    complex for odd r, where they are dual to each other, real for
    r = 2 mod 4 and quaternionic for r = 0 mod 4."""
    for r in range(2, 9):
        t = LieType("B", r)
        got = reality_type(t, fundamental(r, r), E(r, [1]))
        expect = REAL if r % 4 in (1, 2) else QUATERNIONIC
        assert got == expect, r
    for r in range(4, 17):
        expect = COMPLEX if r % 2 else REAL if r % 4 == 2 else QUATERNIONIC
        for node in (r - 1, r):
            got = reality_type(LieType("D", r), fundamental(r, node), E(r, [1]))
            assert got == expect, (r, node)


def test_center_charge():
    t = LieType("A", 4)
    m = mu_of_grading(t, fundamental(4, 1), E(4, [1]))
    assert center_charge(3, m, COMPLEX) == Q(7, 10)
    # omega_1 on A4 is complex: assembled as real it would need mu(E) = 3/2
    with pytest.raises(ConsistencyError, match="real case requires mu"):
        center_charge(3, m, REAL)
    t = LieType("C", 3)
    m = mu_of_grading(t, fundamental(3, 3), E(3, [3]))
    assert m == Q(3, 2) and center_charge(3, m, REAL) == 0
    t = LieType("A", 3)
    m = mu_of_grading(t, fundamental(3, 1), E(3, [1]))
    assert center_charge(1, m, COMPLEX) == Q(-1, 4)


def test_quaternionic_charge_check_survives_optimize():
    code = ("from fractions import Fraction\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import center_charge\n"
            "for case in ('quaternionic', 'real'):\n"
            "    try:\n"
            "        center_charge(3, Fraction(1), case)\n"
            "    except ConsistencyError:\n"
            "        print('raised', case)\n")
    assert _run_optimized(code) == "raised quaternionic\nraised real\n"


def test_fold_shape_check_survives_optimize():
    # a lone top at 3/2 folds to (1, 0, 0, 1): a hole the rule never admits
    code = ("from fractions import Fraction\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import EigenDecomp, hodge_vector\n"
            "try:\n"
            "    hodge_vector(EigenDecomp(Fraction(1, 2), (1,)), 'complex', Fraction(1), 3)\n"
            "except ConsistencyError:\n"
            "    print('raised')\n")
    assert _run_optimized(code) == "raised\n"


def test_weyl_quotient_check_survives_optimize():
    """Under python -O, on A2 with a node list of alpha_1 that drops
    alpha_1 itself, the Weyl product of omega_1 keeps only (omega_1 + rho,
    alpha_1 + alpha_2) / (rho, alpha_1 + alpha_2) = 3/2: weyl_dim, the
    closed-form ladder and the size guard of weight_system all raise."""
    code = ("import hodgerep.repweights as repweights\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import GradingElement, eigen_ladder, level\n"
            "from hodgerep.rootdata import LieType, root_system\n"
            "a2 = root_system(LieType('A', 2))\n"
            "lists = ((a2.positive_roots.index((1, 1)),), a2.node_roots[1])\n"
            "repweights.root_system = {a2.lie_type: a2._replace(node_roots=lists)}.__getitem__\n"
            "t, mu, g = a2.lie_type, (1, 0), GradingElement((1, 0))\n"
            "for call in (lambda: repweights.weyl_dim(t, mu),\n"
            "             lambda: eigen_ladder(t, mu, g, level(t, mu, g)),\n"
            "             lambda: repweights.weight_system(t, mu)):\n"
            "    try:\n"
            "        call()\n"
            "    except ConsistencyError as exc:\n"
            "        print('raised', exc)\n")
    assert _run_optimized(code).splitlines() == ["raised Weyl dimension of (1, 0) on A2 is not "
                                                 "integral"] * 3


def test_orbit_ladder_checks_survive_optimize():
    """Under python -O, on A2, 2 omega_1 under E = A1 + A2 (span 4): a
    doubled inverse denominator puts omega_2 half a step below the top,
    and a node list of alpha_1 without alpha_1 + alpha_2 drops the Weyl
    factor (2 omega_1 + rho, alpha_1 + alpha_2) / (rho, alpha_1 + alpha_2)
    = 2, which halves weyl_dim below the total."""
    code = ("import hodgerep.hodgecore as hodgecore\n"
            "import hodgerep.repweights as repweights\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import GradingElement, eigen_ladder, level\n"
            "from hodgerep.rootdata import LieType, root_system\n"
            "a2 = root_system(LieType('A', 2))\n"
            "t, mu, g = a2.lie_type, (2, 0), GradingElement.from_nodes(2, [1, 2])\n"
            "lists = ((a2.positive_roots.index((1, 0)),), a2.node_roots[1])\n"
            "for module, patched in ((hodgecore, a2._replace(inverse_den=2 * a2.inverse_den)),\n"
            "                        (repweights, a2._replace(node_roots=lists))):\n"
            "    module.root_system = {a2.lie_type: patched}.__getitem__\n"
            "    try:\n"
            "        eigen_ladder(t, mu, g, level(t, mu, g))\n"
            "    except ConsistencyError as exc:\n"
            "        print('raised', exc)\n"
            "    module.root_system = root_system\n")
    lines = _run_optimized(code).splitlines()
    assert len(lines) == 2, lines
    assert "(mu - lambda)(E) = 1/2 is not an integer" in lines[0]
    assert "multiplicity total 6 != weyl_dim 3" in lines[1]


def _run_optimized(code):
    """The stdout of `code` run under `python -O` against this checkout,
    with the test modules importable."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src), here]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


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
    # adjoint of sl(3) under A1 folds to (2,6,6,2): not CY3.  The assembly
    # rule rejects it first, since its top eigenspace has dimension 2, so
    # only a direct call reaches the fold, which raises an invariant failure
    t, mu, g = LieType("A", 2), (1, 1), E(2, [1])
    d = eigenspace_dims(t, mu, g)
    c = center_charge(3, mu_of_grading(t, mu, g), COMPLEX)
    with pytest.raises(ConsistencyError, match=re.escape("(2, 6, 6, 2)")):
        hodge_vector(d, COMPLEX, c, 3)
    assert evaluate_simple(t, g, mu, 3) is None


@pytest.mark.parametrize("decomp, level_n, folds", [
    (EigenDecomp(Q(1, 2), (2, 2, 1)), 1, {REAL: (2, 2, 1), COMPLEX: (3, 4, 3)}),
    (EigenDecomp(Q(3, 2), (1, 3, 3, 1, 1)), 3, {REAL: (1, 3, 3, 1, 1),
                                                COMPLEX: (2, 4, 6, 4, 2)}),
])
def test_ladder_longer_than_the_level_fails_the_shape_check(decomp, level_n, folds):
    """A ladder with more than n + 1 rungs, its top at n/2 and its first
    n + 1 rungs of level-n shape, folds to a vector that is too long, which
    the shape check refuses in every reality case."""
    for reality in (REAL, COMPLEX, QUATERNIONIC):
        fold = folds[REAL if reality == REAL else COMPLEX]
        with pytest.raises(ConsistencyError, match=re.escape(
                f"assembled vector {fold} is not of level-{level_n} shape")):
            hodge_vector(decomp, reality, Q(0), level_n)


def test_fold_start_off_the_level_top_raises():
    """top + c = 1/2 + 1/2 = 1 misses n/2 = 1/2 at level 1, which the
    integer check 2 (tp cq + cp tq) = n tq cq refuses, also under
    python -O."""
    message = "ladder (1, 1) with top 1/2 and c = 1/2 does not start at the top of level 1"
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        hodge_vector(EigenDecomp(Q(1, 2), (1, 1)), COMPLEX, Q(1, 2), 1)
    code = ("from fractions import Fraction\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import EigenDecomp, hodge_vector\n"
            "try:\n"
            "    hodge_vector(EigenDecomp(Fraction(1, 2), (1, 1)), 'complex', Fraction(1, 2), 1)\n"
            "except ConsistencyError as exc:\n"
            "    print('raised', exc)\n")
    assert _run_optimized(code) == f"raised {message}\n"


def test_real_form_names():
    assert real_form(LieType("A", 4), E(4, [1])) == "su(1,4)"
    assert real_form(LieType("D", 6), E(6, [5])) == "so*(12)"
    assert real_form(LieType("C", 3), E(3, [3])) == "sp(3,R)"
    assert real_form(LieType("C", 4), E(4, [1])) == "sp(1,3)"
    assert real_form(LieType("B", 4), E(4, [1])) == "so(2,7)"
    assert real_form(LieType("D", 5), E(5, [1])) == "so(2,8)"
    assert real_form(LieType("E", 6), E(6, [1])) == "e6(-14)"
    assert real_form(LieType("E", 7), E(7, [7])) == "e7(-25)"
    assert real_form(LieType("B", 2), E(2, [1, 2])) == "painted{1,2}"
    assert real_form(LieType("B", 3), E(3, [2])) == "painted{2}"


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
            eigenvalues = [ev for ev, _ in d.levels]
            assert d.dims == tuple(reversed(d.dims))
            assert eigenvalues == [-e for e in reversed(eigenvalues)]


def test_duality_flips_decomposition():
    for t, mu in [(LieType("A", 4), fundamental(4, 2)),
                  (LieType("D", 5), fundamental(5, 4)),
                  (LieType("E", 6), fundamental(6, 1))]:
        for g in _all_gradings(t.rank):
            d = eigenspace_dims(t, mu, g)
            dd = eigenspace_dims(t, dual_weight(t, mu), g)
            assert dd.dims == tuple(reversed(d.dims))
            assert [ev for ev, _ in dd.levels] == [-ev for ev, _ in reversed(d.levels)]


def test_extremal_criterion_matches_top_eigenspace_small():
    for t in [LieType("A", 2), LieType("B", 2), LieType("C", 3)]:
        for mu in dominant_weights_up_to(t.rank, 2):
            for g in _all_gradings(t.rank):
                d = eigenspace_dims(t, mu, g)
                assert extremal_dim_is_one(mu, g) == (d.dims[0] == 1)


def test_eigen_decomp_validation():
    for dims in [(), (2, 0), (2, -1, 3), (0,)]:
        with pytest.raises(ValueError):
            EigenDecomp(Q(1), dims)
    d = EigenDecomp(Q(1, 2), (2, 3, 1))
    assert d.levels == ((Q(1, 2), 2), (Q(-1, 2), 3), (Q(-3, 2), 1))
    assert tuple(ev for ev, _ in d.levels) == (Q(1, 2), Q(-1, 2), Q(-3, 2))
    assert sum(d.dims) == 6
    assert d.span == 2 and type(d.span) is int


@st.composite
def _assembly_cases(draw):
    """A unit-step ladder (top p/q with q <= 4, 1-4 positive dims), a
    reality case, a level in 0..4 and a charge c: any p/q with q <= 4, or
    one that puts the top of U, or that of U*, at n/2."""
    top = draw(st.fractions(-4, 4, max_denominator=4))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    level_n = draw(st.sampled_from([0, 1, 2, 3, 4]))
    c = draw(st.one_of(st.fractions(-4, 4, max_denominator=4),
                       st.just(Q(level_n, 2) - top),
                       st.just(len(dims) - 1 - Q(level_n, 2) - top)))
    reality = draw(st.sampled_from([REAL, COMPLEX, QUATERNIONIC]))
    return EigenDecomp(top, dims), reality, c, level_n


@settings(max_examples=200)
@given(_assembly_cases())
@example((EigenDecomp(Q(1, 2), (1, 4)), COMPLEX, Q(1), 3))       # accepted (1,4,4,1)
@example((EigenDecomp(Q(-1, 2), (4, 1)), COMPLEX, Q(0), 3))      # U* on top: fold raises
@example((EigenDecomp(Q(1, 2), (1,)), COMPLEX, Q(1), 3))         # hole in the grid
@example((EigenDecomp(Q(1, 3), (1, 2)), COMPLEX, Q(0), 3))       # U, U* interleave
@example((EigenDecomp(Q(3, 2), (1, 2, 1, 3)), REAL, Q(0), 3))    # not palindromic
@example((EigenDecomp(Q(3, 2), (2, 1, 1, 2)), REAL, Q(0), 3))    # not (1,a,a,1)
@example((EigenDecomp(Q(1, 2), (1, 2)), QUATERNIONIC, Q(0), 1))  # accepted (3,3)
@example((EigenDecomp(Q(1), (1, 1, 1)), REAL, Q(0), 2))          # full grid, level 2
@example((EigenDecomp(Q(0), (1,)), REAL, Q(0), 0))               # full grid, level 0
@example((EigenDecomp(Q(2), (1, 1, 1, 1, 1)), REAL, Q(0), 4))    # full grid, level 4
def test_hodge_vector_matches_fraction_oracle(case):
    """The fold gives the oracle's vector where the oracle accepts with the
    top of U at n/2.  Where the oracle raises, as it does at every level
    but 1 and 3, or accepts with U* on top, which the assembly rule never
    produces, the fold is an invariant failure."""
    decomp, reality, c, level_n = case
    try:
        want = hodge_vector_levels(decomp.levels, reality, c, level_n).dims
    except ShapeError:
        want = None
    assert want is None or level_n in (1, 3)
    if want is None or decomp.top + c != Q(level_n, 2):
        with pytest.raises(ConsistencyError):
            hodge_vector(decomp, reality, c, level_n)
    else:
        assert hodge_vector(decomp, reality, c, level_n).dims == want


# (ladder, reality case, c, level n, fold): a ladder whose top + c is n/2
# and whose fold one clause of the level-n shape check alone refuses
OFF_SHAPE = {
    "longer than n + 1": (EigenDecomp(Q(3, 2), (1, 2, 2, 2, 1)), REAL, Q(0), 3,
                          (1, 2, 2, 2, 1)),
    "longer than n + 1 at level 1": (EigenDecomp(Q(1, 2), (1, 1, 1)), REAL, Q(0), 1, (1, 1, 1)),
    "not palindromic": (EigenDecomp(Q(3, 2), (1, 2, 3, 1)), REAL, Q(0), 3, (1, 2, 3, 1)),
    "not palindromic at level 1": (EigenDecomp(Q(1, 2), (2, 1)), REAL, Q(0), 1, (2, 1)),
    "h^{3,0} != 1": (EigenDecomp(Q(3, 2), (2, 5, 5, 2)), REAL, Q(0), 3, (2, 5, 5, 2)),
    "zero rung": (EigenDecomp(Q(1, 2), (1,)), COMPLEX, Q(1), 3, (1, 0, 0, 1)),
    "level 2": (EigenDecomp(Q(1, 2), (1, 1)), COMPLEX, Q(1, 2), 2, (1, 2, 1)),
}


def test_hodge_vector_refuses_each_off_shape_clause():
    """`hodge_vector` alone decides the shape: (a, a) at level 1 and
    (1, a, a, 1) at level 3, every entry >= 1, and no other level.  Each
    clause is a ConsistencyError, also under python -O; level 2 is the
    fold of omega_1 on A1 under E = A1, assembled at level 2."""
    messages = [f"assembled vector {fold} is not of level-{n} shape"
                for _, _, _, n, fold in OFF_SHAPE.values()]
    for (decomp, reality, c, n, _), message in zip(OFF_SHAPE.values(), messages):
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            hodge_vector(decomp, reality, c, n)
    with pytest.raises(ConsistencyError, match=re.escape(messages[-1])):
        assemble([FactorSpec(LieType("A", 1), E(1, [1]), (1,))], 2)
    cases = [case[:4] for case in OFF_SHAPE.values()]
    code = ("from fractions import Fraction\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import EigenDecomp, hodge_vector\n"
            f"for decomp, reality, c, n in {cases!r}:\n"
            "    try:\n"
            "        hodge_vector(decomp, reality, c, n)\n"
            "    except ConsistencyError as exc:\n"
            "        print('raised', exc)\n")
    assert _run_optimized(code).splitlines() == [f"raised {m}" for m in messages]


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
        assert got.levels == eigenspace_dims_full(t, mu, g, max_dim=ORACLE_MAX_DIM), \
            (str(t), mu, g.support)
        checked += 1
    assert checked > 4000


def test_size_guard_runs_before_the_cache():
    """C3, 2 omega_3 under E = A3 has span 6, so its ladder takes the orbit
    route; the guard still fires once its dominant multiplicities are
    cached."""
    t, mu, g = LieType("C", 3), (0, 0, 2), E(3, [3])
    assert level(t, mu, g) == 6
    assert sum(eigenspace_dims(t, mu, g).dims) == 84
    with pytest.raises(ResourceLimitError) as exc:
        eigenspace_dims(t, mu, g, max_dim=10)
    assert exc.value.dimension == 84
    assert weight_system(t, mu).dimension == 84
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
    want = _outcome(eigenspace_dims_full, t, mu, g, max_dim=500)
    if isinstance(got, EigenDecomp):
        assert sum(got.dims) == weyl_dim(t, mu)
        # the full-map oracle is size-guarded; the closed form builds
        # nothing and is not
        assert got.levels == want or (want is ResourceLimitError
                                      and _in_closed_form(t, mu, g))
    else:
        assert got == want


def _check_integer_route(t, mu, g):
    got = level(t, mu, g)
    assert type(got) is int and got == level_fraction(t, mu, g), (str(t), mu, g.support)
    assert reality_type(t, mu, g) == reality_type_fraction(t, mu, g), (str(t), mu, g.support)
    assert mu_of_grading(t, mu, g) == mu_of_grading_fraction(t, mu, g), (str(t), mu, g.support)


def test_integer_level_reality_and_charge_match_fraction_oracles():
    """level and reality_type from the integer level matrix, and mu(E_ss)
    from the integer inverse, against their former Fraction routes: every
    type of rank <= 8, fundamentals and sums of two fundamentals, every
    grading element of at most 3 nodes."""
    checked = 0
    for t in catalogued_types(8):
        r = t.rank
        fund = [fundamental(r, i) for i in range(1, r + 1)]
        mus = fund + [tuple(map(sum, zip(a, b)))
                      for a, b in itertools.combinations_with_replacement(fund, 2)]
        for g in _all_gradings(r):
            if len(g.support) <= 3:
                for mu in mus:
                    _check_integer_route(t, mu, g)
                    checked += 1
    assert checked > 40000


@st.composite
def _dominant_cases(draw):
    family = draw(st.sampled_from(sorted(RANK_BOUNDS)))
    lo, hi = RANK_BOUNDS[family]
    rank = draw(st.integers(lo, min(hi or 14, 14)))
    mu = tuple(draw(st.lists(st.integers(0, 5), min_size=rank, max_size=rank)))
    nodes = draw(st.sets(st.integers(1, rank), min_size=1))
    return LieType(family, rank), mu, E(rank, sorted(nodes))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_dominant_cases())
def test_integer_level_route_property(case):
    _check_integer_route(*case)


def _node_weights(t, g):
    """w_i = (omega_i + omega_i*)(E_ss), so that span = sum_i mu_i w_i."""
    return [sum(row[i - 1] for i in g.support) for row in root_system(t).level_matrix]


def _in_closed_form(t, mu, g):
    return level(t, mu, g) in (1, 2, 3)


def _closed_form_cases(max_rank):
    """(type, mu, E): every type of rank <= max_rank, every E of at most 3
    nodes, and every nonzero dominant mu of span <= 3 (the closed-form
    domain), supp(mu) anywhere."""
    for t in catalogued_types(max_rank):
        for g in _all_gradings(t.rank):
            if len(g.support) > 3:
                continue
            w = _node_weights(t, g)
            for size in (1, 2, 3):
                for nodes in itertools.combinations_with_replacement(range(t.rank), size):
                    if sum(w[i] for i in nodes) <= 3:
                        mu = tuple(nodes.count(i) for i in range(t.rank))
                        if _in_closed_form(t, mu, g):
                            yield t, mu, g


def _complex_span3(t, mu, g):
    return level(t, mu, g) == 3 and dual_weight(t, mu) != mu


def _no_orbit_route(*args, **kwargs):
    raise AssertionError("the orbit route ran inside the closed-form domain")


def test_levi_ladder_matches_orbit_oracle(monkeypatch):
    """Every closed-form ladder at rank <= 8 equals the orbit-walk ladder,
    and eigenspace_dims reaches it without the orbit route.  Span-3 ladders
    with mu != mu* stop at rank 7: at rank 8 their orbit oracle takes about
    6 s more."""
    # the orbit oracle needs a guard above the default: the largest case is
    # B8, omega_7 + omega_8, of dimension 1,810,432; the closed form has none
    max_dim = 2 * 10 ** 6
    cases = [c for c in _closed_form_cases(8) if c[0].rank <= 7 or not _complex_span3(*c)]
    want = [hodgecore._orbit_ladder(t, mu, g, level(t, mu, g), max_dim) for t, mu, g in cases]
    spans = {level(t, mu, g) for t, mu, g in cases}
    self_dual_span3 = sum(1 for t, mu, g in cases
                          if level(t, mu, g) == 3 and dual_weight(t, mu) == mu)
    complex_span3 = sum(1 for c in cases if _complex_span3(*c))
    outside_e = sum(1 for t, mu, g in cases if not extremal_dim_is_one(mu, g))
    assert len(cases) > 2000 and spans == {1, 2, 3}
    assert self_dual_span3 > 250 and complex_span3 == 816 and outside_e > 1000
    monkeypatch.setattr(hodgecore, "_orbit_ladder", _no_orbit_route)
    for (t, mu, g), expected in zip(cases, want):
        assert eigenspace_dims(t, mu, g) == expected, (str(t), mu, g.support)


@st.composite
def _closed_form_draws(draw):
    """A type of rank <= 14, E of 1-3 nodes, and a nonzero dominant mu of
    span <= 3 (the closed-form domain), built one node at a time within the
    span budget."""
    family = draw(st.sampled_from(sorted(RANK_BOUNDS)))
    lo, hi = RANK_BOUNDS[family]
    rank = draw(st.integers(lo, min(hi or 14, 14)))
    t = LieType(family, rank)
    g = E(rank, sorted(draw(st.sets(st.integers(1, rank), min_size=1, max_size=3))))
    w = _node_weights(t, g)
    mu, budget = [0] * rank, 3
    while True:
        fits = [i for i in range(rank) if w[i] <= budget]
        if not fits or (any(mu) and draw(st.booleans())):
            break
        i = draw(st.sampled_from(fits))
        mu[i] += 1
        budget -= w[i]
    assume(any(mu) and _in_closed_form(t, tuple(mu), g))
    return t, tuple(mu), g


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_closed_form_draws())
def test_levi_ladder_property(case):
    """Up to rank 14: the closed form fills weyl_dim and equals the orbit
    route wherever that route fits under its size guard; the closed form
    builds nothing, so a guard as low as 1 does not stop it."""
    t, mu, g = case
    got = eigenspace_dims(t, mu, g, max_dim=1)
    assert sum(got.dims) == weyl_dim(t, mu)
    want = _outcome(hodgecore._orbit_ladder, t, mu, g, level(t, mu, g), 20000)
    assert want is ResourceLimitError or got == want


def test_rank14_reconcile_runs_no_freudenthal(monkeypatch):
    """Every row instance up to rank 14 has span <= 3 in the closed-form
    domain, so reconciling them builds no dominant multiplicities."""
    calls = []
    inner = repweights._dominant_multiplicities

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(repweights, "_dominant_multiplicities", counting)
    report = verify_paper(max_rank=14, include_computed_only=False)
    assert report.matches and calls == []


def test_closed_form_is_not_size_guarded():
    """B20 spin at level 1 (span 1), of dimension 2^20, is a tuple: its
    ladder is the Levi closed form, which builds no weight system.  Its
    weight system still stops at the guard with the guard's message."""
    t, mu = LieType("B", 20), fundamental(20, 20)
    got = evaluate_simple(t, E(20, [1]), mu, 1)
    assert got is not None and got.reality == QUATERNIONIC
    assert got.hodge.dims == (2 ** 20, 2 ** 20)  # U + U*
    assert eigenspace_dims(t, mu, E(20, [1]), max_dim=1).dims == (2 ** 19, 2 ** 19)
    with pytest.raises(ResourceLimitError) as exc:
        weight_system(t, mu)
    assert str(exc.value) == (
        f"weight system of B20 with highest weight {mu} has dimension 1048576, "
        "above the size guard 1000000")
    assert exc.value.dimension == 1048576


def _touched_root_cases():
    """(type, mu, painted nodes): every type of rank <= 8 with every
    weight of coordinate sum <= 2 (0 included) and every painted set of at
    most 3 nodes (none included), and on each type of rank 9 to 14 a
    seeded sample of 6 of those weights and 12 of those sets."""
    rng = random.Random(31)
    for t in catalogued_types(14):
        r = t.rank
        weights = [(0,) * r, *dominant_weights_up_to(r, 2)]
        painted = [nodes for size in range(4)
                   for nodes in itertools.combinations(range(1, r + 1), size)]
        if r > 8:
            weights, painted = rng.sample(weights, 6), rng.sample(painted, 12)
        for mu in weights:
            for nodes in painted:
                yield t, mu, nodes


def test_touched_root_products_match_the_all_pairings_oracles():
    """weyl_dim and weyl_levi_dims, which pair only the roots that meet
    supp(mu), against the Weyl and Levi products over every root: the
    Levi product of mu off the painted nodes, and that of mu* off them,
    which weyl_levi_dims reads as mu's off their image under the duality;
    and each closed-form ladder (span 1 to 3) has the oracle Levi
    dimensions of mu and mu* at its ends, fills the oracle Weyl dimension
    and has trace 0 about its top, which fix it."""
    weyls, counts = {}, collections.Counter()
    for t, mu, nodes in _touched_root_cases():
        if (t, mu) not in weyls:
            weyls[t, mu] = weyl_dim_all_pairings(t, mu)
            assert weyl_dim(t, mu) == weyls[t, mu], (str(t), mu)
        dim = weyls[t, mu]
        d_top = levi_dim_all_pairings(t, mu, nodes)
        d_bot = levi_dim_all_pairings(t, dual_weight(t, mu), nodes)
        assert weyl_levi_dims(t, mu, nodes) == (dim, d_top, d_bot), (str(t), mu, nodes)
        counts["levi"] += 1
        counts["ends differ"] += d_top != d_bot
        if not nodes:
            continue
        g = E(t.rank, nodes)
        span, top = level(t, mu, g), mu_of_grading(t, mu, g)
        if not 1 <= span <= 3:
            continue
        dims = eigen_ladder(t, mu, g, span).dims
        assert len(dims) == span + 1, (str(t), mu, nodes)
        assert dims[0] == d_top, (str(t), mu, nodes)
        assert dims[-1] == d_bot, (str(t), mu, nodes)
        assert sum(dims) == dim and sum(k * d for k, d in enumerate(dims)) == top * dim, \
            (str(t), mu, nodes)
        counts["ladder"] += 1
        counts[f"span {span}, mu* {'=' if dual_weight(t, mu) == mu else '!='} mu"] += 1
    assert counts == {"levi": 43704, "ends differ": 7470, "ladder": 1721,
                      "span 1, mu* = mu": 39, "span 1, mu* != mu": 110,
                      "span 2, mu* = mu": 302, "span 2, mu* != mu": 502,
                      "span 3, mu* = mu": 210, "span 3, mu* != mu": 558}


def test_bottom_end_reads_mu_off_the_dual_nodes():
    """A3, omega_1 under E = A1: mu* = omega_3 != mu and sigma(E) = A3 !=
    E, so the ends differ: the Levi module of omega_1 off node 1 is C, and
    that of omega_3 off node 1, read as omega_1's off node 3, is C^3."""
    t, mu, g = LieType("A", 3), (1, 0, 0), E(3, [1])
    assert dual_weight(t, mu) == (0, 0, 1) and _flipped(t, g) == E(3, [3])
    assert weyl_levi_dims(t, mu, (1,)) == (4, 1, 3)
    assert weyl_levi_dims(t, mu, (3,)) == (4, 3, 1)
    assert eigen_ladder(t, mu, g, level(t, mu, g)).dims == (1, 3)


def _patched_a3_c3():
    """Root data of A3 whose mask of alpha_1 + alpha_2 drops alpha_1, and of
    C3 whose node list of alpha_3 drops alpha_3 itself: Levi products on A3
    read alpha_1 + alpha_2 as a root off node 1, and C3's Weyl products lose
    the factor (omega_3 + rho, alpha_3) / (rho, alpha_3) = 2."""
    a3, c3 = root_system(LieType("A", 3)), root_system(LieType("C", 3))
    masks = list(a3.root_masks)
    masks[a3.positive_roots.index((1, 1, 0))] = 0b010
    lists = list(c3.node_roots)
    lists[2] = tuple(k for k in lists[2] if c3.positive_roots[k] != (0, 0, 1))
    return a3._replace(root_masks=tuple(masks)), c3._replace(node_roots=tuple(lists))


def test_bottom_levi_check_names_the_dual_weight(monkeypatch):
    """With the A3 root data of `_patched_a3_c3`, omega_1 off node 3 keeps
    its top end 3, from alpha_1 and alpha_1 + alpha_2, but its bottom end,
    read off sigma(3) = node 1, meets alpha_1 + alpha_2 alone, a quotient
    of 3/2: the check names mu* = omega_3 and the painted nodes."""
    a3, _ = _patched_a3_c3()
    monkeypatch.setattr(repweights, "root_system", {a3.lie_type: a3}.__getitem__)
    with pytest.raises(ConsistencyError) as info:
        weyl_levi_dims(a3.lie_type, (1, 0, 0), (3,))
    assert str(info.value) == "Levi dimension of (0, 0, 1) on A3 off the nodes (3,) is not integral"


def test_zero_middle_rung_raises(monkeypatch):
    """A3, omega_2 under E = A1 + A3 is the span-2 ladder (2, 2, 2); with
    alpha_1 + alpha_2 read as off the painted nodes its Levi dimension is 3,
    so the ends (3, 3) fill weyl_dim 6 with trace 0 and leave a middle
    rung of exactly 0, which the closed form refuses."""
    a3, _ = _patched_a3_c3()
    t, mu, g = a3.lie_type, (0, 1, 0), E(3, [1, 3])
    assert eigen_ladder(t, mu, g, level(t, mu, g)).dims == (2, 2, 2)
    monkeypatch.setattr(repweights, "root_system", {t: a3}.__getitem__)
    with pytest.raises(ConsistencyError, match=re.escape(
            "ladder (3, 0, 3) of (0, 1, 0) on A3 under E = A1+A3 does not fill weyl_dim 6")):
        eigen_ladder(t, mu, g, level(t, mu, g))


def test_levi_ladder_checks_survive_optimize():
    """Under python -O, with the root data of `_patched_a3_c3`: the Levi
    quotient of omega_2 on A3 under E = A1 is not integral; the middle rung
    of omega_2 on A3 under E = A1 + A3 is 0; weyl_dim of C3, omega_3 halves
    to 7, so top 3/2 times it under E = A3 is not an integer; and on A1,
    omega_1 under E = A1, an inverse row of 3 in the root data that
    mu_of_grading reads, with the level matrix kept, gives the closed form
    a top of 3/2, which breaks the zero trace of the span-1 ladder (1, 1)."""
    code = ("import hodgerep.hodgecore as hodgecore\n"
            "import hodgerep.repweights as repweights\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import GradingElement, eigen_ladder, level\n"
            "from hodgerep.rootdata import LieType, root_system\n"
            "from test_hodgecore import _patched_a3_c3\n"
            "a3, c3 = _patched_a3_c3()\n"
            "repweights.root_system = {a3.lie_type: a3, c3.lie_type: c3}.__getitem__\n"
            "for rsd, mu, nodes in ((a3, (0, 1, 0), [1]), (a3, (0, 1, 0), [1, 3]),\n"
            "                       (c3, (0, 0, 1), [3])):\n"
            "    t, g = rsd.lie_type, GradingElement.from_nodes(rsd.rank, nodes)\n"
            "    try:\n"
            "        eigen_ladder(t, mu, g, level(t, mu, g))\n"
            "    except ConsistencyError as exc:\n"
            "        print('raised', exc)\n"
            "repweights.root_system = root_system\n"
            "a1 = root_system(LieType('A', 1))\n"
            "hodgecore.root_system = {a1.lie_type: a1._replace(inverse_num=((3,),))}.__getitem__\n"
            "t, g = a1.lie_type, GradingElement((1,))\n"
            "try:\n"
            "    eigen_ladder(t, (1,), g, level(t, (1,), g))\n"
            "except ConsistencyError as exc:\n"
            "    print('raised', exc)\n")
    lines = _run_optimized(code).splitlines()
    assert len(lines) == 4, lines
    assert "Levi dimension" in lines[0] and "not integral" in lines[0]
    assert lines[1] == ("raised ladder (3, 0, 3) of (0, 1, 0) on A3 under E = A1+A3 does not "
                        "fill weyl_dim 6 with trace 0 about top 1")
    assert lines[2] == ("raised top 3/2 times weyl_dim 7 of (0, 0, 1) on C3 under E = A3 "
                        "is not an integer")
    assert lines[3] == ("raised ladder (1, 1) of (1,) on A1 under E = A1 does not fill "
                        "weyl_dim 2 with trace 0 about top 3/2")


def _orbit_route_cases():
    """(type, mu, E) for every type of rank <= 8, the oracle weights of
    `orbit_route_weights`, and the painted sets {1}, {r}, {1, r},
    {ceil(r/2)} and all nodes."""
    for t in catalogued_types(8):
        r = t.rank
        painted = {(1,), (r,), tuple(sorted({1, r})), ((r + 1) // 2,), tuple(range(1, r + 1))}
        for mu in orbit_route_weights(t):
            for nodes in sorted(painted):
                yield t, mu, E(r, nodes)


def test_orbit_ladder_matches_the_pairing_oracle():
    """Counting depths along the orbit walk gives the ladder that pairing
    every orbit element with the grading row gave."""
    count = 0
    for t, mu, g in _orbit_route_cases():
        assert hodgecore._orbit_ladder(t, mu, g, level(t, mu, g), DEFAULT_MAX_DIM) == \
            orbit_ladder_by_pairing(t, mu, g), (str(t), mu, g.support)
        count += 1
    assert count == 1037


@pytest.mark.parametrize("family, rank, mu, nodes", [
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), [8]),
    ("B", 8, (0, 0, 1, 0, 0, 0, 0, 0), [1, 8]),
    ("A", 6, (0, 0, 1, 0, 0, 1), [3]),
])
def test_orbit_ladder_reads_the_grading_row_once(monkeypatch, family, rank, mu, nodes):
    """One grading row per ladder when sigma(E) = E and two otherwise, and
    one capped walk per dominant weight and row, where the pairing route
    paired the row with every orbit element."""
    t, g = LieType(family, rank), E(rank, nodes)
    rows, walks = [], []
    row_of, walk = hodgecore._grading_row, hodgecore._orbit_depths
    monkeypatch.setattr(hodgecore, "_grading_row",
                        lambda rsd, e: rows.append(e) or row_of(rsd, e))
    monkeypatch.setattr(hodgecore, "_orbit_depths",
                        lambda lam, nb, painted, *args: walks.append((lam, painted))
                        or walk(lam, nb, painted, *args))
    got = hodgecore._orbit_ladder(t, mu, g, level(t, mu, g), DEFAULT_MAX_DIM)
    assert got == orbit_ladder_by_pairing(t, mu, g)
    flipped = _flipped(t, g)
    gradings = [g] if flipped == g else [g, flipped]
    assert rows == gradings and len(gradings) == (2 if family == "A" else 1)
    assert walks == [(lam, h.coeffs) for h in gradings for lam, _ in weight_system(t, mu).dominant]


def _flipped(t, g):
    """sigma(E): E's nodes moved by the duality involution -w0."""
    return GradingElement(tuple(g.coeffs[j] for j in root_system(t).duality))


def _random_weights(t, rng, count, max_dim):
    """`count` distinct nonzero dominant weights of Weyl dimension <= max_dim,
    each 1 or 2 nodes with coordinates 1 to 5, drawn from rng."""
    found = set()
    while len(found) < count:
        mu = [0] * t.rank
        for i in rng.sample(range(t.rank), min(t.rank, rng.choice((1, 1, 2)))):
            mu[i] = rng.randint(1, 5)
        if weyl_dim(t, mu) <= max_dim:
            found.add(tuple(mu))
    return sorted(found)


def test_orbit_ladder_matches_the_full_walk_oracle():
    """The two capped walks give the ladder that walking every orbit to its
    end under E gave: every type of rank <= 6, four random weights per type
    of Weyl dimension <= 3000, every E of 1 to 3 nodes.  The cases include
    odd and even spans with sigma(E) != E on A_r, D5 and E6."""
    rng = random.Random(24)
    count, flipped_spans, flipped_types = 0, set(), set()
    for t in catalogued_types(6):
        for mu in _random_weights(t, rng, 4, 3000):
            for g in _all_gradings(t.rank):
                if len(g.support) > 3:
                    continue
                span = level(t, mu, g)
                got = hodgecore._orbit_ladder(t, mu, g, span, DEFAULT_MAX_DIM)
                assert got == orbit_ladder_full_walk(t, mu, g), (str(t), mu, g.support)
                if _flipped(t, g) != g:
                    flipped_spans.add(span % 2)
                    flipped_types.add(str(t) if t.family != "A" else "A")
                count += 1
    assert count == 1636
    assert flipped_spans == {0, 1} and flipped_types == {"A", "D5", "E6"}


@st.composite
def _small_systems(draw):
    """A type of rank <= 6, a dominant weight of Weyl dimension <= 2000
    with coordinates 0 to 2, and any nonzero E."""
    family = draw(st.sampled_from(sorted(RANK_BOUNDS)))
    lo, hi = RANK_BOUNDS[family]
    rank = draw(st.integers(lo, max(lo, min(hi or 6, 6))))
    mu = tuple(draw(st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=rank, max_size=rank)))
    t = LieType(family, rank)
    assume(weyl_dim(t, mu) <= 2000)
    nodes = draw(st.sets(st.integers(1, rank), min_size=1))
    return t, mu, E(rank, sorted(nodes))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_systems())
@example((LieType("E", 6), (1, 0, 0, 0, 0, 1), E(6, [1, 2])))
@example((LieType("D", 5), (0, 0, 0, 2, 0), E(5, [4])))
def test_ladder_w0_symmetry_property(case):
    """dims(mu, E) reversed is dims(mu, sigma E) and dims(mu*, E); when
    sigma(E) = E the ladder is a palindrome."""
    t, mu, g = case
    dims = eigenspace_dims(t, mu, g).dims
    flipped = _flipped(t, g)
    assert eigenspace_dims(t, mu, flipped).dims == dims[::-1]
    assert eigenspace_dims(t, dual_weight(t, mu), g).dims == dims[::-1]
    if flipped == g:
        assert dims == dims[::-1]


def test_orbit_ladder_span_check_survives_optimize():
    """Under python -O, a span off (mu + mu*)(E) by 1 or 2 raises on the
    orbit route, at span 0 (the trivial module of A2) and above 3, with
    sigma(E) = E (A2, 2 omega_1 under A1 + A2; E8, omega_8 under A8) and
    sigma(E) != E (A6, omega_3 + omega_6 under A3)."""
    code = ("from hodgerep import hodgecore\n"
            "from hodgerep.errors import ConsistencyError\n"
            "from hodgerep.hodgecore import GradingElement, level\n"
            "from hodgerep.rootdata import LieType\n"
            "cases = [(LieType('A', 2), (0, 0), [1]), (LieType('A', 2), (2, 0), [1, 2]),\n"
            "         (LieType('E', 8), (0,) * 7 + (1,), [8]),\n"
            "         (LieType('A', 6), (0, 0, 1, 0, 0, 1), [3])]\n"
            "for t, mu, nodes in cases:\n"
            "    g = GradingElement.from_nodes(t.rank, nodes)\n"
            "    n = level(t, mu, g)\n"
            "    for delta in (-2, -1, 1, 2):\n"
            "        try:\n"
            "            hodgecore._orbit_ladder(t, mu, g, n + delta, 10 ** 6)\n"
            "        except ConsistencyError as exc:\n"
            "            print('raised', exc)\n"
            "    print('ok', n, sum(hodgecore._orbit_ladder(t, mu, g, n, 10 ** 6).dims))\n")
    lines = _run_optimized(code).splitlines()
    assert [line.split()[0] for line in lines] == (["raised"] * 4 + ["ok"]) * 4, lines
    assert [line for line in lines if line.startswith("ok")] == [
        "ok 0 1", "ok 4 6", "ok 4 248", "ok 4 224"]
    assert lines[0] == ("raised span -2 of (0, 0) on A2 under E = A1 is not "
                        "(mu + mu*)(E) = 0")
