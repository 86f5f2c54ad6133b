import itertools
import random
from fractions import Fraction as Q

import pytest

from hodgerep.errors import ShapeError
from hodgerep.hodgecore import (
    COMPLEX,
    QUATERNIONIC,
    REAL,
    EigenDecomp,
    GradingElement,
    level,
    reality_type,
)
from hodgerep.products import FactorSpec, combine, convolve_eigen, tensor_reality
from hodgerep.rootdata import LieType, dual_weight, mu_plus_mu_star_closed_form

E = GradingElement.from_nodes


def dec(*pairs):
    return EigenDecomp(tuple((Q(ev), d) for ev, d in pairs))


def test_convolution_examples():
    assert convolve_eigen([dec((1, 1), (0, 1)), dec((1, 1), (0, 4), (-1, 1))]).dims \
        == (1, 5, 5, 1)
    assert convolve_eigen([dec((1, 1), (0, 1)), dec((1, 1), (0, 1), (-1, 1))]).dims \
        == (1, 2, 2, 1)
    assert convolve_eigen([dec((1, 1), (0, 1))] * 3).dims == (1, 3, 3, 1)


def _random_decomp(rng):
    n = rng.randint(1, 4)
    start = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return EigenDecomp(tuple(
        (start - k, rng.randint(1, 5)) for k in range(n)
    ))


def test_convolution_conserves_dimension():
    rng = random.Random(20240811)
    for _ in range(50):
        a, b = _random_decomp(rng), _random_decomp(rng)
        conv = convolve_eigen([a, b])
        assert conv.total_dim == a.total_dim * b.total_dim


def test_convolution_commutative_associative():
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (_random_decomp(rng) for _ in range(3))
        assert convolve_eigen([a, b]).levels == convolve_eigen([b, a]).levels
        assert convolve_eigen([convolve_eigen([a, b]), c]).levels == \
            convolve_eigen([a, convolve_eigen([b, c])]).levels
        assert convolve_eigen([a, b, c]).levels == \
            convolve_eigen([convolve_eigen([a, b]), c]).levels


def test_tensor_reality_table():
    assert tensor_reality([REAL, REAL]) == REAL
    assert tensor_reality([QUATERNIONIC, QUATERNIONIC]) == REAL
    assert tensor_reality([REAL, QUATERNIONIC]) == QUATERNIONIC
    assert tensor_reality([COMPLEX, REAL]) == COMPLEX
    assert tensor_reality([COMPLEX, QUATERNIONIC, REAL]) == COMPLEX
    assert tensor_reality([REAL, REAL, REAL]) == REAL
    assert tensor_reality([QUATERNIONIC, QUATERNIONIC, QUATERNIONIC]) == QUATERNIONIC


SL2 = FactorSpec(LieType("A", 1), E(1, [1]), (1,))


def test_combine_examples():
    so8 = FactorSpec(LieType("D", 4), E(4, [1]), (1, 0, 0, 0))
    p = combine([SL2, so8])
    assert p.hodge.dims == (1, 7, 7, 1) and p.reality == REAL and p.c == 0

    so7 = FactorSpec(LieType("B", 3), E(3, [1]), (1, 0, 0))
    p = combine([SL2, so7])
    assert p.hodge.dims == (1, 6, 6, 1)

    p = combine([SL2, SL2, SL2])
    assert p.hodge.dims == (1, 3, 3, 1) and p.reality == REAL and p.c == 0


def test_combine_level_charge():
    # sl(2) x sl(r2+1): c = 3/2 - 1/2 - r2/(r2+1)
    for r2 in range(2, 5):
        f2 = FactorSpec(LieType("A", r2), E(r2, [1]), (1,) + (0,) * (r2 - 1))
        p = combine([SL2, f2])
        assert p.c == Q(3, 2) - Q(1, 2) - Q(r2, r2 + 1)
        assert p.hodge.dims == (1, 1 + 2 * r2, 1 + 2 * r2, 1)
        assert p.reality == COMPLEX


def test_combine_rejects_noncanonical_patterns():
    span1_real = SL2
    span1_cplx = FactorSpec(LieType("A", 2), E(2, [1]), (1, 0))
    span2_real = FactorSpec(LieType("B", 2), E(2, [1]), (1, 0))
    span2_quat = FactorSpec(LieType("C", 2), E(2, [1]), (1, 0))
    span3_real = FactorSpec(LieType("C", 3), E(3, [3]), (0, 0, 1))
    span4 = FactorSpec(LieType("D", 4), E(4, [3]), (0, 0, 2, 0))

    assert level(span3_real.lie_type, span3_real.mu, span3_real.E) == 3
    assert level(span4.lie_type, span4.mu, span4.E) == 4

    accepted = {(1, 1), (1, 2), (1, 1, 1)}
    pool = {1: span1_cplx, 2: span2_real, 3: span3_real, 4: span4}
    for sizes in list(itertools.combinations_with_replacement((1, 2, 3, 4), 2)) + \
            list(itertools.combinations_with_replacement((1, 2, 3, 4), 3)):
        factors = [pool[s] for s in sizes]
        if tuple(sorted(sizes)) in accepted:
            continue
        with pytest.raises(ShapeError):
            combine(factors)

    # the accepted patterns do build, with compatible reality choices
    assert combine([span1_real, span1_cplx]).hodge.dims == (1, 5, 5, 1)
    assert combine([span1_real, span2_real]).hodge.dims == (1, 4, 4, 1)
    assert combine([span1_real] * 3).hodge.dims == (1, 3, 3, 1)


def test_combine_reality_constraints():
    # 1+1 with joint real type stays level 2: rejected
    with pytest.raises(ShapeError):
        combine([SL2, SL2])
    # 1+2 with quaternionic second factor: joint quaternionic, rejected
    span2_quat = FactorSpec(LieType("C", 2), E(2, [1]), (1, 0))
    assert reality_type(span2_quat.lie_type, span2_quat.mu, span2_quat.E) == QUATERNIONIC
    with pytest.raises(ShapeError):
        combine([SL2, span2_quat])
    # 1+2 with complex second factor: rejected
    span2_cplx = FactorSpec(LieType("A", 3), E(3, [1, 2]), (1, 0, 0))
    with pytest.raises(ShapeError):
        combine([SL2, span2_cplx])


def test_combine_requires_extremal_factors():
    bad = FactorSpec(LieType("B", 2), E(2, [2]), (1, 0))  # support(mu) not in support(E)
    with pytest.raises(ShapeError):
        combine([SL2, bad])


def test_joint_reality_matches_concatenated_parity_test():
    """tensor_reality equals the parity test on the concatenated diagram."""
    candidates = [
        FactorSpec(LieType("A", 1), E(1, [1]), (1,)),
        FactorSpec(LieType("A", 1), E(1, [1]), (2,)),
        FactorSpec(LieType("A", 2), E(2, [1]), (1, 0)),
        FactorSpec(LieType("B", 2), E(2, [1]), (1, 0)),
        FactorSpec(LieType("C", 2), E(2, [1]), (1, 0)),
        FactorSpec(LieType("B", 3), E(3, [1]), (0, 0, 1)),
        FactorSpec(LieType("C", 3), E(3, [3]), (0, 0, 1)),
    ]
    for combo in itertools.combinations_with_replacement(candidates, 2):
        joint = tensor_reality(
            [reality_type(f.lie_type, f.mu, f.E) for f in combo])
        # concatenated diagram: self-dual iff all factors self-dual; parity adds
        if any(tuple(f.mu) != dual_weight(f.lie_type, f.mu) for f in combo):
            expected = COMPLEX
        else:
            parity = 0
            for f in combo:
                rc = mu_plus_mu_star_closed_form(f.lie_type, f.mu)
                contrib = sum(rc[j] for j in range(f.lie_type.rank)
                              if f.E.coeffs[j] == 0)
                assert contrib.denominator == 1
                parity += int(contrib)
            expected = QUATERNIONIC if parity % 2 else REAL
        assert joint == expected, combo
