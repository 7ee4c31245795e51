"""Scalar kernel and truncated jet ring."""

import random
from fractions import Fraction
from math import factorial

import pytest

from skewpoly.jets import (Jet, JetSpec, OrderMismatchError, TruncationError,
                           weight)
from skewpoly.pfaffian import pfaffian, pfaffian_expand
from skewpoly.scalars import (GaussianRational, exact_div, format_scalar, parse_scalar,
                              scalar_inv)


def rand_scalar(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def rand_jet(rng, spec=JetSpec(2)):
    return Jet(spec, {a: rand_scalar(rng) for a in spec.weights})


def test_rational_exactness():
    rng = random.Random(0)
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a + b) - b == a


def test_gaussian_arithmetic_and_conjugation():
    a = GaussianRational.of(Fraction(3, 2), Fraction(-1, 3))
    b = GaussianRational.of(2, 5)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a + Fraction(1, 2) == GaussianRational.of(2, Fraction(-1, 3))


def test_gaussian_value_semantics():
    """Kernel values (int parts) and public ones (Fraction parts) are one
    type: equal values compare and hash alike, mixed products are exact
    over Fractions, and division is field division."""
    three = [GaussianRational(3, 0), GaussianRational(Fraction(3), Fraction(0)), 3, Fraction(3)]
    for x in three:
        for y in three:
            assert x == y and hash(x) == hash(y), (x, y)
    assert len(set(three)) == 1
    assert hash(GaussianRational(1, -2)) == hash(GaussianRational.of(1, -2))
    k, q = GaussianRational(2, -3), GaussianRational.of(Fraction(1, 2), Fraction(5, 3))
    for prod in (k * q, q * k):
        assert prod == GaussianRational.of(6, Fraction(11, 6))
        assert type(prod.re) is type(prod.im) is Fraction
    assert (type((k * k).re), k * k) == (int, GaussianRational(-5, -12))
    for num in (k, q, 1, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            num / GaussianRational(0, 0)
    # the path Jet.inverse takes through scalar_inv
    for inv in (Fraction(1) / k, scalar_inv(k)):
        assert inv == GaussianRational.of(Fraction(2, 13), Fraction(3, 13)) and inv * k == 1
        assert type(inv.re) is type(inv.im) is Fraction


def test_jet_pfaffian_over_gaussian_integers():
    """``pfaffian`` runs the rings the catalog uses: ``JetSpec(1)`` jets with
    Gaussian-integer coefficients, interpolated over scalar eliminations,
    match the expansion; a heavier jet is refused (``pfaffian_expand`` and
    ``pf_labels`` take it)."""
    rng = random.Random(5)

    def rows_of(spec, n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = Jet(spec, {a: GaussianRational(rng.randint(-4, 4),
                                                            rng.randint(-4, 4))
                                        for a in spec.weights})
                rows[j][i] = -rows[i][j]
        return rows
    for n in (2, 4, 6):
        rows = rows_of(JetSpec(1), n)
        assert pfaffian(rows) == pfaffian_expand(rows), n
    with pytest.raises(ValueError):
        pfaffian(rows_of(JetSpec(2), 4))


def test_scalar_format_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        f = rand_scalar(rng)
        assert parse_scalar(format_scalar(f)) == f
        g = GaussianRational.of(rand_scalar(rng), rand_scalar(rng))
        assert parse_scalar(format_scalar(g)) == g
    assert parse_scalar("3/4-2/5i") == GaussianRational.of(Fraction(3, 4), Fraction(-2, 5))


def test_exact_div_never_floats():
    assert exact_div(1, 1) == 1
    assert isinstance(exact_div(1, 1), Fraction)
    assert exact_div(Fraction(3), 2) == Fraction(3, 2)
    # Gaussian integers (int parts) divide over Fractions too
    half = GaussianRational(1, 0) / GaussianRational(2, 0)
    assert half == Fraction(1, 2) and type(half.re) is type(half.im) is Fraction
    assert format_scalar(exact_div(GaussianRational(1, 3), 2)) == "1/2+3/2i"


def test_jet_difference_of_squares():
    spec = JetSpec(2)
    one_plus = Jet(spec, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    one_minus = Jet(spec, {(0, 0): Fraction(1), (1, 0): Fraction(-1)})
    prod = one_plus * one_minus
    assert prod == Jet(spec, {(0, 0): Fraction(1), (2, 0): Fraction(-1)})


def test_jet_identity_and_truncation_drop():
    rng = random.Random(2)
    spec = JetSpec(2)
    a = rand_jet(rng)
    assert a * Jet.constant(Fraction(1), spec) == a
    eps1 = Jet(spec, {(1, 0): Fraction(1)})
    eps1_sq = Jet(spec, {(2, 0): Fraction(1)})
    assert not eps1 * eps1_sq


def test_jet_ring_axioms_random():
    rng = random.Random(3)
    spec = JetSpec(3)
    assert len(spec.weights) >= 6
    for _ in range(1000):
        a, b, c = (rand_jet(rng, spec) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_jet_extract_product_rule():
    rng = random.Random(4)
    for _ in range(50):
        f, g = rand_jet(rng), rand_jet(rng)
        lhs = (f * g).extract(1, 0)
        rhs = f.extract(1, 0) * g.base + f.base * g.extract(1, 0)
        assert lhs == rhs


def test_jet_extract_hand_expanded_quadratic():
    # (2 + 3 e1)(5 - e1) = 10 + 13 e1 - 3 e1^2
    spec = JetSpec(2)
    f = Jet(spec, {(0, 0): Fraction(2), (1, 0): Fraction(3)})
    g = Jet(spec, {(0, 0): Fraction(5), (1, 0): Fraction(-1)})
    h = f * g
    assert h.extract(0, 0) == 10
    assert h.extract(1, 0) == 13
    assert h.extract(2, 0) == -6  # 2! times the stored coefficient -3


def test_jet_extract_constant():
    c = Jet.constant(Fraction(7, 3), JetSpec(2))
    assert c.extract(0, 0) == Fraction(7, 3)
    assert c.extract(1, 0) == 0


def test_order_mismatch_and_truncation_errors():
    a = Jet.constant(Fraction(1), JetSpec(2))
    b = Jet.constant(Fraction(1), JetSpec(1))
    with pytest.raises(OrderMismatchError):
        _ = a + b
    with pytest.raises(TruncationError):
        a.extract(3, 0)


def test_public_constructor_rejects_out_of_ring_keys():
    with pytest.raises(TruncationError):
        Jet(JetSpec(1), {(2,): Fraction(1)})
    with pytest.raises(TruncationError):
        Jet(JetSpec(2), {(1, 1): Fraction(1)})  # weight 3
    assert Jet(JetSpec(2), {(1, 1): 0}) == 0  # zero coefficients are dropped


def test_jet_product_matches_truncated_convolution():
    rng = random.Random(8)
    for w in range(5):
        spec = JetSpec(w)
        for _ in range(5):
            a, b = rand_jet(rng, spec), rand_jet(rng, spec)
            want = {}
            for x, u in a.coeffs.items():
                for y, v in b.coeffs.items():
                    g = tuple(p + q for p, q in zip(x, y))
                    if weight(g) <= w:
                        want[g] = want.get(g, 0) + u * v
            assert a * b == Jet(spec, want)


def test_jet_division_by_unit():
    rng = random.Random(5)
    for _ in range(50):
        a = rand_jet(rng)
        if not a.base:
            continue
        inv = a.inverse()
        assert a * inv == Jet.constant(Fraction(1), a.spec)
    nonunit = Jet(JetSpec(2), {(1, 0): Fraction(1)})
    with pytest.raises(ZeroDivisionError):
        nonunit.inverse()


def test_jet_deriv_shrinks_spec():
    rng = random.Random(6)
    a = rand_jet(rng)
    d = a.deriv(0)
    assert d.spec == JetSpec(1)
    assert d.base == a.extract(1, 0)


def test_weighted_spec_enumeration():
    spec = JetSpec(3)
    alphas = set(spec.weights)
    assert (3, 0, 0) in alphas and (1, 1, 0) in alphas and (0, 0, 1) in alphas
    assert (2, 1, 0) not in alphas  # weight 4


def test_schur_read_off_matches_exponential_oracle():
    # f = exp(sum_l t_l x^l) has c_alpha = prod_d x^{(d+1) alpha_d} / alpha_d!,
    # and sum_j s_j(sign * dtilde) f z^j = (1 - x z)^(-sign) at t = 0
    x = Fraction(-3, 2)
    for w in range(9):
        spec = JetSpec(w)
        coeffs = {}
        for alpha in spec.weights:
            c = Fraction(1)
            for d, a in enumerate(alpha):
                c *= x ** ((d + 1) * a) / factorial(a)
            coeffs[alpha] = c
        f = Jet(spec, coeffs)
        assert f.schur(-1) == [1, -x, 0, 0, 0, 0, 0, 0, 0][:w + 1]
        assert f.schur(+1) == [x ** j for j in range(w + 1)]
