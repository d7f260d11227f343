import random

import pytest

from qlat.laurent import LaurentPoly, QFraction, QTElement, poly_gcd


def L(*terms):
    return LaurentPoly.from_terms(terms)


one = LaurentPoly.one()
q = LaurentPoly.q_power(1)


def rand_poly(rng, span=(-3, 4), coeff=4):
    return LaurentPoly.from_terms(
        (k, rng.randint(-coeff, coeff)) for k in range(*span))


def test_product_examples():
    assert (one + q) * (one - q) == L((0, 1), (2, -1))
    assert (LaurentPoly.q_power(-1) + q) * q == L((0, 1), (2, 1))
    qt = QTElement.monomial(1, 1, 1)
    assert qt * qt == QTElement.monomial(1, 2, 0)


def test_canonical_zero():
    z = LaurentPoly(5, (0, 0))
    assert z.is_zero() and z.min_deg == 0 and z.coeffs == ()
    assert L((3, 1), (3, -1)).is_zero()


def test_bar_examples():
    assert L((2, 1), (-1, -3)).bar() == L((-2, 1), (1, -3))
    assert LaurentPoly.from_int(5).bar() == LaurentPoly.from_int(5)
    assert L((0, 1), (2, 2)).bar() == L((0, 1), (-2, 2))


def test_normalize_unit_examples():
    u, n = L((3, -2), (5, 1)).normalize_unit()
    assert u == LaurentPoly.q_power(3, -1)
    assert n == L((0, 2), (2, -1))
    u, n = L((0, 1), (2, 2)).normalize_unit()
    assert u == one and n == L((0, 1), (2, 2))
    u, n = LaurentPoly.q_power(-4).normalize_unit()
    assert u == LaurentPoly.q_power(-4) and n == one
    u, n = LaurentPoly.zero().normalize_unit()
    assert u == one and n.is_zero()


def test_specialize_examples():
    x = QTElement(one, q)  # 1 + q t
    assert x.specialize(t_val=-1) == L((0, 1), (1, -1))
    assert x.specialize(q_val=1, t_val=-1) == 0
    assert QTElement(L((0, 1), (2, 2))).specialize(q_val=1) == QTElement(3)
    assert QTElement(L((0, 1), (2, 2))).specialize(q_val=1, t_val=1) == 3


def test_qt_multiplication_cross_term():
    a = QTElement(one, q)          # 1 + qt
    b = QTElement(q, one)          # q + t
    # (1 + qt)(q + t) = q + q^2 t + t + q = 2q + (1 + q^2) t
    assert a * b == QTElement(L((1, 2)), L((0, 1), (2, 1)))


def test_frac_reduce_examples():
    f = QFraction(L((0, -1), (2, 1)), L((0, -1), (1, 1)))
    assert f.num == one + q and f.den == one
    f = QFraction(LaurentPoly.q_power(1, 2), LaurentPoly.from_int(4))
    assert f.num == q and f.den == LaurentPoly.from_int(2)
    f = QFraction(LaurentPoly.zero(), L((0, 1), (1, 7)))
    assert f.is_zero() and f.den == one


def test_frac_zero_division():
    with pytest.raises(ZeroDivisionError):
        QFraction(one, LaurentPoly.zero())
    with pytest.raises(ZeroDivisionError):
        QFraction(one) / QFraction(LaurentPoly.zero())


def test_frac_field_embeds_ring():
    rng = random.Random(42)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        fa, fb = QFraction(a), QFraction(b)
        assert fa + fb == QFraction(a + b)
        assert fa * fb == QFraction(a * b)
        assert fa - fb == QFraction(a - b)


def test_frac_arithmetic_reduces():
    half = QFraction(one, LaurentPoly.from_int(2))
    assert half + half == QFraction(one)
    third = QFraction(one, LaurentPoly.from_int(3))
    assert third * QFraction(LaurentPoly.from_int(3)) == QFraction(one)
    x = QFraction(q, one + q)
    assert x / x == QFraction(one)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        assert a * one == a and a + LaurentPoly.zero() == a


def test_qt_ring_axioms_randomized():
    rng = random.Random(8)

    def rand_qt():
        return QTElement(rand_poly(rng, (-2, 3), 3), rand_poly(rng, (-2, 3), 3))

    for _ in range(300):
        a, b, c = rand_qt(), rand_qt(), rand_qt()
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * QTElement.one() == a
        # t^2 = 1
        assert a * QTElement.t() * QTElement.t() == a


def test_bar_is_ring_involution():
    rng = random.Random(9)
    for _ in range(300):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
    x = QTElement(rand_poly(rng), rand_poly(rng))
    assert x.bar().bar() == x


def test_normalize_unit_roundtrip_1000():
    rng = random.Random(10)
    for _ in range(1000):
        p = rand_poly(rng)
        u, n = p.normalize_unit()
        assert u * n == p
        if not p.is_zero():
            assert n.min_deg == 0 and n.coeffs[0] > 0
        assert u.unit_value() is not None


def test_gcd_divides_and_is_maximal():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = rand_poly(rng, (0, 3)), rand_poly(rng, (0, 3)), rand_poly(rng, (0, 3))
        if c.is_zero():
            continue
        g = poly_gcd(a * c, b * c)
        if (a * c).is_zero() and (b * c).is_zero():
            continue
        # the common factor c must divide the gcd
        _, cp = c.normalize_unit()
        g.divexact(poly_gcd(cp, g))  # no exception: gcd(cp, g) divides g
        if not (a * c).is_zero():
            (a * c).divexact(g)
        if not (b * c).is_zero():
            (b * c).divexact(g)


def test_divexact_raises_on_inexact():
    with pytest.raises(ValueError):
        (one + q).divexact(LaurentPoly.from_int(2))
    assert (q * q - one).divexact(q - one) == q + one


def test_power_and_unit_inverses():
    p = one + q
    assert p ** 0 == one
    assert p ** 3 == p * p * p
    u = LaurentPoly.q_power(2, -1)
    assert u ** -1 == LaurentPoly.q_power(-2, -1)
    assert u ** -2 == LaurentPoly.q_power(-4)
    with pytest.raises(ValueError):
        (one + q) ** -1


def test_eval_at_rejects_general_points():
    with pytest.raises(ValueError):
        (one + q).eval_at(2)
    assert (one + q).eval_at(-1) == 0


def test_fraction_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QFraction.zero().inverse()


def test_subst_neg_inv():
    assert q.subst_neg_inv() == LaurentPoly.q_power(-1, -1)
    assert L((2, 1)).subst_neg_inv() == LaurentPoly.q_power(-2)
    p = L((-1, 2), (0, 1), (3, -5))
    assert p.subst_neg_inv().subst_neg_inv() == p


def test_subst_q_with_t_twist_is_involution():
    rng = random.Random(12)
    for _ in range(200):
        x = QTElement(rand_poly(rng), rand_poly(rng))
        assert x.subst_q(t_twist=True).subst_q(t_twist=True) == x
        # multiplicative
        y = QTElement(rand_poly(rng), rand_poly(rng))
        assert (x * y).subst_q(t_twist=True) == x.subst_q(t_twist=True) * y.subst_q(t_twist=True)


def test_json_round_trip():
    p = L((-2, 3), (0, -1), (5, 7))
    assert LaurentPoly.from_json(p.to_json()) == p
    assert p.to_json() == {"min_deg": -2, "coeffs": [3, 0, -1, 0, 0, 0, 0, 7]}
    assert LaurentPoly.q_power(1, -1).to_json() == {"min_deg": 1, "coeffs": [-1]}
    assert LaurentPoly.zero().to_json() == {"min_deg": 0, "coeffs": []}
    x = QTElement(p, q)
    assert QTElement.from_json(x.to_json()) == x
