import random

import pytest

from knotgenus.exact_arith import (
    Fraction,
    LaurentPolynomial,
    equal_up_to_units,
    laurent_normalize,
)

L = LaurentPolynomial


def test_mul_unit_cancellation():
    assert L.t(1) * L.t(-1) == L.one()


def test_mul_binomial_square():
    p = L({1: 1, 0: -1})  # t - 1
    assert p * p == L({2: 1, 1: -2, 0: 1})


def test_mul_identity():
    p = L({2: 1, 1: -1, 0: 1})
    assert p * L.one() == p


def test_mul_degree_span_adds():
    p = L({3: 2, -1: 5})
    q = L({2: 1, 0: 7, -2: 1})
    r = p * q
    assert r.max_exp() - r.min_exp() == (3 - (-1)) + (2 - (-2))


def test_normalize_unit():
    assert laurent_normalize(L.t(1)) == L.one()
    assert laurent_normalize(L.one()) == L.one()


def test_normalize_to_symmetric():
    p = L({2: -1, 1: 1, 0: -1})  # -t^2 + t - 1
    assert laurent_normalize(p) == L({1: 1, 0: -1, -1: 1})


def test_normalize_zero_errors():
    with pytest.raises(ValueError, match="cannot normalize zero"):
        laurent_normalize(L.zero())


def test_normalize_no_symmetric_representative():
    p = L({1: 1, -1: -1})  # t - 1/t, antisymmetric under inversion
    q = laurent_normalize(p)
    assert q.min_exp() == 0
    assert q[0] > 0


def test_equal_up_to_units_examples():
    assert equal_up_to_units(L.t(1), L.one())
    assert equal_up_to_units(L({1: 1, 0: -1}), L({0: 1, 1: -1}))
    assert not equal_up_to_units(L({2: 1, 1: -1, 0: 1}), L({2: 1, 1: 1, 0: 1}))


def _random_poly(rng, allow_zero=False):
    while True:
        coeffs = {
            rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 5))
        }
        p = L(coeffs)
        if allow_zero or not p.is_zero():
            return p


def test_normalize_idempotent_and_unit_equivalent():
    rng = random.Random(7)
    for _ in range(300):
        p = _random_poly(rng)
        q = laurent_normalize(p)
        assert laurent_normalize(q) == q
        assert equal_up_to_units(p, q)


def test_equal_up_to_units_across_actual_units():
    rng = random.Random(11)
    for _ in range(200):
        p = _random_poly(rng)
        k = rng.randint(-3, 3)
        sign = rng.choice([1, -1])
        assert equal_up_to_units(p, (sign * p).shift(k))


def test_serialization_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        p = _random_poly(rng, allow_zero=True)
        assert L.from_string(str(p)) == p
    assert str(L({-1: 1, 0: -1, 1: 1})) == "-1:1 0:-1 1:1"


def test_fraction_always_reduced():
    rng = random.Random(17)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(1, 50) * rng.choice([1, -1])
        f = Fraction(a, b)
        assert f.denominator > 0
        from math import gcd

        assert gcd(abs(f.numerator), f.denominator) == 1


def test_evaluate_exact():
    p = L({2: 6, 1: -27, 0: 41, -1: -27, -2: 6})
    assert p.evaluate(1) == -1
    assert p.evaluate(-1) == 107
    assert p.evaluate(Fraction(1, 2)) == p.evaluate(2)
