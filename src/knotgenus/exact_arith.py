"""Exact rational and Laurent polynomial arithmetic.

Rationals are stdlib ``fractions.Fraction`` (always stored reduced with a
positive denominator, which is exactly the invariant we need).  Laurent
polynomials in t, t^-1 carry arbitrary-precision integer coefficients and
are immutable.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Fraction",
    "LaurentPolynomial",
    "laurent_normalize",
    "equal_up_to_units",
]


class LaurentPolynomial:
    """Integer-coefficient Laurent polynomial, stored as {exponent: coeff}.

    Zero coefficients are never stored; the zero polynomial is the empty map.
    Serialized form is a sorted list of "exponent:coefficient" pairs, e.g.
    "-1:1 0:-1 1:1" for t - 1 + t^-1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self._coeffs = {int(e): int(c) for e, c in dict(coeffs).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def t(cls, exp: int = 1) -> "LaurentPolynomial":
        return cls({exp: 1})

    @property
    def coeffs(self) -> dict:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __getitem__(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: c for e, c in self._coeffs.items()})

    def evaluate(self, x):
        """Evaluate at a nonzero rational (or integer) point, exactly."""
        if x == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * Fraction(x) ** e
        return total

    def is_symmetric(self) -> bool:
        """True iff p(t) = p(1/t)."""
        return all(self[-e] == c for e, c in self._coeffs.items())

    def __str__(self):
        if not self._coeffs:
            return "0:0"
        return " ".join(f"{e}:{self._coeffs[e]}" for e in sorted(self._coeffs))

    def __repr__(self):
        return f"LaurentPolynomial({str(self)!r})"

    @classmethod
    def from_string(cls, text: str) -> "LaurentPolynomial":
        coeffs = {}
        for tok in text.split():
            exp, _, coeff = tok.partition(":")
            if not _:
                raise ValueError(f"bad Laurent term {tok!r}")
            e = int(exp)
            if e in coeffs:
                raise ValueError(f"duplicate exponent {e}")
            coeffs[e] = int(coeff)
        return cls(coeffs)


def laurent_normalize(p: LaurentPolynomial) -> LaurentPolynomial:
    """Canonical representative of p under multiplication by units +-t^k.

    Prefers the representative symmetric under t -> 1/t with positive
    coefficient at the top exponent; if no symmetric representative exists,
    shifts the minimal exponent to 0 and makes the constant term positive.
    """
    if p.is_zero():
        raise ValueError("cannot normalize zero")
    lo, hi = p.min_exp(), p.max_exp()
    if (lo + hi) % 2 == 0:
        centered = p.shift(-(lo + hi) // 2)
        if centered.is_symmetric():
            if centered[centered.max_exp()] < 0:
                centered = -centered
            return centered
    q = p.shift(-lo)
    if q[0] < 0:
        q = -q
    return q


def equal_up_to_units(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """True iff p = +-t^k * q for some integer k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return laurent_normalize(p) == laurent_normalize(q)
