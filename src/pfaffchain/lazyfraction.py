"""Unreduced exact rationals: the scalar of every exact kernel.

A ``LazyFraction`` is an integer numerator over a positive integer
denominator that no operation reduces.  ``fractions.Fraction`` pays one or
two gcds on every operation; here a value is reduced once, by
``fraction()``, where it leaves the kernel (a report string, a max over
residuals, a public return value).  Sums keep denominators small by one
rule: when one denominator divides the other, the larger one is reused,
otherwise the two are multiplied.  Every exact kernel starts from values
over one denominator L (``over_lcm``: ``integrability``'s points, and the
exact table flows and integer commutator matrices of ``lax``), so every
product carries a power of L and every sum reuses the larger power:
denominators grow with the degree of an expression, not its term count.

Exact zero means numerator 0, whatever the denominator.  Operands of + - * /
may be ints, Fractions or LazyFractions on either side; dividing by a zero
value raises ZeroDivisionError.  Only == compares: ordering and hashing
need the reduced value, so they are left to ``fraction()``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["LazyFraction", "lazy", "over_lcm"]


class LazyFraction:
    """n / d with d > 0, never reduced by arithmetic."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1):
        self.n = n
        self.d = d

    def fraction(self) -> Fraction:
        """The value as a reduced Fraction (the one gcd)."""
        return Fraction(self.n, self.d)

    def __bool__(self) -> bool:
        return self.n != 0

    def __neg__(self) -> "LazyFraction":
        return LazyFraction(-self.n, self.d)

    def __add__(self, other):
        if type(other) is LazyFraction:
            return _sum(self.n, self.d, other.n, other.d)
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(self.n, self.d, parts[0], parts[1])

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is LazyFraction:
            return _sum(self.n, self.d, -other.n, other.d)
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(self.n, self.d, -parts[0], parts[1])

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _sum(parts[0], parts[1], -self.n, self.d)

    def __mul__(self, other):
        if type(other) is LazyFraction:
            return LazyFraction(self.n * other.n, self.d * other.d)
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return LazyFraction(self.n * parts[0], self.d * parts[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _quotient(self.n, self.d, parts[0], parts[1])

    def __rtruediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _quotient(parts[0], parts[1], self.n, self.d)

    def __pow__(self, k: int) -> "LazyFraction":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return 1 / self ** -k
        return LazyFraction(self.n ** k, self.d ** k)

    def __eq__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self.n * parts[1] == parts[0] * self.d  # both denominators > 0

    __hash__ = None

    def __str__(self) -> str:
        return str(self.fraction())

    def __repr__(self) -> str:
        return f"LazyFraction({self.n}, {self.d})"


def _parts(x) -> tuple[int, int] | None:
    """(numerator, positive denominator) of an exact operand, else None."""
    if type(x) is LazyFraction:
        return x.n, x.d
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


def _sum(an: int, ad: int, bn: int, bd: int) -> LazyFraction:
    if ad == bd:
        return LazyFraction(an + bn, ad)
    if not bn:
        return LazyFraction(an, ad)
    if not an:
        return LazyFraction(bn, bd)
    if ad > bd:
        if not ad % bd:
            return LazyFraction(an + bn * (ad // bd), ad)
    elif not bd % ad:
        return LazyFraction(an * (bd // ad) + bn, bd)
    return LazyFraction(an * bd + bn * ad, ad * bd)


def _quotient(an: int, ad: int, bn: int, bd: int) -> LazyFraction:
    if not bn:
        raise ZeroDivisionError(f"LazyFraction({an}, {ad}) / 0")
    if bn < 0:
        return LazyFraction(-an * bd, ad * -bn)
    return LazyFraction(an * bd, ad * bn)


def lazy(x) -> LazyFraction:
    """An int, Fraction or LazyFraction as a LazyFraction."""
    parts = _parts(x)
    if parts is None:
        raise TypeError(f"not an exact rational: {x!r}")
    return x if type(x) is LazyFraction else LazyFraction(*parts)


def over_lcm(values, denominator: int = 1) -> tuple[int, list[int]]:
    """L, the lcm of ``denominator`` and the denominators of ``values``, and
    each value's numerator over L.  Ints go first (most entries of a band
    matrix are the int 0); a float is taken exactly, as ``Fraction(x)``."""
    parts = [(x, 1) if type(x) is int else _parts(x) or _parts(Fraction(x)) for x in values]
    common = lcm(denominator, *{d for _n, d in parts})
    return common, [n * (common // d) for n, d in parts]
