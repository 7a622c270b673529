"""Sparse exact polynomials with rational coefficients: the one exact ring
of the package.

A monomial is a sorted tuple of variables with multiplicity, so any
mutually comparable values serve as variables, and ``diff``, ``variables``
and ``eval`` work for all of them: the chain components u^p as integers p
(``integrability``), the lattice band factors (kind, band, site offset) of
the flow tables ``lax.flow_terms`` reads off the Lax matrix, and the
continuum factors (kind, band, x-derivative order) of their Taylor
expansions.  Every term table of the package is a ``Poly``.  Tables are
cached and shared, so nothing mutates ``terms`` after construction.

``over_lcm`` is the one rule by which every exact kernel of the package
starts: it gives L, the lcm of the inputs' denominators, and each input's
numerator over L; the kernel computes in Python ints at one known scale,
and each value is reduced once, ``Fraction(value, scale)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping

__all__ = ["Poly", "over_lcm"]


Monomial = tuple  # sorted variables with multiplicity

_ZERO = Fraction(0)  # the one default for absent entries; Fractions are immutable


class Poly:
    """Polynomial with exact rational coefficients.

    Monomials are sorted variable tuples with multiplicity: over the chain
    components u^0*u^1 is (0, 1), (u^0)^2 is (0, 0), the constant monomial
    is ().
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    self.terms[tuple(sorted(mono))] = c

    @classmethod
    def _of(cls, terms: dict[Monomial, Fraction]) -> "Poly":
        """A Poly over ``terms`` as they are: sorted monomials, nonzero
        coefficients."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): Fraction(c)})

    @staticmethod
    def u(p: int) -> "Poly":
        return Poly({(p,): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Poly":
        """Sum with a Poly or a scalar (a constant polynomial)."""
        out = dict(self.terms)
        for mono, c in _as_poly(other).terms.items():
            _accumulate(out, mono, c)
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    _accumulate(out, tuple(sorted(m1 + m2)), c1 * c2)
            return Poly._of(out)
        c = Fraction(other)
        return Poly._of({m: cc * c for m, cc in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def diff(self, p) -> "Poly":
        """Exact partial derivative with respect to the variable ``p``."""
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            mult = mono.count(p)
            if not mult:
                continue
            reduced = list(mono)
            reduced.remove(p)
            _accumulate(out, tuple(reduced), c * mult)
        return Poly._of(out)

    def variables(self) -> frozenset:
        return frozenset(p for mono in self.terms for p in mono)

    def eval(self, value_of: Callable[[object], object]):
        """Evaluate with the value ``value_of(p)``, of any numeric type, of
        each variable p."""
        total = None
        for mono, c in self.terms.items():
            term = c
            for p in mono:
                term = term * value_of(p)
            total = term if total is None else total + term
        return _ZERO if total is None else total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            mono_s = "*".join(f"u[{p}]" for p in mono) or "1"
            bits.append(f"{c}*{mono_s}")
        return " + ".join(bits)

    def to_table(self) -> list[list]:
        """JSON-friendly form: [[coeff-string, [indices...]], ...]."""
        return [[str(c), list(m)] for m, c in sorted(self.terms.items())]

    @staticmethod
    def from_table(table: Iterable) -> "Poly":
        """Inverse of ``to_table``; a table of any other shape, with a
        monomial index that is not an int (a bool, float or string is not
        one), or with a coefficient that is not a finite rational, raises
        ValueError."""
        terms: dict[Monomial, Fraction] = {}
        try:
            for coeff, mono in table:
                if any(type(p) is not int for p in mono):
                    raise ValueError(f"the indices {mono!r} are not all integers")
                terms[tuple(sorted(mono))] = Fraction(str(coeff))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad term table {table!r}: need "
                             f"[[coeff, [index, ...]], ...] ({exc})") from exc
        return Poly(terms)


def _accumulate(out: dict[Monomial, Fraction], mono: Monomial, c: Fraction) -> None:
    """out[mono] += c, dropping the entry when the sum is zero; a first
    coefficient is kept as it is, so int coefficients stay ints."""
    s = out[mono] + c if mono in out else c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def _as_poly(x) -> Poly:
    """A Poly as it is, a scalar as the constant polynomial."""
    return x if isinstance(x, Poly) else Poly.const(x)


def over_lcm(values) -> tuple[int, list[int]]:
    """L, the lcm of the denominators of ``values``, and each value's
    numerator over L.  Ints go first (most entries of a band matrix are the
    int 0); a float is taken exactly, as ``Fraction(x)``."""
    parts = [(x, 1) if type(x) is int
             else (x.numerator, x.denominator) if isinstance(x, Fraction)
             else Fraction(x).as_integer_ratio() for x in values]
    common = lcm(*{d for _n, d in parts})
    return common, [n * (common // d) for n, d in parts]
