"""Exact scalars: arbitrary-precision rationals and the quadratic extension Q(w).

Two scalar kinds appear throughout the package:

* plain rationals, represented by ``fractions.Fraction`` (always reduced,
  positive denominator, structural equality), and
* elements ``a + b*w`` of the quadratic extension defined by ``w*w = -w - 1``,
  represented by :class:`Eisenstein`.

The extension field admits no ordering; every predicate in this package is
written against zero tests and exact division only, so both kinds can flow
through the same geometric code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import _digit_limited

__all__ = ["Eisenstein", "W", "Scalar", "as_scalar"]


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@_digit_limited
@dataclass(frozen=True)
class Eisenstein:
    """``a + b*w`` with ``w*w = -w - 1`` (so ``w`` is a primitive cube root of unity).

    ``a`` and ``b`` are exact rationals. The element is zero iff both parts are
    zero, and every nonzero element has an exact inverse because the norm
    ``a*a - a*b + b*b`` is a positive rational for ``(a, b) != (0, 0)``.
    """

    a: Fraction
    b: Fraction

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _to_fraction(a))
        object.__setattr__(self, "b", _to_fraction(b))

    @staticmethod
    def _coerce(other) -> "Eisenstein | None":
        if isinstance(other, Eisenstein):
            return other
        if isinstance(other, (int, Fraction)):
            return Eisenstein(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Eisenstein(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Eisenstein(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Eisenstein(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return Eisenstein(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b w)(c + d w) = ac + (ad + bc) w + bd w^2,  w^2 = -w - 1
        a, b, c, d = self.a, self.b, o.a, o.b
        bd = b * d
        return Eisenstein(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm ``a^2 - ab + b^2``; zero iff the element is zero."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Eisenstein":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero extension-field element")
        # conjugate is a + b w^2 = (a - b) - b w
        return Eisenstein((self.a - self.b) / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # Matches hash(Fraction) for purely rational elements so mixed-key
        # containers stay consistent with __eq__.
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"Eisenstein({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b >= 0:
            return f"{self.a}+{self.b}*w"
        return f"{self.a}-{-self.b}*w"


#: The generator of the extension: w*w == -w - 1, w**3 == 1.
W = Eisenstein(0, 1)

Scalar = Fraction | Eisenstein


def as_scalar(value) -> Scalar:
    """Coerce ints, strings, and Fractions to an exact scalar; pass scalars through."""
    if isinstance(value, Eisenstein):
        return value
    return _to_fraction(value)


def scalar_sort_key(x: Scalar) -> tuple:
    """Structural ordering key, used only to make output orders deterministic.

    This is not a field order (the extension has none); it compares the stored
    rational components.
    """
    if isinstance(x, Eisenstein):
        return (x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator)
    return (x.numerator, x.denominator, 0, 1)
