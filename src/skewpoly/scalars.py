"""Exact scalar arithmetic: rationals, Gaussian rationals, parsing and formatting.

Every quantity in the exact verification pipeline is either a ``Fraction``
(rational mode) or a :class:`GaussianRational` (complex mode); no moment
system holds a float (only the dynamics module computes in floats).  Inside
the Pfaffian kernel a Gaussian integer is a :class:`GaussianRational` with
int parts; public values hold Fraction parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class GaussianRational:
    """Number re + im i with exact parts: Fractions in public values, ints
    for the Pfaffian kernel's Gaussian integers (``pfaffian._z`` makes them,
    ``pfaffian._q`` turns them back into Fractions).  Two slots and no
    checks: a product costs four part products and an int mixes in without
    a coercion; a Fraction turns int parts into Fractions, and a quotient
    always has Fraction parts.  No order and no ``abs``."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):  # a zero part of x's own type
            return GaussianRational(x, 0 * x)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re + other.re, self.im + other.im)
        if type(other) is int:
            return GaussianRational(self.re + other, self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re - other.re, self.im - other.im)
        if type(other) is int:
            return GaussianRational(self.re - other, self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        if type(other) is int:
            return GaussianRational(other - self.re, -self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is GaussianRational:
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussianRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = Fraction(o.norm())
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


Scalar = Union[int, Fraction, GaussianRational]


def scalar_inv(x):
    return Fraction(1) / x


def exact_div(a, b):
    """Division that never silently degrades int/int to float."""
    if isinstance(a, int):
        a = Fraction(a)
    return a / b


def format_scalar(x) -> str:
    """Render a scalar as a decimal-free string, e.g. ``-3/7`` or ``1/2+5i``."""
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return _format_fraction(x.re)
        re = _format_fraction(x.re)
        im = _format_fraction(x.im)
        sign = "+" if x.im >= 0 else "-"
        return f"{re}{sign}{im.lstrip('-')}i"
    if isinstance(x, (int, Fraction)):
        return _format_fraction(Fraction(x))
    raise TypeError(f"cannot serialize scalar of type {type(x).__name__}")


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_scalar(s: str) -> Scalar:
    """Inverse of :func:`format_scalar`; returns Fraction or GaussianRational."""
    s = s.strip().replace(" ", "")
    if s.endswith("i"):
        body = s[:-1]
        # split the imaginary part off at the last +/- that is not a leading sign
        # and not part of a fraction like 3/-4 (we never emit those)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_part, im_part = body[:pos], body[pos:]
                return GaussianRational(Fraction(re_part), Fraction(_signed(im_part)))
        return GaussianRational(Fraction(0), Fraction(_signed(body)))
    return Fraction(s)


def _signed(s: str) -> str:
    if s in ("+", "-"):
        return s + "1"
    if s.startswith("+"):
        return s[1:]
    return s
