"""Polynomials in the spectral variable z with exact (or jet-valued) coefficients."""

from __future__ import annotations

from .scalars import exact_div


class PolyInZ:
    """Dense polynomial; coefficient ring is whatever the entries support."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def zero() -> "PolyInZ":
        return PolyInZ([])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other):
        if not isinstance(other, PolyInZ):
            other = PolyInZ([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyInZ([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return PolyInZ([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, PolyInZ):
            other = PolyInZ([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyInZ([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return PolyInZ([other]) - self

    def __mul__(self, other):
        if isinstance(other, PolyInZ):
            if not (self and other):
                return PolyInZ([])
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return PolyInZ(out)
        return PolyInZ([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return PolyInZ([other * c for c in self.coeffs])

    def __truediv__(self, scalar):
        return PolyInZ([exact_div(c, scalar) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, PolyInZ):
            other = PolyInZ([other])
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def shift(self, k: int) -> "PolyInZ":
        """Multiply by z**k."""
        if not self:
            return self
        return PolyInZ([0] * k + self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn) -> "PolyInZ":
        return PolyInZ([fn(c) for c in self.coeffs])

    def __repr__(self):
        if not self:
            return "PolyInZ(0)"
        return "PolyInZ([" + ", ".join(str(c) for c in self.coeffs) + "])"
