"""Truncated multivariate jets: exact Taylor data along formal time directions.

A :class:`Jet` stores the Taylor coefficients of a quantity along formal
displacement directions eps_1, eps_2, ... (one per time variable t_1, t_2,
...).  The coefficient at multi-index ``alpha`` is the mixed derivative
divided by ``alpha!``, so the jet behaves exactly like the truncated Taylor
polynomial ``sum_alpha c_alpha * eps**alpha``.

Truncation is part of the value.  Direction d stands for t_{d+1} and carries
weight d+1, the weight under which the flows and the Schur and Hirota
operators are homogeneous; ``JetSpec(w)`` keeps every multi-index of weight
<= w.  Binary operations insist on identical specs; use :meth:`Jet.truncate`
to move a value into a smaller ring.

Division is supported only by units (nonzero base coefficient) and is done by
Newton iteration in the truncated ring, which is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod

from .record import Record
from .scalars import scalar_inv


NOT_A_UNIT = "jet with zero base coefficient is not a unit"
_BASE, _D1 = (0,), (1,)  # the multi-indices of JetSpec(1)


class OrderMismatchError(ValueError):
    """Binary operation between jets living in different truncated rings."""


class TruncationError(ValueError):
    """Requested coefficient or derivative lies outside the truncation."""


def weight(alpha) -> int:
    """Weight of a multi-index: direction d counts d+1 per order."""
    return sum((d + 1) * a for d, a in enumerate(alpha))


@cache
def _ring(w: int) -> tuple[dict, dict]:
    """The ring of weight w: each multi-index and its weight, lowest weight
    first; and a + b for every pair (a, b) whose sum stays in the ring."""
    ndir = max(1, w)

    def build(d, budget):
        if d == ndir:
            return [()]
        return [(a,) + rest for a in range(budget // (d + 1) + 1)
                for rest in build(d + 1, budget - a * (d + 1))]
    weights = {a: weight(a) for a in sorted(build(0, w), key=weight)}
    sums = {(a, b): tuple(x + y for x, y in zip(a, b))
            for a, wa in weights.items() for b, wb in weights.items()
            if wa + wb <= w}
    return weights, sums


class JetSpec(Record):
    """The ring of every multi-index of weight <= ``weight``, over
    max(1, weight) directions (no direction beyond that fits); ``zero`` is
    the multi-index of the base point."""

    __slots__ = ("weight", "zero")
    _fields = ("weight",)

    def _check(self):
        if self.weight < 0:
            raise ValueError("jet weight must be nonnegative")
        object.__setattr__(self, "zero", (0,) * self.ndir)

    def __eq__(self, other):  # every binary jet operation compares specs
        return self is other or type(other) is JetSpec and other.weight == self.weight

    def __hash__(self):
        return hash(self.weight)

    @property
    def ndir(self) -> int:
        return max(1, self.weight)

    @property
    def weights(self) -> dict:
        """Every admissible multi-index and its weight, lowest weight first."""
        return _ring(self.weight)[0]


J1, J2 = JetSpec(1), JetSpec(2)  # the rings of the catalog's t_1 and t_2 data


class Jet:
    """Element of the truncated jet ring over an exact (or float) scalar ring."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: JetSpec, coeffs: dict):
        self.spec = spec
        self.coeffs = {a: v for a, v in coeffs.items() if v}
        for a in self.coeffs:
            if a not in spec.weights:
                raise TruncationError(f"coefficient index {a} outside truncation {spec}")

    @classmethod
    def _of(cls, spec: JetSpec, coeffs: dict) -> "Jet":
        """Constructor for ring operations, whose keys are in the ring already."""
        jet = object.__new__(cls)
        jet.spec, jet.coeffs = spec, {a: v for a, v in coeffs.items() if v}
        return jet

    @staticmethod
    def constant(value, spec: JetSpec) -> "Jet":
        return Jet._of(spec, {spec.zero: value})

    @staticmethod
    def first_order(value, slope) -> "Jet":
        """The ``JetSpec(1)`` jet of a value and its t_1 derivative."""
        return Jet._of(J1, {_BASE: value, _D1: slope})

    @staticmethod
    def of_derivatives(spec: JetSpec, derivs: dict) -> "Jet":
        """The jet whose mixed derivative of each order (as :meth:`extract`
        takes it) is derivs[order], divided by order! once (exactly, unless
        it is a float); orders outside the ring are dropped."""
        coeffs = {}
        for order, v in derivs.items():
            if weight(order) <= spec.weight:
                f = prod(map(factorial, order))
                coeffs[(*order, *spec.zero)[:spec.ndir]] = (
                    v if f == 1 else v / f if isinstance(v, float) else Fraction(1, f) * v)
        return Jet._of(spec, coeffs)

    def map(self, fn) -> "Jet":
        """The jet of fn applied to each coefficient."""
        return Jet._of(self.spec, {a: fn(v) for a, v in self.coeffs.items()})

    @property
    def base(self):
        return self.coeffs.get(self.spec.zero, 0)

    @property
    def slope(self):
        """The t_1 derivative at the base point of a ``JetSpec(1)`` jet."""
        return self.coeffs.get(_D1, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations -------------------------------------------------

    def _check(self, other: "Jet") -> None:
        if self.spec != other.spec:
            raise OrderMismatchError(f"jet specs differ: {self.spec} vs {other.spec}")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self + Jet.constant(other, self.spec)
        self._check(other)
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = out.get(a, 0) + v
        return Jet._of(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(self.spec, {a: -v for a, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self - Jet.constant(other, self.spec)
        self._check(other)
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = out.get(a, 0) - v
        return Jet._of(self.spec, out)

    def __rsub__(self, other):
        return Jet.constant(other, self.spec) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet._of(self.spec, {a: v * other for a, v in self.coeffs.items()})
        self._check(other)
        x, y = self.coeffs, other.coeffs
        if len(x) == len(y) == 2 and self.spec.weight == 1:  # both full first-order jets
            x0, y0 = x[_BASE], y[_BASE]
            return Jet._of(self.spec, {_BASE: x0 * y0, _D1: x0 * y[_D1] + x[_D1] * y0})
        sums = _ring(self.spec.weight)[1]
        right = other.coeffs.items()
        out: dict = {}
        for a, va in self.coeffs.items():
            for b, vb in right:
                g = sums.get((a, b))
                if g is not None:
                    out[g] = out.get(g, 0) + va * vb
        return Jet._of(self.spec, out)

    def __rmul__(self, other):
        return Jet._of(self.spec, {a: other * v for a, v in self.coeffs.items()})

    def inverse(self) -> "Jet":
        """Multiplicative inverse; requires a unit (nonzero base coefficient)."""
        b = self.base
        if not b:
            raise ZeroDivisionError(NOT_A_UNIT)
        x = Jet.constant(scalar_inv(b), self.spec)
        # each Newton pass doubles the weight below which x is exact
        for _ in range(max(1, self.spec.weight).bit_length()):
            x = x * (2 - self * x)
        return x

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        return Jet._of(self.spec, {a: v / other for a, v in self.coeffs.items()})

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.spec == other.spec and self.coeffs == other.coeffs
        return self.coeffs == Jet.constant(other, self.spec).coeffs

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        terms = ", ".join(f"{a}: {v}" for a, v in sorted(self.coeffs.items()))
        return f"Jet({self.spec.weight}, {{{terms}}})"

    # -- calculus ---------------------------------------------------------

    def extract(self, *alpha: int):
        """Mixed derivative value: alpha! times the stored coefficient.
        Directions past the ring's own may be given, as zeros."""
        spec = self.spec
        if min(alpha, default=0) < 0 or weight(alpha) > spec.weight:
            raise TruncationError(f"derivative order {alpha} outside {spec}")
        alpha = (alpha + (0,) * spec.ndir)[:spec.ndir]
        return self.coeffs.get(alpha, 0) * prod(map(factorial, alpha))

    def deriv(self, direction: int) -> "Jet":
        """d/dt_{direction+1}; the result lives in the ring of weight
        ``weight - direction - 1``."""
        low = self.spec.weight - direction - 1
        if direction < 0 or low < 0:
            raise TruncationError(f"no room to differentiate direction {direction}")
        spec = JetSpec(low)
        out: dict = {}
        for a, v in self.coeffs.items():
            if a[direction]:
                b = list(a)
                b[direction] -= 1
                out[tuple(b[:spec.ndir])] = v * a[direction]
        return Jet(spec, out)

    def truncate(self, spec: JetSpec) -> "Jet":
        """Project into a ring of no larger weight (drop heavier coefficients)."""
        if spec.weight > self.spec.weight:
            raise TruncationError(f"cannot widen {self.spec} to {spec}")
        weights = self.spec.weights
        return Jet(spec, {a[:spec.ndir]: v for a, v in self.coeffs.items()
                          if weights[a] <= spec.weight})

    def reflect(self) -> "Jet":
        """The jet at -eps: the coefficient at alpha picks up (-1)^|alpha|."""
        return Jet._of(self.spec, {a: (-v if sum(a) % 2 else v)
                                   for a, v in self.coeffs.items()})

    def schur(self, sign: int = -1) -> list:
        """[s_0, ..., s_w](sign * dtilde) f at the base point, w the ring weight.

        With dtilde = (d/dt_1, d/dt_2 / 2, ...), the generating series
        sum_j s_j(sign * dtilde) z^j = exp(sign * sum_l z^l d/dt_l / l) is
        the Miwa shift t_l -> t_l + sign z^l / l, so s_j(sign * dtilde) f is
        sum over weight(alpha) = j of c_alpha prod_d (sign / (d+1))^alpha_d.
        """
        out = [0] * (self.spec.weight + 1)
        for a, v in self.coeffs.items():
            scale = Fraction(1)
            for d, p in enumerate(a):
                if p:
                    scale *= Fraction(sign, d + 1) ** p
            j = self.spec.weights[a]
            out[j] = out[j] + scale * v
        return out
