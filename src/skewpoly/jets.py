"""Truncated multivariate jets: exact Taylor data along formal time directions.

A :class:`Jet` stores the Taylor coefficients of a quantity along formal
displacement directions eps_1, eps_2, ... (one per time variable t_1, t_2,
...).  The coefficient at multi-index ``alpha`` is the mixed derivative
divided by ``alpha!``, so the jet behaves exactly like the truncated Taylor
polynomial ``sum_alpha c_alpha * eps**alpha``.

Truncation is part of the value: a :class:`JetSpec` fixes per-direction order
caps and an optional total weight cap, where direction d carries weight d+1
(the index of the time variable it represents).  Binary operations insist on
identical specs; use :meth:`Jet.truncate` to move a value into a smaller ring.

Division is supported only by units (nonzero base coefficient) and is done by
Newton iteration in the truncated ring, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .scalars import scalar_inv


class OrderMismatchError(ValueError):
    """Binary operation between jets living in different truncated rings."""


class TruncationError(ValueError):
    """Requested coefficient or derivative lies outside the truncation."""


@dataclass(frozen=True)
class JetSpec:
    """Truncation of the jet ring: per-direction caps plus optional weight cap."""

    orders: tuple[int, ...]
    weight_cap: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(o) for o in self.orders))
        if any(o < 0 for o in self.orders):
            raise ValueError("orders must be nonnegative")

    @property
    def ndir(self) -> int:
        return len(self.orders)

    def weight(self, alpha: tuple[int, ...]) -> int:
        return sum((d + 1) * a for d, a in enumerate(alpha))

    def admits(self, alpha: tuple[int, ...]) -> bool:
        if len(alpha) != len(self.orders):
            return False
        if any(a < 0 or a > o for a, o in zip(alpha, self.orders)):
            return False
        if self.weight_cap is not None and self.weight(alpha) > self.weight_cap:
            return False
        return True

    def zero_alpha(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def alphas(self):
        """All admissible multi-indices, in no particular order."""
        out = [()]
        for o in self.orders:
            out = [a + (p,) for a in out for p in range(o + 1)]
        for a in out:
            if self.weight_cap is None or self.weight(a) <= self.weight_cap:
                yield a


DEFAULT_JET_SPEC = JetSpec((2, 1))


def schur_jet_spec(weight: int) -> JetSpec:
    """Ring big enough to hold every mixed derivative of total weight <= weight.

    Direction d (for t_{d+1}) is capped at weight // (d+1); the weight cap
    prunes everything else.  Used for Schur-operator evaluations up to s_k
    with weight = k (+1 more when a t_1 derivative of the result is needed).
    """
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    ndir = max(1, weight)
    return JetSpec(tuple(weight // (d + 1) for d in range(ndir)), weight_cap=weight)


class Jet:
    """Element of the truncated jet ring over an exact (or float) scalar ring."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: JetSpec, coeffs: dict):
        self.spec = spec
        self.coeffs = {a: v for a, v in coeffs.items() if not _is_zero(v)}
        for a in self.coeffs:
            if not spec.admits(a):
                raise TruncationError(f"coefficient index {a} outside truncation {spec}")

    @staticmethod
    def constant(value, spec: JetSpec = DEFAULT_JET_SPEC) -> "Jet":
        return Jet(spec, {spec.zero_alpha(): value})

    @property
    def base(self):
        return self.coeffs.get(self.spec.zero_alpha(), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

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
        return Jet(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.spec, {a: -v for a, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self - Jet.constant(other, self.spec)
        self._check(other)
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = out.get(a, 0) - v
        return Jet(self.spec, out)

    def __rsub__(self, other):
        return Jet.constant(other, self.spec) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.spec, {a: v * other for a, v in self.coeffs.items()})
        self._check(other)
        spec = self.spec
        admits = spec.admits
        out: dict = {}
        for a, va in self.coeffs.items():
            for b, vb in other.coeffs.items():
                g = tuple(x + y for x, y in zip(a, b))
                if not admits(g):
                    continue
                out[g] = out.get(g, 0) + va * vb
        return Jet(spec, out)

    def __rmul__(self, other):
        return Jet(self.spec, {a: other * v for a, v in self.coeffs.items()})

    def inverse(self) -> "Jet":
        """Multiplicative inverse; requires a unit (nonzero base coefficient)."""
        b = self.base
        if _is_zero(b):
            raise ZeroDivisionError("jet with zero base coefficient is not a unit")
        x = Jet.constant(scalar_inv(b), self.spec)
        # Newton doubles the correct order each pass
        max_weight = self.spec.weight_cap
        if max_weight is None:
            max_weight = sum((d + 1) * o for d, o in enumerate(self.spec.orders))
        passes = max(1, max_weight).bit_length() + 1
        for _ in range(passes):
            x = x * (2 - self * x)
        return x

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        return Jet(self.spec, {a: v / other for a, v in self.coeffs.items()})

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
        return f"Jet({self.spec.orders}, {{{terms}}})"

    # -- calculus ---------------------------------------------------------

    def extract(self, *alpha: int):
        """Mixed derivative value: alpha! times the stored coefficient."""
        alpha = tuple(alpha) + (0,) * (self.spec.ndir - len(alpha))
        if not self.spec.admits(alpha):
            raise TruncationError(f"derivative order {alpha} outside truncation")
        c = self.coeffs.get(alpha, 0)
        scale = 1
        for a in alpha:
            scale *= factorial(a)
        return c * scale

    def deriv(self, direction: int) -> "Jet":
        """d/dt_{direction+1}; the result lives one order lower in that direction."""
        spec = self.spec
        if spec.orders[direction] == 0:
            raise TruncationError(f"no room to differentiate direction {direction}")
        new_orders = list(spec.orders)
        new_orders[direction] -= 1
        new_cap = spec.weight_cap
        if new_cap is not None:
            new_cap -= direction + 1
        new_spec = JetSpec(tuple(new_orders), new_cap)
        out: dict = {}
        for a, v in self.coeffs.items():
            if a[direction] == 0:
                continue
            b = list(a)
            b[direction] -= 1
            b = tuple(b)
            if new_spec.admits(b):
                out[b] = v * (a[direction])
        return Jet(new_spec, out)

    def truncate(self, spec: JetSpec) -> "Jet":
        """Project into a smaller ring (drop coefficients outside spec)."""
        return Jet(spec, {a[: spec.ndir]: v
                          for a, v in self.coeffs.items()
                          if all(x == 0 for x in a[spec.ndir:]) and spec.admits(a[: spec.ndir])})


def _is_zero(v) -> bool:
    return not v

