"""Soliton moment data: exponential nodes whose time dependence realizes
the index-shift rule d/dt_n mu_{i,j} = mu_{i+n,j} + mu_{i,j+n} genuinely.

:class:`SolitonSpec` evaluates the moments at any time in floats (the float
lane: :mod:`skewpoly.dynamics` and the tests' finite differences);
:func:`soliton_system` builds the exact moment system at t = 0, the only
time at which soliton moments are exact.
"""

from __future__ import annotations

from .moments import MomentSystem
from .record import Record


class SolitonSpec(Record):
    """Moment data built from exponential nodes; time enters through theta_a.
    pair_amps holds (a, b, c_ab), node indices a < b; d_amps, per component,
    one amplitude per node."""

    __slots__ = _fields = ("nodes", "pair_amps", "d_amps")
    _defaults = ((), ())

    def _check(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("soliton nodes must be distinct")
        if any(x == 0 for x in self.nodes):
            raise ValueError("soliton nodes must be nonzero")
        for (a, b, _) in self.pair_amps:
            if not (0 <= a < b < len(self.nodes)):
                raise ValueError(f"bad pair ({a},{b})")

    def thetas(self, t) -> list:
        out = []
        for x in self.nodes:
            th = 0.0
            p = 1.0
            for tn in t:
                p *= x
                th += tn * p
            out.append(th)
        return out

    def mu_value(self, i: int, j: int, weights) -> float:
        x = self.nodes
        return sum(c * (x[a] ** i * x[b] ** j - x[b] ** i * x[a] ** j) * weights[a] * weights[b]
                   for a, b, c in self.pair_amps)

    def beta_value(self, k: int, j: int, weights):
        return sum(d * self.nodes[a] ** j * weights[a] for a, d in enumerate(self.d_amps[k - 1]))


def soliton_system(spec: SolitonSpec, t, max_index: int,
                   constraint: str = "none") -> MomentSystem:
    """The exact soliton moments at the time vector t, which must be 0: at
    any other time they hold exponentials (``SolitonSpec.mu_value`` and
    ``beta_value`` evaluate them there, in floats)."""
    if any(tn != 0 for tn in t):
        raise ValueError("exact soliton data exist at t = 0 only")
    weights = [1] * len(spec.nodes)
    mu = {(i, j): spec.mu_value(i, j, weights)
          for i in range(max_index) for j in range(i + 1, max_index + 1)}
    beta = tuple(tuple(spec.beta_value(k, j, weights) for j in range(max_index + 1))
                 for k in range(1, len(spec.d_amps) + 1))
    return MomentSystem(max_index, mu, beta, constraint=constraint)
