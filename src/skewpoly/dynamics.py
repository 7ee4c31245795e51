"""Float lattice dynamics: tau-derived trajectories versus direct integration.

Soliton moment data depends on time through exponentials, and its index-shift
structure makes the tau-derived lattice variables

    B_n = tau_{2n-2} tau_{2n+2} / tau_{2n}^2,   C_n = A_{n+1} - A_n,
    A_n = d/dt_1 log tau_{2n}

exact solutions of the lattice flow dB_n = B_n (C_n - C_{n-1}),
dC_n = B_{n+1} - B_n whenever the node set is closed under inversion (the
moment table is then Toeplitz at every time).  This module evaluates those
trajectories in double precision and cross-validates them against a classical
fixed-step fourth-order integration of the flow with tau-derived boundary
forcing evaluated at the stage times.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .moments import SolitonSpec
from .record import Record


class TauCollisionError(ArithmeticError):
    """A tau value vanished (or lost all precision) along the trajectory."""


class PairTauEvaluator:
    """Tau chain of a disjoint-pair soliton spec, free of cancellation.

    The moment Pfaffian of pair-supported data expands over unions of whole
    pairs; each subset contributes (product of pair amplitudes) x (a fixed
    node determinant) x exp(sum of pair rates times t).  The determinants are
    time independent and precomputed, so every tau value is a short
    exponential sum whose terms all carry the sign of the determinant
    pattern.  This is what keeps deep tau values (which decay far below the
    entry scale) accurate in doubles; eliminating the rebuilt moment matrix
    loses them entirely.
    """

    def __init__(self, spec: SolitonSpec, k_max: int):
        pairs = []
        used = set()
        for (a, b, c) in spec.pair_amps:
            if a in used or b in used:
                raise ValueError("pair-subset evaluation needs disjoint pairs")
            used.update((a, b))
            pairs.append((a, b, float(c)))
        self.levels = []
        nodes = [float(x) for x in spec.nodes]
        for k in range(1, k_max + 1):
            terms = []
            for subset in combinations(pairs, k):
                idx = sorted(i for (a, b, _) in subset for i in (a, b))
                xs = [nodes[i] for i in idx]
                det = math.prod(xs[v] - xs[u] for u in range(len(xs))
                                for v in range(u + 1, len(xs)))
                amp = math.prod(c for _, _, c in subset)
                terms.append((amp * det, sum(nodes[a] + nodes[b] for a, b, _ in subset)))
            self.levels.append(terms)

    def chain(self, t1: float):
        """tau_0..tau_{2 k_max} and their t_1 derivatives at time (t1,)."""
        vals, ders = [1.0], [0.0]
        for terms in self.levels:
            ws = [(coeff * math.exp(rate * t1), rate) for coeff, rate in terms]
            vals.append(sum(w for w, _ in ws))
            ders.append(sum(w * rate for w, rate in ws))
        return vals, ders


def lattice_state(spec_or_eval, t1: float, n_hi: int):
    """B_1..B_{n_hi+1} and C_0..C_{n_hi} at time t1 from tau values."""
    ev = spec_or_eval
    if isinstance(ev, SolitonSpec):
        ev = PairTauEvaluator(ev, n_hi + 2)
    vals, ders = ev.chain(t1)
    for n, v in enumerate(vals):
        if not math.isfinite(v) or v == 0.0:
            raise TauCollisionError(f"tau_{2 * n} vanished at t={t1}")
    b = [vals[n - 1] * vals[n + 1] / vals[n] ** 2 for n in range(1, n_hi + 2)]
    a = [ders[n] / vals[n] for n in range(n_hi + 2)]
    c = [a[n + 1] - a[n] for n in range(n_hi + 1)]
    return b, c


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


class Trajectory(Record):
    """Uniform-grid lattice trajectory from time ``t0`` in steps ``dt`` over
    ``window`` = (n_lo, n_hi): arrays ``b`` of B on sites n_lo..n_hi, shape
    (steps+1, n_hi - n_lo + 1), and ``c`` of C on n_lo-1..n_hi, one column more."""

    __slots__ = _fields = ("t0", "dt", "window", "b", "c")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.b.shape[0])

    def to_csv(self, path) -> None:
        n_lo, n_hi = self.window
        with open(path, "w") as fh:
            fh.write("t,site,B,C\n")
            for row, t in enumerate(self.times):
                for col, site in enumerate(range(n_lo, n_hi + 1)):
                    fh.write(f"{float(t)!r},{site},{float(self.b[row, col])!r},"
                             f"{float(self.c[row, col + 1])!r}\n")


def tau_trajectory(spec: SolitonSpec, window: tuple, t0: float, dt: float,
                   steps: int) -> Trajectory:
    """Exact-in-form lattice variables sampled on a uniform grid."""
    n_lo, n_hi = _check_window(window)
    ev = PairTauEvaluator(spec, n_hi + 2)
    b_rows, c_rows = [], []
    for k in range(steps + 1):
        b, c = lattice_state(ev, t0 + k * dt, n_hi)
        b_rows.append(b[n_lo - 1:n_hi])
        c_rows.append(c[n_lo - 1:n_hi + 1])
    return Trajectory(t0, dt, (n_lo, n_hi), np.array(b_rows), np.array(c_rows))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state raises below
def rk4_toda(spec: SolitonSpec, window: tuple, t0: float, dt: float,
             steps: int) -> Trajectory:
    """Classical one-step fourth-order integration of the lattice flow.

    State: B_n (n_lo..n_hi) and C_n (n_lo-1..n_hi), started from the tau
    formulas (:func:`lattice_state`) at t0.  The window-edge neighbors
    B_{n_lo-1}(t) and B_{n_hi+1}(t) are not evolved; they are supplied from
    the tau formulas at each stage time (B_0 is identically zero when the
    window starts at site 1).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_lo, n_hi = _check_window(window)
    nb = n_hi - n_lo + 1
    if nb < 3:
        raise ValueError("window must span at least 3 sites")
    ev = PairTauEvaluator(spec, n_hi + 2)

    def rhs(t, y):
        b = y[:nb]
        c = y[nb:]
        b_edge, _ = lattice_state(ev, t, n_hi)
        b_ext = np.concatenate(([0.0 if n_lo == 1 else b_edge[n_lo - 2]], b, [b_edge[n_hi]]))
        db = b * (c[1:] - c[:-1])
        dc = b_ext[1:] - b_ext[:-1]
        return np.concatenate((db, dc))

    b0, c0 = lattice_state(ev, t0, n_hi)
    y = np.array(b0[n_lo - 1:n_hi] + c0[n_lo - 1:n_hi + 1], dtype=float)
    b_rows, c_rows = [y[:nb].copy()], [y[nb:].copy()]
    for k in range(steps):
        t = t0 + k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise ArithmeticError(f"non-finite state at step {k + 1}")
        b_rows.append(y[:nb].copy())
        c_rows.append(y[nb:].copy())
    return Trajectory(t0, dt, (n_lo, n_hi), np.array(b_rows), np.array(c_rows))


def _check_window(window) -> tuple:
    n_lo, n_hi = window
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("window sites must satisfy 1 <= n_lo <= n_hi")
    return n_lo, n_hi


def compare(a: Trajectory, b: Trajectory) -> dict:
    """Max-abs deviation of B (and C) plus per-site profiles."""
    if (a.window != b.window or a.b.shape != b.b.shape
            or a.t0 != b.t0 or a.dt != b.dt):
        raise ValueError("trajectories live on different grids or windows")
    db = np.abs(a.b - b.b)
    dc = np.abs(a.c - b.c)
    return {
        "max_dev_b": float(db.max()),
        "max_dev_c": float(dc.max()),
        "per_site_b": {site: float(db[:, i].max())
                       for i, site in enumerate(range(a.window[0], a.window[1] + 1))},
    }


def convergence_order(spec: SolitonSpec, window: tuple, t0: float, t_end: float,
                      dts) -> tuple:
    """Observed order from the error scaling under step halving; an exactly
    zero error leaves it undefined and raises ``ArithmeticError``."""
    errs = []
    for dt in dts:
        steps = round((t_end - t0) / dt)
        ref = tau_trajectory(spec, window, t0, dt, steps)
        run = rk4_toda(spec, window, t0, dt, steps)
        errs.append(compare(ref, run)["max_dev_b"])
    if not all(errs):
        raise ArithmeticError(f"convergence order undefined: errors {errs} hold an exact 0")
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return sum(orders) / len(orders), errs


def reciprocal_pair_spec(rates, amps) -> SolitonSpec:
    """Soliton data whose node set is closed under x -> 1/x.

    Each pair (x, 1/x) keeps the moment table Toeplitz at all times, which is
    what makes the lattice flow hold along the trajectory.  Positive rates
    and amplitudes keep every tau strictly positive.
    """
    if len(rates) != len(amps):
        raise ValueError("need one amplitude per pair")
    nodes = []
    pair_amps = []
    for idx, (x, c) in enumerate(zip(rates, amps)):
        if x <= 0 or x == 1:
            raise ValueError("pair rates must be positive and different from 1")
        nodes.extend([float(x), 1.0 / float(x)])
        pair_amps.append((2 * idx, 2 * idx + 1, float(c)))
    return SolitonSpec(tuple(nodes), tuple(pair_amps))


def two_soliton_demo_spec() -> SolitonSpec:
    """Two fast excitations crossing a graded background inside t in [0,1];
    six reciprocal pairs support tau values through index twelve, enough for
    a four-site window with forced right edge."""
    rates = [8.0, 4.5, 2.8, 2.0, 1.5, 1.25]
    amps = [0.05, 0.3, 0.7, 1.2, 2.0, 3.0]
    return reciprocal_pair_spec(rates, amps)
