"""Shift-transformation coefficients and their residual identities.

Each transformation relates the family at shift m to the family at shift m+1
with one factor of z; residuals are returned as polynomials so tests can
assert exact zero and diagnostics can point at the failing coefficient.
The coefficients A, B, C, D, xi, eta and the multi-component E, F, G, H are
the tau ratios of the table in :mod:`skewpoly.families`, each set computed
by one function, which a negative control may replace; residuals are summed
in Z (:meth:`TauTable.member_sum`).
"""

from __future__ import annotations

from .families import taus
from .moments import MomentSystem
from .poly import PolyInZ
from .record import Record
from .scalars import exact_div


class SopCoeffs(Record):
    __slots__ = _fields = ("a", "b", "c", "d")


class PsopCoeffs(Record):
    __slots__ = _fields = ("xi", "eta")


class PsopMultiCoeffs(Record):
    __slots__ = _fields = ("e", "f", "g", "h")


def sop_coeffs(sys: MomentSystem, n: int, m: int) -> SopCoeffs:
    t = taus(sys)
    a = exact_div(t.sop_at_zero(2 * n + 1, m), t.sop_at_zero(2 * n, m))
    b = t.ratio([(2 * n + 2, m), (2 * n - 2, m + 1)], [(2 * n, m), (2 * n, m + 1)])
    c = t.ratio([(2 * n, m), (2 * n + 2, m + 1)], [(2 * n + 2, m), (2 * n, m + 1)])
    d = t.dt1_log_tau(2 * n + 2, m)
    return SopCoeffs(a, b, c, d)


def sop_transform_residual(sys: MomentSystem, n: int, m: int):
    """Residual pair of the two skew-orthogonal shift identities at (n, m)."""
    t = taus(sys)
    co = sop_coeffs(sys, n, m)
    res1 = t.member_sum([(1, 0, 2 * n + 1, m), (-co.a, 0, 2 * n, m),
                         (-1, 1, 2 * n, m + 1), (co.b, 1, 2 * n - 2, m + 1)])
    res2 = t.member_sum([(1, 0, 2 * n + 2, m), (-co.c, 0, 2 * n, m),
                         (-1, 1, 2 * n + 1, m + 1), (co.d, 1, 2 * n, m + 1)])
    return res1, res2


def psop_coeffs(sys: MomentSystem, n: int, m: int, k: int = 1) -> PsopCoeffs:
    t = taus(sys)
    return PsopCoeffs(t.xi(n, m, k), t.eta(n, m, k))


def psop_transform_residual(sys: MomentSystem, n: int, m: int, k: int = 1) -> PolyInZ:
    """One-component partial-family residual at unified index n."""
    t = taus(sys)
    co = psop_coeffs(sys, n, m, k)
    return t.member_sum([(1, 0, n + 1, m, k), (co.xi, 0, n, m, k),
                         (-1, 1, n, m + 1, k), (-co.eta, 1, n - 1, m + 1, k)])


def psop_multi_coeffs(sys: MomentSystem, n: int, m: int, k: int) -> PsopMultiCoeffs:
    t = taus(sys)
    odd, odd_up = (2 * n + 1, m, k), (2 * n + 1, m + 1, k)
    return PsopMultiCoeffs(
        t.ratio([(2 * n, m), odd_up], [odd, (2 * n, m + 1)]),
        t.ratio([(2 * n + 2, m), (2 * n - 1, m + 1, k)], [odd, (2 * n, m + 1)]),
        t.ratio([odd, (2 * n + 2, m + 1)], [(2 * n + 2, m), odd_up]),
        t.ratio([(2 * n + 3, m, k), (2 * n, m + 1)], [(2 * n + 2, m), odd_up]))


def psop_multi_residuals(sys: MomentSystem, n: int, m: int, k: int):
    """Residual pair of the two multi-component transform identities."""
    t = taus(sys)
    co = psop_multi_coeffs(sys, n, m, k)
    res1 = t.member_sum([(1, 0, 2 * n + 1, m, k), (co.e, 0, 2 * n, m),
                         (-1, 1, 2 * n, m + 1), (-co.f, 1, 2 * n - 1, m + 1, k)])
    res2 = t.member_sum([(1, 0, 2 * n + 2, m), (co.g, 0, 2 * n + 1, m, k),
                         (-1, 1, 2 * n + 1, m + 1, k), (-co.h, 1, 2 * n, m + 1)])
    return res1, res2


def laurent_toda_residual(sys: MomentSystem, n: int):
    """Under the laurent tag the two transforms close into one family."""
    if sys.constraint != "laurent":
        raise ValueError("toda reduction requires the laurent constraint tag")
    t = taus(sys)
    a_n = t.dt1_log_tau(2 * n, 0)
    a_n1 = t.dt1_log_tau(2 * n + 2, 0)
    b_n = t.toda_b(n)
    res1 = t.member_sum([(1, 0, 2 * n + 1, 0), (-a_n, 0, 2 * n, 0),
                         (-1, 1, 2 * n, 0), (b_n, 1, 2 * n - 2, 0)])
    res2 = t.member_sum([(1, 0, 2 * n + 2, 0), (-1, 0, 2 * n, 0),
                         (-1, 1, 2 * n + 1, 0), (a_n1, 1, 2 * n, 0)])
    return res1, res2


def laurent_lv_coeff_check(sys: MomentSystem, n: int):
    """xi_n + eta_n - 1 for the laurent partial family; exactly 0.  Its
    Lotka-Volterra coefficients are xi_n = K_n and eta_n = J_n at m = 0."""
    if sys.constraint != "laurent":
        raise ValueError("the lattice coefficient check requires the laurent tag")
    t = taus(sys)
    return t.k_coeff(n, 0) + t.j_coeff(n, 0) - 1
