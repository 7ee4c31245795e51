"""Schur polynomials, Hirota operators, and the jet-valued evaluators of the
bilinear identity catalog (:mod:`skewpoly.bilinear`, which names each
evaluator here by its module and loads this module when one runs).

Everything here is exact: time derivatives of tau functions come from the
index-shift rule lifted into jets, never from finite differences.

Schur-operator conventions: with dtilde = (d/dt_1, d/dt_2 / 2, d/dt_3 / 3,
...), s_k(-dtilde) is the Schur polynomial s_k(t) at t_l -> -(d/dt_l) / l,
and sum_k s_k(-dtilde) z^k is the Miwa shift t -> t - [z].  Shifted moments
are polynomials in z, so s_k(-dtilde) tau_idx is the z^k coefficient of a
Pfaffian of degree <= idx in z (:class:`SchurTau`); a weight-k jet gives the
same value by :meth:`skewpoly.jets.Jet.schur`, the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .families import TauTable, taus
from .jets import Jet, JetSpec, weight
from .moments import MomentSystem
from .poly import PolyInZ
from .scalars import exact_div


def schur(k: int, t) -> object:
    """Coefficient of z^k in exp(sum t_l z^l); t may be shorter than k."""
    if k < 0:
        raise ValueError("schur index must be nonnegative")
    t = list(t)
    s = [Fraction(1)]
    for j in range(1, k + 1):
        acc = 0
        for l in range(1, j + 1):
            tl = t[l - 1] if l <= len(t) else 0
            if tl:
                acc = acc + l * tl * s[j - l]
        s.append(exact_div(acc, j))
    return s[k]


# ---------------------------------------------------------------------------
# Schur operators acting on tau functions
# ---------------------------------------------------------------------------


class SchurTau:
    """s_j(-dtilde) tau_idx^{(m)} and its t_1 derivative for every j.

    They are the z^j coefficients of tau(t - [z]) (the Miwa identity), and
    tau_idx(t - [z]) is the Pfaffian of the shifted entries
    (:meth:`skewpoly.pfaffian.MomentKernel.shifted`), of degree <= idx in
    z; the table builds and keeps both polynomials, evaluated with the t_1
    derivative at the nodes z = 0..idx (or further) of one Miwa chain per
    (m, k, conj, parity) and interpolated exactly
    (:meth:`skewpoly.families.TauTable.schur_layers`).

    These values and the coefficients of the family member, read off its
    spectral ``z`` column, are two independent constructions of P_n(z) =
    z^n tau_n(t - [1/z]) / tau_n(t) (M. Adler, E. Horozov, P. van Moerbeke,
    "The Pfaff lattice and skew-orthogonal polynomials", IMRN 1999; M.
    Adler, P. van Moerbeke, "Toda versus Pfaff lattice and related
    polynomials", Duke Math. J. 112, 2002), which ``SCHUR_COEFF`` equates:
    neither may be derived from the other.
    """

    def __init__(self, table: TauTable, idx: int, m: int, k: int = 1,
                 conj: bool = False):
        self.values, self.d1s = table.schur_layers(idx, m, k, conj)

    def value(self, j: int):
        """s_j(-dtilde) tau; zero for negative j and for j above idx."""
        return self.values.coeff(j)

    def d1(self, j: int):
        """d/dt_1 of s_j(-dtilde) tau."""
        return self.d1s.coeff(j)


def schur_d_tau(sys: MomentSystem, k: int, idx: int, m: int, comp: int = 1,
                conj: bool = False):
    """s_k(-dtilde) applied to tau_idx^{(m)}, evaluated exactly."""
    return SchurTau(taus(sys), idx, m, k=comp, conj=conj).value(k)


def hirota(orders, sys: MomentSystem, ref_f, ref_g):
    """Hirota derivative D_{t_1}^{p1} D_{t_2}^{p2} f . g of two tau values, weight <= 2.

    ``ref_f``/``ref_g`` are (idx, m) or (idx, m, k) or (idx, m, k, conj).
    """
    t = taus(sys)
    spec = JetSpec(weight(orders))
    f, g = (t.tau_jet(idx, m, spec, *rest) for idx, m, *rest in (ref_f, ref_g))
    return hirota_jets(orders, f, g)


def hirota_jets(orders, f: Jet, g: Jet):
    """D^orders f.g from jets: product of f at +eps with g at -eps."""
    return (f * g.reflect()).extract(*orders)


def dt1(poly: PolyInZ) -> PolyInZ:
    """d/dt_1 of a polynomial in z with jet coefficients."""
    return poly.map_coeffs(lambda c: c.extract(1))


def z_plus_dt1(tau: Jet, poly: PolyInZ) -> PolyInZ:
    """(z + d/dt_1)(tau P) at the base point, for a jet tau and a polynomial
    P with jet coefficients of the same ring."""
    prod = poly * tau
    return prod.map_coeffs(lambda c: c.base).shift(1) + dt1(prod)


# ---------------------------------------------------------------------------
# Derivative and Schur-expansion identities for the polynomial families
# ---------------------------------------------------------------------------


def derivative_residual(sys: MomentSystem, idx: int, m: int, comp: int = 1) -> PolyInZ:
    """(z + d/dt_1)(tau_idx^{(m)} R_idx^{(m)}) - tau_idx^{(m)} R_{idx+1}^{(m)}.

    For even idx this raises the family index by one inside the partial
    family (and the skew-orthogonal family, which shares even members).
    """
    t = taus(sys)
    spec = JetSpec(1)
    lhs = z_plus_dt1(t.tau_jet(idx, m, spec, comp), t.psop(idx, m, comp, spec=spec))
    if idx % 2 == 0:
        rhs = t.sop(idx + 1, m) * t.tau(idx, m)
    else:
        # raising an odd member lands outside both families in general;
        # only the even case is a catalog identity
        raise ValueError("derivative identity applies to even members")
    return lhs - rhs


def schur_coeff_defects(sys: MomentSystem, idx: int, m: int, comp: int = 1,
                        conj: bool = False) -> list:
    """s_j(-dtilde) tau minus tau times the matching polynomial coefficient.

    Checks the full Schur expansion of the family member of index idx: the
    coefficient of z^{idx-j} equals s_j(-dtilde) tau_idx / tau_idx.  Miwa
    values (:class:`SchurTau`) and the coefficients of the spectral ``z``
    column are independent constructions of P_n(z) = z^n tau_n(t - [1/z]) /
    tau_n(t) (Adler-Horozov-van Moerbeke, IMRN 1999; Adler-van Moerbeke,
    Duke Math. J. 2002); deriving one from the other makes this vacuous.
    """
    t = taus(sys)
    st = SchurTau(t, idx, m, k=comp, conj=conj)
    poly = t.psop(idx, m, comp, conj) if idx % 2 else t.sop(idx, m)
    tau_val = t.tau(idx, m, comp, conj)
    return [st.value(j) - tau_val * poly.coeff(idx - j) for j in range(idx + 1)]


# ---------------------------------------------------------------------------
# Catalog evaluators, each called with its grid point's parameters
# ---------------------------------------------------------------------------


def _dkp(sys, n, m, l):
    t = taus(sys)
    s_m = SchurTau(t, 2 * n, m)
    s_m1 = SchurTau(t, 2 * n, m + 1)
    s_low = SchurTau(t, 2 * n - 2, m + 1)
    tau_m = s_m.value(0)
    tau_m1 = s_m1.value(0)
    tau_up = t.tau(2 * n + 2, m)
    return (tau_m1 * s_m.value(2 * n + 1 - l)
            + tau_m1 * s_m.d1(2 * n - l)
            - s_m1.d1(0) * s_m.value(2 * n - l)
            - tau_m * s_m1.value(2 * n + 1 - l)
            + tau_up * s_low.value(2 * n - 1 - l))


def _pfaff_first(sys, n, m):
    t = taus(sys)
    spec = JetSpec(2)
    f = t.tau_jet(2 * n, m, spec)
    g = t.tau_jet(2 * n, m + 1, spec)
    lhs = hirota_jets((0, 1), f, g) + hirota_jets((2, 0), f, g)
    return lhs - 2 * t.tau(2 * n + 2, m) * t.tau(2 * n - 2, m + 1)


def _toda1d(sys, n, l):
    t = taus(sys)
    st = SchurTau(t, 2 * n, 0)
    low = SchurTau(t, 2 * n - 2, 0)
    return (st.d1(0) * st.value(2 * n - l) - st.value(0) * st.d1(2 * n - l)
            - t.tau(2 * n + 2, 0) * low.value(2 * n - 1 - l))


def _toda_bilinear(sys, n):
    t = taus(sys)
    spec = JetSpec(2)
    f = t.tau_jet(2 * n, 0, spec)
    return (hirota_jets((2,), f, f)
            - 2 * t.tau(2 * n - 2, 0) * t.tau(2 * n + 2, 0))


def _lv(sys, n):
    t = taus(sys)
    spec = JetSpec(1)
    f = t.tau_jet(n, 0, spec)
    g = t.tau_jet(n + 1, 0, spec)
    return (t.tau(n - 1, 0) * t.tau(n + 2, 0)
            - hirota_jets((1,), f, g) - t.tau(n, 0) * t.tau(n + 1, 0))


def _bkp_pair(sys, n, m, k, l1, l2, conj=False):
    t = taus(sys)
    even_m = SchurTau(t, 2 * n, m)
    even_m1 = SchurTau(t, 2 * n, m + 1)
    even_up_m = SchurTau(t, 2 * n + 2, m)
    even_up_m1 = SchurTau(t, 2 * n + 2, m + 1)
    odd_m = SchurTau(t, 2 * n + 1, m, k, conj)
    odd_m1 = SchurTau(t, 2 * n + 1, m + 1, k, conj)
    odd_low_m1 = SchurTau(t, 2 * n - 1, m + 1, k, conj)
    tau_odd_up = t.tau(2 * n + 3, m, k, conj)
    r1 = (even_m1.value(0) * odd_m.value(2 * n + 1 - l1)
          + odd_m1.value(0) * even_m.value(2 * n - l1)
          - odd_m.value(0) * even_m1.value(2 * n + 1 - l1)
          - even_up_m.value(0) * odd_low_m1.value(2 * n - l1))
    r2 = (odd_m1.value(0) * even_up_m.value(2 * n + 2 - l2)
          + even_up_m1.value(0) * odd_m.value(2 * n + 1 - l2)
          - even_up_m.value(0) * odd_m1.value(2 * n + 2 - l2)
          - tau_odd_up * even_m1.value(2 * n + 1 - l2))
    return [r1, r2]


def _glv1(sys, n, m, k):
    return _glv(sys, 2 * n, m, k)


def _glv2(sys, n, m, k):
    return _glv(sys, 2 * n + 1, m, k)


def _glv(sys, n, m, k=1):
    """GLV at index n; its odd taus take the component k."""
    t = taus(sys)
    spec = JetSpec(1)
    f = t.tau_jet(n, m + 1, spec, k)
    g = t.tau_jet(n + 1, m, spec, k)
    return (t.tau(n + 2, m, k) * t.tau(n - 1, m + 1, k)
            - hirota_jets((1,), f, g)
            - t.tau(n, m, k) * t.tau(n + 1, m + 1, k))


def _btoda(sys, n, m):
    # exact evaluation fixes the D_t1 argument order: the lower index comes
    # first under our sign convention for the Hirota operator
    t = taus(sys)
    spec = JetSpec(2)
    f = t.tau_jet(n, m, spec)
    up = t.tau_jet(n + 1, m, spec)
    low = t.tau_jet(n - 1, m, spec)
    return (hirota_jets((2,), f, f) - 2 * hirota_jets((1,), low, up))


def _backlund(sys, n, m):
    t = taus(sys)
    spec = JetSpec(1)
    return (hirota_jets((1,), t.tau_jet(n, m, spec), t.tau_jet(n, m + 1, spec))
            - hirota_jets((1,), t.tau_jet(n + 1, m, spec),
                          t.tau_jet(n - 1, m + 1, spec)))


def _mkdv_chains(t: TauTable, j: int, m: int, spec):
    """f_j and g_j jets of the folded chain built on base shift m: tau_j^{(m)}
    and tau_{j-1}^{(m+1)}, in that order for even j."""
    here, up = t.tau_jet(j, m, spec), t.tau_jet(j - 1, m + 1, spec)
    return (here, up) if j % 2 == 0 else (up, here)


def _mkdv(sys, n, m):
    t = taus(sys)
    spec = JetSpec(1)
    fn, gn = _mkdv_chains(t, n, m, spec)
    fp, gp = _mkdv_chains(t, n + 1, m, spec)
    fl, gl = _mkdv_chains(t, n - 1, m, spec)
    r1 = (hirota_jets((1,), gn, fn) - gp.base * fl.base + gl.base * fp.base)
    r2 = fp.base * fl.base - gn.base * gn.base
    return [r1, r2]


def _evod(sys, n, m):
    t = taus(sys)
    return (t.tau(2 * n, m) * t.tau(2 * n + 2, m)
            - t.tau(2 * n + 1, m) * t.tau(2 * n + 1, m))


def _cmkdv(sys, n, m, k):
    return _bkp_pair(sys, n, m, k, 2 * n, 2 * n + 1) + _pair_sums(sys, n, m)


def _pair_sums(sys, n, m, conj=False):
    """tau2n tau2n+2 - sum_{a,b} tau2n+1,a tau2n+1,b at shifts m and m+1, the
    b taus on the conjugate rows if ``conj``."""
    t, comps = taus(sys), range(1, sys.ell + 1)
    return [t.tau(2 * n, s) * t.tau(2 * n + 2, s)
            - sum(t.tau(2 * n + 1, s, a) * t.tau(2 * n + 1, s, b, conj=conj)
                  for a in comps for b in comps)
            for s in (m, m + 1)]


def _vnls(sys, n, m, k):
    return (_bkp_pair(sys, n, m, k, 2 * n, 2 * n + 1)
            + _bkp_pair(sys, n, m, k, 2 * n, 2 * n + 1, conj=True)
            + _pair_sums(sys, n, m, conj=True))


def _derivative(sys, n, m):
    return derivative_residual(sys, 2 * n, m)
