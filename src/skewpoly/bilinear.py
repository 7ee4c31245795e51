"""Schur polynomials, Hirota operators, and the bilinear identity catalog.

Everything here is exact: time derivatives of tau functions come from the
index-shift rule lifted into jets, never from finite differences.  The
catalog is data driven and holds every check the command line runs; each
entry carries its constraint precondition, a parameter grid, a human-readable
equation, its suite group, and an evaluator returning residuals (scalars or
polynomials in z) that must all be exactly zero.

Schur-operator conventions: with dtilde = (d/dt_1, d/dt_2 / 2, d/dt_3 / 3,
...), s_k(-dtilde) is the Schur polynomial s_k(t) at t_l -> -(d/dt_l) / l,
and sum_k s_k(-dtilde) z^k is the Miwa shift t -> t - [z].  Shifted moments
are polynomials in z, so s_k(-dtilde) tau_idx is the z^k coefficient of a
Pfaffian of degree <= idx in z (:class:`SchurTau`); a weight-k jet gives the
same value by :meth:`skewpoly.jets.Jet.schur`, the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import christoffel
from .families import (ReadPlan, TauTable, orthogonality_defects,
                       orthogonality_determinant, psop_inner_defects, taus, z_plus_dt1)
from .jets import Jet, JetSpec, weight
from .moments import MomentSystem, stembridge_residual
from .poly import PolyInZ
from .record import Record
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
    sys.require_exact()
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


# ---------------------------------------------------------------------------
# Derivative and Schur-expansion identities for the polynomial families
# ---------------------------------------------------------------------------


def derivative_residual(sys: MomentSystem, idx: int, m: int, comp: int = 1) -> PolyInZ:
    """(z + d/dt_1)(tau_idx^{(m)} R_idx^{(m)}) - tau_idx^{(m)} R_{idx+1}^{(m)}.

    For even idx this raises the family index by one inside the partial
    family (and the skew-orthogonal family, which shares even members).
    """
    sys.require_exact()
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
    sys.require_exact()
    t = taus(sys)
    st = SchurTau(t, idx, m, k=comp, conj=conj)
    poly = t.psop(idx, m, comp, conj) if idx % 2 else t.sop(idx, m)
    tau_val = t.tau(idx, m, comp, conj)
    return [st.value(j) - tau_val * poly.coeff(idx - j) for j in range(idx + 1)]


# ---------------------------------------------------------------------------
# Identity catalog
# ---------------------------------------------------------------------------


class Identity(Record):
    """One catalog entry.

    ``grid(sys, n_max, m_max)`` yields the parameter dicts of its instances
    and ``evaluate(sys, **params)`` returns their residuals.  ``parts`` names
    the residuals of an identity reported as several entries (``NAME.part``);
    ``group`` is the suite (TRANSFORMS, ORTHOGONALITY, SCHUR, CONSTRAINT) the
    entry belongs to, if any.
    """

    __slots__ = _fields = ("name", "equation", "tags", "grid", "evaluate", "group",
                           "parts")
    _defaults = (None, ())

    def applicable(self, sys: MomentSystem) -> bool:
        return not self.tags or sys.constraint in self.tags


IDENTITIES: dict = {}


def _identity(name, equation, grid, tags=(), group=None, parts=()):
    """Register the decorated evaluator as the catalog entry ``name``."""
    def register(evaluate):
        IDENTITIES[name] = Identity(name, equation, tags, grid, evaluate, group, parts)
        return evaluate
    return register


def identity_residual(sys: MomentSystem, name: str, **params) -> list:
    """Residual list of one identity instance; every entry must be zero.

    Entries are exact scalars or polynomials in z.  An identity with named
    ``parts`` returns one residual per part, in that order.
    """
    sys.require_exact()
    ident = IDENTITIES[name]
    if not ident.applicable(sys):
        raise ValueError(f"identity {name} needs constraint in {ident.tags}, "
                         f"system is tagged {sys.constraint!r}")
    res = ident.evaluate(sys, **params)
    if isinstance(res, dict):
        return [res[p] for p in ident.parts]
    return list(res) if isinstance(res, (list, tuple)) else [res]


def identity_names() -> list:
    return sorted(IDENTITIES)


def _grid_nm(sys, n_max, m_max, n_min=0, scale=1):
    for n in range(n_min, scale * n_max + 1):
        for m in range(m_max + 1):
            yield {"n": n, "m": m}


def _grid_nmk(sys, n_max, m_max):
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            for k in range(1, sys.ell + 1):
                yield {"n": n, "m": m, "k": k}


def _grid_n(sys, n_max, m_max, scale=1):
    for n in range(1, scale * n_max + 1):
        yield {"n": n}


# -- unconstrained hierarchy -------------------------------------------------


def _dkp_grid(sys, n_max, m_max):
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            for l in range(2 * n):
                yield {"n": n, "m": m, "l": l}


@_identity(
    "DKP",
    "tau2n[m+1] s_{2n+1-l}(-Dt)tau2n[m] + tau2n[m+1] d1 s_{2n-l}(-Dt)tau2n[m]"
    " - d1 tau2n[m+1] s_{2n-l}(-Dt)tau2n[m] = tau2n[m] s_{2n+1-l}(-Dt)tau2n[m+1]"
    " - tau2n+2[m] s_{2n-1-l}(-Dt)tau2n-2[m+1]",
    _dkp_grid)
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


@_identity("PFAFF_FIRST",
           "(D_t2 + D_t1^2) tau2n[m].tau2n[m+1] = 2 tau2n+2[m] tau2n-2[m+1]",
           partial(_grid_nm, n_min=1))
def _pfaff_first(sys, n, m):
    t = taus(sys)
    spec = JetSpec(2)
    f = t.tau_jet(2 * n, m, spec)
    g = t.tau_jet(2 * n, m + 1, spec)
    lhs = hirota_jets((0, 1), f, g) + hirota_jets((2, 0), f, g)
    return lhs - 2 * t.tau(2 * n + 2, m) * t.tau(2 * n - 2, m + 1)


# -- laurent reductions ------------------------------------------------------


def _toda1d_grid(sys, n_max, m_max):
    for n in range(1, n_max + 1):
        for l in range(2 * n):
            yield {"n": n, "l": l}


@_identity("TODA_1D",
           "D_t1 tau2n . s_{2n-l}(-Dt)tau2n = tau2n+2 s_{2n-1-l}(-Dt)tau2n-2",
           _toda1d_grid, ("laurent",))
def _toda1d(sys, n, l):
    t = taus(sys)
    st = SchurTau(t, 2 * n, 0)
    low = SchurTau(t, 2 * n - 2, 0)
    return (st.d1(0) * st.value(2 * n - l) - st.value(0) * st.d1(2 * n - l)
            - t.tau(2 * n + 2, 0) * low.value(2 * n - 1 - l))


@_identity("TODA_BILINEAR", "D_t1^2 tau2n . tau2n = 2 tau2n-2 tau2n+2",
           _grid_n, ("laurent",))
def _toda_bilinear(sys, n):
    t = taus(sys)
    spec = JetSpec(2)
    f = t.tau_jet(2 * n, 0, spec)
    return (hirota_jets((2,), f, f)
            - 2 * t.tau(2 * n - 2, 0) * t.tau(2 * n + 2, 0))


@_identity("LV", "tau_{n-1} tau_{n+2} = (D_t1 + 1) tau_n . tau_{n+1}",
           partial(_grid_n, scale=2), ("laurent",))
def _lv(sys, n):
    t = taus(sys)
    spec = JetSpec(1)
    f = t.tau_jet(n, 0, spec)
    g = t.tau_jet(n + 1, 0, spec)
    return (t.tau(n - 1, 0) * t.tau(n + 2, 0)
            - hirota_jets((1,), f, g) - t.tau(n, 0) * t.tau(n + 1, 0))


# -- large BKP family and its one-component form -----------------------------


def _bkp_grid(sys, n_max, m_max):
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            for k in range(1, sys.ell + 1):
                for l1 in range(2 * n + 1):
                    yield {"n": n, "m": m, "k": k, "l1": l1, "l2": 2 * n + 1}
                for l2 in range(2 * n + 2):
                    yield {"n": n, "m": m, "k": k, "l1": 2 * n, "l2": l2}


@_identity(
    "BKP_LARGE",
    "tau2n[m+1] s_{2n+1-l1}(-Dt)tau2n+1,k[m] + tau2n+1,k[m+1] s_{2n-l1}(-Dt)tau2n[m]"
    " = tau2n+1,k[m] s_{2n+1-l1}(-Dt)tau2n[m+1] + tau2n+2[m] s_{2n-l1}(-Dt)tau2n-1,k[m+1]"
    " (and the companion with indices raised by one)",
    _bkp_grid)
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


def _glv(sys, n, m, k=1):
    """GLV at index n; its odd taus take the component k."""
    t = taus(sys)
    spec = JetSpec(1)
    f = t.tau_jet(n, m + 1, spec, k)
    g = t.tau_jet(n + 1, m, spec, k)
    return (t.tau(n + 2, m, k) * t.tau(n - 1, m + 1, k)
            - hirota_jets((1,), f, g)
            - t.tau(n, m, k) * t.tau(n + 1, m + 1, k))


_identity(
    "GLV1",
    "tau2n+2[m] tau2n-1,k[m+1] = D_t1 tau2n[m+1] . tau2n+1,k[m] + tau2n+1,k[m+1] tau2n[m]",
    _grid_nmk)(lambda sys, n, m, k: _glv(sys, 2 * n, m, k))
_identity(
    "GLV2",
    "tau2n+3,k[m] tau2n[m+1] = D_t1 tau2n+1,k[m+1] . tau2n+2[m] + tau2n+2[m+1] tau2n+1,k[m]",
    _grid_nmk)(lambda sys, n, m, k: _glv(sys, 2 * n + 1, m, k))
_identity(
    "GLV",
    "tau_{n+2}[m] tau_{n-1}[m+1] = D_t1 tau_n[m+1] . tau_{n+1}[m] + tau_n[m] tau_{n+1}[m+1]",
    partial(_grid_nm, scale=2))(_glv)


# -- rank-two reductions ------------------------------------------------------


@_identity("BTODA", "D_t1^2 tau_n[m] . tau_n[m] = 2 D_t1 tau_{n-1}[m] . tau_{n+1}[m]",
           partial(_grid_nm, n_min=1, scale=2), ("rank2",))
def _btoda(sys, n, m):
    # exact evaluation fixes the D_t1 argument order: the lower index comes
    # first under our sign convention for the Hirota operator
    t = taus(sys)
    spec = JetSpec(2)
    f = t.tau_jet(n, m, spec)
    up = t.tau_jet(n + 1, m, spec)
    low = t.tau_jet(n - 1, m, spec)
    return (hirota_jets((2,), f, f) - 2 * hirota_jets((1,), low, up))


@_identity("BTODA_BACKLUND",
           "D_t1 tau_n[m] . tau_n[m+1] = D_t1 tau_{n+1}[m] . tau_{n-1}[m+1]",
           partial(_grid_nm, n_min=1, scale=2), ("rank2",))
def _backlund(sys, n, m):
    t = taus(sys)
    spec = JetSpec(1)
    return (hirota_jets((1,), t.tau_jet(n, m, spec), t.tau_jet(n, m + 1, spec))
            - hirota_jets((1,), t.tau_jet(n + 1, m, spec),
                          t.tau_jet(n - 1, m + 1, spec)))


# -- rank-one skew reductions --------------------------------------------------


def _mkdv_chains(t: TauTable, j: int, m: int, spec):
    """f_j and g_j jets of the folded chain built on base shift m: tau_j^{(m)}
    and tau_{j-1}^{(m+1)}, in that order for even j."""
    here, up = t.tau_jet(j, m, spec), t.tau_jet(j - 1, m + 1, spec)
    return (here, up) if j % 2 == 0 else (up, here)


def _mkdv_grid(sys, n_max, m_max):
    for n in range(1, 2 * n_max):
        for m in range(m_max + 1):
            yield {"n": n, "m": m}


@_identity("MKDV",
           "D_t1 g_n . f_n = g_{n+1} f_{n-1} - g_{n-1} f_{n+1},  f_{n+1} f_{n-1} = g_n^2",
           _mkdv_grid, ("rank1skew",))
def _mkdv(sys, n, m):
    t = taus(sys)
    spec = JetSpec(1)
    fn, gn = _mkdv_chains(t, n, m, spec)
    fp, gp = _mkdv_chains(t, n + 1, m, spec)
    fl, gl = _mkdv_chains(t, n - 1, m, spec)
    r1 = (hirota_jets((1,), gn, fn) - gp.base * fl.base + gl.base * fp.base)
    r2 = fp.base * fl.base - gn.base * gn.base
    return [r1, r2]


@_identity("EVOD", "tau2n[m] tau2n+2[m] = (tau2n+1[m])^2", _grid_nm, ("rank1skew",))
def _evod(sys, n, m):
    t = taus(sys)
    return (t.tau(2 * n, m) * t.tau(2 * n + 2, m)
            - t.tau(2 * n + 1, m) * t.tau(2 * n + 1, m))


@_identity("CMKDV",
           "large BKP pair plus tau2n[m] tau2n+2[m] = sum_{a,b} tau2n+1,a[m] tau2n+1,b[m]",
           _grid_nmk, ("rank1skew-multi",))
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


@_identity("VNLS",
           "large BKP pair for both single-moment chains plus"
           " tau2n[m] tau2n+2[m] = sum_{a,b} tau2n+1,a[m] taubar2n+1,b[m]",
           _grid_nmk, ("rank1skew-complex",))
def _vnls(sys, n, m, k):
    return (_bkp_pair(sys, n, m, k, 2 * n, 2 * n + 1)
            + _bkp_pair(sys, n, m, k, 2 * n, 2 * n + 1, conj=True)
            + _pair_sums(sys, n, m, conj=True))


# -- TRANSFORMS: shift transformations of both families ----------------------
#
# Evaluators from here on look christoffel and lax functions up on their
# module at call time, so a profiler that replaces a module attribute sees
# every call made through the catalog.  The lax-backed ones import lax
# themselves: a run that selects none of them never compiles it.


@_identity("SOP_CT",
           "P_{2n+1}[m] - A P_{2n}[m] = z(P_{2n}[m+1] - B P_{2n-2}[m+1]); "
           "P_{2n+2}[m] - C P_{2n}[m] = z(P_{2n+1}[m+1] - D P_{2n}[m+1])",
           _grid_nm, group="TRANSFORMS", parts=("even", "odd"))
def _sop_ct(sys, n, m):
    return christoffel.sop_transform_residual(sys, n, m)


@_identity("PSOP_CT", "Q_{n+1}[m] + xi Q_n[m] = z(Q_n[m+1] + eta Q_{n-1}[m+1])",
           partial(_grid_nm, scale=2), group="TRANSFORMS")
def _psop_ct(sys, n, m):
    return christoffel.psop_transform_residual(sys, n, m)


def _multi_grid(sys, n_max, m_max):
    if sys.ell > 1:
        yield from _grid_nmk(sys, n_max, m_max)


@_identity("PSOP_CT_MULTI", "component-resolved transform pair", _multi_grid,
           group="TRANSFORMS", parts=("odd", "even"))
def _psop_ct_multi(sys, n, m, k):
    return christoffel.psop_multi_residuals(sys, n, m, k)


# -- ORTHOGONALITY: inner products against their closed forms ---------------


def _sop_orthogonality_grid(sys, n_max, m_max):
    for m in range(m_max + 1):
        yield {"m": m, "max_degree": 2 * n_max + 1}


_identity("SOP_ORTHOGONALITY", "<z^m P_a[m], z^m P_b[m]> matches its closed form",
          _sop_orthogonality_grid, group="ORTHOGONALITY")(orthogonality_defects)


def _psop_inner_grid(sys, n_max, m_max):
    for m in range(m_max + 1):
        for k in range(1, sys.ell + 1):
            yield {"m": m, "k": k, "n_max": n_max}


_identity("PSOP_INNER", "<z^m Q_idx[m], z^{m+i}> matches its closed form",
          _psop_inner_grid, group="ORTHOGONALITY")(psop_inner_defects)


def _determinant_grid(sys, n_max, m_max):
    for n in range(n_max + 1):
        for choice in ("sop", "psop"):
            yield {"n": n, "choice": choice}


_identity("DEFECT_DETERMINANT", "the (2n+2) square consistency determinant vanishes",
          _determinant_grid, group="ORTHOGONALITY")(orthogonality_determinant)


# -- SCHUR: Schur expansions and first-derivative identities ----------------
#
# These run on shifts m <= 1 only.


def _schur_grid(sys, n_max, m_max):
    for idx in range(2 * n_max + 2):
        for m in range(min(m_max, 1) + 1):
            yield {"idx": idx, "m": m}


_identity("SCHUR_COEFF", "s_j(-Dt) tau_idx = tau_idx * coeff(R_idx, z^{idx-j})",
          _schur_grid, group="SCHUR")(schur_coeff_defects)


def _low_shift_grid(sys, n_max, m_max):
    return _grid_nm(sys, n_max, min(m_max, 1))


@_identity("DERIVATIVE",
           "(z + d1)(tau_{2n}[m] P_{2n}[m]) = tau_{2n}[m] P_{2n+1}[m]",
           _low_shift_grid, group="SCHUR")
def _derivative(sys, n, m):
    return derivative_residual(sys, 2 * n, m)


def _mixed_grid(sys, n_max, m_max):
    for params in _low_shift_grid(sys, n_max, m_max):
        yield {"n": 2 * params["n"], "m": params["m"]}


@_identity("MIXED", "(z + d1) Q_n = Q_{n+1} + K_n Q_n - J_n Q_{n-1}", _mixed_grid,
           group="SCHUR")
def _mixed(sys, n, m):
    from . import lax
    return lax.mixed_residual(sys, m, n)


# -- CONSTRAINT: recurrences and operator compatibility per constraint tag --


@_identity("C2_SUITE", "rank2 derivative formulas", partial(_grid_nm, n_min=1, scale=2),
           ("rank2",), group="CONSTRAINT",
           parts=("derivative_pf", "evolution", "shifted_evolution", "mixed"))
def _c2_suite(sys, n, m):
    from . import lax
    return lax.c2_evolution_residuals(sys, m, n)


@_identity("C3_SUITE", "rank1skew recurrences", partial(_grid_nm, n_min=1),
           ("rank1skew",), group="CONSTRAINT",
           parts=("three_term", "evolution_even", "spectral_odd", "evolution_odd",
                  "k_parity"))
def _c3_suite(sys, n, m):
    from . import lax
    return lax.c3_recurrence_residuals(sys, m, n)


def _block_grid(kind):
    """The grid of the operator block ``kind``: one point at shift 0 on the
    systems :meth:`ReadPlan.blocks` names it for, none on any other."""
    def grid(sys, n_max, m_max):
        if kind in ReadPlan.blocks(sys):
            yield {"N": ReadPlan.LAX_SIZE, "m": 0}
    return grid


def _lax_interior(sys, kind, N, m):
    from . import lax
    rep = lax.lax_compat_residual(sys, kind, m, N)
    return [v for row in rep["interior"] for v in row]


_COMPAT = "operator compatibility on the interior block"
_identity("LAX_RANK2_M", _COMPAT, _block_grid("rank2-m"), group="CONSTRAINT")(
    partial(_lax_interior, kind="rank2-m"))
_identity("LAX_RANK2_N", _COMPAT, _block_grid("rank2-n"), group="CONSTRAINT")(
    partial(_lax_interior, kind="rank2-n"))
_identity("LAX_MIXED", "dL/dt1 = M[m+1] L - L M[m] on the interior block",
          _block_grid("mixed"), group="CONSTRAINT")(partial(_lax_interior, kind="mixed"))


@_identity("TODA_VARS", "lattice variables and flow", _grid_n, ("laurent",),
           group="CONSTRAINT", parts=("second_derivative", "evolution_even",
                                      "evolution_odd", "flow_b", "flow_c"))
def _toda_vars(sys, n):
    from . import lax
    return lax.toda_vars_and_residual(sys, n)


@_identity("TODA_CT", "reduced transform pair", _grid_n, ("laurent",),
           group="CONSTRAINT", parts=("even", "odd"))
def _toda_ct(sys, n):
    return christoffel.laurent_toda_residual(sys, n)


@_identity("LV_COEFF", "xi_n + eta_n - 1 = 0", _grid_n, ("laurent",),
           group="CONSTRAINT")
def _lv_coeff(sys, n):
    return christoffel.laurent_lv_coeff_check(sys, n)


_identity("STEMBRIDGE", "Toeplitz Pfaffian equals the folded determinant", _grid_n,
          ("laurent",), group="CONSTRAINT")(stembridge_residual)
