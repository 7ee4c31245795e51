"""The bilinear identity catalog: what ``verify`` runs, stated as data.

Each entry carries its constraint precondition, a parameter grid, a
human-readable equation, its suite group, and the evaluator returning
residuals (scalars or polynomials in z) that must all be exactly zero.  An
entry names its evaluator by module and function, looked up when it runs
(:func:`_load`), so choosing entries imports nothing past ``families`` and
the ORTHOGONALITY and TRANSFORMS suites never load the jet-valued
evaluators (:mod:`skewpoly.hierarchy`) nor ``lax``; a profiler that
replaces a module attribute sees every call made through the catalog.
"""

from __future__ import annotations

import sys
from functools import partial

from .families import ReadPlan
from .record import Record


def _load(module: str):
    """The package module ``module``, imported on first use by the
    interpreter's own import statement (so ``-X importtime`` logs it)."""
    name = f"{__package__}.{module}"
    if name not in sys.modules:
        __import__(name)
    return sys.modules[name]


def __getattr__(name):
    """``SchurTau``, which moved to :mod:`skewpoly.hierarchy`."""
    if name == "SchurTau":
        return _load("hierarchy").SchurTau
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Identity(Record):
    """One catalog entry.

    ``grid(sys, n_max, m_max)`` yields the parameter dicts of its instances;
    ``evaluator`` names the function that returns their residuals as
    ``"module.function"`` in the package, which :meth:`evaluate` calls with
    the system, the fixed ``options`` (name, value) pairs and the
    parameters.  ``parts`` names the residuals of an identity reported as
    several entries (``NAME.part``); ``group`` is the suite (TRANSFORMS,
    ORTHOGONALITY, SCHUR, CONSTRAINT) the entry belongs to, if any.
    """

    __slots__ = _fields = ("name", "equation", "tags", "grid", "evaluator", "group",
                           "parts", "options")
    _defaults = (None, (), ())

    def applicable(self, sys) -> bool:
        return not self.tags or sys.constraint in self.tags

    def evaluate(self, sys, **params):
        module, _, name = self.evaluator.rpartition(".")
        return getattr(_load(module), name)(sys, **dict(self.options), **params)


IDENTITIES: dict = {}


def _identity(name, equation, grid, evaluator, tags=(), group=None, parts=(), **options):
    """Register the catalog entry ``name``, evaluated by ``evaluator``."""
    IDENTITIES[name] = Identity(name, equation, tags, grid, evaluator, group, parts,
                                tuple(options.items()))


def identity_residual(sys, name: str, **params) -> list:
    """Residual list of one identity instance; every entry must be zero.

    Entries are exact scalars or polynomials in z.  An identity with named
    ``parts`` returns one residual per part, in that order.
    """
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


_identity(
    "DKP",
    "tau2n[m+1] s_{2n+1-l}(-Dt)tau2n[m] + tau2n[m+1] d1 s_{2n-l}(-Dt)tau2n[m]"
    " - d1 tau2n[m+1] s_{2n-l}(-Dt)tau2n[m] = tau2n[m] s_{2n+1-l}(-Dt)tau2n[m+1]"
    " - tau2n+2[m] s_{2n-1-l}(-Dt)tau2n-2[m+1]",
    _dkp_grid, "hierarchy._dkp")
_identity("PFAFF_FIRST",
          "(D_t2 + D_t1^2) tau2n[m].tau2n[m+1] = 2 tau2n+2[m] tau2n-2[m+1]",
          partial(_grid_nm, n_min=1), "hierarchy._pfaff_first")


# -- laurent reductions ------------------------------------------------------


def _toda1d_grid(sys, n_max, m_max):
    for n in range(1, n_max + 1):
        for l in range(2 * n):
            yield {"n": n, "l": l}


_identity("TODA_1D",
          "D_t1 tau2n . s_{2n-l}(-Dt)tau2n = tau2n+2 s_{2n-1-l}(-Dt)tau2n-2",
          _toda1d_grid, "hierarchy._toda1d", ("laurent",))
_identity("TODA_BILINEAR", "D_t1^2 tau2n . tau2n = 2 tau2n-2 tau2n+2",
          _grid_n, "hierarchy._toda_bilinear", ("laurent",))
_identity("LV", "tau_{n-1} tau_{n+2} = (D_t1 + 1) tau_n . tau_{n+1}",
          partial(_grid_n, scale=2), "hierarchy._lv", ("laurent",))


# -- large BKP family and its one-component form -----------------------------


def _bkp_grid(sys, n_max, m_max):
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            for k in range(1, sys.ell + 1):
                for l1 in range(2 * n + 1):
                    yield {"n": n, "m": m, "k": k, "l1": l1, "l2": 2 * n + 1}
                for l2 in range(2 * n + 2):
                    yield {"n": n, "m": m, "k": k, "l1": 2 * n, "l2": l2}


_identity(
    "BKP_LARGE",
    "tau2n[m+1] s_{2n+1-l1}(-Dt)tau2n+1,k[m] + tau2n+1,k[m+1] s_{2n-l1}(-Dt)tau2n[m]"
    " = tau2n+1,k[m] s_{2n+1-l1}(-Dt)tau2n[m+1] + tau2n+2[m] s_{2n-l1}(-Dt)tau2n-1,k[m+1]"
    " (and the companion with indices raised by one)",
    _bkp_grid, "hierarchy._bkp_pair")
_identity(
    "GLV1",
    "tau2n+2[m] tau2n-1,k[m+1] = D_t1 tau2n[m+1] . tau2n+1,k[m] + tau2n+1,k[m+1] tau2n[m]",
    _grid_nmk, "hierarchy._glv1")
_identity(
    "GLV2",
    "tau2n+3,k[m] tau2n[m+1] = D_t1 tau2n+1,k[m+1] . tau2n+2[m] + tau2n+2[m+1] tau2n+1,k[m]",
    _grid_nmk, "hierarchy._glv2")
_identity(
    "GLV",
    "tau_{n+2}[m] tau_{n-1}[m+1] = D_t1 tau_n[m+1] . tau_{n+1}[m] + tau_n[m] tau_{n+1}[m+1]",
    partial(_grid_nm, scale=2), "hierarchy._glv")


# -- rank-two reductions ------------------------------------------------------


_identity("BTODA", "D_t1^2 tau_n[m] . tau_n[m] = 2 D_t1 tau_{n-1}[m] . tau_{n+1}[m]",
          partial(_grid_nm, n_min=1, scale=2), "hierarchy._btoda", ("rank2",))
_identity("BTODA_BACKLUND",
          "D_t1 tau_n[m] . tau_n[m+1] = D_t1 tau_{n+1}[m] . tau_{n-1}[m+1]",
          partial(_grid_nm, n_min=1, scale=2), "hierarchy._backlund", ("rank2",))


# -- rank-one skew reductions --------------------------------------------------


def _mkdv_grid(sys, n_max, m_max):
    for n in range(1, 2 * n_max):
        for m in range(m_max + 1):
            yield {"n": n, "m": m}


_identity("MKDV",
          "D_t1 g_n . f_n = g_{n+1} f_{n-1} - g_{n-1} f_{n+1},  f_{n+1} f_{n-1} = g_n^2",
          _mkdv_grid, "hierarchy._mkdv", ("rank1skew",))
_identity("EVOD", "tau2n[m] tau2n+2[m] = (tau2n+1[m])^2", _grid_nm, "hierarchy._evod",
          ("rank1skew",))
_identity("CMKDV",
          "large BKP pair plus tau2n[m] tau2n+2[m] = sum_{a,b} tau2n+1,a[m] tau2n+1,b[m]",
          _grid_nmk, "hierarchy._cmkdv", ("rank1skew-multi",))
_identity("VNLS",
          "large BKP pair for both single-moment chains plus"
          " tau2n[m] tau2n+2[m] = sum_{a,b} tau2n+1,a[m] taubar2n+1,b[m]",
          _grid_nmk, "hierarchy._vnls", ("rank1skew-complex",))


# -- TRANSFORMS: shift transformations of both families ----------------------


_identity("SOP_CT",
          "P_{2n+1}[m] - A P_{2n}[m] = z(P_{2n}[m+1] - B P_{2n-2}[m+1]); "
          "P_{2n+2}[m] - C P_{2n}[m] = z(P_{2n+1}[m+1] - D P_{2n}[m+1])",
          _grid_nm, "christoffel.sop_transform_residual", group="TRANSFORMS",
          parts=("even", "odd"))
_identity("PSOP_CT", "Q_{n+1}[m] + xi Q_n[m] = z(Q_n[m+1] + eta Q_{n-1}[m+1])",
          partial(_grid_nm, scale=2), "christoffel.psop_transform_residual",
          group="TRANSFORMS")


def _multi_grid(sys, n_max, m_max):
    if sys.ell > 1:
        yield from _grid_nmk(sys, n_max, m_max)


_identity("PSOP_CT_MULTI", "component-resolved transform pair", _multi_grid,
          "christoffel.psop_multi_residuals", group="TRANSFORMS", parts=("odd", "even"))


# -- ORTHOGONALITY: inner products against their closed forms ---------------


def _sop_orthogonality_grid(sys, n_max, m_max):
    for m in range(m_max + 1):
        yield {"m": m, "max_degree": 2 * n_max + 1}


_identity("SOP_ORTHOGONALITY", "<z^m P_a[m], z^m P_b[m]> matches its closed form",
          _sop_orthogonality_grid, "families.orthogonality_defects", group="ORTHOGONALITY")


def _psop_inner_grid(sys, n_max, m_max):
    for m in range(m_max + 1):
        for k in range(1, sys.ell + 1):
            yield {"m": m, "k": k, "n_max": n_max}


_identity("PSOP_INNER", "<z^m Q_idx[m], z^{m+i}> matches its closed form",
          _psop_inner_grid, "families.psop_inner_defects", group="ORTHOGONALITY")


def _determinant_grid(sys, n_max, m_max):
    for n in range(n_max + 1):
        for choice in ("sop", "psop"):
            yield {"n": n, "choice": choice}


_identity("DEFECT_DETERMINANT", "the (2n+2) square consistency determinant vanishes",
          _determinant_grid, "families.orthogonality_determinant", group="ORTHOGONALITY")


# -- SCHUR: Schur expansions and first-derivative identities ----------------
#
# These run on shifts m <= 1 only.


def _schur_grid(sys, n_max, m_max):
    for idx in range(2 * n_max + 2):
        for m in range(min(m_max, 1) + 1):
            yield {"idx": idx, "m": m}


_identity("SCHUR_COEFF", "s_j(-Dt) tau_idx = tau_idx * coeff(R_idx, z^{idx-j})",
          _schur_grid, "hierarchy.schur_coeff_defects", group="SCHUR")


def _low_shift_grid(sys, n_max, m_max):
    return _grid_nm(sys, n_max, min(m_max, 1))


_identity("DERIVATIVE", "(z + d1)(tau_{2n}[m] P_{2n}[m]) = tau_{2n}[m] P_{2n+1}[m]",
          _low_shift_grid, "hierarchy._derivative", group="SCHUR")


def _mixed_grid(sys, n_max, m_max):
    for params in _low_shift_grid(sys, n_max, m_max):
        yield {"n": 2 * params["n"], "m": params["m"]}


_identity("MIXED", "(z + d1) Q_n = Q_{n+1} + K_n Q_n - J_n Q_{n-1}", _mixed_grid,
          "lax.mixed_residual", group="SCHUR")


# -- CONSTRAINT: recurrences and operator compatibility per constraint tag --


_identity("C2_SUITE", "rank2 derivative formulas", partial(_grid_nm, n_min=1, scale=2),
          "lax.c2_evolution_residuals", ("rank2",), group="CONSTRAINT",
          parts=("derivative_pf", "evolution", "shifted_evolution", "mixed"))
_identity("C3_SUITE", "rank1skew recurrences", partial(_grid_nm, n_min=1),
          "lax.c3_recurrence_residuals", ("rank1skew",), group="CONSTRAINT",
          parts=("three_term", "evolution_even", "spectral_odd", "evolution_odd",
                 "k_parity"))


def _block_grid(kind):
    """The grid of the operator block ``kind``: one point at shift 0 on the
    systems :meth:`ReadPlan.blocks` names it for, none on any other."""
    def grid(sys, n_max, m_max):
        if kind in ReadPlan.blocks(sys):
            yield {"N": ReadPlan.LAX_SIZE, "m": 0}
    return grid


_COMPAT = "operator compatibility on the interior block"
_identity("LAX_RANK2_M", _COMPAT, _block_grid("rank2-m"), "lax.interior_residuals",
          group="CONSTRAINT", kind="rank2-m")
_identity("LAX_RANK2_N", _COMPAT, _block_grid("rank2-n"), "lax.interior_residuals",
          group="CONSTRAINT", kind="rank2-n")
_identity("LAX_MIXED", "dL/dt1 = M[m+1] L - L M[m] on the interior block",
          _block_grid("mixed"), "lax.interior_residuals", group="CONSTRAINT", kind="mixed")
_identity("TODA_VARS", "lattice variables and flow", _grid_n, "lax.toda_vars_and_residual",
          ("laurent",), group="CONSTRAINT",
          parts=("second_derivative", "evolution_even", "evolution_odd", "flow_b", "flow_c"))
_identity("TODA_CT", "reduced transform pair", _grid_n, "christoffel.laurent_toda_residual",
          ("laurent",), group="CONSTRAINT", parts=("even", "odd"))
_identity("LV_COEFF", "xi_n + eta_n - 1 = 0", _grid_n, "christoffel.laurent_lv_coeff_check",
          ("laurent",), group="CONSTRAINT")
_identity("STEMBRIDGE", "Toeplitz Pfaffian equals the folded determinant", _grid_n,
          "moments.stembridge_residual", ("laurent",), group="CONSTRAINT")
