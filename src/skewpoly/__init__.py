"""Exact Pfaffian toolkit for skew-orthogonal polynomial families.

The package computes tau functions and (partial-)skew-orthogonal polynomial
families from skew-symmetric moment data, their shift (Christoffel-type)
transformations, and verifies the associated lattice identities exactly over
the rationals; a small float lane integrates the induced Toda dynamics.

The public names load lazily (a module ``__getattr__``): importing the
package, or running ``python -m skewpoly``, loads no module until one of its
names is read, and then only the module that holds it.
"""

import sys

_EXPORTS = {
    "bilinear": ("IDENTITIES", "identity_names", "identity_residual"),
    "hierarchy": ("hirota", "schur", "schur_d_tau"),
    "christoffel": ("laurent_lv_coeff_check", "laurent_toda_residual",
                    "psop_transform_residual", "sop_transform_residual"),
    "families": ("psop", "skew_gram", "skew_inner", "sop", "sop_at_zero", "tau", "taus",
                 "vanishing_taus"),
    "jets": ("Jet", "JetSpec", "OrderMismatchError", "TruncationError"),
    "moments": ("MomentSystem", "gen", "validate"),
    "solitons": ("SolitonSpec", "soliton_system"),
    "pfaffian": ("OutOfRangeError", "det_bareiss"),
    "oracle": ("LabelError", "lift_to_jet", "pf_indexed", "pf_labels", "shift_derivative"),
    "poly": ("PolyInZ",),
    "scalars": ("GaussianRational", "format_scalar", "parse_scalar"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = globals()[name] = getattr(sys.modules[f"{__name__}.{module}"], name)
    return value
