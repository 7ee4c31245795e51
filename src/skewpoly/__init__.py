"""Exact Pfaffian toolkit for skew-orthogonal polynomial families.

The package computes tau functions and (partial-)skew-orthogonal polynomial
families from skew-symmetric moment data, their shift (Christoffel-type)
transformations, and verifies the associated lattice identities exactly over
the rationals; a small float lane integrates the induced Toda dynamics.
"""

from .bilinear import (IDENTITIES, hirota, identity_names, identity_residual,
                       schur, schur_d_tau)
from .christoffel import (laurent_lv_coeff_check, laurent_toda_residual,
                          psop_transform_residual, sop_transform_residual)
from .families import (psop, skew_gram, skew_inner, sop, sop_at_zero, tau, taus,
                       vanishing_taus)
from .jets import Jet, JetSpec, OrderMismatchError, TruncationError
from .moments import (MomentSystem, OutOfRangeError, SolitonSpec, gen,
                      lift_to_jet, shift_derivative, soliton_system, validate)
from .pfaffian import LabelError, det_bareiss, pf_indexed, pf_labels, pfaffian
from .poly import PolyInZ
from .scalars import GaussianRational, format_scalar, parse_scalar

__all__ = [
    "IDENTITIES", "hirota", "identity_names", "identity_residual", "schur",
    "schur_d_tau",
    "laurent_lv_coeff_check", "laurent_toda_residual",
    "psop_transform_residual", "sop_transform_residual",
    "psop", "skew_gram", "skew_inner", "sop", "sop_at_zero", "tau", "taus",
    "vanishing_taus",
    "Jet", "JetSpec", "OrderMismatchError", "TruncationError",
    "MomentSystem", "OutOfRangeError", "SolitonSpec", "gen", "lift_to_jet",
    "shift_derivative", "soliton_system", "validate",
    "LabelError", "det_bareiss", "pf_indexed", "pf_labels", "pfaffian",
    "PolyInZ", "GaussianRational", "format_scalar", "parse_scalar",
]

__version__ = "0.1.0"
