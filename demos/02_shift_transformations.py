#!/usr/bin/env python3
"""Tour 2: shift transformations as exact polynomial identities.

The families built from index-shifted moments (shift m -> m+1) are related
through one factor of z with coefficients that are pure tau ratios.  These
act as discrete spectral problems; here we evaluate the residual polynomials
exactly and show they vanish identically, then break one coefficient on
purpose to see the residual light up.
"""

from skewpoly import gen
from skewpoly.christoffel import (laurent_lv_coeff_check, laurent_toda_residual,
                                  psop_coeffs, psop_transform_residual, sop_coeffs,
                                  sop_transform_residual)
from skewpoly.families import taus

sys = gen("none", max_index=14, components=1, seed=7, require_tau=(3, 2))
t = taus(sys)

print("Skew-orthogonal family, transform coefficients at (n, m) = (1, 0):")
co = sop_coeffs(sys, 1, 0)
print(f"  A = {co.a}\n  B = {co.b}\n  C = {co.c}\n  D = {co.d}")
print("  A equals the first log-derivative of the shifted tau:",
      co.a == t.dt1_log_tau(2, 1))

print("\nResidual polynomials of the two transform identities (n <= 2, m <= 1):")
for n in range(3):
    for m in range(2):
        r1, r2 = sop_transform_residual(sys, n, m)
        print(f"  (n={n}, m={m}): {r1}   {r2}")

print("\nPartial family, unified-index transform (n <= 4):")
for n in range(5):
    print(f"  n={n}: residual {psop_transform_residual(sys, n, 0)}, "
          f"coefficients xi={psop_coeffs(sys, n, 0).xi} eta={psop_coeffs(sys, n, 0).eta}")

print("\nNegative control: adding 1 to the B coefficient at (n, m) = (2, 0),")
print("the first transform written out over the public family members:")
co = sop_coeffs(sys, 2, 0)
p = t.sop
r1 = p(5, 0) - co.a * p(4, 0) - (p(4, 1) - (co.b + 1) * p(2, 1)).shift(1)
print("  residual:", r1)

print("\nToeplitz (Laurent) reduction: the transform closes into one family")
toeplitz = gen("laurent", max_index=14, seed=9, require_tau=(3, 1))
for n in range(3):
    r1, r2 = laurent_toda_residual(toeplitz, n)
    print(f"  n={n}: residuals {r1} {r2}, "
          f"xi+eta-1 = {laurent_lv_coeff_check(toeplitz, n)}")
