#!/usr/bin/env python3
"""Tour 1: skew moment data, tau functions, and the two polynomial families.

A skew-symmetric bilinear form on polynomials is fixed by its bi-moments
mu_{i,j} = <z^i, z^j>.  Even-degree monic polynomials orthogonal to all lower
monomials are determined uniquely; the odd ones need an extra normalization,
and the two natural choices give the skew-orthogonal family P_n and the
partial family Q_n.  Both are ratios of Pfaffians of the moment data, which
this package evaluates exactly over the rationals.
"""

from fractions import Fraction

from skewpoly import gen, pf_indexed, psop, skew_inner, sop, tau, taus
from skewpoly.families import orthogonality_defects, psop_inner_defects

sys = gen("none", max_index=14, components=2, seed=42, require_tau=(3, 2))
t = taus(sys)

print("A labelled Pfaffian resolves entries through the moment table:")
print("  Pf(0,1)        =", pf_indexed([0, 1], sys))
print("  Pf(d,0,1,z)    =", pf_indexed(["d", 0, 1, "z"], sys))
print("  Pf(3,z)        =", pf_indexed([3, "z"], sys))

print("\nTau chain at shift 0 (normalizing Pfaffians):")
for idx in range(6):
    print(f"  tau_{idx} = {tau(sys, idx, 0)}")

print("\nMonic families (shift m = 0):")
for idx in range(5):
    print(f"  P_{idx} = {sop(sys, idx, 0)}")
    if idx % 2:
        print(f"  Q_{idx} = {psop(sys, idx, 0)}   (odd members differ)")

print("\nSkew-orthogonality pairing <P_{2m}, P_{2n+1}> at shift 0:")
for n in range(3):
    val = skew_inner(sys, sop(sys, 2 * n, 0), sop(sys, 2 * n + 1, 0))
    print(f"  <P_{2*n}, P_{2*n+1}> = {val} "
          f"(= tau_{2*n+2}/tau_{2*n} = {Fraction(tau(sys,2*n+2,0), 1)/tau(sys,2*n,0)})")

print("\nEvery orthogonality defect across shifts m <= 2 (exact zeros),")
print("one Gram matrix of <z^m P_a, z^m P_b> per shift:")
worst = any(any(orthogonality_defects(sys, m, 5)) for m in range(3))
print("  any nonzero defect?", worst)

print("\nPartial-family inner products match their closed forms too:")
bad = any(any(psop_inner_defects(sys, m, k, 1)) for m in range(2) for k in (1, 2))
print("  any nonzero defect?", bad)
