#!/usr/bin/env python3
"""Tour 3: the bilinear identity catalog, evaluated exactly.

Time enters through the index-shift rule d/dt_n mu_{i,j} = mu_{i+n,j} +
mu_{i,j+n}, so every derivative of a tau value is again exact rational data.
Schur operators s_k(-Dt) are read off the Miwa-shifted tau function
tau(t - [z]), Hirota derivatives off a truncated jet ring, and each lattice
hierarchy in the catalog reduces to residuals that must vanish identically.  Constrained moment classes reduce the
hierarchy further; corrupting a constrained system breaks its identities.
"""

from skewpoly import IDENTITIES, MomentSystem, gen, identity_residual, schur_d_tau
from skewpoly.bilinear import hirota, schur_coeff_defects
from skewpoly.families import sop, taus

sys = gen("none", max_index=18, components=2, seed=11, require_tau=(4, 2))

print("Schur action vs polynomial coefficients (Miwa path = coefficient path):")
p4 = sop(sys, 4, 0)
tau4 = taus(sys).tau(4, 0)
for k in range(5):
    miwa_path = schur_d_tau(sys, k, 4, 0)
    coeff_path = tau4 * p4.coeff(4 - k)
    print(f"  k={k}: {miwa_path} == {coeff_path}: {miwa_path == coeff_path}")
assert all(d == 0 for d in schur_coeff_defects(sys, 6, 0))

print("\nHirota derivative against its defining expansion:")
d1 = hirota((1, 0), sys, (4, 0), (4, 1))
print("  D_t1 tau_4[0] . tau_4[1] =", d1)
print("  D_t1 f.f =", hirota((1, 0), sys, (4, 0), (4, 0)), "(odd order, equal args)")

print("\nCatalog on unconstrained data:")
for name, params in [("DKP", {"n": 2, "m": 0, "l": 1}),
                     ("PFAFF_FIRST", {"n": 2, "m": 0}),
                     ("BKP_LARGE", {"n": 1, "m": 0, "k": 2, "l1": 2, "l2": 3}),
                     ("GLV", {"n": 3, "m": 0})]:
    res = identity_residual(sys, name, **params)
    print(f"  {name} {params}: residuals {res}")

print("\nReductions per moment constraint:")
for kind, names, comps in [
        ("laurent", [("TODA_BILINEAR", {"n": 2}), ("TODA_1D", {"n": 2, "l": 1}),
                     ("LV", {"n": 3})], 1),
        ("rank2", [("BTODA", {"n": 3, "m": 0}),
                   ("BTODA_BACKLUND", {"n": 3, "m": 0})], 1),
        ("rank1skew", [("EVOD", {"n": 2, "m": 0}), ("MKDV", {"n": 3, "m": 0})], 1),
        ("rank1skew-multi", [("CMKDV", {"n": 1, "m": 0, "k": 2})], 2),
        ("rank1skew-complex", [("VNLS", {"n": 1, "m": 0, "k": 1})], 2)]:
    s = gen(kind, max_index=18, components=comps, seed=13, require_tau=(3, 1))
    for name, params in names:
        print(f"  [{kind}] {name} {params}: {identity_residual(s, name, **params)}")

print("\nFault injection on a constrained system:")
s = gen("rank1skew", max_index=16, seed=17, require_tau=(3, 1))
mu = dict(s.mu)
mu[(1, 2)] = mu[(1, 2)] + 1
bad = MomentSystem(s.max_index, mu, s.beta, constraint="rank1skew")
print("  EVOD after corrupting mu_{1,2}:",
      identity_residual(bad, "EVOD", n=1, m=0))

print("\nCatalog entries:", ", ".join(sorted(IDENTITIES)))
