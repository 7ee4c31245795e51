"""Shift-transformation residuals, coefficient cross-identities, controls."""

import pytest

from skewpoly import christoffel as ct
from skewpoly.families import taus
from skewpoly.moments import gen
from skewpoly.scalars import exact_div


@pytest.fixture(scope="module")
def sys3():
    return gen("none", 16, components=3, seed=21, require_tau=(4, 3))


def test_coefficient_cross_identities(sys3):
    t = taus(sys3)
    for n in range(3):
        for m in range(3):
            co = ct.sop_coeffs(sys3, n, m)
            assert co.a == t.dt1_log_tau(2 * n, m + 1)
            if m >= 1:
                assert exact_div(t.sop_at_zero(2 * n + 3, m - 1),
                                 t.sop_at_zero(2 * n + 2, m - 1)) == co.d


def test_sop_transform_zero_residuals(sys3):
    for n in range(4):
        for m in range(3):
            r1, r2 = ct.sop_transform_residual(sys3, n, m)
            assert r1.is_zero() and r2.is_zero(), (n, m)


def test_sop_transform_n0_boundary(sys3):
    co = ct.sop_coeffs(sys3, 0, 1)
    assert co.a == 0 and co.b == 0  # P_1(0) = 0 and the boundary tau vanish
    r1, _ = ct.sop_transform_residual(sys3, 0, 1)
    assert r1.is_zero()


def test_sop_transform_seed_sweep():
    for seed in range(10):
        s = gen("none", 14, seed=100 + seed, require_tau=(3, 2))
        for n in range(3):
            for m in range(2):
                r1, r2 = ct.sop_transform_residual(s, n, m)
                assert r1.is_zero() and r2.is_zero(), (seed, n, m)


def test_corrupted_coefficient_fails(sys3):
    co = ct.sop_coeffs(sys3, 2, 0)
    bad = ct.SopCoeffs(co.a, co.b + 1, co.c, co.d)
    r1, _ = ct.sop_transform_residual(sys3, 2, 0, coeffs=bad)
    assert not r1.is_zero()
    assert any(r1.coeff(d) for d in range(1, r1.degree + 1))


def test_psop_transform_zero_residuals(sys3):
    for n in range(7):
        for m in range(3):
            assert ct.psop_transform_residual(sys3, n, m).is_zero(), (n, m)


def test_psop_transform_n0_boundary(sys3):
    co = ct.psop_coeffs(sys3, 0, 0)
    assert co.eta == 0
    assert ct.psop_transform_residual(sys3, 0, 0).is_zero()


def test_psop_multi_component_and_control(sys3):
    for n in range(3):
        for m in range(2):
            for k in (1, 2, 3):
                r1, r2 = ct.psop_multi_residuals(sys3, n, m, k)
                assert r1.is_zero() and r2.is_zero(), (n, m, k)
    b1, b2 = ct.psop_multi_residuals(sys3, 2, 0, 1, swap_ef=True)
    assert not (b1.is_zero() and b2.is_zero())


def test_laurent_toda_and_lv_coefficient():
    for seed in range(5):
        s = gen("laurent", 14, seed=4 + seed, require_tau=(3, 1))
        for n in range(4):
            r1, r2 = ct.laurent_toda_residual(s, n)
            assert r1.is_zero() and r2.is_zero(), (seed, n)
            assert ct.laurent_lv_coeff_check(s, n) == 0, (seed, n)


def test_lv_coefficient_negative_control():
    from skewpoly.moments import MomentSystem
    s = gen("laurent", 14, seed=5, require_tau=(3, 1))
    mu = dict(s.mu)
    mu[(2, 5)] = mu[(2, 5)] + 1  # breaks the band structure
    bad = MomentSystem(s.max_index, mu, s.beta, constraint="laurent")
    vals = [ct.laurent_lv_coeff_check(bad, n) for n in range(1, 5)]
    assert any(v != 0 for v in vals)


def test_tag_mismatch_errors(sys3):
    with pytest.raises(ValueError):
        ct.laurent_toda_residual(sys3, 1)
    with pytest.raises(ValueError):
        ct.laurent_lv_coeff_check(sys3, 1)


def test_float_mode_rejected():
    from skewpoly.moments import SolitonSpec, soliton_system
    spec = SolitonSpec((1.5, 0.5, 2.0, 0.25), ((0, 1, 1.0), (2, 3, 0.5)))
    s = soliton_system(spec, (0.2,), 10, mode="float")
    with pytest.raises(TypeError):
        ct.sop_transform_residual(s, 1, 0)
