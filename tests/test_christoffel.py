"""Shift-transformation residuals, coefficient cross-identities, controls."""

from fractions import Fraction

import pytest

from skewpoly import christoffel as ct
from skewpoly.cli import _residual_size
from skewpoly.families import taus
from skewpoly.moments import gen
from skewpoly.scalars import GaussianRational, exact_div


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
            assert not r1 and not r2, (n, m)


def test_sop_transform_n0_boundary(sys3):
    co = ct.sop_coeffs(sys3, 0, 1)
    assert co.a == 0 and co.b == 0  # P_1(0) = 0 and the boundary tau vanish
    r1, _ = ct.sop_transform_residual(sys3, 0, 1)
    assert not r1


def test_sop_transform_seed_sweep():
    for seed in range(10):
        s = gen("none", 14, seed=100 + seed, require_tau=(3, 2))
        for n in range(3):
            for m in range(2):
                r1, r2 = ct.sop_transform_residual(s, n, m)
                assert not r1 and not r2, (seed, n, m)


def test_corrupted_coefficient_fails(sys3, monkeypatch):
    co = ct.sop_coeffs(sys3, 2, 0)
    bad = ct.SopCoeffs(co.a, co.b + 1, co.c, co.d)
    monkeypatch.setattr(ct, "sop_coeffs", lambda *args: bad)
    r1, _ = ct.sop_transform_residual(sys3, 2, 0)
    assert r1
    assert any(r1.coeff(d) for d in range(1, r1.degree + 1))


def test_psop_transform_zero_residuals(sys3):
    for n in range(7):
        for m in range(3):
            assert not ct.psop_transform_residual(sys3, n, m), (n, m)


def test_psop_transform_n0_boundary(sys3):
    co = ct.psop_coeffs(sys3, 0, 0)
    assert co.eta == 0
    assert not ct.psop_transform_residual(sys3, 0, 0)


def _swap_ef(monkeypatch):
    """Negative control: the multi-component transforms with the roles of
    their E and F coefficients exchanged."""
    coeffs = ct.psop_multi_coeffs

    def swapped(*args):
        co = coeffs(*args)
        return co.replace(e=co.f, f=co.e)
    monkeypatch.setattr(ct, "psop_multi_coeffs", swapped)


def test_psop_multi_component_and_control(sys3, monkeypatch):
    for n in range(3):
        for m in range(2):
            for k in (1, 2, 3):
                r1, r2 = ct.psop_multi_residuals(sys3, n, m, k)
                assert not r1 and not r2, (n, m, k)
    _swap_ef(monkeypatch)
    b1, b2 = ct.psop_multi_residuals(sys3, 2, 0, 1)
    assert b1 or b2


@pytest.mark.parametrize("kind, den_bound", [("rank1skew-multi", 1), ("rank1skew-multi", 3),
                                             ("rank1skew-complex", 1)])
def test_negative_control_residuals_match_the_public_formula(kind, den_bound, monkeypatch):
    """The nonzero residuals of three negative controls -- SOP_CT and PSOP_CT
    with perturbed coefficients, PSOP_CT_MULTI with E and F swapped -- equal,
    coefficient for coefficient and in their report text, the transforms
    written out over the public sop/psop and taus, on integer, rational and
    Gaussian moments."""
    s = gen(kind, 16, components=2, seed=3, den_bound=den_bound, require_tau=(4, 2))
    t = taus(s)
    p, q, tau = t.sop, t.psop, t.tau
    bump = (GaussianRational.of(Fraction(1, 3), Fraction(-2, 5)) if s.beta_bar
            else Fraction(1, 3))

    def check(got, want, where):
        assert [r.coeffs for r in got] == [r.coeffs for r in want], where
        assert [_residual_size([r]) for r in got] == [_residual_size([r]) for r in want]
        return any(got)
    failing = []
    for n in range(3):
        for m in range(2):
            co = ct.sop_coeffs(s, n, m)
            a, b, c, d = co.a + bump, co.b, co.c - bump, co.d
            want = (p(2 * n + 1, m) - a * p(2 * n, m)
                    - (p(2 * n, m + 1) - b * p(2 * n - 2, m + 1)).shift(1),
                    p(2 * n + 2, m) - c * p(2 * n, m)
                    - (p(2 * n + 1, m + 1) - d * p(2 * n, m + 1)).shift(1))
            with monkeypatch.context() as patch:
                patch.setattr(ct, "sop_coeffs", lambda *args: ct.SopCoeffs(a, b, c, d))
                got = ct.sop_transform_residual(s, n, m)
            failing.append(check(got, want, ("SOP_CT", n, m)))
            for k in (1, 2):
                for idx in (2 * n, 2 * n + 1):
                    co = ct.psop_coeffs(s, idx, m, k)
                    xi, eta = co.xi + bump, co.eta - 2 * bump
                    want = (q(idx + 1, m, k) + xi * q(idx, m, k)
                            - (q(idx, m + 1, k) + eta * q(idx - 1, m + 1, k)).shift(1),)
                    with monkeypatch.context() as patch:
                        patch.setattr(ct, "psop_coeffs", lambda *args: ct.PsopCoeffs(xi, eta))
                        got = (ct.psop_transform_residual(s, idx, m, k),)
                    failing.append(check(got, want, ("PSOP_CT", idx, m, k)))
                odd, odd_up = tau(2 * n + 1, m, k), tau(2 * n + 1, m + 1, k)
                e = exact_div(tau(2 * n, m) * odd_up, odd * tau(2 * n, m + 1))
                f = exact_div(tau(2 * n + 2, m) * tau(2 * n - 1, m + 1, k),
                              odd * tau(2 * n, m + 1))
                g = exact_div(odd * tau(2 * n + 2, m + 1), tau(2 * n + 2, m) * odd_up)
                h = exact_div(tau(2 * n + 3, m, k) * tau(2 * n, m + 1),
                              tau(2 * n + 2, m) * odd_up)
                e, f = f, e  # the swap of the control
                want = (q(2 * n + 1, m, k) + e * p(2 * n, m)
                        - (p(2 * n, m + 1) + f * q(2 * n - 1, m + 1, k)).shift(1),
                        p(2 * n + 2, m) + g * q(2 * n + 1, m, k)
                        - (q(2 * n + 1, m + 1, k) + h * p(2 * n, m + 1)).shift(1))
                with monkeypatch.context() as patch:
                    _swap_ef(patch)
                    got = ct.psop_multi_residuals(s, n, m, k)
                failing.append(check(got, want, ("PSOP_CT_MULTI", n, m, k)))
    assert sum(failing) > len(failing) // 2, kind


def test_laurent_toda_and_lv_coefficient():
    for seed in range(5):
        s = gen("laurent", 14, seed=4 + seed, require_tau=(3, 1))
        for n in range(4):
            r1, r2 = ct.laurent_toda_residual(s, n)
            assert not r1 and not r2, (seed, n)
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
    """A transform never sees a float: no moment system can hold one, at
    t = 0 or at any other time."""
    from skewpoly.solitons import SolitonSpec, soliton_system
    spec = SolitonSpec((1.5, 0.5, 2.0, 0.25), ((0, 1, 1.0), (2, 3, 0.5)))
    for t in ((0.2,), (0,)):
        with pytest.raises(ValueError):
            soliton_system(spec, t, 10)
