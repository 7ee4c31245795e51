"""Schur operators, Hirota derivatives, and the bilinear identity catalog."""

import importlib
import math
import random
import weakref
from fractions import Fraction

import pytest

from skewpoly import bilinear as bl
from skewpoly import hierarchy as hy
from skewpoly import oracle
from skewpoly.families import ReadPlan, taus
from skewpoly.jets import Jet, JetSpec
from skewpoly.moments import MomentSystem, gen
from skewpoly.oracle import pf_labels, pfaffian_expand
from skewpoly.solitons import SolitonSpec, soliton_system

pfaffian_mod = importlib.import_module("skewpoly.pfaffian")


def test_schur_polynomial_values():
    assert hy.schur(0, []) == 1
    assert hy.schur(1, [Fraction(4)]) == 4
    t1, t2 = Fraction(3), Fraction(-2)
    assert hy.schur(2, [t1, t2]) == t2 + t1 * t1 / 2
    # generating function check: coefficient of z^4 in exp(t1 z + t2 z^2)
    t = [Fraction(1, 2), Fraction(1, 3)]
    expected = (Fraction(1, 24) * t[0] ** 4 + Fraction(1, 2) * t[0] ** 2 * t[1]
                + Fraction(1, 2) * t[1] ** 2)
    assert hy.schur(4, t) == expected


@pytest.fixture(scope="module")
def sys2():
    return gen("none", 20, components=2, seed=31, require_tau=(4, 2))


def test_schur_action_trivial_orders(sys2):
    t = taus(sys2)
    assert hy.schur_d_tau(sys2, 0, 4, 0) == t.tau(4, 0)
    jet = t.tau_jet(4, 0, JetSpec(1))
    assert hy.schur_d_tau(sys2, 1, 4, 0) == -jet.extract(1)  # s_1(-Dt) = -d/dt_1
    odd = t.tau_jet(3, 0, JetSpec(2), 2)
    assert hy.schur_d_tau(sys2, 2, 3, 0, comp=2) == odd.schur()[2]
    assert hy.schur_d_tau(sys2, 4, 3, 0, comp=2) == 0  # above idx


# system -> {jet spec: pf_labels memo}; weak keys, since ids are reused
_JET_MEMOS = weakref.WeakKeyDictionary()


def _assert_miwa_matches_jet_oracle(s, idx, m, k=1, conj=False, spec=None):
    """SchurTau's lists against Jet.schur of the weight-(idx+1) tau jet by
    expansion (in ``spec`` and truncated, if given, so one memo serves all idx)."""
    t = taus(s)
    st = hy.SchurTau(t, idx, m, k, conj)
    spec = spec or JetSpec(idx + 1)
    memo = _JET_MEMOS.setdefault(s, {}).setdefault(spec, {})
    jet = pf_labels(t.tau_labels(idx, m, k, conj), s, cache=memo,
                    jet_spec=spec).truncate(JetSpec(idx + 1))
    assert [st.value(j) for j in range(idx + 2)] == jet.schur()
    assert [st.d1(j) for j in range(idx + 1)] == jet.deriv(0).schur()
    assert st.value(idx + 1) == st.d1(idx + 1) == st.value(idx + 5) == 0
    return st


@pytest.mark.parametrize("kind,den_bound", [
    *(pytest.param(kind, 1, id=kind) for kind in ("none", "laurent", "rank2", "rank1skew",
                                                  "rank1skew-multi", "rank1skew-complex")),
    pytest.param("none", 3, id="none-den3")])
def test_miwa_schur_layers_match_jet_oracle(kind, den_bound):
    # the chains are sized as a catalog run at n_max = 3 sizes them (even
    # idx <= 8, odd idx <= 7: the table's sweep of that plan) and read in the
    # catalog's order, smallest first
    s = gen(kind, 18, components=2 if "-" in kind else 1, seed=41, den_bound=den_bound)
    taus(s).sweep(ReadPlan.of(3, 0))
    conjs = (False, True) if s.beta_bar is not None else (False,)
    for idx in range(8):
        for m in (0, 1, 2):
            for k in range(1, s.ell + 1):
                for conj in conjs:
                    _assert_miwa_matches_jet_oracle(s, idx, m, k, conj, JetSpec(8))
    st = hy.SchurTau(taus(s), -1, 0)
    assert st.value(0) == st.d1(0) == 0


def test_miwa_stalled_nodes_need_no_expansion(monkeypatch):
    rng = random.Random(42)

    def system(zero_mu, zero_beta, fixed=(), top=12):
        mu = {(i, j): Fraction(rng.randint(1, 9), rng.randint(1, 3))
              for i in range(top + 1) for j in range(i + 1, top + 1)
              if (i, j) not in zero_mu}
        mu.update(fixed)
        beta = [Fraction(0) if j in zero_beta else Fraction(rng.randint(1, 9))
                for j in range(top + 1)]
        return MomentSystem(top, mu, beta=(tuple(beta),))

    calls, swapped = [], []
    expand, with_swaps = oracle._pf_expand, pfaffian_mod._pf_rows

    def counted(labels, entry, cache):
        calls.append(labels)
        return expand(labels, entry, cache)

    def counted_swaps(a):
        swapped.append(len(a))
        return with_swaps(a)

    def layers(s, idx, m):
        """The Schur layers, built with expansion and the with-swaps
        fallback counted; then the oracle."""
        calls.clear()
        swapped.clear()
        monkeypatch.setattr(oracle, "_pf_expand", counted)
        monkeypatch.setattr(pfaffian_mod, "_pf_rows", counted_swaps)
        hy.SchurTau(taus(s), idx, m)
        monkeypatch.setattr(oracle, "_pf_expand", expand)
        monkeypatch.setattr(pfaffian_mod, "_pf_rows", with_swaps)
        assert not calls  # a nonzero scalar row always holds a unit pivot
        return _assert_miwa_matches_jet_oracle(s, idx, m)
    # mu_{0,1} = mu_{0,2} = mu_{0,3} = 0: row 0 of Pf(0,...,3) is zero at
    # z = 0, where tau_4 vanishes and its t_1 derivative mu_{0,4} mu_{1,2}
    # does not
    s = system({(0, 1), (0, 2), (0, 3)}, ())
    st = layers(s, 4, 0)
    assert st.value(0) == 0 and st.d1(0) != 0
    assert swapped == [4, 4]  # tau_4 and its raised Pfaffian at z = 0
    # tau_4^{(0)}(t - [z]) vanishes identically with t_1 derivative
    # z^3 mu_{2,3} (z mu_{1,5} - mu_{0,5}), and with beta_0..4 = 0
    # tau_3^{(1)}(t - [z]) too, with t_1 derivative -z^3 beta_5 mu_{2,3}
    s = system({(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)}, range(5))
    for idx, m in ((4, 0), (3, 1)):
        st = layers(s, idx, m)
        assert not st.values and st.d1s
    # mu_{0,1} mu_{2,3} - mu_{0,2} mu_{1,3} + mu_{0,3} mu_{1,2} = 0 with
    # mu_{0,1} != 0: at z = 0 the chain of the even idx <= 8 stalls at its
    # second pivot, so tau_4 vanishes there, and tau_6 and tau_8 (with their
    # raised Pfaffians) are eliminated with swaps at that node only, on the
    # rows the stall left: labels 2.. over Pf(0, 1), 4 and 6 of them
    s = system({(0, 3)}, (), {(0, 1): 1, (2, 3): 1, (0, 2): 1, (1, 3): 1}, top=16)
    st = layers(s, 8, 0)
    assert swapped == [4, 4, 6, 6]
    low, mid = (_assert_miwa_matches_jet_oracle(s, idx, 0) for idx in (2, 4))
    assert low.value(0) != 0 and mid.value(0) == 0 and st.value(0) != 0


def test_schur_coefficient_equivalence(sys2):
    # Miwa values vs polynomial coefficients, orders up to six
    for idx in (5, 6):
        for m in (0, 1):
            assert all(d == 0 for d in hy.schur_coeff_defects(sys2, idx, m))
    assert all(d == 0 for d in hy.schur_coeff_defects(sys2, 5, 0, comp=2))


def test_hirota_basics(sys2):
    assert hy.hirota((1, 0), sys2, (4, 0), (4, 0)) == 0  # odd order on equal args
    d1 = hy.hirota((1, 0), sys2, (4, 0), (4, 1))
    t = taus(sys2)
    spec = JetSpec(1)
    f = t.tau_jet(4, 0, spec)
    g = t.tau_jet(4, 1, spec)
    assert d1 == f.extract(1, 0) * g.base - f.base * g.extract(1, 0)


def test_hirota_component_ref_defaults_to_unconjugated_row():
    # (idx, m, k) names component k's own row, as (idx, m, k, False) does
    for kind in ("rank1skew-multi", "rank1skew-complex"):
        s = gen(kind, 12, components=2, seed=3, require_tau=(3, 1))
        for orders in ((1,), (0, 1), (2,)):
            assert (hy.hirota(orders, s, (3, 0, 2), (2, 0))
                    == hy.hirota(orders, s, (3, 0, 2, False), (2, 0)))
            assert (hy.hirota(orders, s, (2, 1), (1, 0, 2))
                    == hy.hirota(orders, s, (2, 1), (1, 0, 2, False)))


def test_hirota_antisymmetry_and_symmetry(sys2):
    assert (hy.hirota((1, 0), sys2, (4, 0), (2, 1))
            == -hy.hirota((1, 0), sys2, (2, 1), (4, 0)))
    assert (hy.hirota((2, 0), sys2, (4, 0), (2, 1))
            == hy.hirota((2, 0), sys2, (2, 1), (4, 0)))


def _float_tau_jet(spec, t, idx, m):
    """tau_idx^{(m)} of the soliton moments at time t as a float
    ``JetSpec(1)`` jet: the expansion (``pfaffian_expand``) of the entries'
    value and t_1 derivative, each read off ``SolitonSpec`` in floats.  The
    moments depend on t genuinely, and d/dt_1 of mu_{i,j} is mu_{i+1,j} +
    mu_{i,j+1} (of beta_j, beta_{j+1}); an odd idx borders the moments with
    the single-moment row of component 1.  The float lane lives here: no
    moment system holds a float."""
    w = [math.exp(th) for th in spec.thetas(t)]
    labels = [None] * (idx % 2) + list(range(m, m + idx))
    if not labels:
        return Jet.constant(1.0, JetSpec(1))

    def entry(i, j):
        if i is None:
            return Jet.first_order(spec.beta_value(1, j, w), spec.beta_value(1, j + 1, w))
        if j is None:
            return -entry(j, i)
        mu = spec.mu_value
        return Jet.first_order(mu(i, j, w), mu(i + 1, j, w) + mu(i, j + 1, w))
    return pfaffian_expand([[entry(i, j) if i != j else Jet.constant(0.0, JetSpec(1))
                             for j in labels] for i in labels])


def _float_tau(spec, t, idx, m):
    """The value of :func:`_float_tau_jet`; 0 for a negative idx."""
    return _float_tau_jet(spec, t, idx, m).base if idx >= 0 else 0.0


def test_hirota_float_finite_difference_oracle():
    """D_t1 and D_t2 of two taus, exact off the shift rule on the soliton
    system at t = 0, against central differences of the float soliton taus
    at t = +-h."""
    f = (Fraction(8, 5), Fraction(7, 10), Fraction(6, 5), Fraction(17, 20),
         Fraction(19, 10), Fraction(11, 20))
    spec = SolitonSpec(f, ((0, 1, Fraction(9, 10)), (2, 3, Fraction(7, 5)),
                           (4, 5, Fraction(3, 5)), (0, 3, Fraction(1, 5))))
    t = (0, 0)
    h = 1e-5

    f_idx, g_idx = (4, 0), (4, 1)
    base = soliton_system(spec, t, 10)
    got_d1 = float(hy.hirota((1, 0), base, f_idx, g_idx))
    got_d2 = float(hy.hirota((0, 1), base, f_idx, g_idx))

    def fd(direction):
        tp = list(t)
        tm = list(t)
        tp[direction] += h
        tm[direction] -= h
        fp = _float_tau(spec, tp, *f_idx) * _float_tau(spec, tm, *g_idx)
        fm = _float_tau(spec, tm, *f_idx) * _float_tau(spec, tp, *g_idx)
        return (fp - fm) / (2 * h)

    assert abs(got_d1 - fd(0)) <= 1e-8 * max(1.0, abs(got_d1))
    assert abs(got_d2 - fd(1)) <= 1e-8 * max(1.0, abs(got_d2))


def test_float_soliton_satisfies_unconstrained_identity():
    # downstream identities hold numerically on genuinely time-dependent data
    spec = SolitonSpec((1.6, 0.7, 1.2, 0.85, 1.9, 0.55, 2.2, 0.45),
                       ((0, 1, 0.9), (2, 3, 1.4), (4, 5, 0.6), (6, 7, 1.1),
                        (0, 3, 0.2), (2, 5, -0.3)),
                       ((0.5, 1.0, -0.7, 0.3, 0.2, 0.8, 0.1, -0.4),))
    t = (0.2, -0.1)
    for n in range(4):
        for m in (0, 1):
            f = _float_tau_jet(spec, t, n, m + 1)
            g = _float_tau_jet(spec, t, n + 1, m)
            lhs = _float_tau(spec, t, n + 2, m) * _float_tau(spec, t, n - 1, m + 1)
            rhs = (hy.hirota_jets((1,), f, g)
                   + _float_tau(spec, t, n, m) * _float_tau(spec, t, n + 1, m + 1))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-10 * scale, (n, m)


def test_derivative_identity(sys2):
    for n in range(4):
        for m in range(3):
            assert not hy.derivative_residual(sys2, 2 * n, m)
    with pytest.raises(ValueError):
        hy.derivative_residual(sys2, 3, 0)


def test_dkp_catalog(sys2):
    for n in (1, 2):
        for m in (0, 1):
            for l in range(2 * n):
                assert all(v == 0 for v in
                           bl.identity_residual(sys2, "DKP", n=n, m=m, l=l))


def test_pfaff_first(sys2):
    for n in (1, 2, 3):
        for m in (0, 1):
            assert all(v == 0 for v in
                       bl.identity_residual(sys2, "PFAFF_FIRST", n=n, m=m))


def test_bkp_large_and_glv_specialization(sys2):
    for n in (0, 1, 2):
        for k in (1, 2):
            for l1 in range(2 * n + 1):
                r = bl.identity_residual(sys2, "BKP_LARGE", n=n, m=0, k=k,
                                         l1=l1, l2=2 * n + 1)
                assert all(v == 0 for v in r)
            bkp = bl.identity_residual(sys2, "BKP_LARGE", n=n, m=0, k=k,
                                       l1=2 * n, l2=2 * n + 1)
            g1 = bl.identity_residual(sys2, "GLV1", n=n, m=0, k=k)
            g2 = bl.identity_residual(sys2, "GLV2", n=n, m=0, k=k)
            assert bkp[0] == g1[0] and bkp[1] == g2[0]


def test_glv_unified(sys2):
    for n in range(6):
        for m in (0, 1):
            assert all(v == 0 for v in bl.identity_residual(sys2, "GLV", n=n, m=m))


def test_laurent_identities():
    s = gen("laurent", 16, seed=41, require_tau=(3, 1))
    for n in (1, 2, 3):
        assert all(v == 0 for v in bl.identity_residual(s, "TODA_BILINEAR", n=n))
        for l in range(2 * n):
            assert all(v == 0 for v in bl.identity_residual(s, "TODA_1D", n=n, l=l))
        # first member of the reduced hierarchy carries the same content
        assert bl.identity_residual(s, "TODA_1D", n=n, l=2 * n - 1)[0] == 0
    for n in range(1, 6):
        assert all(v == 0 for v in bl.identity_residual(s, "LV", n=n))


def test_rank2_identities():
    s = gen("rank2", 18, seed=51, require_tau=(4, 2))
    for n in range(1, 6):
        for m in (0, 1):
            assert all(v == 0 for v in bl.identity_residual(s, "BTODA", n=n, m=m))
            assert all(v == 0 for v in
                       bl.identity_residual(s, "BTODA_BACKLUND", n=n, m=m))


def test_rank1skew_identities():
    s = gen("rank1skew", 18, seed=61, require_tau=(4, 2))
    for m in (0, 1):
        for n in range(4):
            assert all(v == 0 for v in bl.identity_residual(s, "EVOD", n=n, m=m))
        for n in range(1, 5):
            assert all(v == 0 for v in bl.identity_residual(s, "MKDV", n=n, m=m))


def test_multi_component_and_complex_reductions():
    s4 = gen("rank1skew-multi", 18, components=3, seed=71, require_tau=(3, 1))
    for n in (0, 1, 2):
        for k in (1, 2, 3):
            assert all(v == 0 for v in
                       bl.identity_residual(s4, "CMKDV", n=n, m=0, k=k))
    s5 = gen("rank1skew-complex", 18, components=2, seed=81, require_tau=(3, 1))
    for n in (0, 1):
        for k in (1, 2):
            assert all(v == 0 for v in
                       bl.identity_residual(s5, "VNLS", n=n, m=0, k=k))


def test_tag_mismatch_raises(sys2):
    with pytest.raises(ValueError):
        bl.identity_residual(sys2, "LV", n=1)
    s2 = gen("rank2", 12, seed=51, require_tau=(2, 1))
    with pytest.raises(ValueError):
        bl.identity_residual(s2, "LV", n=1)


def test_corrupted_moment_breaks_constrained_catalog():
    # the unconstrained identities hold for any shift-evolved moment table,
    # so fault injection must target a constrained family
    s = gen("rank1skew", 16, seed=61, require_tau=(3, 1))
    mu = dict(s.mu)
    mu[(1, 2)] = mu[(1, 2)] + 1
    bad = MomentSystem(s.max_index, mu, s.beta, constraint="rank1skew")
    broken = []
    for n in (0, 1, 2):
        broken.extend(bl.identity_residual(bad, "EVOD", n=n, m=0))
        broken.extend(bl.identity_residual(bad, "MKDV", n=n + 1, m=0))
    assert any(v != 0 for v in broken)


def test_boundary_indices_in_catalog(sys2):
    # n = 0 instances exercise the zero conventions for negative tau indices
    assert all(v == 0 for v in
               bl.identity_residual(sys2, "BKP_LARGE", n=0, m=0, k=1, l1=0, l2=0))
    assert all(v == 0 for v in bl.identity_residual(sys2, "GLV", n=0, m=0))


def test_identity_names_cover_catalog():
    names = bl.identity_names()
    for required in ("DKP", "PFAFF_FIRST", "TODA_1D", "TODA_BILINEAR",
                     "BKP_LARGE", "GLV1", "GLV2", "GLV", "LV", "BTODA",
                     "BTODA_BACKLUND", "MKDV", "EVOD", "CMKDV", "VNLS"):
        assert required in names


def test_float_mode_quarantined():
    """No moment system holds a float, so no identity can see one: the
    soliton moments are exact at t = 0 only, and a float moment is refused
    in every mode."""
    spec = SolitonSpec((1.5, 0.5), ((0, 1, 1.0),))
    with pytest.raises(ValueError):
        soliton_system(spec, (0.1,), 8)
    with pytest.raises(ValueError):
        soliton_system(spec, (0,), 8)  # float nodes give float moments
    for mode in ("exact", "gauss", "float"):
        with pytest.raises(ValueError):
            MomentSystem(3, {(0, 1): 0.5}, mode=mode)
