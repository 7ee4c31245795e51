"""Operator truncations, compatibility residuals, scalar recurrence suites."""

import importlib
import random
from fractions import Fraction

import pytest

from skewpoly import cli, lax, moments
from skewpoly.bilinear import IDENTITIES, identity_residual
from skewpoly.families import taus
from skewpoly.jets import Jet, JetSpec
from skewpoly.moments import MomentSystem, gen
from skewpoly.pfaffian import pf_indexed


J1 = JetSpec(1)


@pytest.fixture(scope="module")
def unconstrained():
    return gen("none", 15, seed=7, require_tau=(5, 1))


@pytest.fixture(scope="module")
def rank2():
    return gen("rank2", 17, seed=91, require_tau=(6, 1))


def _random_jet(rng, lo=-5, hi=5):
    return Jet(J1, {(0,): Fraction(rng.randint(lo, hi)),
                    (1,): Fraction(rng.randint(-4, 4))})


def test_triangular_left_division():
    # A X = b by the bidiagonal recurrence over first-order jets, for lower
    # and upper A, with a unit diagonal or a unit off-diagonal band (None)
    rng = random.Random(0)
    n = 5
    one = [Jet.constant(Fraction(1), J1)] * n
    for lower in (True, False):
        for unit_diag in (True, False):
            for _ in range(4):
                diag = None if unit_diag else [_random_jet(rng, 1, 9) for _ in range(n)]
                off = [_random_jet(rng) for _ in range(n)] if unit_diag else None
                a = lax._bands(n, {0: diag or one, -1 if lower else 1: off or one})
                b = [[_random_jet(rng) for _ in range(n)] for _ in range(n)]
                assert lax._mul(a, lax._solve(diag, off, b, lower)) == b
        diag[2] = Jet(J1, {(1,): Fraction(3)})  # zero value, nonzero derivative
        with pytest.raises(ZeroDivisionError):
            lax._solve(diag, off, b, lower)


def test_truncation_size_guard(unconstrained):
    with pytest.raises(ValueError):
        lax.build_psop_lax(unconstrained, 0, 3)
    with pytest.raises(ValueError):
        lax.lax_compat_residual(unconstrained, "mixed", 0, 4)


def test_wave_action_matches_scalar_recurrence(unconstrained):
    residuals = lax.wave_action_residuals(unconstrained, 0, 6)
    assert not any(residuals)


def test_mixed_compatibility_interior(unconstrained):
    for n_size in (6, 8):
        rep = lax.lax_compat_residual(unconstrained, "mixed", 0, n_size)
        assert rep["interior_zero"], n_size
        assert rep["boundary_nonzero"]  # truncation pollutes the edge


def test_rank2_operator_compatibilities(rank2):
    for kind in ("mixed", "rank2-m", "rank2-n"):
        for n_size in (6, 8):
            rep = lax.lax_compat_residual(rank2, kind, 0, n_size)
            assert rep["interior_zero"], (kind, n_size)


def test_unknown_kind_rejected(unconstrained):
    with pytest.raises(ValueError):
        lax.lax_compat_residual(unconstrained, "bogus", 0, 6)


def test_operator_dump_bands(rank2):
    ops = lax.build_psop_lax(rank2, 0, 6)
    assert set(ops) == {"L", "M", "N", "L1", "L2", "M_evo"}
    m_op = ops["M"]
    # unit superdiagonal of the mixed operator
    assert [m_op[i][i + 1].base for i in range(5)] == [1] * 5
    assert any(m_op[i][i].base for i in range(6))
    assert any(m_op[i + 1][i].base for i in range(5))


def test_mixed_blocks_read_weight_one_data_only(monkeypatch):
    """The LAX_MIXED blocks of a none system take every coefficient jet off
    the tau chains' first-order data: no tau jet in a weight-2 ring, and the
    bidiagonal solves invert no unit diagonal entry."""
    fam = importlib.import_module("skewpoly.families")
    tau_jet, inverse, seen = fam.TauTable.tau_jet, Jet.inverse, []

    def counted_tau_jet(self, idx, m, spec, k=1, conj=False):
        if spec.weight >= 2:
            seen.append(("tau_jet", idx, m, spec))
        return tau_jet(self, idx, m, spec, k, conj)

    def counted_inverse(self):
        if self == 1:
            seen.append(("unit inverse", self))
        return inverse(self)

    monkeypatch.setattr(fam.TauTable, "tau_jet", counted_tau_jet)
    monkeypatch.setattr(Jet, "inverse", counted_inverse)
    s = gen("none", 15, seed=7, require_tau=(5, 1))
    rep = lax.lax_compat_residual(s, "mixed", 0, 6)
    assert rep["interior_zero"] and not seen, seen[:3]


def test_built_operators_kept_on_the_table(rank2):
    ops = lax.build_psop_lax(rank2, 0, 6)
    assert lax.build_psop_lax(rank2, 0, 6) is ops
    assert lax.build_psop_lax(rank2, 1, 6) is not ops
    assert lax.build_psop_lax(rank2, 0, 7) is not ops


def test_c3_suite_zero(rank2):
    s = gen("rank1skew", 22, seed=111, require_tau=(4, 2))
    for m in (0, 1):
        for n in (1, 2, 3):
            res = lax.c3_recurrence_residuals(s, m, n)
            for name, poly in res.items():
                assert not poly, (name, m, n)


def test_c3_beta_zero_degenerate():
    s = MomentSystem(8, {(i, j): Fraction(0) for i in range(8)
                         for j in range(i + 1, 9)},
                     ((Fraction(0),) * 9,), constraint="rank1skew")
    from skewpoly.families import vanishing_taus
    # tau_1 = beta_0 = 0: existence fails
    assert list(vanishing_taus(s, 1, 0))


def test_c3_requires_tag(unconstrained):
    with pytest.raises(ValueError):
        lax.c3_recurrence_residuals(unconstrained, 0, 1)


def test_c3_negative_control():
    s = gen("rank1skew", 22, seed=111, require_tau=(4, 2))
    mu = dict(s.mu)
    mu[(2, 3)] = mu[(2, 3)] + 1
    bad = MomentSystem(s.max_index, mu, s.beta, constraint="rank1skew")
    res = bad and lax.c3_recurrence_residuals(bad, 0, 1)
    assert any(res.values())


def test_c2_suite_zero(rank2):
    for m in (0, 1):
        for n in (1, 2, 3, 4):
            res = lax.c2_evolution_residuals(rank2, m, n)
            for name, poly in res.items():
                assert not poly, (name, m, n)


def test_c2_borders_match_expansion(rank2):
    """The C2 borders Pf(d0, d1, m..m+n, z) (even n) and Pf(d1, m..m+n, z)
    (odd n), which the table reads over z^m off its two C2 chains per shift
    (``TauTable.c2_border``), equal their expansion at every (n, m) of the
    suite's n_max 3 grid."""
    grid = [(p["n"], p["m"]) for p in IDENTITIES["C2_SUITE"].grid(rank2, 3, 1)]
    assert {m for _, m in grid} == {0, 1} and max(n for n, _ in grid) == 6
    for n, m in grid:
        head = ["d0", "d1"] if n % 2 == 0 else ["d1"]
        labels = [*head, *range(m, m + n + 1), "z"]
        border = taus(rank2).c2_border(n, m)
        assert border and border.shift(m) == pf_indexed(labels, rank2), (n, m)


def test_c2_borders_cost_two_chains_per_shift(monkeypatch, tmp_path):
    """The 12 C2 borders of rank2 at n_max 3 (m = 0, 1) come off two chains
    per shift, each built once, on (d0, m, d1, m+1, ...) and (d1, m, m+1,
    ...); no border runs an elimination of its own (``_pf_rows``, the
    elimination with swaps, is never called: no link vanishes)."""
    pf = importlib.import_module("skewpoly.pfaffian")
    fam = importlib.import_module("skewpoly.families")
    rows, chain, swapped, built = pf._pf_rows, fam.pf_chain, [], []
    monkeypatch.setattr(pf, "_pf_rows", lambda a: swapped.append(len(a)) or rows(a))

    def counted_chain(labels, kern, **kwargs):
        if not kwargs.get("jets"):
            built.append(labels[:3])
        return chain(labels, kern, **kwargs)
    monkeypatch.setattr(fam, "pf_chain", counted_chain)
    assert cli.main(["verify", "--kind", "rank2", "--seed", "3", "--n-max", "3",
                     "--identities", "C2_SUITE", "--out", str(tmp_path / "r.json")]) == 0
    d0, d1 = ("shift", 0), ("shift", 1)
    c2 = [head for head in built if d1 in head]
    assert sorted(c2, key=repr) == sorted([[d0, 0, d1], [d0, 1, d1], [d1, 0, 1], [d1, 1, 2]],
                                          key=repr)
    assert not swapped


def test_c2_borders_past_a_stalled_chain():
    """beta_0 beta_2 = beta_1^2 (2, 6, 18) makes Pf(d0, 0, d1, 1) = 0, so the
    even C2 chain at shift 0 stalls at its second link, and its borders for
    n >= 2 come off blocks of the rows the stall left (``_pf_left``), a stall
    no generated system reaches.  Every C2 border at m = 0, 1 and n <= 6
    equals its expansion.  This kills the mutant that divides each block by
    the previous link once per stage, ``(len(pos) + 1) // 2`` times, where
    ``_pf_left`` divides ``(len(pos) - 1) // 2`` times (the
    overlapping-Pfaffian identity): its inexact division raises
    ``ArithmeticError``."""
    rng = random.Random(4)
    top = 9
    beta = [Fraction(b) for b in (2, 6, 18)]
    beta += [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9)) for _ in range(top - 2)]
    s = MomentSystem(top, moments._propagate_rank2(beta, top, rng, 1), (tuple(beta),),
                     constraint="rank2")
    assert not pf_indexed(["d0", 0, "d1", 1], s).coeff(0)
    for m in (0, 1):
        for n in range(1, 7):
            head = ["d0", "d1"] if n % 2 == 0 else ["d1"]
            want = pf_indexed([*head, *range(m, m + n + 1), "z"], s)
            assert taus(s).c2_border(n, m).shift(m) == want, (n, m)


def test_c2_requires_tag(unconstrained):
    with pytest.raises(ValueError):
        lax.c2_evolution_residuals(unconstrained, 0, 1)


def test_rank2_blocks_require_tag(unconstrained):
    """The rank2 operator blocks carry no constraint tag (``ReadPlan.blocks``
    states where they run), so their residual itself rejects another system."""
    for kind, name in (("rank2-m", "LAX_RANK2_M"), ("rank2-n", "LAX_RANK2_N")):
        with pytest.raises(ValueError, match="rank2"):
            lax.lax_compat_residual(unconstrained, kind, 0, 6)
        with pytest.raises(ValueError, match="rank2"):
            identity_residual(unconstrained, name, N=6, m=0)


def test_mixed_identity_any_tag(unconstrained, rank2):
    for sys_ in (unconstrained, rank2):
        for m in (0, 1):
            for n in range(5):
                assert not lax.mixed_residual(sys_, m, n)


def test_psoplax_degree_balance(rank2):
    # both sides of the shifted evolution have degree n before cancellation
    from skewpoly.jets import Jet, JetSpec
    t = taus(rank2)
    n, m = 3, 0
    q = t.psop(n, m, spec=JetSpec(1))
    d1 = q.map_coeffs(lambda c: c.extract(1) if isinstance(c, Jet) else 0)
    c_n = t.dt1_log_tau(n, m) - t.dt1_log_tau(n, m + 1)
    lhs = d1 + c_n * t.psop(n, m)
    assert lhs.degree == n


def test_toda_vars_and_flow():
    s = gen("laurent", 20, seed=13, require_tau=(5, 1))
    for n in (1, 2, 3):
        res = lax.toda_vars_and_residual(s, n)
        for name, val in res.items():
            assert not val, (name, n)
    t = taus(s)
    assert t.toda_b(0) == 0
    assert t.toda_b(1) == t.tau(0, 0) * t.tau(4, 0) / (t.tau(2, 0) ** 2)


def test_toda_vars_requires_tag(unconstrained):
    with pytest.raises(ValueError):
        lax.toda_vars_and_residual(unconstrained, 1)
