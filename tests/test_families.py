"""Tau table, polynomial families, skew inner product, defect determinant."""

import gc
import importlib
import random
import weakref
from fractions import Fraction

import pytest

from skewpoly import cli, moments
from skewpoly.bilinear import SchurTau, identity_residual
from skewpoly.families import (ReadPlan, TauTable, orthogonality_defects,
                               orthogonality_determinant, psop_inner_defects,
                               skew_gram, skew_inner, sop, sop_at_zero, psop, tau,
                               taus, vanishing_taus)
from skewpoly.jets import NOT_A_UNIT, Jet, JetSpec, TruncationError
from skewpoly.moments import MomentSystem, OutOfRangeError, gen
from skewpoly.pfaffian import det_bareiss, pf_indexed, pf_labels
from skewpoly.poly import PolyInZ
from skewpoly.scalars import GaussianRational, exact_div


@pytest.fixture(scope="module")
def sys3():
    return gen("none", 16, components=3, seed=11, require_tau=(4, 3))


def test_tau_trivial_values(sys3):
    t = taus(sys3)
    assert t.tau(0, 5) == 1
    assert t.tau(-2, 1) == 0 and t.tau(-1, 0) == 0
    assert t.tau(2, 1) == sys3.mu_entry(1, 2)
    mu = sys3.mu_entry
    assert t.tau(4, 0) == (mu(0, 1) * mu(2, 3) - mu(0, 2) * mu(1, 3)
                           + mu(0, 3) * mu(1, 2))
    assert t.tau(1, 0) == sys3.beta_entry(1, 0)


def test_family_basics(sys3):
    t = taus(sys3)
    for m in range(3):
        assert t.sop(0, m) == PolyInZ([Fraction(1)])
        assert t.sop(1, m) == PolyInZ([0, Fraction(1)])
        for idx in range(8):
            p = t.sop(idx, m)
            assert p.degree == idx and p.coeffs[-1] == 1
            for k in (1, 2, 3):
                q = t.psop(idx, m, k)
                assert q.degree == idx and q.coeffs[-1] == 1
                if idx % 2 == 0:
                    assert q == p  # even members coincide


def test_even_sop_against_orthogonality_solve(sys3):
    # oracle: solve the linear system <P_2, z^i> = 0 directly
    mu = sys3.mu_entry
    a = -mu(0, 2) / mu(0, 1)
    b = mu(1, 2) / mu(0, 1)
    assert sop(sys3, 2, 0) == PolyInZ([b, a, Fraction(1)])


def test_sop_at_zero_closed_forms(sys3):
    t = taus(sys3)
    assert sop_at_zero(sys3, 0, 2) == 1
    assert sop_at_zero(sys3, 1, 1) == 0
    assert sop_at_zero(sys3, 2, 0) == t.tau(2, 1) / t.tau(2, 0)
    for idx in range(8):
        for m in range(3):
            assert sop_at_zero(sys3, idx, m) == sop(sys3, idx, m)(Fraction(0))


def test_skew_inner_basics(sys3):
    z = PolyInZ([0, Fraction(1)])
    one = PolyInZ([Fraction(1)])
    assert skew_inner(sys3, one, z) == sys3.mu_entry(0, 1)
    f = sop(sys3, 3, 1)
    assert skew_inner(sys3, f, f) == 0


def naive_inner(sys, f, g):
    """The per-pair double loop over public coefficients: skew_gram's oracle."""
    total = 0
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            if a and b:
                total = total + a * b * sys.mu_entry(i, j)
    return total


def test_skew_gram_matches_the_per_pair_loop():
    rng = random.Random(23)

    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    draws = {"int": lambda: rng.randint(-6, 6), "fraction": frac,
             "gaussian rational": lambda: GaussianRational(frac(), frac()),
             "gaussian integer": lambda: GaussianRational(rng.randint(-6, 6),
                                                          rng.randint(-6, 6))}
    # integer, rational (den_bound=3) and Gaussian moments
    for s in (gen("none", 12, seed=5), gen("none", 12, seed=5, den_bound=3),
              gen("rank1skew-complex", 12, components=2, seed=5)):
        for name, draw in draws.items():
            fs, gs = ([PolyInZ([draw() for _ in range(rng.randint(0, 13))])
                       for _ in range(count)] for count in (4, 3))
            gram = skew_gram(s, fs, gs)
            assert gram == [[naive_inner(s, f, g) for g in gs] for f in fs], name
            assert any(v for row in gram for v in row), name
            assert skew_inner(s, fs[0], gs[-1]) == gram[0][-1]


def test_sop_orthogonality_reports_a_corrupted_member(monkeypatch):
    """The ORTHOGONALITY residuals vanish for any moment table, so --corrupt
    cannot reach them: a corrupted P_3^{(0)} must, with the residuals the
    per-pair loop gives."""
    s = gen("none", 16, seed=7, require_tau=(3, 1))
    member = TauTable._member

    def corrupted(self, idx, m, k=None, conj=False):
        num, den = member(self, idx, m, k, conj)
        if (idx, m, k) == (3, 0, None):  # the cleared form of P_3^{(0)} + 1
            num = [num[0] + den, *num[1:]]
        return num, den
    # the identities and the public sop both read members through _member
    monkeypatch.setattr(TauTable, "_member", corrupted)
    t = taus(s)
    ps = [t.sop(a, 0) for a in range(6)]
    oracle = []
    for a in range(6):
        for b in range(6):
            closed = 0
            if a % 2 == 0 and b == a + 1:
                closed = t.tau(a + 2, 0) / t.tau(a, 0)
            elif a % 2 == 1 and a == b + 1:
                closed = -t.tau(b + 2, 0) / t.tau(b, 0)
            oracle.append(naive_inner(s, ps[a], ps[b]) - closed)
    got = identity_residual(s, "SOP_ORTHOGONALITY", m=0, max_degree=5)
    assert got == oracle and any(got)
    entry, = [e for e in cli.run_verification(s, 2, 1, "SOP_ORTHOGONALITY")
              if e["params"]["m"] == 0]
    assert entry["status"] == "fail"
    assert entry["residual_max_abs_or_zero"] == cli._residual_size(oracle)


def test_skew_orthogonality_all_pairs(sys3):
    for m in range(4):
        defects = orthogonality_defects(sys3, m, 7)  # pairs (ia, ib), row by row
        assert len(defects) == 64
        for pos, d in enumerate(defects):
            assert d == 0, (*divmod(pos, 8), m)


def test_psop_inner_products(sys3):
    for m in range(3):
        for k in (1, 2, 3):
            # n < 3, i < 2n + 2, members 2n and 2n + 1
            defects = psop_inner_defects(sys3, m, k, 2)
            assert len(defects) == sum(2 * (2 * n + 2) for n in range(3))
            assert all(d == 0 for d in defects), (m, k)


def test_defect_determinant_vanishes(sys3):
    for n in range(3):
        for choice in ("sop", "psop"):
            assert orthogonality_determinant(sys3, n, choice) == 0


def _determinant_oracle(s, n, choice, k=1):
    """The (n, choice) consistency determinant as its own (2n+2)-square
    matrix of public moments, by ``det_bareiss`` with swaps."""
    t = taus(s)
    if choice == "sop":
        alpha = {2 * n: -exact_div(t.tau(2 * n + 2, 0), t.tau(2 * n, 0))}
    else:
        ratio = exact_div(t.tau(2 * n + 2, 0), t.tau(2 * n + 1, 0, k))
        alpha = {i: -s.beta_entry(k, i) * ratio for i in range(2 * n + 2)}
    return det_bareiss([[s.mu_entry(c, r) for c in range(2 * n + 1)]
                        + [s.mu_entry(2 * n + 1, r) - alpha.get(r, 0)]
                        for r in range(2 * n + 2)])


def test_defect_determinants_come_off_one_elimination(monkeypatch):
    """DEFECT_DETERMINANT's instances share their first 2n+1 columns, and in
    row pairs (1, 0, 3, 2, ...) each n's rows lead the next's: on a swept
    table one elimination per k gives every n <= n_max and both choices.
    Past a zero pivot (tau_2^{(0)} = 0, or tau_4^{(0)} = 0) each n left
    takes an elimination of its own, so a grid never takes more than n_max
    + 1.  Every value equals its own square determinant, and a vanishing
    closed form raises as that one does; with tau_idx read as idx tau_idx,
    so that the closed forms no longer hold, the generic system's values
    past n = 0 are nonzero."""
    pf, fam = (importlib.import_module(f"skewpoly.{name}") for name in ("pfaffian", "families"))
    bareiss, tau, runs = pf._bareiss, TauTable.tau, []

    def counted(m, swaps):
        runs.append(len(m))
        return bareiss(m, swaps)
    monkeypatch.setattr(pf, "_bareiss", counted)
    monkeypatch.setattr(fam, "_bareiss", counted)
    n_max = 3
    plan = ReadPlan.of(n_max, 1)
    base = gen("none", plan.max_index, components=2, seed=3, require_tau=plan.tau_grid)
    mu = base.mu
    tau4_zero = (mu[0, 2] * mu[1, 3] - mu[0, 3] * mu[1, 2]) / mu[0, 1]
    cases = [(base, 1), (base.replace(mu={**mu, (0, 1): 0 * mu[0, 1]}), n_max + 1),
             (base.replace(mu={**mu, (2, 3): tau4_zero}), n_max)]
    for case, (s, eliminations) in enumerate(cases):
        for scaled in (False, True):
            s = s.replace()
            taus(s).sweep(plan)
            assert case or all(taus(s).tau(2 * j, 0) for j in range(1, n_max + 2))
            if scaled:
                monkeypatch.setattr(TauTable, "tau", lambda self, idx, *rest:
                                    max(idx, 1) * tau(self, idx, *rest))
            for k in (1, 2):
                wants = {}
                for n in range(n_max + 1):
                    for choice in ("sop", "psop"):
                        try:
                            wants[n, choice] = _determinant_oracle(s, n, choice, k)
                        except ZeroDivisionError as exc:
                            wants[n, choice] = exc
                runs.clear()
                for (n, choice), want in wants.items():
                    if isinstance(want, ZeroDivisionError):
                        with pytest.raises(ZeroDivisionError) as raised:
                            orthogonality_determinant(s, n, choice, k)
                        assert str(raised.value) == str(want), (case, n, choice)
                    else:
                        got = orthogonality_determinant(s, n, choice, k)
                        assert got == want and (case or n == 0 or bool(got) == scaled), \
                            (case, n, choice, k, got)
                assert runs[0] == 2 * n_max + 2 and len(runs) == eliminations, (case, runs)
            monkeypatch.setattr(TauTable, "tau", tau)


def test_psop_q1_example(sys3):
    q1 = psop(sys3, 1, 0)
    assert q1 == PolyInZ([-sys3.beta_entry(1, 1) / sys3.beta_entry(1, 0),
                          Fraction(1)])


def test_laurent_family_invariance():
    s = gen("laurent", 12, seed=9, require_tau=(3, 2))
    t = taus(s)
    for idx in range(6):
        for m in range(2):
            assert t.sop(idx, m) == t.sop(idx, m + 1)
            assert t.tau(idx, m) == t.tau(idx, m + 1)
            assert t.psop(idx, m) == t.psop(idx, m + 1)


def test_vanishing_normalizer_raises():
    from skewpoly.moments import MomentSystem
    s = MomentSystem(6, {(i, j): Fraction(0) for i in range(6)
                         for j in range(i + 1, 7)}, ((Fraction(1),) * 7,))
    with pytest.raises(ZeroDivisionError):
        sop(s, 2, 0)


def test_members_convert_once_on_first_read(monkeypatch):
    """A chain keeps its spectral rows as the elimination leaves them, so a
    chain no public reader touches converts no row; a row read through sop
    is converted on its first read only, and the same object comes back."""
    fam = importlib.import_module("skewpoly.families")
    conversions, q = [], fam._q
    monkeypatch.setattr(fam, "_q", lambda x, den=1: conversions.append(x) or q(x, den))
    for kind in ("none", "rank1skew-complex"):
        t = taus(gen(kind, 12, components=2 if "-" in kind else 1, seed=3))
        loop = int if kind == "none" else GaussianRational
        t.build_chains(3, 0)
        t.build_chains(3, 1)
        rows = [got(r) for (m, head, jets), (last, (_, _, got, _)) in t._chains.items()
                if not jets for r in range(len(head) + last - m + 1)]
        assert rows and all(type(den) is int and all(type(c) in (int, loop) for c in num)
                            for num, den in rows), kind
        assert not conversions, kind
        p = t.sop(4, 0)
        assert len(conversions) == len(t._member(4, 0)[0]) and p.degree == 4, kind
        conversions.clear()
        assert t.sop(4, 0) is p and t.psop(4, 0) is p and not conversions, kind


def test_jet_members_reduce_to_scalar_members(sys3):
    t = taus(sys3)
    spec = JetSpec(1)
    for idx in range(6):
        assert t.sop(idx, 1, spec).map_coeffs(lambda c: c.base) == t.sop(idx, 1)
        assert (t.psop(idx, 1, 2, spec=spec).map_coeffs(lambda c: c.base)
                == t.psop(idx, 1, 2))


def test_tau_table_freed_with_its_system():
    s = gen("none", 8, seed=1)
    assert taus(s) is taus(s)
    taus(s).tau(4, 0)
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


def test_rejected_draws_freed_without_the_collector(monkeypatch):
    # a rejected draw and its TauTable refer to each other, so gen breaks the
    # cycle itself: with the cyclic collector off, the draw still dies
    draws = []
    once = moments._gen_once

    def kept(*args):
        s = once(*args)
        draws.append(weakref.ref(s))
        return s
    monkeypatch.setattr(moments, "_gen_once", kept)
    gc.disable()
    try:
        s = gen("none", 35, seed=3, require_tau=(9, 2))
        assert len(draws) == 2
        assert draws[0]() is None and draws[1]() is s
    finally:
        gc.enable()


def test_tau_via_module_function(sys3):
    assert tau(sys3, 2, 0) == sys3.mu_entry(0, 1)
    assert tau(sys3, 3, 0, k=2) is not None


def _tau_and_d1(t, ref):
    j = t.tau_jet(ref[0], ref[1], JetSpec(2))
    return j.base, j.extract(1)


def _quotient_rule(t, num, den):
    """(prod num / prod den, its d/dt_1) by the product and quotient rules."""
    def product(refs):
        v, d = 1, 0
        for ref in refs:
            a, da = _tau_and_d1(t, ref)
            v, d = v * a, d * a + v * da
        return v, d
    (n, dn), (d, dd) = product(num), product(den)
    return exact_div(n, d), exact_div(dn * d - n * dd, d * d)


def _logd_diff(t, plus, minus):
    """(logd(plus) - logd(minus), its d/dt_1) from f'/f and (f'' f - f'^2)/f^2."""
    out = [Fraction(0), Fraction(0)]
    for sign, (idx, m) in ((1, plus), (-1, minus)):
        j = t.tau_jet(idx, m, JetSpec(2))
        f, df, ddf = j.base, j.extract(1), j.extract(2)
        out[0] += sign * exact_div(df, f)
        out[1] += sign * exact_div(ddf * f - df * df, f * f)
    return tuple(out)


@pytest.mark.parametrize("kind", ["none", "rank2", "laurent", "rank1skew",
                                  "rank1skew-complex"])
def test_coefficient_jets_match_scalars_and_quotient_rule(kind):
    """Every weight-1 coefficient jet, off the per-tau log-derivative memo,
    against the product and quotient rules on the expansion-free weight-2
    tau jets, its value against the scalar coefficient; Gaussian taus for
    the complex kind, whose conjugate-row memo is checked against f'/f too."""
    s = gen(kind, 16, seed=5, require_tau=(5, 2))
    t = taus(s)
    for m in (0, 1):
        for idx in range(1, 8):
            for conj in (False, True) if s.beta_bar else (False,):
                j = t.tau_jet(idx, m, JetSpec(2), 1, conj)
                assert t._logd(idx, m, 1, conj) == (j.base, j.extract(1),
                                                    exact_div(j.extract(1), j.base),
                                                    j.extract(2), j.extract(0, 1))
    J1 = JetSpec(1)
    for m in (0, 1):
        for n in range(6):
            oracles = {
                "k_coeff": _logd_diff(t, (n + 1, m), (n, m)),
                "j_coeff": _quotient_rule(t, [(n + 2, m), (n - 1, m)],
                                          [(n, m), (n + 1, m)]),
                "i_coeff": _quotient_rule(t, [(n + 1, m), (n - 1, m)],
                                          [(n, m), (n, m)]),
                "c_coeff": _logd_diff(t, (n, m), (n, m + 1)),
                "xi": _quotient_rule(t, [(n, m), (n + 1, m + 1)],
                                     [(n + 1, m), (n, m + 1)]),
                "eta": _quotient_rule(t, [(n + 2, m), (n - 1, m + 1)],
                                      [(n + 1, m), (n, m + 1)]),
            }
            for name, (value, d1) in oracles.items():
                jet = getattr(t, name)(n, m, spec=J1)
                assert jet.spec == J1
                assert jet.base == getattr(t, name)(n, m) == value, (name, n, m)
                assert jet.extract(1) == d1, (name, n, m)
    for n in range(4):
        for name, (value, d1) in {
                "toda_b": _quotient_rule(t, [(2 * n - 2, 0), (2 * n + 2, 0)],
                                         [(2 * n, 0), (2 * n, 0)]),
                "toda_c": _logd_diff(t, (2 * n + 2, 0), (2 * n, 0))}.items():
            jet = getattr(t, name)(n, spec=J1)
            assert jet.base == getattr(t, name)(n) == value, (name, n)
            assert jet.extract(1) == d1, (name, n)


KINDS = ["none", "laurent", "rank2", "rank1skew", "rank1skew-multi",
         "rank1skew-complex"]
J1 = JetSpec(1)


def _public(x) -> bool:
    """A Fraction, a GaussianRational over Fractions, or a jet of those; or
    the int 0 of an expansion whose every term vanished."""
    if isinstance(x, Jet):
        return all(map(_public, x.coeffs.values()))
    if isinstance(x, GaussianRational):
        return type(x.re) is type(x.im) is Fraction
    return type(x) is Fraction or (type(x) is int and x == 0)


def _expansion_oracle(t, sys, m, top):
    """Every tau link, tau jet of weight 1 and 2 and scalar and first-order
    jet family member of shift m up to index ``top`` against memoized
    expansion with its own memos; each is of a public type, never an int or
    a float.  The jet members up to index 7 come off the first-order
    chains, past a stalled link too."""
    memo, jet_memos = {}, {1: {}, 2: {}}
    conjs = (False, True) if sys.beta_bar is not None else (False,)
    rows = [(k, conj) for k in range(1, sys.ell + 1) for conj in conjs]
    for idx in range(1, top + 1):
        for k, conj in rows:
            labels = TauTable.tau_labels(idx, m, k, conj)
            val = t.tau(idx, m, k, conj)
            assert val == pf_labels(labels, sys, cache=memo) and _public(val)
            for w, jet_memo in jet_memos.items():
                jet = t.tau_jet(idx, m, JetSpec(w), k, conj)
                assert jet == pf_labels(labels, sys, cache=jet_memo,
                                        jet_spec=JetSpec(w)) and _public(jet), w
    for idx in range(top + 1):
        n2 = idx - idx % 2
        members = [(t.sop, (idx, m), [*range(m, m + n2), m + n2 + idx % 2, "z"],
                    range(m, m + n2))]
        if idx % 2:
            members += [(t.psop, (idx, m, k, conj),
                         [("cbar" if conj else "comp", k), *range(m, m + idx + 1), "z"],
                         TauTable.tau_labels(idx, m, k, conj)) for k, conj in rows]
        for member, args, labels, norm_labels in members:
            norm = pf_labels(norm_labels, sys, cache=memo)
            if not norm:
                for spec in (None, J1):
                    with pytest.raises(ZeroDivisionError):
                        member(*args, spec=spec)
                continue
            raw = pf_indexed(labels, sys, cache=memo)
            got = member(*args)
            assert got.shift(m) == raw / norm, (member, args)
            assert all(map(_public, got.coeffs)), (member, args)
            if idx > 7:  # the jet expansion costs too much past 9 labels
                continue
            inv = pf_labels(norm_labels, sys, cache=jet_memos[1], jet_spec=J1).inverse()
            raw = pf_indexed(labels, sys, cache=jet_memos[1], jet_spec=J1)
            got = member(*args, spec=J1)
            assert got.shift(m) == raw.map_coeffs(lambda c: c * inv), (member, args)
            assert all(isinstance(c, Jet) and _public(c) for c in got.coeffs), (member, args)
            assert member(*args, spec=J1) is got


def test_tau_chains_match_expansion():
    # 200 unconditioned systems (some taus vanish and stall their chain):
    # every (kind, m) pair up to link 11, then up to links 1..7 in turn, the
    # complex kind with one and with two components; then 30 systems of
    # rational moments (den_bound 3), which the loop reads scaled to ints
    for i in range(230):
        kind, m, top = KINDS[i % 6], (i // 6) % 3, 11 if i < 18 else 1 + i % 7
        comps = {"rank1skew-multi": 2, "rank1skew-complex": 1 + (i // 6) % 2}
        sys = gen(kind, m + top + 1, components=comps.get(kind, 1), seed=i,
                  den_bound=3 if i >= 200 else 1)
        _expansion_oracle(TauTable(sys), sys, m, top)
    # the chains gen's nonzero-tau scan leaves on the system's own table,
    # spectral rows included, read as they are: nothing grows or is rebuilt
    for i, kind in enumerate(KINDS):
        n_max, m_max = 2 + i % 2, 1 + i % 2
        sys = gen(kind, 2 * n_max + m_max + 2, seed=i,
                  components=2 if kind.startswith("rank1skew-") else 1,
                  require_tau=(n_max, m_max))
        t = taus(sys)
        built = {key: got for key, got in t._chains.items() if not key[2]}  # scalar
        for m in range(m_max + 1):
            _expansion_oracle(t, sys, m, 2 * n_max - 1)
        assert {key for key in t._chains if not key[2]} == built.keys(), kind
        assert all(t._chains[key] is got for key, got in built.items()), kind


def test_rational_moments_run_in_ints(monkeypatch):
    """Moments with denominators enter the loop scaled by the lcm of all
    their denominators: every pivot of the tau chains, the Miwa chains and
    the Gram product is an int (a GaussianRational with int parts for a
    Gaussian kind), and the values leave divided by their power of the
    scale, equal to expansion."""
    pf = importlib.import_module("skewpoly.pfaffian")
    stages, pivots = pf._stages, []

    def recorded(a, swaps):
        for p, odd in stages(a, swaps):
            pivots.append(p)
            yield p, odd
    monkeypatch.setattr(pf, "_stages", recorded)

    def kernel_type(x):  # a Gaussian value's type with the types of its parts
        return (type(x), type(x.re), type(x.im)) if isinstance(x, GaussianRational) else type(x)
    for kind, kernel in (("none", int), ("rank1skew-complex", (GaussianRational, int, int))):
        s = gen(kind, 12, components=2 if "-" in kind else 1, seed=7, den_bound=3)
        t = taus(s)
        assert t.kernel().scale > 1
        pivots.clear()
        for idx in range(1, 8):
            labels = TauTable.tau_labels(idx, 1, 2 if s.ell > 1 else 1, False)
            assert t.tau(idx, 1, 2 if s.ell > 1 else 1) == pf_labels(labels, s)
            SchurTau(t, idx, 1)
        assert pivots and {kernel_type(p) for p in pivots} <= {int, kernel}, kind
        gram = skew_gram(s, [t.sop(4, 0)], [t.sop(5, 0)])
        assert gram[0][0] == exact_div(t.tau(6, 0), t.tau(4, 0))


def test_gaussian_values_leave_the_kernel_public():
    """A kernel Gaussian integer (int parts) has the public type, so only
    _q keeps it inside: every tau, tau jet, scalar and jet family member,
    Schur layer, Gram entry and consistency determinant of a complex system,
    integral or rational, holds Fraction parts; ints are boundary values."""
    def leaked(x):
        if isinstance(x, Jet):
            return any(map(leaked, x.coeffs.values()))
        if isinstance(x, GaussianRational):
            return not type(x.re) is type(x.im) is Fraction
        return not (type(x) is Fraction or type(x) is int and x in (0, 1))
    spec = JetSpec(2)
    for den_bound in (1, 3):
        s = gen("rank1skew-complex", 12, components=2, seed=3, den_bound=den_bound,
                require_tau=(3, 1))
        t, vals = taus(s), []
        for m in range(2):
            for idx in range(8):
                for k, conj in ((1, False), (2, True)):
                    layers = SchurTau(t, idx, m, k, conj)
                    vals += [t.tau(idx, m, k, conj), t.tau_jet(idx, m, spec, k, conj),
                             *layers.values.coeffs, *layers.d1s.coeffs]
                    if idx < 6:
                        vals += [c for f in (t.psop(idx, m, k, conj),
                                             t.psop(idx, m, k, conj, J1))
                                 for c in f.coeffs]
            vals += [c for idx in range(6) for c in t.sop(idx, m, J1).coeffs]
        fs = [t.sop(a, 0) for a in range(6)]
        vals += [x for row in skew_gram(s, fs, fs) for x in row]
        vals += [orthogonality_determinant(s, n, choice, k)
                 for n in (1, 2) for choice in ("sop", "psop") for k in (1, 2)]
        assert len(vals) > 300 and not [v for v in vals if leaked(v)], den_bound


def test_scalar_reads_past_max_index_raise():
    """A scalar tau or member whose labels pass max_index has no chain; its
    elimination reads the entries through the range-checked entry rules."""
    t = TauTable(gen("none", 6, seed=1))
    assert t.tau(6, 0) and t.sop(6, 0)
    with pytest.raises(OutOfRangeError):
        t.tau(8, 0)
    with pytest.raises(OutOfRangeError):
        t.sop(7, 0)


def test_reads_past_a_chains_reach_stay_in_range():
    """tau_8^{(2)} of a max_index 10 system has no chain (its ``tops`` read
    label 11): its weight-1 data read labels up to 10, and only its weight-2
    data, which read label 11, raise."""
    t = TauTable(gen("none", 10, seed=3))
    assert t.dt1_log_tau(8, 2) == Fraction(-971, 538)
    jet = t.tau_jet(8, 2, J1)
    assert (jet.base, jet.extract(1)) == (1076, -1942)
    with pytest.raises(OutOfRangeError):
        t.tau_jet(8, 2, JetSpec(2))
    with pytest.raises(OutOfRangeError):
        t.dt1_log_tau(8, 2, spec=J1)
    for idx in range(9):
        assert t.tau_jet(idx, 2, JetSpec(0)) == Jet.constant(t.tau(idx, 2), JetSpec(0))


def test_tau_table_serves_only_the_catalog_rings():
    """Tau jets stop at weight 2 and jet members at weight 1, the rings the
    catalog reads; the expansion oracle still computes any weight."""
    s = gen("none", 12, seed=3)
    t = TauTable(s)
    with pytest.raises(TruncationError):
        t.tau_jet(4, 0, JetSpec(3))
    with pytest.raises(TruncationError):
        t.sop(3, 0, JetSpec(2))
    jet = pf_labels(TauTable.tau_labels(4, 0, 1, False), s, jet_spec=JetSpec(3))
    assert jet.spec == JetSpec(3) and jet.truncate(JetSpec(2)) == t.tau_jet(4, 0, JetSpec(2))


def _stalled_system():
    """tau_2^(0) = mu_01 = 0 with tau_4^(0) != 0, and tau_1^(0) = beta_0 = 0
    for component 1 only."""
    base = gen("none", 12, components=2, seed=21)
    mu = dict(base.mu)
    mu[(0, 1)] = Fraction(0)
    return MomentSystem(12, mu, ((Fraction(0),) + base.beta[0][1:], base.beta[1]))


def test_coefficient_jets_across_a_vanishing_tau_raise():
    """A first-order coefficient jet divides by its taus' jets, so one whose
    denominator holds a vanishing tau raises ``NOT_A_UNIT``: k_coeff across
    tau_2^(0) = 0, read off the tau records past the stall."""
    t = TauTable(_stalled_system())
    assert t.tau(2, 0) == 0 and t.tau(3, 0) != 0
    for n in (1, 2):
        with pytest.raises(ZeroDivisionError, match=NOT_A_UNIT):
            t.k_coeff(n, 0, J1)


def test_tau_records_at_max_index_hold_weight_one():
    """At m + idx = max_index the chain ends at label M + 1, so a tau's
    record holds tau and tau' but no tau'' or d/dt_2 tau: the first-order
    tau jet and the scalar logd still read, while the weight-2 tau jet and
    the first-order logd jet raise ``OutOfRangeError``."""
    s = gen("none", 8, seed=3, require_tau=(3, 1))
    t = taus(s)
    for idx, m in ((8, 0), (7, 1), (6, 2)):
        assert m + idx == s.max_index
        tau, d1, logd, d11, d2 = t._logd(idx, m)
        assert tau and d11 is None and d2 is None, (idx, m)
        jet = t.tau_jet(idx, m, J1)
        assert jet == pf_labels(TauTable.tau_labels(idx, m, 1, False), s, jet_spec=J1)
        assert (jet.base, jet.extract(1)) == (tau, d1), (idx, m)
        assert t.dt1_log_tau(idx, m) == logd == exact_div(d1, tau), (idx, m)
        with pytest.raises(OutOfRangeError):
            t.tau_jet(idx, m, JetSpec(2))
        with pytest.raises(OutOfRangeError):
            t.dt1_log_tau(idx, m, spec=J1)
    # one label short of max_index the record is whole
    assert None not in t._logd(6, 1)


def _zeroed(kind):
    """A seed-5 system of ``kind`` (max_index 10) with mu_01 = mu_23 = 0 and
    beta_0 = 0 (and its conjugate) in component 1."""
    s = gen(kind, 10, components=2 if "-" in kind else 1, seed=5)
    zeroed = {key: s.mu[key] - s.mu[key] for key in ((0, 1), (2, 3))}

    def zero_first(rows):
        return ((rows[0][0] - rows[0][0], *rows[0][1:]), *rows[1:])
    return s.replace(mu={**s.mu, **zeroed}, beta=zero_first(s.beta),
                     beta_bar=s.beta_bar and zero_first(s.beta_bar))


@pytest.mark.parametrize("kind", KINDS)
def test_values_past_a_stall_match_expansion(kind):
    """Zeroed moments stall the chains of every kind: mu_01 = 0 and mu_23 =
    0 stall the even chains of shifts 0 and 2 at their first link, beta_0
    = 0 (and its conjugate) the odd chain of component 1 at shift 0.  Every
    tau link, tau jet of weight 1 and 2 and scalar and ``JetSpec(1)``
    member past them comes off the chains' block eliminations and matches
    expansion; a member over a vanishing link raises, a jet member with
    ``NOT_A_UNIT``.  A weight-1 tau jet whose chain tops would read one
    label past ``max_index`` still reads off the chain."""
    s = _zeroed(kind)
    t = TauTable(s)
    assert not t.tau(2, 0) and not t.tau(2, 2) and not t.tau(1, 0) and t.tau(4, 0)
    for m in range(3):
        _expansion_oracle(t, s, m, s.max_index - m - 1)
    with pytest.raises(ZeroDivisionError, match="vanishing normalizer"):
        t.psop(1, 0)
    with pytest.raises(ZeroDivisionError, match=NOT_A_UNIT):
        t.psop(1, 0, spec=J1)
    jet = t.tau_jet(10, 0, J1)  # labels 0..9, its tops through label 10
    assert jet == pf_labels(range(10), s, jet_spec=J1)


def test_jet_blocks_past_a_stall_eliminate_once(monkeypatch):
    """mu_01 = 0 stalls the first-order chain of shift 0 at its first link,
    so P_6^{(0)} over J1 and its link tau_6 come off blocks of the rows the
    stall left (``_pf_left``).  Each block runs one elimination with swaps,
    its jets as dual numbers, where interpolating Pf(A + xB) ran h + 1
    scalar ones; the link and the member equal their expansion."""
    pf = importlib.import_module("skewpoly.pfaffian")
    stages, left = pf._stages, pf._pf_left
    swapped, blocks = [], []

    def counted_stages(a, swaps):
        swapped.extend([len(a)] * swaps)
        return stages(a, swaps)

    def counted_left(a, pos, prev):
        blocks.append(len(pos))
        return left(a, pos, prev)
    s = _zeroed("none")
    t = TauTable(s)
    monkeypatch.setattr(pf, "_stages", counted_stages)
    monkeypatch.setattr(pf, "_pf_left", counted_left)
    got = t.sop(6, 0, J1)
    assert blocks and swapped == blocks, (blocks, swapped)
    leading = t._chain(0, (), 6, True)[0]
    assert not leading(1).base and leading(1)  # mu_01 = 0, its t_1 derivative not
    link = pf_labels(range(6), s, jet_spec=J1)
    assert leading(3) == link
    raw = pf_indexed([*range(6), 6, "z"], s, jet_spec=J1)
    assert got == raw.map_coeffs(lambda c: c * link.inverse())


def test_stalled_chains_fall_back_to_expansion():
    sys = _stalled_system()
    t = TauTable(sys)
    assert t.tau(2, 0) == 0 and t.tau(4, 0) != 0
    assert t.tau(1, 0, 1) == 0 and t.tau(3, 0, 1) != 0
    for m in range(3):
        _expansion_oracle(t, sys, m, 9)
    # coefficient jets of taus past the stalls, one with the vanishing
    # tau_2^(0) in its numerator
    for name, n, oracle in (("k_coeff", 4, _logd_diff(t, (5, 0), (4, 0))),
                            ("j_coeff", 3, _quotient_rule(t, [(5, 0), (2, 0)],
                                                          [(3, 0), (4, 0)]))):
        jet = getattr(t, name)(n, 0, spec=J1)
        assert (jet.base, jet.extract(1)) == oracle and oracle[1], name
    # the same list, in the same order, as a scan by expansion gives
    assert list(vanishing_taus(sys, 4, 2)) == [(1, 0, 1, False), (2, 0),
                                               (5, 1, 2, False)]
