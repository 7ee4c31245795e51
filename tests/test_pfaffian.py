"""Pfaffian algorithms and the indexed-label resolver."""

import importlib
import random
from fractions import Fraction

import pytest

from skewpoly.families import ReadPlan, TauTable, taus
from skewpoly.jets import J1, Jet, JetSpec
from skewpoly.moments import MomentSystem, OutOfRangeError, gen
from skewpoly.pfaffian import (Z, LabelError, MomentKernel, _bareiss, _exact_div, _stages,
                               _z, det_bareiss, miwa_chain, parse_label, pf_chain,
                               pf_indexed, pf_labels, pfaffian, pfaffian_expand)
from skewpoly.poly import PolyInZ
from skewpoly.scalars import GaussianRational, exact_div


def skew_rows(n, upper):
    """Full row list of the skew matrix with the given i<j entries."""
    return [[upper.get((i, j), 0) if i <= j else -upper.get((j, i), 0)
             for j in range(n)] for i in range(n)]


def random_skew(rng, n, draw=None):
    draw = draw or (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return skew_rows(n, {(i, j): draw() for i in range(n) for j in range(i + 1, n)})


def is_public(x) -> bool:
    """A Fraction, a GaussianRational over Fractions, or a jet of those."""
    if isinstance(x, Jet):
        return all(map(is_public, x.coeffs.values()))
    if isinstance(x, GaussianRational):
        return type(x.re) is type(x.im) is Fraction
    return type(x) is Fraction


def test_expansion_values_leave_public():
    """A gauss-mode system built from Gaussian rationals with int parts:
    labelled expansion leaves through ``_q`` as the chains do, so scalars
    and jets alike hold Fraction parts, and the tau equals the chain's."""
    s = MomentSystem(4, {(i, j): GaussianRational(i + j, 1)
                         for i in range(4) for j in range(i + 1, 5)},
                     ((GaussianRational(1, 1),) * 5,), mode="gauss")
    vals = [pf_labels([0, 1, 2, 3], s), *pf_indexed([0, 1, 2, 3], s).coeffs,
            pf_labels([0, 1], s, jet_spec=JetSpec(1))]
    assert all(map(is_public, vals)), vals
    assert vals[0] == taus(s).tau(4, 0)


def test_empty_matrix_is_one():
    assert pfaffian([]) == 1


def test_two_by_two():
    assert pfaffian(skew_rows(2, {(0, 1): Fraction(5, 3)})) == Fraction(5, 3)


def test_four_by_four_classical_expansion():
    vals = dict(zip([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                    [Fraction(x) for x in (2, -3, 5, 7, -1, 4)]))
    expected = vals[(0, 1)] * vals[(2, 3)] - vals[(0, 2)] * vals[(1, 3)] \
        + vals[(0, 3)] * vals[(1, 2)]
    assert pfaffian(skew_rows(4, vals)) == expected


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        pfaffian(skew_rows(3, {}))


def test_square_equals_determinant_and_algorithms_agree():
    rng = random.Random(10)

    def gauss(bound):
        return lambda: GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
    # rationals, ints, Gaussian rationals and Gaussian integers (int parts)
    draws = [None, lambda: rng.randint(-9, 9),
             lambda: GaussianRational(Fraction(rng.randint(-5, 5)),
                                      Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
             gauss(5)]
    for t in range(120):
        n = rng.choice([2, 4, 6, 8])
        m = random_skew(rng, n, draws[t % 4])
        if t % 3 == 0 and n > 2:  # a zero leading pivot forces a swap
            m[0][1] = m[1][0] = 0 * m[0][1]
        pe = pfaffian_expand(m)
        pl = pfaffian(m)
        assert pe == pl and is_public(pl)
        assert pe * pe == det_bareiss(m)
    # a swap at the first stage and another at the second
    m = skew_rows(6, {(0, 2): -2, (0, 4): -2, (1, 2): 1, (1, 4): 3, (1, 5): -2,
                      (2, 3): -2, (2, 4): 3, (3, 4): 1, (3, 5): 3, (4, 5): -2})
    assert [odd for _, odd in _stages([list(r) for r in m], True)] == [1, 0, 0]
    assert pfaffian(m) == pfaffian_expand(m) == -8 and is_public(pfaffian(m))


def test_row_expansion_recurrence_matches_direct():
    rng = random.Random(11)
    for _ in range(20):
        n = 6
        m = random_skew(rng, n)
        direct = pfaffian(m)
        acc = Fraction(0)
        sign = 1
        for j in range(1, n):
            rest = [i for i in range(1, n) if i != j]
            sub = [[m[a][b] for b in rest] for a in rest]
            acc += sign * m[0][j] * pfaffian(sub)
            sign = -sign
        assert acc == direct


def test_skew_validation():
    for engine in (pfaffian, pfaffian_expand):
        with pytest.raises(ValueError):
            engine([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            engine([[1, 1], [-1, 0]])
        with pytest.raises(ValueError):
            engine([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])


def test_three_term_identity_oracle():
    # Pf(a,*)Pf(*,b,c,z) = Pf(*,b)Pf(a,*,c,z) - Pf(*,c)Pf(a,*,b,z)
    #                      + Pf(*,z)Pf(a,*,b,c)  for odd-size blocks *
    sys = gen("none", 12, seed=12, require_tau=(3, 1))
    for star_len in (1, 3, 5):
        star = list(range(1, 1 + star_len))
        a, b, c = 0, star_len + 1, star_len + 2

        def pf(labels):
            return pf_indexed(labels, sys)

        lhs = pf([a, *star]) * pf([*star, b, c, "z"])
        rhs = (pf([*star, b]) * pf([a, *star, c, "z"])
               - pf([*star, c]) * pf([a, *star, b, "z"])
               + pf([*star, "z"]) * pf([a, *star, b, c]))
        assert not lhs - rhs, star_len


def test_pf_indexed_examples():
    sys = gen("none", 9, seed=13)
    assert pf_indexed([0, 1], sys) == PolyInZ([sys.mu_entry(0, 1)])
    b0, b1 = sys.beta_entry(1, 0), sys.beta_entry(1, 1)
    assert pf_indexed(["d", 0, 1, "z"], sys) == PolyInZ([-b1, b0])
    p = pf_indexed([5, "z"], sys)
    assert p.degree == 5 and p.coeff(5) == 1 and all(p.coeff(i) == 0 for i in range(5))


def test_pf_indexed_odd_list_convention():
    sys = gen("none", 9, seed=14)
    assert not pf_indexed([3], sys)
    assert not pf_indexed(["d", 0, 1], sys)


def test_pf_indexed_label_order_sign():
    sys = gen("none", 9, seed=15)
    assert pf_labels([0, 1], sys) == -pf_labels([1, 0], sys)
    assert pf_labels(["d", 0], sys) == sys.beta_entry(1, 0)
    assert pf_labels([0, "d"], sys) == -sys.beta_entry(1, 0)


def test_forbidden_label_combinations():
    sys = gen("none", 9, seed=16, components=2)
    with pytest.raises(LabelError):
        pf_indexed(["d:1", "d:2", 0, 1], sys)
    with pytest.raises(LabelError):
        pf_indexed(["z", "z"], sys)
    with pytest.raises(LabelError):
        pf_indexed(["d0", "d1", 0, 1], sys)  # derivative rows need rank2
    for resolve in (pf_indexed, pf_labels):
        with pytest.raises(LabelError):
            resolve([("comp", 1), ("cbar", 1), 0, 1], sys)
    sys2 = gen("rank2", 9, seed=16)
    with pytest.raises(LabelError):
        pf_indexed(["d", "d0", 0, 1], sys2)


def test_rank2_derivative_rows():
    sys = gen("rank2", 10, seed=17)
    b = lambda j: sys.beta_entry(1, j)  # noqa: E731
    # expanding the bordered 4-label Pfaffian must reproduce the shift rule
    for i in range(3):
        for j in range(i + 1, 4):
            val = pf_labels(["d0", "d1", i, j], sys)
            assert val == sys.mu_entry(i + 1, j) + sys.mu_entry(i, j + 1)
    assert pf_labels(["d0", "d1"], sys) == 0
    assert pf_labels(["d1", 2], sys) == b(3)


def test_subset_cache_is_shared():
    sys = gen("none", 12, seed=18)
    cache = {}
    pf_labels(range(8), sys, cache=cache)
    before = len(cache)
    # expanding along the first label visits exactly the subsets of the tail
    pf_labels(range(2, 8), sys, cache=cache)
    assert len(cache) == before


def test_jet_valued_pfaffian_matches_scalar_base():
    sys = gen("none", 12, seed=19)
    spec = JetSpec(1)
    jet_val = pf_labels(range(6), sys, jet_spec=spec)
    assert jet_val.base == pf_labels(range(6), sys)


def test_elimination_over_first_order_jets():
    spec = JetSpec(1)

    def jet(value, d1, kind=Fraction):
        return Jet(spec, {(0,): kind(value), (1,): kind(d1)})

    rng = random.Random(12)
    for t in range(60):
        n = rng.choice([2, 4, 6])
        kind = (Fraction, int)[t % 2]
        # some zero-valued entries leave rows of non-units
        m = skew_rows(n, {(i, j): jet(rng.choice([0, rng.randint(-5, 5)]),
                                      rng.randint(-5, 5), kind)
                          for i in range(n) for j in range(i + 1, n)})
        pl = pfaffian(m)
        assert pl == pfaffian_expand(m) and is_public(pl), t
    # the pivot search skips a leading non-unit
    skip = skew_rows(4, {(0, 1): jet(0, 2), (0, 2): jet(3, 1), (0, 3): jet(1, 1),
                         (1, 2): jet(2, 0), (1, 3): jet(-1, 4), (2, 3): jet(5, 4)})
    assert pfaffian(skip) == pfaffian_expand(skip)
    zero = Jet.constant(Fraction(0), spec)
    # a zero row gives 0; rows of non-units, last or not, are interpolated
    # over scalar eliminations like any other
    assert pfaffian(skew_rows(4, {(0, 1): zero, (1, 2): jet(3, 1)})) == 0
    stalled = skew_rows(4, {(0, 1): jet(0, 2), (0, 2): jet(0, 1), (1, 3): jet(1, 0),
                            (2, 3): jet(5, 4)})
    assert pfaffian(stalled) == pfaffian_expand(stalled)
    assert pfaffian_expand(stalled) == jet(0, 2 * 5 - 1 * 1)
    divided = skew_rows(6, {(0, 1): jet(1, 0), (2, 3): jet(0, 1), (2, 4): jet(0, 2),
                            (3, 5): jet(0, 1), (4, 5): jet(0, 3)})
    assert pfaffian(divided) == pfaffian_expand(divided) == Jet.constant(0, spec)


def test_elimination_of_ints_stays_in_ints():
    # a Fraction anywhere in the loop would show up in the eliminated rows
    rng = random.Random(13)
    for n in (4, 6, 8, 10):
        for swaps in (False, True):
            a = random_skew(rng, n, lambda: rng.randint(-9, 9))
            a[0][1] = a[1][0] = 0 if swaps else 1
            pivots = [p for p, _ in _stages(a, swaps)]
            assert all(type(x) is int for row in a for x in row), (n, swaps)
            assert all(type(p) is int for p in pivots)


def test_det_bareiss_runs_on_kernel_entries(monkeypatch):
    # integral entries (ints, integral Fractions, Gaussian integers) reach
    # _exact_div as ints (Gaussian ones as GaussianRationals with int parts); the value
    # leaves as a public scalar, Pf^2
    pf = importlib.import_module("skewpoly.pfaffian")
    exact_div, seen = pf._exact_div, []

    def spy(num, den):
        seen.append((num, den))
        return exact_div(num, den)
    monkeypatch.setattr(pf, "_exact_div", spy)

    def parts(x):
        return (x.re, x.im) if isinstance(x, GaussianRational) else (x,)
    rng = random.Random(17)
    integral = [lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9)),
                lambda: GaussianRational(Fraction(rng.randint(-5, 5)),
                                         Fraction(rng.randint(-5, 5)))]
    for n in (4, 6, 8):
        for draw in integral:
            m = random_skew(rng, n, draw)
            seen.clear()
            det, pf = det_bareiss(m), pfaffian_expand(m)
            assert seen and all(type(p) is int for pair in seen for x in pair
                                for p in parts(x)), (n, seen[:2])
            assert is_public(det) and det == pf * pf
    rational = [None, lambda: GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                               Fraction(rng.randint(-5, 5), rng.randint(1, 3)))]
    for n in (2, 4, 6):
        for draw in rational:
            m = random_skew(rng, n, draw)
            det, pf = det_bareiss(m), pfaffian_expand(m)
            assert is_public(det) and det == pf * pf
    assert is_public(det_bareiss([])) and det_bareiss([]) == 1


def test_det_bareiss_borders():
    """Row entries past len(rows) are a border: one determinant per column
    from the last square one on, each that column in the last place, also
    past a zero pivot (swaps) and for a singular leading block (all 0).
    Without swaps ``_bareiss`` leaves row i final after stage i - 1, its
    entry j the determinant of rows 0..i on columns 0..i-1 and j, and a row
    shorter than those above it keeps its length."""
    rng = random.Random(5)
    for n, b in ((1, 1), (3, 2), (5, 3)):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n + b)]
                for _ in range(n)]
        for zeroed in (False, True):
            if zeroed:  # a zero leading pivot, or a leading column of zeros
                rows[0][0] = 0
                if n == 5:
                    for r in rows:
                        r[0] = 0
            want = [det_bareiss([r[:n - 1] + [r[j]] for r in rows]) for j in range(n - 1, n + b)]
            got = det_bareiss(rows)
            assert got == want and all(map(is_public, got)), (n, b, zeroed)
    n = 6
    full = [[rng.randint(-9, 9) for _ in range(n - 1 + 4)] for _ in range(n)]
    rows = [r[:n - 1 + 4 - i // 2] for i, r in enumerate(full)]
    done, sign = _bareiss(rows, swaps=False)
    assert (done, sign) == (n - 1, 1)
    for i in range(1, n):
        assert len(rows[i]) == n - 1 + 4 - i // 2
        for j in range(i, len(rows[i])):
            assert rows[i][j] == det_bareiss([r[:i] + [r[j]] for r in full[:i + 1]]), (i, j)


def test_kernel_conversion_matches_scaled_entries():
    """The kernel takes a Fraction whose denominator divides the scale as an
    int, numerator times the cofactor, and any other moment as ``_z(v *
    scale)``: a float moment keeps the scale at 1, so a Fraction of
    denominator 2 stays one; entries and their types are as ``_z(v *
    scale)`` gives them."""
    base = gen("none", 5, seed=2, den_bound=3)
    mixed = base.replace(mu={**base.mu, (0, 3): 0.5, (1, 2): Fraction(3, 2)},
                         beta=((0.25, *base.beta[0][1:]),), mode="float")
    for s in (base, mixed):
        kern = MomentKernel(s)
        scale = kern.scale
        assert (scale == 1) == (s is mixed)
        for (i, j), v in s.mu.items():
            want = _z(v * scale)
            assert (kern.mu[i][j], type(kern.mu[i][j])) == (want, type(want)), (i, j)
            assert kern.mu[j][i] == -want
        assert [(x, type(x)) for x in kern.rows["comp", 1]] == [
            (_z(v * scale), type(_z(v * scale))) for v in s.beta[0]]
    assert type(MomentKernel(mixed).mu[1][2]) is Fraction
    assert type(MomentKernel(base).mu[1][2]) is int


def test_exact_div_refuses_inexact_quotients():
    spec = JetSpec(1)
    g = GaussianRational  # with int parts: the loop's Gaussian integers (pfaffian._z)
    assert _exact_div(-12, 4) == -3
    for num, den, quotient in [(g(1, 7), g(1, 2), (3, 1)), (g(6, -4), 2, (3, -2)),
                               (5, g(1, 2), (1, -2))]:
        q = _exact_div(num, den)
        assert (type(q), type(q.re), type(q.im), q.re, q.im) == (g, int, int, *quotient)
    assert _exact_div(Jet(spec, {(0,): 6, (1,): 5}), Jet(spec, {(0,): 2, (1,): 1})) \
        == Jet(spec, {(0,): 3, (1,): 1})
    assert _exact_div(Fraction(1, 2), Fraction(3)) == Fraction(1, 6)
    for num, den in [(7, 2), (g(1, 0), g(2, 0)), (g(2, 1), g(1, 1)), (g(3, 2), 2),
                     (Jet(spec, {(0,): 6, (1,): 4}), Jet(spec, {(0,): 2, (1,): 1})),
                     (Jet(spec, {(0,): 5, (1,): 1}), Jet(spec, {(0,): 2}))]:
        with pytest.raises(ArithmeticError):
            _exact_div(num, den)


def test_chain_borders_past_a_zero_row():
    """A z border survives a label row that vanishes on the other labels:
    Pf(0, 1, 2, z) = mu_{1,2} with mu_{0,j} = 0 pairs label 0 only with z, so
    the chain on (0, 1, 2) stalls at its first link and reads the border off
    a block of the rows it left, which swaps in a unit of another row.
    Scalar borders Pf(L, z) (``pf_chain``'s ``spectral``, over z^low) match the
    expansion, rows and rational moments included, and so do the table's C2
    borders on the same moments tagged rank2 (``TauTable.c2_border``).
    ``pfaffian`` over the same labels' ``JetSpec(1)`` rows A + B eps
    (``MomentKernel.shifted``) matches it too, coefficient by coefficient of
    z, z anywhere; a read past max_index raises (the jets and the
    derivative row d1 read one label further)."""
    s = gen("none", 6, seed=1, den_bound=3)
    s = s.replace(mu={**s.mu, **{(0, j): Fraction(0) for j in (1, 2, 3)}}, constraint="rank2")
    t = taus(s)
    kern = t.kernel()
    assert kern.scale != 1

    def jet_rows(labs, power):  # the coefficient of z^power of Pf(labs)
        def entry(x, y):
            if Z in (x, y):
                lab, sign = (x, 1) if y == Z else (y, -1)
                return sign * int(lab == power)
            if not isinstance(y, int):
                return -entry(y, x) if isinstance(x, int) else 0
            a, b, _ = kern.shifted(x, y)
            return Jet.first_order(Fraction(a, kern.scale), Fraction(b, kern.scale))
        return [[entry(x, y) for y in labs] for x in labs]

    def border(labs):  # Pf(labs, z) off the chain on labs
        low = min(x for x in labs if isinstance(x, int))
        return pf_chain(labs, kern)[3](len(labs) - 1).shift(low)
    for labels in ([0, 1, 2, "z"], [1, "z", 0, 2], [0, 1, 2, 3, 4, "z"],
                   [("comp", 1), 0, 1, 2, 3, "z"], [0, 1, 2, 3], [0, 0, 1, "z"]):
        labs = [parse_label(lab) for lab in labels]
        if labs[-1] == Z:
            assert border(labs[:-1]) == pf_indexed(labels, s), labels
        powers = range(max(x for x in labs if isinstance(x, int)) + 1) if Z in labs else [0]
        jets = PolyInZ([pfaffian(jet_rows(labs, p)) for p in powers])
        want = pf_indexed(labels, s, jet_spec=JetSpec(1))
        assert jets == (want if "z" in labels else PolyInZ([want.coeff(0)])), labels
    assert border([0, 1, 2]) == PolyInZ([s.mu_entry(1, 2)])
    assert border([4, 5, 6]) == pf_indexed([4, 5, 6, "z"], s)
    for m in (0, 1):
        for n in range(1, 6 - m):
            head = ["d0", "d1"] if n % 2 == 0 else ["d1"]
            want = pf_indexed([*head, *range(m, m + n + 1), "z"], s)
            assert t.c2_border(n, m).shift(m) == want, (n, m)
    for n, m in ((1, 5), (2, 4)):  # label 6 = max_index, read by d1 as beta_7
        with pytest.raises(OutOfRangeError):
            t.c2_border(n, m)
    with pytest.raises(IndexError):
        jet_rows([5, 6], None)
    for read in (lambda: t.sop(6, 0, J1), lambda: t.tau_jet(6, 0, JetSpec(2))):
        with pytest.raises(OutOfRangeError):
            read()


KINDS = ("none", "laurent", "rank2", "rank1skew", "rank1skew-multi", "rank1skew-complex")


def _squared_against_det(s, size: int, shifts=(0, 1), z0: int = 2) -> list:
    """Pf^2 = det at scale, the determinant read through ``entry_scalar``
    (the oracle's path, not the kernel) by ``det_bareiss``, for one even and
    one odd chain of ``size`` labels per shift: every link of ``pf_chain``,
    past a stall too, and every entry of its ``tops`` at the stages 0, the
    middle one and the last (the raised Pfaffians the tau jets read, past a
    stall where one comes before); at shift 0 also every spectral member row
    at the integer z0 (Pf(leading 2s labels, row label, z) is z0^m times link
    s times the row's polynomial at z0), and the ``miwa_chain`` links and
    raised Pfaffians at the nodes 0, top/2 and top (loop values carrying
    scale^(s+1); the links at node 0, the unshifted chain, equal the links
    checked, signs included).  Pf^2 = det leaves the sign open.  Returns the
    stalls, as (shift, parity, link), a vanishing link that a later stage
    would divide by: the member rows over a vanishing link have no value and
    are skipped."""
    kern, e = taus(s).kernel(), s.entry_scalar

    def minors(labels, entry=e):
        """det of the square block at positions ``pos``, each entry read once."""
        rows = [[entry(a, b) for b in labels] for a in labels]
        return lambda pos: det_bareiss([[rows[i][j] for j in pos] for i in pos])

    def spectral(a, b):  # Pf(i, z) = z0^i, Pf(row, z) = 0
        if "z" in (a, b):
            sign, lab = (1, a) if b == "z" else (-1, b)
            return sign * Fraction(z0) ** lab if isinstance(lab, int) and a != b else 0
        return e(a, b)

    def shifted(z):  # the entry rules at t - [z]: raise each moment label
        def entry(a, b):
            ups = [[x + 1] if isinstance(x, int) else [] for x in (a, b)]
            return (e(a, b) - z * sum(e(x, b) for x in ups[0])
                    - z * sum(e(a, y) for y in ups[1])
                    + z * z * sum(e(x, y) for x in ups[0] for y in ups[1]))
        return entry

    stalls = []
    for m in shifts:
        for odd in (0, 1):
            labels = [*TauTable.tau_labels(odd, m, 1, False)[:odd],
                      *range(m, m + size - odd)]
            leading, tops, rows, _ = pf_chain(labels, kern)
            checked = [leading(s_) for s_ in range(size // 2 + 1)]
            stalls += [(m, odd, s_) for s_ in range(1, size // 2) if not checked[s_]][:1]
            det = minors([*labels, "z"], spectral)
            for s_, link in enumerate(checked):
                assert link * link == det(range(2 * s_)), (m, odd, s_)
            last = (size - 3) // 2  # the last stage with a top
            for s_ in (0, last // 2, last):
                pairs = [(i, j) for i, j in ((0, 2), (1, 2), (0, 3)) if 2 * s_ + j < size]
                assert len(tops(s_)) == len(pairs) >= 2, (m, odd, s_)
                for top, (i, j) in zip(tops(s_), pairs):
                    assert top * top == det([*range(2 * s_), 2 * s_ + i, 2 * s_ + j]), \
                        (m, odd, s_, i, j)
            if m:
                continue
            for r, (num, den) in enumerate(map(rows, range(size))):
                s_ = r // 2
                if not den:
                    continue
                at = exact_div(sum(c * z0 ** i for i, c in enumerate(num)), den)
                val = Fraction(z0) ** m * checked[s_] * at
                assert val * val == det([*range(2 * s_), r, size]), (odd, r)
            top = size - odd  # the catalog's Miwa chain of this parity: one label more
            labels.append(m + top)
            links, raised = miwa_chain(labels, kern, top)
            for z in (0, top // 2, top):
                det = minors(labels, shifted(z))
                for s_ in range(len(links)):
                    sq = kern.scale ** (2 * s_ + 2)
                    link, up = links[s_][z], raised[s_][z]
                    if z:  # node 0 is the unshifted chain: its links are checked above
                        assert link * link == det(range(2 * s_ + 2)) * sq, (odd, z, s_)
                    else:
                        assert link == checked[s_ + 1] * kern.scale ** (s_ + 1)
                    assert up * up == det([*range(2 * s_ + 1), 2 * s_ + 2]) * sq
    return stalls


@pytest.mark.parametrize("kind", KINDS)
def test_pf_squared_is_det_at_the_scale_wall(kind):
    """Independent of the skew elimination, Pf^2 = det checks the chains,
    the members and the Miwa nodes at --n-max 12 (26-label chains), where
    expansion cannot reach.  Two of these draws stall: tau_4^(1) = 0 for
    none, tau_2^(0) = mu_01 = 0 for rank1skew-multi (its even Miwa chain
    stalls at node 0 too); their links past the stall come off blocks of the
    rows the stall left."""
    s = gen(kind, ReadPlan.of(12, 1).max_index, components=2 if "-" in kind else 1,
            seed=3)
    stalls = {"none": [(1, 0, 2)], "rank1skew-multi": [(0, 0, 1)]}
    assert _squared_against_det(s, 26) == stalls.get(kind, [])


def test_pf_squared_check_catches_a_wrong_scale_power(monkeypatch):
    """A wrong power of the kernel's scale in the links leaving the loop
    (``_q(p, scale ** s)``), or in the tops alone (scale^s where they carry
    scale^(s+1)), fails the check on rational moments."""
    pf = importlib.import_module("skewpoly.pfaffian")
    s = gen("none", 14, seed=3, den_bound=3)
    scale = taus(s).kernel().scale
    assert scale != 1
    assert _squared_against_det(s, 8, shifts=(0,)) == []

    def wrong_tops(labels, kernel, chain=pf_chain):
        leading, tops, *rest = chain(labels, kernel)
        return leading, lambda s_: tuple(x * scale for x in tops(s_)), *rest
    with monkeypatch.context() as patch:
        patch.setitem(globals(), "pf_chain", wrong_tops)
        with pytest.raises(AssertionError, match=r"\(0, 0, 0, 0, 2\)"):
            _squared_against_det(s, 8, shifts=(0,))
    q = pf._q
    monkeypatch.setattr(pf, "_q", lambda x, den=1: q(x, den * scale if den != 1 else den))
    with pytest.raises(AssertionError):
        _squared_against_det(s, 8, shifts=(0,))
