"""Moment systems: constraints, generators, shift derivation, serialization."""

import importlib
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from skewpoly.families import taus, vanishing_taus
from skewpoly.jets import JetSpec
from skewpoly.files import from_json_dict, load, save, to_json_dict
from skewpoly.moments import MomentSystem, OutOfRangeError, gen, stembridge_residual, validate
from skewpoly.oracle import lift_to_jet, shift_derivative
from skewpoly.pfaffian import _q
from skewpoly.scalars import GaussianRational
from skewpoly.solitons import SolitonSpec, soliton_system

ALL_KINDS = ["none", "laurent", "rank2", "rank1skew", "rank1skew-multi",
             "rank1skew-complex"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_generator_residuals_exactly_zero(kind):
    comps = 3 if kind.endswith(("multi", "complex")) else 1
    for seed in range(100):
        s = gen(kind, 8, components=comps, seed=seed)
        rep = validate(s)
        assert rep.all_zero, (kind, seed, rep.failures[:3])


def test_generator_tau_existence_resampling():
    s = gen("none", 12, seed=0, require_tau=(3, 1))
    assert list(vanishing_taus(s, 3, 1)) == []


def test_single_component_constraints_reject_components():
    with pytest.raises(ValueError):
        gen("rank2", 8, components=2, seed=0)


def test_shift_derivative_rules():
    s = gen("none", 10, seed=1)
    assert shift_derivative(s, ("mu", 0, 1), 1) == s.mu_entry(1, 1) + s.mu_entry(0, 2)
    assert shift_derivative(s, ("mu", 0, 1), 1) == s.mu_entry(0, 2)
    assert shift_derivative(s, ("beta", 1, 3), 2) == s.beta_entry(1, 5)
    with pytest.raises(OutOfRangeError):
        shift_derivative(s, ("mu", 9, 10), 1)
    c = gen("rank1skew-complex", 10, components=2, seed=1)
    assert shift_derivative(c, ("beta_bar", 2, 3), 2) == c.beta_bar[1][5]
    with pytest.raises(OutOfRangeError):
        shift_derivative(s, ("beta_bar", 1, 3), 1)  # no conjugate rows
    with pytest.raises(ValueError):
        shift_derivative(s, ("gamma", 1, 3), 1)


def test_shift_derivative_matches_soliton_time_derivative():
    # finite-difference oracle on genuinely time-dependent moments: the
    # exact system at t = 0 against SolitonSpec's float moments at t = +-h
    spec = SolitonSpec((Fraction(17, 10), Fraction(3, 5), Fraction(6, 5), Fraction(9, 10)),
                       ((0, 1, Fraction(4, 5)), (2, 3, Fraction(13, 10)), (0, 2, Fraction(-2, 5))),
                       ((Fraction(1, 2), Fraction(1), Fraction(-7, 10), Fraction(3, 10)),))
    h = 1e-6
    sys0 = soliton_system(spec, (0, 0), 8)

    def weights(t):
        return [math.exp(th) for th in spec.thetas(t)]
    for n_flow in (1, 2):
        tp, tm = [0.0, 0.0], [0.0, 0.0]
        tp[n_flow - 1] += h
        tm[n_flow - 1] -= h
        wp, wm = weights(tp), weights(tm)
        for (i, j) in [(0, 1), (1, 4), (2, 5)]:
            fd = (spec.mu_value(i, j, wp) - spec.mu_value(i, j, wm)) / (2 * h)
            exact = shift_derivative(sys0, ("mu", i, j), n_flow)
            assert abs(fd - exact) <= 1e-12 + 1e-6 * abs(exact)
        for j in (0, 3):
            fd = (spec.beta_value(1, j, wp) - spec.beta_value(1, j, wm)) / (2 * h)
            exact = shift_derivative(sys0, ("beta", 1, j), n_flow)
            assert abs(fd - exact) <= 1e-12 + 1e-6 * abs(exact)

def test_lift_to_jet_second_order_by_hand():
    s = gen("none", 12, seed=2)
    i, j = 1, 3
    jet = lift_to_jet(s, ("mu", i, j), JetSpec(2))
    mu = s.mu_entry
    assert jet.base == mu(i, j)
    assert jet.coeffs.get((1, 0), 0) == mu(i + 1, j) + mu(i, j + 1)
    expected = Fraction(1, 2) * (mu(i + 2, j) + 2 * mu(i + 1, j + 1) + mu(i, j + 2))
    assert jet.coeffs.get((2, 0), 0) == expected


def test_lift_to_jet_beta_first_order():
    s = gen("none", 10, seed=3)
    jet = lift_to_jet(s, ("beta", 1, 2), JetSpec(1))
    assert jet.base == s.beta_entry(1, 2)
    assert jet.extract(1, 0) == s.beta_entry(1, 3)


def test_lift_to_jet_matches_iterated_shift_rule():
    # every mixed derivative of weight <= 4 by applying the shift rule
    # d/dt_n mu_{i,j} = mu_{i+n,j} + mu_{i,j+n} one derivative at a time
    def shifted(entry, n):
        if entry[0] == "mu":
            return [("mu", entry[1] + n, entry[2]), ("mu", entry[1], entry[2] + n)]
        return [(entry[0], entry[1], entry[2] + n)]

    s = gen("none", 14, seed=5)
    spec = JetSpec(4)
    for entry in (("mu", 1, 3), ("mu", 2, 0), ("beta", 1, 2)):
        jet = lift_to_jet(s, entry, spec)
        for alpha in spec.weights:
            comb = {entry: 1}
            for d, a in enumerate(alpha):
                for _ in range(a):
                    nxt = {}
                    for e, c in comb.items():
                        for f in shifted(e, d + 1):
                            nxt[f] = nxt.get(f, 0) + c
                    comb = nxt
            value = sum(c * (s.mu_entry(e[1], e[2]) if e[0] == "mu"
                             else s.beta_entry(e[1], e[2])) for e, c in comb.items())
            assert jet.extract(*alpha) == value, (entry, alpha)


def test_miwa_entry_is_the_schur_series_of_the_lift():
    # e(t - [z]) = sum_j s_j(-dtilde) e z^j, read off a weight-3 lift, has
    # degree <= 2 for mu and <= 1 for beta; the Schur layers read it as the
    # moment kernel's triple (A, B, C), A - z B + z^2 C, scaled by its lcm
    for den_bound in (1, 3):
        s = gen("rank1skew-complex", 14, components=2, seed=5, den_bound=den_bound)
        kern = taus(s).kernel()
        labels = [2, 5, ("comp", 2), ("cbar", 1)]
        for a in labels:
            for b in labels:
                if not (isinstance(a, int) or isinstance(b, int)):
                    continue
                series = s.entry_jet(a, b, JetSpec(3)).schur()
                assert series[3] == 0
                sign = 1 if isinstance(b, int) else -1  # (row, j) = -(j, row)
                x, y, w = kern.shifted(*((a, b) if sign > 0 else (b, a)))
                for z in range(4):
                    got = _q(sign * (x - z * y + z * z * w), kern.scale)
                    assert got == sum(c * z ** j for j, c in enumerate(series))


def test_lift_to_jet_degenerate_zero_system():
    zero = MomentSystem(6, {}, ((Fraction(0),) * 7,))
    jet = lift_to_jet(zero, ("mu", 0, 1), JetSpec(2))
    assert not jet


def test_laurent_structure_and_stembridge():
    s = gen("laurent", 12, seed=4)
    assert s.mu_entry(3, 4) == s.mu_entry(0, 1)
    for n in range(1, 5):
        assert stembridge_residual(s, n) == 0
    sg = gen("none", 12, seed=4)
    with pytest.raises(ValueError):
        stembridge_residual(sg, 2)


def test_rank1skew_zero_beta_closed_forms():
    # with beta identically zero even gaps vanish and odd gaps too
    s = MomentSystem(8, {(i, j): Fraction(0) for i in range(8)
                         for j in range(i + 1, 9)},
                     ((Fraction(0),) * 9,), constraint="rank1skew")
    assert validate(s).all_zero
    for i in range(4):
        for k in range(1, 3):
            assert s.mu_entry(i, i + 2 * k) == 0


def _closed_form_mu(betas, sums, max_index, scale):
    """The rank-one skew-shift closed forms in public arithmetic, term by term."""
    if sums is None:
        sums = [sum((b[j] for b in betas[1:]), betas[0][j])
                for j in range(max_index + 1)]
    mu = {}
    for i in range(max_index):
        for j in range(i + 1, max_index + 1):
            gap = j - i
            if gap % 2 == 0:
                k = gap // 2
                val = 2 * sum((sums[i + s] * sums[i + 2 * k - 1 - s]
                               for s in range(k)), Fraction(0))
            else:
                k = (gap - 1) // 2
                val = 2 * sum((sums[i + s] * sums[i + 2 * k - s]
                               for s in range(k)), Fraction(0))
                val = val + sums[i + k] * sums[i + k]
            mu[(i, j)] = scale * val
    return mu


@pytest.mark.parametrize("kind", ["rank1skew", "rank1skew-multi", "rank1skew-complex"])
def test_rank1skew_gen_matches_the_closed_form(kind):
    # values and types, parts included, entry by entry
    for seed in range(3):
        for den_bound in (1, 3):
            s = gen(kind, 35, components=1 if kind == "rank1skew" else 2, seed=seed,
                    den_bound=den_bound)
            sums, scale = None, Fraction(1)
            if s.beta_bar is not None:  # the conjugate rows sum to scale * sums
                sums = [sum((b[j] for b in s.beta), GaussianRational.of(0))
                        for j in range(36)]
                j = next(j for j, x in enumerate(sums) if x)
                scale = sum((b[j] for b in s.beta_bar), GaussianRational.of(0)) / sums[j]
            want = _closed_form_mu([list(b) for b in s.beta], sums, 35, scale)
            assert s.mu.keys() == want.keys()
            for key, val in want.items():
                got = s.mu[key]
                assert got == val and type(got) is type(val), (kind, seed, key)
                if isinstance(val, GaussianRational):
                    assert type(got.re) is type(val.re) and type(got.im) is type(val.im)


def test_rank2_corruption_localizes():
    s = gen("rank2", 8, seed=5)
    mu = dict(s.mu)
    mu[(2, 3)] = mu[(2, 3)] + 1
    bad = MomentSystem(s.max_index, mu, s.beta, constraint="rank2")
    rep = validate(bad)
    assert not rep.all_zero
    where = {w for (w, _) in rep.failures}
    # the (2,2) instance reads the corrupted entry twice with opposite signs
    # (skew-by-storage), so the failure surfaces at (1,3) and its mirror (3,1)
    assert where == {(1, 3), (3, 1)}


def test_existence_flag_vanishing_tau():
    s = MomentSystem(4, {(i, j): Fraction(0) for i in range(4)
                         for j in range(i + 1, 5)}, ())
    failures = list(vanishing_taus(s, 1, 0))
    assert failures
    assert (2, 0) in failures
    # tau_1^(0) on the conjugate row is bbar_0^(1), which gen also requires
    c = gen("rank1skew-complex", 6, components=2, seed=3)
    bbar = [list(row) for row in c.beta_bar]
    bbar[0][0] = 0
    failures = list(vanishing_taus(c.replace(beta_bar=tuple(map(tuple, bbar))), 0, 0))
    assert failures
    assert failures == [(1, 0, 1, True)]


def test_json_round_trip_bit_exact():
    for kind, comps in (("none", 2), ("rank1skew-complex", 2)):
        s = gen(kind, 9, components=comps, seed=6)
        data = json.loads(json.dumps(to_json_dict(s)))
        back = from_json_dict(data)
        assert back.max_index == s.max_index
        assert back.constraint == s.constraint
        assert back.mu == s.mu
        assert back.beta == s.beta
        assert back.beta_bar == s.beta_bar


def test_save_load_round_trips_a_sparse_mu_system(tmp_path):
    """A system that stores only some mu pairs saves every pair, the zeros
    included, so its file loads back (a file missing a pair is rejected)."""
    s = gen("none", 6, seed=7)
    sparse = s.replace(mu={(i, j): v for (i, j), v in s.mu.items() if j - i != 2})
    path = tmp_path / "sys.json"
    save(sparse, path)
    back = load(path)
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    assert len(sparse.mu) < len(pairs) == len(back.mu)
    assert [back.mu_entry(i, j) for i, j in pairs] == [sparse.mu_entry(i, j) for i, j in pairs]
    assert back.beta == sparse.beta and to_json_dict(back) == to_json_dict(sparse)


def test_load_memory_follows_the_file_not_max_index(tmp_path):
    """A file's missing triple is found by walking the expected keys in
    order to the first one absent, at most one step past the file's own
    entries, so neither a huge ``max_index`` in a tiny file nor a long beta
    row beside one mu triple builds the list of every missing beta pair or
    the set of every expected mu pair: each is rejected with its message
    under a traced peak of a few MB (tens of MB when the expected keys
    were all built)."""
    files = [({"max_index": 200_000, "mu": [], "beta": [[1, 0, "1"]]},
              "missing beta triples, first (1,1)"),
             ({"max_index": 600, "mu": [[0, 1, "1"]],
               "beta": [[1, j, "1"] for j in range(601)]},
              "missing mu triples, first (0, 2)")]
    for i, (data, message) in enumerate(files):
        path = tmp_path / f"sys{i}.json"
        path.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message and peak < 4 << 20, (message, peak)


def test_save_load(tmp_path):
    s = gen("rank2", 8, seed=7)
    path = tmp_path / "sys.json"
    save(s, path)
    back = load(path)
    assert back.mu == s.mu and back.beta == s.beta


def test_soliton_exact_mode_matches_float_at_zero():
    spec = SolitonSpec((Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3)),
                       ((0, 1, Fraction(1)), (2, 3, Fraction(2))),
                       ((Fraction(1), Fraction(1), Fraction(1), Fraction(1)),))
    es = soliton_system(spec, (0,), 6)
    ones = [1.0] * len(spec.nodes)
    for i in range(3):
        for j in range(i + 1, 4):
            assert math.isclose(float(es.mu_entry(i, j)), spec.mu_value(i, j, ones),
                                rel_tol=1e-12)
    with pytest.raises(ValueError):
        soliton_system(spec, (0.5,), 6)


def test_soliton_reciprocal_pairs_are_laurent():
    spec = SolitonSpec((Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3)),
                       ((0, 1, Fraction(1)), (2, 3, Fraction(2))))
    s = soliton_system(spec, (0,), 8, constraint="laurent")
    assert validate(s).all_zero


def test_float_mode_quarantine():
    """No system holds a float: the float mode is gone, and a float moment,
    or a float hidden in a Gaussian part, is refused in every mode."""
    spec = SolitonSpec((1.5, 0.5), ((0, 1, 1.0),))
    with pytest.raises(ValueError):
        soliton_system(spec, (0.1,), 6)
    with pytest.raises(ValueError):
        MomentSystem(3, {(0, 1): Fraction(1, 2)}, mode="float")
    for mode in ("exact", "gauss"):
        with pytest.raises(ValueError):
            MomentSystem(3, {(0, 1): 0.5}, mode=mode)
        with pytest.raises(ValueError):
            MomentSystem(3, {(0, 1): GaussianRational(0.5, 1)}, mode=mode)

def test_gen_info_records_attempts():
    info = {}
    gen("none", 12, seed=0, require_tau=(3, 1), info=info)
    assert "resample_attempts" in info


@pytest.mark.parametrize("kind, components", [("none", 1), ("rank1skew-multi", 2)])
def test_gen_tau_scan_makes_no_expansion_call(monkeypatch, kind, components):
    oracle = importlib.import_module("skewpoly.oracle")
    expand, calls = oracle._pf_expand, [0]

    def counted(*args):
        calls[0] += 1
        return expand(*args)
    monkeypatch.setattr(oracle, "_pf_expand", counted)
    info = {}
    gen(kind, 35, components=components, seed=3, require_tau=(9, 2), info=info)
    if kind == "none":
        assert info["resample_attempts"] == 1  # its first draw has a vanishing tau
    assert calls[0] == 0
