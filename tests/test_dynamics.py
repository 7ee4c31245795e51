"""Float lattice dynamics: trajectories, integration, convergence."""

import math
from fractions import Fraction

import numpy as np
import pytest

from skewpoly import dynamics as dyn
from skewpoly.families import taus
from skewpoly.solitons import SolitonSpec, soliton_system


def exact_spec():
    rates = [Fraction(4), Fraction(9, 4), Fraction(8, 5), Fraction(5, 4)]
    amps = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    nodes, pair_amps = [], []
    for i, (x, c) in enumerate(zip(rates, amps)):
        nodes.extend([x, 1 / x])
        pair_amps.append((2 * i, 2 * i + 1, c))
    return SolitonSpec(tuple(nodes), tuple(pair_amps)), rates, amps


def test_lattice_state_matches_exact_rational_path():
    spec, rates, amps = exact_spec()
    esys = soliton_system(spec, (0,), 13, constraint="laurent")
    t = taus(esys)
    tv_b, tv_c = [t.toda_b(n) for n in range(4)], [t.toda_c(n) for n in range(4)]
    fspec = dyn.reciprocal_pair_spec([float(x) for x in rates],
                                     [float(c) for c in amps])
    b, c = dyn.lattice_state(fspec, 0.0, 2)
    for n in (1, 2, 3):
        assert abs(b[n - 1] - float(tv_b[n])) <= 1e-12 * abs(float(tv_b[n]))
    for n in (0, 1, 2):
        assert abs(c[n] - float(tv_c[n])) <= 1e-12 * max(1.0, abs(float(tv_c[n])))


def test_single_pair_degenerate_is_time_independent():
    spec = dyn.reciprocal_pair_spec([2.0], [1.5])
    ev = dyn.PairTauEvaluator(spec, 1)
    for t in (0.0, 0.4, 1.1):
        vals, ders = ev.chain(t)
        # log-derivative of a single exponential is the constant rate
        assert abs(ders[1] / vals[1] - (2.0 + 0.5)) < 1e-12


def test_time_reversal_symmetry():
    # a node set closed under x -> -x with matched amplitudes makes B even
    # and C odd in t
    spec = SolitonSpec((2.0, 0.5, -2.0, -0.5, 1.4, 1 / 1.4, -1.4, -1 / 1.4),
                       ((0, 1, 0.8), (2, 3, 0.8), (4, 5, 1.3), (6, 7, 1.3)))
    ev = dyn.PairTauEvaluator(spec, 4)
    for t in (0.15, 0.4):
        b_plus, c_plus = dyn.lattice_state(ev, t, 2)
        b_minus, c_minus = dyn.lattice_state(ev, -t, 2)
        assert all(math.isfinite(x) for x in b_plus + b_minus)
        assert max(abs(a - b) for a, b in zip(b_plus, b_minus)) < 1e-12
        assert max(abs(a + b) for a, b in zip(c_plus, c_minus)) < 1e-12


def test_rk4_fixed_point_zero_b(monkeypatch):
    # with B identically zero (and zero edge forcing) the flow freezes C;
    # the lattice state the integrator starts from and forces its edges
    # with is replaced by that one
    spec = dyn.two_soliton_demo_spec()
    monkeypatch.setattr(dyn, "lattice_state",
                        lambda ev, t, n_hi: ([0.0] * 5, [0.5, -1.0, 2.0, 0.25, 3.0]))
    tr = dyn.rk4_toda(spec, (1, 4), 0.0, 1e-2, 10)
    assert tr.b.shape == (11, 4) and tr.c.shape == (11, 5)
    assert np.all(tr.b == 0.0)
    assert np.all(tr.c == tr.c[0])


def test_rk4_matches_tau_trajectory():
    spec = dyn.two_soliton_demo_spec()
    window = (1, 4)
    steps = 300
    ref = dyn.tau_trajectory(spec, window, 0.0, 1e-3, steps)
    run = dyn.rk4_toda(spec, window, 0.0, 1e-3, steps)
    rep = dyn.compare(ref, run)
    assert rep["max_dev_b"] <= 1e-8
    assert set(rep["per_site_b"]) == {1, 2, 3, 4}


def test_dt_halving_scales_like_fourth_order():
    spec = dyn.two_soliton_demo_spec()
    order, errs = dyn.convergence_order(spec, (1, 4), 0.0, 0.5,
                                        (4e-3, 2e-3, 1e-3))
    assert errs[0] > errs[1] > errs[2] > 0
    assert abs(order - 4.0) <= 0.3


def test_compare_grid_mismatch():
    spec = dyn.two_soliton_demo_spec()
    a = dyn.tau_trajectory(spec, (1, 4), 0.0, 1e-2, 5)
    b = dyn.tau_trajectory(spec, (1, 4), 1e-2, 1e-2, 5)
    with pytest.raises(ValueError):
        dyn.compare(a, b)
    c = dyn.tau_trajectory(spec, (1, 4), 0.0, 1e-2, 4)
    with pytest.raises(ValueError):
        dyn.compare(a, c)


def test_compare_identical_is_zero():
    spec = dyn.two_soliton_demo_spec()
    a = dyn.tau_trajectory(spec, (1, 4), 0.0, 1e-2, 5)
    assert dyn.compare(a, a)["max_dev_b"] == 0.0


def test_boundary_closure_insensitivity():
    # widening the evolved window barely moves the shared interior sites
    spec = dyn.reciprocal_pair_spec(
        [8.0, 4.5, 2.8, 2.0, 1.5, 1.25, 1.12],
        [0.05, 0.3, 0.7, 1.2, 2.0, 3.0, 4.0])
    narrow = dyn.rk4_toda(spec, (1, 4), 0.0, 2e-3, 250)
    wide = dyn.rk4_toda(spec, (1, 5), 0.0, 2e-3, 250)
    dev = np.abs(wide.b[:, :4] - narrow.b).max()
    assert dev <= 1e-7


def test_csv_export(tmp_path):
    spec = dyn.two_soliton_demo_spec()
    tr = dyn.tau_trajectory(spec, (1, 4), 0.0, 1e-2, 3)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,site,B,C"
    assert len(lines) == 1 + 4 * 4
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "1"
    float(first[2]), float(first[3])


def test_window_validation():
    spec = dyn.two_soliton_demo_spec()
    with pytest.raises(ValueError):
        dyn.rk4_toda(spec, (0, 4), 0.0, 1e-3, 10)
    with pytest.raises(ValueError):
        dyn.rk4_toda(spec, (1, 2), 0.0, 1e-3, 10)
    with pytest.raises(ValueError):
        dyn.rk4_toda(spec, (1, 4), 0.0, -1e-3, 10)


def test_pair_evaluator_rejects_overlapping_pairs():
    spec = SolitonSpec((1.5, 0.5, 2.0), ((0, 1, 1.0), (1, 2, 0.5)))
    with pytest.raises(ValueError):
        dyn.PairTauEvaluator(spec, 2)
