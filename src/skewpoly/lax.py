"""Finite truncations of the banded operator pairs and the scalar recurrences.

Operators act on the wave vector Phi = (Q_0, Q_1, ...)^T of partial-family
polynomials; truncation at size N keeps rows and columns 0..N-1.  Each
operator is an N x N matrix of first-order jets (``JetSpec(1)``), so its
value and its t_1 derivative are the ``.base`` and ``.extract(1)`` of every
entry, and compatibility residuals like dL/dt_1 - (M' L - L M) are plain
matrix algebra over the jet ring.  Truncation artifacts live in the last
rows/columns; the asserted interior block is rows and columns 1..N-4
(inclusive), matching the bandwidths in play.  A compatibility residual
takes the family at shift m and only the one shift-(m + 1) matrix it
compares (M or M_evo), so it reads no tau past shift m + 1.

Every operator is a band matrix divided on the left by a bidiagonal one
(L by 1 + eta S^T, N by xi + S, L1 and L2 by (b_n, eta_n b_{n-1}), M_evo by
(I_{n+1}, 1), S the shift), by the exact two-term recurrence of
:func:`_solve`, which divides by no unit diagonal: the truncated quotient
agrees with the semi-infinite one inside the window.  The bands are the
first-order coefficient jets of :mod:`skewpoly.families`.
"""

from __future__ import annotations

from fractions import Fraction

from .families import TauTable, dt1, taus, z_plus_dt1
from .jets import J1, J2, Jet
from .moments import MomentSystem
from .poly import PolyInZ
from .scalars import exact_div


# ---------------------------------------------------------------------------
# Matrices of JetSpec(1) jets (dense lists)
# ---------------------------------------------------------------------------


def _bands(n: int, bands: dict) -> list:
    """N x N jet matrix from {offset: entries}; row i holds entries[i] at
    column i + offset, entries off the matrix or None left zero."""
    zero = Jet.constant(Fraction(0), J1)
    out = [[zero] * n for _ in range(n)]
    for off, entries in bands.items():
        for i in range(max(0, -off), min(n, n - off)):
            if entries[i] is not None:
                out[i][i + off] = entries[i]
    return out


def _mul(a, b):
    out = _bands(len(a), {})
    for ai, oi in zip(a, out):
        for v, bk in zip(ai, b):
            if not v:
                continue
            for j, w in enumerate(bk):
                if w:
                    oi[j] = oi[j] + v * w
    return out


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _solve(diag, off, b, lower: bool):
    """X with A X = b, A bidiagonal: ``diag`` and ``off``, off[i] at column
    i - 1 of row i if ``lower``, else at i + 1 (``None``: a band of ones), by
    x_i = (b_i - off_i x_{i -+ 1}) / diag_i from the end the band leaves out.
    A vanishing diagonal entry raises ZeroDivisionError."""
    x, prev = [None] * len(b), None
    for i in range(len(b)) if lower else reversed(range(len(b))):
        row = b[i]
        if prev is not None and (off is None or off[i]):
            c = 1 if off is None else off[i]
            row = [r - c * y if y else r for r, y in zip(row, prev)]
        if diag is not None:
            inv = diag[i].inverse()
            row = [r * inv if r else r for r in row]
        x[i] = prev = row
    return x


def build_psop_lax(sys: MomentSystem, m: int, n_size: int) -> dict:
    """Truncated operator family at shift m.

    Always returns ``L`` (spectral: z Phi^{(m+1)} = L Phi^{(m)}) and
    ``M`` (mixed: (z + d/dt_1) Phi^{(m)} = M Phi^{(m)}).  Under the rank2
    constraint additionally ``N`` (Phi^{(m)} = z N Phi^{(m+1)}), ``L1``,
    ``L2`` (z d/dt_1 Phi^{(m+1)} = L1 d/dt_1 Phi^{(m)} + L2 Phi^{(m)}) and
    ``M_evo`` (d/dt_1 Phi^{(m)} = M_evo Phi^{(m)}).

    The family is built once per (m, n_size) and kept on the system's
    :class:`TauTable`, so every call returns the same dict: callers only
    read the matrices, never modify them.
    """
    if n_size < 4:
        raise ValueError("truncation size must be at least 4")
    sys.require_exact()
    t = taus(sys)
    got = t.operators.get((m, n_size))
    if got is not None:
        return got
    n_rows = range(n_size)
    one = [Jet.constant(Fraction(1), J1)] * n_size
    xi = [t.xi(n, m, spec=J1) for n in n_rows]
    eta = [t.eta(n, m, spec=J1) for n in n_rows]
    sub = [None] + eta[1:]
    ops = {"L": _solve(None, sub, _bands(n_size, {0: xi, 1: one}), lower=True),
           "M": _mixed_op(t, m, n_size)}

    if sys.constraint == "rank2":
        # row n holds a_{n+1} and b_{n+1}: a_n = 1 / c_n and b_n =
        # tau_{n+1}^{(m)} tau_{n-1}^{(m+1)} / (-D_t1 tau_{n+1}^{(m)} .
        # tau_{n-1}^{(m+1)}) = -1 / d/dt_1 log(tau_{n+1}^{(m)} / tau_{n-1}^{(m+1)}),
        # the sign matching the exact shifted derivative identity
        aa = [t.c_coeff(n + 1, m, J1).inverse() for n in n_rows]
        bb = [-(t.dt1_log_tau(n + 2, m, spec=J1)
                - t.dt1_log_tau(n, m + 1, spec=J1)).inverse() for n in n_rows]
        ops["N"] = _solve(xi, None, _bands(n_size, {0: one, -1: sub}), lower=False)
        g1 = [None] + [eta[n] * bb[n - 1] for n in range(1, n_size)]
        # boundary convention eta_0 * a_0 = 0: eta_0 vanishes identically
        g3 = _bands(n_size, {0: [None] + [eta[n] * aa[n - 1]
                                          for n in range(1, n_size)],
                             1: aa})
        g5 = _bands(n_size, {0: [eta[n] - xi[n] for n in n_rows]})
        ops["L1"] = _solve(bb, g1, g3, lower=True)
        ops["L2"] = _solve(bb, g1, g5, lower=True)
        ops["M_evo"] = _evolution_op(t, m, n_size)
    t.operators[(m, n_size)] = ops
    return ops


def _mixed_op(t: TauTable, m: int, n_size: int) -> list:
    """M at shift m: a band of ones above K_n^m, -J_n^m below."""
    return _bands(n_size, {1: [Jet.constant(Fraction(1), J1)] * n_size,
                           0: [t.k_coeff(n, m, J1) for n in range(n_size)],
                           -1: [None] + [-t.j_coeff(n, m, J1) for n in range(1, n_size)]})


def _evolution_op(t: TauTable, m: int, n_size: int) -> list:
    """M_evo at shift m (rank2): the diagonal I_{n+1} (K_{n+1} + K_n) over (I_{n+1}, 1)."""
    kk = [t.k_coeff(n, m, J1) for n in range(n_size + 1)]
    ii = [t.i_coeff(n + 1, m, J1) for n in range(n_size)]
    b2 = _bands(n_size, {0: [ii[n] * (kk[n + 1] + kk[n]) for n in range(n_size)]})
    return _solve(ii, None, b2, lower=False)


def lax_compat_residual(sys: MomentSystem, kind: str, m: int, n_size: int) -> dict:
    """Interior compatibility residual of the truncated operator pairs.

    kinds: ``mixed``  -> dL/dt1 - (M^{(m+1)} L - L M^{(m)})
           ``rank2-m`` -> (L1 M + L2) N - M_evo^{(m+1)}
           ``rank2-n`` -> dN/dt1 - (M_evo N - N ((L1 M + L2) N))
    Entries in rows/cols 1..N-4 must vanish exactly; boundary rows are
    reported but not asserted.
    """
    if n_size < 6:
        raise ValueError("need size >= 6 for a nonempty interior block")
    if kind in ("rank2-m", "rank2-n") and sys.constraint != "rank2":
        raise ValueError(f"the {kind} block requires the rank2 constraint")
    here = build_psop_lax(sys, m, n_size)
    lo, hi = 1, n_size - 4

    def dt1_minus(flow, rhs):
        return [[f.extract(1) - r.base for f, r in zip(frow, rrow)]
                for frow, rrow in zip(flow, rhs)]

    if kind == "mixed":
        l_op = here["L"]
        up = _mixed_op(taus(sys), m + 1, n_size)
        res = dt1_minus(l_op, _sub(_mul(up, l_op), _mul(l_op, here["M"])))
    elif kind in ("rank2-m", "rank2-n"):
        n_op, m_op = here["N"], here["M_evo"]
        kept = taus(sys).operators  # (L1 M_evo + L2) N, once per (m, N) for both kinds
        if (m, n_size, "T") not in kept:
            kept[m, n_size, "T"] = _mul(_add(_mul(here["L1"], m_op), here["L2"]), n_op)
        t_op = kept[m, n_size, "T"]
        if kind == "rank2-m":
            up = _evolution_op(taus(sys), m + 1, n_size)
            res = [[e.base for e in row] for row in _sub(t_op, up)]
        else:
            res = dt1_minus(n_op, _sub(_mul(m_op, n_op), _mul(n_op, t_op)))
    else:
        raise ValueError(f"unknown compatibility kind {kind!r}")
    interior = [row[lo:hi + 1] for row in res[lo:hi + 1]]
    return {
        "interior_zero": all(not v for row in interior for v in row),
        "interior": interior,
        "boundary_nonzero": any(v for i, row in enumerate(res)
                                for j, v in enumerate(row)
                                if not (lo <= i <= hi and lo <= j <= hi)),
    }


def wave_action_residuals(sys: MomentSystem, m: int, n_size: int) -> list:
    """Row action of L on (Q_0,...,Q_{N-1}) against z Q_i^{(m+1)}, interior rows."""
    t = taus(sys)
    ops = build_psop_lax(sys, m, n_size)
    phi = [t.psop(i, m) for i in range(n_size)]
    out = []
    for i in range(1, n_size - 3):
        acc = PolyInZ.zero()
        for e, p in zip(ops["L"][i], phi):
            if e:
                acc = acc + e.base * p
        out.append(acc - t.psop(i, m + 1).shift(1))
    return out


# ---------------------------------------------------------------------------
# Scalar recurrences: rank1skew suite
# ---------------------------------------------------------------------------


def _s2_ratio(t: TauTable, idx: int, m: int, sign: int):
    """s_2(sign * dtilde) tau_idx^{(m)} / tau_idx^{(m)}."""
    tj = t.tau_jet(idx, m, J2)
    return exact_div(tj.schur(sign)[2], tj.base)


def c3_recurrence_residuals(sys: MomentSystem, m: int, n: int) -> dict:
    """Three-term recurrence, time evolutions and odd spectral problem under
    the rank-one skew constraint; all residual polynomials must vanish.

    The Q_{2n} coefficient of the spectral problem carries
    alpha_n = J_{2n+1} - s_2(+dtilde) tau_{2n+1}/tau_{2n+1}
                      + s_2(+dtilde) tau_{2n}/tau_{2n},
    the sign of the Schur argument being fixed by exact evaluation.
    """
    sys.require_exact()
    if sys.constraint != "rank1skew":
        raise ValueError("this suite requires the rank1skew constraint")
    t = taus(sys)
    kc = lambda j: t.k_coeff(j, m)  # noqa: E731
    jc = lambda j: t.j_coeff(j, m)  # noqa: E731
    q = lambda j: t.psop(j, m)  # noqa: E731
    dq = lambda j: dt1(t.psop(j, m, spec=J1))  # noqa: E731
    three_term = (q(2 * n).shift(1) - q(2 * n + 1) - kc(2 * n) * q(2 * n)
                  - jc(2 * n) * q(2 * n - 1))
    evolution_even = dq(2 * n) + 2 * jc(2 * n) * q(2 * n - 1)
    alpha = (jc(2 * n + 1) - _s2_ratio(t, 2 * n + 1, m, +1)
             + _s2_ratio(t, 2 * n, m, +1))
    gamma = alpha + kc(2 * n) * t.dt1_log_tau(2 * n + 1, m)
    spectral_odd = ((q(2 * n + 1) - jc(2 * n) * q(2 * n - 1)).shift(1)
                    - q(2 * n + 2) - kc(2 * n) * q(2 * n + 1)
                    - gamma * q(2 * n)
                    + kc(2 * n) * jc(2 * n) * q(2 * n - 1)
                    + jc(2 * n - 1) * jc(2 * n) * q(2 * n - 2))
    evolution_odd = (dq(2 * n + 1) - jc(2 * n) * dq(2 * n - 1)
                     + (jc(2 * n + 1) + jc(2 * n) + gamma) * q(2 * n)
                     - jc(2 * n) * (kc(2 * n) - kc(2 * n - 2)) * q(2 * n - 1)
                     - 2 * jc(2 * n - 1) * jc(2 * n) * q(2 * n - 2))
    k_parity = kc(2 * n) - kc(2 * n + 1)
    return {
        "three_term": three_term,
        "evolution_even": evolution_even,
        "spectral_odd": spectral_odd,
        "evolution_odd": evolution_odd,
        "k_parity": PolyInZ([k_parity]),
    }


# ---------------------------------------------------------------------------
# Scalar recurrences: rank2 suite plus the unconstrained mixed identity
# ---------------------------------------------------------------------------


def mixed_residual(sys: MomentSystem, m: int, n: int) -> PolyInZ:
    """(z + d/dt_1) Q_n = Q_{n+1} + K_n Q_n - J_n Q_{n-1}; holds for any tag."""
    sys.require_exact()
    t = taus(sys)
    kc, jc = t.k_coeff(n, m), t.j_coeff(n, m)
    return (t.psop(n, m).shift(1) + dt1(t.psop(n, m, spec=J1)) - t.psop(n + 1, m)
            - kc * t.psop(n, m) + jc * t.psop(n - 1, m))


def c2_evolution_residuals(sys: MomentSystem, m: int, n: int) -> dict:
    """Derivative formulas under the rank-two shift constraint.

    The bordered-Pfaffian derivative formula reads
    d/dt_1 (tau_n Q_n) = z^{-m} Pf(d0, d1, m, ..., m+n, z) for even n and
    z^{-m} Pf(d1, m, ..., m+n, z) for odd n (exact evaluation; no extra
    normalization factor; a spectral row of one of the table's two C2 border
    chains at shift m, :meth:`TauTable.c2_border`), and
    the shifted evolution carries a minus sign on the derivative term of the
    lower family member.
    """
    sys.require_exact()
    if sys.constraint != "rank2":
        raise ValueError("this suite requires the rank2 constraint")
    t = taus(sys)
    lhs = dt1(t.psop(n, m, spec=J1) * t.tau_jet(n, m, J1))
    derivative_pf = lhs - t.c2_border(n, m)

    def dq(j, mm=m):
        return dt1(t.psop(j, mm, spec=J1))

    i_n = t.i_coeff(n, m)
    evolution = (dq(n) + i_n * dq(n - 1)
                 - i_n * (t.k_coeff(n, m) + t.k_coeff(n - 1, m)) * t.psop(n - 1, m))

    # v_n = D_t1 tau_{n+1}^{(m)} . tau_{n-1}^{(m+1)} / (tau_n^{(m)} tau_n^{(m+1)})
    #     = u_n d/dt_1 log(tau_{n+1}^{(m)} / tau_{n-1}^{(m+1)})
    c_n = t.c_coeff(n, m)
    u_n = t.ratio([(n + 1, m), (n - 1, m + 1)], [(n, m), (n, m + 1)])
    v_n = (u_n * (t.dt1_log_tau(n + 1, m) - t.dt1_log_tau(n - 1, m + 1))
           if u_n else u_n)
    shifted = (dq(n) + c_n * t.psop(n, m)
               - (v_n * t.psop(n - 1, m + 1) - u_n * dq(n - 1, m + 1)).shift(1))
    return {
        "derivative_pf": derivative_pf,
        "evolution": evolution,
        "shifted_evolution": shifted,
        "mixed": mixed_residual(sys, m, n),
    }


# ---------------------------------------------------------------------------
# Laurent sector: lattice variables and their exact flow
# ---------------------------------------------------------------------------


def toda_vars_and_residual(sys: MomentSystem, n: int) -> dict:
    """Second-derivative identity, the two family evolutions, and the lattice
    flow equations at site n, all as exact residuals (laurent tag)."""
    sys.require_exact()
    if sys.constraint != "laurent":
        raise ValueError("the lattice variable suite requires the laurent tag")
    t = taus(sys)

    a = lambda j: t.dt1_log_tau(2 * j, 0)  # noqa: E731
    d_n = _s2_ratio(t, 2 * n + 2, 0, -1) + _s2_ratio(t, 2 * n, 0, +1)
    b_n = t.toda_b(n)
    p = lambda j: t.sop(j, 0)  # noqa: E731
    lhs = (z_plus_dt1(t.tau_jet(2 * n, 0, J1), t.sop(2 * n + 1, 0, J1))
           / t.tau(2 * n, 0))
    second_derivative = lhs - (p(2 * n + 2) + (a(n) + a(n + 1)) * p(2 * n + 1)
                               - d_n * p(2 * n) + b_n * p(2 * n - 2))

    dp = lambda j: dt1(t.sop(j, 0, J1))  # noqa: E731
    evolution_even = (dp(2 * n) - b_n * dp(2 * n - 2)
                      + b_n * p(2 * n - 1) - a(n - 1) * b_n * p(2 * n - 2))
    evolution_odd = (dp(2 * n + 1) - a(n + 1) * dp(2 * n)
                     - (a(n) * a(n + 1) - d_n + 1) * p(2 * n)
                     - b_n * p(2 * n - 2))

    bj, cj = t.toda_b(n, J1), t.toda_c(n, J1)
    flow_b = bj.extract(1) - bj.base * (cj.base - (t.toda_c(n - 1) if n else 0))
    flow_c = cj.extract(1) - (t.toda_b(n + 1) - bj.base)
    return {
        "second_derivative": second_derivative,
        "evolution_even": evolution_even,
        "evolution_odd": evolution_odd,
        "flow_b": PolyInZ([flow_b]),
        "flow_c": PolyInZ([flow_c]),
    }
