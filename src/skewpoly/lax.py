"""Finite truncations of the banded operator pairs and the scalar recurrences.

Operators act on the wave vector Phi = (Q_0, Q_1, ...)^T of partial-family
polynomials; truncation at size N keeps rows and columns 0..N-1.  Each
operator is carried as a (value, t1-derivative) pair of exact scalar
matrices, so compatibility residuals like dL/dt_1 - (M' L - L M) are plain
matrix algebra.  Truncation artifacts live in the last rows/columns; the
asserted interior block is rows and columns 1..N-4 (inclusive), matching the
bandwidths in play.

Inverses of the triangular building blocks are exact: strictly triangular
parts are nilpotent at finite size, so the Neumann sum is finite, and the
truncated inverse agrees with the semi-infinite one inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .families import TauTable, dt1, taus, z_plus_dt1
from .jets import Jet, JetSpec
from .moments import MomentSystem
from .pfaffian import pf_indexed
from .poly import PolyInZ
from .scalars import exact_div, format_scalar

J1 = JetSpec(1)
J2 = JetSpec(2)


# ---------------------------------------------------------------------------
# Scalar matrix helpers (dense lists; entries are exact scalars)
# ---------------------------------------------------------------------------


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _identity(n):
    m = _zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def _mul(a, b):
    n = len(a)
    out = _zeros(n)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            v = ai[k]
            if not v:
                continue
            bk = b[k]
            for j in range(n):
                if bk[j]:
                    oi[j] = oi[j] + v * bk[j]
    return out


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _neg(a):
    return [[-x for x in row] for row in a]


def _inv_triangular(a):
    """Exact inverse of a triangular matrix with invertible diagonal."""
    n = len(a)
    lower = all(not a[i][j] for i in range(n) for j in range(i + 1, n))
    upper = all(not a[i][j] for i in range(n) for j in range(i))
    if not (lower or upper):
        raise ValueError("matrix is not triangular")
    d = [exact_div(1, a[i][i]) for i in range(n)]
    # Neumann sum: (I + S)^-1 D^-1 with S = D^-1 * strict part, nilpotent
    s = [[d[i] * (a[i][j] if i != j else 0) for j in range(n)] for i in range(n)]
    term = _identity(n)
    acc = _identity(n)
    for _ in range(n - 1):
        term = _neg(_mul(s, term))
        acc = _add(acc, term)
    return _mul(acc, [[d[i] if i == j else Fraction(0) for j in range(n)]
                      for i in range(n)])


@dataclass
class OpPair:
    """Operator value and its t_1 derivative, both truncated to size N."""

    val: list
    der: list

    def __matmul__(self, other: "OpPair") -> "OpPair":
        return OpPair(_mul(self.val, other.val),
                      _add(_mul(self.der, other.val), _mul(self.val, other.der)))

    def __add__(self, other: "OpPair") -> "OpPair":
        return OpPair(_add(self.val, other.val), _add(self.der, other.der))

    def __sub__(self, other: "OpPair") -> "OpPair":
        return OpPair(_sub(self.val, other.val), _sub(self.der, other.der))

    def inv_triangular(self) -> "OpPair":
        v = _inv_triangular(self.val)
        return OpPair(v, _neg(_mul(v, _mul(self.der, v))))

    @staticmethod
    def from_bands(n: int, bands: dict) -> "OpPair":
        """bands maps offset -> list of jet entries (row index i gives the
        entry at column i+offset)."""
        val, der = _zeros(n), _zeros(n)
        for off, entries in bands.items():
            for i in range(n):
                j = i + off
                if not (0 <= j < n):
                    continue
                e = entries[i]
                if e is not None:
                    val[i][j] = e.base
                    der[i][j] = e.extract(1)
        return OpPair(val, der)

    def bands_json(self) -> dict:
        n = len(self.val)
        out = {}
        for off in range(-(n - 1), n):
            entries = [self.val[i][i + off] for i in range(n) if 0 <= i + off < n]
            if any(entries):
                out[str(off)] = [format_scalar(Fraction(e) if isinstance(e, int)
                                               else e) for e in entries]
        return out


# ---------------------------------------------------------------------------
# Coefficient sequences as first-order jets
# ---------------------------------------------------------------------------


class LaxSequences:
    """Jet-valued diagonal sequences entering the operator constructions."""

    def __init__(self, sys: MomentSystem, m: int):
        sys.require_exact()
        self.sys = sys
        self.m = m
        self.t = taus(sys)

    def _tj(self, idx: int, m: int) -> Jet:
        return self.t.tau_jet(idx, m, J2)

    def _t1(self, idx: int, m: int) -> Jet:
        return self._tj(idx, m).truncate(J1)

    def logd(self, idx: int, m: int) -> Jet:
        tj = self._tj(idx, m)
        return tj.deriv(0) / tj.truncate(J1)

    def xi(self, n: int) -> Jet:
        m = self.m
        return (self._t1(n, m) * self._t1(n + 1, m + 1)) / (
            self._t1(n + 1, m) * self._t1(n, m + 1))

    def eta(self, n: int) -> Jet:
        m = self.m
        if n == 0:
            return Jet.constant(Fraction(0), J1)
        return (self._t1(n + 2, m) * self._t1(n - 1, m + 1)) / (
            self._t1(n + 1, m) * self._t1(n, m + 1))

    def k_mixed(self, n: int) -> Jet:
        return self.logd(n + 1, self.m) - self.logd(n, self.m)

    def j_mixed(self, n: int) -> Jet:
        m = self.m
        if n == 0:
            return Jet.constant(Fraction(0), J1)
        return (self._t1(n + 2, m) * self._t1(n - 1, m)) / (
            self._t1(n, m) * self._t1(n + 1, m))

    def i_ratio(self, n: int) -> Jet:
        m = self.m
        if n == 0:
            return Jet.constant(Fraction(0), J1)
        return (self._t1(n + 1, m) * self._t1(n - 1, m)) / (
            self._t1(n, m) * self._t1(n, m))

    def a_recip(self, n: int) -> Jet:
        """1 / (d/dt_1 log(tau_n^{(m)}/tau_n^{(m+1)})); n >= 1."""
        return (self.logd(n, self.m) - self.logd(n, self.m + 1)).inverse()

    def b_ratio(self, n: int) -> Jet:
        """tau_{n+1}^{(m)} tau_{n-1}^{(m+1)} / (-D_t1 tau_{n+1}^{(m)} .
        tau_{n-1}^{(m+1)}); n >= 1 (the sign matches the exact shifted
        derivative identity)."""
        m = self.m
        up = self._tj(n + 1, m)
        low = self._tj(n - 1, m + 1)
        d = up.deriv(0) * low.truncate(J1) - up.truncate(J1) * low.deriv(0)
        return -(self._t1(n + 1, m) * self._t1(n - 1, m + 1)) / d


def build_psop_lax(sys: MomentSystem, m: int, n_size: int) -> dict:
    """Truncated operator family at shift m.

    Always returns ``L`` (spectral: z Phi^{(m+1)} = L Phi^{(m)}) and
    ``M`` (mixed: (z + d/dt_1) Phi^{(m)} = M Phi^{(m)}).  Under the rank2
    constraint additionally ``N`` (Phi^{(m)} = z N Phi^{(m+1)}), ``L1``,
    ``L2`` (z d/dt_1 Phi^{(m+1)} = L1 d/dt_1 Phi^{(m)} + L2 Phi^{(m)}) and
    ``M_evo`` (d/dt_1 Phi^{(m)} = M_evo Phi^{(m)}).
    """
    if n_size < 4:
        raise ValueError("truncation size must be at least 4")
    seq = LaxSequences(sys, m)
    one = Jet.constant(Fraction(1), J1)
    xi = [seq.xi(n) for n in range(n_size + 1)]
    eta = [seq.eta(n) for n in range(n_size + 1)]
    kk = [seq.k_mixed(n) for n in range(n_size)]
    jj = [seq.j_mixed(n) for n in range(n_size)]

    lower = OpPair.from_bands(n_size, {0: [one] * n_size, -1: [None] + eta[1:n_size]})
    upper = OpPair.from_bands(n_size, {0: xi[:n_size], 1: [one] * n_size})
    ops = {"L": lower.inv_triangular() @ upper}
    ops["M"] = OpPair.from_bands(n_size, {
        1: [one] * n_size, 0: kk, -1: [None] + [-jj[n] for n in range(1, n_size)]})

    if sys.constraint == "rank2":
        ii = [seq.i_ratio(n) for n in range(n_size + 1)]
        aa = [None] + [seq.a_recip(n) for n in range(1, n_size + 2)]
        bb = [None] + [seq.b_ratio(n) for n in range(1, n_size + 2)]
        b3 = OpPair.from_bands(n_size, {0: xi[:n_size], 1: [one] * n_size})
        b4 = OpPair.from_bands(n_size, {0: [one] * n_size,
                                        -1: [None] + eta[1:n_size]})
        ops["N"] = b3.inv_triangular() @ b4
        g1 = OpPair.from_bands(n_size, {
            0: [bb[n + 1] for n in range(n_size)],
            -1: [None] + [eta[n] * bb[n] for n in range(1, n_size)]})
        # boundary convention eta_0 * a_0 = 0: eta_0 vanishes identically
        g3 = OpPair.from_bands(n_size, {
            0: [Jet.constant(Fraction(0), J1)] + [eta[n] * aa[n]
                                                  for n in range(1, n_size)],
            1: [aa[n + 1] for n in range(n_size)]})
        g5 = OpPair.from_bands(n_size, {0: [eta[n] - xi[n] for n in range(n_size)]})
        inv_g1 = g1.inv_triangular()
        ops["L1"] = inv_g1 @ g3
        ops["L2"] = inv_g1 @ g5
        b1 = OpPair.from_bands(n_size, {0: [ii[n + 1] for n in range(n_size)],
                                        1: [one] * n_size})
        b2 = OpPair.from_bands(n_size, {
            0: [ii[n + 1] * (kk[n + 1] + kk[n]) if n + 1 < n_size
                else ii[n + 1] * (seq.k_mixed(n + 1) + kk[n])
                for n in range(n_size)]})
        ops["M_evo"] = b1.inv_triangular() @ b2
    return ops


def operator_dump(sys: MomentSystem, m: int, n_size: int) -> dict:
    """JSON-ready snapshot of every built operator, bands keyed by offset."""
    return {name: op.bands_json()
            for name, op in build_psop_lax(sys, m, n_size).items()}


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
    here = build_psop_lax(sys, m, n_size)
    up = build_psop_lax(sys, m + 1, n_size)
    lo, hi = 1, n_size - 4
    if kind == "mixed":
        l_op, m_op, m_up = here["L"], here["M"], up["M"]
        res = _sub(l_op.der, _sub(_mul(m_up.val, l_op.val),
                                  _mul(l_op.val, m_op.val)))
    elif kind == "rank2-m":
        t_op = (here["L1"] @ here["M_evo"] + here["L2"]) @ here["N"]
        res = _sub(t_op.val, up["M_evo"].val)
    elif kind == "rank2-n":
        t_op = (here["L1"] @ here["M_evo"] + here["L2"]) @ here["N"]
        n_op, m_op = here["N"], here["M_evo"]
        res = _sub(n_op.der, _sub(_mul(m_op.val, n_op.val),
                                  _mul(n_op.val, t_op.val)))
    else:
        raise ValueError(f"unknown compatibility kind {kind!r}")
    interior = [row[lo:hi + 1] for row in res[lo:hi + 1]]
    return {
        "kind": kind,
        "interior_rows": (lo, hi),
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
    lval = ops["L"].val
    phi = [t.psop(i, m) for i in range(n_size)]
    out = []
    for i in range(1, n_size - 3):
        acc = PolyInZ.zero()
        for j in range(n_size):
            if lval[i][j]:
                acc = acc + lval[i][j] * phi[j]
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

    def kc(j):
        return t.dt1_log_tau(j + 1, m) - t.dt1_log_tau(j, m)

    def jc(j):
        if j == 0:
            return Fraction(0)
        return exact_div(t.tau(j + 2, m) * t.tau(j - 1, m),
                         t.tau(j, m) * t.tau(j + 1, m))

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
    kc = t.dt1_log_tau(n + 1, m) - t.dt1_log_tau(n, m)
    jc = Fraction(0) if n == 0 else exact_div(
        t.tau(n + 2, m) * t.tau(n - 1, m), t.tau(n, m) * t.tau(n + 1, m))
    return (t.psop(n, m).shift(1) + dt1(t.psop(n, m, spec=J1)) - t.psop(n + 1, m)
            - kc * t.psop(n, m) + jc * t.psop(n - 1, m))


def c2_evolution_residuals(sys: MomentSystem, m: int, n: int) -> dict:
    """Derivative formulas under the rank-two shift constraint.

    The bordered-Pfaffian derivative formula reads
    d/dt_1 (tau_n Q_n) = z^{-m} Pf(d0, d1, m, ..., m+n, z) for even n and
    z^{-m} Pf(d1, m, ..., m+n, z) for odd n (exact evaluation; no extra
    normalization factor), and the shifted evolution carries a minus sign on
    the derivative term of the lower family member.
    """
    sys.require_exact()
    if sys.constraint != "rank2":
        raise ValueError("this suite requires the rank2 constraint")
    t = taus(sys)
    lhs = dt1(t.psop(n, m, spec=J1) * t.tau_jet(n, m, J1))
    if n % 2 == 0:
        border = pf_indexed(["d0", "d1", *range(m, m + n + 1), "z"], sys,
                            cache=t.memo())
    else:
        border = pf_indexed(["d1", *range(m, m + n + 1), "z"], sys, cache=t.memo())
    derivative_pf = lhs - border.divide_z(m)

    def kc(j, mm=m):
        return t.dt1_log_tau(j + 1, mm) - t.dt1_log_tau(j, mm)

    def dq(j, mm=m):
        return dt1(t.psop(j, mm, spec=J1))

    i_n = Fraction(0) if n == 0 else exact_div(
        t.tau(n + 1, m) * t.tau(n - 1, m), t.tau(n, m) * t.tau(n, m))
    evolution = (dq(n) + i_n * dq(n - 1)
                 - i_n * (kc(n) + kc(n - 1)) * t.psop(n - 1, m))

    c_n = t.dt1_log_tau(n, m) - t.dt1_log_tau(n, m + 1)
    u_n = Fraction(0) if n == 0 else exact_div(
        t.tau(n + 1, m) * t.tau(n - 1, m + 1), t.tau(n, m) * t.tau(n, m + 1))
    up = t.tau_jet(n + 1, m, J1)
    low = t.tau_jet(n - 1, m + 1, J1)
    v_n = exact_div(up.extract(1) * low.base - up.base * low.extract(1),
                    t.tau(n, m) * t.tau(n, m + 1))
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


@dataclass
class TodaVars:
    b: list
    c: list


def toda_vars(sys: MomentSystem, n_max: int) -> TodaVars:
    """B_n = tau_{2n-2} tau_{2n+2} / tau_{2n}^2 and C_n = A_{n+1} - A_n with
    A_n = d/dt_1 log tau_{2n}; B_0 = 0 closes the lattice on the left."""
    sys.require_exact()
    t = taus(sys)
    b = [Fraction(0)]
    c = []
    for n in range(1, n_max + 1):
        b.append(exact_div(t.tau(2 * n - 2, 0) * t.tau(2 * n + 2, 0),
                           t.tau(2 * n, 0) ** 2))
    for n in range(n_max + 1):
        c.append(t.dt1_log_tau(2 * n + 2, 0) - t.dt1_log_tau(2 * n, 0))
    return TodaVars(b, c)


def toda_vars_and_residual(sys: MomentSystem, n: int) -> dict:
    """Second-derivative identity, the two family evolutions, and the lattice
    flow equations at site n, all as exact residuals (laurent tag)."""
    sys.require_exact()
    if sys.constraint != "laurent":
        raise ValueError("the lattice variable suite requires the laurent tag")
    t = taus(sys)

    def a(j):
        return t.dt1_log_tau(2 * j, 0)

    def b(j):
        if j == 0:
            return Fraction(0)
        return exact_div(t.tau(2 * j - 2, 0) * t.tau(2 * j + 2, 0),
                         t.tau(2 * j, 0) ** 2)

    d_n = _s2_ratio(t, 2 * n + 2, 0, -1) + _s2_ratio(t, 2 * n, 0, +1)
    p = lambda j: t.sop(j, 0)  # noqa: E731
    lhs = (z_plus_dt1(t.tau_jet(2 * n, 0, J1), t.sop(2 * n + 1, 0, J1))
           / t.tau(2 * n, 0))
    second_derivative = lhs - (p(2 * n + 2) + (a(n) + a(n + 1)) * p(2 * n + 1)
                               - d_n * p(2 * n) + b(n) * p(2 * n - 2))

    dp = lambda j: dt1(t.sop(j, 0, J1))  # noqa: E731
    evolution_even = (dp(2 * n) - b(n) * dp(2 * n - 2)
                      + b(n) * p(2 * n - 1) - a(n - 1) * b(n) * p(2 * n - 2))
    evolution_odd = (dp(2 * n + 1) - a(n + 1) * dp(2 * n)
                     - (a(n) * a(n + 1) - d_n + 1) * p(2 * n)
                     - b(n) * p(2 * n - 2))

    def tau_j2(idx):
        return t.tau_jet(idx, 0, J2)

    def logd(idx):
        tj = tau_j2(idx)
        return tj.deriv(0) / tj.truncate(J1)

    bj = ((tau_j2(2 * n - 2) * tau_j2(2 * n + 2))
          / (tau_j2(2 * n) * tau_j2(2 * n))).truncate(J1) if n >= 1 \
        else Jet.constant(Fraction(0), J1)
    cj = logd(2 * n + 2) - logd(2 * n)
    cjm = (logd(2 * n) - logd(2 * n - 2)) if n >= 1 else Jet.constant(Fraction(0), J1)
    bup = ((tau_j2(2 * n) * tau_j2(2 * n + 4))
           / (tau_j2(2 * n + 2) * tau_j2(2 * n + 2))).truncate(J1)
    flow_b = bj.extract(1) - bj.base * (cj.base - cjm.base)
    flow_c = cj.extract(1) - (bup.base - bj.base)
    return {
        "vars": TodaVars([bj.base], [cj.base]),
        "second_derivative": second_derivative,
        "evolution_even": evolution_even,
        "evolution_odd": evolution_odd,
        "flow_b": PolyInZ([flow_b]),
        "flow_c": PolyInZ([flow_c]),
    }
