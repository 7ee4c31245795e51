"""Tau functions, skew-orthogonal and partial-skew-orthogonal families.

Conventions (one place, used everywhere):

* tau_{2n}^{(m)}   = Pf(m, ..., m+2n-1), so tau_0 = 1 and tau_2^{(m)} = mu_{m,m+1}
* tau_{2n+1,k}^{(m)} = Pf(d_k, m, ..., m+2n)
* boundary values tau_{-1} = tau_{-2} = 0 so recurrences hold verbatim at n=0
* P_{2n}^{(m)}  = Pf(m,...,m+2n,z) / (z^m tau_{2n}^{(m)})
* P_{2n+1}^{(m)} = Pf(m,...,m+2n-1, m+2n+1, z) / (z^m tau_{2n}^{(m)}), P_1 = z
* Q_{2n}^{(m)} = P_{2n}^{(m)};  Q_{2n+1,k}^{(m)} = Pf(d_k, m,...,m+2n+1, z)
  / (z^m tau_{2n+1,k}^{(m)})

The z^{-m} division is exact: the spectral entries start at z^m.
Each chain of taus is one fraction-free skew elimination of its labels
without swaps (:func:`skewpoly.pfaffian.pf_chain`; E. H. Bareiss, Math.
Comp. 22, 1968): by the Pfaffian Sylvester identity (D. E. Knuth,
"Overlapping Pfaffians", Electron. J. Combin. 3(2), 1996) every pivot is a
link itself, so integer moments give integer taus with no fraction formed
(rational ones too: the chains read the table's moment kernel, scaled by
the lcm of the denominators, and each link leaves divided by its power of
it), and row r of the spectral column after the stages before it is the
numerator Pf(leading labels, row r's label, z) / z^m over its link tau,
kept integral (:meth:`TauTable._member`) until ``sop``/``psop`` divide it:
rows 2n, 2n+1 (odd chain: 2n+2) are P_{2n}, P_{2n+1} (Q_{2n+1,k}).
The flows raise labels, so on the labels L = (..., M-1, M) of a link only
raising the top ones repeats none (M. Adler, P. van Moerbeke, Duke Math. J.
112, 2002): tau' = Pf(L, M -> M+1) and, with y = Pf(L, M -> M+2) and x =
Pf(L, (M-1, M) -> (M, M+1)) (0 when M-1 is the head row, tau_1 = beta_m),
tau'' = y + x and d/dt_2 tau = y - x.  These are the link's pivot-row
entries ``tops``, so tau jets of weight <= 2 come off the chain too; the
``JetSpec(1)`` members come off the spectral column of its first-order copy
(``pf_chain(..., jets=True)``), never off a raised label.  Past a
vanishing link (a zero base, for jets) a chain goes on by block eliminations
of the rows it left, so every link, top and member comes off its chain (a
read past ``max_index`` raises ``OutOfRangeError``); tau jets stop at weight
2, jet members at 1.  All values are cached per system in a :class:`TauTable`
owned by the system; downstream residual suites reuse hundreds of tau
values, so the cache is not optional.
Each chain is built once, spectral column included, by one sweep through a
grid's last link (:meth:`TauTable.build_chains`, run over a read plan's
grid by :meth:`TauTable.sweep` for ``verify`` and shift by shift by
``gen``'s :func:`vanishing_taus`); a read past it grows, at least doubling.

Coefficients.  Every recurrence, transform and operator band is built from
the ratios below, each defined once as a :class:`TauTable` method that
returns a scalar or, given ``spec=JetSpec(1)``, its first-order jet (so a
t_1 derivative is one ``.extract(1)`` away).  A numerator holding a boundary
tau makes the coefficient 0.  With logd_n^{(m)} = d/dt_1 log tau_n^{(m)}
(``dt1_log_tau``):

    K_n^m   = logd_{n+1}^{(m)} - logd_n^{(m)}                            k_coeff
    J_n^m   = tau_{n+2}^{(m)} tau_{n-1}^{(m)} / (tau_n^{(m)} tau_{n+1}^{(m)})  j_coeff
    I_n^m   = tau_{n+1}^{(m)} tau_{n-1}^{(m)} / (tau_n^{(m)})^2              i_coeff
    c_n^m   = logd_n^{(m)} - logd_n^{(m+1)}                              c_coeff
    xi_n^m  = tau_n^{(m)} tau_{n+1}^{(m+1)} / (tau_{n+1}^{(m)} tau_n^{(m+1)})  xi
    eta_n^m = tau_{n+2}^{(m)} tau_{n-1}^{(m+1)} / (tau_{n+1}^{(m)} tau_n^{(m+1)})  eta
    B_n     = tau_{2n-2} tau_{2n+2} / tau_{2n}^2    (Toda lattice, m = 0)  toda_b
    C_n     = logd_{2n+2} - logd_{2n}                (Toda lattice, m = 0)  toda_c

xi and eta take the component k of their odd taus.  The skew-orthogonal
shift transforms (:mod:`skewpoly.christoffel`) use

    A_n^m = P_{2n+1}^{(m)}(0) / P_{2n}^{(m)}(0) = logd_{2n}^{(m+1)}
    B_n^m = tau_{2n+2}^{(m)} tau_{2n-2}^{(m+1)} / (tau_{2n}^{(m)} tau_{2n}^{(m+1)})
    C_n^m = tau_{2n}^{(m)} tau_{2n+2}^{(m+1)} / (tau_{2n+2}^{(m)} tau_{2n}^{(m+1)})
    D_n^m = logd_{2n+2}^{(m)}  (for m >= 1 also P_{2n+3}^{(m-1)}(0) /
            P_{2n+2}^{(m-1)}(0), which the tests check against it)

Each tau's record (tau, tau', logd, tau'', d/dt_2 tau) is read off its
chain's ``tops`` once (:meth:`TauTable._logd`), and every tau jet and
coefficient jet reads it: logd's jet is (logd, tau''/tau - logd^2) and a
ratio R's (R, R (sum_num logd - sum_den logd)), with no jet inverse.

The skew inner product <z^i, z^j> = mu_{i,j} extends bilinearly.
:func:`skew_gram` evaluates a whole table of pairs <f, g> as one product
F M G^T in the Pfaffian kernel's types: each polynomial is integral over
one denominator (a member as its chain leaves it), the moments come from
the table's kernel as ints (Gaussian ones as Gaussian integers), and each
entry is divided once, by both denominators and the kernel's scale.  The
ORTHOGONALITY checks take one Gram each and subtract the closed forms
<z^m P_2n, z^m P_2n+1> = tau_{2n+2} / tau_{2n}, every other pair but its
transpose 0 (:func:`orthogonality_defects`), and, against the monomials,
<z^m Q_2n+1,k, z^{m+i}> = -beta^{(k)}_{m+i} tau_{2n+2} / tau_{2n+1,k}
(:func:`psop_inner_defects`), all at shift m.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import TYPE_CHECKING

from .jets import J1, NOT_A_UNIT, Jet, JetSpec, TruncationError
from .pfaffian import (MomentKernel, OutOfRangeError, _bareiss, _den_lcm, _interpolate,
                       _q, _z, det_bareiss, miwa_chain, pf_chain)
from .poly import PolyInZ
from .record import Record
from .scalars import GaussianRational, exact_div

if TYPE_CHECKING:
    from .moments import MomentSystem


class ReadPlan(Record):
    """How far a catalog run on the (n_max, m_max) grid reads: ``tau_grid`` =
    (n, m) is gen's nonzero-tau grid and the chains verify sweeps
    (:meth:`TauTable.sweep`), ``miwa_top`` the largest idx whose Schur
    layers it reads (BKP_LARGE's tau_{2 n_max + 2}), and ``max_index`` covers
    tau_{2 n_max + 3} at shift m_max + 1 with jets of weight 2 n_max + 2, more
    than the grid identities read (Schur layers come from Miwa shifts, jets
    have weight <= 2); it stays because it fixes the size, hence the random
    draws, of every generated system.  The operator blocks (:meth:`blocks`)
    have the fixed size ``LAX_SIZE``; their taus reach index LAX_SIZE + 2,
    and their jets of weight 2 two more."""

    __slots__ = _fields = ("max_index", "tau_grid", "miwa_top")
    LAX_SIZE = 6

    @classmethod
    def of(cls, n_max: int, m_max: int) -> ReadPlan:
        return cls(max(m_max + 4 * n_max + 6, cls.LAX_SIZE + 4), (n_max + 2, m_max + 1),
                   2 * n_max + 2)

    @staticmethod
    def blocks(sys: MomentSystem) -> tuple:
        """The operator blocks (``lax.lax_compat_residual`` kinds, each at
        shift 0, reading shifts 0 and 1) a catalog run checks on ``sys``:
        ``mixed`` on one component without conjugate rows, the rank2 ones on rank2."""
        mixed = ("mixed",) if sys.ell == 1 and sys.beta_bar is None else ()
        return mixed + (("rank2-m", "rank2-n") if sys.constraint == "rank2" else ())


class TauTable:
    """Every per-system cache: the moments as loop entries, the tau and C2
    chains and the Schur layers (sized by a :class:`ReadPlan` through
    :meth:`sweep`), plus the operator families built from them."""

    def __init__(self, sys: MomentSystem):
        self.sys = sys
        self._kernel: MomentKernel | None = None
        # (m, head labels, jets) -> (last moment label, pf_chain output): the
        # tau and C2 chains and their first-order copies
        self._chains: dict = {}
        self._logds: dict = {}  # (idx, m, k, conj) -> the _logd record
        # (idx, m, k, conj, spec) -> public member, converted on first read
        self._polys: dict = {}
        # (idx, m, k, conj) -> schur_layers, off Miwa chains through the idx
        # asked or, if larger, _miwa_top (ReadPlan.miwa_top, set by sweep)
        self._layers: dict = {}
        self._miwa_top = 0
        # k -> [(sop, psop) defect determinant of n] for n <= its top
        self._dets: dict = {}
        # (m, n_size) -> lax.build_psop_lax operator dict; (m, n_size, "T") ->
        # the rank2 product (L1 M_evo + L2) N (lax.lax_compat_residual)
        self.operators: dict = {}

    def kernel(self) -> MomentKernel:
        """The system's moments as loop entries, converted on first use."""
        if self._kernel is None:
            self._kernel = MomentKernel(self.sys)
        return self._kernel

    # -- tau values --------------------------------------------------------

    @staticmethod
    def tau_labels(idx: int, m: int, k: int, conj: bool):
        """Labels of tau_idx^{(m)}, idx >= 0, for every chain and member: odd
        idx borders the moments with the single-moment row k (conjugate if conj)."""
        return [*_tau_head(k, conj, idx % 2), *range(m, m + idx)]

    def tau(self, idx: int, m: int, k: int = 1, conj: bool = False):
        """Unified tau_idx^{(m)}, a link of its chain; odd idx takes the
        component k (conjugate row if ``conj``).  Negative idx returns the
        boundary value 0."""
        if idx <= 0:
            return int(idx == 0)
        return self._chain(m, _tau_head(k, conj, idx % 2), m + idx - 1)[0]((idx + 1) // 2)

    def tau_jet(self, idx: int, m: int, spec: JetSpec, k: int = 1,
                conj: bool = False) -> Jet:
        """The jet of :meth:`tau` of weight <= 2 off :meth:`_logd`; a heavier
        one, or one of weight 2 the record cannot give, raises."""
        if spec.weight > 2:
            raise TruncationError(f"tau jets stop at weight 2, not {spec}")
        tau, d1, _, d11, d2 = self._logd(idx, m, k, conj)
        if d11 is None and spec.weight == 2:
            raise OutOfRangeError(f"tau_{idx}^({m})'' reads label {m + idx + 1} > max_index")
        return Jet.of_derivatives(spec, {(0,): tau, (1,): d1, (2,): d11, (0, 1): d2})

    def moment_rows(self):
        """The (k, conj) of every single-moment row, conjugate rows included."""
        conjs = (False, True) if self.sys.beta_bar is not None else (False,)
        return [(k, conj) for k in range(1, self.sys.ell + 1) for conj in conjs]

    def build_chains(self, n_max: int, m: int) -> None:
        """Sweep shift m's even and row chains through the n_max grid's last
        link and, at a shift an operator block reads (0 and 1 on a system
        :meth:`ReadPlan.blocks` names one for), within ``max_index`` through
        the component-1 tau jets (idx <= ``ReadPlan.LAX_SIZE`` + 1) it reads."""
        blocks = m < 2 and ReadPlan.blocks(self.sys)
        for odd, k, conj in [(0, 1, False), *((1, k, c) for k, c in self.moment_rows())]:
            floor = (min(m + ReadPlan.LAX_SIZE + 1 + odd, self.sys.max_index)
                     if blocks and k == 1 else 0)
            self._chain(m, _tau_head(k, conj, odd), max(m + 2 * n_max - 1 + odd, floor))

    def sweep(self, plan: ReadPlan) -> None:
        """Ready the table for a catalog run on ``plan``'s grid: the Miwa
        chains reach ``plan.miwa_top``, and each shift's chains are swept
        through ``plan.tau_grid`` (:meth:`build_chains`), the grid gen scans."""
        self._miwa_top = plan.miwa_top
        n_max, m_max = plan.tau_grid
        for m in range(m_max + 1):
            self.build_chains(n_max, m)

    def _chain(self, m, head, last, jets=False):
        """``pf_chain`` (on first-order jets if ``jets``: it reads one label
        more and is first built through the members a catalog run reads,
        ``_miwa_top`` - 1) of ``head``, then the moment labels from m not in
        it, through ``last`` at least; past ``max_index`` (d1 reads one label
        more, like a jet) ``OutOfRangeError``.  Past its first build, growth at
        least doubles."""
        top = self.sys.max_index - jets - (_D1 in head)
        if last > top:
            raise OutOfRangeError(f"a chain through label {last} reads past {top}")
        got = self._chains.get((m, head, jets))
        if got:
            have, out = got
            if have >= last:
                return out
            last = max(last, 2 * have - m + 1)
        elif jets:
            last = max(last, m + self._miwa_top - 1)
        last = min(last, top)
        labels = [*head, *(x for x in range(m, last + 1) if x not in head)]
        out = pf_chain(labels, self.kernel(), jets=jets)
        self._chains[m, head, jets] = (last, out)
        return out

    def c2_border(self, n: int, m: int) -> PolyInZ:
        """The rank2 C2 border z^{-m} Pf(d0, d1, m, ..., m+n, z) (even n) or
        z^{-m} Pf(d1, m, ..., m+n, z) (odd n): the border row of label m + n
        of the chain on (d0, m, d1, m+1, ...), one swap away, so minus, or on
        (d1, m, m+1, ...), first built through C2_SUITE's largest n,
        ``_miwa_top`` - 2 = 2 n_max.  Links Pf(d0, m) = beta_m, Pf(d0, m, d1,
        m+1) = beta_m beta_{m+2} - beta_{m+1}^2 are generically units."""
        head = (_D0, m, _D1) if n % 2 == 0 else (_D1,)
        border = self._chain(m, head, m + max(n, self._miwa_top - 2))[3]
        return -border(n + 2) if n % 2 == 0 else border(n + 1)  # the row of label m + n

    def schur_layers(self, idx: int, m: int, k: int = 1, conj: bool = False):
        """tau_idx^{(m)}(t - [z]) and its t_1 derivative, polynomials in z
        whose z^j coefficients are s_j(-dtilde) tau and its d/dt_1
        (:class:`skewpoly.bilinear.SchurTau`), kept.  One :func:`miwa_chain`
        per (m, k, conj, parity), on the tau labels of its top idx and the
        top label raised, gives every idx of that parity at the nodes z =
        0..top, each interpolated: the top is the run's largest idx of the
        parity within ``max_index`` (``ReadPlan.miwa_top``, set by
        :meth:`sweep`), or idx if larger, so each node is eliminated once."""
        if idx % 2 == 0:
            k, conj = 1, False  # an even tau holds no single-moment row
        if idx <= 0:  # the constants tau_0 = 1 and tau_{-1} = 0
            return PolyInZ([Fraction(1)] * (idx + 1)), PolyInZ.zero()
        key = (idx, m, k, conj)
        if key not in self._layers:
            cap, odd = self.sys.max_index - m - 1, idx % 2  # the shift reads the top + 1
            if idx > cap:
                raise OutOfRangeError(f"Schur layers of tau_{idx}^({m}) read moment index "
                                      f"{m + idx + 1} > max_index {self.sys.max_index}")
            top = min(self._miwa_top, cap)
            top = max(idx, top - (top - idx) % 2)
            kern = self.kernel()
            links, raised = miwa_chain([*self.tau_labels(top, m, k, conj), m + top], kern, top)
            for s in range(len(links)):
                i, den = 2 * s + 2 - odd, kern.scale ** (s + 1)
                self._layers[i, m, k, conj] = (_interpolate(links[s][:i + 1], den),
                                               _interpolate(raised[s][:i + 1], den))
        return self._layers[key]

    def determinants(self, n: int, k: int = 1) -> tuple:
        """The (sop, psop) values of :func:`orthogonality_determinant` at n, a
        ZeroDivisionError in place of one whose closed form does not exist;
        kept.  One elimination gives every n through the run's largest
        (``ReadPlan.miwa_top`` // 2 - 1, set by :meth:`sweep`), or n if larger."""
        got = self._dets.get(k)
        if got is None or n >= len(got):
            got = self._dets[k] = _determinants(self, max(n, self._miwa_top // 2 - 1), k)
        return got[n]

    def _logd(self, idx, m, k=1, conj=False):
        """(tau, tau', logd, tau'', d/dt_2 tau) of tau_idx^{(m)}, ' = d/dt_1,
        logd = tau'/tau (None if tau = 0), kept: Pf(L), Pf(L, M -> M+1), y + x,
        y - x off its chain's ``tops``, the last two None where label M + 2 is
        past ``max_index``.  A zero tau or tau' is the int 0, as a jet reads."""
        got = self._logds.get((idx, m, k, conj))
        if got is None:
            if idx <= 0:
                tau, d1, d11, d2 = int(idx == 0), 0, 0, 0
            else:
                leading, tops, *_ = self._chain(m, _tau_head(k, conj, idx % 2),
                                                m + idx + (m + idx < self.sys.max_index))
                s = (idx + 1) // 2
                d1, x, *y = tops(s - 1)
                x = 0 if idx == 1 else x  # tau_1 = beta_m: no label M - 1
                tau, d1 = leading(s) or 0, d1 or 0
                d11, d2 = (y[0] + x, y[0] - x) if y else (None, None)
            got = (tau, d1, exact_div(d1, tau) if tau else None, d11, d2)
            self._logds[idx, m, k, conj] = got
        return got

    def dt1_log_tau(self, idx: int, m: int, k: int = 1,
                    spec: JetSpec | None = None):
        """logd = d/dt_1 log tau_idx^{(m)}: a scalar, or with ``spec`` (only
        ``JetSpec(1)``) the jet (logd, tau''/tau - logd^2) off :meth:`_logd`."""
        tau, d1, logd, d11, _ = self._logd(idx, m, k)
        if spec is None:
            return logd if tau else exact_div(d1, tau)
        if not tau:
            raise ZeroDivisionError(NOT_A_UNIT)
        if d11 is None:
            raise OutOfRangeError(f"tau_{idx}^({m})'' reads label {m + idx + 1} > max_index")
        return Jet.first_order(logd, exact_div(d11, tau) - logd * logd)

    def ratio(self, num, den, spec: JetSpec | None = None):
        """R = prod tau(num) / prod tau(den) over refs (idx, m) or (idx, m, k): a
        scalar, or with ``spec`` (only ``JetSpec(1)``) the jet (R, R') off
        :meth:`_logd`, R' = (prod num)' / prod den - R sum_den logd (no logd of
        a vanishing numerator tau).  0 when ``num`` holds a boundary tau."""
        if any(ref[0] < 0 for ref in num):
            return Fraction(0) if spec is None else Jet.constant(Fraction(0), spec)
        if spec is None:
            return exact_div(prod(self.tau(*r) for r in num), prod(self.tau(*r) for r in den))
        val = {ref: self._logd(*ref) for ref in {*num, *den}}
        d = prod(val[r][0] for r in den)
        if not d:
            raise ZeroDivisionError(NOT_A_UNIT)
        taus = [val[r][0] for r in num]
        big = exact_div(prod(taus), d)
        d1 = sum(val[r][1] * prod(taus[:i] + taus[i + 1:]) for i, r in enumerate(num))
        return Jet.first_order(big, exact_div(d1, d) - big * sum(val[r][2] for r in den))

    # -- the coefficient table (module docstring) ---------------------------

    def k_coeff(self, n: int, m: int, spec: JetSpec | None = None):
        return (self.dt1_log_tau(n + 1, m, spec=spec)
                - self.dt1_log_tau(n, m, spec=spec))

    def j_coeff(self, n: int, m: int, spec: JetSpec | None = None):
        return self.ratio([(n + 2, m), (n - 1, m)], [(n, m), (n + 1, m)], spec)

    def i_coeff(self, n: int, m: int, spec: JetSpec | None = None):
        return self.ratio([(n + 1, m), (n - 1, m)], [(n, m), (n, m)], spec)

    def c_coeff(self, n: int, m: int, spec: JetSpec | None = None):
        return (self.dt1_log_tau(n, m, spec=spec)
                - self.dt1_log_tau(n, m + 1, spec=spec))

    def xi(self, n: int, m: int, k: int = 1, spec: JetSpec | None = None):
        return self.ratio([(n, m, k), (n + 1, m + 1, k)],
                          [(n + 1, m, k), (n, m + 1, k)], spec)

    def eta(self, n: int, m: int, k: int = 1, spec: JetSpec | None = None):
        return self.ratio([(n + 2, m, k), (n - 1, m + 1, k)],
                          [(n + 1, m, k), (n, m + 1, k)], spec)

    def toda_b(self, n: int, spec: JetSpec | None = None):
        return self.ratio([(2 * n - 2, 0), (2 * n + 2, 0)], [(2 * n, 0), (2 * n, 0)],
                          spec)

    def toda_c(self, n: int, spec: JetSpec | None = None):
        return (self.dt1_log_tau(2 * n + 2, 0, spec=spec)
                - self.dt1_log_tau(2 * n, 0, spec=spec))

    # -- polynomial families -------------------------------------------------

    def sop(self, idx: int, m: int, spec: JetSpec | None = None) -> PolyInZ:
        """Monic degree-idx member of the m-th adjacent skew-orthogonal family;
        with ``spec`` its coefficients are jets (a time-dependent polynomial)."""
        return self._poly(idx, m, None, False, spec)

    def psop(self, idx: int, m: int, k: int = 1, conj: bool = False,
             spec: JetSpec | None = None) -> PolyInZ:
        """Monic degree-idx partial family member; even members coincide with sop."""
        if idx % 2 == 0:
            return self.sop(idx, m, spec)
        return self._poly(idx, m, k, conj, spec)

    def _poly(self, idx, m, k, conj, spec) -> PolyInZ:
        """A member in public types, divided once and kept."""
        key = (idx, m, k, conj, spec)
        if key not in self._polys and spec is None:
            num, den = self._member(idx, m, k, conj)
            self._polys[key] = PolyInZ([_q(c, den) for c in num])
        elif key not in self._polys:  # D a jet link, or 1 (rows 0 and 1)
            num, den = self._member(idx, m, k, conj, spec)
            # R / D = R Dbar / d0^2 for D = d0 + d1 eps, Dbar = d0 - d1 eps
            bar, d = ((Jet.constant(1, spec), 1) if den == 1 else
                      (Jet.first_order(den.base, -den.slope), den.base * den.base))
            if type(d) is GaussianRational:  # over the int norm of a Gaussian d0^2
                bar, d = bar * d.conjugate(), d.norm()
            self._polys[key] = PolyInZ([_q(c * bar, d) for c in num])
        return self._polys[key]

    def _member(self, idx, m, k=None, conj=False, spec=None):
        """P_idx^{(m)} (``k`` None) or Q_idx^{(m)} of component k as (R, D) = sum
        R[i] z^i / D, ([], 1) for idx < 0: row idx (odd chain: idx + 1) of its
        chain's spectral column, of its first-order copy's for ``JetSpec(1)``
        coefficients (no other ring); a D that is no unit raises."""
        if spec is not None and spec != J1:
            raise TruncationError(f"jet members are JetSpec(1) only, not {spec}")
        if idx < 0:
            return [], 1
        norm_idx, k = (idx, k) if k and idx % 2 else (idx - idx % 2, 1)
        num, den = self._chain(m, _tau_head(k, conj, norm_idx % 2), m + idx,
                               spec is not None)[2](idx + norm_idx % 2)
        if not (den.base if isinstance(den, Jet) else den):
            raise ZeroDivisionError(NOT_A_UNIT if spec else
                                    f"vanishing normalizer tau_{norm_idx}^({m}) k={k}")
        return num, den

    def member_sum(self, terms) -> PolyInZ:
        """sum c z^shift member over ``terms`` (c, shift, idx, m[, k]), members read
        in order, in Z over the lcm of the denominators; divided only if nonzero."""
        parts = [(_z(c * d), shift, num, d * den) for c, shift, *ref in terms
                 for num, den in [self._member(*ref)] if c and num for d in [_den_lcm([c])]]
        big = lcm(*(d for *_, d in parts))
        acc = [0] * max((shift + len(num) for _, shift, num, _ in parts), default=0)
        for c, shift, num, d in parts:
            c *= big // d
            for i, x in enumerate(num, shift):
                acc[i] += c * x
        return PolyInZ([_q(x, big) for x in acc]) if any(acc) else PolyInZ.zero()

    def sop_at_zero(self, idx: int, m: int):
        """Constant terms: P_{2n}^{(m)}(0) = tau_{2n}^{(m+1)} / tau_{2n}^{(m)}
        in closed form; P_{2n+1}^{(m)}(0) is read off the member itself."""
        if idx % 2 == 0:
            return exact_div(self.tau(idx, m + 1), self.tau(idx, m))
        num, den = self._member(idx, m)
        return _q(num[0], den)


_D0, _D1 = ("shift", 0), ("shift", 1)  # rank2's derivative rows (MomentKernel)


def _tau_head(k: int, conj: bool, odd: int) -> tuple:
    """An odd tau chain's row label before its moments (k, conjugate if conj)."""
    return (("cbar" if conj else "comp", k),) if odd else ()


def taus(sys: MomentSystem) -> TauTable:
    """The system's own TauTable (created on first use, freed with it)."""
    tab = sys._tau_table
    if tab is None:
        tab = TauTable(sys)
        object.__setattr__(sys, "_tau_table", tab)
    return tab


def vanishing_taus(sys: MomentSystem, n_max: int, m_max: int):
    """Yield the ``tau`` arguments (idx, m) or (idx, m, k, conj) of every
    vanishing tau_idx^{(m)} with idx <= 2 n_max + 1 and m <= m_max, each
    component's conjugate row included: the one existence check (``gen``'s
    ``require_tau``).  The single-entry taus come first, shift by shift:
    tau_1^{(m)}, a row entry beta^{(k)}_m (its conjugate's for a conjugate
    row), and tau_2^{(m)} = mu_{m,m+1}, read off the system before any
    kernel or chain is built.  Then, shift by shift, the chain taus idx >= 3
    by idx: each shift's chains are swept on the system's own table just
    before they are read, so a scan stopped early builds no later shift."""
    t = taus(sys)
    rows = t.moment_rows()
    for m in range(m_max + 1):
        for k, conj in rows:
            if not sys._moment("beta_bar" if conj else "beta", k, m):
                yield (1, m, k, conj)
        if n_max and not sys.mu_entry(m, m + 1):
            yield (2, m)
    for m in range(m_max + 1):
        t.build_chains(n_max, m)
        for n in range(1, n_max + 1):
            if n > 1 and not t.tau(2 * n, m):
                yield (2 * n, m)
            for k, conj in rows:
                if not t.tau(2 * n + 1, m, k, conj):
                    yield (2 * n + 1, m, k, conj)


def tau(sys: MomentSystem, idx: int, m: int, k: int = 1, conj: bool = False):
    return taus(sys).tau(idx, m, k, conj)


def sop(sys: MomentSystem, idx: int, m: int) -> PolyInZ:
    return taus(sys).sop(idx, m)


def psop(sys: MomentSystem, idx: int, m: int, k: int = 1) -> PolyInZ:
    return taus(sys).psop(idx, m, k)


def sop_at_zero(sys: MomentSystem, idx: int, m: int):
    return taus(sys).sop_at_zero(idx, m)


def dt1(poly: PolyInZ) -> PolyInZ:
    """d/dt_1 of a polynomial in z with jet coefficients."""
    return poly.map_coeffs(lambda c: c.extract(1))


def z_plus_dt1(tau: Jet, poly: PolyInZ) -> PolyInZ:
    """(z + d/dt_1)(tau P) at the base point, for a jet tau and a polynomial
    P with jet coefficients of the same ring."""
    prod = poly * tau
    return prod.map_coeffs(lambda c: c.base).shift(1) + dt1(prod)


def skew_gram(sys: MomentSystem, fs, gs) -> list:
    """[[<f, g> for g in gs] for f in fs] for polynomials with exact scalar
    coefficients or cleared ones (:func:`_cleared`), <z^i, z^j> = mu_{i,j}
    extended bilinearly, as one product F M G^T in kernel types: each
    polynomial is cleared to integral coefficients c_f over one int d_f,
    v_f = c_f M is formed once per f, and each entry v_f . c_g / (d_f d_g s)
    is divided once on the way out.  M is the block of the table's moment
    kernel (scaled by s) at the exponents some f and some g carry, so it
    reads no index the pairs would not."""
    cf, cg = ([h if type(h) is tuple else _cleared(h) for h in hs] for hs in (fs, gs))
    rows, cols = (sorted({i for c, _ in h for i, x in enumerate(c) if x}) for h in (cf, cg))
    kern = taus(sys).kernel()
    block = [[kern.mu[i][j] for i in rows] for j in cols]
    gram = []
    for c, d in cf:
        c = [c[i] if i < len(c) else 0 for i in rows]
        v = dict(zip(cols, [sum(map(mul, c, col)) for col in block]))
        gram.append([_q(sum(v[j] * b for j, b in enumerate(g) if b), d * e * kern.scale)
                     for g, e in cg])
    return gram


def _cleared(f: PolyInZ):
    """(R, d) with f = sum_i R[i] z^i / d, d the lcm of the denominators of
    its coefficients and R[i] = _z(d f_i) a loop entry (an int, or a
    Gaussian rational with int parts): the form of a cleared member."""
    d = _den_lcm(f.coeffs)
    return [_z(x * d) for x in f.coeffs], d


def skew_inner(sys: MomentSystem, f: PolyInZ, g: PolyInZ):
    """<f, g>, one entry of :func:`skew_gram`."""
    return skew_gram(sys, [f], [g])[0][0]


def orthogonality_defects(sys: MomentSystem, m: int, max_degree: int) -> list:
    """<z^m P_a^{(m)}, z^m P_b^{(m)}> minus its closed form for a, b <=
    max_degree, row by row off one Gram; zero when the skew-orthogonality
    relations hold."""
    t = taus(sys)
    ps = [t._member(a, m) for a in range(max_degree + 1)]
    ps = [([0] * m + num, den) for num, den in ps]
    out = []
    for a, row in enumerate(skew_gram(sys, ps, ps)):
        for b, val in enumerate(row):
            expected = 0
            if a % 2 == 0 and b % 2 == 1 and b == a + 1:
                expected = exact_div(t.tau(a + 2, m), t.tau(a, m))
            elif a % 2 == 1 and b % 2 == 0 and a == b + 1:
                expected = -exact_div(t.tau(b + 2, m), t.tau(b, m))
            out.append(val - expected)
    return out


def psop_inner_defects(sys: MomentSystem, m: int, k: int, n_max: int) -> list:
    """<z^m Q_idx^{(m)}, z^{m+i}> minus its closed form for n <= n_max,
    0 <= i <= 2n+1 and idx = 2n, 2n+1 (in that nesting), off one Gram of
    the members against the monomials."""
    t = taus(sys)
    members = [t._member(idx, m, k) for idx in range(2 * n_max + 2)]
    gram = skew_gram(sys, [([0] * m + num, den) for num, den in members],
                     [([0] * (m + i) + [1], 1) for i in range(2 * n_max + 2)])
    out = []
    for n in range(n_max + 1):
        for i in range(2 * n + 2):
            even = exact_div(t.tau(2 * n + 2, m), t.tau(2 * n, m)) if i == 2 * n + 1 else 0
            odd = -exact_div(sys.beta_entry(k, m + i) * t.tau(2 * n + 2, m),
                             t.tau(2 * n + 1, m, k))
            out += [gram[2 * n][i] - even, gram[2 * n + 1][i] - odd]
    return out


def orthogonality_determinant(sys: MomentSystem, n: int, choice: str = "psop",
                              k: int = 1):
    """The (2n+2) x (2n+2) consistency determinant for the odd-member defect
    parameters; it must vanish for both the skew-orthogonal and the partial
    family choices.  Its rows are kernel entries (scaled by s) and a last
    column cleared by its lcm d, so it runs in Z and divides once, by d
    s^(2n+1); every n and both choices come off one elimination per k
    (:meth:`TauTable.determinants`)."""
    if choice not in ("sop", "psop"):
        raise ValueError(choice)
    value = taus(sys).determinants(n, k)[choice == "psop"]
    if isinstance(value, ZeroDivisionError):
        raise value.with_traceback(None)  # kept: drop the tracebacks of earlier raises
    return value


def _last_columns(t: TauTable, n: int, k: int) -> list:
    """The two last columns of the (n, k) determinant, sop then psop, each as
    (cleared entries, d), or the ZeroDivisionError of its closed form."""
    sys, out = t.sys, []
    for choice in ("sop", "psop"):
        try:
            if choice == "sop":
                gap = exact_div(t.tau(2 * n + 2, 0), t.tau(2 * n, 0))
                alpha = [(-gap if i == 2 * n else Fraction(0)) for i in range(2 * n + 2)]
            else:
                ratio = exact_div(t.tau(2 * n + 2, 0), t.tau(2 * n + 1, 0, k))
                alpha = [-sys.beta_entry(k, i) * ratio for i in range(2 * n + 2)]
        except ZeroDivisionError as exc:
            out.append(exc)
            continue
        last = [sys.mu_entry(2 * n + 1, r) - alpha[r] for r in range(2 * n + 2)]
        d = _den_lcm(last)
        out.append(([_z(x * d) for x in last], d))
    return out


def _determinants(t: TauTable, n_top: int, k: int) -> list:
    """The (sop, psop) pair of every n <= n_top.  The matrix of n is rows
    0..2n+1 of the kernel's mu block transposed, on columns 0..2n, then its
    last column; a skew block of odd order is singular, so the rows go in
    pairs (1, 0, 3, 2, ...), each n's rows lead the next's, and one
    elimination without swaps (:func:`_bareiss`) over columns 0..2 n_top
    leaves both determinants of n, sign (-1)^(n+1), in row 2n + 1, each row
    bordered by the last columns of the n that read it.  An n past a zero
    pivot takes an elimination of its own, with swaps (:func:`det_bareiss`)."""
    mu, scale = t.kernel().mu, t.kernel().scale
    cols = [_last_columns(t, n, k) for n in range(n_top + 1)]

    def border(r, n):
        return [c[0][r] if type(c) is tuple else 0 for c in cols[n]]
    width = 2 * n_top + 1
    rows = [[mu[c][r] for c in range(width)]
            + [x for n in range(n_top, r // 2 - 1, -1) for x in border(r, n)]
            for r in (p ^ 1 for p in range(2 * n_top + 2))]
    done, _ = _bareiss(rows, swaps=False)
    out = []
    for n in range(n_top + 1):
        if done > 2 * n:
            sign, at = (-1) ** (n + 1), width + 2 * (n_top - n)
            dets = [sign * x for x in rows[2 * n + 1][at:at + 2]]
        else:
            dets = det_bareiss([[mu[c][r] for c in range(2 * n + 1)] + border(r, n)
                                for r in range(2 * n + 2)])
        den = scale ** (2 * n + 1)
        out.append(tuple(c if type(c) is ZeroDivisionError else _q(val, c[1] * den)
                         for c, val in zip(cols[n], dets)))
    return out
