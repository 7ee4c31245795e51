"""Skew-symmetric bi-moment tables, their constraints, and generators.

A :class:`MomentSystem` holds bi-moments mu_{i,j} (0 <= i < j <= max_index),
single-moment sequences beta_j^(k) for components k = 1..ell, optional
conjugate sequences, and a constraint tag.  The commuting time flows act by
the index-shift rule

    d/dt_n mu_{i,j} = mu_{i+n,j} + mu_{i,j+n},      d/dt_n beta_j = beta_{j+n},

so every time derivative of a moment is again a finite combination of
moments; the expansion oracle (:mod:`skewpoly.oracle`) packages iterated
shifts into exact jets (``lift_to_jet``, which still resolves here).

Generators produce random systems satisfying each constraint exactly:

* ``laurent``       mu_{i,j} = mu_{i-1,j-1} and constant beta
* ``rank2``         mu_{i,j+1} + mu_{i+1,j} = beta_{i+1} beta_j - beta_i beta_{j+1}
* ``rank1skew``     mu_{i,j+1} - mu_{i+1,j} = 2 beta_i beta_j
* ``rank1skew-multi``    same with beta replaced by the component sum
* ``rank1skew-complex``  mu_{i,j+1} - mu_{i+1,j} = 2 sum_{a,b} beta_i^a bbar_j^b

(soliton data, whose genuine time dependence realizes the shift rule, are
in :mod:`skewpoly.solitons`, and the JSON file form in :mod:`skewpoly.files`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Optional

from .families import taus, vanishing_taus
from .pfaffian import OutOfRangeError, _q, _z, det_bareiss
from .record import Record
from .scalars import GaussianRational

CONSTRAINTS = ("none", "laurent", "rank2", "rank1skew", "rank1skew-multi",
               "rank1skew-complex")
# the scalar types each mode admits; no mode admits a float
MODES = {"exact": (int, Fraction), "gauss": (int, Fraction, GaussianRational)}


class MomentSystem(Record):
    """Immutable moment data; shareable across threads and cached freely.
    Equal only to itself, as the owner of its caches."""

    _fields = ("max_index", "mu", "beta", "beta_bar", "constraint", "mode")
    _defaults = ((), None, "none", "exact")
    __slots__ = (*_fields, "_tau_table", "__weakref__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def _check(self):
        for name in ("constraint", "mode"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, not the "
                                 f"{type(value).__name__} {value!r}")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"unknown constraint tag {self.constraint!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {tuple(MODES)}")
        top = self.max_index
        for (i, j) in self.mu:
            if not 0 <= i < j <= top:
                raise ValueError(f"mu key ({i},{j}) needs 0 <= i < j <= {top}")
        want = self.ell if self.constraint == "rank1skew-complex" else None
        got = None if self.beta_bar is None else len(self.beta_bar)
        if got != want:
            need = "none" if want is None else f"{want}, one per component"
            raise ValueError(f"constraint {self.constraint!r} takes beta_bar rows: {need};"
                             f" got {'none' if got is None else got}")
        for name, rows in (("beta", self.beta), ("beta_bar", self.beta_bar or ())):
            for k, row in enumerate(rows, 1):
                if len(row) != top + 1:
                    raise ValueError(f"{name} row {k} has {len(row)} entries, "
                                     f"expected max_index+1 = {top + 1}")
        admitted = MODES[self.mode]
        for v in chain(self.mu.values(), *self.beta, *(self.beta_bar or ())):
            if not isinstance(v, admitted):
                raise ValueError(f"{self.mode} mode admits no {type(v).__name__} "
                                 f"scalar such as {v!r}")
            if (isinstance(v, GaussianRational)
                    and not all(isinstance(x, (int, Fraction)) for x in (v.re, v.im))):
                raise ValueError(f"{self.mode} mode admits no inexact part in {v!r}")
        # set by families.taus on first use; owns every derived cache
        object.__setattr__(self, "_tau_table", None)

    @property
    def ell(self) -> int:
        return len(self.beta)

    # -- entry access -----------------------------------------------------

    def mu_entry(self, i: int, j: int):
        if i < 0 or j < 0 or i > self.max_index or j > self.max_index:
            raise OutOfRangeError(f"mu index ({i},{j}) exceeds max_index {self.max_index}")
        if i == j:
            return 0
        if i < j:
            return self.mu.get((i, j), 0)
        return -self.mu.get((j, i), 0)

    def beta_entry(self, k: int, j: int):
        return self._moment("beta", k, j)

    def _moment(self, kind: str, p: int, q: int):
        """The one reader of the moment behind an entry, range-checked:
        mu_{p,q}, beta^{(p)}_q or its conjugate for kind mu, beta, beta_bar."""
        if kind == "mu":
            return self.mu_entry(p, q)
        if kind not in ("beta", "beta_bar"):
            raise ValueError(f"unknown entry kind {kind!r}")
        rows = self.beta if kind == "beta" else self.beta_bar or ()
        if not (1 <= p <= len(rows) and 0 <= q <= self.max_index):
            raise OutOfRangeError(f"{kind} ({p},{q}) outside components 1..{len(rows)}"
                                  f" and indices 0..{self.max_index}")
        return rows[p - 1][q]

    def entry_jet(self, a, b, spec):
        """The entry's jet under the shift rule, the expansion oracle's reader
        (:func:`skewpoly.oracle.entry_jet`)."""
        from .oracle import entry_jet
        return entry_jet(self, a, b, spec)


def __getattr__(name):
    """``lift_to_jet``, which moved to the oracle."""
    if name == "lift_to_jet":
        from . import oracle
        return oracle.lift_to_jet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


# every generated numerator lies in [-NUM_BOUND, NUM_BOUND]; gen draws up to
# ATTEMPTS systems for a nonvanishing tau grid
NUM_BOUND = 5
ATTEMPTS = 32


def _rand_fraction(rng: random.Random, den_bound: int, nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-NUM_BOUND, NUM_BOUND)
        if num or not nonzero:
            break
    den = rng.randint(1, den_bound) if den_bound > 1 else 1
    return Fraction(num, den)


def _rand_gaussian(rng: random.Random, den_bound: int,
                   nonzero: bool = False) -> GaussianRational:
    while True:
        g = GaussianRational(_rand_fraction(rng, den_bound),
                            _rand_fraction(rng, den_bound))
        if g or not nonzero:
            return g


def gen(kind: str, max_index: int, *, components: int = 1, seed: int = 0,
        den_bound: int = 1, require_tau: Optional[tuple] = None,
        info: Optional[dict] = None) -> MomentSystem:
    """Random moment system satisfying the named constraint exactly.

    ``require_tau = (n_max, m_max)`` resamples (up to ``ATTEMPTS`` derived
    seeds) until every tau value on that grid is nonzero, so downstream
    coefficient ratios are well defined.  Vanishing happens on measure zero
    but random small rationals do hit it.  ``info`` (if a dict) records the
    number of resampling attempts for reproducibility reports.
    """
    if kind not in CONSTRAINTS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if components < 1:
        raise ValueError(f"components must be at least 1, got {components}")
    if kind in ("laurent", "rank2", "rank1skew") and components != 1:
        raise ValueError(f"constraint {kind!r} is single-component")
    for attempt in range(ATTEMPTS):
        rng = random.Random(seed * 1000003 + attempt)
        sys = _gen_once(kind, max_index, components, rng, den_bound)
        if require_tau is not None:
            try:
                if next(vanishing_taus(sys, *require_tau), None) is not None:
                    # the draw and its table refer to each other: free both now
                    object.__setattr__(sys, "_tau_table", None)
                    continue
            except OutOfRangeError:
                raise ValueError("max_index too small for the requested tau grid")
        if info is not None:
            info["resample_attempts"] = attempt
        return sys
    raise RuntimeError(f"no nondegenerate {kind} system after {ATTEMPTS} attempts")


def _gen_once(kind, max_index, components, rng, den_bound) -> MomentSystem:
    if kind == "none":
        mu = {(i, j): _rand_fraction(rng, den_bound, nonzero=True)
              for i in range(max_index) for j in range(i + 1, max_index + 1)}
        beta = tuple(tuple(_rand_fraction(rng, den_bound, nonzero=True)
                           for _ in range(max_index + 1))
                     for _ in range(components))
        return MomentSystem(max_index, mu, beta)

    if kind == "laurent":
        band = [Fraction(0)] + [_rand_fraction(rng, den_bound)
                                for _ in range(max_index)]
        mu = {(i, j): band[j - i]
              for i in range(max_index) for j in range(i + 1, max_index + 1)}
        b = _rand_fraction(rng, den_bound, nonzero=True)
        beta = (tuple(b for _ in range(max_index + 1)),)
        return MomentSystem(max_index, mu, beta, constraint="laurent")

    if kind == "rank2":
        beta_seq = [_rand_fraction(rng, den_bound, nonzero=True)
                    for _ in range(max_index + 1)]
        mu = _propagate_rank2(beta_seq, max_index, rng, den_bound)
        return MomentSystem(max_index, mu, (tuple(beta_seq),), constraint="rank2")

    if kind == "rank1skew":
        beta_seq = [_rand_fraction(rng, den_bound, nonzero=True)
                    for _ in range(max_index + 1)]
        mu = _rank1skew_mu([beta_seq], None, max_index, Fraction(1))
        return MomentSystem(max_index, mu, (tuple(beta_seq),),
                            constraint="rank1skew")

    if kind == "rank1skew-multi":
        betas = [[_rand_fraction(rng, den_bound)
                  for _ in range(max_index + 1)] for _ in range(components)]
        betas[0] = [_rand_fraction(rng, den_bound, nonzero=True)
                    for _ in range(max_index + 1)]
        mu = _rank1skew_mu(betas, None, max_index, Fraction(1))
        return MomentSystem(max_index, mu, tuple(tuple(b) for b in betas),
                            constraint="rank1skew-multi")

    if kind == "rank1skew-complex":
        betas = [[_rand_gaussian(rng, den_bound)
                  for _ in range(max_index + 1)] for _ in range(components)]
        betas[0] = [_rand_gaussian(rng, den_bound, nonzero=True)
                    for _ in range(max_index + 1)]
        scale = _rand_gaussian(rng, den_bound, nonzero=True)
        # the skew symmetry of mu forces the conjugate component sum to be
        # proportional to the direct one; individual conjugate rows stay free
        bbars = [[_rand_gaussian(rng, den_bound)
                  for _ in range(max_index + 1)] for _ in range(components - 1)]
        sums = [sum((betas[a][j] for a in range(components)),
                    GaussianRational.of(0)) for j in range(max_index + 1)]
        partial = [sum((bbars[a][j] for a in range(components - 1)),
                       GaussianRational.of(0)) for j in range(max_index + 1)]
        bbars.append([scale * sums[j] - partial[j] for j in range(max_index + 1)])
        mu = _rank1skew_mu(betas, sums, max_index, scale)
        return MomentSystem(max_index, mu, tuple(tuple(b) for b in betas),
                            beta_bar=tuple(tuple(b) for b in bbars),
                            constraint="rank1skew-complex", mode="gauss")

    raise ValueError(kind)


def _propagate_rank2(beta, max_index, rng, den_bound) -> dict:
    """Fill mu anti-diagonal by anti-diagonal from the center outward.

    Odd index sums carry one free value at the center pair; even sums are
    forced entirely by the constraint together with the zero diagonal.
    """
    mu: dict = {}
    for sigma in range(1, 2 * max_index):
        if sigma % 2:
            c = (sigma - 1) // 2
            mu[(c, c + 1)] = _rand_fraction(rng, den_bound)
            i = c - 1
        else:
            c = sigma // 2
            mu[(c - 1, c + 1)] = beta[c] * beta[c] - beta[c - 1] * beta[c + 1]
            i = c - 2
        while i >= 0 and sigma - i <= max_index:
            j = sigma - i
            mu[(i, j)] = (beta[i + 1] * beta[j - 1] - beta[i] * beta[j]
                          - mu[(i + 1, j - 1)])
            i -= 1
    return mu


def _rank1skew_mu(betas, sums, max_index, scale) -> dict:
    """Closed forms for the rank-one skew-shift constraint, scaled by ``scale``:
    with k = (j - i) // 2, mu_{i,j} = 2 sum_{s<k} S_{i+s} S_{j-1-s}, plus
    S_{i+k}^2 for odd j - i.  Accumulated in kernel types (``_z``)."""
    if sums is None:
        sums = [sum((b[j] for b in betas[1:]), betas[0][j])
                for j in range(max_index + 1)]
    s, c = [_z(x) for x in sums], _z(scale)
    mu: dict = {}
    for i in range(max_index):
        for j in range(i + 1, max_index + 1):
            k = (j - i) // 2
            val = 2 * sum(map(mul, s[i:i + k], reversed(s[j - k:j])))
            if (j - i) % 2:
                val = val + s[i + k] * s[i + k]
            mu[(i, j)] = _q(c * val)
    return mu


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class ValidationReport(Record):
    """A mutable, so unhashable, record; failures defaults to a fresh list."""

    __slots__ = _fields = ("constraint", "checked", "failures")
    _defaults = (0, None)
    __setattr__, __hash__ = object.__setattr__, None

    def _check(self):
        if self.failures is None:
            self.failures = []

    @property
    def all_zero(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return "\n".join([f"constraint={self.constraint} residual checks={self.checked}"
                          f" failures={len(self.failures)}",
                          *(f"  residual at {w}: {v}" for w, v in self.failures[:8])])


def validate(sys: MomentSystem) -> ValidationReport:
    """Exact residual report for the constraint tag (taus: ``vanishing_taus``)."""
    rep = ValidationReport(sys.constraint)
    mi = sys.max_index

    def check(where, value):
        rep.checked += 1
        if value:
            rep.failures.append((where, value))

    if sys.constraint == "laurent":
        for i in range(1, mi):
            for j in range(i + 1, mi + 1):
                check((i, j), sys.mu_entry(i, j) - sys.mu_entry(i - 1, j - 1))
        for k in range(1, sys.ell + 1):
            for j in range(1, mi + 1):
                check(("beta", k, j), sys.beta_entry(k, j) - sys.beta_entry(k, j - 1))
    elif sys.constraint == "rank2":
        b = lambda j: sys.beta_entry(1, j)  # noqa: E731
        for i in range(mi):
            for j in range(mi):
                check((i, j), sys.mu_entry(i, j + 1) + sys.mu_entry(i + 1, j)
                      - b(i + 1) * b(j) + b(i) * b(j + 1))
    elif sys.constraint.startswith("rank1skew"):
        # component sums S_j and their conjugates (S_j itself for the real kinds)
        sums, csums = ([sum(col[1:], col[0]) for col in zip(*rows)]
                       for rows in (sys.beta, sys.beta_bar or sys.beta))
        for i in range(mi):
            for j in range(mi):
                check((i, j), sys.mu_entry(i, j + 1) - sys.mu_entry(i + 1, j)
                      - 2 * sums[i] * csums[j])
    return rep


def stembridge_residual(sys: MomentSystem, n: int):
    """Toeplitz Pfaffian minus the matching Hankel-type determinant.

    For Laurent moments m_k = mu_{i,i+k} the 2n x 2n Pfaffian with entries
    m_{j-i} equals det(x_{i,j})_{i,j=1..n} with
    x_{i,j} = m_{|i-j|+1} + m_{|i-j|+3} + ... + m_{i+j-1}.  The Pfaffian is
    the system's tau_{2n}^{(0)} and m_k = mu_{0,k}, so the moments' own
    Toeplitz structure is checked too.
    """
    if sys.constraint != "laurent":
        raise ValueError("Toeplitz correspondence needs the laurent tag")
    rows = [[sum((sys.mu_entry(0, r) for r in range(abs(i - j) + 1, i + j, 2)), Fraction(0))
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    return taus(sys).tau(2 * n, 0) - det_bareiss(rows)
