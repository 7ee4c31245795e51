"""Pfaffians over exact scalar rings and jets, plus the indexed-label resolver.

One skew elimination loop and one expansion, each the other's test reference:

* :func:`pf_chain` -- every leading Pfaffian of a label list (a tau or C2
  chain) from one scalar elimination without swaps, which always carries the
  spectral column along as a border and keeps the next entries of each
  pivot row; past a pivot that is no unit, a block of the rows it left
  (:func:`_eliminated`); on first-order jets too, as dual numbers.
* :func:`miwa_chain` -- the same at the Miwa-shifted time t - [z], one
  elimination per node z, with each link's top label raised beside it.
* :func:`pfaffian` -- a plain square row list by the elimination with swaps
  (:func:`_pf_rows`), as every block is: scalars, and first-order jets as
  dual numbers, a unit pivot being a nonzero base; no heavier jet.
* :func:`pf_labels` / :func:`pf_indexed` -- labelled Pfaffians by recursive
  expansion along the first label (and z), memoized over label subsets, on
  the system's own entry rules.  No division, so any commutative ring: the
  tests' oracle, never the engine's; :func:`pfaffian_expand` runs it on a
  row list.  Their labels are integer moment indices, single-moment rows
  ``d``, derivative rows ``d0``/``d1`` and a spectral row ``z``.

The loop is fraction-free, the Pfaffian form of Bareiss's integer-preserving
elimination (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968): after s
stages entry (i, j) is Pf(leading 2s rows, i, j) (D. E. Knuth, "Overlapping
Pfaffians", Electron. J. Combin. 3(2), 1996), so every pivot is a leading
Pfaffian itself -- a tau link, not a ratio -- and each update divides exactly
by the previous pivot (:func:`_exact_div`, shared with :func:`det_bareiss`).
Entries enter the loop only through :func:`_z`, integral ones as ``int``
(Gaussian ones with int parts, jets coefficient by coefficient), so integer
moments stay in Z throughout; they leave it only through :func:`_q`, as
``Fraction``, ``GaussianRational`` over Fractions, or jets of those.  The
engine reads a system's moments only from its :class:`MomentKernel`,
converted once and scaled to integers by the lcm of their denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations
from math import lcm, prod

from .jets import J1, Jet
from .poly import PolyInZ
from .scalars import GaussianRational


class LabelError(ValueError):
    """Forbidden label combination handed to the indexed resolver."""


class OutOfRangeError(IndexError):
    """Moment index outside the stored range."""


# ---------------------------------------------------------------------------
# Plain skew matrices
# ---------------------------------------------------------------------------


def _check_skew(rows) -> None:
    n = len(rows)
    if n % 2:
        raise ValueError("Pfaffian requires even dimension")
    for i in range(n):
        if len(rows[i]) != n:
            raise ValueError(f"row {i} has {len(rows[i])} entries, expected {n}")
        if rows[i][i] != 0:
            raise ValueError(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if rows[j][i] != -rows[i][j]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) not antisymmetric")


def pfaffian_expand(rows):
    """Pfaffian of a square skew row list by memoized expansion; empty gives 1."""
    _check_skew(rows)
    return _pf_expand(tuple(range(len(rows))), lambda i, j: rows[i][j], {})


def _pf_expand(labels: tuple, entry, cache: dict):
    """Expansion along the first label; memoized on label tuples."""
    if not labels:
        return 1
    got = cache.get(labels)
    if got is not None:
        return got
    first, rest = labels[0], labels[1:]
    acc = 0
    sign = 1
    for t, lab in enumerate(rest):
        e = entry(first, lab)
        if e:
            sub = rest[:t] + rest[t + 1:]
            acc = acc + sign * (e * _pf_expand(sub, entry, cache))
        sign = -sign
    cache[labels] = acc
    return acc


def pfaffian(rows):
    """Pfaffian of a square skew row list by the elimination with swaps
    (:func:`_pf_rows`), on scalars or ``JetSpec(1)`` jets; empty gives 1."""
    _check_skew(rows)
    return _q(_pf_rows([[_z(x) for x in r] for r in rows]))


def _pf_rows(a):
    """The Pfaffian of loop entries, eliminated with swaps in place; a loop
    value.  An odd list whose rows carry a border (entries past len(a), one
    per coefficient of a last label z) gives that border of Pf(rows, z).
    ``JetSpec(1)`` jets run as dual numbers: the swaps find a unit (a nonzero
    base) while one is left, so a stall leaves only O(eps) entries, and its
    remainder of 4 or more rows (5 with the border) is 0 mod eps^2, as the
    value is; a heavier jet raises ``ValueError``."""
    specs = {x.spec for row in a for x in row if isinstance(x, Jet)}
    if specs - {J1}:
        raise ValueError(f"the elimination takes JetSpec(1) jets only, not {specs}")
    n, zero = len(a), Jet.constant(0, J1) if specs else 0
    stages = list(_stages(a, swaps=True))  # to the end: the last update fills the border
    if len(stages) < n // 2:
        return [zero] * (len(a[0]) - n) if n % 2 else zero
    pf, odd = stages[-1] if stages else (1, 0)
    sign = -1 if odd else 1
    return [sign * x for x in a[-1][n:]] if n % 2 else sign * pf


def _pf_left(a, pos, prev):
    """Pf(leading 2s rows, rows ``pos`` >= 2s) off the rows ``a`` that s stages
    left, entry (i, j) = Pf(leading 2s, i, j): the block's Pfaffian (its
    border too if ``pos`` is odd) divided exactly by ``prev`` = Pf(leading
    2s) once per stage past its first (the overlapping-Pfaffian identity)."""
    n, odd = len(a), len(pos) % 2
    val = _pf_rows([[a[i][j] if i < j else -a[j][i] if j < i else 0 for j in pos]
                    + (a[i][n:] if odd else []) for i in pos])
    den = prod([prev] * ((len(pos) - 1) // 2))
    return [_exact_div(v, den) for v in val] if odd else _exact_div(val, den)


def _eliminated(a):
    """The stages without swaps (:func:`_stages`) run on the row list ``a``,
    then its two readers of the rows left: ``value(t, pos)`` = Pf(leading 2t
    rows, the rows at ``pos``), ``pos`` past row 2t (one row: its border),
    and ``link(s)`` = Pf(leading 2s rows); past the stage that stalled, each
    a block of the rows it left (:func:`_pf_left`).  No reader refers to
    itself, so the rows go with the readers."""
    n = len(a)
    done = sum(1 for _ in _stages(a, swaps=False))
    stall = done - (done < n // 2)  # the stage that stopped, if one did
    prev = a[2 * stall - 2][2 * stall - 1] if stall else 1  # its link

    def value(t, pos):
        if t <= stall:
            return a[pos[0]][pos[1]] if len(pos) > 1 else a[pos[0]][n:]
        return _pf_left(a, [*range(2 * stall, 2 * t), *pos], prev)
    return value, lambda s: value(s - 1, (2 * s - 2, 2 * s - 1)) if s else 1


def _stages(a, swaps: bool):
    """Fraction-free skew elimination of the row list ``a`` in place, two rows
    a stage.  After s stages entry (i, j) is Pf(leading 2s rows, i, j), so
    the update p B_ij - (B_ki B_k+1,j - B_kj B_k+1,i) divides exactly by the
    previous pivot.  Yields (pivot a[k][k+1], parity of the swaps so far):
    the pivot is the Pfaffian of the leading 2s+2 rows as permuted so far
    (``swaps`` swaps in a unit of the rows left, row k's first); it stops
    after a non-unit that a later stage would divide by.  Row entries past
    ``len(a)`` are a border: eliminated along, never pivots."""
    n = len(a)
    prev, odd = 1, 0
    for k in range(0, n - 1, 2):
        row_k, row_k1 = a[k], a[k + 1]
        p = row_k[k + 1]
        if swaps and not _is_unit(p):  # a unit into place, row k's first
            piv = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if _is_unit(a[i][j])), ())
            for i, j in zip(piv, (k, k + 1)):
                _swap(a, i, j)
                odd ^= i != j
            row_k, row_k1, p = a[k], a[k + 1], a[k][k + 1]
        yield p, odd
        if k + 3 < n and not _is_unit(p):
            return
        for i in range(k + 2, n):  # zeros stay zero, the rest is rescaled
            row_i, bki, bk1i = a[i], row_k[i], row_k1[i]
            tail = [p * x - (bki * y - w * bk1i) if x or y or w else x for x, y, w in
                    zip(row_i[i + 1:], row_k1[i + 1:], row_k[i + 1:])]
            row_i[i + 1:] = [_exact_div(x, prev) if x else x for x in tail] if k else tail
            if swaps:  # keep the lower triangle live for later swaps
                for j in range(i + 1, n):
                    a[j][i] = -row_i[j]
        prev = p


def _is_unit(x) -> bool:
    """A nonzero scalar, or a jet with a nonzero base."""
    return bool(x.base if isinstance(x, Jet) else x)


def _swap(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def _z(x):
    """The one way into the loop: an integral Fraction as an int, a Gaussian
    rational with integral parts as one with int parts, a jet coefficient
    by coefficient; anything else as it is."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, GaussianRational):
        re, im = _z(x.re), _z(x.im)
        return GaussianRational(re, im) if type(re) is type(im) is int else x
    if isinstance(x, Jet):
        return x.map(_z)
    return x


def _q(x, den=1):
    """The one way out of the loop: a loop value divided by ``den`` in the
    public types, ints as Fractions, Gaussian parts as Fractions, jets
    coefficient by coefficient.  An int ``den`` divides an int or a Gaussian
    integer within one Fraction per part."""
    t = type(x)
    if type(den) is int:
        if t is int:
            return Fraction(x, den)
        if t is GaussianRational and type(x.re) is type(x.im) is int:
            return GaussianRational(Fraction(x.re, den), Fraction(x.im, den))
    if isinstance(x, Jet):
        return x.map(lambda v: _q(v, den))
    if t is GaussianRational:
        x = GaussianRational(Fraction(x.re), Fraction(x.im))
    elif t is int:
        x = Fraction(x)
    return x if den == 1 else x / den


def det_bareiss(rows):
    """Fraction-free determinant (Bareiss); exact over any integral domain.
    Entries run as loop entries (``_z``), so integral ones stay in Z, and
    the value leaves through ``_q``.  Row entries past len(rows) are a
    border (:func:`_bareiss`): the value is then one determinant per column
    from the last square one on, that column in the last place."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[_z(x) for x in r] for r in rows]
    done, sign = _bareiss(m, swaps=True)
    last = m[n - 1][n - 1:] if done == n - 1 else [0] * (len(m[0]) - n + 1)
    values = [_q(sign * x) for x in last]
    return values if len(values) > 1 else values[0]


def _bareiss(m, swaps: bool):
    """Bareiss's fraction-free elimination of the row list ``m`` in place,
    one column a stage: after stage k, entry (i, j), i and j past k, is the
    determinant of rows 0..k, i on columns 0..k, j (rows as swapped so far),
    so row i is final after stage i - 1.  Row entries past len(m) are a
    border, eliminated along, never pivots; a row may be shorter than those
    above it, the border entries it lacks read by no one.  ``swaps`` swaps
    a row with a nonzero entry into a zero pivot's place and stops at a
    column that has none (every determinant is 0); without swaps it stops
    before the stage that would divide by a zero pivot.  Returns the stages
    run and the sign of the swaps."""
    n, prev, sign = len(m), 1, 1
    for k in range(n - 1):
        if swaps and not m[k][k]:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return k, sign
            m[k], m[r], sign = m[r], m[k], -sign
        if not prev:
            return k, sign
        row_k = m[k]
        p = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            a = row_i[k]
            tail = [x * p - a * y for x, y in zip(row_i[k + 1:], row_k[k + 1:])]
            row_i[k + 1:] = [_exact_div(x, prev) for x in tail] if k else tail
        prev = p
    return n - 1, sign


def _exact_div(num, den):
    """num / den for a den that divides num: ints and Gaussian integers (int
    parts) by remainder-checked integer division, a Gaussian divisor through
    its conjugate and norm; ``JetSpec(1)`` jets by q0 = n0 / d0, q1 = (n1 -
    q0 d1) / d0; anything else (rationals) by field division.  An inexact
    quotient raises ``ArithmeticError``.  Runs once per eliminated entry, so
    the int/int test comes first."""
    tn, td = type(num), type(den)
    if tn is int and td is int:
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"{den} does not divide {num}")
        return q
    if (td is GaussianRational and type(den.re) is type(den.im) is int
            and (tn is int or tn is GaussianRational)):
        num, den = num * den.conjugate(), den.norm()
        tn, td = type(num), int
    if tn is GaussianRational and td is int and type(num.re) is type(num.im) is int:
        (a, r), (b, s) = divmod(num.re, den), divmod(num.im, den)
        if r or s:
            raise ArithmeticError(f"{den} does not divide {num}")
        return GaussianRational(a, b)
    if isinstance(num, Jet):
        if not isinstance(den, Jet):
            return num.map(lambda v: _exact_div(v, den))
        q0 = _exact_div(num.base, den.base)
        return Jet.first_order(q0, _exact_div(num.slope - q0 * den.slope, den.base))
    return num / den


def _interpolate(ys: list, den: int) -> PolyInZ:
    """The polynomial of degree < len(ys) taking the values ys / den at z =
    0, 1, ..., from loop values: the Newton forward differences d_k of
    integral values divide exactly by k!, and p = c_0 + z (c_1 + (z - 1)
    (c_2 + (z - 2) (...))), c_k = d_k / k!, is summed in the falling
    factorial basis before its coefficients leave the loop over den."""
    cs, fact = [], 1
    for k in range(len(ys)):
        fact *= k or 1
        cs.append(_exact_div(ys[0], fact))
        ys = [b - a for a, b in zip(ys, ys[1:])]
    poly = []
    for k in reversed(range(len(cs))):  # poly * (z - k) + c_k
        poly = [c - k * x for c, x in zip([cs[k], *poly], [*poly, 0])]
    return PolyInZ([_q(c, den) for c in poly])


# ---------------------------------------------------------------------------
# Indexed Pfaffians
# ---------------------------------------------------------------------------

Z = "z"
# canonical tuples: single-moment rows ("comp", k) and their conjugates
# ("cbar", k), the rank2 derivative rows ("shift", 0) and ("shift", 1)
_NAMED = {Z: Z, "d": ("comp", 1), "d0": ("shift", 0), "d1": ("shift", 1)}


def parse_label(lab):
    """Accepts ints, canonical tuples, and the strings z, d, d:k, dbar:k, d0, d1."""
    if isinstance(lab, (int, tuple)):
        return lab
    if isinstance(lab, str):
        head, sep, k = lab.partition(":")
        if lab in _NAMED:
            return _NAMED[lab]
        if sep and head in ("d", "dbar"):
            return ("comp" if head == "d" else "cbar", int(k))
    raise LabelError(f"unrecognized label {lab!r}")


def _validate_labels(labs, sys) -> None:
    """At most one z, d0/d1 only under rank2, and row label pairs the entry rules allow."""
    if labs.count(Z) > 1:
        raise LabelError("at most one spectral label z is allowed")
    rows = [l for l in labs if isinstance(l, tuple)]
    if any(l[0] == "shift" for l in rows) and sys.constraint != "rank2":
        raise LabelError("derivative rows d0/d1 require the rank2 constraint")
    for a, b in combinations(rows, 2):
        sys.entry_scalar(a, b)


def pf_indexed(labels, sys, *, cache: dict | None = None, jet_spec=None) -> PolyInZ:
    """Resolve a labelled Pfaffian against a moment system.

    Entry rules: ``MomentSystem._entry_ref`` for a z-free pair, and Pf(i,z) =
    z^i, Pf(row,z) = 0 for the rows d_k, dbar_k, d0 and d1, expanded along z
    (repeated labels sum, and cancel).  Odd-length lists evaluate to the zero
    polynomial.  With ``jet_spec`` the entries are lifted to jets and the
    coefficients of the result are jets.
    """
    labs = [parse_label(l) for l in labels]
    _validate_labels(labs, sys)
    pf = lambda sub: pf_labels(sub, sys, cache=cache, jet_spec=jet_spec)  # noqa: E731
    if len(labs) % 2:
        return PolyInZ.zero()
    if Z not in labs:
        return PolyInZ([pf(labs)])
    zpos = labs.index(Z)
    rest = labs[:zpos] + labs[zpos + 1:]
    coeffs = [0] * (max((x for x in rest if isinstance(x, int)), default=-1) + 1)
    for t, lab in enumerate(rest):
        if isinstance(lab, int) and (val := pf(rest[:t] + rest[t + 1:])):
            coeffs[lab] += -val if (zpos + t + 1) % 2 else val
    return PolyInZ(coeffs)


def pf_labels(labels, sys, *, cache: dict | None = None, jet_spec=None):
    """z-free labelled Pfaffian, expanded along the first label in the given
    order.  ``cache`` is the memo of one ring (scalars, or jets of
    ``jet_spec``, and the entry jets, by (label, label, spec)), keyed by
    label tuples; the value leaves through ``_q`` in that ring, so an empty
    list gives ``Fraction(1)``, a vanishing one 0."""
    labs = tuple(parse_label(l) for l in labels)
    memo = {} if cache is None else cache

    def jet_entry(a, b):
        if (a, b, jet_spec) not in memo:
            memo[a, b, jet_spec] = sys.entry_jet(a, b, jet_spec)
        return memo[a, b, jet_spec]
    val = _pf_expand(labs, sys.entry_scalar if jet_spec is None else jet_entry, memo)
    if jet_spec is not None and not isinstance(val, Jet):
        val = Jet.constant(val, jet_spec)
    return _q(val)


# ---------------------------------------------------------------------------
# Chains on a system's moments
# ---------------------------------------------------------------------------


def _den_lcm(values) -> int:
    """The lcm of the denominators of exact values (both parts of a Gaussian
    one); 1 if any part is a float."""
    parts = [p for v in values
             for p in ((v.re, v.im) if isinstance(v, GaussianRational) else (v,))]
    exact = not any(isinstance(p, float) for p in parts)
    return lcm(*(p.denominator for p in parts)) if exact else 1


def _scaled(v, scale):
    """``_z(v * scale)``, as an int product where v is a Fraction whose
    denominator divides ``scale``."""
    if type(v) is Fraction and not scale % v.denominator:
        return v.numerator * (scale // v.denominator)
    return _z(v * scale)


class MomentKernel:
    """A system's moments as loop entries, converted once (its ``TauTable``
    owns it).  Each is scaled by ``scale``, the lcm of all their
    denominators (parts of Gaussian ones included), so rational moments run
    as ints too and a Pfaffian of 2s labels reads scale^s times its value;
    a float moment keeps ``scale`` at 1.  ``mu[i][j]`` is the full skew
    table of mu_{i,j}; ``rows[("comp", k)][j]`` is beta^{(k)}_j, ``rows[("cbar",
    k)]`` its conjugate row, and rank2's ``rows[("shift", s)][j]`` beta_{j+s}."""

    __slots__ = ("scale", "mu", "rows")

    def __init__(self, sys):
        rows = {("comp", k): r for k, r in enumerate(sys.beta, 1)}
        rows.update({("cbar", k): r for k, r in enumerate(sys.beta_bar or (), 1)})
        self.scale = scale = _den_lcm(chain(sys.mu.values(), *rows.values()))
        n = sys.max_index + 1
        self.mu = [[0] * n for _ in range(n)]
        for (i, j), v in sys.mu.items():
            self.mu[i][j] = x = _scaled(v, scale)
            self.mu[j][i] = -x
        self.rows = {lab: [_scaled(v, scale) for v in r] for lab, r in rows.items()}
        if sys.constraint == "rank2":  # the derivative rows d0, d1
            self.rows.update({("shift", s): self.rows["comp", 1][s:] for s in (0, 1)})

    def row(self, lab) -> list:
        """Entries (lab, j) for every moment label j."""
        return self.mu[lab] if isinstance(lab, int) else self.rows[lab]

    def shifted(self, a, b):
        """(A, B, C) with entry (a, b) at the Miwa shifted time t - [z], [z]
        = (z, z^2/2, z^3/3, ...), equal to A - z B + z^2 C, for a moment
        label or a single-moment row a and a moment label b.  The shift acts
        on moments as exp(-sum_n z^n (X^n + Y^n) / n) = (1 - zX)(1 - zY), X
        and Y raising the first and second index: mu_{i,j} becomes mu_{i,j}
        - z (mu_{i+1,j} + mu_{i,j+1}) + z^2 mu_{i+1,j+1} and beta_j becomes
        beta_j - z beta_{j+1}."""
        if isinstance(a, int):
            row, up = self.mu[a], self.mu[a + 1]
            return row[b], up[b] + row[b + 1], up[b + 1]
        row = self.rows[a]
        return row[b], row[b + 1], 0


def pf_chain(labels, kernel: MomentKernel, jets: bool = False):
    """``(leading, tops, rows, spectral)`` of a z-free list of moment and row
    labels in any order (entry (moment, row) = -row[moment], (row, row) =
    0), by one scalar elimination of the kernel's entries without swaps that
    borders the labels with the spectral column: four readers, each value
    read off the rows it left on first read and kept (:func:`_eliminated`).
    ``leading(s)`` = Pf(labels[:2s]) is the pivot of stage s - 1.
    ``tops(s)`` are the entries (k, k+2), (k+1, k+2) and, if label k+3 is
    in the list, (k, k+3), k = 2s, of the pivot rows of stage s:
    Pf(labels[:k], l_k, l_k+2), Pf(labels[:k], l_k+1, l_k+2) and
    Pf(labels[:k], l_k, l_k+3).  Both leave the loop divided by the power
    of ``kernel.scale`` they carry.  ``spectral(r)`` is row r of the spectral
    column after the stages before it, Pf(labels[:2s], labels[r], z) /
    z^low, s = r // 2, low the smallest moment label (Pf(label, z) is
    z^label for a moment label, 0 for any other): a polynomial, past a link
    that is no unit too.  ``rows(r)`` = (R, D) has sum_i R[i] z^i / D =
    spectral(r) / Pf(labels[:2s]), D the link or a Gaussian link's norm (R then
    carries its conjugate; the scale cancels), R empty if the link is no
    unit.  R is integral, from z^low to the largest moment label of rows
    0..r: the columns outside are 0.  ``jets`` runs it on ``JetSpec(1)``
    entries, each with its t_1 derivative (:meth:`MomentKernel.shifted`: one
    label past the last is read), the spectral column constant: every value
    becomes its jet, D a jet link, so the column holds the jet-valued family
    members."""
    labs = list(labels)
    moment = [x for x in labs if isinstance(x, int)]
    border = range(min(moment, default=0), max(moment, default=-1) + 1)

    def entry(x, y):
        if not isinstance(y, int):
            return -entry(y, x) if isinstance(x, int) else 0
        return Jet.first_order(*kernel.shifted(x, y)[:2]) if jets else kernel.row(x)[y]
    value, link = _eliminated([[0] * (i + 1) + [entry(x, y) for y in labs[i + 1:]]
                               + [int(x == p) for p in border] for i, x in enumerate(labs)])
    links = cache(link)
    ends = list(accumulate([x - border.start + 1 if x in border else 0 for x in labs], max))

    def top(s):
        return tuple(_q(value(s, [2 * s + i, 2 * s + j]), kernel.scale ** (s + 1))
                     for i, j in ((0, 2), (1, 2), (0, 3)) if 2 * s + j < len(labs))

    def row(r):
        p = links(r // 2)
        f, d = ((p.conjugate(), p.norm()) if type(p) is GaussianRational
                and type(p.re) is type(p.im) is int else (1, p))
        num = value(r // 2, [r])[:ends[r]] if _is_unit(p) else []
        return (num if type(f) is int else [c * f for c in num]), d

    def spectral(r):
        return PolyInZ([_q(c, kernel.scale ** (r // 2)) for c in value(r // 2, [r])])
    return (cache(lambda s: _q(links(s), kernel.scale ** s)), cache(top), cache(row),
            cache(spectral))


def miwa_chain(labels, kernel: MomentKernel, top: int):
    """The leading Pfaffians of labels[:-1] at the Miwa shifted time t - [z]
    and each with its last label raised to the next label, at the nodes z =
    0..top: ``(links, raised)``, links[s][z] = Pf(labels[:2s+2]) and
    raised[s][z] = Pf(labels[:2s+1], labels[2s+2]), loop values carrying
    kernel.scale^(s+1).  Each node is one elimination without swaps of the
    shifted entries A - z B + z^2 C, whose triples are read once: link s is
    the pivot of stage s and its raised Pfaffian the pivot-row entry (2s,
    2s+2), the top label raised as for the tau jets (M. Adler, P. van
    Moerbeke, Duke Math. J. 112, 2002), both read as :func:`pf_chain` reads
    its values (:func:`_eliminated`)."""
    n = len(labels) - 1
    trip = [[kernel.shifted(x, y) for y in labels[i + 1:]]
            for i, x in enumerate(labels[:n])]
    links, raised = [[] for _ in range(n // 2)], [[] for _ in range(n // 2)]
    for z in range(top + 1):
        zz = z * z
        value, link = _eliminated([[0] * (i + 1) + [x - z * y + zz * w for x, y, w in row]
                                   for i, row in enumerate(trip)])
        for s in range(n // 2):
            links[s].append(link(s + 1))
            raised[s].append(value(s, (2 * s, 2 * s + 2)))
    return links, raised
