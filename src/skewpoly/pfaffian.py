"""Pfaffians over exact scalar rings and jets, plus the indexed-label resolver.

One skew elimination loop and one expansion, each the other's test reference:

* :func:`pf_chain` -- every leading Pfaffian of a label list (a tau chain)
  from one scalar elimination without swaps, which always carries the
  spectral column along as a border and keeps the next entries of each
  pivot row; it stops at the first pivot that is not a unit.
* :func:`pfaffian` -- a plain square row list by the same loop, swapping a
  unit (a nonzero exact scalar, or a jet with a nonzero base) into each
  pivot; a nonzero row with no unit raises ``ZeroDivisionError``.
* :func:`pf_labels` / :func:`pf_indexed` -- labelled Pfaffians by recursive
  expansion along the first label, memoized over label subsets (one memo
  per ring).  No division, so any commutative ring: the fallback past a
  stalled chain, for tau jets above weight 2 and for jet-valued family
  members; :func:`pfaffian_expand` runs it on a plain row list.

The loop is fraction-free, the Pfaffian form of Bareiss's integer-preserving
elimination (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968): after s
stages entry (i, j) is Pf(leading 2s rows, i, j) (D. E. Knuth, "Overlapping
Pfaffians", Electron. J. Combin. 3(2), 1996), so every pivot is a leading
Pfaffian itself -- a tau link, not a ratio -- and each update divides exactly
by the previous pivot (:func:`_exact_div`, shared with :func:`det_bareiss`).
Integral entries enter the loop as ``int`` (Gaussian ones with ``int``
parts, jets coefficient by coefficient), so integer moments stay in Z
throughout; results leave it as ``Fraction``, ``GaussianRational`` over
Fractions, or jets of those.

The indexed resolver :func:`pf_indexed` evaluates Pfaffians whose rows are
named by symbolic labels (integer moment indices, single-moment rows ``d``,
derivative rows ``d0``/``d1``, a spectral row ``z``) against a moment system,
returning a polynomial in z.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .jets import Jet
from .poly import PolyInZ
from .scalars import GaussianRational


class LabelError(ValueError):
    """Forbidden label combination handed to the indexed resolver."""


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
    """Pfaffian of a square skew row list by skew elimination on unit pivots
    (nonzero scalars, or jets with a nonzero base); empty gives 1.  A zero
    row gives 0; a nonzero row with no unit raises ``ZeroDivisionError``."""
    _check_skew(rows)
    a = [[_z(x) for x in r] for r in rows]
    pf, odd = 1, 0
    for k, (p, odd) in zip(range(0, len(a), 2), _stages(a, swaps=True)):
        if not _is_unit(p):
            if any(a[k][k + 1:]):
                raise ZeroDivisionError(f"row {k} of the elimination has no unit")
            return Fraction(0)
        pf = p
    return _q(-pf if odd else pf)


def _stages(a, swaps: bool):
    """Fraction-free skew elimination of the row list ``a`` in place, two rows
    a stage.  After s stages entry (i, j) is Pf(leading 2s rows, i, j), so
    the update p B_ij - (B_ki B_k+1,j - B_kj B_k+1,i) divides exactly by the
    previous pivot.  Yields (pivot a[k][k+1], parity of the swaps so far):
    the pivot is the Pfaffian of the leading 2s+2 rows as permuted so far
    (``swaps`` swaps a unit into place); it stops after a non-unit.  Row
    entries past ``len(a)`` are a border: eliminated along, never pivots."""
    n = len(a)
    prev, odd = 1, 0
    for k in range(0, n - 1, 2):
        row_k, row_k1 = a[k], a[k + 1]
        p = row_k[k + 1]
        if swaps and not _is_unit(p):
            piv = next((j for j in range(k + 2, n) if _is_unit(row_k[j])), None)
            if piv is not None:
                _swap(a, piv, k + 1)
                row_k1, p, odd = a[k + 1], row_k[k + 1], odd ^ 1
        yield p, odd
        if not _is_unit(p):
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
    """A loop entry: an integral Fraction as an int, a Gaussian rational with
    integral parts over ints, a jet coefficient by coefficient."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, GaussianRational):
        re, im = x.re, x.im
        if type(re) is type(im) is Fraction and re.denominator == im.denominator == 1:
            return GaussianRational(re.numerator, im.numerator)
        return x
    if isinstance(x, Jet):
        return Jet._of(x.spec, {a: _z(v) for a, v in x.coeffs.items()})
    return x


def _q(x):
    """A loop value back in the public types: ints as Fractions, Gaussian
    parts as Fractions, jets coefficient by coefficient."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, GaussianRational):
        return GaussianRational(Fraction(x.re), Fraction(x.im))
    if isinstance(x, Jet):
        return Jet._of(x.spec, {a: _q(v) for a, v in x.coeffs.items()})
    return x


def det_bareiss(rows):
    """Fraction-free determinant (Bareiss); exact over any integral domain.
    Entries run as loop entries (``_z``), so integral ones stay in Z, and
    the value leaves through ``_q``."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[_z(x) for x in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_div(num, prev)
            m[i][k] = 0
        prev = m[k][k]
    return _q(sign * m[n - 1][n - 1])


def _exact_div(num, den):
    """num / den for a den that divides num: ints and Gaussian integers by
    remainder-checked integer division, ``JetSpec(1)`` jets by q0 = n0 / d0,
    q1 = (n1 - q0 d1) / d0, anything else (rationals, heavier jets) by field
    division.  An inexact quotient raises ``ArithmeticError``."""
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"{den} does not divide {num}")
        return q
    if isinstance(num, Jet):
        if not isinstance(den, Jet):
            return Jet._of(num.spec, {a: _exact_div(v, den) for a, v in num.coeffs.items()})
        if num.spec.weight != 1 or den.spec != num.spec:
            return num / den
        d0, d1 = den.coeffs.get((0,), 0), den.coeffs.get((1,), 0)
        q0 = _exact_div(num.coeffs.get((0,), 0), d0)
        return Jet._of(num.spec, {(0,): q0,
                                  (1,): _exact_div(num.coeffs.get((1,), 0) - q0 * d1, d0)})
    if isinstance(num, GaussianRational) or isinstance(den, GaussianRational):
        n, d = GaussianRational._coerce(num), GaussianRational._coerce(den)
        if all(type(x) is int for x in (n.re, n.im, d.re, d.im)):
            norm = d.re * d.re + d.im * d.im
            return GaussianRational(_exact_div(n.re * d.re + n.im * d.im, norm),
                                    _exact_div(n.im * d.re - n.re * d.im, norm))
    return num / den


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
    """At most one z, derivative rows only under rank2, and every pair of row
    labels allowed by the entry rules (``sys.entry_scalar`` raises
    ``LabelError`` for a forbidden pair before it reads any moment)."""
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
    z^i, Pf(row,z) = 0 for the rows d_k, dbar_k, d0 and d1.
    Odd-length lists evaluate to the zero polynomial.  With ``jet_spec`` the
    entries are lifted to jets and the coefficients of the result are jets.
    """
    labs = [parse_label(l) for l in labels]
    _validate_labels(labs, sys)
    if len(labs) % 2:
        return PolyInZ.zero()
    if Z not in labs:
        return PolyInZ([pf_labels(labs, sys, cache=cache, jet_spec=jet_spec)])
    zpos = labs.index(Z)
    rest = labs[:zpos] + labs[zpos + 1:]
    coeffs: dict = {}
    for t, lab in enumerate(rest):
        if not isinstance(lab, int):
            continue
        sub = rest[:t] + rest[t + 1:]
        val = pf_labels(sub, sys, cache=cache, jet_spec=jet_spec)
        if not val:
            continue
        if (zpos + t + 1) % 2:
            val = -val
        coeffs[lab] = coeffs.get(lab, 0) + val
    return PolyInZ.from_dict(coeffs)


def pf_labels(labels, sys, *, cache: dict | None = None, jet_spec=None):
    """z-free labelled Pfaffian, expanded along the first label in the given
    order.  ``cache`` is the memo of one ring (scalars, or jets of
    ``jet_spec``), keyed by label tuples; the value is of that ring, so an
    empty list gives ``Fraction(1)`` and a vanishing one ``Fraction(0)``."""
    labs = tuple(parse_label(l) for l in labels)
    entry = sys.entry_scalar if jet_spec is None else (
        lambda a, b: sys.entry_jet(a, b, jet_spec))
    val = _pf_expand(labs, entry, {} if cache is None else cache)
    if type(val) is not int:
        return val
    return Fraction(val) if jet_spec is None else Jet.constant(Fraction(val), jet_spec)


def pf_chain(labels, sys):
    """``(leading, tops, rows)`` of a z-free label list, by one scalar
    elimination without swaps that borders the labels with the spectral
    column.  ``leading[s]`` = Pf(labels[:2s]) is the pivot of stage s - 1;
    it stops at the first pivot that is not a unit, whose own link is still
    exact.  ``tops[s]`` are the entries (k, k+2), (k+1, k+2) and (k, k+3),
    k = 2s, of the pivot rows of stage s: Pf(labels[:k], l_k, l_k+2),
    Pf(labels[:k], l_k+1, l_k+2) and Pf(labels[:k], l_k, l_k+3).
    ``rows[r]`` = Pf(labels[:2s], labels[r], z) / (z^low Pf(labels[:2s])),
    s = r // 2, is row r of the spectral column (an integral numerator
    divided by its link once), for each row all its stages reached.  Its
    border starts at z^low, low the smallest moment label: Pf(label, z) is
    z^label for a moment label and 0 for any other, so lower columns are 0."""
    labs = list(labels)
    n = len(labs)
    entry = sys.entry_scalar
    moment = [x for x in labs if isinstance(x, int)]
    border = range(min(moment, default=0), max(moment, default=-1) + 1)
    a = [[0] * (i + 1) + [_z(entry(x, y)) for y in labs[i + 1:]]
         + [int(x == p) for p in border] for i, x in enumerate(labs)]
    leading, reached = [Fraction(1)], n
    for s, (p, _) in enumerate(_stages(a, swaps=False)):
        leading.append(_q(p))
        if not _is_unit(p):
            reached = 2 * s + 2
    tops = [(_q(a[k][k + 2]), _q(a[k + 1][k + 2]), _q(a[k][k + 3]))
            for k in range(0, min(reached, n - 3), 2)]
    inv = [1 / link for link in leading[:(reached + 1) // 2]]
    return leading, tops, [PolyInZ([c * inv[r // 2] for c in a[r][n:]])
                           for r in range(reached)]
