"""Pfaffians over exact scalar rings and jets, plus the indexed-label resolver.

One engine per kind of input, each the other's test reference:

* :func:`pf_labels` / :func:`pf_indexed` -- labelled Pfaffians of a moment
  system by recursive expansion along the first label, memoized over label
  subsets.  Works over any commutative ring (no division), so it serves
  scalar and jet-valued entries alike; the caller passes one memo per ring
  so nested tau-function chains are cheap.
* :func:`pfaffian` -- a plain square row list by skew-symmetric Gaussian
  elimination, pivoting on units: nonzero exact scalars (rationals or
  Gaussian rationals) or jets with a nonzero base.  A jet row with no unit
  raises ``ZeroDivisionError``; :func:`pfaffian_expand` runs the expansion
  engine on the same row list, over any ring.

The indexed resolver :func:`pf_indexed` evaluates Pfaffians whose rows are
named by symbolic labels (integer moment indices, single-moment rows ``d``,
derivative rows ``d0``/``d1``, a spectral row ``z``) against a moment system,
returning a polynomial in z.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import Jet
from .poly import PolyInZ


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
    n = len(rows)
    a = [list(r) for r in rows]
    pf = 1
    negate = False
    for k in range(0, n - 1, 2):
        piv = next((j for j in range(k + 1, n) if _is_unit(a[k][j])), None)
        if piv is None:
            if any(a[k][k + 1:]):
                raise ZeroDivisionError(f"row {k} of the elimination has no unit")
            return 0
        if piv != k + 1:
            _swap(a, piv, k + 1)
            negate = not negate
        p = a[k][k + 1]
        pf = pf * p
        inv = Fraction(1) / p
        for i in range(k + 2, n):
            aki = a[k][i] * inv
            ak1i = a[k + 1][i] * inv
            if not (aki or ak1i):
                continue
            row_i = a[i]
            row_k = a[k]
            row_k1 = a[k + 1]
            for j in range(i + 1, n):
                new = row_i[j] - (aki * row_k1[j] - row_k[j] * ak1i)
                row_i[j] = new
                a[j][i] = -new  # keep both triangles live for later swaps
    return -pf if negate else pf


def _is_unit(x) -> bool:
    return bool(x.base if isinstance(x, Jet) else x)


def _swap(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def det_bareiss(rows):
    """Fraction-free determinant (Bareiss); exact over any integral domain."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
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
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_div(num, prev)
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _exact_div(num, den):
    if den == 1:
        return num
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError("Bareiss division not exact")
        return q
    return num / den


# ---------------------------------------------------------------------------
# Indexed Pfaffians
# ---------------------------------------------------------------------------

Z = "z"
D0 = ("shift", 0)
D1 = ("shift", 1)


def comp(k: int = 1):
    """Single-moment row label for component k."""
    return ("comp", k)


def comp_bar(k: int = 1):
    """Single-moment row label for the conjugate sequence of component k."""
    return ("cbar", k)


_RANK = {"comp": 0, "cbar": 1, "shift": 2}


def parse_label(lab):
    """Accepts ints, canonical tuples, and the strings z, d, d:k, dbar:k, d0, d1."""
    if isinstance(lab, int):
        return lab
    if isinstance(lab, tuple):
        return lab
    if lab == Z:
        return Z
    if lab == "d":
        return comp(1)
    if lab == "d0":
        return D0
    if lab == "d1":
        return D1
    if isinstance(lab, str) and lab.startswith("d:"):
        return comp(int(lab[2:]))
    if isinstance(lab, str) and lab.startswith("dbar:"):
        return comp_bar(int(lab[5:]))
    raise LabelError(f"unrecognized label {lab!r}")


def _sort_key(lab):
    if isinstance(lab, int):
        return (3, lab, 0)
    if lab == Z:
        return (4, 0, 0)
    return (_RANK[lab[0]], lab[1], 0)


def _canonicalize(labs):
    """Sorted label tuple plus the parity sign of the sorting permutation."""
    order = sorted(range(len(labs)), key=lambda t: _sort_key(labs[t]))
    sign = 1
    seen = [False] * len(labs)
    for start in range(len(labs)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = order[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(labs[t] for t in order), sign


def _validate_labels(labs, sys) -> None:
    zs = sum(1 for l in labs if l == Z)
    if zs > 1:
        raise LabelError("at most one spectral label z is allowed")
    comps = {l[1] for l in labs if isinstance(l, tuple) and l[0] == "comp"}
    cbars = {l[1] for l in labs if isinstance(l, tuple) and l[0] == "cbar"}
    shifts = [l for l in labs if isinstance(l, tuple) and l[0] == "shift"]
    if len(comps) > 1 or len(cbars) > 1 or (comps and cbars):
        raise LabelError("distinct single-moment rows cannot share one Pfaffian")
    if shifts and (comps or cbars):
        raise LabelError("derivative rows cannot mix with single-moment rows")
    if shifts and sys.constraint != "rank2":
        raise LabelError("derivative rows d0/d1 require the rank2 constraint")


def pf_indexed(labels, sys, *, cache: dict | None = None, jet_spec=None) -> PolyInZ:
    """Resolve a labelled Pfaffian against a moment system.

    Entry rules: Pf(i,j) = mu_{i,j}; Pf(d_k,i) = beta_i^(k); Pf(i,z) = z^i;
    Pf(d_k,z) = 0; and under the rank2 constraint Pf(d0,i) = beta_i,
    Pf(d1,i) = beta_{i+1}, Pf(d0,d1) = 0, Pf(d0,z) = Pf(d1,z) = 0.
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
    """z-free labelled Pfaffian.  ``cache`` is the memo of one ring
    (scalars, or jets of ``jet_spec``), keyed by canonical label tuples."""
    labs, sign = _canonicalize([parse_label(l) for l in labels])
    if jet_spec is None:
        entry = sys.entry_scalar
    else:
        entry = lambda a, b: sys.entry_jet(a, b, jet_spec)  # noqa: E731
    got = _pf_expand(labs, entry, {} if cache is None else cache)
    return -got if sign < 0 else got
