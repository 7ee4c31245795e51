"""The expansion oracle: Pfaffians by recursive expansion, on a system's own
entry rules.

This is the tests' independent reference, never the engine's: no program
module imports it, and a ``verify`` or ``gen`` run never loads it (the
engine reads a system's moments only from its
:class:`~skewpoly.pfaffian.MomentKernel`).

* :func:`pfaffian_expand` -- a plain square skew row list by expansion;
  :func:`pfaffian` the same list by the engine's elimination with swaps.
* :func:`pf_labels` / :func:`pf_indexed` -- labelled Pfaffians by recursive
  expansion along the first label (and z), memoized over label subsets.  No
  division, so any commutative ring.  Their labels are integer moment
  indices, single-moment rows ``d``, derivative rows ``d0``/``d1`` and a
  spectral row ``z``.
* The label rules, owned by one resolver (:func:`_entry_ref`: the sign and
  the moment behind each entry, ``None`` for an entry the rules make 0,
  :class:`LabelError` for a forbidden pair), read as scalars
  (:func:`entry_scalar`) and as jets under the index-shift rule
  (:func:`entry_jet`, :func:`lift_to_jet`), every moment through
  ``MomentSystem._moment``.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .jets import Jet, JetSpec, weight
from .pfaffian import _pf_rows, _q, _z
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
    """Pfaffian of a square skew row list by the engine's elimination with
    swaps (``pfaffian._pf_rows``), on scalars or ``JetSpec(1)`` jets; empty
    gives 1."""
    _check_skew(rows)
    return _q(_pf_rows([[_z(x) for x in r] for r in rows]))


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
        entry_scalar(sys, a, b)


def pf_indexed(labels, sys, *, cache: dict | None = None, jet_spec=None) -> PolyInZ:
    """Resolve a labelled Pfaffian against a moment system.

    Entry rules: :func:`_entry_ref` for a z-free pair, and Pf(i,z) = z^i,
    Pf(row,z) = 0 for the rows d_k, dbar_k, d0 and d1, expanded along z
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

    def entry(a, b):
        if jet_spec is None:
            return entry_scalar(sys, a, b)
        if (a, b, jet_spec) not in memo:
            memo[a, b, jet_spec] = sys.entry_jet(a, b, jet_spec)
        return memo[a, b, jet_spec]
    val = _pf_expand(labs, entry, memo)
    if jet_spec is not None and not isinstance(val, Jet):
        val = Jet.constant(val, jet_spec)
    return _q(val)


# ---------------------------------------------------------------------------
# Entry rules, shift derivation and jets
# ---------------------------------------------------------------------------


def entry_scalar(sys, a, b):
    """Pfaffian entry for a pair of z-free labels (antisymmetric in a, b)."""
    ref = _entry_ref(sys, a, b)
    return 0 if ref is None else ref[0] * sys._moment(*ref[1])


def entry_jet(sys, a, b, spec: JetSpec):
    """The entry's jet under the shift rule (:func:`lift_to_jet`)."""
    ref = _entry_ref(sys, a, b)
    return Jet.constant(0, spec) if ref is None else ref[0] * lift_to_jet(sys, ref[1], spec)


def _entry_ref(sys, a, b):
    """The label rules: ``None`` for an entry they make 0, else ``(sign,
    (kind, p, q))``, the entry being sign times ``sys._moment(kind, p, q)``.
    Pf(i,j) = mu_{i,j}, Pf(d_k,i) = beta^{(k)}_i (conjugate row for
    ("cbar", k)), Pf(d0,i) = beta_i, Pf(d1,i) = beta_{i+1}, Pf(d0,d1) = 0;
    any other pair of distinct row labels raises ``LabelError``."""
    if isinstance(a, int) and isinstance(b, int):
        if a == b:
            return None
        return (1, ("mu", a, b)) if a < b else (-1, ("mu", b, a))
    if isinstance(a, int):
        ref = _entry_ref(sys, b, a)
        return ref and (-ref[0], ref[1])
    if isinstance(b, int):
        kind, k = a
        if kind in ("comp", "cbar"):
            return 1, ("beta" if kind == "comp" else "beta_bar", k, b)
        if kind == "shift":
            return 1, ("beta", 1, b + k)
        raise LabelError(f"unrecognized label {a!r}")
    if a == b or {a[0], b[0]} == {"shift"}:
        return None  # Pf(d0,d1) = 0, forced by the rank2 derivative rule
    raise LabelError(f"no entry rule for label pair ({a!r}, {b!r})")


def shift_derivative(sys, entry, flow: int):
    """d/dt_flow of a moment entry via the index-shift rule."""
    if flow < 1:
        raise ValueError("flow index must be >= 1")
    kind, p, q = entry
    if kind == "mu":
        return sys.mu_entry(p + flow, q) + sys.mu_entry(p, q + flow)
    return sys._moment(kind, p, q + flow)


def lift_to_jet(sys, entry, spec: JetSpec) -> Jet:
    """Jet of a moment entry under the shift rule, derivative by derivative.

    d/dt_n acts on mu_{i,j} as X^n + Y^n, X and Y raising the first and the
    second index, so the derivative of order alpha is prod_d (X^{d+1} +
    Y^{d+1})^{alpha_d}: the sum over beta <= alpha of binom(alpha, beta)
    mu_{i+w(beta), j+w(alpha-beta)}, w the weight.  A single-moment row
    entry beta_j has derivative beta_{j+w(alpha)}.  :meth:`Jet.of_derivatives`
    divides each by alpha!.
    """
    kind, a, j = entry
    derivs = {}
    for alpha in spec.weights:
        if kind == "mu":
            val = 0
            for low in product(*(range(x + 1) for x in alpha)):
                high = [x - y for x, y in zip(alpha, low)]
                val = val + (math.prod(map(math.comb, alpha, low))
                             * sys.mu_entry(a + weight(low), j + weight(high)))
        else:
            val = sys._moment(kind, a, j + weight(alpha))
        derivs[alpha] = val
    return Jet.of_derivatives(spec, derivs)
