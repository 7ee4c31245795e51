"""The JSON file form of a moment system: ``gen --out`` writes it and
``verify --in`` reads it, through one reader that names what a file lacks.

Rationals are ``p/q`` strings, for bit-exact round trips; every mu pair is
written, the zeros a system leaves out included.  A run that neither writes
nor reads a file never loads this module.
"""

from __future__ import annotations

import json
from itertools import combinations

from .moments import MomentSystem
from .scalars import format_scalar, parse_scalar


def to_json_dict(sys: MomentSystem) -> dict:
    """The form :func:`from_json_dict` reads: every mu pair, zeros included."""
    out = {
        "max_index": sys.max_index,
        "constraint": sys.constraint,
        "mode": sys.mode,
        "mu": [[i, j, format_scalar(sys.mu_entry(i, j))]
               for i, j in combinations(range(sys.max_index + 1), 2)],
    }
    for name, rows in (("beta", sys.beta), ("beta_bar", sys.beta_bar)):
        if rows is not None:
            out[name] = [[k + 1, j, format_scalar(v)]
                         for k, seq in enumerate(rows) for j, v in enumerate(seq)]
    return out


def from_json_dict(data: dict) -> MomentSystem:
    """A system from its JSON object: ``max_index`` and ``mu`` present, no unknown
    key, indices, components and ``max_index`` JSON integers (not booleans),
    scalars strings, and each mu pair 0 <= i < j <= max_index given once."""
    if not isinstance(data, dict):
        raise ValueError(f"the file holds a JSON {type(data).__name__}, not an object")
    for what, keys in (("unknown", set(data) - {"max_index", "constraint", "mode", "mu",
                                                "beta", "beta_bar"}),
                       ("missing", {"max_index", "mu"} - set(data))):
        if keys:
            raise ValueError(f"{what} key {min(keys)!r}")
    max_index = _json_int(data["max_index"], "max_index")
    mu = {(_json_int(i, "mu index"), _json_int(j, "mu index")): _json_scalar(s)
          for i, j, s in _triples("mu", data["mu"])}
    if len(mu) != len(data["mu"]):
        raise ValueError("repeated mu triple")
    beta = _seqs_from_triples("beta", data.get("beta", []), max_index)
    bbar = (_seqs_from_triples("beta_bar", data["beta_bar"], max_index)
            if "beta_bar" in data else None)
    missing = next((p for p in combinations(range(max_index + 1), 2) if p not in mu), None)
    if missing:  # the walk stops there: at most len(mu) + 1 steps
        raise ValueError(f"missing mu triples, first {missing}")
    return MomentSystem(max_index, mu, beta, beta_bar=bbar,
                        constraint=data.get("constraint", "none"),
                        mode=data.get("mode", "exact"))


def _seqs_from_triples(name, triples, max_index) -> tuple:
    """Rows from (k, j, value) triples, each (k, j) with 0 <= j <= max_index
    given exactly once for every component k up to the largest one named."""
    seqs: dict = {}
    for k, j, s in _triples(name, triples):
        k, j = _json_int(k, f"{name} component"), _json_int(j, f"{name} index")
        if k < 1 or not 0 <= j <= max_index:
            raise ValueError(f"{name} triple ({k},{j}) needs k >= 1 and "
                             f"0 <= j <= {max_index}")
        if (k, j) in seqs:
            raise ValueError(f"repeated {name} triple ({k},{j})")
        seqs[(k, j)] = _json_scalar(s)
    ncomp = max((k for k, _ in seqs), default=0)
    missing = next(((k, j) for k in range(1, ncomp + 1) for j in range(max_index + 1)
                    if (k, j) not in seqs), None)
    if missing:  # the walk stops there: at most len(seqs) + 1 steps
        raise ValueError(f"missing {name} triples, first ({missing[0]},{missing[1]})")
    return tuple(tuple(seqs[(k, j)] for j in range(max_index + 1))
                 for k in range(1, ncomp + 1))


def _triples(name, triples) -> list:
    """``triples``, checked to be a JSON list of three-element lists."""
    if type(triples) is not list:
        raise ValueError(f"{name} {triples!r} is not a list of triples")
    bad = next((t for t in triples if type(t) is not list or len(t) != 3), None)
    if bad is not None:
        raise ValueError(f"{name} entry {bad!r} is not a triple")
    return triples


def _json_int(x, what: str) -> int:
    if type(x) is not int:  # bool is a subclass of int
        raise ValueError(f"{what} {x!r} is not a JSON integer")
    return x


def _json_scalar(s):
    if not isinstance(s, str):
        raise ValueError(f"scalar {s!r} is not a string such as \"-3/4\"")
    try:
        return parse_scalar(s)
    except ZeroDivisionError:  # Fraction's own error for a zero denominator
        raise ValueError(f"scalar {s!r} has a zero denominator") from None


def save(sys: MomentSystem, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(to_json_dict(sys), indent=1))


def load(path) -> MomentSystem:
    """:func:`from_json_dict` of a JSON file in which no object repeats a key."""
    with open(path) as fh:
        return from_json_dict(json.load(fh, object_pairs_hook=_unique_keys))


def _unique_keys(pairs) -> dict:
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)
