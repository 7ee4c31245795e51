"""Outside-in layer tracing for skewpoly: wraps public entry points, keeps spans.

Nothing under ``src/`` knows about this module.  ``install()`` replaces the
entry points listed in ``ENTRY_POINTS`` with wrappers that record one span per
call (name, start, end, parent span, job id) into flat in-memory arrays, plus
a few counters that are cheapest to take at the call site (term pairs offered
to ``Jet.__mul__``, cache growth around ``pf_labels``, ...).  ``dump()`` writes
everything out once, when the traced process ends; ``aggregate()`` turns the
dumps of one run into per-layer metrics.

Two properties of the package shape the patching:

* ``skewpoly.pfaffian`` is the *function* re-exported by ``skewpoly/__init__``,
  so modules are fetched with ``importlib.import_module``.
* ``pf_labels``, ``pf_indexed`` and ``skew_inner`` are imported by value (or
  called through a module global), so every module that holds the name gets
  the same wrapper.

``scalars`` and ``poly`` are not wrapped: their Fraction / PolyInZ operations
are too fine-grained to wrap cheaply, so their cost lands in the self time of
the calling layer.  ``dynamics`` (the float lane) is not exercised by any
workload.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from fractions import Fraction

# (span name, module holding the callable, attribute path, other modules that
# imported the same callable by value).  Several entry points may share one
# span name; their calls and self times add up.
ENTRY_POINTS = [
    ("jets.mul", "jets", "Jet.__mul__", ()),
    ("jets.inverse", "jets", "Jet.inverse", ()),
    ("moments.gen", "moments", "gen", ()),
    ("moments.lift_to_jet", "moments", "lift_to_jet", ()),
    ("pfaffian.pf_labels", "pfaffian", "pf_labels", ("families", "moments")),
    ("pfaffian.pf_indexed", "pfaffian", "pf_indexed", ("families", "lax")),
    ("families.tau", "families", "TauTable.tau", ()),
    ("families.tau_jet", "families", "TauTable.tau_jet", ()),
    ("families.sop", "families", "TauTable.sop", ()),
    ("families.sop", "families", "TauTable.psop", ()),
    ("families.skew_inner", "families", "skew_inner", ()),
    ("christoffel.residual", "christoffel", "sop_transform_residual", ()),
    ("christoffel.residual", "christoffel", "psop_transform_residual", ()),
    ("christoffel.residual", "christoffel", "psop_multi_residuals", ()),
    ("bilinear.schur_tau", "bilinear", "SchurTau.__init__", ()),
    ("bilinear.identity", "bilinear", "identity_residual", ()),
    ("lax.build", "lax", "build_psop_lax", ()),
    ("lax.compat", "lax", "lax_compat_residual", ()),
    ("lax.suites", "lax", "c2_evolution_residuals", ()),
    ("lax.suites", "lax", "c3_recurrence_residuals", ()),
    ("lax.suites", "lax", "mixed_residual", ()),
    ("lax.suites", "lax", "toda_vars_and_residual", ()),
    ("cli.verify", "cli", "run_verification", ()),
    ("cli.cmd_verify", "cli", "cmd_verify", ()),
]

# counted, not spanned: called once per matrix entry, mostly cache hits
COUNTED = [("moments.entry_jet", "moments", "MomentSystem.entry_jet")]

PER_LAYER_UNITS = {
    "jets.mul.calls": "count", "jets.mul.self_s": "s",
    "jets.mul.pairs": "count", "jets.mul.terms_out": "count",
    "jets.inverse.calls": "count", "jets.inverse.self_s": "s",
    "moments.gen.calls": "count", "moments.gen.s": "s",
    "moments.lift_to_jet.calls": "count", "moments.lift_to_jet.self_s": "s",
    "moments.entry_jet.hit_ratio": "ratio",
    "pfaffian.pf_labels.calls": "count", "pfaffian.pf_labels.self_s": "s",
    "pfaffian.pf_labels.hit_ratio": "ratio", "pfaffian.cache_entries": "count",
    "pfaffian.pf_indexed.calls": "count", "pfaffian.pf_indexed.self_s": "s",
    "families.tau.calls": "count", "families.tau.max_bits": "bits",
    "families.tau_jet.calls": "count", "families.tau_jet.self_s": "s",
    "families.sop.calls": "count", "families.sop.self_s": "s",
    "families.skew_inner.self_s": "s",
    "christoffel.residual.calls": "count", "christoffel.residual.self_s": "s",
    "bilinear.schur_tau.calls": "count", "bilinear.schur_tau.self_s": "s",
    "bilinear.schur_tau.reuse_ratio": "ratio",
    "bilinear.identity.calls": "count", "bilinear.identity.self_s": "s",
    "lax.build.calls": "count", "lax.build.self_s": "s",
    "lax.compat.self_s": "s", "lax.suites.self_s": "s",
    "lax.degenerate_resamples": "count",
    "cli.verify.self_s": "s", "cli.report_write_s": "s",
    "cli.degenerate_jobs": "count",
    "trace.job_s": "s", "trace.checks_per_s": "1/s",
}
RUNNER_KEYS = ("lax.degenerate_resamples", "cli.degenerate_jobs", "trace.job_s",
               "trace.checks_per_s")


def _bits(v) -> int:
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    re, im = getattr(v, "re", None), getattr(v, "im", None)
    if re is not None and im is not None:
        return max(_bits(re), _bits(im))
    return 0


class Tracer:
    """Span store for one traced process; single-threaded by construction."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.calls = array("q")
        self.stack: list[int] = []
        self.job_id = 0
        self.counters = {"jets.mul.pairs": 0, "jets.mul.terms_out": 0,
                         "pf_labels.hits": 0, "pf_labels.misses": 0,
                         "pfaffian.cache_entries": 0, "families.tau.max_bits": 0,
                         "schur_tau.reused": 0, "moments.entry_jet.calls": 0}
        self.entry_points: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
        return self.names.index(name)

    def span(self, name: str, fn):
        nid = self._name_id(name)
        start, end, parent, names, jobs = (self.start, self.end, self.parent,
                                           self.name, self.job)
        stack, calls, clock = self.stack, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            jobs.append(self.job_id)
            end.append(0.0)
            calls[nid] += 1
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- call-site counters (applied inside the span, so their cost is
    #    charged to the wrapped layer's self time) ---------------------------

    def _counted_mul(self, fn):
        c = self.counters

        def mul(a, b):
            out = fn(a, b)
            nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
            c["jets.mul.pairs"] += len(a.coeffs) * nb
            c["jets.mul.terms_out"] += len(out.coeffs)
            return out
        return mul

    def _counted_pf_labels(self, fn):
        c = self.counters

        def pf_labels(labels, sys, *, cache=None, jet_spec=None):
            before = None if cache is None else len(cache)
            out = fn(labels, sys, cache=cache, jet_spec=jet_spec)
            grew = 0 if cache is None else len(cache) - before
            if cache is not None and grew == 0:
                c["pf_labels.hits"] += 1
            else:
                c["pf_labels.misses"] += 1
            c["pfaffian.cache_entries"] += grew
            return out
        return pf_labels

    def _counted_tau(self, fn):
        c = self.counters

        def tau(*args, **kwargs):
            out = fn(*args, **kwargs)
            bits = _bits(out)
            if bits > c["families.tau.max_bits"]:
                c["families.tau.max_bits"] = bits
            return out
        return tau

    def _counted_schur(self, fn):
        c, calls = self.counters, self.calls
        tau_jet = self._name_id("families.tau_jet")

        def init(*args, **kwargs):
            before = calls[tau_jet]
            fn(*args, **kwargs)
            if calls[tau_jet] == before:
                c["schur_tau.reused"] += 1
        return init

    def _counted_entry_jet(self, fn):
        c = self.counters

        def entry_jet(*args, **kwargs):
            c["moments.entry_jet.calls"] += 1
            return fn(*args, **kwargs)
        return entry_jet

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        extra = {"jets.mul": self._counted_mul,
                 "pfaffian.pf_labels": self._counted_pf_labels,
                 "families.tau": self._counted_tau,
                 "bilinear.schur_tau": self._counted_schur}
        for name, modname, attr, importers in ENTRY_POINTS:
            owner, leaf, fn = _resolve(modname, attr)
            inner = extra[name](fn) if name in extra else fn
            wrapped = self.span(name, inner)
            self.entry_points[f"{modname}.{attr}"] = self._name_id(name)
            setattr(owner, leaf, wrapped)
            for other in importers:
                mod = importlib.import_module(f"skewpoly.{other}")
                if getattr(mod, leaf, None) is fn:
                    setattr(mod, leaf, wrapped)
        for name, modname, attr in COUNTED:
            owner, leaf, fn = _resolve(modname, attr)
            setattr(owner, leaf, self._counted_entry_jet(fn))

    def dump(self, path: str) -> None:
        """Write the header (names, counters, entry-point call counts) as JSON
        and the span arrays as raw machine arrays beside it."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counters": self.counters,
            "entry_point_calls": {ep: self.calls[nid]
                                  for ep, nid in self.entry_points.items()},
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name, self.job):
                arr.tofile(fh)


def _resolve(modname: str, attr: str):
    mod = importlib.import_module(f"skewpoly.{modname}")
    owner = mod
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # class attributes: read from __dict__ so methods stay plain functions
    fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    return owner, leaf, fn


def load(path: str):
    """Read one dump back: (header, start, end, parent, name)."""
    with open(path + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = [array("d"), array("d"), array("q"), array("q"), array("q")]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return header, arrays


def aggregate(paths: list[str]) -> tuple[dict, list[str]]:
    """Span-derived per-layer metrics over every dump of one run, plus the
    wrapped entry points that saw no call in any of them.  The ``RUNNER_KEYS``
    metrics come from the runner, not from spans."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    ep_calls: dict[str, int] = {}
    for path in paths:
        header, (start, end, parent, name, _job) = load(path)
        names = header["names"]
        n = len(start)
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        for i in range(n):
            nm = names[name[i]]
            dur = end[i] - start[i]
            calls[nm] = calls.get(nm, 0) + 1
            incl_s[nm] = incl_s.get(nm, 0.0) + dur
            self_s[nm] = self_s.get(nm, 0.0) + dur - covered[i]
        for k, v in header["counters"].items():
            if k == "families.tau.max_bits":
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v
        for ep, v in header["entry_point_calls"].items():
            ep_calls[ep] = ep_calls.get(ep, 0) + v

    def ratio(num, den):
        return num / den if den else 0.0

    lifts = calls.get("moments.lift_to_jet", 0)
    schur = calls.get("bilinear.schur_tau", 0)
    m = {
        "jets.mul.pairs": counters.get("jets.mul.pairs", 0),
        "jets.mul.terms_out": counters.get("jets.mul.terms_out", 0),
        "moments.gen.s": incl_s.get("moments.gen", 0.0),
        "moments.entry_jet.hit_ratio": ratio(
            counters.get("moments.entry_jet.calls", 0) - lifts,
            counters.get("moments.entry_jet.calls", 0)),
        "pfaffian.pf_labels.hit_ratio": ratio(
            counters.get("pf_labels.hits", 0),
            counters.get("pf_labels.hits", 0) + counters.get("pf_labels.misses", 0)),
        "pfaffian.cache_entries": counters.get("pfaffian.cache_entries", 0),
        "families.tau.max_bits": counters.get("families.tau.max_bits", 0),
        "bilinear.schur_tau.reuse_ratio": ratio(
            counters.get("schur_tau.reused", 0), schur),
        "cli.report_write_s": self_s.get("cli.cmd_verify", 0.0),
    }
    for key in PER_LAYER_UNITS:
        if key in m or key in RUNNER_KEYS:
            continue
        layer, _, stat = key.rpartition(".")
        m[key] = (calls if stat == "calls" else self_s).get(layer, 0)
    unused = sorted(ep for ep, v in ep_calls.items() if v == 0)
    return m, unused
