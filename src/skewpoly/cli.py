"""Command-line entry points: generate moment data, verify identities, simulate.

Exit codes follow a CI-friendly contract: 0 means every requested check
passed, 1 means at least one entry did not pass (a nonzero exact residual,
status ``fail``, or a vanishing denominator on this seed, status
``degenerate``; the report names the identity and parameters), and 2 means
the configuration was rejected before any computation ran.  ``verify`` only
drives :data:`skewpoly.bilinear.IDENTITIES`; every check lives there.

:func:`run` is the process entry (``python -m skewpoly`` and the installed
``skewpoly`` command): it freezes the import-time heap (``gc.freeze``), so
neither the collections during the run nor the one at exit walk the objects
every import left, then returns :func:`main`.  :func:`main` itself never
freezes: a caller that runs it in process keeps its own heap as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys as _sys

from . import bilinear, moments
from .families import ReadPlan, taus
from .moments import MomentSystem, validate
from .poly import PolyInZ
from .scalars import format_scalar

PASS, FAIL, CONFIG_ERROR = 0, 1, 2


class ConfigError(Exception):
    pass


def run(argv=None) -> int:
    """:func:`main` in a process of its own, its import-time heap frozen."""
    gc.freeze()
    return main(argv)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        parser.print_help()
        return CONFIG_ERROR
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return CONFIG_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewpoly",
        description="Exact Pfaffian moment systems, polynomial families, and "
                    "their lattice identities")
    sub = parser.add_subparsers(dest="command")

    p_gen = _subcommand(sub, "gen", "generate a moment system file")
    _common_gen_flags(p_gen)
    p_gen.add_argument("--out", default="system.json", help="output JSON path")

    p_ver = _subcommand(sub, "verify", "run exact identity suites")
    _common_gen_flags(p_ver)
    p_ver.add_argument("--in", dest="infile", help="load a moment system JSON")
    p_ver.add_argument("--identities", help="comma list (default: all applicable)")
    p_ver.add_argument("--corrupt", help="perturb one entry, e.g. mu:2,3 or beta:1,4")
    p_ver.add_argument("--out", help="write the JSON report here")

    p_sim = _subcommand(sub, "simulate", "tau trajectory vs fixed-step integration")
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--t-end", type=float, default=1.0)
    p_sim.add_argument("--window", default="1:4", help="lattice sites n_lo:n_hi")
    p_sim.add_argument("--out", default="trajectory", help="CSV path prefix")
    p_sim.add_argument("--tolerance", type=float, default=1e-8)
    return parser


class _StoreOnce(argparse.Action):
    """argparse's plain store, except that a repeated option is a config
    error instead of silently overriding the earlier value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            raise ConfigError(f"{option_string} given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _subcommand(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand whose options each store once (:class:`_StoreOnce`)."""
    p = sub.add_parser(name, help=help)
    p.register("action", None, _StoreOnce)
    return p


def _common_gen_flags(p) -> None:
    p.add_argument("--kind",
                   help="none (default) | laurent | rank2 | rank1skew "
                        "| rank1skew-multi | rank1skew-complex")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed; with verify --in only a report label")
    p.add_argument("--n-max", type=int, default=2, dest="n_max")
    p.add_argument("--m-max", type=int, default=1, dest="m_max")
    p.add_argument("--components", type=int,
                   help="default 2 for the multi-component kinds, else 1")


def _build_system(args, info: dict) -> MomentSystem:
    kind = args.kind or "none"
    components = args.components
    if components is None:
        components = 2 if kind in ("rank1skew-multi", "rank1skew-complex") else 1
    reads = ReadPlan.of(args.n_max, args.m_max)
    try:
        return moments.gen(kind, reads.max_index, components=components,
                           seed=args.seed, require_tau=reads.tau_grid, info=info)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_gen(args) -> int:
    _check_grid_flags(args)
    _check_writable(args.out)
    info: dict = {}
    sys_ = _build_system(args, info)
    from .files import save
    save(sys_, args.out)
    rep = validate(sys_)
    print(f"wrote {args.out} (max_index={sys_.max_index}, "
          f"constraint={sys_.constraint}, components={sys_.ell}, "
          f"resample_attempts={info.get('resample_attempts', 0)})")
    print(rep.summary())
    if rep.all_zero:
        print("all residuals 0")
    return PASS if rep.all_zero else FAIL


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check_grid_flags(args) -> None:
    for flag, value in (("--n-max", args.n_max), ("--m-max", args.m_max)):
        if value < 0:
            raise ConfigError(f"{flag} must be nonnegative, got {value}")


def _check_writable(path) -> None:
    """Reject an output path that cannot be created, before any work runs."""
    parent = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(parent, os.W_OK)):
        raise ConfigError(f"cannot write {path}: not a writable file path")


def _load_checked(path) -> MomentSystem:
    """A loaded system whose data satisfies its own constraint tag."""
    from .files import load
    try:
        sys_ = load(path)
        if not sys_.ell:
            raise ValueError("no beta rows, and every identity reads component 1")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot load {path}: {type(exc).__name__}: {exc}")
    rep = validate(sys_)
    if not rep.all_zero:
        where, value = rep.failures[0]
        raise ConfigError(f"{path} breaks its {sys_.constraint!r} constraint: "
                          f"residual {format_scalar(value)} at {where}")
    return sys_


def _apply_corrupt(sys_: MomentSystem, spec: str) -> MomentSystem:
    """Add 1 to the named entry; an entry the system never stores is rejected."""
    kind, _, where = spec.partition(":")
    try:
        a, b = (int(x) for x in where.split(","))
    except ValueError:
        raise ConfigError(f"bad --corrupt spec {spec!r}")
    top = sys_.max_index
    if kind == "mu":
        if not 0 <= a < b <= top:
            raise ConfigError(f"--corrupt mu:{a},{b} needs 0 <= i < j <= {top}")
        mu = dict(sys_.mu)
        mu[(a, b)] = mu.get((a, b), 0) + 1
        return sys_.replace(mu=mu)
    if kind == "beta":
        if not (1 <= a <= sys_.ell and 0 <= b <= top):
            raise ConfigError(f"--corrupt beta:{a},{b} needs 1 <= k <= {sys_.ell} "
                              f"and 0 <= j <= {top}")
        beta = [list(seq) for seq in sys_.beta]
        beta[a - 1][b] = beta[a - 1][b] + 1
        return sys_.replace(beta=tuple(tuple(s) for s in beta))
    raise ConfigError(f"bad --corrupt kind {kind!r}")


def _residual_size(residuals) -> str:
    """The report's residual field: "0", or the largest absolute residual
    coefficient.  Gaussian values have no order, so for them the first
    nonzero one is reported instead."""
    values = [c for r in residuals
              for c in (r.coeffs if isinstance(r, PolyInZ) else [r]) if c]
    if not values:
        return "0"
    try:
        return str(max(abs(c) for c in values))
    except TypeError:
        return format_scalar(values[0])


def _instance_entries(sys_: MomentSystem, ident, params: dict) -> list:
    """Report entries of one identity instance, one per named part."""
    labels = [f"{ident.name}.{p}" for p in ident.parts] or [ident.name]
    try:
        res = bilinear.identity_residual(sys_, ident.name, **params)
    except ZeroDivisionError as exc:
        # a vanishing denominator on this seed, reported apart from failures
        outcomes = [("degenerate", str(exc))] * len(labels)
    else:
        sizes = map(_residual_size, [[r] for r in res] if ident.parts else [res])
        outcomes = [("pass" if size == "0" else "fail", size) for size in sizes]
    return [{"identity": label, "equation": ident.equation, "params": params,
             "status": status, "residual_max_abs_or_zero": size}
            for label, (status, size) in zip(labels, outcomes)]


def _selection(selected):
    """Catalog names to run, and those named explicitly (which must apply)."""
    catalog = bilinear.IDENTITIES
    if selected is None:
        return set(catalog), set()
    tokens = {s.strip().upper() for s in selected.split(",") if s.strip()}
    if not tokens:
        raise ConfigError(f"--identities {selected!r} names no identity")
    groups = {ident.group for ident in catalog.values()}
    unknown = tokens - set(catalog) - groups
    if unknown:
        raise ConfigError(f"unknown identities: {sorted(unknown)}; known: "
                          f"{sorted(catalog)} and groups {sorted(groups - {None})}")
    explicit = tokens & set(catalog)
    return explicit | {n for n, i in catalog.items() if i.group in tokens}, explicit


def run_verification(sys_: MomentSystem, n_max: int, m_max: int,
                     selected=None, seed=None) -> list:
    """Evaluate the selected catalog identities; returns report entries.

    ``selected`` is a comma list of catalog names and suite groups; by
    default every identity that applies to the system runs.
    """
    names, explicit = _selection(selected)
    instances = []
    for name in sorted(names):
        ident = bilinear.IDENTITIES[name]
        if not ident.applicable(sys_):
            if name in explicit:
                raise ConfigError(f"identity {name} requires constraint in "
                                  f"{ident.tags}, system is {sys_.constraint!r}")
            continue
        grid = list(ident.grid(sys_, n_max, m_max))
        if not grid and name in explicit:
            raise ConfigError(f"identity {name} has no instance at n_max={n_max}, "
                              f"m_max={m_max} on this system")
        instances += [(ident, params) for params in grid]
    taus(sys_).sweep(ReadPlan.of(n_max, m_max))
    entries = [e for ident, params in instances
               for e in _instance_entries(sys_, ident, params)]
    if seed is not None:
        for e in entries:
            e["seed"] = seed
    return entries


def cmd_verify(args) -> int:
    _check_grid_flags(args)
    if args.out:
        _check_writable(args.out)
    info: dict = {}
    if args.infile:
        given = [f"--{flag}" for flag in ("kind", "components")
                 if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"--in takes the system from {args.infile}; "
                              f"drop {', '.join(given)}")
        sys_ = _load_checked(args.infile)
        need = ReadPlan.of(args.n_max, args.m_max).max_index
        if sys_.max_index < need:
            raise ConfigError(f"{args.infile} has max_index {sys_.max_index}; "
                              f"--n-max {args.n_max} --m-max {args.m_max} "
                              f"needs max_index {need}")
    else:
        sys_ = _build_system(args, info)
    if args.corrupt:
        sys_ = _apply_corrupt(sys_, args.corrupt)
    entries = run_verification(sys_, args.n_max, args.m_max,
                               selected=args.identities, seed=args.seed)
    failures = [e for e in entries if e["status"] != "pass"]
    degenerate = sum(e["status"] == "degenerate" for e in failures)
    report = {
        "constraint": sys_.constraint,
        "seed": args.seed,
        "resample_attempts": info.get("resample_attempts"),
        "n_max": args.n_max,
        "m_max": args.m_max,
        "total": len(entries),
        "failures": len(failures),
        "entries": entries,
    }
    if args.out:
        _write_report(report, args.out)
    print(f"checked {len(entries)} identity entries: "
          f"{len(entries) - len(failures)} pass, {len(failures) - degenerate} fail, "
          f"{degenerate} degenerate")
    for e in failures[:10]:
        print(f"  {e['status'].upper()} {e['identity']} params={e['params']} "
              f"residual={e['residual_max_abs_or_zero']}")
    return PASS if not failures else FAIL


def _write_report(report: dict, path) -> None:
    """The report as JSON, its header on one line, then one entry a line, each
    by the C encoder (which ``json.dump``'s ``indent`` turns off)."""
    head = json.dumps({k: v for k, v in report.items() if k != "entries"})
    with open(path, "w") as fh:
        fh.write(f'{head[:-1]}, "entries": [\n'
                 + ",\n".join(map(json.dumps, report["entries"])) + "\n]}\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    try:
        from . import dynamics  # numpy is only needed here
    except ImportError as exc:
        raise ConfigError(f"simulate needs numpy: {exc}")
    try:
        lo, hi = (int(x) for x in args.window.replace(",", ":").split(":"))
    except ValueError:
        raise ConfigError(f"bad --window {args.window!r}")
    if lo < 1 or hi - lo + 1 < 3:
        raise ConfigError("window must start at site 1 or above and span at "
                          "least 3 sites")
    if not all(map(math.isfinite, (args.dt, args.t_end, args.tolerance))):
        raise ConfigError("dt, t-end and tolerance must be finite")
    if args.dt <= 0 or args.t_end <= 0:
        raise ConfigError("dt and t-end must be positive")
    if args.tolerance < 0:
        raise ConfigError("tolerance must be nonnegative")
    if round(args.t_end / (4 * args.dt)) == 0:
        raise ConfigError("t-end must exceed 2 dt: the coarsest convergence "
                          "run steps by 4 dt")
    _check_writable(f"{args.out}_tau.csv")
    try:  # a tau collision, an overflow, a non-finite state or an undefined order
        ok = dynamics.simulate((lo, hi), args.dt, args.t_end, args.tolerance, args.out)
    except ArithmeticError as exc:
        print(f"simulate failed: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return FAIL
    return PASS if ok else FAIL


if __name__ == "__main__":
    raise SystemExit(run())
