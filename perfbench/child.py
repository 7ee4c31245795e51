"""Benchmark-owned child entry point: one CLI job, or a closed loop of lax jobs.

    child.py cli [--trace-out PREFIX --job I] -- verify ...
        Runs ``skewpoly.cli.main(argv)`` once and exits with its code.  With
        ``--trace-out`` the layer wrappers are installed first and the spans
        are written to PREFIX.json / PREFIX.bin when the job ends.

    child.py lax --seeds S1,S2,... --seconds T --out FILE [--trace-out PREFIX]
        Runs lax-ops jobs one after another, in the given seed order, until
        T seconds have passed, and writes per-job results to FILE.

skewpoly is imported from whatever ``sys.path`` resolves; the parent puts the
checkout's ``src`` first and records the resolved file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time

import tracer

LAX_SIZES = (6, 8, 10)
LAX_ATTEMPTS = 4


def lax_job(moments, lax, seed: int) -> dict:
    """One lax-ops job, shaped like acceptance criterion 6: a ``none`` and a
    ``rank2`` system (max_index 17, require_tau (7, 2)) and the interior
    compatibility blocks at N in LAX_SIZES.  A vanishing denominator resamples
    both systems; resamples are counted, not failed."""
    resamples = 0
    for attempt in range(LAX_ATTEMPTS):
        try:
            su = moments.gen("none", 17, seed=seed + 131 * attempt, require_tau=(7, 2))
            s2 = moments.gen("rank2", 17, seed=seed + 100 + 131 * attempt,
                             require_tau=(7, 2))
            blocks = []
            for n_size in LAX_SIZES:
                blocks.append(("mixed", "none", n_size,
                               lax.lax_compat_residual(su, "mixed", 0, n_size)))
                for kind in ("mixed", "rank2-m", "rank2-n"):
                    blocks.append((kind, "rank2", n_size,
                                   lax.lax_compat_residual(s2, kind, 0, n_size)))
        except ZeroDivisionError:
            resamples += 1
            continue
        bad = [f"{k}/{s}/N={n}" for k, s, n, rep in blocks if not rep["interior_zero"]]
        return {"seed": seed, "checks": len(blocks), "bad": bad,
                "resamples": resamples, "ok": not bad}
    return {"seed": seed, "checks": 0, "bad": ["resampling exhausted"],
            "resamples": resamples, "ok": False}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["cli", "lax"])
    ap.add_argument("--trace-out")
    ap.add_argument("--job", type=int, default=0)
    ap.add_argument("--seeds")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:split])
    cli_argv = argv[split + 1:]

    cli = importlib.import_module("skewpoly.cli")
    tr = None
    if args.trace_out:
        tr = tracer.Tracer()
        tr.install()
        tr.job_id = args.job

    if args.mode == "cli":
        try:
            code = cli.main(cli_argv)
        finally:
            if tr is not None:
                tr.dump(args.trace_out)
        return code

    moments = importlib.import_module("skewpoly.moments")
    lax = importlib.import_module("skewpoly.lax")
    seeds = [int(s) for s in args.seeds.split(",")]
    jobs = []
    t0 = time.perf_counter()
    for i, seed in enumerate(seeds):
        if time.perf_counter() - t0 >= args.seconds:
            break
        if tr is not None:
            tr.job_id = i
        start = time.perf_counter()
        try:
            res = lax_job(moments, lax, seed)
        except Exception as exc:  # a crash is a failed job, not a dead run
            res = {"seed": seed, "checks": 0, "bad": [repr(exc)], "resamples": 0,
                   "ok": False}
        res["wall_s"] = time.perf_counter() - start
        # high-water RSS so far; the process keeps every system it built, so
        # only the value after the first job is independent of the job count
        res["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        jobs.append(res)
    phase_s = time.perf_counter() - t0
    if tr is not None:
        tr.dump(args.trace_out)
    with open(args.out, "w") as fh:
        json.dump({"jobs": jobs, "phase_s": phase_s}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
