"""skewpoly benchmark: closed-loop verify / library workloads, checked for exactness.

    python3 perfbench/run.py --workload verify-n2 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  skewpoly is imported from that checkout's
``src`` (never from an installed copy).  One client runs one job at a time;
a job is either a ``python -m skewpoly verify`` child process or, for
``lax-ops``, a library call inside one benchmark-owned child process.  Jobs
keep starting until ``--seconds`` have passed; the job that is running then
finishes and is counted.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same jobs
through ``child.py`` with the layer wrappers of ``tracer.py`` installed and
reports the per-layer metrics.  ``--workload all`` runs every workload in turn.
Every metric is printed by name and unit; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

Design notes and the seed-commit figures are in design.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

N2_KINDS = ("none", "laurent", "rank2", "rank1skew", "rank1skew-multi",
            "rank1skew-complex")
SUITES_N7 = "ORTHOGONALITY,TRANSFORMS"

# name -> (kinds cycled in this order, n_max, m_max, --identities or None);
# lax-ops has no CLI shape
WORKLOADS = {
    "verify-n2": (N2_KINDS, 2, 1, None),
    "verify-n3": (("none", "rank2", "rank1skew"), 3, 1, None),
    "scalar-n7": (("none", "rank1skew-multi"), 7, 1, SUITES_N7),
    "lax-ops": None,
}

# report "total" per (kind, n_max, identities) at --m-max 1, recorded at the
# seed commit; a job whose report has another total fails
EXPECTED_TOTALS = {
    ("none", 2, None): 137, ("laurent", 2, None): 167, ("rank2", 2, None): 187,
    ("rank1skew", 2, None): 169, ("rank1skew-multi", 2, None): 228,
    ("rank1skew-complex", 2, None): 228,
    ("none", 3, None): 207, ("rank2", 3, None): 281, ("rank1skew", 3, None): 255,
    ("none", 7, SUITES_N7): 82, ("rank1skew-multi", 7, SUITES_N7): 148,
}

# negative control: an in-range corrupted entry on a constrained kind must
# give at least one failing entry (mu:3,2 is never read, and an unconstrained
# system satisfies every identity it is checked against)
CONTROL = ("rank1skew", "mu:2,3")

END_TO_END_UNITS = {"setup_s": "s", "checks_per_s": "1/s", "job_s.p50": "s",
                    "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 120.0
JOB_LIST_LEN = 400


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, env: dict, timeout: float, log_path: Path) -> dict:
    """Run one child to completion; returns exit code, wall time, peak RSS.

    ``os.wait4`` gives the rusage of exactly this child, so peak memory is
    per job rather than the maximum over every child the benchmark started.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "timed_out": wall >= timeout}


def job_list(workload: str, seed: int) -> tuple[list, int]:
    """Distinct per-job seeds from the workload seed, plus the control's seed."""
    rng = random.Random(f"{workload}:{seed}")
    seeds = rng.sample(range(1, 10**6), JOB_LIST_LEN + 1)
    return seeds[:-1], seeds[-1]


def measure_setup(env: dict, tmp: Path, repeats: int) -> tuple[float, str]:
    """Median wall time of a fresh interpreter importing skewpoly and its CLI,
    after one untimed import that also reports which skewpoly was loaded."""
    probe = [sys.executable, "-c",
             "import skewpoly, skewpoly.cli; print(skewpoly.__file__)"]
    warm = run_child(probe, env, JOB_TIMEOUT_S, tmp / "probe.log")
    resolved = (tmp / "probe.log").read_text().strip()
    if warm["code"] != 0:
        raise SystemExit(f"cannot import skewpoly from {SRC}:\n{resolved}")
    times = [run_child(probe, env, JOB_TIMEOUT_S, tmp / "probe.log")["wall_s"]
             for _ in range(repeats)]
    return (statistics.median(times) if times else 0.0), resolved


def verify_argv(kind: str, seed: int, n_max: int, m_max: int, identities, out: Path):
    argv = ["verify", "--kind", kind, "--seed", str(seed), "--n-max", str(n_max),
            "--m-max", str(m_max), "--out", str(out)]
    if identities:
        argv += ["--identities", identities]
    return argv


def classify_report(res: dict, out: Path, expected: int) -> tuple[str, int, str]:
    """(outcome, checks passed, reason) of one verify job.

    outcome is ``pass``, ``fail`` or ``degenerate``: a suite aborted by a
    vanishing denominator on this seed (status ``degenerate``, every other
    entry passing) is counted apart from failures, as the lax-ops resamples
    are.
    """
    if res["timed_out"]:
        return "fail", 0, "timed out"
    try:
        report = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        return "fail", 0, f"exit {res['code']}, no report ({exc})"
    entries = report.get("entries", [])
    statuses = [e.get("status") for e in entries]
    passed = statuses.count("pass")
    if statuses.count("fail") or set(statuses) - {"pass", "degenerate"}:
        return "fail", 0, f"{len(statuses) - passed} non-pass entries"
    if "degenerate" in statuses:
        return ("degenerate", passed, "suite aborted") if res["code"] == 1 else (
            "fail", 0, f"degenerate entry with exit {res['code']}")
    if res["code"] != 0:
        return "fail", 0, f"exit {res['code']}"
    if report.get("total") != len(entries) or len(entries) != expected:
        return "fail", 0, f"total {report.get('total')} != expected {expected}"
    return "pass", passed, ""


def run_cli_workload(workload: str, seeds: list, seconds: float, trace: bool,
                     env: dict, tmp: Path) -> dict:
    kinds, n_max, m_max, identities = WORKLOADS[workload]
    jobs, span_paths = [], []
    t0 = time.perf_counter()
    for i, seed in enumerate(seeds):
        if time.perf_counter() - t0 >= seconds:
            break
        kind = kinds[i % len(kinds)]
        out = tmp / f"report-{i}.json"
        argv = verify_argv(kind, seed, n_max, m_max, identities, out)
        if trace:
            prefix = tmp / f"spans-{i}"
            span_paths.append(str(prefix))
            cmd = [sys.executable, str(HERE / "child.py"), "cli", "--trace-out",
                   str(prefix), "--job", str(i), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "skewpoly", *argv]
        res = run_child(cmd, env, JOB_TIMEOUT_S, tmp / f"job-{i}.log")
        outcome, checks, reason = classify_report(
            res, out, EXPECTED_TOTALS[(kind, n_max, identities)])
        jobs.append({"kind": kind, "seed": seed, "outcome": outcome, "checks": checks,
                     "reason": reason, "wall_s": res["wall_s"], "rss_mb": res["rss_mb"]})
    phase_s = time.perf_counter() - t0
    return {"jobs": jobs, "phase_s": phase_s, "span_paths": span_paths,
            "degenerate": sum(j["outcome"] == "degenerate" for j in jobs),
            "resamples": 0}


def run_lax_workload(seeds: list, seconds: float, trace: bool, env: dict,
                     tmp: Path) -> dict:
    out = tmp / "lax.json"
    cmd = [sys.executable, str(HERE / "child.py"), "lax", "--seconds", str(seconds),
           "--out", str(out), "--seeds", ",".join(map(str, seeds))]
    span_paths = []
    if trace:
        span_paths.append(str(tmp / "spans-lax"))
        cmd += ["--trace-out", span_paths[0]]
    res = run_child(cmd, env, seconds + JOB_TIMEOUT_S, tmp / "lax.log")
    if res["code"] != 0 or res["timed_out"] or not out.exists():
        log = (tmp / "lax.log").read_text()[-2000:]
        return {"jobs": [{"outcome": "fail", "checks": 0, "wall_s": res["wall_s"],
                          "reason": f"lax child exit {res['code']}: {log}"}],
                "phase_s": res["wall_s"], "span_paths": [], "degenerate": 0,
                "resamples": 0, "rss_mb": res["rss_mb"], "run_peak_rss_mb": res["rss_mb"]}
    data = json.loads(out.read_text())
    jobs = [{"seed": j["seed"], "outcome": "pass" if j["ok"] else "fail",
             "checks": j["checks"] if j["ok"] else 0, "wall_s": j["wall_s"],
             "reason": ", ".join(j["bad"]), "resamples": j["resamples"]}
            for j in data["jobs"]]
    # peak_rss_mb is the child's high-water after its first job (import plus
    # one job, like one verify child); the whole-run peak grows with the job
    # count and is reported beside it
    return {"jobs": jobs, "phase_s": data["phase_s"], "span_paths": span_paths,
            "degenerate": 0, "resamples": sum(j["resamples"] for j in jobs),
            "rss_mb": data["jobs"][0]["maxrss_kb"] / 1024,
            "run_peak_rss_mb": res["rss_mb"]}


def negative_control(seed: int, env: dict, tmp: Path) -> dict:
    """Untimed: a corrupted constrained system must report at least one failure."""
    kind, corrupt = CONTROL
    out = tmp / "control.json"
    argv = verify_argv(kind, seed, 2, 1, None, out) + ["--corrupt", corrupt]
    res = run_child([sys.executable, "-m", "skewpoly", *argv], env, JOB_TIMEOUT_S,
                    tmp / "control.log")
    try:
        report = json.loads(out.read_text())
        failing = sum(e["status"] == "fail" for e in report["entries"])
        total = report["total"]
    except (OSError, ValueError, KeyError):
        failing, total = 0, 0
    return {"kind": kind, "corrupt": corrupt, "seed": seed, "exit": res["code"],
            "failing": failing, "total": total,
            "caught": res["code"] == 1 and failing >= 1}


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha or "unavailable (not a git checkout)",
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg_before": os.getloadavg()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_PARENT))
    try:
        detail = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), **environment()}
        prep0 = time.perf_counter()
        seeds, control_seed = job_list(workload, seed)
        prep_s = time.perf_counter() - prep0
        setup_s, resolved = measure_setup(env, tmp, 0 if trace else SETUP_REPEATS)
        detail["skewpoly_file"] = resolved
        if workload == "lax-ops":
            run = run_lax_workload(seeds, seconds, trace, env, tmp)
            peak_rss = run["rss_mb"]
            detail["lax_child_run_peak_rss_mb"] = run["run_peak_rss_mb"]
        else:
            run = run_cli_workload(workload, seeds, seconds, trace, env, tmp)
            peak_rss = max(j["rss_mb"] for j in run["jobs"])
        control = negative_control(control_seed, env, tmp)
        jobs = run["jobs"]
        failed = [j for j in jobs if j["outcome"] == "fail"]
        checks = sum(j["checks"] for j in jobs)
        job_times = [j["wall_s"] for j in jobs]
        detail.update({
            "job_s.samples": len(job_times),
            "degenerate_jobs": run["degenerate"],
            "degenerate_resamples": run["resamples"],
            "fail_ratio": len(failed) / len(jobs),
            "failures": [{k: j.get(k) for k in ("kind", "seed", "reason")}
                         for j in failed],
            "checks": checks, "phase_s": run["phase_s"],
            "negative_control": control, "loadavg_after": os.getloadavg(),
        })
        if trace:
            layer, unused = tracer.aggregate(run["span_paths"])
            layer.update({"trace.job_s": sum(job_times),
                          "trace.checks_per_s": checks / sum(job_times),
                          "lax.degenerate_resamples": run["resamples"],
                          "cli.degenerate_jobs": run["degenerate"]})
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in tracer.PER_LAYER_UNITS.items()}
            detail["unused_entry_points"] = unused
        else:
            values = {"setup_s": setup_s + prep_s,
                      "checks_per_s": checks / run["phase_s"],
                      "job_s.p50": statistics.median(job_times),
                      "peak_rss_mb": peak_rss}
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
        correct = not failed and control["caught"] and checks > 0
        return {"detail": detail, "result": {
            "correct": correct, "attempted": len(jobs), "failed": len(failed),
            "metrics": metrics}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass


def print_table(out: dict) -> None:
    d, r = out["detail"], out["result"]
    print(f"== {d['workload']} seed={d['seed']} seconds={d['seconds']} "
          f"trace={d['trace']}: {r['attempted']} jobs, {r['failed']} failed, "
          f"{d['degenerate_jobs']} degenerate, {d['checks']} checks, "
          f"control {'caught' if d['negative_control']['caught'] else 'NOT CAUGHT'}")
    for name, m in r["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def _terminate(signum, frame):
    # unwind through run_child and run_workload so the running child is
    # killed and reaped and the temporary directory is removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "skewpoly" / "__init__.py").is_file():
        print(f"no skewpoly sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = []
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(out)
        print(json.dumps(out["detail"]))
        outs.append(out)
    if len(outs) == 1:
        result = outs[0]["result"]
    else:
        result = {"correct": all(o["result"]["correct"] for o in outs),
                  "attempted": sum(o["result"]["attempted"] for o in outs),
                  "failed": sum(o["result"]["failed"] for o in outs),
                  "metrics": {f"{o['detail']['workload']}/{k}": v for o in outs
                              for k, v in o["result"]["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
