"""Command-line contract: round trips, exit codes, fault injection."""

import collections
import gc
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import skewpoly
from skewpoly import bilinear, cli, moments
from skewpoly import files as moment_files
from skewpoly.families import ReadPlan, TauTable, taus
from skewpoly.jets import Jet, JetSpec
from skewpoly.oracle import pf_labels
from skewpoly.scalars import GaussianRational, parse_scalar


def run(argv):
    """cli.main's exit code, argparse's own exits (an unknown flag) included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_gen_writes_valid_system(tmp_path):
    out = tmp_path / "sys.json"
    code = run(["gen", "--kind", "rank1skew", "--n-max", "3", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    sys_ = moment_files.load(out)
    assert sys_.constraint == "rank1skew"
    assert moments.validate(sys_).all_zero


def test_gen_laurent_structure(tmp_path):
    out = tmp_path / "sys.json"
    assert run(["gen", "--kind", "laurent", "--n-max", "2", "--seed", "1",
                "--out", str(out)]) == 0
    sys_ = moment_files.load(out)
    for gap in range(1, 5):
        assert sys_.mu_entry(3, 3 + gap) == sys_.mu_entry(0, gap)


def test_gen_load_verify_round_trip_bit_exact(tmp_path, capsys):
    out = tmp_path / "sys.json"
    rep_file = tmp_path / "rep_file.json"
    rep_mem = tmp_path / "rep_mem.json"
    assert run(["gen", "--kind", "rank2", "--n-max", "2", "--seed", "3",
                "--out", str(out)]) == 0
    assert run(["verify", "--in", str(out), "--n-max", "1", "--m-max", "1",
                "--seed", "3", "--out", str(rep_file)]) == 0
    assert run(["verify", "--kind", "rank2", "--n-max", "1", "--m-max", "1",
                "--seed", "3", "--out", str(rep_mem)]) == 0
    a = json.loads(rep_file.read_text())
    b = json.loads(rep_mem.read_text())
    # the generated max_index differs (gen sizes for its own n-max) but every
    # identity evaluation must agree entry for entry
    assert a["entries"] == b["entries"]
    assert a["failures"] == 0


def test_verify_report_schema(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["verify", "--kind", "laurent", "--n-max", "1", "--m-max", "0",
                "--seed", "5", "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["total"] == len(data["entries"]) > 0
    for entry in data["entries"]:
        for field in ("identity", "equation", "params", "status",
                      "residual_max_abs_or_zero", "seed"):
            assert field in entry
        assert entry["status"] in ("pass", "fail")


def test_fault_injection_names_failing_identity(tmp_path):
    rep = tmp_path / "rep.json"
    code = run(["verify", "--kind", "rank1skew", "--n-max", "2", "--m-max", "1",
                "--seed", "7", "--corrupt", "mu:2,3", "--out", str(rep)])
    assert code == 1
    data = json.loads(rep.read_text())
    failing = [e for e in data["entries"] if e["status"] == "fail"]
    assert failing
    assert any(e["identity"].startswith(("EVOD", "MKDV", "C3_SUITE")) for e in failing)
    # every failing entry carries its largest residual, not a placeholder
    assert all(Fraction(e["residual_max_abs_or_zero"]) > 0 for e in failing)


@pytest.mark.parametrize("kind, total, failing", [
    ("rank1skew", 169, {"C3_SUITE": 13, "EVOD": 2}),
    ("rank1skew-complex", 228, {"VNLS": 6})])
def test_fault_injection_in_a_beta_row(tmp_path, kind, total, failing):
    rep = tmp_path / "rep.json"
    assert run(["verify", "--kind", kind, "--seed", "3", "--corrupt", "beta:1,4",
                "--out", str(rep)]) == 1
    data = json.loads(rep.read_text())
    bad = [e for e in data["entries"] if e["status"] == "fail"]
    assert data["total"] == total
    assert collections.Counter(e["identity"].split(".")[0] for e in bad) == failing
    # real residuals report their largest size; Gaussian ones, which have no
    # order, their first nonzero value
    sizes = [parse_scalar(e["residual_max_abs_or_zero"]) for e in bad]
    if kind == "rank1skew":
        assert all(x > 0 for x in sizes)
    else:
        assert all(isinstance(x, GaussianRational) and x.im for x in sizes)
        assert bad[0]["residual_max_abs_or_zero"] == "-1447+1479i"


def test_degenerate_instances_reported_alone(tmp_path):
    # this seed has a vanishing jet pivot in the three operator blocks only
    rep = tmp_path / "rep.json"
    code = run(["verify", "--kind", "rank2", "--seed", "6", "--n-max", "2",
                "--m-max", "1", "--out", str(rep)])
    assert code == 1
    data = json.loads(rep.read_text())
    statuses = [e["status"] for e in data["entries"]]
    assert data["total"] == len(statuses) == 187
    assert statuses.count("pass") == 184
    assert {e["identity"] for e in data["entries"] if e["status"] != "pass"} == {
        "LAX_RANK2_M", "LAX_RANK2_N", "LAX_MIXED"}
    assert set(statuses) == {"pass", "degenerate"}


def test_zero_beta_row_reports_degenerate_entries(tmp_path, capsys):
    # every odd tau vanishes, so the odd taus come from elimination past a
    # stalled chain; they must be values of their ring, never a bare int
    s = moments.gen("none", 15, seed=3).replace(beta=((Fraction(0),) * 16,))
    t = taus(s)
    assert t.tau(3, 0) == 0 and type(t.tau(3, 0)) is Fraction
    assert isinstance(t.tau_jet(3, 0, JetSpec(1)), Jet)
    assert pf_labels([], s) == 1 and type(pf_labels([], s)) is Fraction
    path, rep = tmp_path / "sys.json", tmp_path / "rep.json"
    moment_files.save(s, path)
    assert run(["verify", "--in", str(path), "--n-max", "2", "--m-max", "1",
                "--out", str(rep)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    data = json.loads(rep.read_text())
    statuses = collections.Counter(e["status"] for e in data["entries"])
    assert data["total"] == 137 and statuses == {"pass": 109, "degenerate": 28}


def test_every_reported_name_selects_exactly_its_entries():
    seen = set()
    for kind in ("laurent", "rank2", "rank1skew", "rank1skew-multi",
                 "rank1skew-complex"):
        comps = 2 if kind in ("rank1skew-multi", "rank1skew-complex") else 1
        sys_ = moments.gen(kind, ReadPlan.of(1, 0).max_index, components=comps,
                           seed=3, require_tau=(3, 1))
        full = cli.run_verification(sys_, 1, 0)
        assert all(e["status"] == "pass" for e in full)
        names = {e["identity"].split(".")[0] for e in full}
        for name in names:
            picked = cli.run_verification(sys_, 1, 0, selected=name)
            assert picked == [e for e in full if e["identity"].split(".")[0] == name]
        seen |= names
    assert seen == set(bilinear.IDENTITIES)


def test_identity_selection_single_entry(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["verify", "--kind", "none", "--seed", "2", "--n-max", "2",
                "--m-max", "1", "--identities", "PFAFF_FIRST",
                "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert {e["identity"] for e in data["entries"]} == {"PFAFF_FIRST"}


def test_config_errors_exit_two(tmp_path, capsys):
    assert run(["verify", "--kind", "rank2", "--components", "2"]) == 2
    assert run(["verify", "--kind", "bogus"]) == 2
    assert run(["verify", "--kind", "random"]) == 2  # no undocumented alias of none
    assert run(["verify", "--kind", "none", "--identities", "NOT_A_THING"]) == 2
    # a selection naming nothing, and a flag given twice, are rejected
    assert run(["verify", "--identities", ","]) == 2
    assert run(["verify", "--identities", ""]) == 2
    assert run(["verify", "--kind", "rank1skew", "--corrupt", "mu:2,3",
                "--corrupt", "mu:0,1"]) == 2
    assert run(["verify", "--n-max", "1", "--n-max", "0"]) == 2
    assert run(["verify", "--kind", "none", "--mode", "float"]) == 2
    assert run(["verify", "--kind", "none", "--corrupt", "mu:bad"]) == 2
    assert run(["simulate", "--window", "nope"]) == 2
    assert run(["simulate", "--dt", "-1"]) == 2
    assert run(["simulate", "--window", "1:2"]) == 2
    assert run(["simulate", "--window", "0:3"]) == 2
    assert run(["simulate", "--dt", "0.5", "--t-end", "1"]) == 2
    assert run(["simulate", "--dt", "0.01", "--t-end", "0.001"]) == 2
    # non-finite steps and tolerances, and a negative tolerance
    for flag, value in (("--dt", "nan"), ("--dt", "inf"), ("--t-end", "nan"),
                        ("--t-end", "inf"), ("--tolerance", "nan"),
                        ("--tolerance", "inf"), ("--tolerance", "-1")):
        assert run(["simulate", flag, value]) == 2, (flag, value)
    assert run(["gen", "--kind", "none", "--components", "0",
                "--out", str(tmp_path / "none.json")]) == 2
    assert run(["verify", "--kind", "rank1skew-multi", "--components", "0"]) == 2
    # an unwritable output path is rejected before any work runs
    missing = tmp_path / "missing"
    assert run(["gen", "--out", str(missing / "x.json")]) == 2
    assert run(["verify", "--kind", "none", "--n-max", "3",
                "--out", str(missing / "r.json")]) == 2
    small = ["verify", "--kind", "rank1skew-multi", "--seed", "3", "--n-max", "1",
             "--m-max", "0", "--identities", "TRANSFORMS"]
    for corrupt in ("mu:3,2", "mu:2,99", "beta:5,3", "beta:0,3"):
        assert run(small + ["--corrupt", corrupt]) == 2
    assert run(small + ["--n-max", "-1"]) == 2
    assert run(small + ["--m-max", "-1"]) == 2
    # loaded files: one input check, and data that must satisfy its own tag
    good = tmp_path / "good.json"
    assert run(["gen", "--kind", "rank1skew", "--seed", "3", "--n-max", "1",
                "--m-max", "0", "--out", str(good)]) == 0
    load = ["verify", "--n-max", "1", "--m-max", "0", "--identities", "TRANSFORMS",
            "--in"]
    assert run(load + [str(good)]) == 0
    # the file fixes the system: generator flags next to --in are rejected
    for flag in (["--kind", "laurent"], ["--components", "5"], ["--mode", "exact"]):
        assert run(load[:-1] + flag + ["--in", str(good)]) == 2, flag
    base = json.loads(good.read_text())
    edits = [lambda d: d["mu"].append([3, 2, "1"]),
             lambda d: d["mu"].append([2, 99, "1"]),
             lambda d: d["mu"].append(list(d["mu"][0])),
             lambda d: d.update(beta=d["beta"][:-3]),
             lambda d: d["beta"].append([1, 999, "1"]),
             lambda d: d["beta"].append(list(d["beta"][0])),
             lambda d: d.update(mode="banana"),
             lambda d: d.update(mode="float"),
             lambda d: d["mu"][1].__setitem__(2, str(Fraction(d["mu"][1][2]) + 1)),
             # Gaussian scalars in an exact-mode file, even a real one
             lambda d: d["mu"][1].__setitem__(2, "1+2i"),
             lambda d: d["mu"][1].__setitem__(2, d["mu"][1][2] + "+0i"),
             # JSON numbers where strings belong, and inexact or boolean
             # integers, which int() would truncate
             lambda d: d["mu"][1].__setitem__(2, 0.25),
             lambda d: d["mu"][1].__setitem__(2, -5),
             lambda d: d["beta"][1].__setitem__(2, 3),
             lambda d: d["mu"][0].__setitem__(1, d["mu"][0][1] + 0.5),
             lambda d: d.update(max_index=d["max_index"] + 0.7),
             lambda d: d["beta"][0].__setitem__(0, True),
             # a zero denominator, which Fraction itself rejects
             lambda d: d["mu"][1].__setitem__(2, "1/0"),
             lambda d: d["beta"][1].__setitem__(2, "1/0")]
    for t, edit in enumerate(edits):
        data = json.loads(json.dumps(base))
        edit(data)
        bad = tmp_path / f"bad{t}.json"
        bad.write_text(json.dumps(data))
        assert run(load + [str(bad)]) == 2, t
    # input that would be dropped, overwritten or read as zero: an unknown
    # key, a repeated key (the last value would win) and a missing mu pair
    text = json.dumps(base)
    assert base["mu"][0][:2] == [0, 1]
    for t, (bad_text, message) in enumerate([
            (json.dumps({**base, "bogus": 1}), "unknown key 'bogus'"),
            (text.replace('"mode": ', '"mode": "exact", "mode": ', 1), "repeated key 'mode'"),
            (text.replace('"constraint": ', '"constraint": "none", "constraint": ', 1),
             "repeated key 'constraint'"),
            (json.dumps({**base, "mu": base["mu"][1:]}), "missing mu triples, first (0, 1)")]):
        bad = tmp_path / f"dropped{t}.json"
        bad.write_text(bad_text)
        capsys.readouterr()
        assert run(load + [str(bad)]) == 2, t
        assert message in capsys.readouterr().err, t
    # conjugate rows that do not match the tag: rank1skew-complex takes one
    # per component, every other tag none
    cut = {}
    for kind in ("rank1skew-complex", "none"):
        path = tmp_path / f"{kind}.json"
        assert run(["gen", "--kind", kind, "--seed", "3", "--n-max", "1",
                    "--m-max", "0", "--out", str(path)]) == 0
        cut[kind] = json.loads(path.read_text())
    cplx, none = cut["rank1skew-complex"], cut["none"]
    one_row = [r for r in cplx["beta_bar"] if r[0] == 1]
    for t, data in enumerate([{k: v for k, v in cplx.items() if k != "beta_bar"},
                              {**cplx, "beta_bar": one_row},
                              {**none, "beta_bar": none["beta"]}]):
        bad = tmp_path / f"conj{t}.json"
        bad.write_text(json.dumps(data))
        assert run(load + [str(bad)]) == 2, t
    # a file generated for --n-max 1 is too short for --n-max 3
    short = ["verify", "--n-max", "3", "--m-max", "0", "--in", str(good)]
    assert run(short) == 2
    (tmp_path / "not.json").write_text("{not json")
    assert run(load + [str(tmp_path / "not.json")]) == 2
    assert run(load + [str(tmp_path / "missing.json")]) == 2


def test_verify_names_what_a_file_lacks(tmp_path, capsys):
    """A file without ``max_index``, with a short mu or beta triple, with a
    number for the mu list, or holding a list, exits 2 with a message that
    names the field, not a raw Python error."""
    good = tmp_path / "good.json"
    assert run(["gen", "--kind", "none", "--seed", "3", "--n-max", "1", "--m-max", "0",
                "--out", str(good)]) == 0
    base = json.loads(good.read_text())
    assert base["mu"][0][:2] == [0, 1] and base["beta"][0][:2] == [1, 0]
    for t, (data, message) in enumerate([
            ({k: v for k, v in base.items() if k != "max_index"},
             "missing key 'max_index'"),
            ({**base, "mu": [base["mu"][0][:2], *base["mu"][1:]]},
             "mu entry [0, 1] is not a triple"),
            ({**base, "beta": [base["beta"][0][:2], *base["beta"][1:]]},
             "beta entry [1, 0] is not a triple"),
            ({**base, "mu": 5}, "mu 5 is not a list of triples"),
            ([base], "the file holds a JSON list, not an object")]):
        bad = tmp_path / f"lacks{t}.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "--in", str(bad), "--n-max", "1", "--m-max", "0"]) == 2, t
        assert capsys.readouterr().err == (f"config error: cannot load {bad}: "
                                           f"ValueError: {message}\n"), t


def _structural_mutations(base: dict) -> dict:
    """Named structural mutations of a ``gen`` file: each key dropped; each
    triple list emptied, truncated or extended (a row and a triple); wrong
    types for each key; negative, huge and float indices; null, list, 1/0,
    bool and zero values; and the mode and constraint swapped."""
    def edited(**changes):
        data = json.loads(json.dumps(base))
        data.update(changes)
        return data

    out = {f"drop {key}": {k: v for k, v in base.items() if k != key} for key in base}
    for key in ("mu", "beta", "beta_bar"):
        if key not in base:
            continue
        rows = base[key]
        out[f"{key} emptied"] = edited(**{key: []})
        out[f"{key} truncated"] = edited(**{key: rows[:-1]})
        out[f"{key} extended"] = edited(**{key: rows + [[rows[-1][0], rows[-1][1] + 1, "1"]]})
        out[f"{key} triple truncated"] = edited(**{key: [rows[0][:2], *rows[1:]]})
        out[f"{key} triple extended"] = edited(**{key: [rows[0] + ["1"], *rows[1:]]})
        for where, index in (("first", 0), ("second", 1)):
            for label, value in (("negative", -1), ("huge", 10 ** 9), ("float", 1.5)):
                row = list(rows[0])
                row[index] = value
                out[f"{key} {label} {where} index"] = edited(**{key: [row, *rows[1:]]})
        for label, value in (("null", None), ("list", []), ("1/0", "1/0"), ("bool", True),
                             ("zero", "0")):
            row = list(rows[0])
            row[2] = value
            out[f"{key} {label} value"] = edited(**{key: [row, *rows[1:]]})
    for key in base:
        for label, value in (("null", None), ("list", []), ("bool", True), ("text", "x"),
                             ("number", 1.5), ("object", {})):
            out[f"{key} {label}"] = edited(**{key: value})
    for label, value in (("negative", -1), ("huge", 10 ** 9)):
        out[f"max_index {label}"] = edited(max_index=value)
    out["mode and constraint swapped"] = edited(mode=base["constraint"],
                                                constraint=base["mode"])
    return out


def test_malformed_files_never_escape_the_exit_contract(tmp_path):
    """Each structural mutation of a ``gen`` file for none, rank2 and
    rank1skew-complex, run through ``verify --in``, exits 0, 1 or 2 with no
    exception escaping ``cli.main``; an exit 1 writes a report whose failing
    entries name an identity (a zero mu_{0,1}, free under both tags, or
    beta_0 on kind none: their degenerate entries).  A file that loses its ``constraint`` or ``mode``
    verifies as ``none`` / ``exact`` (README), so a rank2 file without its
    tag runs no constraint identity and exits 0; no other mutation does."""
    catalog = set(bilinear.IDENTITIES)
    outcomes, passed, failed = collections.Counter(), set(), set()
    for kind in ("none", "rank2", "rank1skew-complex"):
        path = tmp_path / f"{kind}.json"
        assert run(["gen", "--kind", kind, "--seed", "3", "--n-max", "1", "--m-max", "0",
                    "--out", str(path)]) == 0
        for name, data in _structural_mutations(json.loads(path.read_text())).items():
            bad, report = tmp_path / "bad.json", tmp_path / "report.json"
            bad.write_text(json.dumps(data))
            report.unlink(missing_ok=True)
            code = cli.main(["verify", "--in", str(bad), "--n-max", "1", "--m-max", "0",
                             "--out", str(report)])
            assert code in (0, 1, 2), (kind, name, code)
            outcomes[code] += 1
            if code == 1:
                failed.add((kind, name))
                failing = [e for e in json.loads(report.read_text())["entries"]
                           if e["status"] != "pass"]
                assert failing and all(e["identity"].split(".")[0] in catalog
                                       for e in failing), (kind, name)
            if code == 0 and name == "drop constraint":
                assert json.loads(report.read_text())["constraint"] == "none", kind
            if code == 0:
                passed.add((kind, name))
    assert passed == {(kind, f"drop {key}") for kind in ("none", "rank2")
                      for key in ("constraint", "mode")}, sorted(passed)
    assert failed == {("none", "mu zero value"), ("none", "beta zero value"),
                      ("rank2", "mu zero value")}, sorted(failed)
    assert outcomes[2] > 200, outcomes


def test_stembridge_reads_the_systems_own_toeplitz_pfaffian(tmp_path):
    """STEMBRIDGE takes its Pfaffian as the system's tau_{2n}^(0), so a
    laurent system whose mu_{1,3} is corrupted (no longer Toeplitz) fails it
    at n = 2, the first tau that reads that entry; n = 1 still passes."""
    rep = tmp_path / "rep.json"
    assert run(["verify", "--kind", "laurent", "--seed", "3", "--n-max", "2",
                "--m-max", "1", "--corrupt", "mu:1,3", "--identities", "STEMBRIDGE",
                "--out", str(rep)]) == 1
    entries = json.loads(rep.read_text())["entries"]
    assert {e["params"]["n"]: e["status"] for e in entries} == {1: "pass", 2: "fail"}


@pytest.mark.parametrize("kind", ["none", "laurent", "rank2", "rank1skew",
                                  "rank1skew-multi", "rank1skew-complex"])
def test_verify_rejects_a_file_without_beta(kind, tmp_path, capsys):
    """Every identity reads the single-moment row of component 1, so a
    gen-written file with its beta key removed exits 2 with a message."""
    path = tmp_path / "system.json"
    assert run(["gen", "--kind", kind, "--seed", "3", "--n-max", "1", "--m-max", "0",
                "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    del data["beta"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", "--in", str(path), "--n-max", "1", "--m-max", "0"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot load {path}")


def test_non_string_tags_are_rejected_by_name(tmp_path, capsys):
    """A ``mode`` or ``constraint`` that is no string is a config error that
    names the field, not an unhashable-type error from the mode lookup."""
    good = tmp_path / "good.json"
    assert run(["gen", "--kind", "none", "--seed", "3", "--n-max", "1", "--m-max", "0",
                "--out", str(good)]) == 0
    for field, value in (("mode", []), ("mode", {}), ("constraint", ["none"]),
                         ("mode", 1)):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(good.read_text()), field: value}))
        capsys.readouterr()
        assert run(["verify", "--in", str(bad), "--n-max", "1", "--m-max", "0"]) == 2
        err = capsys.readouterr().err
        assert f"ValueError: {field} must be a string" in err, (field, err)


def test_smallest_grid_runs_every_suite(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["verify", "--kind", "none", "--n-max", "0", "--m-max", "0",
                "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert "LAX_MIXED" in {e["identity"] for e in data["entries"]}


def test_n_max_four_runs_every_entry(tmp_path):
    rep = tmp_path / "rep.json"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    subprocess.run([sys.executable, "-m", "skewpoly", "verify", "--kind", "rank2",
                    "--seed", "3", "--n-max", "4", "--m-max", "0", "--out", str(rep)],
                   env=env, check=True)
    entries = json.loads(rep.read_text())["entries"]
    assert entries and all(e["status"] == "pass" for e in entries)


def test_selected_identity_requires_matching_tag():
    assert run(["verify", "--kind", "none", "--identities", "LV",
                "--n-max", "1"]) == 2
    # applies to every tag but has no instance on a one-component system
    assert run(["verify", "--kind", "rank1skew", "--identities", "PSOP_CT_MULTI",
                "--n-max", "1"]) == 2


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    subprocess.run([sys.executable, "-c",
                    "import sys, skewpoly.cli; assert 'numpy' not in sys.modules"],
                   env=env, check=True)


def test_import_leaves_dataclasses_and_inspect_out():
    """A fresh interpreter imports the package and its CLI without the
    ``dataclasses`` machinery (``inspect``, ``ast``, ``dis``, ``tokenize``),
    which every verify run would otherwise compile and load."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    subprocess.run([sys.executable, "-c",
                    "import sys, skewpoly, skewpoly.cli; "
                    "assert not {'dataclasses', 'inspect'} & set(sys.modules), "
                    "sorted({'dataclasses', 'inspect'} & set(sys.modules))"],
                   env=env, check=True)


def _lax_imported(flags, tmp_path) -> bool:
    """Whether ``python -m skewpoly verify`` with ``flags`` imports
    ``skewpoly.lax``, read off the interpreter's own import log."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "skewpoly", "verify",
                           "--kind", "none", "--seed", "3", "--n-max", "1", "--m-max", "0",
                           *flags, "--out", str(tmp_path / "rep.json")],
                          env=env, capture_output=True, text=True, check=True)
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "skewpoly.bilinear" in imported, done.stderr[-500:]
    return "skewpoly.lax" in imported


def test_lax_is_compiled_only_for_the_suites_that_use_it(tmp_path):
    """The catalog's lax-backed evaluators import ``skewpoly.lax`` when they
    run: a verify of the ORTHOGONALITY and TRANSFORMS suites never loads it,
    the default selection (MIXED, LAX_MIXED, ...) does."""
    assert not _lax_imported(["--identities", "ORTHOGONALITY,TRANSFORMS"], tmp_path)
    assert _lax_imported([], tmp_path)


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    """``cli.run`` (``python -m skewpoly``, the installed script) freezes the
    import-time heap before it runs ``main``; ``main`` in process leaves the
    caller's heap unfrozen."""
    argv = ["verify", "--kind", "none", "--seed", "3", "--n-max", "0", "--m-max", "0",
            "--identities", "TRANSFORMS", "--out", str(tmp_path / "rep.json")]
    frozen = gc.get_freeze_count()
    assert run(argv) == 0 and gc.get_freeze_count() == frozen
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    done = subprocess.run([sys.executable, "-c",
                           "import gc, sys; from skewpoly import cli; "
                           "assert not gc.get_freeze_count(); "
                           f"code = cli.run({argv!r}); print(code, gc.get_freeze_count())"],
                          env=env, capture_output=True, text=True, check=True)
    code, count = done.stdout.split()[-2:]
    assert code == "0" and int(count) > 0, done.stdout
    main_py = (Path(cli.__file__).parent / "__main__.py").read_text()
    assert "run()" in main_py and "main()" not in main_py


def test_records_keep_value_semantics():
    """The value classes construct positionally or by keyword with their
    defaults, compare and hash by value, refuse assignment, and ``replace``
    re-runs the constructor's checks; a moment system equals only itself."""
    from skewpoly.bilinear import IDENTITIES
    from skewpoly.christoffel import PsopCoeffs, SopCoeffs
    from skewpoly.moments import MomentSystem, ValidationReport
    from skewpoly.solitons import SolitonSpec
    assert JetSpec(2) == JetSpec(weight=2) and hash(JetSpec(2)) == hash(JetSpec(2))
    assert JetSpec(1) != JetSpec(2) and JetSpec(0).zero == (0,)
    assert SopCoeffs(1, 2, 3, 4) == SopCoeffs(1, 2, 3, d=4) != SopCoeffs(1, 2, 3, 5)
    assert len({PsopCoeffs(1, 2), PsopCoeffs(1, 2), PsopCoeffs(2, 1)}) == 2
    spec = SolitonSpec((1.5, 0.5), ((0, 1, 1.0),))
    assert spec.d_amps == () and spec == SolitonSpec((1.5, 0.5), pair_amps=((0, 1, 1.0),))
    assert ValidationReport("none") == ValidationReport("none", 0, [])
    assert IDENTITIES["LV"].group is None and IDENTITIES["LV"].parts == ()
    s = moments.gen("none", 4, seed=1)
    assert s == s and s != s.replace() and s.replace().mu == s.mu
    for obj, field in ((JetSpec(1), "weight"), (spec, "nodes"), (s, "mu")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    for bad in (lambda: JetSpec(-1), lambda: s.replace(constraint="bogus"),
                lambda: SolitonSpec((1.0, 1.0)),
                lambda: MomentSystem(4, {(2, 1): Fraction(1)})):
        with pytest.raises(ValueError):
            bad()
    for bad in (lambda: JetSpec(), lambda: SopCoeffs(1, 2, 3, 4, 5),
                lambda: PsopCoeffs(1, 2, xi=3)):
        with pytest.raises(TypeError):
            bad()


def test_simulate_contract(tmp_path, capsys):
    prefix = tmp_path / "traj"
    code = run(["simulate", "--dt", "0.004", "--t-end", "0.2",
                "--window", "1:4", "--out", str(prefix)])
    captured = capsys.readouterr()
    assert code == 0
    assert "max_dev" in captured.out and "PASS" in captured.out
    assert "convergence order" in captured.out
    tau_lines = (tmp_path / "traj_tau.csv").read_text().splitlines()
    rk4_lines = (tmp_path / "traj_rk4.csv").read_text().splitlines()
    assert tau_lines[0] == rk4_lines[0] == "t,site,B,C"
    assert len(tau_lines) == len(rk4_lines) == 1 + 4 * 51


def test_report_file_parses_back_to_the_report(monkeypatch, tmp_path):
    """verify writes its report header on the first line and one entry a
    line, and the file parses back to the report itself."""
    write, reports = cli._write_report, []
    monkeypatch.setattr(cli, "_write_report",
                        lambda report, path: reports.append(report) or write(report, path))
    out = tmp_path / "rep.json"
    assert run(["verify", "--kind", "rank2", "--seed", "3", "--n-max", "1",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == reports[0]
    assert len(out.read_text().splitlines()) == reports[0]["total"] + 2
    write({"total": 0, "entries": []}, out)
    assert json.loads(out.read_text()) == {"total": 0, "entries": []}


@pytest.mark.parametrize("flags, message", [
    (["--t-end", "5", "--dt", "0.25"], "ArithmeticError: non-finite state"),
    (["--t-end", "20", "--dt", "0.01"], "OverflowError"),
    (["--dt", "1e-300", "--t-end", "1e-299"], "convergence order undefined"),
], ids=["non-finite", "overflow", "zero-error"])
def test_simulate_failures_exit_one(flags, message, tmp_path, capsys):
    """A run that breaks down numerically, or whose errors leave no observed
    order, exits 1 with one line on stderr, not a traceback."""
    assert run(["simulate", *flags, "--out", str(tmp_path / "traj")]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1, err


def test_simulate_without_numpy_exits_two(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "skewpoly.dynamics", raising=False)
    monkeypatch.delattr(skewpoly, "dynamics", raising=False)
    assert run(["simulate"]) == 2
    assert "simulate needs numpy" in capsys.readouterr().err


def test_console_entry_point_help():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"])


def test_n_max_seven_transforms_pass(tmp_path):
    rep = tmp_path / "rep.json"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    subprocess.run([sys.executable, "-m", "skewpoly", "verify", "--kind",
                    "rank1skew-multi", "--seed", "3", "--n-max", "7", "--m-max", "1",
                    "--identities", "ORTHOGONALITY,TRANSFORMS", "--out", str(rep)],
                   env=env, check=True)
    entries = json.loads(rep.read_text())["entries"]
    assert len(entries) == 148 and all(e["status"] == "pass" for e in entries)


KINDS = ["none", "laurent", "rank2", "rank1skew", "rank1skew-multi",
         "rank1skew-complex"]


def test_verify_eliminates_scalars_only(monkeypatch, tmp_path):
    """A verify run of a generated seed pivots on no jet outside the
    first-order member chains (``pf_chain(..., jets=True)``), expands no tau
    jet of weight 2 and never expands a row list: its tau jets come off the
    scalar chains' pivot rows and its Miwa layers are scalar row lists.
    Jets pivot only inside first-order chains and, past a stall no generated
    seed reaches, their blocks (``_pf_rows``)."""
    pf, oracle = (importlib.import_module(f"skewpoly.{name}") for name in ("pfaffian", "oracle"))
    stages, pf_labels, expand = pf._stages, oracle.pf_labels, oracle.pfaffian_expand
    pf_chain = pf.pf_chain
    seen = {"jet pivots": 0, "weight-2 pf_labels": 0, "pfaffian_expand": 0}
    in_jets = []

    def counted_stages(a, swaps):
        for p, odd in stages(a, swaps):
            seen["jet pivots"] += isinstance(p, Jet) and not any(in_jets)
            yield p, odd

    def flagged_chain(labels, kernel, **kwargs):
        in_jets.append(kwargs.get("jets", False))
        try:
            return pf_chain(labels, kernel, **kwargs)
        finally:
            in_jets.pop()

    def counted_pf_labels(labels, sys, *, cache=None, jet_spec=None):
        seen["weight-2 pf_labels"] += jet_spec is not None and jet_spec.weight >= 2
        return pf_labels(labels, sys, cache=cache, jet_spec=jet_spec)

    def counted_expand(rows):
        seen["pfaffian_expand"] += 1
        return expand(rows)

    monkeypatch.setattr(pf, "_stages", counted_stages)
    for name, orig, wrapper in (("pf_labels", pf_labels, counted_pf_labels),
                                ("pfaffian_expand", expand, counted_expand),
                                ("pf_chain", pf_chain, flagged_chain)):
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("skewpoly") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, wrapper)
    for kind in KINDS:
        assert run(["verify", "--kind", kind, "--n-max", "1",
                    "--out", str(tmp_path / f"{kind}.json")]) == 0, kind
        assert seen == dict.fromkeys(seen, 0), (kind, seen)


def test_verify_expands_no_jet_valued_pfaffian(monkeypatch, tmp_path):
    """Jet-valued members come off one first-order chain per (system, label
    head), built once per run, every weight-1 coefficient off the tau
    chains, and the scalar C2 borders of rank2 are eliminated: a verify run
    never reaches the expansion ``_pf_expand``, in any ring."""
    pf, oracle = (importlib.import_module(f"skewpoly.{name}") for name in ("pfaffian", "oracle"))
    expand, pf_chain = oracle._pf_expand, pf.pf_chain
    expanded, built = [], []

    def counted_expand(labels, entry, cache):
        expanded.append(labels)
        return expand(labels, entry, cache)

    def counted_chain(labels, kernel, **kwargs):
        labels = list(labels)
        if kwargs.get("jets"):
            built.append((kernel, tuple(labels[:2])))
        return pf_chain(labels, kernel, **kwargs)

    monkeypatch.setattr(oracle, "_pf_expand", counted_expand)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("skewpoly") and getattr(mod, "pf_chain", None) is pf_chain:
            monkeypatch.setattr(mod, "pf_chain", counted_chain)
    for kind in KINDS:
        built.clear()
        assert run(["verify", "--kind", kind, "--n-max", "3", "--m-max", "1",
                    "--seed", "3", "--out", str(tmp_path / "rep.json")]) == 0, kind
        assert not expanded, (kind, len(expanded), expanded[:3])
        assert built and max(collections.Counter(built).values()) == 1, kind


def counted_chains(monkeypatch) -> list:
    """Every scalar ``pf_chain`` build from now on, as (moment kernel,
    labels); a kernel belongs to one system's table, and the list holds it,
    so no id is reused."""
    fam = importlib.import_module("skewpoly.families")
    chain, built = fam.pf_chain, []

    def counted_chain(labels, kernel, **kwargs):
        labels = list(labels)
        if not kwargs.get("jets"):
            built.append((kernel, labels))
        return chain(labels, kernel, **kwargs)

    monkeypatch.setattr(fam, "pf_chain", counted_chain)
    return built


def chain_reads(monkeypatch) -> tuple:
    """Every first-order ``pf_chain`` build (``jets=True``) from now on, as
    (moment kernel, labels), the largest last label each read outside a
    ``build_chains`` sweep asks of a chain, by (kernel, jets, first two
    labels), and every system ``run_verification`` is given."""
    fam = importlib.import_module("skewpoly.families")
    pf_chain, chain, sweep = fam.pf_chain, TauTable._chain, TauTable.build_chains
    jet_built, reads, verified, sweeping = [], {}, [], []

    def counted_jets(labels, kernel, **kwargs):
        labels = list(labels)
        if kwargs.get("jets"):
            jet_built.append((kernel, labels))
        return pf_chain(labels, kernel, **kwargs)

    def read_chain(self, m, head, last, jets=False):
        out = chain(self, m, head, last, jets)
        if not sweeping:
            key = (self.kernel(), jets, (*head, m, m + 1)[:2])
            reads[key] = max(reads.get(key, last), last)
        return out

    def swept(self, n_max, m):
        sweeping.append(m)
        try:
            return sweep(self, n_max, m)
        finally:
            sweeping.pop()

    def captured(sys_, *args, **kwargs):
        verified.append(sys_)
        return run_verification(sys_, *args, **kwargs)

    run_verification = cli.run_verification
    monkeypatch.setattr(fam, "pf_chain", counted_jets)
    monkeypatch.setattr(TauTable, "_chain", read_chain)
    monkeypatch.setattr(TauTable, "build_chains", swept)
    monkeypatch.setattr(cli, "run_verification", captured)
    return jet_built, reads, verified


def test_verify_builds_each_tau_chain_once(monkeypatch, tmp_path):
    """Every verify path builds each tau chain, spectral column included,
    once: gen's nonzero-tau scan builds a generated system's chains on its
    own table, and verify sweeps the same grid before any identity reads, so
    a loaded or a corrupted system's chains are built once too, and every
    sweep covers the operator blocks' reads.  No (system, label head) chain
    is built twice.

    The read plan (``ReadPlan``) sizes each chain to what the run reads: on
    the accepted system of every kind at --n-max 1-3 and --m-max 0-1, every
    scalar chain ends at the last label a read asked of it (the operator
    blocks' floor is swept only where a block runs), no jet chain more than
    3 labels past it (one is first built through ``miwa_top`` - 1 at every
    shift), and at --m-max 0 no shift-2 chain is built: an operator block
    compares one shift-1 matrix and reads no shift-2 tau.  No run reads an
    entry through the system's entry rules (``entry_scalar``, ``entry_jet``,
    ``lift_to_jet``: the oracle's path), only through the moment kernel."""
    files = {}
    for kind in ("none", "rank1skew-complex"):
        files[kind] = str(tmp_path / f"{kind}.json")
        assert run(["gen", "--kind", kind, "--seed", "3", "--n-max", "2",
                    "--m-max", "1", "--out", files[kind]]) == 0
    # tau_2^{(0)} = mu_{0,1} = 0 stalls the m = 0 chains at their first link
    stalled = moments.gen("none", ReadPlan.of(2, 1).max_index, seed=3)
    files["degenerate"] = str(tmp_path / "degenerate.json")
    moment_files.save(stalled.replace(mu={**stalled.mu, (0, 1): Fraction(0)}),
                 files["degenerate"])
    n2 = ["--n-max", "2", "--m-max", "1"]
    runs = [(0, ["--kind", kind, *n2]) for kind in KINDS]
    # at --n-max 1 the fixed-size operator blocks read past the (3, 2) grid
    runs += [(0, ["--kind", kind, "--seed", "3", "--n-max", "1", "--m-max", "1"])
             for kind in ("none", "laurent", "rank2", "rank1skew")]
    # at --m-max 0 the operator blocks read shifts 0 and 1, the plan's grid
    runs += [(0, ["--kind", kind, "--seed", "3", "--n-max", n, "--m-max", "0"])
             for kind in ("none", "laurent", "rank2", "rank1skew") for n in ("1", "2")]
    runs += [(0, ["--kind", kind, "--n-max", "7", "--identities",
                  "ORTHOGONALITY,TRANSFORMS"]) for kind in ("none", "rank1skew-multi")]
    runs += [(0, ["--in", files["none"], *n2]),
             (0, ["--in", files["rank1skew-complex"], *n2]),
             (1, ["--in", files["degenerate"], *n2]),
             (1, ["--kind", "rank1skew", "--seed", "3", "--corrupt", "mu:2,3", *n2])]
    built = counted_chains(monkeypatch)
    for code, flags in runs:
        built.clear()
        assert run(["verify", *flags, "--out", str(tmp_path / "rep.json")]) == code, flags
        heads = collections.Counter((kern, tuple(labels[:2])) for kern, labels in built)
        twice = [(head, n) for (_, head), n in heads.items() if n > 1]
        assert built and not twice, (flags, twice)
    jet_built, reads, verified = chain_reads(monkeypatch)
    entry_reads = []
    oracle = importlib.import_module("skewpoly.oracle")
    for owner, attr in ((oracle, "entry_scalar"), (moments.MomentSystem, "entry_jet"),
                        (oracle, "lift_to_jet")):
        monkeypatch.setattr(owner, attr, lambda *args, fn=getattr(owner, attr), name=attr:
                            entry_reads.append(name) or fn(*args))
    for kind in KINDS:
        for n_max in ("1", "2", "3"):
            for m_max in ("0", "1"):
                flags = ["--kind", kind, "--seed", "3", "--n-max", n_max, "--m-max", m_max]
                for log in (built, jet_built, reads, verified):
                    log.clear()
                assert run(["verify", *flags, "--out", str(tmp_path / "rep.json")]) == 0
                assert not entry_reads, (flags, entry_reads[:3])
                kern = taus(verified[0]).kernel()
                for jets, log, slack in ((False, built, 0), (True, jet_built, 3)):
                    ends = [(tuple(labels[:2]), labels[-1]) for k, labels in log
                            if k is kern]
                    heads = collections.Counter(head for head, _ in ends)
                    assert ends and max(heads.values()) == 1, (flags, jets, heads)
                    past = {head: last - reads[kern, jets, head] for head, last in ends}
                    assert max(past.values()) <= slack, (flags, jets, past)
                    shifts = {head[isinstance(head[0], tuple)] for head, _ in ends}
                    assert m_max == "1" or 2 not in shifts, (flags, jets, shifts)


def test_two_component_rank2_sweep_covers_its_operator_blocks(monkeypatch, tmp_path):
    """The rank2 operator blocks (LAX_RANK2_M, LAX_RANK2_N) run on a rank2
    system of any number of components, LAX_MIXED only on one component, and
    the sweep floors shifts 0 and 1 wherever a block runs
    (``ReadPlan.blocks``): on a two-component rank2 file every chain, each
    head once, is built once, where a sweep flooring only the LAX_MIXED
    systems built the four shift-0 and shift-1 tau chains twice."""
    src, two = tmp_path / "one.json", tmp_path / "two.json"
    assert run(["gen", "--kind", "rank2", "--seed", "3", "--n-max", "2", "--m-max", "1",
                "--out", str(src)]) == 0
    one = moment_files.load(str(src))
    moment_files.save(one.replace(beta=(*one.beta, one.beta[0])), str(two))
    built = counted_chains(monkeypatch)
    out = tmp_path / "rep.json"
    assert run(["verify", "--in", str(two), "--n-max", "1", "--m-max", "0",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    names = {entry["identity"] for entry in rep["entries"]}
    assert {"LAX_RANK2_M", "LAX_RANK2_N"} <= names and "LAX_MIXED" not in names
    heads = collections.Counter(tuple(labels[:2]) for _, labels in built)
    assert {(0, 1), (("comp", 1), 0), (1, 2), (("comp", 1), 1)} <= heads.keys()
    assert max(heads.values()) == 1, heads


def test_gen_draw_rejected_at_shift_zero_builds_only_its_chains(monkeypatch, tmp_path):
    """gen's scan builds each shift's chains just before it reads them, so a
    draw rejected at shift 0 builds its two shift-0 chains, not the six of
    the whole (3, 2) grid."""
    built = counted_chains(monkeypatch)
    out = tmp_path / "rep.json"
    assert run(["verify", "--kind", "none", "--seed", "3", "--n-max", "1",
                "--m-max", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["resample_attempts"] == 1
    rejected = built[0][0]
    heads = [labels[:2] for kern, labels in built if kern is rejected]
    assert heads == [[0, 1], [("comp", 1), 0]]


def test_draw_rejected_at_a_single_entry_tau_builds_nothing(monkeypatch, tmp_path):
    """gen's scan reads tau_1^{(m)} = beta^{(k)}_m and tau_2^{(m)} =
    mu_{m,m+1} off the system, every shift, before it builds the moment
    kernel or a chain: the first draws of rank2 seed 1 (tau_2 = 0) and of
    rank1skew-multi seed 2 (a zero beta entry of component 2) are rejected
    there, so each run converts one kernel, the accepted draw's, and builds
    every chain on it."""
    fam = importlib.import_module("skewpoly.families")
    kernel, kernels = fam.MomentKernel, []

    def counted_kernel(sys_):
        kernels.append(kernel(sys_))
        return kernels[-1]
    monkeypatch.setattr(fam, "MomentKernel", counted_kernel)
    built = counted_chains(monkeypatch)
    out = tmp_path / "rep.json"
    for kind, seed in (("rank2", "1"), ("rank1skew-multi", "2")):
        kernels.clear()
        built.clear()
        assert run(["verify", "--kind", kind, "--seed", seed, "--n-max", "1",
                    "--m-max", "1", "--identities", "TRANSFORMS", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["resample_attempts"] == 1, kind
        assert len(kernels) == 1 and built, (kind, len(kernels))
        assert all(kern is kernels[0] for kern, _ in built), kind


def test_gen_scans_tau_existence_once(monkeypatch, tmp_path):
    """``skewpoly gen`` checks tau existence once, in gen's own scan on the
    (n_max + 2, m_max + 1) grid; ``validate`` checks the constraint only."""
    scan, grids = moments.vanishing_taus, []

    def counted_scan(sys_, n_max, m_max):
        grids.append((n_max, m_max))
        return scan(sys_, n_max, m_max)

    monkeypatch.setattr(moments, "vanishing_taus", counted_scan)
    assert run(["gen", "--kind", "none", "--seed", "3", "--n-max", "2", "--m-max", "1",
                "--out", str(tmp_path / "sys.json")]) == 0
    assert grids == [(4, 2)]


def test_verify_eliminates_each_miwa_node_once(monkeypatch, tmp_path):
    """Every Miwa chain, one per (m, k, conj, parity), is eliminated at most
    once per node z in a verify run (a stalled node's blocks are not a
    chain), and none holds more labels than the largest idx whose Schur
    layers the run reads, plus 2.  A chain's nodes are its eliminations
    (``pfaffian._eliminated``) in order, one per node z = 0..top."""
    pf = importlib.import_module("skewpoly.pfaffian")
    fam = importlib.import_module("skewpoly.families")
    eliminated, miwa_chain = pf._eliminated, fam.miwa_chain
    schur_init = bilinear.SchurTau.__init__
    nodes, sizes, read, building = collections.Counter(), [], [], []

    def counted_eliminated(a):
        if building:  # the next node z of the chain being built
            head, z = building[-1]
            nodes[head, z] += 1
            building[-1][1] += 1
        return eliminated(a)

    def counted_miwa_chain(labels, kernel, top):
        # the head of the labels names the chain's (m, k, conj, parity)
        building.append([tuple(labels[:2]), 0])
        try:
            out = miwa_chain(labels, kernel, top)
        finally:
            _, done = building.pop()
        assert done == top + 1, (labels[:2], done, top)
        sizes.append(len(labels))
        return out

    def counted_init(self, table, idx, *args, **kwargs):
        read.append(idx)
        schur_init(self, table, idx, *args, **kwargs)

    monkeypatch.setattr(pf, "_eliminated", counted_eliminated)
    monkeypatch.setattr(fam, "miwa_chain", counted_miwa_chain)
    monkeypatch.setattr(bilinear.SchurTau, "__init__", counted_init)
    for kind in KINDS:
        nodes.clear(), sizes.clear(), read.clear()
        assert run(["verify", "--kind", kind, "--n-max", "2", "--m-max", "1",
                    "--out", str(tmp_path / "rep.json")]) == 0, kind
        twice = [key for key, n in nodes.items() if n > 1]
        assert nodes and not twice, (kind, twice)
        assert max(sizes) <= max(read) + 2, (kind, max(sizes), max(read))


def test_transforms_and_orthogonality_read_cleared_members(monkeypatch, tmp_path):
    """The TRANSFORMS and ORTHOGONALITY identities read the chains' cleared
    members (integral coefficients over one denominator), never the public
    ``TauTable.sop`` or ``psop``, so they build no Fraction polynomial."""
    calls = collections.Counter()
    for name in ("sop", "psop"):
        def counted(self, *args, _name=name, _orig=getattr(TauTable, name), **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(TauTable, name, counted)
    for kind in ("none", "rank1skew-multi", "rank1skew-complex"):
        assert run(["verify", "--kind", kind, "--seed", "3", "--n-max", "3", "--m-max", "1",
                    "--identities", "ORTHOGONALITY,TRANSFORMS",
                    "--out", str(tmp_path / "rep.json")]) == 0, kind
        assert not calls, (kind, calls)


def test_orthogonality_runs_one_gram_per_instance(monkeypatch, tmp_path):
    """SOP_ORTHOGONALITY and PSOP_INNER each evaluate their bilinear forms
    as at most one Gram product per instance, and the catalog makes no
    per-pair skew_inner call."""
    fam = importlib.import_module("skewpoly.families")
    gram, inner = fam.skew_gram, fam.skew_inner
    seen = {"skew_gram": 0, "skew_inner": 0}

    def counted_gram(sys_, fs, gs):
        seen["skew_gram"] += 1
        return gram(sys_, fs, gs)

    def counted_inner(sys_, f, g):
        seen["skew_inner"] += 1
        return inner(sys_, f, g)

    for name, orig, wrapper in (("skew_gram", gram, counted_gram),
                                ("skew_inner", inner, counted_inner)):
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("skewpoly") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, wrapper)
    out = tmp_path / "rep.json"
    assert run(["verify", "--kind", "rank1skew-multi", "--n-max", "3",
                "--identities", "ORTHOGONALITY", "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["entries"]
    instances = sum(e["identity"] in ("SOP_ORTHOGONALITY", "PSOP_INNER")
                    for e in entries)
    assert instances and 0 < seen["skew_gram"] <= instances, (instances, seen)
    assert seen["skew_inner"] == 0
