"""Reports on the standard set stay byte-identical.

Each run is one in-process ``verify`` with ``--out``.  Its digest is the
SHA-256 of the case's argv (with an ``--in`` placeholder, not the saved
path), the report's ``constraint``, the exit code, ``total``,
``resample_attempts`` and the sorted (identity, equation, params, status,
residual) rows, so a change that moves any residual, status, degenerate
message, entry count or resampling seed fails here, and two cases whose
entries all pass on the same grid still record different digests.  A
change that means to alter a report records the new digest and says why in
``CHANGES.md``.
"""

import hashlib
import importlib
import json
from fractions import Fraction

import pytest

from skewpoly import cli, moments
from skewpoly.families import ReadPlan

STANDARD_SET = {
    **{f"{kind}-n2": ["--kind", kind, "--seed", "3", "--n-max", "2", "--m-max", "1"]
       for kind in ("none", "laurent", "rank2", "rank1skew", "rank1skew-multi",
                    "rank1skew-complex")},
    "rank2-seed6": ["--kind", "rank2", "--seed", "6"],
    "rank1skew-corrupt-mu": ["--kind", "rank1skew", "--seed", "3",
                             "--corrupt", "mu:2,3"],
    **{f"{kind}-n7-orth": ["--kind", kind, "--seed", "3", "--n-max", "7",
                           "--identities", "ORTHOGONALITY,TRANSFORMS"]
       for kind in ("none", "rank1skew-multi")},
    "rank1skew-complex-n7-orth": ["--kind", "rank1skew-complex", "--seed", "3",
                                  "--n-max", "7", "--identities",
                                  "ORTHOGONALITY,TRANSFORMS"],
    "rank1skew-complex-n3-orth": ["--kind", "rank1skew-complex", "--seed", "3",
                                  "--n-max", "3", "--identities", "ORTHOGONALITY"],
    **{f"{kind}-n3": ["--kind", kind, "--seed", "3", "--n-max", "3"]
       for kind in ("none", "rank2", "rank1skew")},
    "rank1skew-complex-n3": ["--kind", "rank1skew-complex", "--seed", "3",
                             "--n-max", "3"],
    # the full catalog at scale, where jet-valued members dominate
    **{f"{kind}-n7": ["--kind", kind, "--seed", "3", "--n-max", "7", "--m-max", "1"]
       for kind in ("none", "rank2", "rank1skew")},
    # systems through a file: a placeholder from SAVED is replaced by the
    # saved system
    **{f"{name}-in": ["--in", name, "--seed", "3", "--n-max", "2", "--m-max", "1"]
       for name in ("none-den3", "rank1skew-complex-den3", "none-degenerate")},
    "none-den3-n5-orth-in": ["--in", "none-den3-n5", "--seed", "3", "--n-max", "5",
                             "--m-max", "1", "--identities", "ORTHOGONALITY,TRANSFORMS"],
}


def den3(kind, n_max=2, **kw):
    """A system of ``kind`` with denominators up to 3, sized for --n-max
    ``n_max`` --m-max 1, whose tau grid gen keeps nonzero."""
    reads = ReadPlan.of(n_max, 1)
    return moments.gen(kind, reads.max_index, seed=3, den_bound=3,
                       require_tau=reads.tau_grid, **kw)


def degenerate():
    """A system sized for --n-max 2 --m-max 1 with mu_{0,1} = tau_2^{(0)} = 0:
    its m = 0 chains stall at their first link, so members and Miwa nodes
    past it fall back, and the entries dividing by it are degenerate."""
    sys_ = moments.gen("none", ReadPlan.of(2, 1).max_index, seed=3)
    return sys_.replace(mu={**sys_.mu, (0, 1): Fraction(0)})


# the systems of the --in cases, by placeholder
SAVED = {"none-den3": lambda: den3("none"),
         "rank1skew-complex-den3": lambda: den3("rank1skew-complex", components=2),
         "none-degenerate": degenerate,
         "none-den3-n5": lambda: den3("none", n_max=5)}

DIGESTS = {
    "laurent-n2": "7f04a11164a1bf2eef67b5a8d593f4ea728b1d1595b17bcdd67fd974d0d7004d",
    "none-degenerate-in": "10ec66b154fb81bddd8d4a49dc0679782efac9a82805ec332d5df56eeedbe11c",
    "none-den3-in": "acd9129f9b12ce5910e70c46f678aef47fbca7ce4edc7fe43835052517bab9fe",
    "none-den3-n5-orth-in": "edc54d44a004969111c8663e85c594e7dab86e651e7b5216089df75cc22783a9",
    "none-n2": "b0e22a6b40f5ad001368bb0d42f30c6836b964b410e621aa021dddd811414ba7",
    "none-n3": "220185c0c3255e04c24b16ba0de18806b424d27d680fb699acbb6b65fee2eb11",
    "none-n7": "c3daa1095dbbbebd61932d5cf8ea6d8a5fbf95baf26f25bc479dd815dddef6e3",
    "none-n7-orth": "b047009591298a2e732c0a3e3a307947111baa8a4e937a812593c06c3dd4c662",
    "rank1skew-complex-den3-in": "7cd198581e4007901c9d33816bbceeea4abaa53cdda0f929019b05d5159398a3",
    "rank1skew-complex-n2": "f33de010cf9f7601fd4647dc57edfb8d3582869e27ac9ae7fd227e9ff60d795a",
    "rank1skew-complex-n3": "56e940c34c6dfdcaa1b906cda24e18932c7d29d0e695f52047fd597f3cfb5c82",
    "rank1skew-complex-n3-orth": "b0c1c601567f52e477e40291b028edb49e32bce89c8c4f8426b1f24824670aa3",
    "rank1skew-complex-n7-orth": "9192324c564ea9353dfbb0f7c8f8f64644858347bbc130395f77559b8a762071",
    "rank1skew-corrupt-mu": "65210438a6682c28fee95550e88153583a9ddfcf4e1cd9d0a00bcff502ca9383",
    "rank1skew-multi-n2": "de8efb2d971737a727517a388c4593ff0d25dcc1aa050bfd310d529cf210c53d",
    "rank1skew-multi-n7-orth": "9bf69af712538f9bbc57e2d32113d9cc6338bcae703987adcc7863713f923586",
    "rank1skew-n2": "0e1914d1854c7266b431c835f19ce553097fef1714ad549660ceeff94ea0a83c",
    "rank1skew-n3": "c1b07efc7a112e84796ec471695454b5aefc7ac44c6a2709cbb769e91c5242c5",
    "rank1skew-n7": "3ae0ef10a64bbb3b81e4f4f9a33ce3fee79a16371c25d6fc62e0a181c7141478",
    "rank2-n2": "e59c9b355f0807838c9b8f581d4f3d5573386da64c5be1a59716fa4f28c4468e",
    "rank2-n3": "d168f0f901199eeacfdbc0584960d6b18eef9ee8d2e467142fcb4609a19fa09f",
    "rank2-n7": "e6f3509ec262034a0e5505a93ea0502444bf505979f94a80c84db870b9c1ebd6",
    "rank2-seed6": "35776c012a09bc6d822e4d466f5cba46867241c0d9d1bffd93dbe77a0899a11b",
}


def saved_system(name, path) -> str:
    """The system of placeholder ``name``, saved to ``path``."""
    moments.save(SAVED[name](), path)
    return str(path)


def report_digest(argv, out, run_argv=None) -> str:
    """The digest of ``verify`` on ``run_argv`` (default ``argv``), hashing
    ``argv``."""
    code = cli.main(["verify", *(run_argv or argv), "--out", str(out)])
    report = json.loads(out.read_text())
    rows = sorted(json.dumps([e["identity"], e["equation"], e["params"], e["status"],
                              e["residual_max_abs_or_zero"]], sort_keys=True)
                  for e in report["entries"])
    blob = json.dumps([argv, report["constraint"], code, report["total"],
                       report["resample_attempts"], rows])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(STANDARD_SET))
def test_standard_set_reports_unchanged(name, tmp_path, monkeypatch):
    """The digest holds, and no value is expanded and no entry read through
    the system's entry rules: the expansion ``_pf_expand`` and the entry
    readers ``MomentSystem.entry_scalar``/``entry_jet`` and ``lift_to_jet``
    are the tests' oracle only; every engine path reads the moment kernel."""
    # the package attribute skewpoly.pfaffian is the function, not the module
    pf = importlib.import_module("skewpoly.pfaffian")
    called = []

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args):
            called.append(attr)
            return fn(*args)
        monkeypatch.setattr(owner, attr, wrapper)

    argv = run_argv = STANDARD_SET[name]
    if argv[0] == "--in":
        run_argv = ["--in", saved_system(argv[1], tmp_path / "system.json"), *argv[2:]]
    for owner, attr in ((pf, "_pf_expand"), (moments.MomentSystem, "entry_scalar"),
                        (moments.MomentSystem, "entry_jet"), (moments, "lift_to_jet")):
        counted(owner, attr)
    assert report_digest(argv, tmp_path / "report.json", run_argv) == DIGESTS[name]
    assert not called, (len(called), called[:3])
