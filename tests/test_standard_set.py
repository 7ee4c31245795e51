"""Reports on the standard set stay byte-identical.

Each run is one in-process ``verify`` with ``--out``.  Its digest is the
SHA-256 of the exit code, ``total``, ``resample_attempts`` and the sorted
(identity, equation, params, status, residual) rows, so a change that moves
any residual, status, degenerate message, entry count or resampling seed
fails here.  A change that means to alter a report records the new digest
and says why in ``CHANGES.md``.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from skewpoly import bilinear, cli, moments

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
    return moments.gen(kind, bilinear.catalog_max_index(n_max, 1), seed=3, den_bound=3,
                       require_tau=(n_max + 2, 2), **kw)


def degenerate():
    """A system sized for --n-max 2 --m-max 1 with mu_{0,1} = tau_2^{(0)} = 0:
    its m = 0 chains stall at their first link, so members and Miwa nodes
    past it fall back, and the entries dividing by it are degenerate."""
    sys_ = moments.gen("none", bilinear.catalog_max_index(2, 1), seed=3)
    return sys_.replace(mu={**sys_.mu, (0, 1): Fraction(0)})


# the systems of the --in cases, by placeholder
SAVED = {"none-den3": lambda: den3("none"),
         "rank1skew-complex-den3": lambda: den3("rank1skew-complex", components=2),
         "none-degenerate": degenerate,
         "none-den3-n5": lambda: den3("none", n_max=5)}

DIGESTS = {
    "laurent-n2": "7c07c2efd97598d8f2568fe9de6602ba61e9ec4b6e77b29199fc0356f3483c77",
    "none-n2": "4a83be3cf53ac5df08e85a9d57028a2a0fdf4b89af3d69aec60e8d352b7ef44a",
    "none-n3": "31d912a6957398c99e815ea9e6cfa5b7d5f8a288e847b9cfeb39b671b8788f87",
    "none-degenerate-in": "9b3d0217c30ed89093574aa101559bbacba97cde45b9273ffd61e84c7685aa58",
    "none-den3-in": "6da833ea141aeab27ede3c8cb4dc512669bfdfcee0ab0d00a9e112400b7ca4e0",
    "none-den3-n5-orth-in": "23a5fcdc140589edf20f58be1672be7f58be274a276fb32bf3b7c9b684f1355a",
    "none-n7": "1094365d7422c18b76e5a7ba55345b63a0bf4062c2987dc8b51118e6a796d569",
    "none-n7-orth": "4868625d84310d6c0e867c8729164e8e683b0ee67dd42fac660e93f235f6219f",
    "rank1skew-complex-den3-in": "3647010bbea17829910bb77612e71f00059ae6a40f0478a60e6902836ff20ed5",
    "rank1skew-complex-n2": "600296c588000817203725a282ce11618cd076ab0f054f440f1caa1d2e4e0858",
    "rank1skew-complex-n3": "2575046aba0d5bbd8cc98b5e6893262125c5eb33ec8fb71ee9260d3df853719d",
    "rank1skew-complex-n7-orth": "37fda0b3566188e3ddc91e6ab342319744645c6c9a3f2d4cd08bc4f02e97d603",
    "rank1skew-complex-n3-orth": "e85732a80084fa718ab907a2901ea26ec659ea362784a9f24d330f80cc0ea406",
    "rank1skew-corrupt-mu": "b9d18c52b4e7e2c41cf0da1c73d66b7e68d6637ff57b1bdff0fa63cc1285bbb3",
    "rank1skew-multi-n2": "d7f4121bda627d0ca222b589499f95cdbcb5e420163f43462f39e1847aec7ad8",
    "rank1skew-multi-n7-orth": "37fda0b3566188e3ddc91e6ab342319744645c6c9a3f2d4cd08bc4f02e97d603",
    "rank1skew-n2": "9e0596a0d15cc87b89b51ee522a3919c4e39e33293c7d13574255fb7e287e9ea",
    "rank1skew-n7": "ab806330bbf1b08f7c22071a9185c8bad87c130468d3edd766f6cbfd93ccbb11",
    "rank1skew-n3": "193c105baa63c0fbd540113cfd6db3b2dbf0847d18fad093af25d2fda907976e",
    "rank2-n2": "273a6b769cd1bfc12abf89ddaef0b83e99625ca08a9d855492078299d18f16f9",
    "rank2-n3": "0ad8af632d6a9a7dcf258f902865901554ec82088969874fecd0f02380b0fa32",
    "rank2-n7": "ddecf58981dcd7b169b63769b53678b77e7e2eb18cac7ffa1618d29a1bc55f1b",
    "rank2-seed6": "3edfd515884024176c9c0017120c0aa6e03ccb0bafdffd1c5e59381effbe411b",
}


def saved_system(name, path) -> str:
    """The system of placeholder ``name``, saved to ``path``."""
    moments.save(SAVED[name](), path)
    return str(path)


def report_digest(argv, out) -> str:
    code = cli.main(["verify", *argv, "--out", str(out)])
    report = json.loads(out.read_text())
    rows = sorted(json.dumps([e["identity"], e["equation"], e["params"], e["status"],
                              e["residual_max_abs_or_zero"]], sort_keys=True)
                  for e in report["entries"])
    blob = json.dumps([code, report["total"], report["resample_attempts"], rows])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(STANDARD_SET))
def test_standard_set_reports_unchanged(name, tmp_path):
    argv = STANDARD_SET[name]
    if argv[0] == "--in":
        argv = ["--in", saved_system(argv[1], tmp_path / "system.json"), *argv[2:]]
    assert report_digest(argv, tmp_path / "report.json") == DIGESTS[name]
