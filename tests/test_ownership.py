"""One owner per decision: the jet coefficient format lives in ``jets``, the
tau table owns the sweep a catalog run needs, the Schur layers it sizes and
every chain the catalog reads, the read plan states which operator blocks
run, and one reader goes past a stalled elimination."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewpoly
from skewpoly.bilinear import IDENTITIES

SRC = Path(skewpoly.__file__).resolve().parent


def _coefficient_keys(tree) -> list:
    """Line numbers of tuples of int literals used as a dict key or a
    subscript: multi-indices of stored jet coefficients.  A dict of
    derivative orders handed to ``Jet.of_derivatives``, like the orders
    passed to ``extract`` or ``hirota_jets``, names derivatives, not
    coefficients, and is allowed."""
    def literal(node):
        return (isinstance(node, ast.Tuple) and node.elts
                and all(isinstance(e, ast.Constant) and type(e.value) is int
                        for e in node.elts))
    allowed = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "of_derivatives"
               for arg in node.args if isinstance(arg, ast.Dict)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and id(node) not in allowed:
            found += [k.lineno for k in node.keys if k is not None and literal(k)]
        elif isinstance(node, ast.Subscript) and literal(node.slice):
            found.append(node.lineno)
    return found


def test_only_jets_knows_the_coefficient_format():
    """No module but ``jets`` builds a jet from its coefficient dict
    (``Jet._of``), reads a coefficient by multi-index (``.coeffs.get((``),
    or writes a multi-index key."""
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "jets.py":
            continue
        text = path.read_text()
        assert "Jet._of(" not in text and ".coeffs.get((" not in text, path.name
        keys = _coefficient_keys(ast.parse(text))
        assert not keys, (path.name, keys)
        checked += 1
    assert checked >= 12
    # the guard sees the sites it forbids
    for bad in ("x = {(0,): 1, (1,): 2}", "y = jet.coeffs[(1, 0)]", "z = c[0, 1]"):
        assert _coefficient_keys(ast.parse(bad)), bad
    assert not _coefficient_keys(ast.parse("Jet.of_derivatives(J2, {(0,): t, (0, 1): d})"))


def test_cli_runs_no_sweep():
    """``verify`` hands its read plan to the tau table (``TauTable.sweep``),
    which sets the Miwa top and sweeps the chains: the CLI only drives the
    catalog."""
    text = (SRC / "cli.py").read_text()
    assert "build_chains" not in text and "miwa_top" not in text


def _owners(tree, match) -> set:
    """The qualified names of the functions (innermost def, its enclosing
    classes and defs joined by dots, or ``<module>``) holding a node that
    ``match`` accepts."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            if match(child):
                found.add(owner)
            visit(child, owner)
    visit(tree, "<module>")
    return found


def _callers(tree, name: str) -> set:
    """The functions that call ``name``, by name or as an attribute."""
    def call(node):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return getattr(func, "id", getattr(func, "attr", None)) == name
    return _owners(tree, call)


def _imports_engine(tree) -> bool:
    """Whether a module imports ``pfaffian`` or any name from it."""
    def engine(name):
        return bool(name) and name.split(".")[-1] == "pfaffian"
    return any(engine(node.module) or any(engine(a.name) for a in node.names)
               if isinstance(node, ast.ImportFrom) else
               isinstance(node, ast.Import) and any(engine(a.name) for a in node.names)
               for node in ast.walk(tree))


def test_only_the_tau_table_and_the_moments_import_the_engine():
    """Every catalog Pfaffian comes off a chain the tau table owns (the rank2
    C2 borders too, ``TauTable.c2_border``), so of the program's modules
    only ``families`` and ``moments`` import from ``pfaffian``; ``lax``,
    ``bilinear``, ``hierarchy``, ``christoffel`` and ``cli`` import nothing
    from it (the package's ``__init__`` names its public names' modules, and
    the expansion oracle, no program module, runs its swapped elimination)."""
    importers = {path.name for path in sorted(SRC.glob("*.py"))
                 if _imports_engine(ast.parse(path.read_text()))}
    assert importers - {"oracle.py"} == {"families.py", "moments.py"}, importers
    # the guard sees the imports it forbids
    for bad in ("from .pfaffian import pf_chain", "from . import pfaffian",
                "import skewpoly.pfaffian as pf"):
        assert _imports_engine(ast.parse(bad)), bad
    assert not _imports_engine(ast.parse("from .families import taus"))


def _defines(tree, name: str) -> bool:
    """Whether a function or class named ``name`` is defined anywhere in it."""
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name == name for node in ast.walk(tree))


def test_one_swapped_elimination_for_every_ring():
    """The elimination with swaps (``_pf_rows``) takes scalars and
    ``JetSpec(1)`` jets alike, the jets as dual numbers: only the oracle's
    ``pfaffian`` and the blocks past a stall (``_pf_left``) call it; no Pfaffian is
    interpolated over scalar eliminations, so only the Schur layers
    (``TauTable.schur_layers``) call ``_interpolate``; and the first-order
    chains are ``pf_chain(..., jets=True)``, with no ``jet_chain`` wrapper."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

    def callers(name):
        return {(file, owner) for file, tree in trees.items() for owner in _callers(tree, name)}
    assert callers("_pf_rows") == {("oracle.py", "pfaffian"),
                                   ("pfaffian.py", "_pf_left")}, callers("_pf_rows")
    assert callers("_interpolate") == {("families.py", "TauTable.schur_layers")}, \
        callers("_interpolate")
    assert not [file for file, tree in trees.items() if _defines(tree, "jet_chain")]
    # the guard sees the definitions it forbids
    assert _defines(ast.parse("class A:\n    def jet_chain(self):\n        pass"), "jet_chain")
    assert not _defines(ast.parse("jet_chain = None"), "jet_chain")


def test_bilinear_imports_nothing_from_the_engine():
    """The Schur layers come from the tau table
    (``TauTable.schur_layers``), which sizes and keeps them, so ``bilinear``
    imports nothing from ``pfaffian``."""
    tree = ast.parse((SRC / "bilinear.py").read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
    assert "families" in imported
    assert not [m for m in imported if m and m.split(".")[-1] == "pfaffian"], imported
    text = (SRC / "bilinear.py").read_text()
    assert "miwa_top" not in text and "schur_layers[" not in text


def test_one_reader_goes_past_a_stall():
    """A stalled chain's later values are blocks of the rows it left
    (``_pf_left``), read by one reader (``_eliminated``) that ``pf_chain``
    and ``miwa_chain`` both run."""
    callers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _callers(ast.parse(path.read_text()), "_pf_left")}
    assert callers == {("pfaffian.py", "_eliminated.value")}, callers
    pfaffian = ast.parse((SRC / "pfaffian.py").read_text())
    assert {"pf_chain", "miwa_chain"} <= _callers(pfaffian, "_eliminated")
    # the guard names nested and class-held functions in full
    bad = ast.parse("class A:\n    def f(self):\n        def g():\n            h()\n")
    assert _callers(bad, "h") == {"A.f.g"}


def test_the_operator_block_rule_is_stated_once():
    """Which operator blocks run on which systems is written once, in
    ``ReadPlan.blocks``; the tau table's sweep (its floor at shifts 0 and
    1) and the one grid of the block identities read it."""
    def rule(node):  # ell == 1: a single-component system
        return (isinstance(node, ast.Compare) and getattr(node.left, "attr", None) == "ell"
                and [type(op) for op in node.ops] == [ast.Eq]
                and [getattr(c, "value", None) for c in node.comparators] == [1])
    owners = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
              for owner in _owners(ast.parse(path.read_text()), rule)}
    assert owners == {("families.py", "ReadPlan.blocks")}, owners
    readers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _callers(ast.parse(path.read_text()), "blocks")}
    assert readers == {("families.py", "TauTable.build_chains"),
                       ("bilinear.py", "_block_grid.grid")}, readers
    # no block identity restates the rule with constraint tags
    blocks = {name: ident.tags for name, ident in IDENTITIES.items()
              if getattr(ident.grid, "__qualname__", "").startswith("_block_grid.")}
    assert blocks == dict.fromkeys(("LAX_MIXED", "LAX_RANK2_M", "LAX_RANK2_N"), ()), blocks


def test_one_reading_per_tau():
    """Each tau's derivatives are read once, off its chain's ``tops``, into
    the kept record ``TauTable._logd`` that every tau jet and coefficient
    jet reads; all chains, first-order ones too, sit in one dict; and
    STEMBRIDGE takes its Pfaffian off the tau chain, so ``moments`` does not
    import the plain-matrix ``pfaffian``."""
    families = ast.parse((SRC / "families.py").read_text())
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(families)}
    assert not [name for name in ("_tops", "_jet_chains")
                if _defines(families, name) or name in names]
    readers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _owners(ast.parse(path.read_text()),
                                    lambda node: getattr(node, "id", None) == "tops")}
    assert readers == {("families.py", "TauTable._logd")}, readers
    imported = {a.name for node in ast.walk(ast.parse((SRC / "moments.py").read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "pfaffian" not in imported and "det_bareiss" in imported, imported


def test_bilinear_imports_lax_only_in_its_evaluators():
    """No import statement of a program module but ``lax`` itself names
    ``lax``: the catalog names the lax-backed evaluators by module (MIXED,
    C2_SUITE, C3_SUITE, the LAX_* blocks, TODA_VARS), and ``bilinear``
    imports an evaluator's module only through its one loader, ``_load``,
    when the entry first runs, so a run that selects none of them never
    compiles it."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "lax.py":
            names = {a.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
            assert "lax" not in names, path.name
    lax_backed = {name for name, ident in IDENTITIES.items()
                  if ident.evaluator.partition(".")[0] == "lax"}
    assert lax_backed == {"MIXED", "C2_SUITE", "C3_SUITE", "LAX_RANK2_M", "LAX_RANK2_N",
                          "LAX_MIXED", "TODA_VARS"}, lax_backed
    tree = ast.parse((SRC / "bilinear.py").read_text())
    assert _callers(tree, "__import__") == {"_load"}
    assert {a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level for a in node.names} == {"ReadPlan", "Record"}


# -- the import layers of a verify job ----------------------------------------

# python -m skewpoly on the argv given as JSON (or, with RUN replaced, any
# code), in a fresh interpreter; prints the exit code and, per loaded
# skewpoly module, its source lines
_PROBE = """\
import json, runpy, sys
code, sys.argv = 0, ['skewpoly', *json.loads(sys.argv[1])]
try:
    runpy.run_module('skewpoly', run_name='__main__', alter_sys=True)  # RUN
except SystemExit as exc:
    code = exc.code
lines = {name: sum(1 for _ in open(mod.__file__)) for name, mod in sys.modules.items()
         if name.partition('.')[0] == 'skewpoly'}
print(json.dumps([code, lines]))
"""
_OFF_THE_SCALAR_PATH = {"skewpoly.jets", "skewpoly.lax", "skewpoly.dynamics",
                        "skewpoly.oracle", "skewpoly.hierarchy", "skewpoly.solitons",
                        "skewpoly.files"}


def _probe(argv, run=None) -> tuple:
    """(exit code, {module: source lines}) of one probe, bytecode unwritten."""
    probe = _PROBE if run is None else _PROBE.replace(
        "runpy.run_module('skewpoly', run_name='__main__', alter_sys=True)  # RUN", run)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    code, lines = json.loads(done.stdout.splitlines()[-1])
    return code, lines


@pytest.mark.parametrize("kind", ["none", "rank1skew-multi"])
def test_a_scalar_verify_job_loads_only_the_scalar_core(kind, tmp_path):
    """``verify --identities ORTHOGONALITY,TRANSFORMS`` (the benchmark's
    scalar-n7 shape) loads none of the jets, the jet-valued evaluators, lax,
    the float lane, the file form or the oracle, and its ``skewpoly`` modules
    total at most 2,800 source lines."""
    code, lines = _probe(["verify", "--kind", kind, "--seed", "1", "--n-max", "7",
                          "--m-max", "1", "--identities", "ORTHOGONALITY,TRANSFORMS",
                          "--out", str(tmp_path / "rep.json")])
    assert code == 0
    assert not _OFF_THE_SCALAR_PATH & set(lines), sorted(_OFF_THE_SCALAR_PATH & set(lines))
    assert {"skewpoly.bilinear", "skewpoly.families", "skewpoly.pfaffian"} <= set(lines)
    assert sum(lines.values()) <= 2800, lines


def test_no_verify_loads_the_oracle(tmp_path):
    """A full verify of every kind runs without the expansion oracle: no
    program path reaches ``skewpoly.oracle``."""
    kinds = ["none", "laurent", "rank2", "rank1skew", "rank1skew-multi", "rank1skew-complex"]
    run = ("from skewpoly import cli\n"
           f"    code = max(cli.main(['verify', '--kind', kind, '--seed', '3', '--n-max', '1',"
           f" '--out', {str(tmp_path / 'rep.json')!r}]) for kind in {kinds!r})")
    code, lines = _probe([], run)
    assert code == 0 and "skewpoly.lax" in lines and "skewpoly.oracle" not in lines, lines


def _imports_oracle(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[-1] == "oracle"
                or any(a.name == "oracle" for a in node.names))
    return isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "oracle"
                                                for a in node.names)


def test_no_program_module_imports_the_oracle():
    """No module of ``src`` imports the oracle at module level, and the only
    function-level imports sit in the attribute hooks that keep its old
    names resolving where they lived (``pfaffian.pf_labels`` and
    ``pf_indexed``, ``moments.lift_to_jet``: the benchmark's tracer reads
    them there) and in ``MomentSystem.entry_jet``, the oracle's jet reader;
    :func:`test_no_verify_loads_the_oracle` shows that no run reaches them."""
    owners = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
              if path.name != "oracle.py"
              for owner in _owners(ast.parse(path.read_text()), _imports_oracle)}
    assert owners == {("pfaffian.py", "__getattr__"), ("moments.py", "__getattr__"),
                      ("moments.py", "MomentSystem.entry_jet")}, owners
    # the guard sees the imports it forbids
    for bad in ("from .oracle import pf_labels", "from . import oracle",
                "import skewpoly.oracle"):
        assert _owners(ast.parse(bad), _imports_oracle) == {"<module>"}, bad
