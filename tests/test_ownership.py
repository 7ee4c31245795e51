"""One owner per decision: the jet coefficient format lives in ``jets``, and
the tau table owns the sweep a catalog run needs."""

import ast
from pathlib import Path

import skewpoly

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


def _callers(tree, name: str) -> set:
    """The functions (innermost def, or ``<module>``) that call ``name``,
    by name or as an attribute."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                found.add(owner)
            visit(child, owner)
    visit(tree, "<module>")
    return found


def test_families_eliminates_nothing_itself():
    """The tau table reads every link, top and member off its chains, so
    ``families`` neither imports nor calls ``pf_eliminate``."""
    families = ast.parse((SRC / "families.py").read_text())
    imported = {a.name for node in ast.walk(families) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "pf_eliminate" not in imported and not _callers(families, "pf_eliminate")


def test_swapped_elimination_sees_scalars_only():
    """The elimination with swaps (``_pf_kernel``) is called by
    ``pfaffian``'s one Pfaffian per ring (``_pf_rows``, which hands it
    scalars only) and by the scalar ``pf_eliminate``, from no other module."""
    callers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _callers(ast.parse(path.read_text()), "_pf_kernel")}
    assert callers == {("pfaffian.py", "_pf_rows"), ("pfaffian.py", "pf_eliminate")}, callers
    # the guard sees the calls it forbids
    bad = ast.parse("def f(a):\n    return pf._pf_kernel(a)\nx = _pf_kernel(b)")
    assert _callers(bad, "_pf_kernel") == {"f", "<module>"}
