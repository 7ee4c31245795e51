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
