"""The public surface of pcol: its exported names and its keyword options,
counted over the AST.

A keyword option is a parameter with a default of a public function or of a
method (``__init__`` included) of a public class, in any module of pcol.
"""
import ast
import inspect
from pathlib import Path

import pcol
from pcol.core import materialize_guard

SRC = Path(pcol.__file__).parent


def public_signatures(body, prefix):
    """(qualified name, ast.arguments) of every public function and method in body."""
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from public_signatures(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef) and (
                not node.name.startswith("_") or node.name == "__init__"):
            yield f"{prefix}{node.name}", node.args


def keyword_options(signatures):
    out = []
    for name, a in signatures:
        positional = a.posonlyargs + a.args
        with_default = positional[len(positional) - len(a.defaults):] if a.defaults else []
        with_default += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out += [f"{name}:{p.arg}" for p in with_default]
    return out


def package_signatures():
    for path in sorted(SRC.glob("*.py")):
        yield from public_signatures(ast.parse(path.read_text(encoding="utf-8")).body,
                                     f"{path.stem}.")


def test_keyword_option_rule():
    tree = ast.parse(
        "def f(a, b=1, /, c=2, *, d, e=3): pass\n"
        "def _g(x=1): pass\n"
        "class _Hidden:\n    def h(self, x=1): pass\n"
        "class Shown:\n"
        "    def __init__(self, y=0): pass\n"
        "    def _i(self, z=1): pass\n"
        "    def j(self, *, w=None): pass\n")
    assert keyword_options(public_signatures(tree.body, "m.")) == [
        "m.f:b", "m.f:c", "m.f:e", "m.Shown.__init__:y", "m.Shown.j:w"]


def test_public_keyword_options_do_not_rise():
    options = keyword_options(package_signatures())
    assert len(options) <= 9, options


def test_the_guard_is_no_parameter():
    # The materialization guard is one setting, read from the environment.
    taking = [name for name, a in package_signatures()
              if "guard" in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]]
    assert taking == []
    assert not inspect.signature(materialize_guard).parameters


def test_all_is_what_the_package_imports():
    # A public name removed from only one of the import list and __all__
    # fails here.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert len(pcol.__all__) == len(set(pcol.__all__))
    assert set(pcol.__all__) == set(imported)
    assert all(hasattr(pcol, name) for name in pcol.__all__)
