import ast
from pathlib import Path

import mixedelast

PACKAGE = Path(mixedelast.__file__).resolve().parent


def _private(name: str) -> bool:
    """Whether a dotted name reaches into a private part of scipy."""
    head, *rest = name.split(".")
    return head == "scipy" and any(part.startswith("_") for part in rest)


def _scipy_names(tree: ast.AST):
    """Every dotted scipy name a module reaches: its imports, the attributes
    read through the names it binds to scipy modules, and string constants
    such as an importlib.import_module argument."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            head, _, rest = ast.unparse(node).partition(".")
            if head in aliases:
                yield f"{aliases[head]}.{rest}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_package_uses_no_private_scipy_module():
    # only scipy's public API: a private module such as
    # scipy.sparse._sparsetools would tie the package to scipy's internals
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _scipy_names(ast.parse(path.read_text())) if _private(name)]
    assert [path.name for path in PACKAGE.glob("*.py")]
    assert not found


def test_private_scipy_guard_catches_each_form():
    for code in ("import scipy.sparse._sparsetools",
                 "from scipy.sparse import _sparsetools",
                 "from scipy.sparse._sparsetools import csr_sort_indices",
                 "import scipy.sparse as sps\nsps._sparsetools.csr_sort_indices",
                 "import importlib\nimportlib.import_module('scipy.sparse._sparsetools')"):
        assert any(_private(name) for name in _scipy_names(ast.parse(code))), code
    assert not any(_private(name) for name in _scipy_names(ast.parse(
        "import scipy.sparse as sps\nfrom scipy.sparse.linalg import splu\nsps.csr_matrix")))


_DTYPE_TESTS = {"iscomplexobj", "isrealobj"}


def _referenced(node: ast.AST):
    """The name a node refers to, if it is an attribute, a name or an
    imported name, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name
    return None


def _scopes(tree: ast.AST, names: set, scope: str = ""):
    """The scope (dotted function and class names) of every reference to one
    of ``names`` in a module, by any alias: an attribute, a name or an
    imported name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scopes(node, names, f"{scope}.{node.name}".lstrip("."))
            continue
        if _referenced(node) in names:
            yield scope
        yield from _scopes(node, names, scope)


def _package_scopes(names: set) -> set:
    """The scopes, by module, of every reference to ``names`` in the package."""
    return {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
            for scope in _scopes(ast.parse(path.read_text()), names)}


def test_one_function_branches_on_a_complex_vector():
    # a real operator meets a complex vector through assembly._by_parts only,
    # so that no second copy of the part-by-part product comes back
    assert _package_scopes(_DTYPE_TESTS) == {"assembly._by_parts"}
    assert list(_scopes(ast.parse(
        "from numpy import isrealobj\nclass A:\n    def f(self, x):\n"
        "        return np.iscomplexobj(x)"), _DTYPE_TESTS)) == ["", "A.f"]


def test_one_function_orders_and_factors():
    # statics.factorize is the package's one sparse LU and picks its order:
    # no other module orders the unknowns for it, with an LU of its own
    assert _package_scopes({"splu"}) == {"statics.factorize"}
    assert list(_scopes(ast.parse(
        "from scipy.sparse.linalg import splu\nimport scipy.sparse.linalg as spla\n"
        "def f(A):\n    return spla.splu(A)"), {"splu"})) == ["", "f"]


def _unreferenced(modules: dict) -> set:
    """The public top-level functions and classes, as module.name, of the
    parsed ``modules`` (stem -> tree) that no module but __init__ references
    by a name, an attribute or an imported name."""
    used = {_referenced(node) for stem, tree in modules.items() if stem != "__init__"
            for node in ast.walk(tree)}
    return {f"{stem}.{node.name}" for stem, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used}


def test_package_calls_its_public_api():
    # no public API that the package never uses: a public function or class
    # that only __init__ exports belongs in the tests' oracles
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(modules) > 1 and not _unreferenced(modules)
    snippet = {"__init__": "from .a import C, f, g, h", "a": "def f():\n    return g\n"
               "def g(): pass\ndef h(): pass\ndef _i(): pass\nclass C: pass\nclass D: pass",
               "b": "from . import a\nfrom .a import D as E\na.C"}
    trees = {stem: ast.parse(code) for stem, code in snippet.items()}
    assert _unreferenced(trees) == {"a.f", "a.h"}


def _unused_imports(tree: ast.AST) -> set:
    """The names a module's imports bind that it never reads, as a name or
    as the head of an attribute; a __future__ import binds none."""
    bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    bound |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module != "__future__"
              for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_uses_what_it_imports():
    # an import that no line reads is left over from a change; __init__
    # imports to export, so it is not checked
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(modules) > 1
    assert not {f"{stem}.{name}" for stem, tree in modules.items() if stem != "__init__"
                for name in _unused_imports(tree)}
    snippet = ("from __future__ import annotations\nfrom functools import partial\n"
               "import numpy as np\nimport scipy.sparse\nimport scipy.linalg as sla\n"
               "from .a import b as c, d\n"
               "def f(x: d) -> None:\n    return np.zeros(1), scipy.sparse.eye(2)")
    assert _unused_imports(ast.parse(snippet)) == {"partial", "sla", "c"}
