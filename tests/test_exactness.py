"""Exact arithmetic in the package: no float outside the entropy display.

Every module of src/ffzeta is parsed with ``ast`` and searched for float
constants, ``float(...)`` calls and calls of ``math.log*``, ``math.sqrt``
and ``math.exp`` (also when imported by name from math).  The only site
allowed one is ``dynamics.Entropy.value``, which shows E * log q.  True
division is not scanned: the ``Fraction`` code in newton and zeta uses
``/`` on exact values.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ffzeta"
ALLOWED = {("dynamics.py", "Entropy.value")}
FLOAT_MATH = ("log", "sqrt", "exp")


def _is_float_math(name: str) -> bool:
    return name.startswith("log") or name in FLOAT_MATH


class _FloatFinder(ast.NodeVisitor):
    """(line, enclosing qualified name, what) for every float site."""

    def __init__(self):
        self.scope = []
        self.from_math = set()
        self.found = []

    def _report(self, node, what):
        self.found.append((node.lineno, ".".join(self.scope), what))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_ImportFrom(self, node):
        if node.module == "math":
            for alias in node.names:
                if _is_float_math(alias.name):
                    self.from_math.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, (float, complex)):
            self._report(node, f"float constant {node.value!r}")

    def visit_Call(self, node):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "float":
            self._report(node, "float() call")
        elif isinstance(fn, ast.Name) and fn.id in self.from_math:
            self._report(node, f"math {fn.id}() call")
        elif (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "math"
            and _is_float_math(fn.attr)
        ):
            self._report(node, f"math.{fn.attr}() call")
        self.generic_visit(node)


def float_sites(path: Path):
    finder = _FloatFinder()
    finder.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return finder.found


def test_no_float_outside_entropy_display():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    bad, allowed_seen = [], set()
    for path in paths:
        for line, scope, what in float_sites(path):
            if (path.name, scope) in ALLOWED:
                allowed_seen.add((path.name, scope))
            else:
                bad.append(f"{path.name}:{line} in {scope or '<module>'}: {what}")
    assert bad == []
    assert allowed_seen == ALLOWED


def test_finder_sees_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import math\n"
        "from math import log2 as lg\n"
        "X = 64 * 2**1.5\n"
        "def f(a):\n"
        "    return float(a) + math.log(a) + lg(a) + math.sqrt(a)\n"
        "class C:\n"
        "    def g(self, a):\n"
        "        return math.isqrt(a) + a // 2 + math.exp(a)\n"
    )
    assert [(line, scope) for line, scope, _ in float_sites(path)] == [
        (3, ""),
        (5, "f"),
        (5, "f"),
        (5, "f"),
        (5, "f"),
        (8, "C.g"),
    ]
