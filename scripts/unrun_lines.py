#!/usr/bin/env python3
"""Lines of lrlab's function bodies that the Tier-1 suite never executes.

The script runs the Tier-1 suite in this process under a ``sys.settrace``
hook (``threading.settrace`` too, for the thread pools) that records every
line executed in ``src/lrlab``.  It then walks each function of the package
with ``ast`` and prints the first line of each statement of its body that
never ran, then the total in lines and in statements:

    python3 scripts/unrun_lines.py

Run it from anywhere; it finds the checkout from its own path.  A statement
counts as run when a line event fired on any of its lines (for a compound
statement, on its header: ``if``/``while`` from the keyword to the colon,
``for`` and ``with`` likewise); a docstring, a ``pass`` and the headers of
``try``/``else``/``finally`` give no line event and are not counted.  A
nested function is counted as a function of its own.  Code reached only in
a subprocess is not seen.  The hook traces lrlab's frames alone, so it
costs the suite little (about 21 s against 18 s on a 2-vCPU VM).  The
script exits 0 when the suite passed and 1 otherwise, whatever the count;
it is not part of Tier-1.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lrlab"
# statements that fire no line event of their own
_NO_LINE_EVENT = (ast.Pass, ast.Try, ast.Global, ast.Nonlocal)


def body_statements(tree: ast.AST):
    """(first, last) line spans of the statements in every function body of
    the tree that a line event marks as run."""
    spans = []

    def visit_body(stmts):
        for i, node in enumerate(stmts):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(node)
                continue
            if isinstance(node, ast.ClassDef):
                visit_class(node)
                continue
            docstring = (
                i == 0
                and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            )
            if docstring or isinstance(node, _NO_LINE_EVENT):
                pass
            elif isinstance(node, (ast.If, ast.While, ast.For, ast.With)):
                header_end = max(node.lineno, node.body[0].lineno - 1)
                spans.append((node.lineno, header_end))
            else:
                spans.append((node.lineno, node.end_lineno))
            for name in ("body", "orelse", "finalbody"):
                visit_body(getattr(node, name, []))
            for handler in getattr(node, "handlers", []):
                visit_body(handler.body)

    def visit_function(node):
        visit_body(node.body)

    def visit_class(node):
        # a class body's own statements run at import, so only its methods
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(item)
            elif isinstance(item, ast.ClassDef):
                visit_class(item)

    visit_class(tree)
    return sorted(spans)


def main() -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines = statements = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        ran = executed.get(str(path), set())
        for first, last in body_statements(ast.parse("\n".join(source))):
            if ran.isdisjoint(range(first, last + 1)):
                statements += 1
                lines += last - first + 1
                rel = path.relative_to(ROOT)
                print(f"{rel}:{first}: {source[first - 1].strip()}")
    print(f"never-run function-body lines: {lines} ({statements} statements)")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
