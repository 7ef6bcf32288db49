"""Never-run statements: tier-1 must run every statement of ``src/`` that
``tests/unrun_statements.json`` does not list.

The script runs the tier-1 suite in this process under ``sys.settrace``
and records the lines of ``src/matroidcc`` that execute.  A statement
counts as run when a line of its header does: the whole of a simple
statement, or the lines of a compound one before its body.  Docstrings
and ``global`` or ``nonlocal`` declarations compile to no code, so they
are not statements here.  Each statement is keyed by its module, its
enclosing function (``<module>`` at the top level) and its source text
with runs of whitespace collapsed, not by line number, so that edits
elsewhere in a file do not move the keys.

It exits 1 if tier-1 fails, if a statement that never ran is not listed,
or if a listed statement now runs (the list must shrink with the code).
It needs only the standard library and pytest, and is not part of the
tier-1 suite:

    python3 tests/line_coverage.py
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matroidcc"
ALLOWED = Path(__file__).resolve().parent / "unrun_statements.json"

Key = tuple[str, str, str]


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[tuple[Key, range]]:
    """Each statement of a source file: its key and its header's lines."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    module = path.stem
    out: list[tuple[Key, range]] = []

    def visit(body: list[ast.stmt], function: str) -> None:
        for node in body:
            if _is_docstring(node) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue  # no code: a docstring or a declaration
            inner = [
                getattr(node, field) for field in ("body", "orelse", "finalbody")
                if getattr(node, field, None)
            ] + [h.body for h in getattr(node, "handlers", ())]
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            end = min(b[0].lineno for b in inner) - 1 if inner else node.end_lineno
            end = max(end, node.lineno)
            source = " ".join(" ".join(lines[start - 1:end]).split())
            out.append(((module, function, source), range(start, end + 1)))
            scope = function
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name if function == "<module>" else f"{function}.{node.name}"
            for block in inner:
                visit(block, scope)

    visit(ast.parse(text).body, "<module>")
    return out


def run_tier1() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the tracer: pytest's exit code, and the lines of
    each package file that executed."""
    import pytest  # imported before tracing starts, so that its own lines cost nothing

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    wanted: dict[object, set[int] | None] = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = wanted.get(code, False)
        if lines is False:
            lines = None
            if code.co_filename.startswith(prefix):
                lines = ran.setdefault(code.co_filename, set())
            wanted[code] = lines
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def unrun(ran: dict[str, set[int]]) -> Counter:
    missed: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for key, header in statements(path):
            if lines.isdisjoint(header):
                missed[key] += 1
    return missed


def main() -> int:
    allowed_entries = json.loads(ALLOWED.read_text(encoding="utf-8"))
    allowed = Counter(
        (e["module"], e["function"], e["source"]) for e in allowed_entries
    )
    code, ran = run_tier1()
    missed = unrun(ran)
    problems = []
    if code != 0:
        problems.append(f"tier-1 failed under the tracer (pytest exit {code})")
    for key, count in sorted((missed - allowed).items()):
        problems.append(f"never run and not listed ({count}x): {' | '.join(key)}")
    for key, count in sorted((allowed - missed).items()):
        problems.append(f"listed but now run ({count}x): {' | '.join(key)}")
    listed = sum(allowed.values())
    print(f"{sum(missed.values())} statement(s) never ran; {listed} listed in {ALLOWED.name}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
