"""List the statement lines of src/ that the tier-1 tests never run.

Usage, from the root of a checkout:

    python3 scripts/reach_audit.py [PYTEST_ARGS ...]

Runs pytest in this process (``-q -p no:cacheprovider
--continue-on-collection-errors`` plus PYTEST_ARGS, over the testpaths
pyproject.toml names) under a ``sys.settrace`` line tracer, stdlib only,
and prints every statement line of ``src/graphcodes`` that never ran, as
``path:line  source``, then their count.  A statement line is a line on
which an ``ast`` statement starts and to which the compiled code
attributes an instruction, so docstrings, ``else:`` and the
continuation lines of a long statement do not count.  Tracing makes the
tests about four times slower, which is why this is not part of tier-1.

Then it prints every public top-level name of ``src/graphcodes`` that
nothing outside the tests uses, as ``module.name``, then their count:
no other ``src/`` module imports it, its own module does not name it
outside its definition, and no ``perfbench/`` or ``scripts/`` file
names it (as a variable, attribute, import or string, the way the
tracer names its targets).  A name that ``tests/test_acceptance.py``
imports is marked ``[gate]``.  This scan reads the files with ``ast``
and runs nothing, so tier-1 runs it too: ``tests/test_reach_audit.py``
holds its list to a committed allowlist.  Exits with pytest's status.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src", "graphcodes")


def statement_lines(path: str) -> set:
    """Lines of path where a statement starts and some code runs."""
    with open(path) as fh:
        text = fh.read()
    starts = {node.lineno for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.stmt)}
    code_lines, stack = set(), [compile(text, path, "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & code_lines


def _parse(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read())


def _imports(tree: ast.Module) -> set:
    """(module, name) of every name the file imports from graphcodes.<module>."""
    return {(node.module.rsplit(".", 1)[-1], alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("graphcodes.")
            for alias in node.names}


def _words(tree: ast.AST) -> set:
    """Every variable, attribute, imported name and string in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unused_public_names() -> list:
    """(module.name, gate) for each public top-level name of src/graphcodes
    that no code outside the tests uses, gate telling whether the
    acceptance gate imports it."""
    modules = {os.path.basename(p)[:-3]: _parse(p)
               for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    imported = set().union(*map(_imports, modules.values()))
    outside = set().union(*(_words(_parse(p)) for d in ("perfbench", "scripts")
                            for p in glob.glob(os.path.join(ROOT, d, "*.py"))))
    gate = _imports(_parse(os.path.join(ROOT, "tests", "test_acceptance.py")))
    found = []
    for mod, tree in modules.items():
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            rest = _words(ast.Module(tree.body[:i] + tree.body[i + 1:], []))
            found += [(f"{mod}.{name}", (mod, name) in gate) for name in names
                      if not name.startswith("_") and (mod, name) not in imported
                      and name not in rest and name not in outside]
    return found


def main(argv) -> int:
    import pytest

    files = {os.path.realpath(p) for p in glob.glob(os.path.join(SRC, "*.py"))}
    ran = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # trace only the frames of src/ code, so the tests run at full speed
        return local if frame.f_code.co_filename in ran else None

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(files):
        with open(path) as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in sorted(statement_lines(path) - ran[path]):
            print(f"{rel}:{line}  {source[line - 1].strip()}")
            missed += 1
    print(f"unreached statement lines in src/: {missed}")
    unused = unused_public_names()
    for name, gate in unused:
        print(f"{name}{'  [gate]' if gate else ''}")
    print(f"public names in src/ with no user outside the tests: {len(unused)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
