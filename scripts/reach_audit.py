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
Exits with pytest's status.
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
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
