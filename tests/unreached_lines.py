"""List the ``src/`` lines that no tier-1 test executes.

A tool, not a test: pytest does not collect it. It runs the tier-1 suite in
this process under ``sys.settrace``, records every line event in
``src/varpert``, and compares them with the lines each module's code
objects hold (``code.co_lines()``), so it needs no coverage package. Run it
from the repository root, with any extra pytest arguments after it:

    python tests/unreached_lines.py

Tracing makes the suite about 3x slower. Lines that only run in a child
process, such as ``cli``'s ``__main__`` guard, are listed as unreached.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "varpert"


def code_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` can run."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 and a function's first line only hold its prologue; a def
        # line runs in the enclosing code
        lines.update(line for _, _, line in code.co_lines()
                     if line and line != code.co_firstlineno)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer; return its exit code and the lines
    reached, per file under ``src/varpert``."""
    reached: dict[str, set[int]] = {str(path): set()
                                    for path in PACKAGE.glob("*.py")}

    def trace(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(SRC))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return status, reached


def main(argv: list[str]) -> int:
    status, reached = run_traced(argv)
    total = 0
    for name in sorted(reached):
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(code_lines(path) - reached[name])
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(SRC.parent)}:{line}: "
                  f"{source[line - 1].strip()}")
    print(f"{total} unreached lines")
    # failing tests still leave a valid report; a usage error does not
    return 0 if status in (0, 1) else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
