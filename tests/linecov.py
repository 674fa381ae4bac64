"""Opt-in line coverage of orbit_locator, stdlib only: a pytest plugin.

PYTHONPATH=src:tests python -m pytest -q -p linecov lists, per module, the
statements whose first line has bytecode and fired no sys.settrace event.
"""

import ast
import os
import sys
from pathlib import Path

_SRC = Path(os.path.abspath(__file__)).parents[1] / "src" / "orbit_locator"
_PREFIX, _hit = str(_SRC), set()


def _line(frame, event, arg):
    _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line(frame, event, arg) if frame.f_code.co_filename.startswith(_PREFIX) else None


def _code_lines(code):
    return {line for _, _, line in code.co_lines() if line}.union(
        *(_code_lines(c) for c in code.co_consts if hasattr(c, "co_lines")))


sys.settrace(_call)   # at import: -p loads this before the conftests import the package


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    for path in sorted(_SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        stmts = {n.lineno for n in ast.walk(ast.parse(text)) if isinstance(n, ast.stmt)}
        stmts &= _code_lines(compile(text, str(path), "exec"))
        missed = sorted(n for n in stmts if (str(path), n) not in _hit)
        terminalreporter.write_line(f"{path.name}: {len(missed)} of {len(stmts)} unreached {missed}")
