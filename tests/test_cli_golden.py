"""Golden CLI reports: the console-script runs of CI, in-process.

Each run is `orbit-locator ARGV` on a problem file of tests/cli_problems;
its stdout is stored in tests/golden/NAME.txt and its exit code and
stderr in tests/golden/exits.json. A run must give the same exit code and
stderr, the same JSON keys, strings and integers and floats within 1e-12
relative; the demo table is compared token by token, numbers with the
same tolerance. `python tests/test_cli_golden.py` rewrites the golden
files from the tree on the import path.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

from orbit_locator import cli

HERE = pathlib.Path(__file__).resolve().parent
PROBLEMS = HERE / "cli_problems"
GOLDEN = HERE / "golden"
REL = 1e-12

# (name, argv) with the problem file named relative to PROBLEMS
RUNS = [
    ("demo", ["demo"]),
    ("distance", ["distance", "diag.json"]),
    ("radius", ["radius", "disk.json"]),
    ("project", ["project", "disk.json"]),
    ("radius-null", ["radius", "diag-null.json"]),
    ("project-null", ["project", "diag-null.json"]),
    ("radius-span7", ["radius", "span7.json"]),
    ("project-span7", ["project", "span7.json"]),
    ("radius-span3", ["radius", "span3.json"]),
    ("project-span3", ["project", "span3.json"]),
    ("d3null", ["radius", "d3null.json"]),
    ("balldist", ["balldist", "diag.json", "--n", "3"]),
    ("decompose", ["decompose", "disk-y.json", "--r", "0.9"]),
    ("omt", ["omt", "omt.json"]),
    ("rand47", ["distance", "rand47.json"]),
    ("wide35", ["distance", "wide35.json"]),
    ("wide20", ["distance", "wide20.json"]),
    ("quaternion", ["distance", "quaternion.json"]),
    ("fine-60", ["distance", "diag-fine.json", "--budget", "60"]),
    ("fine-1073", ["distance", "diag-fine.json", "--budget", "1073"]),
    ("marginal", ["distance", "marginal.json"]),
    ("marginal-project", ["project", "marginal.json"]),
    ("marginal-radius", ["radius", "marginal.json"]),
]


def run(argv):
    """(exit code, stdout, stderr) of cli.run on argv, problem files
    resolved in PROBLEMS."""
    argv = [str(PROBLEMS / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def close(got, want) -> bool:
    """Same value: ints exactly, a float on either side within REL."""
    if isinstance(got, int) and isinstance(want, int):
        return got == want
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


def same_json(got, want, where="$"):
    """Assert two parsed reports agree: keys, strings, bools and nulls
    exactly, numbers by close."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert (isinstance(got, (int, float)) and not isinstance(got, bool)
                and close(got, want)), (where, got, want)
    else:
        assert got == want, (where, got, want)


def number(token):
    try:
        return json.loads(token)
    except ValueError:
        return None


def same_table(got, want):
    """Assert two text reports agree token by token, numbers by close."""
    g, w = got.split(), want.split()
    assert len(g) == len(w), (len(g), len(w))
    for a, b in zip(g, w):
        x, y = number(a), number(b)
        if isinstance(y, (int, float)) and isinstance(x, (int, float)):
            assert close(x, y), (a, b)
        else:
            assert a == b, (a, b)


@pytest.mark.parametrize("name, argv", RUNS, ids=[name for name, _ in RUNS])
def test_cli_report_matches_golden(name, argv):
    code, out, err = run(argv)
    want_code, want_err = json.loads((GOLDEN / "exits.json").read_text())[name]
    assert (code, err) == (want_code, want_err)
    want = (GOLDEN / f"{name}.txt").read_text()
    if want.startswith("{"):
        same_json(json.loads(out), json.loads(want))
    else:
        same_table(out, want)


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name, argv in RUNS:
        code, out, err = run(argv)
        (GOLDEN / f"{name}.txt").write_text(out)
        exits[name] = [code, err]
    rows = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in exits.items())
    (GOLDEN / "exits.json").write_text("{\n" + rows + "\n}\n")


if __name__ == "__main__":
    sys.exit(regenerate())
