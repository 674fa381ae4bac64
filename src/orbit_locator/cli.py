"""Command-line front door: problem files in, JSON or table reports out.

Problem files are JSON objects with fields dim, basis, x and optionally
y, n, tol, budget, seed. n, tol and budget set the parameters of the same
name (flags override them; _PARAMS gives flag and field one rule); seed is
only echoed into the report, and project draws its probes from the fixed
PROBE_SEED (1729) whatever the file says. Numbers in reports carry 17
significant digits so a report re-read from disk reproduces the doubles
exactly; identical input and flags produce byte-identical output. _COMMANDS
declares each subcommand once (handler, flags, whether it reads a file that
must carry y); the parser, the file checks and the report header come from it.
Exit codes: 0 success, 1 input error, 2 refusal, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import demo as demo_mod
from . import defaults, linalg, nested, operators, pipeline
from . import open_mapping as om
from .errors import (ConvergenceFailure, DimensionError, GridOracleRefusal,
                     NetTooLargeError, OrbitLocatorError, PipelineRefusal,
                     SolverFailure)
from .located import ball_distance, orbit_ball


class InputError(Exception):
    """Bad file, bad flags, bad shapes: anything that exits with code 1."""


# ---- problem files ---------------------------------------------------------

_PROBLEM_KEYS = {"dim", "basis", "x", "y", "n", "tol", "budget", "seed"}


class Problem(NamedTuple):
    dim: int
    basis: list
    x: np.ndarray
    y: Optional[np.ndarray]
    n: Optional[float]
    tol: Optional[float]
    budget: Optional[int]
    seed: Optional[int]


def _as_vec(raw, dim: int, name: str) -> np.ndarray:
    try:
        v = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {name!r} is not numeric: {exc}") from exc
    if v.shape != (dim,):
        raise InputError(f"field {name!r} must have shape ({dim},), got {v.shape}")
    return v


# each numeric parameter once: the rule that turns the spelling of a flag's or
# a file's value into it (the library's own for n, tol and budget, the budget
# read by int() first, so a file's 1.5 or true fails as the flag's string
# does), and its default
_PARAMS = {"n": (linalg.as_level, None), "tol": (linalg.as_tol, defaults.TOL),
           "budget": (lambda raw: linalg.as_budget(int(raw)), defaults.BUDGET),
           "r": (float, None)}


def _param(name: str, raw, where: str):
    """Parameter name by its _PARAMS rule from the spelling str(raw) of a
    flag or file value, so both read or fail alike; None stays None."""
    try:
        return None if raw is None else _PARAMS[name][0](str(raw))
    except (ValueError, DimensionError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - _PROBLEM_KEYS
    if unknown:
        raise InputError(f"{path}: unknown fields {sorted(unknown)}")
    for key in ("dim", "basis", "x"):
        if key not in raw:
            raise InputError(f"{path}: missing required field {key!r}")
    dim = raw["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError(f"{path}: dim must be a positive integer")
    if not isinstance(raw["basis"], list) or not raw["basis"]:
        raise InputError(f"{path}: basis must be a nonempty list of matrices")
    basis = []
    for i, entry in enumerate(raw["basis"]):
        try:
            B = np.asarray(entry, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: basis[{i}] is not numeric: {exc}") from exc
        if B.shape != (dim, dim):
            raise InputError(
                f"{path}: basis[{i}] must be {dim}x{dim}, got {B.shape}")
        basis.append(B)
    x = _as_vec(raw["x"], dim, "x")
    y = _as_vec(raw["y"], dim, "y") if raw.get("y") is not None else None
    n, tol, budget = (_param(key, raw.get(key), f"{path}: field {key!r}")
                      for key in ("n", "tol", "budget"))
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise InputError(f"{path}: seed must be an integer")
    return Problem(dim=dim, basis=basis, x=x, y=y, n=n,
                   tol=tol, budget=budget, seed=seed)


# ---- deterministic JSON with fixed float width -----------------------------

def _num(f: float) -> str:
    # json.dumps: NaN, Infinity, -Infinity, as json.loads reads them
    return f"{f:.17g}" if math.isfinite(f) else json.dumps(f)


def _dump(obj, ind: int = 0) -> str:
    # the common types first: a float, a list (a list of floats in one join)
    if type(obj) is float:
        return _num(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if type(obj) in (list, tuple):   # not a record, which is a tuple too
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map(_num, obj)) + "]"
        return "[" + ", ".join(_dump(v, ind) for v in obj) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * ind
        rows = [f'{pad}  {json.dumps(str(k))}: {_dump(v, ind + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _num(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(payload: dict) -> str:
    return _dump(payload) + "\n"


# ---- subcommands -----------------------------------------------------------
# A handler gets the parsed flags and the problem file (None for demo),
# already checked by run's prologue, and returns its report's fields after
# the shared header, or, for demo, the finished table.

def _pick(args, p: Optional[Problem], name: str):
    """The flag --name, checked by _param as the file's fields are, else
    the problem file's field, else the parameter's default."""
    flag, field = _param(name, getattr(args, name), f"--{name}"), getattr(p, name, None)
    return flag if flag is not None else field if field is not None else _PARAMS[name][1]


def _cmd_distance(args, p: Problem) -> dict:
    sub = operators.make_subspace(p.basis)
    tol = _pick(args, p, "tol")
    budget = _pick(args, p, "budget")
    rep = nested.locate_distance(sub, p.x, p.y, budget=budget, tol=tol)
    v = rep.verdict
    return {"tol": tol, "budget": budget, "seed": p.seed,
            "levels": [lv._asdict() for lv in rep.levels],
            "cauchy_bounds": list(rep.cauchy_bounds),
            "verdict": {"kind": type(v).__name__, **v._asdict()}}


def _cmd_balldist(args, p: Problem) -> dict:
    n = _pick(args, p, "n")
    if n is None:
        raise InputError("balldist needs a ball level: --n or the file's n field")
    sub = operators.make_subspace(p.basis)
    tol = _pick(args, p, "tol")
    res = ball_distance(sub, p.x, n, p.y, tol=tol)
    return {"n": n, "tol": tol, "seed": p.seed, "d": res.value,
            "point": res.point, "coeffs": res.coeffs,
            "iterations": res.iterations, "method": res.method}


def _cmd_project(args, p: Problem) -> dict:
    sub = operators.make_subspace(p.basis)
    tol = _pick(args, p, "tol")
    cert = pipeline.build_projection(sub, p.x, tol=tol)
    return {"tol": tol, "seed": p.seed, "P": cert.P, "rank": cert.rank,
            "r": cert.r, "floor": cert.floor, "note": cert.note,
            "probes": [row._asdict() for row in cert.per_y_trace]}


def _cmd_radius(args, p: Problem) -> dict:
    rr = pipeline.span_inner_radius(operators.make_subspace(p.basis), p.x)
    return {"seed": p.seed, "r": rr.r, "floor": rr.floor,
            "direction": rr.direction, "method": rr.method}


def _cmd_decompose(args, p: Problem) -> dict:
    r = _pick(args, p, "r")
    if r is None:
        raise InputError("decompose needs a claimed radius: --r")
    ball = orbit_ball(operators.make_subspace(p.basis), p.x, 1.0)
    dec = om.greedy_decompose(p.y, ball, r)
    out = dec.outcome
    return {"r": r, "seed": p.seed, "y": p.y,
            "outcome": {"kind": type(out).__name__, **out._asdict()},
            "steps": [s._asdict() for s in dec.steps]}


def _cmd_omt(args, p: Problem) -> dict:
    if len(p.basis) != 1:
        raise InputError(f"omt needs exactly one matrix in basis, got {len(p.basis)}")
    res = om.open_map_radius(p.basis[0])
    return {"seed": p.seed, "r": res.r, "direction": res.direction,
            "method": res.method}


def _cmd_demo(args, p) -> str:
    rows = demo_mod.demo_table(budget=_pick(args, p, "budget"),
                               tol=_pick(args, p, "tol"))
    if args.csv is not None:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(demo_mod.rows_to_csv(rows))
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from exc
    return demo_mod.format_table(rows)


class _Command(NamedTuple):
    """A subcommand: its handler, its flags in --help order, whether it
    reads a problem file and whether that file must carry y."""
    handler: Callable
    flags: tuple = ()
    reads_file: bool = True
    needs_y: bool = False


# radius, decompose and omt read no tolerance, so take no --tol
_COMMANDS = {
    "distance": _Command(_cmd_distance, ("tol", "budget"), needs_y=True),
    "balldist": _Command(_cmd_balldist, ("tol", "n"), needs_y=True),
    "project": _Command(_cmd_project, ("tol",)),
    "radius": _Command(_cmd_radius),
    "decompose": _Command(_cmd_decompose, ("r",), needs_y=True),
    "omt": _Command(_cmd_omt),
    "demo": _Command(_cmd_demo, ("tol", "csv", "budget"), reads_file=False),
}

# typed failures reported on stdout: the exit code, the report's status
# and the exception's attributes the report carries when it has them
_FAILURES = (
    ((PipelineRefusal, GridOracleRefusal, NetTooLargeError), 2, "refused", ("radius",)),
    ((SolverFailure, ConvergenceFailure), 3, "solver-failure", ("lower", "upper")),
)


# ---- driver ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 means refusal here, so
    # reroute everything through the input-error path
    def error(self, message):
        raise InputError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="orbit-locator", add_help=True)
    sub = parser.add_subparsers(dest="command")
    for name, spec in _COMMANDS.items():
        sp = sub.add_parser(name, add_help=True)
        if spec.reads_file:
            sp.add_argument("file")
        for flag in spec.flags:
            sp.add_argument(f"--{flag}")   # a string: _param converts it
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command, code = None, 0
    try:
        try:
            args = _build_parser().parse_args(argv)
        except InputError:   # argparse reads a flag's value as the subcommand
            if not argv[0].startswith("-"):
                raise
            raise InputError(f"flags follow the subcommand: {argv[0]} came first") from None
        command = args.command
        if command is None:
            raise InputError("missing subcommand (try --help)")
        spec = _COMMANDS[command]
        p = load_problem(args.file) if spec.reads_file else None
        if spec.needs_y and p.y is None:
            raise InputError(f"{command} needs a target vector y in the problem file")
        out = spec.handler(args, p)
        text = out if isinstance(out, str) else render_report(
            {"command": command, "status": "ok", **out})
    except (InputError, OrbitLocatorError) as exc:
        failure = next((f for f in _FAILURES if isinstance(exc, f[0])), None)
        if failure is None:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _, code, status, attrs = failure
        text = render_report({"command": command, "status": status, "reason": str(exc),
                              **{a: getattr(exc, a) for a in attrs if hasattr(exc, a)}})
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
