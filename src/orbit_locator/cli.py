"""Command-line front door: problem files in, JSON or table reports out.

Problem files are JSON objects with fields dim, basis, x and optionally
y, n, tol, budget, seed. n, tol and budget set the parameters of the same
name (flags override them, and both pass one check); seed is only echoed
into the report, and project draws its probes from the fixed PROBE_SEED
(1729) whatever the file says. Numbers in reports carry 17 significant
digits so a report re-read from disk reproduces the doubles exactly; identical
input and flags produce byte-identical output. Exit codes: 0 success,
1 input error, 2 refusal, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import demo as demo_mod
from . import nested, operators, pipeline
from . import open_mapping as om
from .defaults import BUDGET, TOL
from .errors import (ConvergenceFailure, GridOracleRefusal, NetTooLargeError,
                     OrbitLocatorError, PipelineRefusal, SolverFailure)
from .located import ball_distance, orbit_ball


class InputError(Exception):
    """Bad file, bad flags, bad shapes: anything that exits with code 1."""


# ---- problem files ---------------------------------------------------------

_PROBLEM_KEYS = {"dim", "basis", "x", "y", "n", "tol", "budget", "seed"}


@dataclass(frozen=True, eq=False)
class Problem:
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


def _param(name: str, raw, where: str):
    """The parameter n, tol or budget from a problem file or a flag, with
    one check for both sources: n a nonnegative number, tol a positive
    finite number and budget a positive integer. None stays None; where
    names the field or flag in the error."""
    if raw is None:
        return None
    if name == "budget":
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
            raise InputError(f"{where} must be a positive integer")
        return raw
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where} is not a number: {exc}") from exc
    if name == "n" and not value >= 0.0:
        raise InputError(f"{where} must be nonnegative, got {value}")
    if name == "tol" and not 0.0 < value < np.inf:
        raise InputError(f"{where} must be positive and finite, got {value}")
    return value


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

def _dump(obj, ind: int = 0) -> str:
    pad = "  " * ind
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_dump(v, ind + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        return _dump(obj.tolist(), ind)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v, ind) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f != f:
            return "NaN"
        if f == float("inf"):
            return "Infinity"
        if f == float("-inf"):
            return "-Infinity"
        return f"{f:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(payload: dict) -> str:
    return _dump(payload) + "\n"


# ---- subcommands -----------------------------------------------------------

def _pick(args, p: Optional[Problem], name: str, default):
    """The flag --name, checked by _param as the file's fields are, else
    the problem file's field, else the default."""
    flag, field = _param(name, getattr(args, name), f"--{name}"), getattr(p, name, None)
    return flag if flag is not None else field if field is not None else default


def _cmd_distance(args) -> dict:
    p = load_problem(args.file)
    if p.y is None:
        raise InputError("distance needs a target vector y in the problem file")
    sub = operators.make_subspace(p.basis)
    tol = _pick(args, p, "tol", TOL)
    budget = _pick(args, p, "budget", BUDGET)
    rep = nested.locate_distance(sub, p.x, p.y, budget=budget, tol=tol)
    v = rep.verdict
    return {
        "command": "distance",
        "status": "ok",
        "tol": tol,
        "budget": budget,
        "seed": p.seed,
        "levels": [vars(lv) for lv in rep.levels],
        "cauchy_bounds": list(rep.cauchy_bounds),
        "verdict": {"kind": type(v).__name__, **vars(v)},
    }


def _cmd_balldist(args) -> dict:
    p = load_problem(args.file)
    if p.y is None:
        raise InputError("balldist needs a target vector y in the problem file")
    n = _pick(args, p, "n", None)
    if n is None:
        raise InputError("balldist needs a ball level: --n or the file's n field")
    sub = operators.make_subspace(p.basis)
    tol = _pick(args, p, "tol", TOL)
    res = ball_distance(sub, p.x, float(n), p.y, tol=tol)
    return {
        "command": "balldist",
        "status": "ok",
        "n": float(n),
        "tol": tol,
        "seed": p.seed,
        "d": res.value,
        "point": res.point,
        "coeffs": res.coeffs,
        "iterations": res.iterations,
        "method": res.method,
    }


def _cmd_project(args) -> dict:
    p = load_problem(args.file)
    sub = operators.make_subspace(p.basis)
    tol = _pick(args, p, "tol", TOL)
    cert = pipeline.build_projection(sub, p.x, tol=tol)
    return {
        "command": "project",
        "status": "ok",
        "tol": tol,
        "seed": p.seed,
        "P": cert.P,
        "rank": cert.rank,
        "r": cert.r,
        "floor": cert.floor,
        "note": cert.note,
        "probes": [vars(row) for row in cert.per_y_trace],
    }


def _cmd_radius(args) -> dict:
    p = load_problem(args.file)
    sub = operators.make_subspace(p.basis)
    rr = pipeline.span_inner_radius(sub, p.x)
    return {
        "command": "radius",
        "status": "ok",
        "seed": p.seed,
        "r": rr.r,
        "floor": rr.floor,
        "direction": rr.direction,
        "method": rr.method,
    }


def _cmd_decompose(args) -> dict:
    p = load_problem(args.file)
    if p.y is None:
        raise InputError("decompose needs a target vector y in the problem file")
    if args.r is None:
        raise InputError("decompose needs a claimed radius: --r")
    sub = operators.make_subspace(p.basis)
    ball = orbit_ball(sub, p.x, 1.0)
    dec = om.greedy_decompose(p.y, ball, float(args.r))
    out = dec.outcome
    return {
        "command": "decompose",
        "status": "ok",
        "r": float(args.r),
        "seed": p.seed,
        "y": p.y,
        "outcome": {"kind": type(out).__name__, **vars(out)},
        "steps": [vars(s) for s in dec.steps],
    }


def _cmd_omt(args) -> dict:
    p = load_problem(args.file)
    if len(p.basis) != 1:
        raise InputError(
            f"omt needs exactly one matrix in basis, got {len(p.basis)}")
    res = om.open_map_radius(p.basis[0])
    return {
        "command": "omt",
        "status": "ok",
        "seed": p.seed,
        "r": res.r,
        "direction": res.direction,
        "method": res.method,
    }


def _cmd_demo(args) -> str:
    rows = demo_mod.demo_table(budget=_pick(args, None, "budget", BUDGET),
                               tol=_pick(args, None, "tol", TOL))
    csv_text = demo_mod.rows_to_csv(rows)
    if args.csv is not None:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from exc
    return demo_mod.format_table(rows)


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

    # radius, decompose and omt read no tolerance, so take no --tol
    def add(name, needs_file=True, tol=True):
        sp = sub.add_parser(name, add_help=True)
        if needs_file:
            sp.add_argument("file")
        if tol:
            sp.add_argument("--tol", type=float, default=None)
        return sp

    spd = add("distance")
    spd.add_argument("--budget", type=int, default=None)
    spb = add("balldist")
    spb.add_argument("--n", type=float, default=None)
    add("project")
    add("radius", tol=False)
    spg = add("decompose", tol=False)
    spg.add_argument("--r", type=float, default=None)
    add("omt", tol=False)
    spm = add("demo", needs_file=False)
    spm.add_argument("--csv", default=None)
    spm.add_argument("--budget", type=int, default=None)
    return parser


_HANDLERS = {
    "distance": _cmd_distance,
    "balldist": _cmd_balldist,
    "project": _cmd_project,
    "radius": _cmd_radius,
    "decompose": _cmd_decompose,
    "omt": _cmd_omt,
}


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = None
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        if command is None:
            raise InputError("missing subcommand (try --help)")
        if command == "demo":
            text = _cmd_demo(args)
        else:
            text = render_report(_HANDLERS[command](args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PipelineRefusal, GridOracleRefusal, NetTooLargeError) as exc:
        payload = {"command": command, "status": "refused",
                   "reason": str(exc)}
        if isinstance(exc, PipelineRefusal):
            payload["radius"] = exc.radius
        sys.stdout.write(render_report(payload))
        sys.stdout.flush()
        return 2
    except (SolverFailure, ConvergenceFailure) as exc:
        payload = {"command": command, "status": "solver-failure",
                   "reason": str(exc)}
        if isinstance(exc, SolverFailure):
            payload["lower"] = exc.lower
            payload["upper"] = exc.upper
        sys.stdout.write(render_report(payload))
        sys.stdout.flush()
        return 3
    except OrbitLocatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
