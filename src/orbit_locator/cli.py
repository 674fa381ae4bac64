"""Command-line front door: problem files in, JSON or table reports out.

Problem files are JSON objects with fields dim, basis, x and optionally
y, n, tol, budget, seed. Numbers in reports carry 17 significant digits
so a report re-read from disk reproduces the doubles exactly; identical
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
from .defaults import BUDGET, STAB_TOL, TOL
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


def _as_float(raw, path: str, name: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: field {name!r} is not a number: {exc}") from exc


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
    n = raw.get("n")
    if n is not None:
        n = _as_float(n, path, "n")
        if not n >= 0.0:
            raise InputError(f"{path}: n must be nonnegative")
    tol = raw.get("tol")
    if tol is not None:
        tol = _as_float(tol, path, "tol")
        if not tol > 0.0:
            raise InputError(f"{path}: tol must be positive")
    budget = raw.get("budget")
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise InputError(f"{path}: budget must be a positive integer")
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


_REQUIRED = {
    "distance": ("levels", "cauchy_bounds", "verdict"),
    "balldist": ("n", "d", "point"),
    "project": ("P", "rank", "r", "probes"),
    "radius": ("r", "floor", "direction", "method"),
    "decompose": ("r", "outcome", "steps"),
    "omt": ("r", "direction", "method"),
}


def check_schema(obj, command: str) -> None:
    """Minimal self-schema: reports are objects naming their command and
    status, with the command's required payload keys present."""
    if not isinstance(obj, dict):
        raise InputError("report is not a JSON object")
    if obj.get("command") != command:
        raise InputError("report command field mismatch")
    if obj.get("status") not in ("ok", "refused", "solver-failure"):
        raise InputError("report status field invalid")
    if obj["status"] == "ok":
        for key in _REQUIRED.get(command, ()):
            if key not in obj:
                raise InputError(f"report missing field {key!r}")


# ---- subcommands -----------------------------------------------------------

def _pick(flag, field, default):
    if flag is not None:
        return flag
    if field is not None:
        return field
    return default


def _cmd_distance(args) -> dict:
    p = load_problem(args.file)
    if p.y is None:
        raise InputError("distance needs a target vector y in the problem file")
    sub = operators.make_subspace(p.basis)
    tol = _pick(args.tol, p.tol, TOL)
    budget = _pick(args.budget, p.budget, BUDGET)
    rep = nested.locate_distance(sub, p.x, p.y, budget=budget, tol=tol,
                                 stab_tol=args.stab_tol)
    v = rep.verdict
    if isinstance(v, nested.Located):
        verdict = {"kind": "Located", "d": v.d, "y_inf": v.y_inf}
    elif isinstance(v, nested.Stabilized):
        verdict = {"kind": "Stabilized", "N": v.N, "d": v.d}
    else:
        verdict = {"kind": "Undecided", "budget": v.budget,
                   "lower": v.lower, "upper": v.upper}
    return {
        "command": "distance",
        "status": "ok",
        "tol": tol,
        "budget": budget,
        "seed": p.seed,
        "levels": [{"n": lv.n, "d": lv.d, "y": lv.y} for lv in rep.levels],
        "cauchy_bounds": list(rep.cauchy_bounds),
        "verdict": verdict,
    }


def _cmd_balldist(args) -> dict:
    p = load_problem(args.file)
    if p.y is None:
        raise InputError("balldist needs a target vector y in the problem file")
    n = _pick(args.n, p.n, None)
    if n is None:
        raise InputError("balldist needs a ball level: --n or the file's n field")
    sub = operators.make_subspace(p.basis)
    tol = _pick(args.tol, p.tol, TOL)
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
    tol = _pick(args.tol, p.tol, TOL)
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
        "probes": [{"y": row.y, "N": row.N, "d_pipeline": row.d_pipeline,
                    "d_oracle": row.d_oracle} for row in cert.per_y_trace],
    }


def _cmd_radius(args) -> dict:
    p = load_problem(args.file)
    sub = operators.make_subspace(p.basis)
    tol = _pick(args.tol, p.tol, TOL)
    rr = pipeline.span_inner_radius(sub, p.x)
    return {
        "command": "radius",
        "status": "ok",
        "tol": tol,
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
    if isinstance(out, om.Member):
        outcome = {"kind": "Member", "xi": out.xi}
    elif isinstance(out, om.Witness):
        outcome = {"kind": "Witness", "z": out.z, "dist_z": out.dist_z}
    else:
        outcome = {"kind": "Undecided", "residual": out.residual}
    return {
        "command": "decompose",
        "status": "ok",
        "r": float(args.r),
        "seed": p.seed,
        "y": p.y,
        "outcome": outcome,
        "steps": [{"i": s.i, "x": s.x, "lam": s.lam, "residual": s.residual}
                  for s in dec.steps],
    }


def _cmd_omt(args) -> dict:
    p = load_problem(args.file)
    if len(p.basis) != 1:
        raise InputError(
            f"omt needs exactly one matrix in basis, got {len(p.basis)}")
    tol = _pick(args.tol, p.tol, TOL)
    res = om.open_map_radius(p.basis[0])
    return {
        "command": "omt",
        "status": "ok",
        "tol": tol,
        "seed": p.seed,
        "r": res.r,
        "direction": res.direction,
        "method": res.method,
    }


def _cmd_demo(args) -> str:
    tol = args.tol if args.tol is not None else TOL
    budget = args.budget if args.budget is not None else BUDGET
    rows = demo_mod.demo_table(budget=budget, tol=tol)
    csv_text = demo_mod.rows_to_csv(rows)
    if args.validate:
        lines = csv_text.strip().split("\n")
        if lines[0] != "c,r,N,d,levels,verdict":
            raise InputError("demo CSV header mismatch")
        for line in lines[1:]:
            if len(line.split(",")) != 6:
                raise InputError("demo CSV row width mismatch")
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

    def add(name, needs_file=True):
        sp = sub.add_parser(name, add_help=True)
        if needs_file:
            sp.add_argument("file")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--validate", action="store_true")
        return sp

    spd = add("distance")
    spd.add_argument("--budget", type=int, default=None)
    spd.add_argument("--stab-tol", dest="stab_tol", type=float,
                     default=STAB_TOL)
    spb = add("balldist")
    spb.add_argument("--n", type=float, default=None)
    add("project")
    add("radius")
    spg = add("decompose")
    spg.add_argument("--r", type=float, default=None)
    add("omt")
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
            payload = _HANDLERS[command](args)
            text = render_report(payload)
            if args.validate:
                check_schema(json.loads(text), command)
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
