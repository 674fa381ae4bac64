"""Benchmark of orbit_locator: three workloads, five end-to-end metrics,
and a separate traced run for per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|span|cli --seed N \\
        --seconds S --trace 0|1

Each run does fixed work: whole passes over a fixed corpus, the number of
passes set by --seconds in proportion to the workload's passes at 20
seconds, never by the clock. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
describes the run, including a calibration-loop time that does not depend
on the program.
See README.md in this directory.
"""

import os
import sys

# one process, one thread: pin BLAS before numpy loads, and leave the
# program's own thread setting unset
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ORBIT_LOCATOR_THREADS", None)
# one CPU: migrating between CPUs that run at different speeds made short
# ops jitter by 20-40%; pinned, repeats of one op stay within 3%
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import corpus
import layertrace
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MODULES = ("errors", "linalg", "operators", "located", "nested",
           "open_mapping", "pipeline", "demo", "cli")
SETUP_REPEATS = 5
TAIL_BEYOND = 10          # op_tail_ms: highest value with this many beyond it
MIN_OPS = 40

SWEEP_BUDGET = 12
TOL = 1e-6


@dataclass
class Op:
    name: str
    run: Callable          # () -> raw program output; timed
    check: Callable        # (raw) -> None, raises checks.CheckError
    on_error: Callable = None   # (exception) -> None, raises CheckError


def import_program() -> dict:
    """Import orbit_locator afresh (module code runs again each time)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "orbit_locator"]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return {m: importlib.import_module(f"orbit_locator.{m}") for m in MODULES}


class Refs:
    """Independent references for one problem, computed on first use."""

    def __init__(self, p: corpus.Problem):
        self.p = p

    @functools.cached_property
    def projector(self):
        return checks.orbit_projector(self.p.basis, self.p.x)

    @functools.cached_property
    def floor(self) -> float:
        return checks.inner_radius_floor(self.p.basis, self.p.x)

    @functools.cached_property
    def bracket(self):
        return checks.inner_radius_bracket(self.p.basis, self.p.x)

    @property
    def P(self):
        return self.projector[0]

    @property
    def rank(self) -> int:
        return self.projector[1]

    def distance(self, y) -> float:
        return checks.orbit_distance(self.P, y)

    def check_radius(self, r: float) -> None:
        checks.check_radius_floor(r, self.floor)
        if self.p.k == self.rank:
            checks.check_radius_bracket(r, self.bracket, TOL)


# ---- workloads --------------------------------------------------------------

def sweep_ops(mods, rng) -> list:
    """nested.locate_distance (budget 12, tol 1e-6) over family50."""
    nested, operators = mods["nested"], mods["operators"]
    ops = []
    for p in corpus.rescaled(corpus.family50(), rng):
        sub = operators.make_subspace(p.basis)
        refs = Refs(p)

        def run(sub=sub, p=p):
            return nested.locate_distance(sub, p.x, p.y, budget=SWEEP_BUDGET, tol=TOL)

        def check(rep, p=p, refs=refs):
            v = rep.verdict
            verdict = {"kind": type(v).__name__, "d": getattr(v, "d", None),
                       "lower": getattr(v, "lower", None),
                       "upper": getattr(v, "upper", None)}
            checks.check_sweep({"levels": [lv.d for lv in rep.levels],
                                "verdict": verdict}, refs.distance(p.y), TOL)

        def on_error(exc, p=p, refs=refs):
            checks.check_failure_bracket(exc.lower, exc.upper, refs.distance(p.y))

        ops.append(Op(f"sweep:{p.name}", run, check, on_error))
    return ops


def span_ops(mods, rng) -> list:
    """pipeline.build_projection per problem, and a tight greedy_decompose
    membership run on each problem whose gauge has a null space."""
    pipeline, operators = mods["pipeline"], mods["operators"]
    located, om = mods["located"], mods["open_mapping"]
    ops = []
    for p in corpus.rescaled(corpus.span_problems(), rng):
        sub = operators.make_subspace(p.basis)
        refs = Refs(p)

        def project(sub=sub, p=p):
            return pipeline.build_projection(sub, p.x, TOL)

        def check_project(cert, refs=refs):
            checks.check_projector(cert.P, cert.rank, refs.P, refs.rank)
            checks.check_probes([(row.y, row.d_pipeline) for row in cert.per_y_trace],
                                refs.P, TOL)
            refs.check_radius(cert.r)

        def decompose(sub=sub, p=p):
            ball = located.orbit_ball(sub, p.x, 1.0)
            return om.greedy_decompose(p.y, ball, p.r)

        def check_decompose(dec, p=p, refs=refs):
            checks.check_decomposition(p.y, p.r, [s.x for s in dec.steps],
                                       type(dec.outcome).__name__, refs.P,
                                       float(np.linalg.norm(p.x)))

        ops.append(Op(f"span:{p.name}:project", project, check_project))
        if p.r is not None:
            ops.append(Op(f"span:{p.name}:decompose", decompose, check_decompose))
    return ops


def _problem_file(path: str, p: corpus.Problem) -> str:
    doc = {"dim": p.dim, "basis": [B.tolist() for B in p.basis], "x": p.x.tolist()}
    if p.y is not None:
        doc["y"] = p.y.tolist()
    if p.n is not None:
        doc["n"] = p.n
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _parse_demo(text: str) -> list:
    lines = text.strip().split("\n")
    checks.require(lines[0].split() == ["c", "r", "N", "d", "levels", "verdict"],
                   "demo table header changed")
    rows = []
    for line in lines[1:]:
        c, r, n, d, _, _ = line.split()
        rows.append({"c": float(c), "r": float(r), "d": float(d),
                     "N": None if n == "n/a" else int(n)})
    return rows


def cli_ops(mods, rng, workdir: str) -> list:
    """cli.run in-process on fixed problem files, one per subcommand, plus
    the demo table; stdout is captured."""
    cli = mods["cli"]
    base = corpus.cli_problems()
    probs = dict(zip(base, corpus.rescaled(base.values(), rng)))
    files = {cmd: _problem_file(os.path.join(workdir, f"{cmd}.json"), p)
             for cmd, p in probs.items()}
    argvs = {
        "distance": ["distance", files["distance"], "--budget", str(SWEEP_BUDGET)],
        "balldist": ["balldist", files["balldist"]],
        "project": ["project", files["project"]],
        "radius": ["radius", files["radius"]],
        "decompose": ["decompose", files["decompose"], "--r", repr(probs["decompose"].r)],
        "omt": ["omt", files["omt"]],
        "demo": ["demo"],
    }
    refs = {cmd: Refs(p) for cmd, p in probs.items()}

    def checker(cmd):
        p, ref = probs.get(cmd), refs.get(cmd)

        def check(raw):
            code, text = raw
            checks.require(code == 0, f"cli {cmd} exited with {code}")
            if cmd == "demo":
                checks.check_demo_rows(_parse_demo(text), TOL)
                return
            rep = json.loads(text)
            checks.require(rep.get("status") == "ok", f"cli {cmd} status {rep.get('status')}")
            if cmd == "distance":
                checks.check_sweep({"levels": [lv["d"] for lv in rep["levels"]],
                                    "verdict": rep["verdict"]}, ref.distance(p.y), TOL)
            elif cmd == "balldist":
                checks.check_ball_point(rep, p.basis, p.x, p.y, p.n, TOL, ref.distance(p.y))
            elif cmd == "project":
                checks.check_projector(rep["P"], rep["rank"], ref.P, ref.rank)
                checks.check_probes([(row["y"], row["d_pipeline"]) for row in rep["probes"]],
                                    ref.P, TOL)
                ref.check_radius(rep["r"])
            elif cmd == "radius":
                checks.check_radius_direction(rep["r"], rep["direction"], p.basis, p.x)
                ref.check_radius(rep["r"])
            elif cmd == "decompose":
                checks.check_decomposition(p.y, p.r, [s["x"] for s in rep["steps"]],
                                           rep["outcome"]["kind"], ref.P,
                                           float(np.linalg.norm(p.x)))
            elif cmd == "omt":
                checks.check_omt(rep["r"], rep["direction"], p.basis[0])
        return check

    def runner(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            return code, out.getvalue()
        return run

    return [Op(f"cli:{cmd}", runner(argv), checker(cmd)) for cmd, argv in argvs.items()]


@dataclass(frozen=True)
class Workload:
    build: Callable
    passes: int            # passes at NOMINAL_SECONDS, about that long here


NOMINAL_SECONDS = 20
WORKLOADS = {
    "sweep": Workload(lambda mods, rng, workdir: sweep_ops(mods, rng), 2),
    "span": Workload(lambda mods, rng, workdir: span_ops(mods, rng), 4),
    "cli": Workload(cli_ops, 7),
}


# ---- measurement ------------------------------------------------------------

@dataclass(frozen=True)
class Record:
    op: int
    t0: float
    t1: float
    raw_s: float           # wall seconds, the probe's own time taken off
    result: object
    error: Exception


def run_passes(ops, orders, probe) -> list:
    """Run whole passes, one Record per op."""
    records = []
    for order in orders:
        for i in order:
            t0, spent0 = probe.clock()
            try:
                result, error = ops[i].run(), None
            except Exception as exc:   # a failed op is counted, the run goes on
                result, error = None, exc
            t1, spent1 = probe.clock()
            records.append(Record(int(i), t0, t1, (t1 - t0) - (spent1 - spent0),
                                  result, error))
    return records


def judge(ops, records) -> tuple:
    """(correct, failed, messages): an op fails when it raises or its check
    fails; correct turns false on a failed check, and on a raised error
    whose own report (a failure bracket) is wrong."""
    correct, failed, messages = True, 0, []
    for rec in records:
        op = ops[rec.op]
        if rec.error is not None:
            failed += 1
            messages.append(f"{op.name}: {type(rec.error).__name__}: {rec.error}")
        try:
            if rec.error is None:
                op.check(rec.result)
            elif op.on_error is not None and hasattr(rec.error, "lower"):
                op.on_error(rec.error)
        except checks.CheckError as exc:
            correct = False
            failed += rec.error is None
            messages.append(f"{op.name}: check failed: {exc}")
    return correct, failed, messages


def tail_value(latencies) -> float:
    """The highest latency with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def timing_metrics(setup, records) -> dict:
    """setup_s, ops_per_s, op_p50_ms and op_tail_ms from per-set-up and
    per-op seconds."""
    latencies = [r for r, _ in records]
    completed = sum(1 for _, ok in records if ok)
    return {"setup_s": statistics.median(setup),
            "ops_per_s": completed / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_value(latencies) * 1e3}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orbit_locator", "__init__.py")):
        print(f"error: the program's source is missing ({SRC}/orbit_locator); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload: Workload, workdir: str) -> int:
    # the timed runs scale every span to the reference machine speed; the
    # traced run reports raw seconds, so the probe stays out of its spans
    probe = speed.NullProbe() if args.trace else speed.SpeedProbe()
    with probe:
        # set-up, repeated: import the program, make the inputs, build subspaces
        setup = []
        for _ in range(SETUP_REPEATS):
            t0, spent0 = probe.clock()
            mods = import_program()
            ops = workload.build(mods, np.random.default_rng(args.seed), workdir)
            t1, spent1 = probe.clock()
            setup.append((t0, t1, (t1 - t0) - (spent1 - spent0)))

        order_rng = np.random.default_rng([args.seed, 1])
        passes = 1 if args.trace else max(
            math.ceil(MIN_OPS / len(ops)),
            round(workload.passes * args.seconds / NOMINAL_SECONDS))
        orders = [order_rng.permutation(len(ops)) for _ in range(passes)]
        records = run_passes(ops, orders, probe)
        rss = peak_rss_mb()
        calibration = probe.median_loop()

    info = {"workload": args.workload, "seed": args.seed, "passes": passes,
            "ops_per_pass": len(ops), "timed_ops": len(records),
            "tail_percentile": 100.0 * (len(records) - TAIL_BEYOND) / len(records),
            "calibration_ms": calibration * 1e3,
            "reference_calibration_ms": speed.REF_LOOP_S * 1e3}
    if args.trace:
        # trace one more set-up's subspace building, then the same pass
        tracer = layertrace.Tracer()
        tracer.install(mods)
        try:
            ops = workload.build(mods, np.random.default_rng(args.seed), workdir)
            traced = run_passes(ops, orders, probe)
        finally:
            tracer.remove()
        if args.workload == "cli":
            tracer.add("cli.stdout_bytes", sum(len(r.result[1].encode()) for r in traced
                                               if r.result is not None))
        metrics = tracer.metrics(sum(r.raw_s for r in records), sum(r.raw_s for r in traced))
        records = records + traced
    else:
        scaled = timing_metrics([raw * probe.factor(t0, t1) for t0, t1, raw in setup],
                                [(r.raw_s * probe.factor(r.t0, r.t1), r.error is None)
                                 for r in records])
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in scaled.items()}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        info["raw"] = timing_metrics([raw for _, _, raw in setup],
                                     [(r.raw_s, r.error is None) for r in records])
        info["probe_samples"] = len(probe.loops)
        info["probe_share"] = probe.spent / max(sum(r.raw_s for r in records), 1e-300)

    correct, failed, messages = judge(ops, records)
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    for line in messages[:20]:
        print(line, file=sys.stderr)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result, "messages": messages,
                   "latencies": [[ops[r.op].name, r.raw_s, r.raw_s * probe.factor(r.t0, r.t1),
                                  r.t0, r.t1] for r in records],
                   "probe": [list(pair) for pair in zip(probe.times, probe.loops)]},
                  fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
