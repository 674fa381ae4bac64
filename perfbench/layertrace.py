"""Layer trace made from outside the program.

The tracer replaces public functions and methods at the module or class
attribute their callers look up, so calls between modules, calls inside a
module through its globals and method calls through ``self`` all pass
through it. Names re-exported from the package root are bound at import
time and bypass it; the benchmark calls through the modules. Spans live in
memory: per layer a call count and a self time (span duration minus the
wrapped calls nested inside it), plus counts read from call arguments and
return values only.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _route(name: str):
    return lambda a, kw, r: getattr(r, "method", "") == name


def _verdict(name: str):
    return lambda a, kw, r: type(r.verdict).__name__ == name


# (module, owner class or None, attribute, layer, counters, failure count)
# A counter is (metric name, fn(args, kwargs, result) -> int), read on
# return; the failure count, when named, counts SolverFailure raised.
LAYERS = (
    ("linalg", None, "spectral_norm", "linalg.spectral_norm", (), None),
    ("linalg", None, "top_singular_triple", "linalg.top_singular_triple", (), None),
    ("linalg", None, "top_singular_pairs", "linalg.top_singular_pairs", (), None),
    ("linalg", None, "sym_eigh_desc", "linalg.sym_eigh_desc", (), None),
    ("linalg", None, "clip_spectral", "linalg.clip_spectral", (), None),
    ("linalg", None, "orthonormalize", "linalg.orthonormalize", (), None),
    ("linalg", None, "batch_spectral_norms", "linalg.batch_spectral_norms",
     (("linalg.batch_spectral_norms.matrices", lambda a, kw, r: len(r)),), None),
    ("located", None, "compass_min", "located.compass_min",
     (("located.compass_min.evals", lambda a, kw, r: r[2]),), None),
    ("located", "OrbitBallContext", "__init__", "located.context", (), None),
    ("located", "OrbitBallContext", "gauge", "located.gauge", (), None),
    ("located", "OrbitBallContext", "project", "located.project", (), None),
    ("located", "OrbitBallContext", "feasify", "located.feasify", (), None),
    ("located", "OrbitBallContext", "distance", "located.distance",
     (("located.distance.iterations", lambda a, kw, r: r.iterations),
      ("located.distance.route.interior", _route("interior")),
      ("located.distance.route.certified", _route("certified")),
      ("located.distance.route.degenerate", _route("degenerate"))), None),
    ("nested", None, "locate_distance", "nested.locate_distance",
     (("nested.locate_distance.levels", lambda a, kw, r: len(r.levels)),
      ("nested.verdict.located", _verdict("Located")),
      ("nested.verdict.stabilized", _verdict("Stabilized")),
      ("nested.verdict.undecided", _verdict("Undecided"))),
     "nested.solver_failures"),
    ("open_mapping", None, "inner_radius", "open_mapping.inner_radius", (), None),
    ("open_mapping", None, "open_map_radius", "open_mapping.open_map_radius", (), None),
    ("open_mapping", None, "greedy_decompose", "open_mapping.greedy_decompose",
     (("open_mapping.greedy_decompose.steps", lambda a, kw, r: len(r.steps)),), None),
    ("pipeline", None, "build_projection", "pipeline.build_projection", (), None),
    ("pipeline", None, "pipeline_distance", "pipeline.pipeline_distance", (), None),
    ("pipeline", None, "span_inner_radius", "pipeline.span_inner_radius", (), None),
    ("operators", None, "make_subspace", "operators.make_subspace", (), None),
    ("operators", None, "orbit", "operators.orbit", (), None),
    ("demo", None, "demo_table", "demo.demo_table", (), None),
    ("cli", None, "run", "cli.run", (), None),
)

# counted by the benchmark at its own boundary (captured CLI output)
OWN_COUNTS = (("cli.stdout_bytes", "bytes"),)


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for _, _, _, layer, counters, failures in LAYERS:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        out.extend((name, "count") for name, _ in counters)
        if failures:
            out.append((failures, "count"))
    out.extend(OWN_COUNTS)
    out.extend([("trace.untraced_s", "s"), ("trace.traced_s", "s"),
                ("trace.overhead_s", "s")])
    return out


class Tracer:
    """Install with install(modules), run the traced work, then remove()."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child = []            # per open span: time spent in wrapped children
        self._restore = []

    def install(self, modules: dict) -> None:
        for mod_name, owner_name, attr, layer, counters, failures in LAYERS:
            owner = modules[mod_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, layer, counters, failures))
            self._restore.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, layer: str, counters, failures):
        calls, self_s, counts, child = self.calls, self.self_s, self.counts, self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failures and type(exc).__name__ == "SolverFailure":
                    counts[failures] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                calls[layer] += 1
                self_s[layer] += dt - inner
            for name, count in counters:
                counts[name] += int(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def add(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def metrics(self, untraced_s: float, traced_s: float) -> dict:
        values = dict(self.counts)
        for _, _, _, layer, _, _ in LAYERS:
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.self_s"] = self.self_s[layer]
        values["trace.untraced_s"] = untraced_s
        values["trace.traced_s"] = traced_s
        values["trace.overhead_s"] = traced_s - untraced_s
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in metric_names()}
