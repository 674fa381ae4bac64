"""The result records are immutable named tuples: field order, no
assignment, pickling and repr, and the field order of the ones the CLI
renders is the key order of its golden reports."""

import json
import pathlib
import pickle

import numpy as np
import pytest

from orbit_locator import cli, demo, located, nested, operators, pipeline
from orbit_locator import open_mapping as om

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

V = np.array([0.25, -0.5])
M = np.eye(2)
LEVEL = nested.Level(n=1, d=0.5, y=V)
STEP = om.DecompositionStep(i=1, x=V, lam=1, residual=0.125)
PROBE = pipeline.ProbeRow(y=V, N=3, d_pipeline=0.5, d_oracle=0.5)

# (record, its fields in order, an instance)
RECORDS = [
    (cli.Problem, ("dim", "basis", "x", "y", "n", "tol", "budget", "seed"),
     cli.Problem(dim=2, basis=[M], x=V, y=None, n=None, tol=1e-6, budget=12, seed=7)),
    (cli._Command, ("handler", "flags", "reads_file", "needs_y"),
     cli._Command(print, ("tol",))),
    (demo.DemoRow, ("c", "r", "N", "d", "levels_to_locate", "verdict"),
     demo.DemoRow(c=0.5, r=0.5, N=5, d=0.0, levels_to_locate=0, verdict="pipeline")),
    (located.DistanceResult, ("value", "point", "coeffs", "tol", "iterations", "method"),
     located.DistanceResult(value=0.5, point=V, coeffs=None, tol=1e-6,
                            iterations=3, method="interior")),
    (nested.Level, ("n", "d", "y"), LEVEL),
    (nested.Located, ("d", "y_inf"), nested.Located(d=0.5, y_inf=V)),
    (nested.Stabilized, ("N", "d"), nested.Stabilized(N=4, d=0.5)),
    (nested.Undecided, ("budget", "lower", "upper"),
     nested.Undecided(budget=12, lower=0.25, upper=0.5)),
    (nested.DistanceReport, ("levels", "cauchy_bounds", "verdict", "tol"),
     nested.DistanceReport(levels=(LEVEL,), cauchy_bounds=(0.0,),
                           verdict=nested.Stabilized(N=1, d=0.5), tol=1e-6)),
    (om.DecompositionStep, ("i", "x", "lam", "residual"), STEP),
    (om.Member, ("xi",), om.Member(xi=V)),
    (om.Witness, ("z", "dist_z"), om.Witness(z=V, dist_z=0.25)),
    (om.Undecided, ("residual",), om.Undecided(residual=0.125)),
    (om.Decomposition, ("steps", "outcome", "r", "y"),
     om.Decomposition(steps=(STEP,), outcome=om.Member(xi=V), r=0.9, y=V)),
    (om.RadiusResult, ("r", "direction", "method", "floor"),
     om.RadiusResult(r=1.0, direction=V, method="ellipsoid", floor=0.5)),
    (operators.OrbitGeometry, ("x", "P", "rank", "Phi", "U", "sv", "Vt"),
     operators.OrbitGeometry(x=V, P=M, rank=2, Phi=M, U=M, sv=np.ones(2), Vt=M)),
    (pipeline.ProbeRow, ("y", "N", "d_pipeline", "d_oracle"), PROBE),
    (pipeline.ProjectionCertificate, ("P", "rank", "r", "floor", "per_y_trace", "note"),
     pipeline.ProjectionCertificate(P=M, rank=2, r=1.0, floor=0.5, per_y_trace=(PROBE,))),
]


def same(a, b) -> bool:
    """Equal values, arrays entry by entry, tuples and lists item by item."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


def name(cls) -> str:
    return f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}"


@pytest.mark.parametrize("cls, fields, rec", RECORDS, ids=[name(r[0]) for r in RECORDS])
def test_record_contract(cls, fields, rec):
    assert type(rec) is cls and cls._fields == fields
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and all(same(getattr(back, f), getattr(rec, f)) for f in fields)
    assert repr(rec).startswith(f"{cls.__name__}(")


def test_record_defaults():
    cmd = cli._Command(print)
    assert (cmd.flags, cmd.reads_file, cmd.needs_y) == ((), True, False)
    cert = pipeline.ProjectionCertificate(P=M, rank=2, r=1.0, floor=0.5, per_y_trace=())
    assert cert.note == ""


def golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.txt").read_text())


# the records the CLI renders as JSON objects, with one rendered object
# each from the golden reports (verdicts and outcomes lead with their kind)
RENDERED = [
    (nested.Level, lambda: golden("distance")["levels"][0]),
    (nested.Stabilized, lambda: golden("distance")["verdict"]),
    (nested.Undecided, lambda: golden("wide20")["verdict"]),
    (pipeline.ProbeRow, lambda: golden("project")["probes"][0]),
    (om.DecompositionStep, lambda: golden("decompose")["steps"][0]),
    (om.Member, lambda: golden("decompose")["outcome"]),
]


@pytest.mark.parametrize("cls, rendered", RENDERED, ids=[name(r[0]) for r in RENDERED])
def test_rendered_field_order_is_golden_key_order(cls, rendered):
    obj = rendered()
    if "kind" in obj:
        assert obj.pop("kind") == cls.__name__
    assert tuple(obj) == cls._fields


def test_demo_minus_c_row_is_the_solved_row():
    # demo_table solves 0.5 once and copies its row to -0.5 with c set
    plus, minus = demo.demo_table([0.5, -0.5])
    assert (plus.c, minus.c) == (0.5, -0.5)
    assert minus._replace(c=plus.c) == plus
    assert all(a is b for a, b in zip(plus[1:], minus[1:]))
