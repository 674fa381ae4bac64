import json

import numpy as np
import pytest

from orbit_locator import (DimensionError, SolverFailure, cli, located,
                           locate_distance, make_subspace, nested)


DIAG_BASIS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]


def write_problem(tmp_path, name="p.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def diag_problem(tmp_path, **extra):
    fields = {"dim": 2, "basis": DIAG_BASIS, "x": [1.0, 0.1],
              "y": [0.0, 1.0]}
    fields.update(extra)
    return write_problem(tmp_path, **fields)


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance_roundtrip(tmp_path, capsys):
    path = diag_problem(tmp_path, budget=12, seed=7)
    code, out, err = run_cli(capsys, ["distance", path])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["verdict"]["kind"] == "Stabilized"
    assert report["verdict"]["N"] == 10
    assert report["seed"] == 7
    # 17 significant digits keep doubles lossless
    assert "0.10000000000000001" in out


def test_byte_identical_reruns(tmp_path, capsys):
    path = diag_problem(tmp_path, budget=12)
    _, out1, _ = run_cli(capsys, ["distance", path])
    _, out2, _ = run_cli(capsys, ["distance", path])
    assert out1 == out2


@pytest.mark.parametrize("c,budget", [(0.01, 1073), (0.01, 60), (0.001, 200)])
def test_large_budget_distance_is_undecided(tmp_path, capsys, c, budget):
    # budget 1073 exited 1 on a level tolerance that underflowed to 0, and
    # budgets 60 and 200 exited 3 on ADMM failing at levels 52 and 61: the
    # sweep stops before the levels whose tolerance is rounding
    path = diag_problem(tmp_path, x=[1.0, c])
    code, out, err = run_cli(capsys, ["distance", path, "--budget", str(budget)])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["budget"] == budget
    verdict = report["verdict"]
    assert verdict["kind"] == "Undecided"
    assert verdict["budget"] == len(report["levels"]) < budget
    assert verdict["upper"] == report["levels"][-1]["d"]


def test_balldist(tmp_path, capsys):
    path = diag_problem(tmp_path)
    code, out, _ = run_cli(capsys, ["balldist", path, "--n", "21"])
    assert code == 0
    report = json.loads(out)
    assert abs(report["d"]) <= 1e-6
    code2, _, err2 = run_cli(capsys, ["balldist", path])
    assert code2 == 1 and "needs a ball level" in err2


def test_project_projects_on_first_axis(tmp_path, capsys):
    path = write_problem(tmp_path, dim=2, basis=DIAG_BASIS, x=[1.0, 0.0])
    code, out, _ = run_cli(capsys, ["project", path])
    assert code == 0
    report = json.loads(out)
    assert np.allclose(report["P"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
    assert report["rank"] == 1
    # a line: its one gauge is exact, and the floor is 1 over the gauge
    # ceiling, which lies above it by its rounding margin only: that of the
    # preimages and of the QR frame, 2.3e-14 here
    assert report["r"] * (1.0 - 5e-14) <= report["floor"] <= report["r"]


def test_radius_and_refusal(tmp_path, capsys):
    path = diag_problem(tmp_path)
    code, out, _ = run_cli(capsys, ["radius", path])
    assert code == 0
    report = json.loads(out)
    assert "tol" not in report
    assert abs(report["r"] - 0.1) <= 1e-8
    # the box [-1, 1] x [-0.1, 0.1]: its inner radius is exactly 0.1
    assert report["r"] * (1.0 - 2e-9) <= report["floor"] <= 0.1
    zero = write_problem(tmp_path, name="z.json", dim=2, basis=DIAG_BASIS,
                         x=[0.0, 0.0])
    code2, out2, _ = run_cli(capsys, ["radius", zero])
    assert code2 == 2
    report = json.loads(out2)
    assert report["status"] == "refused" and report["radius"] == 0.0


@pytest.mark.parametrize("delta", [1e-9, 3e-9, 1e-8, 1e-7])
def test_a_marginal_rank_is_refused_and_swept(delta, tmp_path, capsys):
    # B1 = I3, B2 = diag(1, 2, 3), x = (1, delta, 0): rank margins 2.04 to
    # 49, so project and radius refuse (exit 2, on stdout) where project
    # once certified distance 1 from e2 at delta = 1e-9, against an exact 0;
    # the sweep keeps its honest bracket
    basis = [np.eye(3).tolist(), np.diag([1.0, 2.0, 3.0]).tolist()]
    path = write_problem(tmp_path, dim=3, basis=basis, x=[1.0, delta, 0.0],
                         y=[0.0, 1.0, 0.0])
    for cmd in ("project", "radius"):
        code, out, err = run_cli(capsys, [cmd, path])
        report = json.loads(out)
        assert code == 2 and err == "" and report["status"] == "refused"
        assert "is zero or marginal" in report["reason"]
    if delta == 1e-9:
        code, out, _ = run_cli(capsys, ["distance", path])
        verdict = json.loads(out)["verdict"]
        assert code == 0 and verdict["kind"] == "Undecided"
        assert verdict["lower"] == 0.0 and verdict["upper"] == pytest.approx(1.0, abs=1e-6)


def test_decompose(tmp_path, capsys):
    path = write_problem(tmp_path, dim=2, basis=DIAG_BASIS, x=[1.0, 1.0],
                         y=[0.3, 0.1])
    code, out, _ = run_cli(capsys, ["decompose", path, "--r", "1.0"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"]["kind"] == "Member"
    assert np.allclose(report["outcome"]["xi"], [0.3, 0.1], atol=1e-6)
    code2, _, err2 = run_cli(capsys, ["decompose", path])
    assert code2 == 1 and "--r" in err2


def test_decompose_rejects_tol(tmp_path, capsys):
    # the decomposition runs at its own tolerance and reads none, so --tol
    # is a bad flag: a usage message on stderr, no report, no traceback
    path = write_problem(tmp_path, dim=2, basis=DIAG_BASIS, x=[1.0, 1.0],
                         y=[0.3, 0.1])
    code, out, err = run_cli(capsys, ["decompose", path, "--r", "1.0",
                                      "--tol", "1e-3"])
    assert code == 1 and out == ""
    assert "--tol" in err and "Traceback" not in err


def test_distance_rejects_plateau_flag(tmp_path, capsys):
    # the sweep certifies on the span lower bound alone and takes no
    # plateau tolerance: a usage message on stderr, no report, no traceback
    path = diag_problem(tmp_path, budget=12)
    argv = ["distance", path, "--stab-tol", "1e-7"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert f"unrecognized arguments: {argv[2]}" in err
    assert "Traceback" not in err


def test_omt(tmp_path, capsys):
    path = write_problem(tmp_path, dim=2, basis=[[[2.0, 0.0], [0.0, 0.5]]],
                         x=[0.0, 0.0])
    code, out, _ = run_cli(capsys, ["omt", path])
    assert code == 0
    report = json.loads(out)
    assert abs(report["r"] - 0.5) <= 1e-9 and "tol" not in report
    sing = write_problem(tmp_path, name="s.json", dim=2,
                         basis=[[[1.0, 0.0], [2.0, 0.0]]], x=[0.0, 0.0])
    code2, _, err2 = run_cli(capsys, ["omt", sing])
    assert code2 == 1 and "row rank" in err2


def test_demo_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, ["demo", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "c,r,N,d,levels,verdict"
    assert len(lines) == 12
    assert lines[1].startswith("0,0,n/a,1")
    assert len(out.strip().split("\n")) == 12


def test_input_errors(tmp_path, capsys):
    assert run_cli(capsys, ["nosuch"])[0] == 1
    assert run_cli(capsys, [])[0] == 1
    broken = tmp_path / "broken.json"
    broken.write_text('{"dim": 2')
    assert run_cli(capsys, ["project", str(broken)])[0] == 1
    bad_shape = write_problem(tmp_path, name="b.json", dim=2,
                              basis=DIAG_BASIS, x=[1.0, 2.0, 3.0])
    code, _, err = run_cli(capsys, ["project", bad_shape])
    assert code == 1 and "shape" in err
    extra = write_problem(tmp_path, name="e.json", dim=2, basis=DIAG_BASIS,
                          x=[1.0, 0.0], zz=1)
    code2, _, err2 = run_cli(capsys, ["project", extra])
    assert code2 == 1 and "unknown fields" in err2
    missing = write_problem(tmp_path, name="m.json", dim=2, basis=DIAG_BASIS)
    assert run_cli(capsys, ["project", missing])[0] == 1
    bad_n = diag_problem(tmp_path, name="n.json", n="abc")
    code3, out3, err3 = run_cli(capsys, ["balldist", bad_n])
    assert code3 == 1 and out3 == "" and "'n'" in err3
    bad_tol = diag_problem(tmp_path, name="t.json", tol=[1])
    code4, out4, err4 = run_cli(capsys, ["balldist", bad_tol, "--n", "2"])
    assert code4 == 1 and out4 == "" and "'tol'" in err4
    # radius and omt read no tolerance: the flag is rejected, while the
    # file key stays valid because every command shares the schema
    with_tol = diag_problem(tmp_path, name="r.json", tol=1e-3)
    for cmd in ("radius", "omt"):
        code5, out5, err5 = run_cli(capsys, [cmd, with_tol, "--tol", "1e-6"])
        assert code5 == 1 and out5 == "" and "--tol" in err5
    assert run_cli(capsys, ["radius", with_tol])[0] == 0


# problem files that load_problem refuses, each for one flaw
_BAD_PROBLEMS = {
    "BAD_TOP": [DIAG_BASIS],
    "DIM_TRUE": {"dim": True, "basis": DIAG_BASIS, "x": [1.0, 0.1]},
    "DIM_ZERO": {"dim": 0, "basis": DIAG_BASIS, "x": [1.0, 0.1]},
    "DIM_STR": {"dim": "2", "basis": DIAG_BASIS, "x": [1.0, 0.1]},
    "BASIS_EMPTY": {"dim": 2, "basis": [], "x": [1.0, 0.1]},
    "BASIS_DICT": {"dim": 2, "basis": {"B": DIAG_BASIS}, "x": [1.0, 0.1]},
    "ENTRY_STR": {"dim": 2, "basis": [DIAG_BASIS[0], "I"], "x": [1.0, 0.1]},
    "ENTRY_RAGGED": {"dim": 2, "basis": [[[1.0, 0.0], [0.0]]], "x": [1.0, 0.1]},
    "ENTRY_SHAPE": {"dim": 2, "basis": [DIAG_BASIS[0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                    "x": [1.0, 0.1]},
    "SEED_HALF": {"dim": 2, "basis": DIAG_BASIS, "x": [1.0, 0.1], "y": [0.0, 1.0], "seed": 1.5},
    "SEED_TRUE": {"dim": 2, "basis": DIAG_BASIS, "x": [1.0, 0.1], "y": [0.0, 1.0], "seed": True},
    "X_STR": {"dim": 2, "basis": DIAG_BASIS, "x": ["one", 0.1]},
    "Y_SHAPE": {"dim": 2, "basis": DIAG_BASIS, "x": [1.0, 0.1], "y": [[0.0, 1.0]]},
}


@pytest.mark.parametrize("argv,message", [
    (["distance", "NO_Y"], "distance needs a target vector y in the problem file"),
    (["balldist", "NO_Y", "--n", "2"], "balldist needs a target vector y in the problem file"),
    # the missing y is named before the missing level and the missing radius
    (["balldist", "NO_Y"], "balldist needs a target vector y in the problem file"),
    (["decompose", "NO_Y"], "decompose needs a target vector y in the problem file"),
    (["omt", "TWO"], "omt needs exactly one matrix in basis, got 2"),
    ([], "missing subcommand (try --help)"),
    (["demo", "--csv", "NO_DIR/rows.csv"], "cannot write NO_DIR/rows.csv: "),
    # argparse would read 1e-6 as the subcommand
    (["--tol", "1e-6", "distance", "TWO"], "flags follow the subcommand: --tol came first"),
    # a JSON integer beyond the doubles' range reads from its spelling as
    # the flag's string does: inf, refused as a level
    (["balldist", "HUGE"], "HUGE: field 'n': scale n must be finite, got inf"),
    # each refusal of a problem file names the file
    (["distance", "NO_DIR/p.json"], "cannot read NO_DIR/p.json: "),
    (["distance", "BAD_TOP"], "BAD_TOP: top level must be a JSON object"),
    (["distance", "DIM_TRUE"], "DIM_TRUE: dim must be a positive integer"),
    (["distance", "DIM_ZERO"], "DIM_ZERO: dim must be a positive integer"),
    (["distance", "DIM_STR"], "DIM_STR: dim must be a positive integer"),
    (["distance", "BASIS_EMPTY"], "BASIS_EMPTY: basis must be a nonempty list of matrices"),
    (["distance", "BASIS_DICT"], "BASIS_DICT: basis must be a nonempty list of matrices"),
    (["distance", "ENTRY_STR"], "ENTRY_STR: basis[1] is not numeric: "),
    (["distance", "ENTRY_RAGGED"], "ENTRY_RAGGED: basis[0] is not numeric: "),
    (["distance", "ENTRY_SHAPE"], "ENTRY_SHAPE: basis[1] must be 2x2, got (2, 3)"),
    (["distance", "SEED_HALF"], "SEED_HALF: seed must be an integer"),
    (["distance", "SEED_TRUE"], "SEED_TRUE: seed must be an integer"),
    (["distance", "X_STR"], "X_STR: field 'x' is not numeric: "),
    (["distance", "Y_SHAPE"], "Y_SHAPE: field 'y' must have shape (2,), got (1, 2)"),
], ids=["distance-no-y", "balldist-no-y", "balldist-no-y-no-n", "decompose-no-y-no-r",
        "omt-two-matrices", "no-subcommand", "demo-csv-no-dir", "flag-before-subcommand",
        "huge-integer-n", "unreadable-file", "top-level-list", "dim-true", "dim-zero",
        "dim-string", "basis-empty", "basis-not-list", "entry-string", "entry-ragged",
        "entry-shape", "seed-fraction", "seed-bool", "x-string", "y-shape"])
def test_input_error_messages(argv, message, tmp_path, capsys):
    # each input error exits 1 with its one-line message on stderr, no
    # report and no traceback
    names = {"NO_Y": write_problem(tmp_path, dim=2, basis=DIAG_BASIS, x=[1.0, 0.1]),
             "TWO": diag_problem(tmp_path, name="two.json"),
             "NO_DIR": str(tmp_path / "no-such-dir"),
             "HUGE": diag_problem(tmp_path, name="huge.json", n=10 ** 400)}
    for key in set(argv) & set(_BAD_PROBLEMS):
        path = tmp_path / f"{key.lower()}.json"
        path.write_text(json.dumps(_BAD_PROBLEMS[key]))
        names[key] = str(path)

    def fill(text):
        for key, value in names.items():
            text = text.replace(key, value)
        return text

    code, out, err = run_cli(capsys, [fill(a) for a in argv])
    message = fill(message)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["balldist", "DISK", "--n", "nan"],
    ["distance", "DISK", "--tol", "nan"],
    ["demo", "--tol", "nan"],
    ["project", "DISK", "--tol", "nan"],
    ["distance", "DISK", "--tol", "inf"],
    ["distance", "INF_TOL"],
    ["decompose", "DISK", "--r", "inf"],
])
def test_nan_and_inf_parameters_fail_fast(argv, tmp_path, capsys, monkeypatch):
    # a flag is checked by the rule of the problem file's field of the same
    # name, and --r by the decomposition, before any solve starts: exit 1,
    # no report, no traceback
    for owner, name in [(cli.nested, "locate_distance"), (cli, "ball_distance"),
                        (cli.pipeline, "build_projection"), (cli.demo_mod, "demo_table"),
                        (located.OrbitBallContext, "distance")]:
        monkeypatch.setattr(owner, name, None)
    files = {"DISK": write_problem(tmp_path, dim=2, x=[0.6, -0.8], y=[0.0, 1.0],
                                   basis=[[[1, 0], [0, 1]], [[0, -1], [1, 0]]]),
             "INF_TOL": diag_problem(tmp_path, name="inf.json", tol=float("inf"))}
    code, out, err = run_cli(capsys, [files.get(a, a) for a in argv])
    assert code == 1 and out == "" and "Traceback" not in err
    want = {"--n": "must be nonnegative", "--r": "needs a finite r"}
    assert want.get(argv[-2], "must be positive and finite") in err


@pytest.mark.parametrize("name,value", [
    ("n", "abc"), ("n", -1), ("tol", 0), ("tol", "nan"), ("budget", 1.5), ("budget", 0),
    ("r", "abc"),
])
def test_flag_and_field_share_one_check(name, value, tmp_path, capsys, monkeypatch):
    # a malformed value fails one check whether a flag or the problem
    # file's field of the same name gives it (r is a flag only): exit 1, no
    # report, no traceback and the same text after the flag's or the
    # field's name, before any solve starts; a budget that parses is
    # refused by the library's own check, with its text
    if name == "budget" and value == 0:
        with pytest.raises(DimensionError) as exc:
            locate_distance(make_subspace([np.array(B) for B in DIAG_BASIS]),
                            [1.0, 0.1], [0.0, 1.0], budget=0)
        library = f": {exc.value}\n"
    for owner, attr in [(cli.nested, "locate_distance"), (cli, "ball_distance"),
                        (cli.om, "greedy_decompose")]:
        monkeypatch.setattr(owner, attr, None)
    cmd = {"n": "balldist", "r": "decompose"}.get(name, "distance")
    runs = [([cmd, diag_problem(tmp_path), f"--{name}", str(value)], f"--{name}")]
    if name != "r":
        runs.append(([cmd, diag_problem(tmp_path, name="f.json", **{name: value})],
                     f"field {name!r}"))
    tails = set()
    for argv, where in runs:
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and where in err and err.count("\n") == 1
        tails.add(err.split(where, 1)[1])
    assert len(tails) == 1
    if name == "budget" and value == 0:
        assert tails == {library}


def test_balldist_refuses_a_tolerance_below_the_rounding_floor(tmp_path, capsys):
    # level 5 of the diagonal problem resolves no tolerance below 6.5e-15:
    # exit 1 with the floor on stderr, no report and no traceback (it
    # printed "certified" on rounding before)
    path = diag_problem(tmp_path)
    code, out, err = run_cli(capsys, ["balldist", path, "--n", "5", "--tol", "1e-17"])
    assert code == 1 and out == "" and "Traceback" not in err
    assert "rounding floor 6.5e-15" in err


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverFailure("stalled", lower=0.1, upper=0.2, iterations=9)

    monkeypatch.setattr(cli.nested, "locate_distance", boom)
    path = diag_problem(tmp_path)
    code, out, _ = run_cli(capsys, ["distance", path])
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "solver-failure"
    assert report["lower"] == 0.1 and report["upper"] == 0.2


def test_flag_overrides_file_tol(tmp_path, capsys):
    path = diag_problem(tmp_path, x=[1.0, 0.095], tol=1e-3, budget=12)
    _, out, _ = run_cli(capsys, ["distance", path])
    assert json.loads(out)["verdict"]["kind"] == "Located"
    _, out2, _ = run_cli(capsys, ["distance", path, "--tol", "1e-6"])
    assert json.loads(out2)["verdict"]["kind"] == "Stabilized"
    # at x = (1, 0.1) level 10 reaches y, so both tolerances stabilize there
    path = diag_problem(tmp_path, tol=1e-3, budget=12)
    for argv in (["distance", path], ["distance", path, "--tol", "1e-6"]):
        _, out3, _ = run_cli(capsys, argv)
        report = json.loads(out3)
        assert report["verdict"]["kind"] == "Stabilized"
        assert report["verdict"]["N"] == 10 and len(report["levels"]) == 10


def test_cached_parser_matches_fresh_parser(tmp_path, capsys):
    # the parser is built once per process: a flag given to one run must
    # not carry over into the next
    path = diag_problem(tmp_path, budget=12)
    runs = [["distance", path, "--budget", "3"], ["distance", path]]
    cached = [run_cli(capsys, argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    assert cached == fresh
    assert cached[0][1] != cached[1][1]


def test_dump_refuses_a_record():
    # records are tuples, but only a plain list or tuple renders as a JSON
    # list: a record that reaches the renderer unconverted is a TypeError
    with pytest.raises(TypeError, match="cannot serialize Level"):
        cli._dump(nested.Level(n=1, d=0.5, y=np.zeros(2)))
    assert cli._dump((1, 0.5)) == "[1, 0.5]"
