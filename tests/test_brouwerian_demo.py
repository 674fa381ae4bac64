import math

import numpy as np
import pytest

from orbit_locator import (DEFAULT_C_VALUES, DimensionError, Located,
                           Stabilized, demo_table, diag_subspace,
                           format_table, locate_distance, op_norm, orbit,
                           rows_to_csv)


def test_diag_subspace_shape():
    sub = diag_subspace()
    assert sub.k == 2 and sub.dim == 2
    assert abs(op_norm(sub, [0.5, -0.7]) - 0.7) <= 1e-12
    assert orbit(sub, [1.0, 0.0]).rank == 1


@pytest.fixture(scope="module")
def default_rows():
    return demo_table()


def test_rows_cover_defaults(default_rows):
    assert len(default_rows) == len(DEFAULT_C_VALUES)
    assert [row.c for row in default_rows] == list(DEFAULT_C_VALUES)


def test_radius_identity(default_rows):
    for row in default_rows:
        assert abs(row.r - min(1.0, abs(row.c))) <= 1e-12


def test_truncation_growth(default_rows):
    with_n = [row for row in default_rows if row.N is not None]
    for row in with_n:
        assert row.N >= math.ceil(2.0 / row.r)
        assert 2.0 <= row.N * abs(row.c) <= 3.0 + 2.0 * abs(row.c)
    # N is nonincreasing in |c|
    by_size = sorted(with_n, key=lambda row: abs(row.c), reverse=True)
    ns = [row.N for row in by_size]
    assert ns == sorted(ns)


def test_dichotomy_ground_truth(default_rows):
    for row in default_rows:
        if row.c == 0.0:
            assert abs(row.d - 1.0) <= 1e-6
            assert row.N is None
            assert row.verdict == "stabilized"
            assert row.levels_to_locate == 1
        else:
            assert abs(row.d) <= 1e-6
            assert row.verdict == "pipeline"


def test_sweep_cost_at_small_c():
    sub = diag_subspace()
    y = np.array([0.0, 1.0])
    # at c = 0.1 level 10 reaches y, and the span lower bound 0 certifies
    # it at either tolerance
    for tol in (1e-6, 1e-3):
        report = locate_distance(sub, np.array([1.0, 0.1]), y,
                                 budget=12, tol=tol)
        assert isinstance(report.verdict, Stabilized)
        assert report.verdict.N == 10 and len(report.levels) == 10
    # at c = 0.095 no level reaches y: the tight sweep certifies level 11
    # against the lower bound, the loose one locates it by the Cauchy test
    report = locate_distance(sub, np.array([1.0, 0.095]), y,
                             budget=12, tol=1e-6)
    assert isinstance(report.verdict, Stabilized)
    assert len(report.levels) == 11
    loose = locate_distance(sub, np.array([1.0, 0.095]), y,
                            budget=12, tol=1e-3)
    assert isinstance(loose.verdict, Located)


def test_c_and_minus_c_give_one_row():
    # the orbit of (1, c) is the box [-n, n] x [-n|c|, n|c|], so the table
    # solves each |c| once; solved apart, c and -c agree
    for c in sorted({abs(c) for c in DEFAULT_C_VALUES}):
        (plus,), (minus,) = demo_table([c]), demo_table([-c])
        assert (plus.c, minus.c) == (c, -c)
        assert abs(plus.r - minus.r) <= 1e-12 and abs(plus.d - minus.d) <= 1e-12
        assert plus.N == minus.N, c
        assert (plus.levels_to_locate, plus.verdict) == (minus.levels_to_locate, minus.verdict)


def test_demo_rejects_large_c():
    with pytest.raises(DimensionError):
        demo_table([2.0])
    with pytest.raises(DimensionError):
        demo_table([0.5], budget=0)


def test_csv_shape(default_rows):
    csv = rows_to_csv(default_rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "c,r,N,d,levels,verdict"
    assert len(lines) == len(default_rows) + 1
    assert lines[1] == "0,0,n/a,1,1,stabilized"
    for line in lines[1:]:
        assert len(line.split(",")) == 6
    # deterministic
    assert csv == rows_to_csv(default_rows)


def test_table_shape(default_rows):
    text = format_table(default_rows)
    lines = text.strip().split("\n")
    assert len(lines) == len(default_rows) + 1
    assert lines[0].split() == ["c", "r", "N", "d", "levels", "verdict"]



# the demo table is a report: its text must not move between releases, or
# between reruns, unless a change means it to
_GOLDEN_TABLE = """\
     c      r     N  d  levels     verdict
     0      0   n/a  1       1  stabilized
     1      1     3  0       0    pipeline
    -1      1     3  0       0    pipeline
   0.5    0.5     5  0       0    pipeline
  -0.5    0.5     5  0       0    pipeline
   0.1    0.1    21  0       0    pipeline
  -0.1    0.1    21  0       0    pipeline
  0.01   0.01   201  0       0    pipeline
 -0.01   0.01   201  0       0    pipeline
 0.001  0.001  2001  0       0    pipeline
-0.001  0.001  2001  0       0    pipeline
"""


def test_table_golden(default_rows):
    assert format_table(default_rows) == _GOLDEN_TABLE
