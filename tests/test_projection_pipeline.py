import re
from fractions import Fraction

import numpy as np
import pytest

from orbit_locator import (ConvergenceFailure, DimensionError,
                           OrbitBallContext, PipelineRefusal,
                           build_projection, make_subspace,
                           metric_complement_distance, orbit,
                           pipeline_distance, span_inner_radius,
                           truncation_index)
from orbit_locator import pipeline
from orbit_locator.defaults import PROBE_SEED, RANK_MARGIN
from conftest import stretched_null_problem


def test_truncation_index_values():
    assert truncation_index([0.0, 1.0], 0.1) == 21
    assert truncation_index([0.0, 1.0], 1.0) == 3
    assert truncation_index([0.0, 0.0], 0.5) == 1
    with pytest.raises(DimensionError):
        truncation_index([1.0], 0.0)


def test_truncation_index_rejects_nan_radius_and_scalar_norm():
    # a NaN radius fails the positivity check instead of reaching int(NaN),
    # and an infinite one, which gave N = 1 and a pipeline distance that
    # disagreed with the projector as a ConvergenceFailure, is refused too;
    # the index takes vectors, not a bare ||y||
    for r in (np.nan, np.inf):
        with pytest.raises(DimensionError, match="positive inner radius"):
            truncation_index([1.0, 0.0], r)
    with pytest.raises(DimensionError):
        truncation_index(1.0, 0.5)


def test_truncation_index_on_a_stack_equals_each_row():
    # rows with ratios 2||y||/r that are integers up to roundoff, then
    # random rows: the stack's N is the scalar N of each row
    g = np.random.default_rng(3)
    Y = np.concatenate([[[0.0, 1.0], [0.0, 0.0], [3.0, 4.0], [0.6, 0.8]],
                        g.normal(size=(40, 2))])
    assert truncation_index(Y[:4], 0.1).tolist() == [21, 1, 101, 21]
    for r in (0.1, 0.5, 1.0, 0.37):
        Ns = truncation_index(Y, r)
        assert Ns.dtype == np.int64
        assert Ns.tolist() == [truncation_index(y, r) for y in Y], r


def test_probe_set_is_the_seeded_draw_and_read_only(ptp):
    # the probe set is drawn once per dim, bit for bit the per-probe draw
    # of the PROBE_SEED stream, and shared read-only
    for dim in [1, 2, 3, 5]:
        rng = np.random.default_rng(PROBE_SEED)
        want = [np.eye(dim)[i] for i in range(dim)]
        for _ in range(8):
            v = rng.standard_normal(dim)
            v /= max(float(np.linalg.norm(v)), 1e-300)
            want.append(v * rng.uniform(0.2, 2.0))
        Y = pipeline._probe_set(dim)
        assert np.array_equal(Y, np.stack(want))
        assert pipeline._probe_set(dim) is Y
        assert not Y.flags.writeable
        with pytest.raises(ValueError):
            Y[0, 0] = 2.0
    sub, x, _ = ptp
    cert = build_projection(sub, x)
    assert np.array_equal(np.stack([row.y for row in cert.per_y_trace]),
                          pipeline._probe_set(3))


def test_span_inner_radius(diag_sub, ptp):
    rr = span_inner_radius(diag_sub, [1.0, 0.1])
    assert abs(rr.r - 0.1) <= 1e-8
    sub, x, _ = ptp
    rr2 = span_inner_radius(sub, x)
    assert abs(rr2.r - 1.0) <= 1e-6


def test_span_inner_radius_refuses_rank_zero(diag_sub):
    # every route passes one door, which refuses rank 0 with one text;
    # build_projection gives its rank-0 certificate first
    x, y = [0.0, 0.0], [0.0, 1.0]
    routes = [lambda: span_inner_radius(diag_sub, x),
              lambda: pipeline_distance(diag_sub, x, y),
              lambda: pipeline_distance(diag_sub, x, y, radius=1.0),
              lambda: metric_complement_distance(diag_sub, x)]
    texts = set()
    for route in routes:
        with pytest.raises(PipelineRefusal) as exc:
            route()
        assert exc.value.radius == 0.0
        texts.add(str(exc.value))
    assert texts == {"orbit rank 0 at rank margin inf is zero or marginal "
                     "(margin <= 100): use the level sweep"}
    assert build_projection(diag_sub, x).rank == 0


# B1 = I3 and B2 = diag(1, 2, 3); at x = (1, delta, 0) Phi's singular values
# are 0.913 and 0.447 delta, so the rank margin grows like delta
DELTA_BASIS = (np.eye(3), np.diag([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("delta, margin", [(1e-9, 2.04), (3e-9, 1.47), (1e-8, 4.9),
                                           (1e-7, 49.0), (1e-6, 490.0)])
def test_the_pipeline_refuses_a_marginal_rank(delta, margin):
    # in exact arithmetic on the given floats e2 lies in the span of the
    # images a = B1 x = (1, delta, 0) and b = B2 x = (1, 2 delta, 0), whose
    # 2 x 2 determinant is delta != 0: the distance from e2 to the orbit is 0
    x = np.array([1.0, delta, 0.0])
    a, b = ([Fraction(v) for v in B @ x] for B in DELTA_BASIS)
    det = a[0] * b[1] - a[1] * b[0]
    assert det == Fraction(delta) != 0
    alpha, beta = -b[0] / det, a[0] / det   # Cramer's rule for alpha a + beta b = e2
    assert [alpha * u + beta * v for u, v in zip(a, b)] == [0, 1, 0]
    sub = make_subspace(list(DELTA_BASIS))
    ctx = OrbitBallContext(sub, x)
    assert ctx.rank_margin() == pytest.approx(margin, rel=0.01)
    assert ctx.marginal == (margin <= RANK_MARGIN)
    e2 = np.array([0.0, 1.0, 0.0])
    if not ctx.marginal:
        # a clear rank keeps its certificate: P carries e2
        cert = build_projection(sub, x)
        assert cert.rank == 2 and np.linalg.norm(cert.P @ e2 - e2) <= 1e-12
        return
    # at a marginal rank the rank, and with it P, is not decided (at 1e-9
    # the computed rank 1 put e2 at distance 1): every route refuses
    routes = [lambda: build_projection(sub, x),
              lambda: pipeline_distance(sub, x, e2),
              lambda: pipeline_distance(sub, x, e2, radius=1.0),
              lambda: span_inner_radius(sub, x),
              lambda: metric_complement_distance(sub, x)]
    text = re.escape(f"orbit rank {ctx.rank} at rank margin {margin:.3g} is zero or marginal")
    for route in routes:
        with pytest.raises(PipelineRefusal, match=text):
            route()


def test_pipeline_distance_diag(diag_sub):
    d, N = pipeline_distance(diag_sub, [1.0, 0.1], [0.0, 1.0])
    assert N == 21
    assert abs(d) <= 1e-6


def test_pipeline_distance_collapsed_span(diag_sub):
    # the orbit span is the first axis; within it the radius is 1 and
    # the answer is the projection residual
    d, N = pipeline_distance(diag_sub, [1.0, 0.0], [0.0, 1.0])
    assert N == 3
    assert abs(d - 1.0) <= 1e-6
    # a component below the rank cut behaves identically
    d2, _ = pipeline_distance(diag_sub, [1.0, 1e-12], [0.0, 1.0])
    assert abs(d2 - 1.0) <= 1e-6


def test_pipeline_distance_refusal(diag_sub):
    # small but rank-visible second component: the in-span radius 1e-5
    # falls below the requested tolerance, so no truncation level is
    # trustworthy and the pipeline must say so
    with pytest.raises(PipelineRefusal) as exc:
        pipeline_distance(diag_sub, [1.0, 1e-5], [0.0, 1.0], tol=1e-3)
    assert abs(exc.value.radius - 1e-5) <= 1e-9


def test_build_projection_diag(diag_sub):
    cert = build_projection(diag_sub, [1.0, 0.0])
    assert cert.rank == 1
    assert np.allclose(cert.P, np.diag([1.0, 0.0]), atol=1e-10)
    assert abs(cert.r - 1.0) <= 1e-6
    assert "1729" in cert.note
    for row in cert.per_y_trace:
        assert np.isfinite(row.d_oracle)
        assert np.isfinite(row.d_pipeline)
        assert abs(row.d_pipeline - row.d_oracle) <= 3e-6


def test_build_projection_identity_span():
    sub = make_subspace([np.eye(2)])
    x = np.array([0.6, 0.8])
    cert = build_projection(sub, x)
    want = np.outer(x, x)
    assert np.allclose(cert.P, want, atol=1e-10)
    assert abs(cert.r - 1.0) <= 1e-6  # ||x|| = 1 here


def test_build_projection_block(ptp):
    sub, x, P_expected = ptp
    cert = build_projection(sub, x)
    assert cert.rank == 2
    assert np.allclose(cert.P, P_expected, atol=1e-10)
    gaps = [abs(row.d_pipeline - row.d_oracle) for row in cert.per_y_trace]
    assert max(gaps) <= 3e-6


def test_build_projection_rank_zero():
    sub = make_subspace([np.array([[0.0, 1.0], [0.0, 0.0]])])
    cert = build_projection(sub, [1.0, 0.0])
    assert cert.rank == 0
    assert np.allclose(cert.P, 0.0)
    assert cert.r == 0.0
    assert "rank-0" in cert.note
    assert cert.per_y_trace == ()


def test_build_projection_marks_refused_probes(diag_sub):
    # x = (1, 5e-7): a clear rank (margin 500) whose in-span radius 5e-7
    # lies below tol
    cert = build_projection(diag_sub, [1.0, 5e-7])
    assert cert.rank == 2
    assert cert.r <= 1e-6
    assert all(np.isnan(row.d_pipeline) for row in cert.per_y_trace)
    assert all(np.isfinite(row.d_oracle) for row in cert.per_y_trace)


def test_metric_complement_values(diag_sub, ptp):
    sub, x, _ = ptp
    assert abs(metric_complement_distance(sub, x) - 1.0) <= 1e-6
    assert abs(metric_complement_distance(diag_sub, [1.0, 0.3]) - 0.3) <= 1e-6
    sub_id = make_subspace([np.eye(2)])
    x2 = np.array([3.0, 4.0])
    assert abs(metric_complement_distance(sub_id, x2) - 5.0) <= 1e-5


def test_projector_algebra_everywhere(diag_sub, ptp, rng):
    instances = [(diag_sub, np.array([1.0, 0.1])),
                 (diag_sub, np.array([1.0, 0.0])),
                 (ptp[0], ptp[1])]
    for _ in range(5):
        basis = [rng.normal(size=(3, 3)) for _ in range(2)]
        instances.append((make_subspace(basis), rng.normal(size=3)))
    for sub, x in instances:
        P = orbit(sub, x).P
        assert np.linalg.norm(P @ P - P) <= 1e-10
        assert np.linalg.norm(P - P.T) <= 1e-10
        for B in sub.basis:
            bx = B @ x
            assert np.linalg.norm(P @ bx - bx) <= 1e-10


@pytest.mark.parametrize("problem", ["block", "random", "stretched"])
def test_build_projection_rows_equal_pipeline_distance(problem, ptp, monkeypatch):
    # the stacked interior test settles a probe only where distance would
    # return ||y - Py|| by the interior route; the rest run
    # pipeline_distance. Each row is the one pipeline_distance returns
    if problem == "block":
        sub, x, _ = ptp
    elif problem == "random":
        g = np.random.default_rng(5)
        sub, x = make_subspace([g.normal(size=(3, 3)) for _ in range(3)]), g.normal(size=3)
    else:
        sub, x = stretched_null_problem()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return pipeline_distance(*args, **kwargs)

    monkeypatch.setattr(pipeline, "pipeline_distance", counted)
    cert = build_projection(sub, x)
    ctx = OrbitBallContext(sub, x)
    for row in cert.per_y_trace:
        d, N = pipeline_distance(sub, x, row.y, ctx=ctx, radius=cert.floor)
        assert row.N == N
        assert abs(row.d_pipeline - d) <= 1e-15 * d
        assert row.d_oracle == pytest.approx(d, abs=2e-6)
    if problem == "stretched":
        # the gauge (20) is below N = 41 but sigma1 of the least-norm
        # preimage of e_12 (43.2) is not: that probe takes the fallback.
        # The ceiling (43.2 / 0.05) is far above the gauge, so the line's
        # floor carries the branch and bound's rounding margin 1 + 1e-9
        assert cert.floor == pytest.approx(0.05 / (1.0 + 1e-9), rel=1e-12)
        assert len(calls) == 1 and calls[0][11] == 1.0
    else:
        assert calls == []
