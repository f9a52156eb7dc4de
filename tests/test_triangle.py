import math

import numpy as np
import pytest
from scipy.optimize import minimize

from triplespin.relations import TRIANGLE_ANALOG_RELATIONS, RelationId
from triplespin.triangle import (
    TrianglePoint,
    centroid,
    check_analogs,
    sample_barycentric,
    scan,
    subtriangle_areas,
    total_area,
    vertex_distances,
    vertices,
)
from triplespin import kernels, triangle

SQ3 = math.sqrt(3.0)


def test_centroid_distances_are_circumradius():
    # circumradius of a unit equilateral triangle is 1/sqrt(3)
    d = vertex_distances(centroid(1.0))
    np.testing.assert_allclose(d, [1 / SQ3] * 3, atol=1e-15)


def test_vertex_point_distances():
    d = vertex_distances(TrianglePoint(1.0, (1.0, 0.0, 0.0)))
    np.testing.assert_allclose(d, [0.0, 1.0, 1.0], atol=1e-15)


def test_midpoint_of_ab_distances():
    # plane geometry: distance to C is the height sqrt(3)/2
    d = vertex_distances(TrianglePoint(1.0, (0.5, 0.5, 0.0)))
    np.testing.assert_allclose(d, [0.5, 0.5, SQ3 / 2], atol=1e-15)


def test_centroid_subtriangle_areas():
    areas = subtriangle_areas(centroid(1.0))
    np.testing.assert_allclose(areas, [SQ3 / 12] * 3, atol=1e-15)


def test_point_on_edge_degenerates():
    areas = subtriangle_areas(TrianglePoint(1.0, (0.3, 0.7, 0.0)))
    assert areas[0] == pytest.approx(0.0, abs=1e-15)


def test_areas_follow_barycentric_weights():
    # oracle: |PAB|, |PBC|, |PCA| proportional to (w, u, v) of the full area
    p = TrianglePoint(1.0, (0.2, 0.3, 0.5))
    areas = subtriangle_areas(p)
    np.testing.assert_allclose(areas, np.array([0.5, 0.2, 0.3]) * SQ3 / 4, atol=1e-14)


def test_areas_sum_to_total():
    rng = np.random.default_rng(3)
    for side in (0.5, 1.0, 2.0):
        for _ in range(50):
            b = rng.random(3)
            b /= b.sum()
            areas = subtriangle_areas(TrianglePoint(side, tuple(b)))
            assert abs(sum(areas) - total_area(side)) <= 1e-12


def test_barycentric_validation():
    with pytest.raises(ValueError):
        TrianglePoint(1.0, (0.5, 0.6, -0.1))
    with pytest.raises(ValueError):
        TrianglePoint(1.0, (0.5, 0.4, 0.2))
    with pytest.raises(ValueError):
        TrianglePoint(0.0, (0.4, 0.3, 0.3))
    with pytest.raises(ValueError):
        TrianglePoint(math.nan, (0.4, 0.3, 0.3))
    with pytest.raises(ValueError):
        TrianglePoint(math.inf, (0.4, 0.3, 0.3))
    with pytest.raises(ValueError):
        TrianglePoint(1.0, (math.nan, 0.5, 0.5))


def test_vertices_layout():
    v = vertices(2.0)
    np.testing.assert_allclose(v, [[0, 0], [2, 0], [1, SQ3]], atol=1e-15)


def test_centroid_saturates_sum_analog():
    reports = {r.relation: r for r in check_analogs(centroid(1.0))}
    sum_analog = reports[RelationId.R5_TRIPLE_SUM]
    assert sum_analog.lhs == pytest.approx(1.0, abs=1e-12)
    assert sum_analog.rhs == pytest.approx(1.0, abs=1e-12)
    assert sum_analog.saturated
    # the centroid also saturates the product analog (balanced-distance case)
    assert abs(reports[RelationId.R3_TRIPLE_PRODUCT].gap) <= 1e-12


def test_check_analogs_rejects_a_negative_tolerance():
    with pytest.raises(ValueError, match="nonnegative"):
        check_analogs(centroid(1.0), saturation_tol=-1.0)


def test_vertex_degenerates_product_analog():
    reports = {r.relation: r for r in check_analogs(TrianglePoint(1.0, (1.0, 0.0, 0.0)))}
    prod = reports[RelationId.R3_TRIPLE_PRODUCT]
    assert prod.lhs == pytest.approx(0.0, abs=1e-15)
    assert prod.rhs == pytest.approx(0.0, abs=1e-15)


def test_pair_product_analog_never_negative():
    # area = |PA||PB| sin(angle)/2 <= |PA||PB|/2, so the gap is >= 0 pointwise
    rng = np.random.default_rng(9)
    for _ in range(200):
        b = rng.random(3)
        b /= b.sum()
        for rep in check_analogs(TrianglePoint(1.0, tuple(b)))[:3]:
            assert rep.gap >= -1e-15


def test_all_analogs_hold_on_sample():
    for side in (0.5, 1.0, 2.0):
        bary = sample_barycentric(20_000, seed=17)
        gaps = kernels.triangle_scorer(side)(bary)
        assert gaps.min() >= -1e-12


def test_sum_analog_gaps_scale_with_side_squared():
    bary = sample_barycentric(500, seed=23)
    g1 = kernels.triangle_scorer(1.0)(bary)
    g2 = kernels.triangle_scorer(2.0)(bary)
    np.testing.assert_allclose(g2[:, 7], 4.0 * g1[:, 7], rtol=1e-12, atol=1e-14)


def test_equidistant_point_is_only_the_centroid():
    def spread(xy):
        u, v = xy
        w = 1.0 - u - v
        if min(u, v, w) < 0:
            return 1.0 + u * u + v * v  # push back into the triangle
        d = vertex_distances(TrianglePoint(1.0, (u, v, w)))
        return np.var(d)

    best = None
    for start in ((0.2, 0.2), (0.6, 0.2), (0.2, 0.6), (0.4, 0.4)):
        res = minimize(spread, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-18})
        if best is None or res.fun < best.fun:
            best = res
    np.testing.assert_allclose(best.x, [1 / 3, 1 / 3], atol=1e-6)


def test_scan_summary_structure():
    result = scan(5000, seed=2, side=1.0)
    assert set(result.min_gap) == set(TRIANGLE_ANALOG_RELATIONS)
    assert all(g >= -1e-12 for g in result.min_gap.values())
    d = result.to_dict()
    assert d["samples"] == 5000
    assert "R5_TRIPLE_SUM" in d["analogs"]


def test_scan_rejects_empty_or_negative_sample_counts():
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"{n} samples"):
            scan(n, seed=1)


@pytest.mark.parametrize("n", [2.5, True, "3", None])
def test_scan_rejects_a_count_that_is_no_integer_before_drawing(monkeypatch, n):
    # a float count used to fail inside range() with a TypeError, and True ran as one sample
    draws = []
    monkeypatch.setattr(triangle, "sample_barycentric", lambda *args, **kwargs: draws.append(args))
    with pytest.raises(ValueError, match="integer count"):
        scan(n, seed=1)
    assert draws == []


def test_scan_takes_a_numpy_integer_count():
    result = scan(np.int64(700), seed=2)
    assert result == scan(700, seed=2)
    assert type(result.samples) is int  # so that to_dict stays JSON


@pytest.mark.parametrize("side", [math.nan, 0.0, -1.0, math.inf])
def test_scan_checks_the_side_before_drawing(monkeypatch, side):
    draws = []
    monkeypatch.setattr(triangle, "sample_barycentric", lambda *args, **kwargs: draws.append(args))
    with pytest.raises(ValueError, match="side must be positive and finite"):
        scan(3 * kernels.CHUNK_ROWS, seed=1, side=side)
    assert draws == []


def _keyed_scan_draws(n, seed, chunk):
    """Every chunk's barycentric draws, stacked in the order the scan visits them."""
    return np.vstack(
        [sample_barycentric(min(chunk, n - k * chunk), seed, k) for k in range(-(-n // chunk))]
    )


def _assert_scan_matches_direct(result, bary, gaps):
    idx = gaps.argmin(axis=0)
    for i, rel in enumerate(TRIANGLE_ANALOG_RELATIONS):
        assert result.min_gap[rel] == gaps[idx[i], i]
        assert result.argmin_bary[rel] == tuple(bary[idx[i]])


@pytest.mark.parametrize("n", [1000, 3500])
def test_scan_chunked_reduction_matches_direct(monkeypatch, n):
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    result = scan(n, seed=4, side=2.0)
    bary = _keyed_scan_draws(n, 4, 1000)
    assert len(bary) == n
    _assert_scan_matches_direct(result, bary, kernels.triangle_scorer(2.0)(bary))


def test_scan_tied_minima_keep_the_first_occurrence(monkeypatch):
    real = kernels.triangle_scorer  # the scan's scorer, taken before it is faked

    def coarse(bary, side):
        return np.round(real(side)(bary), 1)

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    monkeypatch.setattr(kernels, "triangle_scorer", lambda side: lambda bary, ws=None: coarse(bary, side))
    result = scan(3500, seed=6)
    bary = _keyed_scan_draws(3500, 6, 1000)
    gaps = coarse(bary, 1.0)
    # every chunk attains each rounded minimum, so later chunks tie with the first
    for chunk in np.split(gaps, [1000, 2000, 3000]):
        assert np.array_equal(chunk.min(axis=0), gaps.min(axis=0))
    _assert_scan_matches_direct(result, bary, gaps)


def test_scan_nan_in_a_later_chunk_becomes_the_minimum(monkeypatch):
    real = kernels.triangle_scorer  # the scan's scorer, taken before it is faked
    second_chunk = sample_barycentric(1000, 8, 1)
    calls = []

    def nan_in_second_chunk(bary, side):
        # chunks may be scored on several threads, so the chunk is told by its rows, not by call order
        gaps = real(side)(bary)
        if np.array_equal(bary, second_chunk):
            gaps[7, 0] = np.nan
        calls.append(len(bary))
        return gaps

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    monkeypatch.setattr(kernels, "triangle_scorer", lambda side: lambda bary, ws=None: nan_in_second_chunk(bary, side))
    result = scan(3500, seed=8)
    assert sorted(calls) == [500, 1000, 1000, 1000]
    rel = TRIANGLE_ANALOG_RELATIONS[0]
    assert math.isnan(result.min_gap[rel])
    assert result.argmin_bary[rel] == tuple(sample_barycentric(1000, 8, 1)[7])


def test_sample_barycentric_properties():
    b = sample_barycentric(1000, seed=1)
    assert b.shape == (1000, 3)
    np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)
    assert b.min() >= 0.0
    assert np.array_equal(b, sample_barycentric(1000, seed=1))


def test_sample_barycentric_is_uniform_over_the_triangle():
    # Dirichlet(1, 1, 1): P(min weight < t) = 1 - (1 - 3t)^2, which is 0.51 at t = 0.1
    b = sample_barycentric(400_000, seed=1)
    share = np.mean(b.min(axis=1) < 0.1)
    assert abs(share - 0.51) <= 0.01
