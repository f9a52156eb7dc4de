"""Equilateral-triangle analog of the pairwise and triple spin relations.

A point P inside an equilateral triangle ABC plays the role of a qubit
state: the vertex distances |PA|, |PB|, |PC| stand in for the three standard
deviations, and the quadrupled sub-triangle areas 4|PAB|, 4|PBC|, 4|PCA|
stand in for |<Sz>|, |<Sx>|, |<Sy>|. Under that substitution the pair
product, triple product, pair sum, and triple sum relations all hold, with
the same tau = 2/sqrt(3) tightening in the triple forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .relations import SATURATION_TOL, TRIANGLE_ANALOG_RELATIONS, RelationId, RelationReport, _reports, table_plan
from .rng import stream

_SQRT3_2 = math.sqrt(3.0) / 2.0
BARYCENTRIC_TOL = 1e-12


@dataclass(frozen=True)
class TrianglePoint:
    """Point in the closed triangle, in barycentric coordinates (u, v, w)."""

    side: float
    bary: tuple[float, float, float]

    def __post_init__(self):
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"side must be positive and finite, got {self.side}")
        u, v, w = self.bary
        if not all(math.isfinite(x) for x in self.bary):
            raise ValueError(f"barycentric coordinates {self.bary} are not finite")
        if min(u, v, w) < -BARYCENTRIC_TOL or abs(u + v + w - 1.0) > BARYCENTRIC_TOL:
            raise ValueError(f"barycentric coordinates {self.bary} outside the closed triangle")

    def cartesian(self) -> tuple[float, float]:
        _, v, w = self.bary
        return (self.side * (v + 0.5 * w), self.side * _SQRT3_2 * w)


def vertices(side: float) -> np.ndarray:
    """Canonical vertices A=(0,0), B=(side,0), C=(side/2, side*sqrt(3)/2)."""
    return np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, _SQRT3_2 * side]])


def vertex_distances(p: TrianglePoint) -> tuple[float, float, float]:
    """Euclidean distances (|PA|, |PB|, |PC|)."""
    px, py = p.cartesian()
    verts = vertices(p.side)
    return tuple(float(math.hypot(px - vx, py - vy)) for vx, vy in verts)


def _shoelace(p1, p2, p3) -> float:
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return 0.5 * abs(x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))


def subtriangle_areas(p: TrianglePoint) -> tuple[float, float, float]:
    """Areas (|PAB|, |PBC|, |PCA|); they sum to the full triangle area."""
    pt = p.cartesian()
    a, b, c = vertices(p.side)
    return (_shoelace(pt, a, b), _shoelace(pt, b, c), _shoelace(pt, c, a))


def total_area(side: float) -> float:
    return side * side * math.sqrt(3.0) / 4.0


def check_analogs(p: TrianglePoint, saturation_tol: float = SATURATION_TOL) -> list[RelationReport]:
    """Evaluate the eight analog inequalities at one point.

    Returns one report per instance, tagged with the id of the spin relation
    it mirrors (three pair products, triple product, three pair sums, triple
    sum), from one walk of their table pass on the point's moments.
    """
    d = np.array(vertex_distances(p))[:, None]
    area_pab, area_pbc, area_pca = subtriangle_areas(p)
    e = np.array([4.0 * area_pbc, 4.0 * area_pca, 4.0 * area_pab])[:, None]
    return _reports(table_plan(TRIANGLE_ANALOG_RELATIONS), {"d": d, "v": d * d, "e": e}, saturation_tol)


def sample_barycentric(n: int, seed: int, *key: int, out=None) -> np.ndarray:
    """(n, 3) points uniform over the triangle, as barycentric weights, from stream (seed, *key).

    Normalized standard exponential triples are Dirichlet(1, 1, 1), the
    uniform distribution on the simplex. The stream fills (3, n) columns
    (u, v, w), out if given (a C-contiguous (3, n) array, with the bits of a
    fresh draw), which are normalized in place; the result is their (n, 3)
    transposed view, so b.T gives the kernel contiguous columns. Seeded
    draws therefore differ from those of an (n, 3) row layout on the same
    stream.
    """
    x = stream(seed, *key).standard_exponential((3, n), out=out)
    x /= x.sum(axis=0)  # in place: a second (3, n) array raises peak memory
    return x.T


@dataclass(frozen=True)
class TriangleScan:
    """Minimum analog gaps over a sampled point cloud for one side length."""

    side: float
    samples: int
    seed: int
    min_gap: dict[RelationId, float]
    argmin_bary: dict[RelationId, tuple[float, float, float]]

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "samples": self.samples,
            "seed": self.seed,
            "analogs": {
                rel.value: {
                    "min_gap": self.min_gap[rel],
                    "argmin_barycentric": list(self.argmin_bary[rel]),
                }
                for rel in self.min_gap
            },
        }


def scan(n: int, seed: int, side: float = 1.0) -> TriangleScan:
    """Sample n interior points and record the minimum gap per analog.

    Chunk k draws up to kernels.CHUNK_ROWS points from stream (seed, k) into
    its worker's workspace, and its gaps are folded into the minimum and
    argmin per analog (kernels.fold_chunks), so memory stays constant in n.
    The count (an int or numpy integer, not a bool, at least 1) and the side
    are checked before any chunk is drawn.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"triangle scan needs an integer count of at least one sample, got {n!r} samples")
    rel_ids = TRIANGLE_ANALOG_RELATIONS
    chunk = kernels.CHUNK_ROWS
    score = kernels.triangle_scorer(side)

    def draw(k: int, ws):
        m = min(chunk, n - k * chunk)
        yield sample_barycentric(m, seed, k, out=ws.take("points", (3, m)))

    mins, rows, _ = kernels.fold_chunks(-(-n // chunk), draw, score)
    return TriangleScan(
        side=side,
        samples=int(n),
        seed=seed,
        min_gap={rel: float(m) for rel, m in zip(rel_ids, mins)},
        argmin_bary={rel: tuple(map(float, r)) for rel, r in zip(rel_ids, rows)},
    )


def centroid(side: float = 1.0) -> TrianglePoint:
    third = 1.0 / 3.0
    return TrianglePoint(side, (third, third, third))
