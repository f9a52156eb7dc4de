"""Batch gap kernels and the chunk fold of the random-state soak and the triangle scan.

Each kernel computes a batch's per-axis moments as (3, n) arrays (for qubits
the closed forms of moments.bloch_moments) and applies the relation table
(relations.relation_sides) to them, one output row per relation; the result
is the (n, k) transposed view.
"""

from __future__ import annotations

import math

import numpy as np

from .moments import bloch_moments
from .relations import QUBIT_SOAK_RELATIONS, TRIANGLE_ANALOG_RELATIONS, relation_sides

#: Array library the kernels run on; recorded with benchmark results.
BACKEND = "numpy"

#: Rows per kind that the soak and the triangle scan draw and pass to one
#: kernel call; they reduce chunk by chunk, so memory does not grow with n.
CHUNK_ROWS = 1 << 15


class MinFold:
    """Running per-column minimum of (m, k) gap chunks and the row that attained it.

    min holds the k minima and argmin the (k, w) rows of the chunks' (m, w)
    points that attained them. The first occurrence of a tied minimum wins,
    and a NaN gap becomes the minimum.
    """

    def __init__(self, columns: int, width: int):
        self.min = np.full(columns, np.inf)
        self.argmin = np.zeros((columns, width))

    def add(self, points: np.ndarray, gaps: np.ndarray) -> None:
        idx = gaps.argmin(axis=0)
        chunk_min = gaps[idx, np.arange(len(idx))]
        better = (chunk_min < self.min) | (np.isnan(chunk_min) & ~np.isnan(self.min))
        self.min[better] = chunk_min[better]
        self.argmin[better] = points[idx[better]]


def _batch(points: np.ndarray, what: str) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (n, 3) {what} array, got {points.shape}")
    return points


def _apply_table(relations, d, v, e, h=None, w=None, s=None) -> np.ndarray:
    out = np.empty((len(relations), d.shape[1]))
    for row, relation in zip(out, relations):
        lhs, rhs = relation_sides(relation, d, v, e, h, w, s)
        np.subtract(lhs, rhs, out=row)
    return out.T


def qubit_relation_gaps(bloch: np.ndarray) -> np.ndarray:
    """Gaps (lhs - rhs) of all 16 qubit relations for an (n, 3) Bloch batch.

    Columns follow relations.QUBIT_SOAK_RELATIONS.
    """
    moments = bloch_moments(np.ascontiguousarray(_batch(bloch, "Bloch").T))
    return _apply_table(QUBIT_SOAK_RELATIONS, *moments, 0.5)


def triangle_analog_gaps(bary: np.ndarray, side: float) -> np.ndarray:
    """Gaps of the 8 equilateral-triangle analogs for an (n, 3) barycentric batch.

    The vertex distances |PA|, |PB|, |PC| stand in for the standard
    deviations and the quadrupled areas 4|PBC|, 4|PCA|, 4|PAB| for |<S_i>|.
    Columns follow relations.TRIANGLE_ANALOG_RELATIONS (the analog of each relation).
    """
    cols = _batch(bary, "barycentric").T
    if not (math.isfinite(side) and side > 0):
        raise ValueError(f"side must be positive and finite, got {side}")
    # squared vertex distances from the offsets P - A = v AB + w AC (and cyclically),
    # two edges 60 degrees apart: |PA|^2 = side^2 (v^2 + vw + w^2)
    p, q = cols[[1, 0, 0]], cols[[2, 2, 1]]
    v = (p + q) * p + q * q
    v *= side * side
    d = np.sqrt(v)
    # each sub-triangle area is a barycentric weight times the full area sqrt(3) side^2 / 4
    e = (math.sqrt(3.0) * side * side) * cols
    return _apply_table(TRIANGLE_ANALOG_RELATIONS, d, v, e)
