"""Batch gap scorers and the chunk fold of the random-state soak and the triangle scan.

Every batch gap in the package comes from _apply_table: each scorer computes a
batch's per-axis moments as (3, n) arrays (of Bloch rows, state vectors or
triangle points) and _apply_table applies the relation table
(relations.relation_sides) to them, one row per relation; the result is the
(n, k) transposed view.
"""

from __future__ import annotations

import math

import numpy as np

from .moments import bloch_moments, entr, pure_moments
from .relations import _SPECS, QUBIT_SOAK_RELATIONS, TRIANGLE_ANALOG_RELATIONS, _ops, relation_sides

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


def _apply_table(relations, n: int, d, v, e, h=None, w=None, s=None) -> np.ndarray:
    out = np.empty((len(relations), n))
    for k, relation in enumerate(relations):
        lhs, rhs = relation_sides(relation, d, v, e, h, w, s)
        np.subtract(lhs, rhs, out=out[k])
    return out.T


def qubit_relation_gaps(bloch: np.ndarray, relations=QUBIT_SOAK_RELATIONS) -> np.ndarray:
    """Gaps (lhs - rhs) of qubit relations for an (n, 3) Bloch batch, rows in the closed ball.

    Columns follow `relations`: by default the 16 of relations.QUBIT_SOAK_RELATIONS.
    """
    reads = {name for relation in relations for name in _SPECS[relation].reads}
    cols = np.ascontiguousarray(_batch(bloch, "Bloch").T)
    return _apply_table(relations, cols.shape[1], *bloch_moments(cols, reads), 0.5)


def vector_scorer(relations, twice_s: int):
    """Scorer of (n, d) state vectors at spin twice_s/2 -> (n, k) gaps of `relations`.

    Row k equals evaluate(relation, state k, twice_s).gap without a validated
    QuantumState. Built once per search or scan, it prepares the operator
    stack, plus the eigenbases and pair sums only if a relation reads
    entropies (h) or Var(Si+Sj) (w), and each call computes only the moments
    read. Spin-component spectra are nondegenerate, so outcome probabilities
    are the squared eigenbasis amplitudes with no eigenvalue merging.
    """
    ops = np.array(_ops(twice_s).as_tuple(), dtype=complex)
    reads = {name for relation in relations for name in _SPECS[relation].reads}
    # (3, d, d) with eigenvectors as columns: psis @ basis[i] are the amplitudes in S_i's eigenbasis
    basis = np.linalg.eigh(ops)[1].conj() if "h" in reads else None
    pairs = ops + ops[[1, 2, 0]] if "w" in reads else None

    def score(psis: np.ndarray) -> np.ndarray:
        d = v = e = h = w = None
        if not reads.isdisjoint("dve"):
            e, v = pure_moments(psis, ops)
            d = np.sqrt(v) if "d" in reads else None
        if basis is not None:
            a = psis @ basis
            h = entr(a.real**2 + a.imag**2).sum(axis=-1)
        if pairs is not None:
            w = pure_moments(psis, pairs)[1]
        return _apply_table(relations, len(psis), d, v, e, h, w, twice_s / 2)

    return score


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
    return _apply_table(TRIANGLE_ANALOG_RELATIONS, cols.shape[1], d, v, e)
