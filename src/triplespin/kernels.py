"""Batch gap scorers and the chunk fold of the random-state soak and the triangle scan.

Each scorer computes a batch's per-axis moments as (3, n) arrays (of Bloch
rows, column sets or triangle points), and _apply_table walks the table pass
that relations.table_plan built once for the scorer's relations
(relations.walk), subtracting each step's sides into a (k, n) gaps array
whose (n, k) transposed view it returns. The pass computes each shared term
(relations.TERMS) once and evaluates a family of formulas, such as a whole
cyclic group, in one call that writes the family's rows at once. Few, large
numpy calls keep two fold workers scoring at once, since each call is a
point where the GIL can pass between them. Formulas and constants stay in
the relation table. States have two moment routes: stack_moments on any operator stack (its
cached spin form column_moments serves relations.evaluate and the prober) and
the Bloch closed form, moments.bloch_moments (the soak's).

fold_chunks is the one chunk loop of the soak and the triangle scan: it
reduces every block, chunk and thread result with np.argmin's order, so its
minima and their points equal one argmin over all gaps in draw order. Each of
its workers draws and scores into one Workspace for the whole fold, so a scan
pages its buffers in once, not once per chunk. It is the only code in the
package that starts threads.
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import lru_cache, partial

import numpy as np

from .moments import bloch_moments, column_sum, entr, pair_sums, pure_moments
from .relations import QUBIT_SOAK_RELATIONS, TRIANGLE_ANALOG_RELATIONS, table_plan, walk
from .spin_ops import build_spin_operators

#: Array library the kernels run on; recorded with benchmark results.
BACKEND = "numpy"

#: Rows per kind that the soak and the triangle scan draw from one stream;
#: they reduce chunk by chunk, so memory does not grow with n.
CHUNK_ROWS = 1 << 15

#: Rows of a chunk scored per kernel call, so a call's temporaries stay in
#: cache; the gaps are elementwise, so blocks change no bit of the result.
BLOCK_ROWS = CHUNK_ROWS // 4


def _scan_workers() -> int:
    """CPUs this process may run on: the most threads fold_chunks starts."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _least(gaps: np.ndarray, rows: np.ndarray):
    """Column minima of (j, k) gaps and the matching (k, w) rows of (j, k, w) rows.

    np.argmin's order decides: the first of tied minima wins, and a NaN is the minimum.
    """
    i, k = gaps.argmin(axis=0), np.arange(gaps.shape[1])
    return gaps[i, k], rows[i, k]


class Workspace:
    """Float64 buffers that one fold worker keeps from chunk to chunk (see fold_chunks)."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Buffer `name` as a C-contiguous array of `shape`, holding what the last take left.

        The buffer is allocated at the first take of the name and again only
        when a take needs more room; takes of one name share memory.
        """
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)


def fold_chunks(chunks: int, draw, score, tolerance: float | None = None):
    """Fold the (m, k) gaps score(block, ws) over the points draw(c, ws) of chunks c = 0..chunks-1.

    draw(c, ws) gives chunk c's (m, w) points as parts, in draw order, and
    each part is scored in blocks of BLOCK_ROWS rows before the next part is
    taken, so a lazy draw may fill one buffer with part after part. ws is the
    Workspace of the worker running chunk c: one per worker, kept from chunk to
    chunk and dropped when the fold returns, which draw and score may fill and
    return views of (a score's gaps are used up before its next call). Returns
    (mins, rows, counts): the (k,) column minima over all gaps and the (k, w)
    points that attained them, in np.argmin's order over the gaps in draw
    order (the first of tied minima wins, and a NaN is the minimum), and, with
    a tolerance, the (k,) counts of gaps not at or above -tolerance (NaN
    counts), else None. Each chunk reduces its block minima, and the chunks'
    results are merged in chunk order, so memory stays constant in the chunk
    count. Chunks run on up to _scan_workers() threads, all joined and their
    freed heap trimmed before this returns, and the result does not depend on
    the thread count. One chunk or one CPU runs in the calling thread.
    """
    if chunks < 1:
        raise ValueError(f"need at least one chunk, got {chunks}")
    spare = []  # workspaces between chunks, at most one per worker; pop and append are atomic, so no lock

    def one(c: int):
        try:
            ws = spare.pop()
        except IndexError:
            ws = Workspace()
        mins, rows, counts = [], [], 0  # counts stays 0 until a block has gaps to count
        for points in draw(c, ws):
            for start in range(0, len(points), BLOCK_ROWS):
                block = points[start : start + BLOCK_ROWS]
                gaps = score(block, ws)
                i = gaps.argmin(axis=0)
                mins.append(gaps[i, np.arange(len(i))])
                rows.append(block[i])
                # a block whose every column minimum clears -tolerance has nothing to count
                if tolerance is not None and not (mins[-1] >= -tolerance).all():
                    counts = counts + np.count_nonzero(~(gaps >= -tolerance), axis=0)
        spare.append(ws)
        return *_least(np.array(mins), np.array(rows)), counts

    def merged(parts):
        mins, rows, counts = next(parts)
        for part_mins, part_rows, part_counts in parts:
            mins, rows = _least(np.array([mins, part_mins]), np.array([rows, part_rows]))
            counts = counts + part_counts
        return mins, rows, (np.zeros(len(mins), dtype=np.int64) + counts if tolerance is not None else None)

    workers = min(_scan_workers(), chunks)
    if workers < 2:
        return merged(map(one, range(chunks)))
    # imported here: a one-chunk run (every short CLI command) skips the import cost
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        return merged(pool.map(one, range(chunks)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        # the workers' malloc arenas keep what they freed in holes laid out by how the
        # threads interleaved, which would set the next scan's peak RSS (6 MB apart from
        # run to run at 750000-state soaks); glibc's malloc_trim hands those pages back
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None
        if trim is not None:
            trim(0)


def _apply_table(plan, n: int, moments, cols, s=None, ws=None) -> np.ndarray:
    """(n, k) gaps of the plan's k relations (relations.table_plan) on the moments(cols) of n points.

    moments(cols) gives the (d, v, e, h, w) of the points; the walk holds the
    only references to them and to its terms, and drops each after the last
    step that reads it, so a block's peak memory stays that of its moments.
    Each gap step subtracts its rows, one relation's or a family's, straight
    into a (k, n) array, ws's "gaps" buffer or a fresh one; the result is its
    transposed view.
    """
    out = np.empty((len(plan.relations), n)) if ws is None else ws.take("gaps", (len(plan.relations), n))
    values = {name: moment for name, moment in zip("dvehw", moments(cols)) if name in plan.reads}
    values["s"] = s
    walk(plan, values, lambda target, lhs, rhs: np.subtract(lhs, rhs, out=out[target]))
    return out.T


def bloch_scorer(relations=QUBIT_SOAK_RELATIONS):
    """Scorer (bloch, ws=None) -> (n, k) gaps of `relations` for (n, 3) Bloch rows in the closed ball.

    The relations' reads are taken once, here. Given a fold worker's Workspace
    ws, the gaps are written to its "gaps" buffer, which the next call
    overwrites; else to a fresh array. The rows may be any (n, 3) view, such
    as the soak's blocks of columns of its draw buffer: every moment is
    elementwise, so no bit depends on the layout.
    """
    plan = table_plan(relations)
    moments = partial(bloch_moments, reads=plan.reads)

    def score(bloch: np.ndarray, ws=None) -> np.ndarray:
        cols = bloch.T
        return _apply_table(plan, cols.shape[1], moments, cols, 0.5, ws)

    return score


@lru_cache(maxsize=64)
def column_moments(twice_s: int, reads: frozenset):
    """stack_moments on the spin stack (Sx, Sy, Sz) of spin twice_s/2, built once per spin and reads."""
    return stack_moments(build_spin_operators(twice_s), reads)


def stack_moments(ops: np.ndarray, reads: frozenset):
    """Builder of the moments (d, v, e, h, w) of (n, r, d) column sets on a (3, d, d) Hermitian stack.

    State k is rho = sum_c g_c g_c^dag over its r columns (a state vector is
    r = 1; see moments.pure_moments). Each moment is (3, n), a row per operator,
    or None unless `reads` names it; the eigenbases and pair sums are built only
    for h and w. Outcome probabilities are the squared eigenbasis amplitudes,
    summed over columns, with no eigenvalue merging: h needs nondegenerate spectra.
    """
    # (3 d, d): the conjugated eigenvectors of the three operators as rows, so
    # that np.matvec(basis, g) holds g's amplitudes in the three eigenbases
    basis = np.linalg.eigh(ops)[1].conj().swapaxes(-1, -2).reshape(-1, ops.shape[-1]) if "h" in reads else None
    pairs = pair_sums(ops) if "w" in reads else None
    mean_var, sd = not reads.isdisjoint("dve"), "d" in reads

    def moments(cols: np.ndarray):
        d = v = e = h = w = None
        if mean_var:
            e, v = pure_moments(cols, ops)
            if sd:
                d = np.sqrt(v)
        if basis is not None:
            a = np.matvec(basis, cols)
            h = entr(column_sum(a.real**2 + a.imag**2).reshape(len(cols), 3, -1)).sum(axis=-1).T
        if pairs is not None:
            w = pure_moments(cols, pairs)[1]
        return d, v, e, h, w

    return moments


def vector_scorer(relations, twice_s: int):
    """Scorer of (n, r d) unit rows at spin twice_s/2 -> (n, k) gaps of `relations`.

    Row k is read as r columns g_c of length d, the state rho = sum_c g_c g_c^dag
    (a state vector is r = 1); r comes from the row width. Row k's gaps equal
    evaluate(relation, state k, twice_s).gap and do not depend on the other
    rows of its batch (see moments.pure_moments), so the batch is scored in
    blocks of at most CHUNK_ROWS columns, which bound its temporaries.
    """
    plan = table_plan(relations)
    moments = column_moments(twice_s, plan.reads)
    dim, s = twice_s + 1, twice_s / 2

    def score(rows: np.ndarray) -> np.ndarray:
        cols = rows.reshape(len(rows), -1, dim)
        step = max(CHUNK_ROWS // cols.shape[1], 1)
        if len(cols) > step:
            return np.vstack([score(cols[start : start + step]) for start in range(0, len(cols), step)])
        return _apply_table(plan, len(cols), moments, cols, s)

    return score


def triangle_scorer(side: float):
    """Scorer (bary, ws=None) -> (n, 8) analog gaps of (n, 3) barycentric rows, triangle side `side`.

    The side is checked once, here. The vertex distances |PA|, |PB|, |PC|
    stand in for the standard deviations and the quadrupled areas 4|PBC|,
    4|PCA|, 4|PAB| for |<S_i>|. Columns follow relations.TRIANGLE_ANALOG_RELATIONS
    (the analog of each relation); ws and the rows' layout are as in bloch_scorer.
    """
    if not (math.isfinite(side) and side > 0):
        raise ValueError(f"side must be positive and finite, got {side}")
    area = math.sqrt(3.0) * side * side
    plan = table_plan(TRIANGLE_ANALOG_RELATIONS)

    def moments(cols: np.ndarray):
        # squared vertex distances from the offsets P - A = v AB + w AC (and cyclically),
        # two edges 60 degrees apart: |PA|^2 = side^2 (v^2 + vw + w^2)
        p, q = cols[[1, 0, 0]], cols[[2, 2, 1]]
        v = (p + q) * p + q * q
        v *= side * side
        # each sub-triangle area is a barycentric weight times the full area sqrt(3) side^2 / 4
        return np.sqrt(v), v, area * cols, None, None

    def score(bary: np.ndarray, ws=None) -> np.ndarray:
        cols = bary.T
        return _apply_table(plan, cols.shape[1], moments, cols, ws=ws)

    return score
