"""Expectations, variances, outcome distributions, and Shannon entropies.

The scalar functions take moments of one validated state by the matrix and
spectral route (traces and eigendecompositions); no evaluator calls them, and
tests hold the two fast routes to them at 1e-12: pure_moments takes
means and variances of states given as columns, bloch_moments the closed-form
moments of qubits from their Bloch vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, TripleSpinError
from .states import HERMITICITY_TOL, QuantumState

IMAG_RESIDUE_TOL = 1e-12
#: Eigenvalues closer than this are treated as one degenerate outcome.
EIGENVALUE_MERGE_TOL = 1e-9
VARIANCE_FLOOR = -1e-12


def _check_pair(state: QuantumState, op: np.ndarray) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionMismatchError(f"observable must be a square matrix, got {op.shape}")
    if op.shape[0] != state.dim:
        raise DimensionMismatchError(f"state dim {state.dim} vs observable dim {op.shape[0]}")
    if not np.isfinite(op).all():  # first: a NaN residual passes the test below
        raise TripleSpinError("observable has non-finite entries")
    herm = np.max(np.abs(op - op.conj().T))
    if herm > HERMITICITY_TOL:
        raise NotHermitianError(f"observable not Hermitian: residual {herm:.3e}")
    return op


def expectation(state: QuantumState, op: np.ndarray) -> float:
    """tr(rho O) for a Hermitian observable O."""
    op = _check_pair(state, op)
    val = np.einsum("ij,ji->", state.rho, op)
    if abs(val.imag) > IMAG_RESIDUE_TOL:
        raise TripleSpinError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def variance(state: QuantumState, op: np.ndarray) -> float:
    """<O^2> - <O>^2, with tiny negative radicands clamped to zero.

    Evaluated in the centered form tr(rho (O - <O>)^2), which is free of the
    catastrophic cancellation the raw moment difference suffers near
    eigenstates; near-saturating searches rely on that accuracy.
    """
    op = _check_pair(state, op)
    e1 = np.einsum("ij,ji->", state.rho, op).real
    centered = op - e1 * np.eye(op.shape[0])
    rad = float(np.einsum("ij,jk,ki->", state.rho, centered, centered).real)
    if rad < VARIANCE_FLOOR:
        raise TripleSpinError(f"negative variance {rad:.3e} signals corrupted inputs")
    return max(rad, 0.0)


def std_dev(state: QuantumState, op: np.ndarray) -> float:
    """Standard deviation sqrt(<O^2> - <O>^2)."""
    return float(np.sqrt(variance(state, op)))


def outcome_distribution(state: QuantumState, op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projective-measurement outcomes of O: (eigenvalues, probabilities p_k = tr(rho P_k)).

    Eigenvalues are sorted descending. Neighbours within EIGENVALUE_MERGE_TOL
    are one degenerate outcome: its eigenvalue is their mean and its
    probability their sum.
    """
    op = _check_pair(state, op)
    eigvals, eigvecs = np.linalg.eigh(op)
    # eigh returns ascending order; work in descending order
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    probs = np.einsum("ij,jk,ki->i", eigvecs.conj().T, state.rho, eigvecs).real
    starts = np.flatnonzero(np.r_[True, np.abs(np.diff(eigvals)) > EIGENVALUE_MERGE_TOL])
    eigvals = np.add.reduceat(eigvals, starts) / np.diff(np.r_[starts, eigvals.size])
    probs = np.add.reduceat(probs, starts)

    total = float(np.sum(probs))
    if abs(total - 1.0) > 1e-10:
        raise TripleSpinError(f"outcome probabilities sum to {total}, not 1")
    if np.any(probs < -1e-12):
        raise TripleSpinError("negative outcome probability beyond tolerance")
    return eigvals, probs


def shannon_entropy(state: QuantumState, op: np.ndarray) -> float:
    """Shannon entropy, in nats, of O's outcome distribution; tolerated tiny negative p count as 0."""
    return float(entr(np.maximum(outcome_distribution(state, op)[1], 0.0)).sum())


def entr(p):
    """Elementwise -p log p: 0 at p = 0, NaN for NaN (and for negative p).

    The entropy summand of every fast route; a NaN probability stays NaN so
    that a broken input shows up in the gap instead of reading as certainty.
    """
    p = np.asarray(p, dtype=float)
    # log 1 = 0 stands in at p = 0, the limit of p log p; "0.0 -" keeps that zero positive
    return 0.0 - p * np.log(np.where(p == 0.0, 1.0, p))


def pure_moments(cols: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means sum_c <g_c|O|g_c> and centred variances sum_c ||(O - <O>) g_c||^2.

    cols is an (n, r, d) batch, state k being rho = sum_c g_c g_c^dag over its
    r columns (a state vector is r = 1), and ops a (k, d, d) stack of
    observables; both results are (k, n). The centred form is nonnegative by
    construction and accurate near eigenstates. np.matvec makes one product of
    the stacked (k d, d) operators per column, so a state's bits do not depend
    on its batch, as a batched matmul's would.
    """
    cols, ops = np.asarray(cols), np.asarray(ops)
    if cols.ndim != 3 or ops.ndim != 3:
        raise ValueError(f"expected (n, r, d) columns and (k, d, d) operators, got {cols.shape} and {ops.shape}")
    # O g for every operator, state and column axes first: (n, r, k, d)
    og = np.matvec(ops.reshape(-1, ops.shape[-1]), cols).reshape(*cols.shape[:2], *ops.shape[:-1])
    cols = cols[:, :, None, :]
    e = column_sum(np.vecdot(cols, og).real)  # vecdot conjugates its first argument
    res = og - e[:, None, :, None] * cols
    v = column_sum(np.vecdot(res, res).real)
    return e.T, v.T


def column_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the column axis (axis 1) of an (n, r, ...) array; at r = 1, that column."""
    return a[:, 0] if a.shape[1] == 1 else a.sum(axis=1)


def bloch_moments(r: np.ndarray, reads):
    """Closed-form qubit moments (d, v, e, h, w) of Bloch rows r, shape (3, ...).

    Row i holds, for the component S_i:
        e = <S_i>            = r_i / 2
        v = (Delta S_i)^2    = (1 - r_i^2) / 4, d = Delta S_i
        h = H(S_i)           = binary entropy of (1 + r_i)/2 in nats
        w = Var(S_i + S_j)   = 1/2 - (r_i + r_j)^2 / 4, j = i + 1 mod 3
    in the argument order of relations.relation_sides; h and w only if in reads.
    """
    e = r / 2.0
    v = np.maximum(1.0 - r * r, 0.0) / 4.0
    h = None
    if "h" in reads:
        p = np.minimum(np.maximum((1.0 + r) / 2.0, 0.0), 1.0)  # np.clip, without its call overhead
        h = entr(p) + entr(1.0 - p)
    w = 0.5 - pair_sums(r) ** 2 / 4.0 if "w" in reads else None
    return np.sqrt(v), v, e, h, w


def pair_sums(x):
    """x_i + x_j along axis 0, j = i + 1 mod 3: the pairs (x, y), (y, z), (z, x) of the pair-sum moments w."""
    return x + x[[1, 2, 0]]
