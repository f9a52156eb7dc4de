"""Derivative-free search for minimum-gap and saturating states.

The gap objective scores batches of states; only the simplex search
parametrizes them. Pure states in dimension d become 2d-1 unconstrained
reals (first amplitude real nonnegative, renormalized at every evaluation),
so the search never leaves the state manifold. For the qubit, an optional
mixed-state mode searches the closed Bloch ball instead. Gaps involve
absolute values and square roots with kinks at saturation, so local
refinement uses the Nelder-Mead simplex rather than gradients. All
restarts of a search advance together, one batched objective call per
simplex stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .errors import TripleSpinError
from .moments import bloch_moments, entr, pure_moments
from .relations import _SPECS, RelationId, _ops, check_applicable, evaluate, relation_sides
from .spin_ops import Spin, _as_spin
from .states import (
    QuantumState,
    density_from_bloch,
    from_statevector,
    random_mixed_bloch,
    random_pure_vectors,
    state_to_json_dict,
)

#: A scan minimum below -this is reported as a conjecture counterexample candidate.
COUNTEREXAMPLE_TOL = 1e-8
#: Number of smallest-gap conjecture-scan samples refined with Nelder-Mead.
_REFINEMENTS = 10

_XATOL = 1e-8
# scipy's non-adaptive Nelder-Mead coefficients and initial-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
#: Weights (a, b) of the second point a xbar - b worst: expansion, outside and inside contraction.
_SECOND_POINT = np.array([[1 + _RHO * _CHI, _RHO * _CHI], [1 + _PSI * _RHO, _PSI * _RHO], [1 - _PSI, -_PSI]])


@dataclass(frozen=True)
class ProbeConfig:
    restarts: int = 64
    max_iters: int = 2000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")


@dataclass(frozen=True, eq=False)
class ProbeResult:
    relation: RelationId
    spin: Spin
    min_gap: float
    argmin_state: QuantumState
    converged: bool
    evaluations: int
    best_restart: int
    #: Final objective value of each restart (each refinement, for a
    #: conjecture scan) in run order; agreeing_restarts of them are within
    #: cfg.tol of the lowest, and best_restart is the first of those.
    restart_gaps: tuple[float, ...]
    agreeing_restarts: int

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "twice_s": self.spin.twice_s,
            "min_gap": self.min_gap,
            "argmin_state": state_to_json_dict(self.argmin_state),
            "converged": self.converged,
            "evaluations": self.evaluations,
            "best_restart": self.best_restart,
            "restart_gaps": list(self.restart_gaps),
            "agreeing_restarts": self.agreeing_restarts,
        }


def _psi_from_params(x: np.ndarray, dim: int) -> np.ndarray:
    """Normalized state vectors, shape (..., dim), from parameter rows (..., 2 dim - 1)."""
    x = np.asarray(x, dtype=float)
    # interleaved (re, im) pairs; the first amplitude is |x_0| with zero imaginary part
    pairs = np.zeros(x.shape[:-1] + (2 * dim,))
    pairs[..., 0] = np.abs(x[..., 0])
    pairs[..., 2:] = x[..., 1:]
    norm = np.sqrt(np.sum(pairs * pairs, axis=-1, keepdims=True))
    zero = norm == 0.0
    pairs[..., :1][zero] = 1.0
    norm[zero] = 1.0
    return pairs.view(complex) / norm


def _params_from_vector(psi: np.ndarray) -> np.ndarray:
    """Parameter rows (..., 2 dim - 1) of state vectors (..., dim); inverse of _psi_from_params."""
    # rotate each vector's global phase so that its first amplitude is real nonnegative
    psi = np.asarray(psi, dtype=complex)
    psi = psi * np.exp(-1j * np.angle(psi[..., :1]))
    x = np.empty(psi.shape[:-1] + (2 * psi.shape[-1] - 1,))
    x[..., 0] = psi[..., 0].real
    x[..., 1::2] = psi[..., 1:].real
    x[..., 2::2] = psi[..., 1:].imag
    return x


def _bloch_from_params(x: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3): rows of x outside the unit ball projected onto its surface."""
    r = np.asarray(x, dtype=float)
    return r / np.maximum(np.linalg.norm(r, axis=-1, keepdims=True), 1.0)


def _states_from_params(x: np.ndarray, dim: int, mixed: bool) -> np.ndarray:
    """States at parameter rows x: state vectors (..., dim) or, with mixed=True, Bloch rows (..., 3)."""
    return _bloch_from_params(x) if mixed else _psi_from_params(x, dim)


def gap_objective(relation: RelationId, spin: Spin | int, mixed: bool = False):
    """The search objective: a batch of m states -> (m,) gaps of `relation`.

    The states are (m, d) normalized state vectors or, with mixed=True, (m, 3)
    qubit Bloch rows in the closed unit ball. Row k's gap equals
    evaluate(relation, state, spin).gap at state k, but moments go straight to
    relations.relation_sides without building validated QuantumStates. Bloch
    rows take the closed-form moments.bloch_moments; state vectors take
    moments.pure_moments over the operator stack, plus the eigenbases if the
    formula reads entropies (h) and the pair sums if it reads Var(Si+Sj) (w),
    all prepared once here. Spin-component spectra are nondegenerate, so
    outcome probabilities are the squared amplitudes in the eigenbasis with
    no eigenvalue merging.
    """
    spin = _as_spin(spin)
    if mixed and spin.twice_s != 1:
        raise ValueError("mixed-state probing uses the Bloch ball and needs spin 1/2")
    s = spin.s
    if mixed:

        def bloch_objective(bloch):
            lhs, rhs = relation_sides(relation, *bloch_moments(bloch.T), s)
            return lhs - rhs

        return bloch_objective

    ops = np.array(_ops(spin.twice_s).as_tuple(), dtype=complex)
    reads = _SPECS[relation].reads
    # (3, d, d) with eigenvectors as columns: psis @ basis[i] are the amplitudes in S_i's eigenbasis
    basis = np.linalg.eigh(ops)[1].conj() if "h" in reads else None
    pairs = ops + ops[[1, 2, 0]] if "w" in reads else None

    def objective(psis):
        e, v = pure_moments(psis, ops)
        h = w = None
        if basis is not None:
            a = psis @ basis
            h = entr(a.real**2 + a.imag**2).sum(axis=-1)
        if pairs is not None:
            w = pure_moments(psis, pairs)[1]
        lhs, rhs = relation_sides(relation, np.sqrt(v), v, e, h, w, s)
        return lhs - rhs

    return objective


def _param_objective(relation: RelationId, spin: Spin | int, mixed: bool = False):
    """_search's simplex objective: gap_objective of _states_from_params, (m, n) rows to (m,) gaps."""
    objective = gap_objective(relation, spin, mixed)
    dim = _as_spin(spin).dim
    return lambda x: objective(_states_from_params(x, dim, mixed))


@dataclass(frozen=True)
class SimplexRuns:
    """Outcome of lockstep_nelder_mead, one row per start.

    x is the best vertex, fun the lowest simplex value (NaN if any vertex
    is NaN), nit the iterations, nfev the objective evaluations, and
    success whether the run met the xatol/fatol test before max_iters.
    """

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray
    success: np.ndarray


def _batch_values(objective, points: np.ndarray) -> np.ndarray:
    values = np.asarray(objective(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"objective returned shape {values.shape} for {len(points)} points")
    return values


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray):
    rows = np.arange(len(fsim))[:, None]
    order = np.argsort(fsim, axis=1)
    return sim[rows, order], fsim[rows, order]


def lockstep_nelder_mead(objective, x0: np.ndarray, max_iters: int, fatol: float) -> SimplexRuns:
    """Nelder-Mead from each row of x0 (m, n), all runs advancing together.

    objective maps (k, n) points to (k,) values. Each run follows the
    sequence of scipy.optimize.minimize(method="Nelder-Mead") with
    maxiter=max_iters, xatol=1e-8 and fatol=fatol (Nelder & Mead, Comput.
    J. 7, 308, 1965): coefficients 1, 2, 1/2, 1/2, the initial simplex x0
    with one coordinate at a time raised 5% (or set to 0.00025 when it is
    0), the xatol/fatol test, and the argsort re-ordering of every simplex
    after each step. An iteration makes at most three batched calls: all
    reflections, then each run's one expansion or contraction point, then
    all shrink points. A run whose values equal the scalar function's
    reproduces scipy's result exactly.
    """
    sim0 = np.array(x0, dtype=float)
    m, n = sim0.shape
    sim = np.repeat(sim0[:, None, :], n + 1, axis=1)
    axes = np.arange(n)
    sim[:, axes + 1, axes] = np.where(sim0 != 0, (1 + _NONZDELT) * sim0, _ZDELT)
    fsim = _batch_values(objective, sim.reshape(-1, n)).reshape(m, n + 1)
    # scipy sorts the initial simplex twice; an unstable sort may move ties again
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))

    x, fun = np.empty((m, n)), np.empty(m)
    nit, nfev = np.ones(m, dtype=np.int64), np.full(m, n + 1, dtype=np.int64)
    success = np.zeros(m, dtype=bool)
    live = np.arange(m)

    def finish(rows, iterations, converged):
        done = live[rows]
        x[done], fun[done] = sim[rows, 0], fsim[rows].min(axis=1)
        nit[done], success[done] = iterations, converged

    iterations = 1
    while iterations < max_iters:
        converged = (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _XATOL) & (
            np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
        )
        if converged.any():
            finish(converged, iterations, True)
            live, sim, fsim = live[~converged], sim[~converged], fsim[~converged]
            if not live.size:
                break

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = _batch_values(objective, xr)
        nfev[live] += 1

        # scipy's branch on the reflected value: -1 accepts it, otherwise the row of
        # _SECOND_POINT to try (0 expand, 1 contract outside, 2 contract inside)
        step = np.where(fxr < fsim[:, 0], 0, np.where(fxr < fsim[:, -2], -1, np.where(fxr < fsim[:, -1], 1, 2)))
        second = np.flatnonzero(step >= 0)
        shrink = second[:0]
        if second.size:
            kind = step[second]
            weights = _SECOND_POINT[kind]
            x2 = weights[:, :1] * xbar[second] - weights[:, 1:] * worst[second]
            f2 = _batch_values(objective, x2)
            nfev[live[second]] += 1
            fr = fxr[second]
            better = np.where(kind == 0, f2 < fr, np.where(kind == 1, f2 <= fr, f2 < fsim[second, -1]))
            # from here xr, fxr hold each run's replacement for its worst vertex
            xr[second[better]], fxr[second[better]] = x2[better], f2[better]
            shrink = second[~better & (kind > 0)]
        if shrink.size:
            best = sim[shrink, :1]
            points = best + _SIGMA * (sim[shrink, 1:] - best)
            sim[shrink, 1:] = points
            fsim[shrink, 1:] = _batch_values(objective, points.reshape(-1, n)).reshape(-1, n)
            nfev[live[shrink]] += n
            xr[shrink], fxr[shrink] = sim[shrink, -1], fsim[shrink, -1]
        sim[:, -1], fsim[:, -1] = xr, fxr

        iterations += 1
        sim, fsim = _sort_simplices(sim, fsim)
    finish(slice(None), iterations, False)
    return SimplexRuns(x=x, fun=fun, nit=nit, nfev=nfev, success=success)


def min_gap(
    relation: RelationId,
    spin: Spin | int,
    cfg: ProbeConfig = ProbeConfig(),
    mixed: bool = False,
) -> ProbeResult:
    """Minimize the gap of one relation over states of the given spin.

    Runs cfg.restarts independent Nelder-Mead searches from Haar-random pure
    starts (or Hilbert-Schmidt Bloch-ball points when mixed=True, qubit only)
    and keeps the best result (see _search). Restart r starts from the states
    samplers' draw on stream (seed, r), so the result is deterministic for a
    fixed config; min_gap is evaluated on the argmin.
    """
    spin = _as_spin(spin)
    check_applicable(relation, spin)

    draw = random_mixed_bloch if mixed else partial(random_pure_vectors, spin.dim)
    starts = np.vstack([draw(1, cfg.seed, r) for r in range(cfg.restarts)])
    return _search(relation, spin, starts, cfg, mixed)


def _search(
    relation: RelationId,
    spin: Spin,
    starts: np.ndarray,
    cfg: ProbeConfig,
    mixed: bool = False,
    drawn: int = 0,
) -> ProbeResult:
    """Nelder-Mead from each start state in lockstep; the best run is the result.

    starts are (m, d) state vectors (with mixed=True, (m, 3) Bloch rows, their
    own parameters); they are searched as parameter rows of _param_objective.
    The best run is the lowest start index among those within cfg.tol of the
    lowest final gap (NaN gaps never agree). min_gap is evaluate on the
    validated argmin state, and evaluations adds the `drawn` samples that
    chose the starts to the objective calls.
    """
    x0 = starts if mixed else _params_from_vector(starts)
    runs = lockstep_nelder_mead(_param_objective(relation, spin, mixed), x0, cfg.max_iters, cfg.tol)
    agree = runs.fun <= np.fmin.reduce(runs.fun) + cfg.tol
    best = int(agree.argmax())
    to_state = density_from_bloch if mixed else from_statevector
    argmin = to_state(_states_from_params(runs.x[best], spin.dim, mixed))
    gap = evaluate(relation, argmin, spin).gap
    if not math.isfinite(gap):
        raise TripleSpinError(f"{relation.value} gap at the search minimum is {gap}, not finite")
    return ProbeResult(
        relation=relation,
        spin=spin,
        min_gap=gap,
        argmin_state=argmin,
        converged=bool(runs.success[best]),
        evaluations=drawn + int(runs.nfev.sum()),
        best_restart=best,
        restart_gaps=tuple(runs.fun.tolist()),
        agreeing_restarts=int(agree.sum()),
    )


def min_variance_sum(spin: Spin | int, cfg: ProbeConfig = ProbeConfig()) -> tuple[float, ProbeResult]:
    """Minimize Var(Sx) + Var(Sy) + Var(Sz) over pure states.

    Returns (minimum variance sum, probe result); the probe result is
    expressed as the gap of the variance-sum bound, min_gap = minimum - s.
    """
    result = min_gap(RelationId.R7_SUM_GENERAL_S, spin, cfg)
    return result.min_gap + result.spin.s, result


def scan_conjecture(
    spin: Spin | int,
    samples: int,
    cfg: ProbeConfig = ProbeConfig(),
) -> ProbeResult:
    """Scan the all-spin triple-product conjecture on random pure states.

    Chunk k draws up to kernels.CHUNK_ROWS Haar-random states from stream
    (seed, k) and scores them with gap_objective(R11), keeping a running set
    of the 10 smallest gaps (ties in draw order), so memory stays constant in
    `samples`. Those 10 states are then refined together with Nelder-Mead. A
    minimum below -COUNTEREXAMPLE_TOL marks a counterexample candidate;
    callers report it rather than fail.
    """
    spin = _as_spin(spin)
    if spin.twice_s < 2:
        raise ValueError("the spin-1/2 case is the proved product bound; scan needs twice_s >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    relation = RelationId.R11_CONJECTURE_TRIPLE_PRODUCT
    objective = gap_objective(relation, spin)
    chunk = kernels.CHUNK_ROWS
    top_gaps, top_psis = np.empty(0), np.empty((0, spin.dim), dtype=complex)
    for k in range(-(-samples // chunk)):
        psis = random_pure_vectors(spin.dim, min(chunk, samples - k * chunk), cfg.seed, k)
        gaps = np.concatenate([top_gaps, objective(psis)])
        # rows at or below the 10th smallest gap, or NaN; the kept rows come
        # first, so a stable sort of them breaks ties in draw order
        last = min(_REFINEMENTS, len(gaps)) - 1
        rows = np.flatnonzero(~(gaps > np.partition(gaps, last)[last]))
        keep = rows[np.argsort(gaps[rows], kind="stable")[:_REFINEMENTS]]
        top_gaps, top_psis = gaps[keep], np.vstack([top_psis, psis])[keep]
    return _search(relation, spin, top_psis, cfg, drawn=samples)


def is_counterexample(result: ProbeResult) -> bool:
    return result.min_gap < -COUNTEREXAMPLE_TOL
