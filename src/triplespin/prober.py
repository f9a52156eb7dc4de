"""Derivative-free search for minimum-gap and saturating states.

The kernels' batch scorers score the states; the prober only parametrizes
them and searches. Pure states in dimension d become 2d-1 unconstrained
reals (first amplitude real nonnegative, renormalized at every evaluation),
so the search never leaves the state manifold. For the qubit, an optional
mixed-state mode searches the closed Bloch ball instead. Gaps involve
absolute values and square roots with kinks at saturation, so local
refinement uses the Nelder-Mead simplex rather than gradients. All
restarts of a search advance together: while few are live, an iteration
scores every run's four candidate points in one batched objective call
(see lockstep_nelder_mead). The kernels score a state the same in any
batch, so a restart's result depends only on its own start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .errors import TripleSpinError
from .relations import RelationId, check_applicable, evaluate
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
#: Weights (a, b) of the candidate points a xbar - b worst, in the order of
#: scipy's branch: reflection, expansion, outside and inside contraction.
_CANDIDATES = np.array(
    [[1 + _RHO, _RHO], [1 + _RHO * _CHI, _RHO * _CHI], [1 + _PSI * _RHO, _PSI * _RHO], [1 - _PSI, -_PSI]]
)[:, :, None, None]
#: While at most this many runs are live, an iteration of lockstep_nelder_mead
#: scores all four candidates of every run in one objective call; with more,
#: it scores the reflections and then only the second points that are needed.
SPECULATE_RUNS = 16


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
    norm = np.sqrt(np.add.reduce(pairs * pairs, axis=-1, keepdims=True))
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


def _param_objective(relation: RelationId, spin: Spin | int, mixed: bool = False):
    """_search's simplex objective: (m, n) parameter rows to (m,) gaps of `relation`.

    The rows become states through _states_from_params. Bloch rows (mixed=True,
    qubit only) are scored by kernels.qubit_relation_gaps, state vectors by a
    kernels.vector_scorer prepared once here.
    """
    spin = _as_spin(spin)
    if mixed and spin.twice_s != 1:
        raise ValueError("mixed-state probing uses the Bloch ball and needs spin 1/2")
    if mixed:
        score = partial(kernels.qubit_relation_gaps, relations=(relation,))
    else:
        score = kernels.vector_scorer((relation,), spin.twice_s)
    dim = spin.dim
    return lambda x: score(_states_from_params(x, dim, mixed))[:, 0]


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

    objective maps (k, n) points to (k,) values, and a point's value must not
    depend on the other points of its call. Each run follows the sequence of
    scipy.optimize.minimize(method="Nelder-Mead") with maxiter=max_iters,
    xatol=1e-8 and fatol=fatol (Nelder & Mead, Comput. J. 7, 308, 1965):
    coefficients 1, 2, 1/2, 1/2, the initial simplex x0 with one coordinate
    at a time raised 5% (or set to 0.00025 when it is 0), the xatol/fatol
    test, and the argsort re-ordering of every simplex after each step.

    An iteration builds every live run's four candidates (reflection,
    expansion, outside and inside contraction) in one array pass. While at
    most SPECULATE_RUNS runs are live it scores all of them in one batched
    call; with more, it scores the reflections, then each run's one
    expansion or contraction point that scipy's branch asks for. Either way
    one index per run picks the candidate that replaces the worst vertex,
    and the runs that shrink score their new vertices in one more call. nfev
    counts the evaluations scipy would make, not the rows scored. A run
    whose values equal the scalar function's reproduces scipy's result
    exactly, under either schedule and whatever the other runs do.
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
    nit, nfev, success = np.ones(m, dtype=np.int64), np.empty(m, dtype=np.int64), np.zeros(m, dtype=bool)
    live, runs = np.arange(m), np.arange(m)
    evals = np.full(m, n + 1, dtype=np.int64)  # nfev of the live runs

    def finish(rows, iterations, converged):
        done = live[rows]
        x[done], fun[done] = sim[rows, 0], fsim[rows].min(axis=1)
        nit[done], nfev[done], success[done] = iterations, evals[rows], converged

    iterations = 1
    while iterations < max_iters:
        # scipy's test: all values within fatol of the best (on a sorted row, the
        # last one is the farthest; a NaN sorts last and fails it), then all
        # vertices within xatol, tested only where the values pass
        converged = fsim[:, -1] - fsim[:, 0] <= fatol
        if converged.any():
            close = np.flatnonzero(converged)
            converged[close] = np.abs(sim[close, 1:] - sim[close, :1]).max(axis=(1, 2)) <= _XATOL
        if converged.any():
            finish(converged, iterations, True)
            keep = ~converged
            live, sim, fsim, evals = live[keep], sim[keep], fsim[keep], evals[keep]
            if not live.size:
                break
            runs = np.arange(live.size)

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        cand = _CANDIDATES[:, 0] * xbar - _CANDIDATES[:, 1] * sim[:, -1]  # (4, runs, n)
        speculate = live.size <= SPECULATE_RUNS
        if speculate:
            fcand = _batch_values(objective, cand.reshape(-1, n)).reshape(4, -1)
        else:
            fcand = np.empty((4, live.size))
            fcand[0] = _batch_values(objective, cand[0])
        fxr = fcand[0]

        # scipy's branch on the reflected value: the candidate to try next
        # (1 expand, 2 contract outside, 3 contract inside), or 0 to keep it
        step = np.where(fxr < fsim[:, 0], 1, np.where(fxr < fsim[:, -2], 0, np.where(fxr < fsim[:, -1], 2, 3)))
        if not speculate:
            second = np.flatnonzero(step)
            if second.size:
                fcand[step[second], second] = _batch_values(objective, cand[step[second], second])
        evals += 1 + (step > 0)
        f2 = fcand[step, runs]
        better = np.where(step == 1, f2 < fxr, np.where(step == 2, f2 <= fxr, f2 < fsim[:, -1]))
        shrink = ~better & (step > 1)
        moved = runs[~shrink]
        pick = np.where(better, step, 0)[moved]
        sim[moved, -1], fsim[moved, -1] = cand[pick, moved], fcand[pick, moved]
        if shrink.any():
            best = sim[shrink, :1]
            points = best + _SIGMA * (sim[shrink, 1:] - best)
            sim[shrink, 1:] = points
            fsim[shrink, 1:] = _batch_values(objective, points.reshape(-1, n)).reshape(-1, n)
            evals[shrink] += n

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
    (seed, k) and scores them with one kernels.vector_scorer((R11,)), keeping
    a running set of the 10 smallest gaps (ties in draw order), so memory
    stays constant in `samples`. Those 10 states are then refined together
    with Nelder-Mead. A minimum below -COUNTEREXAMPLE_TOL marks a
    counterexample candidate; callers report it rather than fail.
    """
    spin = _as_spin(spin)
    if spin.twice_s < 2:
        raise ValueError("the spin-1/2 case is the proved product bound; scan needs twice_s >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    relation = RelationId.R11_CONJECTURE_TRIPLE_PRODUCT
    score = kernels.vector_scorer((relation,), spin.twice_s)
    chunk = kernels.CHUNK_ROWS
    top_gaps, top_psis = np.empty(0), np.empty((0, spin.dim), dtype=complex)
    for k in range(-(-samples // chunk)):
        psis = random_pure_vectors(spin.dim, min(chunk, samples - k * chunk), cfg.seed, k)
        gaps = np.concatenate([top_gaps, score(psis)[:, 0]])
        # the kept rows come first, so a stable sort breaks ties in draw order; NaN sorts last
        keep = np.argsort(gaps, kind="stable")[:_REFINEMENTS]
        top_gaps, top_psis = gaps[keep], np.vstack([top_psis, psis])[keep]
    return _search(relation, spin, top_psis, cfg, drawn=samples)


def is_counterexample(result: ProbeResult) -> bool:
    return result.min_gap < -COUNTEREXAMPLE_TOL
