"""Gradient search for minimum-gap and saturating states.

The kernels' batch scorer scores the states; the prober only parametrizes
them and searches. A state in dimension d is r columns g_c of length d,
rho = sum_c g_c g_c^dag: r = 1 for a pure state and r = d for a mixed one.
Its parameters are the 2 d r unconstrained reals of the columns' (re, im)
pairs, renormalized at every evaluation and with no gauge (global phase and
norm are flat directions), so the search never leaves the state space, and
pure and mixed searches share one chart and one scorer at every spin. Local
refinement is L-BFGS on central differences of that one batched objective,
so no derivative formula is written anywhere and the relation table stays
the one place formulas live. All restarts of a search advance together,
one objective call an iteration while every run's unit step is accepted
(see lockstep_lbfgs). The kernels score a state the same in any batch, so a
restart's result depends only on its own start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import TripleSpinError
from .relations import RelationId, check_applicable, evaluate
from .rng import check_seed, map_streams
from .spin_ops import Spin, _as_spin
from .states import (
    QuantumState,
    complex_normals,
    from_statevector,
    normalize_rows,
    random_pure_vectors,
    state_to_json_dict,
)

#: A scan minimum below -this is reported as a conjecture counterexample candidate.
COUNTEREXAMPLE_TOL = 1e-8
#: Number of smallest-gap conjecture-scan samples refined by the search.
_REFINEMENTS = 10

#: lockstep_lbfgs's number of kept (s, y) pairs, trial steps 1, 1/2, ..., 1/128,
#: Armijo constant and central-difference step.
_MEMORY = 6
_STEPS = 0.5 ** np.arange(8)
_ARMIJO = 1e-4
_H = 1e-7


def _is_count(n) -> bool:
    """Whether n is an integer >= 1: a Python or numpy integer, and no bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


def _check_tol(tol) -> None:
    """ValueError unless tol is positive and finite; a NaN tol would let every run stop as converged."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


@dataclass(frozen=True)
class ProbeConfig:
    restarts: int = 64
    max_iters: int = 2000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        _check_tol(self.tol)
        counts = (self.restarts, self.max_iters)
        if not all(map(_is_count, counts)):
            raise ValueError(f"restarts and max_iters must be integers >= 1, got {counts}")
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class ProbeResult:
    relation: RelationId
    spin: Spin
    min_gap: float
    argmin_state: QuantumState
    #: Whether the best restart stopped on the tol test (two consecutive
    #: iterations that each lowered its gap by at most cfg.tol) before
    #: cfg.max_iters.
    converged: bool
    #: Objective rows the search scored (line-search trials and gradient
    #: stencils of every restart), plus the states a conjecture scan drew.
    evaluations: int
    best_restart: int
    #: Final objective value of each restart (each refinement, for a
    #: conjecture scan) in run order; best_restart is the first within cfg.tol
    #: of the lowest, and agreeing_restarts of them are within
    #: COUNTEREXAMPLE_TOL of it, the prober's resolution (the tol stop test
    #: leaves a run up to about 1e-9 above its minimum).
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


def _psi_from_params(x: np.ndarray) -> np.ndarray:
    """Unit vectors, shape (..., m), from parameter rows (..., 2 m).

    A row is the (re, im) pairs of m amplitudes, renormalized here, with no
    gauge: global phase and norm are flat directions of the objective. An
    all-zero row gives the first basis vector.
    """
    pairs = np.ascontiguousarray(x, dtype=float)
    norm = np.sqrt(np.add.reduce(pairs * pairs, axis=-1, keepdims=True))
    if np.count_nonzero(norm) < norm.size:
        zero = norm == 0.0
        pairs = pairs.copy()
        pairs[..., :1][zero] = 1.0
        norm[zero] = 1.0
    return pairs.view(complex) / norm


def _params_from_vector(psi: np.ndarray) -> np.ndarray:
    """Parameter rows (..., 2 m) of unit vectors (..., m): their (re, im) pairs."""
    return np.ascontiguousarray(psi, dtype=complex).view(float)


def _param_objective(relation: RelationId, spin: Spin | int):
    """_search's objective: (m, n) parameter rows to (m,) gaps of `relation`.

    The rows become unit vectors through _psi_from_params, which a
    kernels.vector_scorer prepared once here reads as n / (2 d) columns.
    """
    score = kernels.vector_scorer((relation,), _as_spin(spin).twice_s)
    return lambda x: score(_psi_from_params(x))[:, 0]


@dataclass(frozen=True)
class SearchRuns:
    """Outcome of lockstep_lbfgs, one row per start.

    x is the last accepted point, fun its objective value, nit the
    iterations, nfev the rows scored for the run, and success whether the
    run stopped on the tol test before max_iters.
    """

    x: np.ndarray
    fun: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray
    success: np.ndarray


def lockstep_lbfgs(objective, x0: np.ndarray, max_iters: int, tol: float) -> SearchRuns:
    """L-BFGS from each row of x0 (m, n), all runs advancing together.

    objective maps (k, n) points to (k,) values, and a point's value must not
    depend on the other points of its call. An iteration first scores every
    live run's gradient stencil at its unit step x - q: the point and its
    central differences with step _H, 2n + 1 rows a run. The centre row
    decides the Armijo condition there, and a run that meets it moves with
    that call alone. Only the runs that fail it score the shorter steps
    _STEPS[1:] in a second call and move to the first that meets the
    condition; a third call scores the stencil at those points. A run that
    finds no step stays put and keeps its value and gradient, which a new
    stencil would only repeat. Each run thus takes the first of _STEPS that
    meets the condition, and nfev counts the rows it scored. The direction q
    is the L-BFGS two-loop product with the last _MEMORY pairs (Liu &
    Nocedal, Math. Program. 45, 503, 1989), or steepest descent where that
    is not a descent direction. A pair with s.y <= 0 is not kept, and a run
    whose line search fails drops its pairs, so it tries steepest descent
    next. A run stops, converged, after two consecutive iterations that each
    lower its value by at most tol, and otherwise after max_iters; a NaN
    value never lowers and never converges. All arithmetic is per row, so a
    run ends the same whatever the other runs do.

    max_iters must be an integer >= 1 and tol positive and finite, as ProbeConfig requires.

    The loop runs on arrays of a handful of rows, where each numpy call costs
    more than its arithmetic, so it makes few calls: each run's point and
    gradient are rows of one (2, m, n) stack, so that its pair (s, y) is one
    subtraction, and the pairs sit in a ring of slots, which an iteration in
    which every run keeps its pair advances without a copy.
    """
    if not _is_count(max_iters):
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")
    _check_tol(tol)
    x = np.array(x0, dtype=float)
    m, n = x.shape
    eye = _H * np.eye(n)
    offsets = np.vstack([np.zeros(n), eye, -eye]).ravel()  # a stencil's rows, end to end
    width = 2 * n + 1
    steps, armijo = _STEPS[1:, None], _ARMIJO * _STEPS[1:]

    def score(rows, k):  # (k j, n) rows to (k, j) values
        values = np.asarray(objective(rows), dtype=float)
        if values.shape != (len(rows),):
            raise ValueError(f"objective returned shape {values.shape} for {len(rows)} points")
        return values.reshape(k, -1)

    def value_and_gradient(x, g=None):  # the values at (k, n) points and their gradients, into g if given
        rows = x.repeat(width, axis=0)
        stencils = rows.reshape(len(x), -1)
        stencils += offsets
        f = score(rows, len(x))
        g = np.subtract(f[:, 1 : n + 1], f[:, n + 1 :], out=g)
        g /= 2 * _H
        return f[:, 0], g

    def slot_views(hist):  # each slot's (s, y, rho s, rho y), and its [s, y] and [rho s, rho y] halves
        return [(h[0], h[1], h[2], h[3]) for h in hist], [(h[:2], h[2:]) for h in hist]

    # xg[0] and xg[1] hold each run's point and gradient; the next iteration
    # writes its points and gradients into spare
    xg = np.empty((2, m, n))
    xg[0] = x
    fun = value_and_gradient(xg[0], xg[1])[0]
    spare = np.empty_like(xg)
    # kept pairs [s, y, rho s, rho y], rho = 1 / s.y, in a ring of _MEMORY + 1 slots: slot
    # ring[i] holds every run's i-th oldest pair (0 where it has none), and slot
    # ring[_MEMORY] is free for the next pair
    hist = np.zeros((_MEMORY + 1, 4, m, n))
    pairs, halves = slot_views(hist)
    ring = list(range(_MEMORY + 1))
    gamma = np.ones((m, 1))  # s.y / y.y of the newest pair
    lowered = np.ones(m, dtype=bool)  # whether the last iteration lowered the value by more than tol
    out_x, out_fun = np.empty((m, n)), np.empty(m)
    nit, success, nfev = np.empty(m, dtype=np.int64), np.empty(m, dtype=bool), np.empty(m, dtype=np.int64)
    # the live runs, and the rows each has scored beyond a stencil an iteration
    live, extra = np.arange(m), np.zeros(m, dtype=np.int64)
    for it in range(1, max_iters + 1):
        # q = H g by the two-loop recursion, over the slots filled by now at most
        x, g = xg[0], xg[1]
        used = [pairs[j] for j in ring[_MEMORY - min(it - 1, _MEMORY) : _MEMORY]]
        q, alphas = g, []
        for _, y, rs, _ in reversed(used):
            alpha = np.vecdot(rs, q, keepdims=True)
            q = q - alpha * y
            alphas.append(alpha)
        q = q * gamma
        for (s, _, _, ry), alpha in zip(used, reversed(alphas)):
            q += (alpha - np.vecdot(ry, q, keepdims=True)) * s
        # g.q is minus the slope along -q; where it is not positive, -q does not descend
        gq = np.vecdot(g, q)
        if np.count_nonzero(gq > 0) < len(gq):
            q = np.where(~(gq > 0)[:, None], g, q)
            gq = np.vecdot(g, q)

        # the stencil at the unit step first: its centre row decides Armijo there
        new = spare
        x_new, g_new = new[0], new[1]
        f_new = value_and_gradient(np.subtract(x, q, out=x_new), g_new)[0]
        moved = f_new <= fun - _ARMIJO * gq
        if np.count_nonzero(moved) < len(moved):
            # the other steps for the runs that fail it, and a stencil where one passes
            back = (~moved).nonzero()[0]
            trial = x.take(back, 0)[:, None] - steps * q.take(back, 0)[:, None]
            ok = score(trial.reshape(-1, n), len(back)) <= fun[back][:, None] - armijo * gq[back][:, None]
            hit = ok.any(axis=1)
            extra[back] += len(steps) + width * hit
            took, stay = back[hit], back[~hit]
            if took.size:
                x_took = trial[hit, ok[hit].argmax(axis=1)]
                x_new[took] = x_took
                f_new[took], g_new[took] = value_and_gradient(x_took)
            if stay.size:
                # a run that stays keeps its value and gradient, and drops its pairs
                new[:, stay], f_new[stay] = xg[:, stay], fun[stay]
                hist[:, :, stay] = 0.0
                gamma[stay] = 1

        # a pair with s.y > 0 (so the run moved) becomes that run's newest, and its oldest goes
        sy_pair, scaled = halves[ring[_MEMORY]]
        np.subtract(new, xg, out=sy_pair)
        dots = np.vecdot(sy_pair, sy_pair[1], keepdims=True)
        sy, yy = dots[0], dots[1]
        keep = sy > 0
        ring = ring[1:] + ring[:1]
        every = np.count_nonzero(keep) == len(keep)
        if every:
            rho = 1 / sy
            gamma = sy / yy
        else:
            rho = np.divide(1, sy, out=np.zeros(sy.shape), where=keep)
            np.divide(sy, yy, out=gamma, where=keep)
        np.multiply(rho, sy_pair, out=scaled)
        if not every:
            # the runs that keep no pair roll their slots back one, so their pairs stay in place
            skip = (~keep[:, 0]).nonzero()[0]
            hist[:, :, skip] = np.roll(hist[:, :, skip], 1, axis=0)
        # a run goes on while one of its last two iterations lowered its value by more than tol
        went = lowered
        lowered = fun - f_new > tol
        going = lowered | went
        xg, spare, fun = new, xg, f_new

        if it == max_iters or np.count_nonzero(going) < len(going):
            stopped = ~going
            done = stopped | (it == max_iters)
            ends = done.nonzero()[0]
            ended = live[ends]
            out_x[ended], out_fun[ended], nfev[ended] = x_new.take(ends, 0), fun[ends], width * (it + 1) + extra[ends]
            nit[ended], success[ended] = it, stopped[ends] & np.isfinite(fun[ends])
            rest = (~done).nonzero()[0]
            if not rest.size:
                break
            live, fun, lowered, extra = live[rest], fun[rest], lowered[rest], extra[rest]
            xg, gamma, hist = xg.take(rest, 1), gamma.take(rest, 0), hist.take(rest, 2)
            spare = np.empty_like(xg)
            pairs, halves = slot_views(hist)
    return SearchRuns(x=out_x, fun=out_fun, nit=nit, nfev=nfev, success=success)


def min_gap(
    relation: RelationId,
    spin: Spin | int,
    cfg: ProbeConfig = ProbeConfig(),
    mixed: bool = False,
) -> ProbeResult:
    """Minimize the gap of one relation over states of the given spin.

    Runs cfg.restarts independent L-BFGS searches and keeps the best result
    (see _search). A state is searched as r columns of length d, r = 1 for
    pure states and r = d with mixed=True. Restart k starts from a Haar unit
    vector of C^(d r) drawn on stream (seed, k) (keyed in one pass,
    rng.map_streams), so the result is
    deterministic for a fixed config; read as d columns, that draw is a
    Hilbert-Schmidt mixed state. min_gap is evaluated on the argmin.
    """
    spin = _as_spin(spin)
    check_applicable(relation, spin)

    width = spin.dim * (spin.dim if mixed else 1)
    keys = np.arange(cfg.restarts)[:, None]
    # each restart's normals, normalized as one stack: a row's bits are those of haar_vectors on its stream
    starts = normalize_rows(np.vstack(map_streams(cfg.seed, keys, lambda rng, k: complex_normals(rng, width, 1))))
    return _search(relation, spin, starts, cfg)


def _search(
    relation: RelationId,
    spin: Spin,
    starts: np.ndarray,
    cfg: ProbeConfig,
    drawn: int = 0,
) -> ProbeResult:
    """lockstep_lbfgs from each start state; the best run is the result.

    starts are (m, r d) unit vectors, each r columns of length d; they are
    searched as parameter rows of _param_objective. The best run is the
    lowest start index among those within cfg.tol of the lowest final gap,
    and the runs within COUNTEREXAMPLE_TOL of it agree (NaN gaps never do).
    min_gap is evaluate on the validated argmin state, and evaluations adds
    the `drawn` samples that chose the starts to the rows the search scored.
    """
    runs = lockstep_lbfgs(_param_objective(relation, spin), _params_from_vector(starts), cfg.max_iters, cfg.tol)
    lowest = np.fmin.reduce(runs.fun)
    best = int((runs.fun <= lowest + cfg.tol).argmax())
    argmin = from_statevector(_psi_from_params(runs.x[best]).reshape(-1, spin.dim))
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
        agreeing_restarts=int(np.count_nonzero(runs.fun <= lowest + COUNTEREXAMPLE_TOL)),
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
    by lockstep_lbfgs. A minimum below -COUNTEREXAMPLE_TOL marks a
    counterexample candidate; callers report it rather than fail.
    """
    spin = _as_spin(spin)
    if spin.twice_s < 2:
        raise ValueError("the spin-1/2 case is the proved product bound; scan needs twice_s >= 2")
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    samples = int(samples)
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
