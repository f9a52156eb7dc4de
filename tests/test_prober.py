import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

from triplespin import kernels, prober
from triplespin.errors import SpinRestrictionError, TripleSpinError
from triplespin.moments import expectation, variance
from triplespin.prober import (
    COUNTEREXAMPLE_TOL,
    ProbeConfig,
    _param_objective,
    _params_from_vector,
    _psi_from_params,
    is_counterexample,
    lockstep_lbfgs,
    min_gap,
    min_variance_sum,
    scan_conjecture,
)
from triplespin.relations import RELATIONS, RelationId, applicable_to, evaluate
from triplespin.spin_ops import build_spin_operators
from triplespin.states import (
    bloch_from_density,
    density_from_bloch,
    from_statevector,
    random_pure_vectors,
)

SQ3 = math.sqrt(3.0)
FAST = ProbeConfig(restarts=8, seed=1)


def test_min_gap_triple_sum_finds_balanced_states():
    result = min_gap(RelationId.R5_TRIPLE_SUM, 1, ProbeConfig(restarts=16, seed=2))
    assert result.min_gap <= 1e-8
    bloch = np.abs(bloch_from_density(result.argmin_state))
    np.testing.assert_allclose(bloch, [1 / SQ3] * 3, atol=1e-4)


def test_min_gap_sum_half_every_restart_saturates():
    # the whole pure manifold saturates, so any single restart must land at ~0
    for seed in range(6):
        result = min_gap(RelationId.R6_SUM_HALF, 1, ProbeConfig(restarts=1, seed=seed))
        assert abs(result.min_gap) <= 1e-10


def _coherent_state(twice_s, direction):
    """Maximal-m eigenstate rotated to point along `direction`."""
    _, sy, sz = build_spin_operators(twice_s)
    nx, ny, nz = direction / np.linalg.norm(direction)
    theta = math.acos(np.clip(nz, -1, 1))
    phi = math.atan2(ny, nx)
    top = np.zeros(twice_s + 1, dtype=complex)
    top[0] = 1.0
    return expm(-1j * phi * sz) @ expm(-1j * theta * sy) @ top


def test_min_gap_variance_sum_spin_one_finds_coherent_state():
    result = min_gap(RelationId.R7_SUM_GENERAL_S, 2, ProbeConfig(restarts=12, seed=4))
    assert result.min_gap <= 1e-8
    ops = build_spin_operators(2)
    direction = np.array([expectation(result.argmin_state, op) for op in ops])
    coherent = _coherent_state(2, direction)
    fidelity = float(np.real(coherent.conj() @ result.argmin_state.rho @ coherent))
    assert fidelity >= 1.0 - 1e-3


def test_mixed_probe_of_sum_half_reaches_boundary_only():
    interior = evaluate(RelationId.R6_SUM_HALF, density_from_bloch([0.3, 0.2, 0.1]), 1)
    assert interior.gap > 0.0
    result = min_gap(RelationId.R6_SUM_HALF, 1, ProbeConfig(restarts=8, seed=3), mixed=True)
    assert result.min_gap >= -1e-12
    assert result.min_gap <= 1e-10
    assert np.linalg.norm(bloch_from_density(result.argmin_state)) >= 1.0 - 1e-6


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_mixed_probe_of_triple_product_reads_no_violation(seed):
    """R3 is proved at s = 1/2. In the Bloch-ball chart these searches ended
    next to a pole, where a moment route that lost Var(S_i) ~ 1e-17 to
    cancellation read -1.5e-9; as 2 columns they end on a cube diagonal."""
    result = min_gap(RelationId.R3_TRIPLE_PRODUCT, 1, ProbeConfig(seed=seed), mixed=True)
    assert result.min_gap >= 0.0


def test_probe_result_is_reproducible_from_argmin():
    result = min_gap(RelationId.R3_TRIPLE_PRODUCT, 1, FAST)
    again = evaluate(result.relation, result.argmin_state, result.spin).gap
    assert abs(again - result.min_gap) <= 1e-12


def test_probe_determinism():
    a = min_gap(RelationId.R5_TRIPLE_SUM, 1, FAST)
    b = min_gap(RelationId.R5_TRIPLE_SUM, 1, FAST)
    assert a.min_gap == b.min_gap
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.argmin_state.rho, b.argmin_state.rho)


def test_restart_gaps_record_every_restart():
    result = min_gap(RelationId.R5_TRIPLE_SUM, 1, FAST)
    gaps = result.restart_gaps
    assert len(gaps) == FAST.restarts
    # R5's eight balanced states tie: the first restart within tol of the lowest gap wins,
    # and every restart within the prober's resolution of it agrees
    assert result.best_restart == min(r for r, g in enumerate(gaps) if g <= min(gaps) + FAST.tol)
    band = [r for r, g in enumerate(gaps) if g <= min(gaps) + COUNTEREXAMPLE_TOL]
    assert result.agreeing_restarts == len(band) == FAST.restarts
    assert abs(gaps[result.best_restart] - result.min_gap) <= 1e-12
    assert result.to_dict()["restart_gaps"] == list(gaps)
    assert result.to_dict()["agreeing_restarts"] == len(band)

    scan = scan_conjecture(2, 500, ProbeConfig(seed=5))
    assert len(scan.restart_gaps) == 10
    assert min(scan.restart_gaps) >= scan.min_gap - 1e-12


@pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
def test_objective_matches_evaluate(twice_s):
    """The kernels' scorers, each scoring its relations in one call, vs evaluate row by row.

    The prober's scorer takes pure states (r = 1) and mixed states (r = d
    columns) alike; at spin 1/2 the soak's Bloch closed form is checked too.
    """
    rng = np.random.default_rng(twice_s)
    dim = twice_s + 1
    relations = tuple(relation for relation in RelationId if applicable_to(relation, twice_s))
    score = kernels.vector_scorer(relations, twice_s)
    routes = []
    for r in (1, dim):
        rows = random_pure_vectors(r * dim, 10, twice_s, r)
        routes.append((rows, score(rows), lambda row: from_statevector(row.reshape(-1, dim))))
    if twice_s == 1:
        # Bloch rows inside the ball and on its surface, on all 18 relations (not the soak's 16)
        raw = rng.standard_normal((10, 3)) * rng.uniform(0.2, 1.5, (10, 1))
        bloch = raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1.0)
        routes.append((bloch, kernels.bloch_scorer(relations)(bloch), density_from_bloch))
    for states, gaps, to_state in routes:
        assert gaps.shape == (10, len(relations))
        for row, row_gaps in zip(states, gaps):
            state = to_state(row)
            for relation, gap in zip(relations, row_gaps):
                assert abs(gap - evaluate(relation, state, twice_s).gap) <= 1e-12, relation


def _start(dim, seed, restart, mixed):
    """min_gap's start for `restart`: a Haar unit vector of C^(d r) on stream (seed, restart).

    r = 1 for a pure search and r = d for a mixed one, whose start is d columns.
    """
    return random_pure_vectors(dim * (dim if mixed else 1), 1, seed, restart)[0]


def _start_params(dim, seed, restart, mixed):
    """The parameter row _search starts `restart` from."""
    return _params_from_vector(_start(dim, seed, restart, mixed))


def _starts(monkeypatch, relation, twice_s, cfg, mixed):
    """The (restarts, r d) start vectors min_gap hands to _search."""
    monkeypatch.setattr(prober, "_search", lambda relation, spin, starts, cfg: starts)
    return min_gap(relation, twice_s, cfg, mixed=mixed)


@pytest.mark.parametrize("twice_s, mixed", [(1, True), (1, False), (3, False), (3, True)])
def test_min_gap_starts_from_the_shared_samplers(monkeypatch, twice_s, mixed):
    starts = _starts(monkeypatch, RelationId.R7_SUM_GENERAL_S, twice_s, ProbeConfig(restarts=5, seed=7), mixed)
    assert np.array_equal(starts, [_start(twice_s + 1, 7, r, mixed) for r in range(5)])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_mixed_starts_are_hilbert_schmidt_states(monkeypatch, dim):
    """A Haar unit vector of C^(d^2) read as d columns is a Hilbert-Schmidt state: mean purity 2d/(d^2 + 1)."""
    starts = _starts(monkeypatch, RelationId.R5_TRIPLE_SUM, dim - 1, ProbeConfig(restarts=4000, seed=3), True)
    cols = starts.reshape(-1, dim, dim)
    gram = cols @ cols.conj().swapaxes(1, 2)  # purity tr(rho^2) = sum_cc' |<g_c|g_c'>|^2
    purity = (gram.real**2 + gram.imag**2).sum(axis=(1, 2))
    assert np.allclose(np.trace(gram, axis1=1, axis2=2), 1.0)
    error = purity.std(ddof=1) / math.sqrt(len(purity))
    assert abs(purity.mean() - 2 * dim / (dim * dim + 1)) <= 5 * error


def _quadratic(n, seed):
    """A convex quadratic on R^n with minimum 0.25 at a random point, as a batch map."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    hessian, center = a @ a.T + 0.5 * np.eye(n), rng.standard_normal(n)
    return lambda x: 0.25 + np.vecdot(x - center, np.matvec(hessian, x - center))


def test_lockstep_lbfgs_reaches_the_minimum_of_a_convex_quadratic():
    starts = np.random.default_rng(1).uniform(-3, 3, (5, 7))
    runs = lockstep_lbfgs(_quadratic(7, 0), starts, 2000, 1e-12)
    assert runs.success.all()
    assert np.all(np.abs(runs.fun - 0.25) <= 1e-12)


#: (relation, twice_s, mixed, max_iters) cases for the scipy oracle
ORACLE_CASES = [
    (RelationId.R5_TRIPLE_SUM, 1, False, 2000),
    (RelationId.R6_SUM_HALF, 1, True, 2000),
    (RelationId.R10_ENTROPIC_TRIPLE, 2, True, 2000),
    (RelationId.R7_SUM_GENERAL_S, 4, False, 700),
    (RelationId.R10_ENTROPIC_TRIPLE, 1, False, 2000),
    (RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, 3, False, 2000),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("relation, twice_s, mixed, max_iters", ORACLE_CASES, ids=lambda v: getattr(v, "name", None))
def test_lockstep_single_run_reproduces_scipy(relation, twice_s, mixed, max_iters, seed):
    """One run reaches the minimum that scipy's L-BFGS-B reaches from the same start."""
    objective = _param_objective(relation, twice_s)
    x0 = _start_params(twice_s + 1, seed, 0, mixed)
    ref = minimize(lambda x: objective(x[None])[0], x0, method="L-BFGS-B", options={"maxiter": max_iters})
    got = lockstep_lbfgs(objective, x0[None], max_iters, 1e-10)
    assert ref.success and got.success[0]
    assert abs(got.fun[0] - ref.fun) <= 1e-7  # the same local minimum
    assert got.fun[0] <= ref.fun + 1e-10  # and no higher up it


def test_lockstep_stops_at_max_iters_like_scipy():
    objective = _param_objective(RelationId.R7_SUM_GENERAL_S, 4)
    starts = np.array([_start_params(5, 0, r, False) for r in range(3)])
    runs = lockstep_lbfgs(objective, starts, 3, 1e-10)
    assert not runs.success.any()
    assert runs.nit.tolist() == [3, 3, 3]
    for x0 in starts:
        ref = minimize(lambda x: objective(x[None])[0], x0, method="L-BFGS-B", options={"maxiter": 3})
        assert not ref.success and ref.nit == 3
    # rows scored: the first gradient stencil, then a stencil at the unit step an iteration;
    # run r's unit step fails Armijo in r of its 3 iterations, and it then scores the 7
    # shorter steps and a stencil at the one it takes
    n = starts.shape[1]
    assert runs.nfev.tolist() == [(2 * n + 1) * 4 + r * (7 + 2 * n + 1) for r in range(3)]


def _logged(objective, calls):
    """objective, recording each call's points."""

    def batch(points):
        calls.append(np.array(points))
        return objective(points)

    return batch


def _stencil_centres(call, n):
    """The centre points of call if it is a gradient stencil (blocks of the 2n + 1
    points x, x + _H e_i, x - _H e_i), else None."""
    if len(call) % (2 * n + 1):
        return None
    blocks = call.reshape(-1, 2 * n + 1, n)
    offsets = np.vstack([np.eye(n), -np.eye(n)]) * prober._H
    if not np.allclose(blocks[:, 1:] - blocks[:, :1], offsets, rtol=0, atol=1e-12):
        return None
    return blocks[:, 0]


def test_stencil_first_call_pattern():
    """One stencil call an iteration; backtracking rows only for the runs whose unit step fails."""
    # a mixed qubit search: 2 d^2 = 8 parameters, a stencil of 17 rows
    objective = _param_objective(RelationId.R3_TRIPLE_PRODUCT, 1)
    starts = np.array([_start_params(2, 4, r, True) for r in range(6)])
    calls = []
    runs = lockstep_lbfgs(_logged(objective, calls), starts, 2000, 1e-10)
    assert len(set(runs.nit.tolist())) > 1  # the runs stop at different iterations
    assert len(calls[0]) == 6 * 17 and _stencil_centres(calls[0], 8) is not None
    k, backtracks, moves = 1, 0, 0
    for it in range(1, runs.nit.max() + 1):
        live = int((runs.nit >= it).sum())  # a stopped run is scored no more
        # the stencil at every live run's unit step
        assert len(calls[k]) == 17 * live and _stencil_centres(calls[k], 8) is not None
        k += 1
        if k < len(calls) and _stencil_centres(calls[k], 8) is None:
            # steps 1/2 ... 1/128 for the runs whose unit step failed Armijo
            assert len(calls[k]) % 7 == 0 and len(calls[k]) <= 7 * live
            trials, backtracks = calls[k], backtracks + 1
            k += 1
            centres = _stencil_centres(calls[k], 8) if k < len(calls) else None
            if centres is not None and all((trials == c).all(axis=1).any() for c in centres):
                # a stencil at the step each run then took, for the runs that took one
                assert len(centres) <= len(trials) // 7
                moves, k = moves + 1, k + 1
    assert k == len(calls)
    assert backtracks and moves  # this search exercises both extra calls
    assert runs.nfev.sum() == sum(len(c) for c in calls)


def test_a_backtracking_run_takes_the_first_step_that_meets_armijo():
    """x^4 / 4 from 0.5 takes the unit step; from 2 it overshoots to -6, and the run backtracks."""

    def quartic(x):
        return x[:, 0] ** 4 / 4

    starts = np.array([[0.5], [2.0]])
    one = lockstep_lbfgs(quartic, starts, 1, 1e-10)
    h = prober._H
    for r, x0 in enumerate(starts[:, 0]):
        f = quartic(np.array([[x0], [x0 + h], [x0 - h]]))
        g = (f[1] - f[2]) / (2 * h)
        meets = [quartic(np.array([[x0 - t * g]]))[0] <= f[0] - prober._ARMIJO * t * g * g for t in prober._STEPS]
        step = prober._STEPS[meets.index(True)]
        assert step == (1.0 if r == 0 else 0.25)
        assert one.x[r, 0] == x0 - step * g
    # run 1 scored the start's stencil, the unit step's, 7 shorter steps and the stencil at 1/4
    assert one.nfev.tolist() == [3 + 3, 3 + 3 + 7 + 3]
    both = lockstep_lbfgs(quartic, starts, 2000, 1e-10)
    for r in range(2):
        alone = lockstep_lbfgs(quartic, starts[r : r + 1], 2000, 1e-10)
        assert alone.x[0].tobytes() == both.x[r].tobytes() and alone.fun[0].tobytes() == both.fun[r].tobytes()
        assert alone.nit[0] == both.nit[r] and alone.nfev[0] == both.nfev[r]


def test_a_stopped_run_no_longer_changes():
    objective = _param_objective(RelationId.R5_TRIPLE_SUM, 2)
    starts = np.array([_start_params(3, 2, r, False) for r in range(8)])
    runs = lockstep_lbfgs(objective, starts, 2000, 1e-10)
    assert runs.success.all() and runs.nit.min() < runs.nit.max()
    for r, x0 in enumerate(starts):
        # run r alone, cut off at the iteration where it stopped beside the others
        alone = lockstep_lbfgs(objective, x0[None], int(runs.nit[r]), 1e-10)
        assert alone.success[0]
        assert np.array_equal(alone.x[0], runs.x[r]) and alone.fun[0] == runs.fun[r]
        assert alone.nfev[0] == runs.nfev[r]


def test_nan_rows_end_as_nan_and_never_win(monkeypatch):
    real = prober._param_objective
    start = _start_params(2, FAST.seed, 0, False)

    def poisoned(relation, spin):
        objective = real(relation, spin)

        def batch(x):
            gaps = objective(x)
            gaps[(x == start).all(axis=1)] = np.nan  # restart 0 cannot score its start
            return gaps

        return batch

    monkeypatch.setattr(prober, "_param_objective", poisoned)
    runs = lockstep_lbfgs(poisoned(RelationId.R5_TRIPLE_SUM, 1), start[None], 2000, 1e-10)
    assert math.isnan(runs.fun[0]) and not runs.success[0] and runs.nit[0] == 2
    result = min_gap(RelationId.R5_TRIPLE_SUM, 1, FAST)
    assert math.isnan(result.restart_gaps[0])
    assert result.best_restart == 1
    assert result.agreeing_restarts == FAST.restarts - 1


#: (relation, twice_s) for every relation that applies at twice_s 1-4
RESTART_CASES = [
    (spec.relation, twice_s)
    for twice_s in (1, 2, 3, 4)
    for spec in RELATIONS
    if applicable_to(spec.relation, twice_s)
]


@pytest.mark.parametrize("relation, twice_s", RESTART_CASES, ids=lambda v: getattr(v, "name", str(v)))
def test_restart_result_does_not_depend_on_the_other_restarts(relation, twice_s):
    """Restart r ends the same, bit for bit, as one of r + 1, 16 or 24 restarts."""
    objective = _param_objective(relation, twice_s)
    starts = np.array([_start_params(twice_s + 1, 3, r, False) for r in range(24)])
    many = lockstep_lbfgs(objective, starts, 40, 1e-10)
    sixteen = lockstep_lbfgs(objective, starts[:16], 40, 1e-10)
    for r in range(16):
        few = lockstep_lbfgs(objective, starts[: r + 1], 40, 1e-10)
        for runs in (sixteen, many):
            assert np.array_equal(few.fun[r], runs.fun[r], equal_nan=True), r
            assert np.array_equal(few.x[r], runs.x[r]) and few.nit[r] == runs.nit[r] and few.nfev[r] == runs.nfev[r]
    gaps = [min_gap(relation, twice_s, ProbeConfig(restarts=k, seed=3, max_iters=40)).restart_gaps for k in (1, 5, 16)]
    assert [repr(g[0]) for g in gaps] == [repr(gaps[2][0])] * 3
    assert [repr(g) for g in gaps[1]] == [repr(g) for g in gaps[2][:5]]


@pytest.mark.parametrize(
    "relation, twice_s, cfg, counts",
    [
        (RelationId.R10_ENTROPIC_TRIPLE, 1, {"seed": 2, "max_iters": 700}, (1, 4)),
        (RelationId.R7_SUM_GENERAL_S, 2, {"seed": 1}, (1, 4, 10)),
    ],
    ids=["R10", "R7"],
)
def test_first_restart_gap_does_not_depend_on_the_restart_count(relation, twice_s, cfg, counts):
    # both once changed sign in the last bit with the number of restarts
    gaps = [min_gap(relation, twice_s, ProbeConfig(restarts=k, **cfg)).restart_gaps[0] for k in counts]
    assert len({repr(gap) for gap in gaps}) == 1, gaps


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_probe_config_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        ProbeConfig(tol=tol)


@pytest.mark.parametrize(
    "counts",
    [{"max_iters": math.nan}, {"restarts": 2.5}, {"restarts": 4.0}, {"max_iters": 0}, {"restarts": -1}],
    ids=["nan-iters", "float-restarts", "integral-float-restarts", "zero-iters", "negative-restarts"],
)
def test_probe_config_refuses_counts_that_are_no_integer_above_zero(counts):
    # range() in min_gap would raise TypeError on a float, far from the bad value
    with pytest.raises(ValueError, match="integers"):
        ProbeConfig(**counts)


def test_probe_config_takes_numpy_integers():
    assert ProbeConfig(restarts=np.int64(3), max_iters=np.int32(5)).restarts == 3


@pytest.mark.parametrize("field", ["restarts", "max_iters"])
@pytest.mark.parametrize("flag", [True, False])
def test_probe_config_refuses_bool_counts(field, flag):
    # a bool is an int in Python, so True would stand for one restart or one iteration
    with pytest.raises(ValueError, match="integers"):
        ProbeConfig(**{field: flag})


@pytest.mark.parametrize("max_iters", [0, -3, np.int64(0), True, False, 2.0, math.nan, None])
def test_lockstep_refuses_iteration_counts_probe_config_refuses(max_iters):
    """A count ProbeConfig refuses raises before any call: at 0 the runs' outputs were never written."""
    calls = []
    with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
        lockstep_lbfgs(lambda x: calls.append(x) or x[:, 0], np.ones((3, 2)), max_iters, 1e-10)
    assert not calls


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_lockstep_refuses_a_tol_probe_config_refuses(tol):
    """At a NaN tol no iteration lowers a value by more than tol, so every run would stop as converged."""
    calls = []
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        lockstep_lbfgs(lambda x: calls.append(x) or x[:, 0], np.ones((3, 2)), 100, tol)
    assert not calls


def test_lockstep_takes_a_numpy_iteration_count():
    runs = lockstep_lbfgs(lambda x: x[:, 0] ** 2, np.ones((3, 2)), np.int32(1), 1e-10)
    assert runs.nit.tolist() == [1, 1, 1] and np.isfinite(runs.fun).all()


@pytest.mark.parametrize("seed", [2.7, -1, 2**64, None])
def test_probe_config_refuses_seeds_outside_the_stream_range(seed):
    # checked at construction, not first at min_gap's streams
    with pytest.raises(ValueError, match="seed"):
        ProbeConfig(seed=seed)


def _nan_gaps(monkeypatch):
    real = prober.evaluate

    def evaluate_nan(relation, state, spin):
        return dataclasses.replace(real(relation, state, spin), gap=math.nan)

    monkeypatch.setattr(prober, "evaluate", evaluate_nan)


def test_min_gap_raises_on_non_finite_final_gap(monkeypatch):
    _nan_gaps(monkeypatch)
    with pytest.raises(TripleSpinError, match="not finite"):
        min_gap(RelationId.R5_TRIPLE_SUM, 1, ProbeConfig(restarts=2, seed=1))


def test_scan_conjecture_raises_on_non_finite_final_gap(monkeypatch):
    _nan_gaps(monkeypatch)
    with pytest.raises(TripleSpinError, match="not finite"):
        scan_conjecture(2, 200, ProbeConfig(seed=1, max_iters=50))


def test_more_restarts_never_hurt():
    few = min_gap(RelationId.R3_TRIPLE_PRODUCT, 1, ProbeConfig(restarts=4, seed=6))
    many = min_gap(RelationId.R3_TRIPLE_PRODUCT, 1, ProbeConfig(restarts=8, seed=6))
    assert many.min_gap <= few.min_gap + 1e-15


def test_probe_rejects_inapplicable_relation():
    for mixed in (False, True):
        with pytest.raises(SpinRestrictionError):
            min_gap(RelationId.R8_VARIANCE_OF_SUMS, 2, FAST, mixed=mixed)


def test_best_restart_ignores_rounding_noise_among_equal_minima(monkeypatch):
    real = prober.lockstep_lbfgs

    def noisy(*args, **kwargs):
        runs = real(*args, **kwargs)
        fun = runs.fun.copy()
        fun[0] += 1e-14  # a tie up to rounding: restart 0 still agrees with the rest
        fun[1] += 1.0  # a restart that missed the minimum
        return dataclasses.replace(runs, fun=fun)

    monkeypatch.setattr(prober, "lockstep_lbfgs", noisy)
    result = min_gap(RelationId.R5_TRIPLE_SUM, 1, FAST)
    assert result.best_restart == 0
    assert result.agreeing_restarts == FAST.restarts - 1


def test_runs_the_stop_test_left_above_the_minimum_agree_but_do_not_win(monkeypatch):
    real = prober.lockstep_lbfgs

    def early(*args, **kwargs):
        runs = real(*args, **kwargs)
        fun = runs.fun.copy()
        fun[0] += 5e-9  # stopped above the minimum, inside the prober's resolution
        fun[1] += 2 * COUNTEREXAMPLE_TOL  # outside it
        return dataclasses.replace(runs, fun=fun)

    monkeypatch.setattr(prober, "lockstep_lbfgs", early)
    result = min_gap(RelationId.R5_TRIPLE_SUM, 1, FAST)
    assert result.best_restart == 2
    assert result.agreeing_restarts == FAST.restarts - 1


def test_triple_sum_probe_reaches_zero_at_spin_two():
    # R5 holds at every spin; spin-coherent states along a cube diagonal attain it
    result = min_gap(RelationId.R5_TRIPLE_SUM, 4, ProbeConfig(restarts=16, seed=1))
    assert abs(result.min_gap) <= 1e-9
    assert result.agreeing_restarts >= 2


@pytest.mark.parametrize("twice_s", [8, 12, 16])
def test_triple_sum_probe_reaches_zero_at_higher_spin(twice_s):
    # Nelder-Mead stopped at 0.0363 and 1.04 from these starts at twice_s 8 and 12; with
    # the gauge "psi_0 real", 44, 16 and 5 of the 64 restarts agreed at twice_s 8, 12, 16
    result = min_gap(RelationId.R5_TRIPLE_SUM, twice_s, ProbeConfig(seed=0))
    assert abs(result.min_gap) <= 1e-9
    # every restart ends within the prober's resolution of R5's minimum 0
    assert result.agreeing_restarts == 64


@pytest.mark.parametrize(
    "twice_s, minimum, starts",
    [
        pytest.param(twice_s, minimum, starts, id=f"{twice_s}-{minimum}")
        for twice_s, minimum, starts in [(2, -0.15, 64), (3, -0.45, 64), (4, -1.2, 64), (8, -7.2, 64), (16, -33.6, 16)]
    ],
)
def test_variance_of_sums_search_reaches_its_exact_minimum(twice_s, minimum, starts):
    """R8's minima over all states, from the ground-state duality table of ROADMAP item K.

    min_gap refuses R8 above spin 1/2; _param_objective does not check applicability.
    """
    psis = np.vstack([random_pure_vectors(twice_s + 1, 1, 0, k) for k in range(starts)])
    objective = _param_objective(RelationId.R8_VARIANCE_OF_SUMS, twice_s)
    runs = lockstep_lbfgs(objective, _params_from_vector(psis), ProbeConfig.max_iters, ProbeConfig.tol)
    assert abs(np.nanmin(runs.fun) - minimum) <= 1e-9


def test_no_variance_sum_restart_stalls_above_its_search_best():
    """R7 at twice_s 4 from min_gap's 10 starts of seeds 0-19: every run reaches the best.

    With the first amplitude |x_0|, the objective had a kink at x_0 = 0; 8 of these
    200 runs stopped there on the tol test, more than 1e-6 above their search's best,
    and the slowest run of a search took 74 iterations on average. With the first
    amplitude real of either sign, no run stalled, but the gauge "psi_0 real" is
    singular at psi_0 = 0: a direction's curvature vanished like |psi_0|^2 there, and
    the slowest run of a search, ending near psi_0 = 0, took 49.6 iterations on
    average. The chart has had no gauge since.
    """
    objective = _param_objective(RelationId.R7_SUM_GENERAL_S, 4)
    slowest = []
    for seed in range(20):
        starts = np.vstack([random_pure_vectors(5, 1, seed, r) for r in range(10)])
        runs = lockstep_lbfgs(objective, _params_from_vector(starts), 700, 1e-10)
        assert np.all(runs.fun <= runs.fun.min() + 1e-6), seed
        slowest.append(runs.nit.max())
    assert np.mean(slowest) < 20


@pytest.mark.parametrize(
    "relation",
    [RelationId.R5_TRIPLE_SUM, RelationId.R7_SUM_GENERAL_S, RelationId.R11_CONJECTURE_TRIPLE_PRODUCT],
    ids=lambda v: v.name,
)
def test_mixed_probe_reaches_the_pure_minimum_at_spin_three_halves(relation):
    """Each minimum is 0, attained by pure states; the mixed search's d columns find it too."""
    pure = min_gap(relation, 3, ProbeConfig(seed=0))
    mixed = min_gap(relation, 3, ProbeConfig(seed=0), mixed=True)
    assert abs(mixed.min_gap - pure.min_gap) <= 1e-9
    assert mixed.argmin_state.dim == 4


def test_min_variance_sum_spin_half():
    value, result = min_variance_sum(1, ProbeConfig(restarts=8, seed=7))
    assert value == pytest.approx(0.5, abs=1e-8)
    assert result.relation is RelationId.R7_SUM_GENERAL_S


def test_min_variance_sum_spin_one():
    value, _ = min_variance_sum(2, ProbeConfig(restarts=12, seed=8))
    assert value == pytest.approx(1.0, abs=1e-6)


def test_min_variance_sum_spin_two_respects_bound():
    value, _ = min_variance_sum(4, ProbeConfig(restarts=8, seed=9))
    assert value >= 2.0 - 1e-6


def test_scan_conjecture_spin_one():
    result = scan_conjecture(2, 20_000, ProbeConfig(seed=11))
    assert result.min_gap >= -1e-10
    assert not is_counterexample(result)
    assert result.evaluations >= 20_000


def test_scan_conjecture_deterministic():
    a = scan_conjecture(2, 5_000, ProbeConfig(seed=12))
    b = scan_conjecture(2, 5_000, ProbeConfig(seed=12))
    assert a.min_gap == b.min_gap
    assert np.array_equal(a.argmin_state.rho, b.argmin_state.rho)


def test_scan_conjecture_refines_the_ten_smallest_draws(monkeypatch):
    starts = []
    real = prober.lockstep_lbfgs

    def recording(objective, x0, max_iters, tol):
        starts.append(x0)
        return real(objective, x0, max_iters, tol)

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    monkeypatch.setattr(prober, "lockstep_lbfgs", recording)
    scan_conjecture(2, 3500, ProbeConfig(seed=6, max_iters=5))
    psis = np.vstack([random_pure_vectors(3, m, 6, k) for k, m in enumerate((1000, 1000, 1000, 500))])
    gaps = kernels.vector_scorer((RelationId.R11_CONJECTURE_TRIPLE_PRODUCT,), 2)(psis)[:, 0]
    assert np.array_equal(starts[0], _params_from_vector(psis[np.argsort(gaps, kind="stable")[:10]]))


def test_scan_conjecture_parametrizes_only_its_refinement_starts(monkeypatch):
    rows = []

    def counting(psi):
        rows.append(len(psi))
        return _params_from_vector(psi)

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    monkeypatch.setattr(prober, "_params_from_vector", counting)
    scan_conjecture(2, 3500, ProbeConfig(seed=6, max_iters=5))
    assert 0 < sum(rows) <= 10


def test_scan_conjecture_rejects_spin_half():
    with pytest.raises(ValueError):
        scan_conjecture(1, 100, FAST)


@pytest.mark.parametrize("samples", [True, 2.5, "3", 0, None], ids=repr)
def test_scan_conjecture_refuses_sample_counts_before_drawing(monkeypatch, samples):
    # True ran a 1-sample scan and 2.5 raised TypeError from range; no state is drawn for either now
    def no_draws(*args):
        raise AssertionError("drew states for a bad sample count")

    monkeypatch.setattr(prober, "random_pure_vectors", no_draws)
    with pytest.raises(ValueError, match="samples"):
        scan_conjecture(3, samples, ProbeConfig(seed=1, max_iters=5))


def test_scan_conjecture_takes_a_numpy_sample_count():
    result = scan_conjecture(3, np.int64(5), ProbeConfig(seed=1, max_iters=5))
    assert type(result.evaluations) is int
    assert result.to_dict() == scan_conjecture(3, 5, ProbeConfig(seed=1, max_iters=5)).to_dict()


def test_eigenstate_sits_on_degenerate_conjecture_branch():
    # |m=s> has <Sx> = <Sy> = 0 and Delta(Sz) = 0, so both sides vanish
    from triplespin.states import QuantumState

    st = QuantumState(np.diag([1.0, 0.0, 0.0]).astype(complex))
    rep = evaluate(RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, st, 2)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_conjectured_moment_conditions_give_equality_if_reachable():
    """Search for a spin-1 state with balanced second moments; if one exists
    numerically, it must saturate the conjectured bound."""
    ops = build_spin_operators(2)
    s = 1.0
    target_sq = s * (s + 1) / 3.0
    target_mean = s / SQ3

    def residual(x):
        st = from_statevector(_psi_from_params(x))
        res = 0.0
        for op in ops:
            res += (expectation(st, np.asarray(op) @ np.asarray(op)) - target_sq) ** 2
            res += (abs(expectation(st, op)) - target_mean) ** 2
        return res

    best = None
    for seed in range(12):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        res = minimize(
            residual,
            _params_from_vector(z / np.linalg.norm(z)),
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-16},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best.fun < 1e-8:
        st = from_statevector(_psi_from_params(best.x))
        gap = evaluate(RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, st, 2).gap
        assert abs(gap) <= 1e-6


def test_parametrization_round_trip():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        z = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        # a unit vector's parameters are its (re, im) pairs, which map back to it up to
        # the rounding of renormalizing by a norm of 1 +- ulps
        x = _params_from_vector(z)
        assert np.array_equal(x, np.stack([z.real, z.imag], axis=-1).reshape(4, 2 * dim))
        np.testing.assert_allclose(_psi_from_params(x), z, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_params_from_vector(_psi_from_params(x)), x, rtol=0, atol=1e-15)
        # no gauge: x and c x, for any nonzero complex c, are the same state
        x = rng.standard_normal((4, 2 * dim))
        c = rng.uniform(0.1, 10, (4, 1)) * np.exp(2j * np.pi * rng.uniform(size=(4, 1)))
        scaled = _params_from_vector(c * x.view(complex))
        for a, b in zip(_psi_from_params(x), _psi_from_params(scaled)):
            np.testing.assert_allclose(from_statevector(a).rho, from_statevector(b).rho, atol=1e-15)


@pytest.mark.parametrize("twice_s", [1, 3])
def test_zero_parameter_row_is_the_first_basis_state(twice_s):
    """An all-zero row maps to |0>, and a batch holding one scores its other rows unchanged."""
    dim = twice_s + 1
    basis = np.zeros(dim, dtype=complex)
    basis[0] = 1.0
    assert np.array_equal(_psi_from_params(np.zeros(2 * dim)), basis)
    assert np.array_equal(_psi_from_params(np.zeros((3, 2 * dim))), np.tile(basis, (3, 1)))
    objective = _param_objective(RelationId.R5_TRIPLE_SUM, twice_s)
    rows = _params_from_vector(random_pure_vectors(dim, 4, 0, 0))
    batch = np.vstack([rows[:2], np.zeros(2 * dim), rows[2:]])
    gaps = objective(batch)
    assert np.array_equal(np.delete(gaps, 2), objective(rows))
    assert gaps[2] == objective(_params_from_vector(basis[None]))[0]
