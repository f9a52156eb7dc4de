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
    ProbeConfig,
    _bloch_from_params,
    _param_objective,
    _params_from_vector,
    _psi_from_params,
    is_counterexample,
    lockstep_nelder_mead,
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
    random_mixed_bloch,
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
    ops = build_spin_operators(twice_s)
    nx, ny, nz = direction / np.linalg.norm(direction)
    theta = math.acos(np.clip(nz, -1, 1))
    phi = math.atan2(ny, nx)
    top = np.zeros(twice_s + 1, dtype=complex)
    top[0] = 1.0
    return expm(-1j * phi * np.asarray(ops.sz)) @ expm(-1j * theta * np.asarray(ops.sy)) @ top


def test_min_gap_variance_sum_spin_one_finds_coherent_state():
    result = min_gap(RelationId.R7_SUM_GENERAL_S, 2, ProbeConfig(restarts=12, seed=4))
    assert result.min_gap <= 1e-8
    ops = build_spin_operators(2)
    direction = np.array([expectation(result.argmin_state, op) for op in ops.as_tuple()])
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
    # R5's eight balanced states tie: the first restart within tol of the lowest gap wins
    band = [r for r, g in enumerate(gaps) if g <= min(gaps) + FAST.tol]
    assert result.best_restart == band[0]
    assert result.agreeing_restarts == len(band) == FAST.restarts
    assert abs(gaps[result.best_restart] - result.min_gap) <= 1e-12
    assert result.to_dict()["restart_gaps"] == list(gaps)
    assert result.to_dict()["agreeing_restarts"] == len(band)

    scan = scan_conjecture(2, 500, ProbeConfig(seed=5))
    assert len(scan.restart_gaps) == 10
    assert min(scan.restart_gaps) >= scan.min_gap - 1e-12


@pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
def test_objective_matches_evaluate(twice_s):
    """The objective's scorers, each scoring its relations in one call, vs evaluate row by row."""
    rng = np.random.default_rng(twice_s)
    dim = twice_s + 1
    relations = tuple(relation for relation in RelationId if applicable_to(relation, twice_s))
    psis = rng.standard_normal((10, dim)) + 1j * rng.standard_normal((10, dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    routes = [(relations, psis, kernels.vector_scorer(relations, twice_s)(psis), from_statevector)]
    if twice_s == 1:
        # Bloch rows inside the ball and on its surface, on all 18 relations (not the soak's 16)
        bloch = _bloch_from_params(rng.standard_normal((10, 3)) * rng.uniform(0.2, 1.5, (10, 1)))
        routes.append((relations, bloch, kernels.qubit_relation_gaps(bloch, relations), density_from_bloch))
    for columns, states, gaps, to_state in routes:
        assert gaps.shape == (10, len(columns))
        for row, row_gaps in zip(states, gaps):
            state = to_state(row)
            for relation, gap in zip(columns, row_gaps):
                assert abs(gap - evaluate(relation, state, twice_s).gap) <= 1e-12, relation


def _one_by_one(objective, calls=None):
    """The objective evaluated one point per call, as a batch map."""

    def batch(points):
        if calls is not None:
            calls.append(len(points))
        return [float(objective(x[None])[0]) for x in points]

    return batch


def _start(dim, seed, restart, mixed):
    """min_gap's start state for `restart`: the shared samplers' draw on stream (seed, restart)."""
    if mixed:
        return random_mixed_bloch(1, seed, restart)[0]
    return random_pure_vectors(dim, 1, seed, restart)[0]


def _start_params(dim, seed, restart, mixed):
    """The parameter row _search starts `restart` from (a Bloch row is its own)."""
    start = _start(dim, seed, restart, mixed)
    return start if mixed else _params_from_vector(start)


@pytest.mark.parametrize("twice_s, mixed", [(1, True), (1, False), (3, False)])
def test_min_gap_starts_from_the_shared_samplers(monkeypatch, twice_s, mixed):
    monkeypatch.setattr(prober, "_search", lambda relation, spin, starts, cfg, mixed=False: starts)
    starts = min_gap(RelationId.R7_SUM_GENERAL_S, twice_s, ProbeConfig(restarts=5, seed=7), mixed=mixed)
    assert np.array_equal(starts, [_start(twice_s + 1, 7, r, mixed) for r in range(5)])


#: (relation, twice_s, mixed, max_iters) cases for the scipy oracle
ORACLE_CASES = [
    (RelationId.R5_TRIPLE_SUM, 1, False, 2000),
    (RelationId.R6_SUM_HALF, 1, True, 2000),
    (RelationId.R7_SUM_GENERAL_S, 4, False, 700),
    (RelationId.R10_ENTROPIC_TRIPLE, 1, False, 2000),
    (RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, 3, False, 2000),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("relation, twice_s, mixed, max_iters", ORACLE_CASES, ids=lambda v: getattr(v, "name", None))
def test_lockstep_single_run_reproduces_scipy(relation, twice_s, mixed, max_iters, seed):
    objective = _param_objective(relation, twice_s, mixed)
    x0 = _start_params(twice_s + 1, seed, 0, mixed)
    scalar = _one_by_one(objective)
    ref = minimize(
        lambda x: scalar(x[None])[0],
        x0,
        method="Nelder-Mead",
        options={"maxiter": max_iters, "xatol": prober._XATOL, "fatol": 1e-10},
    )
    got = lockstep_nelder_mead(scalar, x0[None], max_iters, 1e-10)
    assert got.nfev[0] == ref.nfev and got.nit[0] == ref.nit
    assert np.array_equal(got.x[0], ref.x)
    assert got.fun[0] == ref.fun
    assert got.success[0] == ref.success


def test_lockstep_stops_at_max_iters_like_scipy():
    objective = _one_by_one(_param_objective(RelationId.R7_SUM_GENERAL_S, 4))
    x0 = _start_params(5, 0, 0, False)
    ref = minimize(
        lambda x: objective(x[None])[0],
        x0,
        method="Nelder-Mead",
        options={"maxiter": 30, "xatol": prober._XATOL, "fatol": 1e-10},
    )
    got = lockstep_nelder_mead(objective, x0[None], 30, 1e-10)
    assert not ref.success and not got.success[0]
    assert got.nit[0] == ref.nit == 30
    assert got.nfev[0] == ref.nfev and got.fun[0] == ref.fun and np.array_equal(got.x[0], ref.x)


def test_lockstep_shrink_step_reproduces_scipy():
    objective = _param_objective(RelationId.R6_SUM_HALF, 1, mixed=True)
    x0 = _start_params(2, 0, 0, True)
    calls = []
    got = lockstep_nelder_mead(_one_by_one(objective, calls), x0[None], 2000, 1e-10)
    assert 3 in calls[1:]  # a shrink evaluates the n = 3 non-best vertices in one call
    ref = minimize(
        lambda x: _one_by_one(objective)(x[None])[0],
        x0,
        method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": prober._XATOL, "fatol": 1e-10},
    )
    assert got.nfev[0] == ref.nfev and got.nit[0] == ref.nit
    assert np.array_equal(got.x[0], ref.x) and got.fun[0] == ref.fun


def test_lockstep_restarts_match_their_single_runs():
    objective = _param_objective(RelationId.R3_TRIPLE_PRODUCT, 1, mixed=True)
    starts = np.array([_start_params(2, 4, r, True) for r in range(6)])
    calls = []
    runs = lockstep_nelder_mead(_one_by_one(objective, calls), starts, 2000, 1e-10)
    # at most two batched calls an iteration (candidates, shrinks), after the initial simplex
    assert len(calls) <= 1 + 2 * (runs.nit.max() - 1)
    assert len(set(runs.nit.tolist())) > 1  # the runs stop at different iterations
    for r, x0 in enumerate(starts):
        one = lockstep_nelder_mead(_one_by_one(objective), x0[None], 2000, 1e-10)
        assert one.fun[0] == runs.fun[r] and np.array_equal(one.x[0], runs.x[r])
        assert one.nfev[0] == runs.nfev[r] and one.nit[0] == runs.nit[r]
        assert one.success[0] == runs.success[r]


def _iteration_calls(monkeypatch, objective, starts, max_iters):
    """lockstep_nelder_mead's result and the row counts of its objective calls, one list an iteration."""
    log = []
    sort = prober._sort_simplices

    def logged(points):
        log.append(len(points))
        return objective(points)

    def sorting(sim, fsim):
        log.append(None)  # every iteration ends with a sort
        return sort(sim, fsim)

    monkeypatch.setattr(prober, "_sort_simplices", sorting)
    runs = lockstep_nelder_mead(logged, starts, max_iters, 1e-10)
    # the initial simplex: one call, then two sorts
    assert log[:3] == [len(starts) * (starts.shape[1] + 1), None, None]
    iterations, calls = [], []
    for entry in log[3:]:
        if entry is None:
            iterations.append(calls)
            calls = []
        else:
            calls.append(entry)
    return runs, iterations + ([calls] if calls else [])


def test_one_call_an_iteration_while_few_runs_are_live(monkeypatch):
    objective = _param_objective(RelationId.R6_SUM_HALF, 1, mixed=True)
    starts = np.array([_start_params(2, 0, r, True) for r in range(prober.SPECULATE_RUNS)])
    runs, iterations = _iteration_calls(monkeypatch, objective, starts, 2000)
    assert len(iterations) == runs.nit.max() - 1
    live = len(starts)
    for calls in iterations:
        # every live run's four candidates in one call, then the shrinking runs' n = 3 vertices
        assert len(calls) in (1, 2) and calls[0] % 4 == 0 and calls[0] // 4 <= live
        live = calls[0] // 4
        assert len(calls) == 1 or (calls[1] % 3 == 0 and calls[1] // 3 <= live)
    assert any(len(calls) == 2 for calls in iterations)  # some run shrinks


@pytest.mark.parametrize(
    "relation, twice_s, mixed, max_iters",
    [(RelationId.R7_SUM_GENERAL_S, 4, False, 700), (RelationId.R3_TRIPLE_PRODUCT, 1, True, 2000)],
    ids=["R7-spin2", "R3-mixed"],
)
def test_speculative_and_lazy_schedules_agree(monkeypatch, relation, twice_s, mixed, max_iters):
    """64 runs scored four candidates a call, or the reflections first: the same runs, bit for bit."""
    objective = _param_objective(relation, twice_s, mixed)
    starts = np.array([_start_params(twice_s + 1, 5, r, mixed) for r in range(64)])
    results = []
    for gate in (0, 1 << 20):
        monkeypatch.setattr(prober, "SPECULATE_RUNS", gate)
        results.append(lockstep_nelder_mead(objective, starts, max_iters, 1e-10))
    lazy, speculative = results
    for field in dataclasses.fields(prober.SimplexRuns):
        assert np.array_equal(getattr(lazy, field.name), getattr(speculative, field.name), equal_nan=True), field.name
    # with the gate at 0 an iteration scores the reflections, then second points or shrinks
    monkeypatch.setattr(prober, "SPECULATE_RUNS", 0)
    _, iterations = _iteration_calls(monkeypatch, objective, starts[:8], 50)
    assert all(1 <= len(calls) <= 3 for calls in iterations) and iterations[0][0] == 8


#: (relation, twice_s) for every relation with a moment formula that applies at twice_s 1-4
RESTART_CASES = [
    (spec.relation, twice_s)
    for twice_s in (1, 2, 3, 4)
    for spec in RELATIONS
    if spec.sides is not None and applicable_to(spec.relation, twice_s)
]


@pytest.mark.parametrize("relation, twice_s", RESTART_CASES, ids=lambda v: getattr(v, "name", str(v)))
def test_restart_result_does_not_depend_on_the_other_restarts(relation, twice_s):
    """Restart r ends the same, bit for bit, as one of r + 1, 16 or 24 restarts (24 crosses SPECULATE_RUNS)."""
    objective = _param_objective(relation, twice_s)
    starts = np.array([_start_params(twice_s + 1, 3, r, False) for r in range(24)])
    many = lockstep_nelder_mead(objective, starts, 40, 1e-10)
    sixteen = lockstep_nelder_mead(objective, starts[:16], 40, 1e-10)
    for r in range(16):
        few = lockstep_nelder_mead(objective, starts[: r + 1], 40, 1e-10)
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
    with pytest.raises(SpinRestrictionError):
        min_gap(RelationId.R8_VARIANCE_OF_SUMS, 2, FAST)
    with pytest.raises(ValueError, match="needs spin 1/2"):
        min_gap(RelationId.R7_SUM_GENERAL_S, 2, FAST, mixed=True)


def test_best_restart_ignores_rounding_noise_among_equal_minima(monkeypatch):
    real = prober.lockstep_nelder_mead

    def noisy(*args, **kwargs):
        runs = real(*args, **kwargs)
        fun = runs.fun.copy()
        fun[0] += 1e-14  # a tie up to rounding: restart 0 still agrees with the rest
        fun[1] += 1.0  # a restart that missed the minimum
        return dataclasses.replace(runs, fun=fun)

    monkeypatch.setattr(prober, "lockstep_nelder_mead", noisy)
    result = min_gap(RelationId.R5_TRIPLE_SUM, 1, FAST)
    assert result.best_restart == 0
    assert result.agreeing_restarts == FAST.restarts - 1


def test_triple_sum_probe_reaches_zero_at_spin_two():
    # R5 holds at every spin; spin-coherent states along a cube diagonal attain it
    result = min_gap(RelationId.R5_TRIPLE_SUM, 4, ProbeConfig(restarts=16, seed=1))
    assert abs(result.min_gap) <= 1e-9
    assert result.agreeing_restarts >= 2


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
    real = prober.lockstep_nelder_mead

    def recording(objective, x0, max_iters, fatol):
        starts.append(x0)
        return real(objective, x0, max_iters, fatol)

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    monkeypatch.setattr(prober, "lockstep_nelder_mead", recording)
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
        st = from_statevector(_psi_from_params(x, 3))
        res = 0.0
        for op in ops.as_tuple():
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
        st = from_statevector(_psi_from_params(best.x, 3))
        gap = evaluate(RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, st, 2).gap
        assert abs(gap) <= 1e-6


def test_parametrization_round_trip():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z /= np.linalg.norm(z)
        st = from_statevector(_psi_from_params(_params_from_vector(z), dim))
        # equality up to the fixed global phase
        assert st.purity() == pytest.approx(1.0, abs=1e-12)
        overlap = float(np.real(z.conj() @ st.rho @ z))
        assert overlap == pytest.approx(1.0, abs=1e-12)
