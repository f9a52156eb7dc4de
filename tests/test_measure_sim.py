import math

import numpy as np
import pytest

from triplespin.measure_sim import (
    CSV_HEADER,
    Axis,
    EstimationResult,
    ShotConfig,
    analytic_row,
    exact_expectation,
    propagate_derived,
    rows_to_csv,
    run_sweep,
    simulate_expectation,
    sweep_parameters,
)
from triplespin.relations import TAU
from triplespin.states import Family, density_from_bloch

SQ3 = math.sqrt(3.0)
BALANCED = density_from_bloch([1 / SQ3, 1 / SQ3, 1 / SQ3])


def test_eigenstate_measurement_is_noiseless():
    est = simulate_expectation(density_from_bloch([0, 0, 1]), Axis.SZ, ShotConfig(shots=1000, seed=0))
    assert est.estimate == 0.5
    assert est.stderr == 0.0


def test_simulation_requires_qubit():
    from triplespin.errors import DimensionMismatchError
    from triplespin.states import random_pure

    with pytest.raises(DimensionMismatchError):
        simulate_expectation(random_pure(3, 0), Axis.SZ, ShotConfig(shots=10, seed=0))


def test_fair_coin_statistics_at_experiment_scale():
    # binomial oracle: a fair +-1/2 coin at 4e6 shots has stderr 0.5/sqrt(4e6)
    cfg = ShotConfig(shots=4_000_000, seed=42)
    est = simulate_expectation(density_from_bloch([1, 0, 0]), Axis.SZ, cfg)
    assert est.stderr == pytest.approx(0.5 / math.sqrt(4e6), rel=0.02)
    assert abs(est.estimate) <= 5 * est.stderr


def test_simulation_is_deterministic():
    cfg = ShotConfig(shots=10_000, seed=9)
    st = density_from_bloch([0.3, -0.2, 0.4])
    a = simulate_expectation(st, Axis.SX, cfg, index=4)
    b = simulate_expectation(st, Axis.SX, cfg, index=4)
    assert a == b
    c = simulate_expectation(st, Axis.SX, cfg, index=5)
    assert a != c


def test_per_draw_mode_matches_distribution():
    cfg = ShotConfig(shots=50_000, seed=13)
    st = density_from_bloch([0, 0, 0.6])
    a = simulate_expectation(st, Axis.SZ, cfg, per_draw=True)
    b = simulate_expectation(st, Axis.SZ, cfg, per_draw=True)
    assert a == b
    assert abs(a.estimate - 0.3) <= 5 * a.stderr


def _exact_row(state):
    return propagate_derived(
        0.0,
        exact_expectation(state, Axis.SX),
        exact_expectation(state, Axis.SY),
        exact_expectation(state, Axis.SZ),
    )


def test_derived_quantities_on_balanced_state():
    row = _exact_row(BALANCED)
    assert row.pro0.value == pytest.approx(6.0**-1.5, abs=1e-12)
    assert row.pro1.value == pytest.approx(6.0**-1.5, abs=1e-12)
    assert row.sum0.value == pytest.approx(0.5, abs=1e-12)
    assert row.sum1.value == pytest.approx(0.5, abs=1e-12)
    for derived in (row.pro0, row.pro1, row.pro2, row.sum0, row.sum1, row.sum2):
        assert derived.stderr == 0.0
    assert row.flags == ()


def test_derived_quantities_on_pole_state():
    row = _exact_row(density_from_bloch([0, 0, 1]))
    assert row.pro0.value == 0.0
    assert row.pro1.value == 0.0
    assert row.sum0.value == pytest.approx(0.5, abs=1e-15)
    assert row.sum1.value == pytest.approx(TAU / 4.0, abs=1e-15)
    assert "singular_pro0" in row.flags
    assert "singular_pro1" in row.flags
    # exact inputs carry no uncertainty, so nothing propagates even when singular
    assert row.pro0.stderr == 0.0


def test_singular_flags_with_noisy_inputs_mark_nan():
    row = propagate_derived(
        0.0,
        EstimationResult(Axis.SX, 0.1, 1e-3, 1000),
        EstimationResult(Axis.SY, 0.0, 1e-3, 1000),
        EstimationResult(Axis.SZ, 0.5, 1e-3, 1000),
    )
    assert "singular_pro0" in row.flags  # Delta(Sz) = 0
    assert math.isnan(row.pro0.stderr)
    assert "singular_pro1" in row.flags  # <Sy> = 0 zeroes the bound
    assert math.isnan(row.pro1.stderr)


def test_sum2_is_sum1_over_tau():
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = rng.uniform(-0.45, 0.45, size=3)
        s = rng.uniform(1e-4, 1e-2, size=3)
        row = propagate_derived(
            0.0,
            EstimationResult(Axis.SX, e[0], s[0], 1000),
            EstimationResult(Axis.SY, e[1], s[1], 1000),
            EstimationResult(Axis.SZ, e[2], s[2], 1000),
        )
        assert row.sum2.value == pytest.approx(row.sum1.value / TAU, abs=1e-12)
        assert row.sum2.stderr == pytest.approx(row.sum1.stderr / TAU, abs=1e-12)


def test_propagation_requires_axis_order():
    good = exact_expectation(BALANCED, Axis.SX)
    with pytest.raises(ValueError):
        propagate_derived(0.0, good, good, exact_expectation(BALANCED, Axis.SZ))


def test_delta_method_errors_match_finite_differences():
    # oracle: central finite differences of the derived maps
    e = np.array([0.21, -0.33, 0.12])
    sig = np.array([2e-4, 3e-4, 1.5e-4])

    def derived(vals):
        d = np.sqrt(0.25 - vals**2)
        return {
            "pro0": d[0] * d[1] * d[2],
            "pro1": math.sqrt(abs(TAU**3 * vals[0] * vals[1] * vals[2] / 8.0)),
            "sum0": float(np.sum(0.25 - vals**2)),
            "sum1": TAU / 2.0 * float(np.sum(np.abs(vals))),
        }

    h = 1e-7
    grads = {k: np.zeros(3) for k in ("pro0", "pro1", "sum0", "sum1")}
    for i in range(3):
        up, dn = e.copy(), e.copy()
        up[i] += h
        dn[i] -= h
        fu, fd = derived(up), derived(dn)
        for k in grads:
            grads[k][i] = (fu[k] - fd[k]) / (2 * h)
    expected = {k: math.sqrt(float(np.sum((grads[k] * sig) ** 2))) for k in grads}

    row = propagate_derived(
        0.0,
        EstimationResult(Axis.SX, e[0], sig[0], 1000),
        EstimationResult(Axis.SY, e[1], sig[1], 1000),
        EstimationResult(Axis.SZ, e[2], sig[2], 1000),
    )
    assert row.pro0.stderr == pytest.approx(expected["pro0"], rel=1e-5)
    assert row.pro1.stderr == pytest.approx(expected["pro1"], rel=1e-5)
    assert row.sum0.stderr == pytest.approx(expected["sum0"], rel=1e-5)
    assert row.sum1.stderr == pytest.approx(expected["sum1"], rel=1e-5)


def test_sweep_parameter_grids():
    lat = sweep_parameters(Family.R1_LATITUDE, 8)
    assert len(lat) == 8
    assert lat[0] == 0.0
    assert lat[-1] < 2 * np.pi
    mer = sweep_parameters(Family.R2_MERIDIAN, 9)
    assert mer[0] == 0.0
    assert mer[-1] == pytest.approx(np.pi, abs=1e-15)
    with pytest.raises(ValueError):
        sweep_parameters(Family.R1_LATITUDE, 1)


def test_meridian_start_point_values():
    row = analytic_row(Family.R2_MERIDIAN, 0.0)
    assert row.pro0.value == pytest.approx(0.0, abs=1e-15)
    assert row.pro1.value == pytest.approx(0.0, abs=1e-15)
    assert row.sum0.value == pytest.approx(0.5, abs=1e-15)
    assert row.sum1.value == pytest.approx(TAU / 4.0, abs=1e-15)


def test_analytic_rows_respect_dominance():
    for family in Family:
        for row in run_sweep(family, 48, ShotConfig(shots=1, seed=0), analytic_only=True):
            assert row.pro0.value - row.pro1.value >= -1e-12
            assert row.pro1.value - row.pro2.value >= -1e-12
            assert row.sum0.value - row.sum1.value >= -1e-12
            assert row.sum1.value - row.sum2.value >= -1e-12


def test_analytic_sweep_states_satisfy_every_relation():
    from triplespin import kernels
    from triplespin.states import family_point

    for family in Family:
        params = sweep_parameters(family, 60)
        blochs = np.array([family_point(family, p).bloch for p in params])
        gaps = kernels.qubit_relation_gaps(blochs)
        assert gaps.min() >= -1e-12


def test_estimator_spread_matches_binomial_prediction():
    cfg_shots = 10_000
    state = BALANCED
    exact = {ax: exact_expectation(state, ax).estimate for ax in Axis}
    for ax in Axis:
        estimates = [
            simulate_expectation(state, ax, ShotConfig(shots=cfg_shots, seed=s)).estimate
            for s in range(30)
        ]
        spread = float(np.std(estimates, ddof=1))
        predicted = math.sqrt((0.25 - exact[ax] ** 2) / cfg_shots)
        assert abs(spread / predicted - 1.0) <= 0.2


def test_monte_carlo_rows_recompute_bit_exactly():
    cfg = ShotConfig(shots=20_000, seed=77)
    rows = run_sweep(Family.R1_LATITUDE, 6, cfg)
    for row in rows:
        again = propagate_derived(row.parameter, row.sx, row.sy, row.sz)
        assert rows_to_csv([again]) == rows_to_csv([row])


def test_csv_schema():
    rows = run_sweep(Family.R1_LATITUDE, 3, ShotConfig(shots=1, seed=0), analytic_only=True)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert len(first) == 18
    assert first[0] == "0"


def test_csv_significant_digits():
    row = analytic_row(Family.R1_LATITUDE, 0.1)
    body = rows_to_csv([row]).strip().split("\n")[1]
    fields = body.split(",")
    assert fields[1] == format(row.sx.estimate, ".12g")
    assert len(fields[1].replace("0.", "").replace("-", "")) <= 12


def test_analytic_sweep_prints_no_negative_zero():
    # the latitude family at phi = 0 has r_y = 0, which must print as 0, not -0
    csv = rows_to_csv(run_sweep(Family.R1_LATITUDE, 4, ShotConfig(shots=1, seed=0), analytic_only=True))
    assert csv.split("\n")[1].split(",")[3] == "0"
    assert ",-0," not in csv
