import math
from dataclasses import astuple

import numpy as np
import pytest

from triplespin.cli import dispatch
from triplespin.errors import InvalidStateError
from triplespin.measure_sim import (
    CSV_HEADER,
    Axis,
    Derived,
    EstimationResult,
    ShotConfig,
    Sweep,
    SweepRow,
    analytic_row,
    exact_expectation,
    propagate_derived,
    rows_to_csv,
    run_sweep,
    simulate_expectation,
    sweep_parameters,
)
from triplespin.relations import TAU
from triplespin.states import Family, density_from_bloch, family_point

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


@pytest.mark.parametrize(
    "e, sig",
    [
        ((0.6, 0.1, math.nan), (1e-3, 1e-3, 1e-3)),
        ((0.1, math.inf, 0.2), (1e-3, 1e-3, 1e-3)),
        ((0.1, 0.2, -math.inf), (0.0, 0.0, 0.0)),
        ((0.6, 0.1, 0.2), (1e-3, 1e-3, 1e-3)),
        ((0.1, -0.5 - 1e-9, 0.2), (0.0, 0.0, 0.0)),
        ((0.1, 0.2, 0.3), (1e-3, -1e-3, 1e-3)),
        ((0.1, 0.2, 0.3), (math.nan, 1e-3, 1e-3)),
        ((0.1, 0.2, 0.3), (1e-3, 1e-3, math.inf)),
    ],
    ids=["nan-estimate", "inf-estimate", "minus-inf-estimate", "estimate-above-half",
         "estimate-below-minus-half", "negative-stderr", "nan-stderr", "inf-stderr"],
)
def test_propagation_refuses_bad_estimates(e, sig):
    with pytest.raises(ValueError):
        propagate_derived(0.0, *(EstimationResult(ax, x, s, 1000) for ax, x, s in zip(Axis, e, sig)))


def test_propagation_takes_shot_and_exact_estimates_at_the_ball_edge():
    # a pole eigenstate reads +-1/2 with zero error; |2 <S_i>| may pass 1 by BLOCH_NORM_TOL
    pole = density_from_bloch([0, 0, -1])
    cfg = ShotConfig(shots=100, seed=0)
    shot = propagate_derived(0.0, *(simulate_expectation(pole, ax, cfg) for ax in Axis))
    exact = propagate_derived(0.0, *(exact_expectation(pole, ax) for ax in Axis))
    assert shot.sz.estimate == exact.sz.estimate == -0.5
    edge = propagate_derived(0.0, *(EstimationResult(ax, x, 0.0, 0) for ax, x in zip(Axis, (0.0, 0.0, 0.5 + 1e-13))))
    assert edge.sz.estimate == 0.5 + 1e-13


def test_delta_method_errors_match_finite_differences():
    # oracle: central finite differences of the derived maps
    e = np.array([0.21, -0.33, 0.12])
    sig = np.array([2e-4, 3e-4, 1.5e-4])

    def derived(vals):
        d = np.sqrt(0.25 - vals**2)
        return {
            "pro0": d[0] * d[1] * d[2],
            "pro1": math.sqrt(abs(TAU**3 * vals[0] * vals[1] * vals[2] / 8.0)),
            "pro2": math.sqrt(abs(vals[0] * vals[1] * vals[2] / 8.0)),
            "sum0": float(np.sum(0.25 - vals**2)),
            "sum1": TAU / 2.0 * float(np.sum(np.abs(vals))),
            "sum2": float(np.sum(np.abs(vals))) / 2.0,
        }

    h = 1e-7
    grads = {k: np.zeros(3) for k in ("pro0", "pro1", "pro2", "sum0", "sum1", "sum2")}
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
    for k, err in expected.items():
        assert getattr(row, k).stderr == pytest.approx(err, rel=1e-5), k


@pytest.mark.parametrize("e", [(0.0, 0.2, 0.5), (-0.0, -0.3, -0.5), (0.5, -0.0, 0.0)])
def test_errors_at_kinks_take_one_sided_derivatives(e):
    # |<S_i>| has slope +-1 at <S_i> = +-0, and Var(S_i) = max(1/4 - <S_i>^2, 0) keeps the
    # slope -2 <S_i> of its first branch at <S_i> = +-1/2; a zero slope would drop that axis
    sig = np.array([2e-3, 1e-3, 3e-3])
    row = propagate_derived(0.0, *(EstimationResult(ax, x, s, 1000) for ax, x, s in zip(Axis, e, sig)))
    quad = math.sqrt(float(np.sum(sig**2)))
    assert row.sum1.stderr == pytest.approx(TAU / 2.0 * quad, rel=1e-12)
    assert row.sum2.stderr == pytest.approx(quad / 2.0, rel=1e-12)
    assert row.sum0.stderr == pytest.approx(math.sqrt(float(np.sum((2.0 * np.array(e) * sig) ** 2))), rel=1e-12)


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
        blochs = np.array([family_point(family, p) for p in params])
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


def _bits(row):
    """A row's fields with each float as its hex digits, so equal means bit-identical."""
    return tuple(x.hex() if isinstance(x, float) else x for x in astuple(row))


def test_monte_carlo_rows_recompute_bit_exactly():
    cfg = ShotConfig(shots=20_000, seed=77)
    rows = run_sweep(Family.R1_LATITUDE, 6, cfg)
    for row in rows:
        again = propagate_derived(row.parameter, row.sx, row.sy, row.sz)
        assert _bits(again) == _bits(row)


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
    rows = run_sweep(Family.R1_LATITUDE, 7, ShotConfig(shots=1, seed=0), analytic_only=True)
    fields = rows_to_csv(rows).split("\n")[2].split(",")
    assert fields[1] == format(rows[1].sx.estimate, ".12g")
    assert len(fields[1].replace("0.", "").replace("-", "")) <= 12


def test_csv_renders_special_floats_as_format_does():
    # every column takes every value once, one rotation per column; flag codes cycle through 0..7
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1 / 3, -2.5e-17]
    n = len(specials)
    cols = np.array([np.roll(specials, j) for j in range(17 + 4)])
    sweep = Sweep(
        cols[0], cols[1:7:2], cols[2:7:2], (0, 0, 0), cols[7:13], cols[13:19],
        (np.arange(n) >> np.arange(3)[:, None] & 1).astype(bool),
    )
    lines = rows_to_csv(sweep).split("\n")
    assert lines[0] == CSV_HEADER and lines[-1] == "" and len(lines) == n + 2
    for k, line in enumerate(lines[1:-1]):
        row = sweep[k]
        values = (
            row.parameter, row.sx.estimate, row.sx.stderr, row.sy.estimate, row.sy.stderr, row.sz.estimate,
            row.sz.stderr, row.pro0.value, row.pro0.stderr, row.pro1.value, row.pro1.stderr, row.pro2.value,
            row.sum0.value, row.sum0.stderr, row.sum1.value, row.sum1.stderr, row.sum2.value,
        )
        assert line == ",".join([*(format(x, ".12g") for x in values), ";".join(row.flags)])
        assert len(row.flags) == bin(k % 8).count("1")


@pytest.mark.parametrize(
    "argv, family, points, shots, seed, per_draw",
    [
        (["sweep", "--family", "r1", "--points", "360"], Family.R1_LATITUDE, 360, None, 0, False),
        (["simulate", "--family", "r2", "--points", "181", "--seed", "7"], Family.R2_MERIDIAN, 181, 4_000_000, 7, False),
        (
            ["simulate", "--family", "r1", "--points", "34", "--shots", "10000", "--per-draw", "--seed", "6"],
            Family.R1_LATITUDE, 34, 10_000, 6, True,
        ),
    ],
    ids=["sweep", "simulate", "simulate-per-draw"],
)
def test_cli_sweeps_build_no_row_objects(monkeypatch, capsys, argv, family, points, shots, seed, per_draw):
    assert dispatch(argv) == 0
    expected = capsys.readouterr().out

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (SweepRow, Derived, EstimationResult):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == expected
    sweep = run_sweep(family, points, ShotConfig(shots=shots or 1, seed=seed), shots is None, per_draw)
    assert len(sweep) == points
    with pytest.raises(AssertionError, match="built a"):
        sweep[0]


def test_analytic_sweep_prints_no_negative_zero():
    # the latitude family at phi = 0 has r_y = 0, which must print as 0, not -0
    csv = rows_to_csv(run_sweep(Family.R1_LATITUDE, 4, ShotConfig(shots=1, seed=0), analytic_only=True))
    assert csv.split("\n")[1].split(",")[3] == "0"
    assert ",-0," not in csv


# CSV text of three small sweeps as the per-state route printed them (one
# validated density matrix per point, Bloch vector read back from it); the
# batch must reproduce it byte for byte. The meridian's
# theta = 0 and pi rows carry singular_* flags, and theta = pi/2 has
# r_z = cos(pi/2) read back through rho (exp_sz 2.77555756156e-17).
SWEEP_R2_5 = (
    'param,exp_sx,err_sx,exp_sy,err_sy,exp_sz,err_sz,pro0,err_pro0,pro1,err_pro1,pro2,sum0,err_sum0,sum1,err_sum1,sum2,flags\n'
    '0,0,0,0,0,0.5,0,0,0,0,0,0,0.5,0,0.288675134595,0,0.25,singular_pro0;singular_pro1;singular_pro2\n'
    '0.785398163397,0.25,0,0.25,0,0.353553390593,0,0.0662912607362,0,0.0652118575031,0,0.0525560259534,0.5,0,0.492799279827,0,0.426776695297,\n'
    '1.57079632679,0.353553390593,0,0.353553390593,0,2.77555756156e-17,0,0.0625,0,8.17126292085e-10,0,6.58544507983e-10,0.5,0,0.408248290464,0,0.353553390593,\n'
    '2.35619449019,0.25,0,0.25,0,-0.353553390593,0,0.0662912607362,0,0.0652118575031,0,0.0525560259534,0.5,0,0.492799279827,0,0.426776695297,\n'
    '3.14159265359,4.32978028118e-17,0,4.32978028118e-17,0,-0.5,0,0,0,1.34310485617e-17,0,1.08244507029e-17,0.5,0,0.288675134595,0,0.25,singular_pro0;singular_pro1;singular_pro2\n'
)

SIMULATE_R2_5 = (
    'param,exp_sx,err_sx,exp_sy,err_sy,exp_sz,err_sz,pro0,err_pro0,pro1,err_pro1,pro2,sum0,err_sum0,sum1,err_sum1,sum2,flags\n'
    '0,-0.005,0.0158105977117,-0.016,0.0158032907965,0.5,0,0,nan,0.00277452763353,0.00459571054122,0.0022360679775,0.499719,0.000529844652705,0.300799490248,0.0129063162831,0.2605,singular_pro0\n'
    '0.785398163397,0.244,0.0138008695378,0.25,0.0136930639376,0.357,0.011070275516,0.0661554329742,0.00271631047655,0.0647378220521,0.00273908872416,0.0521739877717,0.500515,0.0124382019767,0.49132507908,0.0129165913976,0.4255,\n'
    '1.57079632679,0.358,0.0110379345894,0.333,0.0117945326317,0.001,0.015811356678,0.0650935096632,0.00279907291999,0.0047898585571,0.037867248046,0.00386027848736,0.510946,0.0111429114296,0.399526386279,0.0130504916893,0.346,\n'
    '2.35619449019,0.245,0.0137831418769,0.261,0.0134862522592,-0.372,0.0105648473723,0.0621015918717,0.00272846232029,0.0676602853043,0.00275698825175,0.0545292811249,0.48347,0.0125281917734,0.506913536348,0.0126947495709,0.439,\n'
    '3.14159265359,0.009,0.0158088266484,0.011,0.0158075614818,-0.5,0,0,nan,0.00308646714572,0.00350233636391,0.00248746859277,0.499798,0.000449349743518,0.300222139979,0.0129073364151,0.26,singular_pro0\n'
)

SIMULATE_R2_5_PER_DRAW = (
    'param,exp_sx,err_sx,exp_sy,err_sy,exp_sz,err_sz,pro0,err_pro0,pro1,err_pro1,pro2,sum0,err_sum0,sum1,err_sum1,sum2,flags\n'
    '0,-0.011,0.0158075614818,-0.016,0.0158032907965,0.5,0,0,nan,0.00411528952763,0.00358802639956,0.00331662479036,0.499623,0.000613742040274,0.304263591863,0.0129050765205,0.2635,singular_pro0\n'
    '0.785398163397,0.248,0.0137293845456,0.246,0.0137653187395,0.358,0.0110379345894,0.0659667605369,0.00271795812124,0.0648326787706,0.00274038708815,0.0522504354049,0.499816,0.0124378552543,0.49190242935,0.012907568839,0.426,\n'
    '1.57079632679,0.363,0.0108734079294,0.364,0.010839926199,-0.03,0.0157829021412,0.0588272938534,0.00278775886236,0.0276200010443,0.00728877497763,0.0222597169793,0.484835,0.0112021749001,0.437054153777,0.0127126577342,0.3785,\n'
    '2.35619449019,0.231,0.0140228028582,0.237,0.0139223202089,-0.354,0.0111661989952,0.0689369095273,0.00272821029005,0.0610718186409,0.00275346546769,0.049219454995,0.515154,0.0121663547971,0.474581921274,0.0131041214891,0.411,\n'
    '3.14159265359,0.015,0.0158042715745,0.018,0.0158011391994,-0.5,0,0,nan,0.00509713273454,0.00349508355702,0.00410791918129,0.499451,0.000740525216316,0.307727693478,0.0129028549812,0.2665,singular_pro0\n'
)


@pytest.mark.parametrize(
    "analytic, per_draw, expected",
    [(True, False, SWEEP_R2_5), (False, False, SIMULATE_R2_5), (False, True, SIMULATE_R2_5_PER_DRAW)],
    ids=["sweep", "simulate", "simulate-per-draw"],
)
def test_small_sweeps_reproduce_recorded_csv(analytic, per_draw, expected):
    cfg = ShotConfig(shots=1000, seed=7)
    rows = run_sweep(Family.R2_MERIDIAN, 5, cfg, analytic_only=analytic, per_draw=per_draw)
    assert rows_to_csv(rows) == expected


@pytest.mark.parametrize("family", list(Family))
def test_sweep_rows_equal_the_per_state_route(family):
    # reference: one validated density matrix per point, estimates read from it
    cfg = ShotConfig(shots=5000, seed=3)
    params = sweep_parameters(family, 13)
    exact = run_sweep(family, 13, cfg, analytic_only=True)
    noisy = run_sweep(family, 13, cfg)
    for k, p in enumerate(params):
        state = density_from_bloch(family_point(family, p))
        reference = propagate_derived(p, *(exact_expectation(state, ax) for ax in Axis))
        np.testing.assert_equal(astuple(exact[k]), astuple(reference))  # NaN equals NaN here
        np.testing.assert_equal(astuple(exact[k]), astuple(analytic_row(family, p)))
        ests = [simulate_expectation(state, ax, cfg, index=k) for ax in Axis]
        np.testing.assert_equal(astuple(noisy[k]), astuple(propagate_derived(p, *ests)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_analytic_row_rejects_non_finite_parameter(bad):
    with pytest.raises(InvalidStateError):
        analytic_row(Family.R2_MERIDIAN, bad)
