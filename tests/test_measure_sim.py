import math
from dataclasses import fields

import numpy as np
import pytest

from triplespin.errors import InvalidStateError
from triplespin.kernels import CHUNK_ROWS
from triplespin.measure_sim import (
    _DERIVED,
    CSV_HEADER,
    ShotConfig,
    Sweep,
    _count_plus,
    _Tangent,
    propagate_derived,
    rows_to_csv,
    run_sweep,
    sweep_parameters,
)
from triplespin.moments import bloch_moments
from triplespin.relations import TAU, relation_sides, table_plan, walk
from triplespin.rng import stream
from triplespin.states import Family, bloch_from_density, density_from_bloch, family_point

SQ3 = math.sqrt(3.0)
#: the latitude family's state at pi/4 has Bloch vector (1, 1, 1)/sqrt 3
BALANCED = (Family.R1_LATITUDE, [math.pi / 4])
#: the meridian family's poles, Bloch vectors (0, 0, 1) and (0, 0, -1)
NORTH, SOUTH = (Family.R2_MERIDIAN, [0.0]), (Family.R2_MERIDIAN, [math.pi])


def _bits(sweep):
    """A sweep's arrays as bytes, so equal means bit-identical (-0.0 and each NaN included)."""
    return tuple(getattr(sweep, f.name).tobytes() for f in fields(sweep))


def _propagate(e, sig):
    """The one-point sweep of estimates e and standard errors sig, each three numbers."""
    return propagate_derived([0.0], np.reshape(e, (3, 1)), np.reshape(sig, (3, 1)))


def test_eigenstate_measurement_is_noiseless():
    for point, sz in ((NORTH, 0.5), (SOUTH, -0.5)):
        s = run_sweep(*point, ShotConfig(shots=1000, seed=0))
        assert s.estimate[2, 0] == sz
        assert s.stderr[2, 0] == 0.0


def test_fair_coin_statistics_at_experiment_scale():
    # binomial oracle: a fair +-1/2 coin at 4e6 shots has stderr 0.5/sqrt(4e6); the meridian's
    # theta = pi/2 state has r_z = 0 up to rounding
    s = run_sweep(Family.R2_MERIDIAN, [math.pi / 2], ShotConfig(shots=4_000_000, seed=42))
    assert s.stderr[2, 0] == pytest.approx(0.5 / math.sqrt(4e6), rel=0.02)
    assert abs(s.estimate[2, 0]) <= 5 * s.stderr[2, 0]


def test_simulation_is_deterministic():
    cfg = ShotConfig(shots=10_000, seed=9)
    params = [0.7, 0.7]  # one state twice: points 0 and 1 draw from different streams
    a = run_sweep(Family.R1_LATITUDE, params, cfg)
    b = run_sweep(Family.R1_LATITUDE, params, cfg)
    assert _bits(a) == _bits(b)
    assert (a.estimate[:, 0] != a.estimate[:, 1]).any()


def test_per_draw_mode_matches_distribution():
    cfg = ShotConfig(shots=50_000, seed=13)
    params = [math.acos(0.6)]  # r_z = 0.6
    a = run_sweep(Family.R2_MERIDIAN, params, cfg, per_draw=True)
    b = run_sweep(Family.R2_MERIDIAN, params, cfg, per_draw=True)
    assert _bits(a) == _bits(b)
    assert abs(a.estimate[2, 0] - 0.3) <= 5 * a.stderr[2, 0]


def test_derived_quantities_on_balanced_state():
    s = run_sweep(*BALANCED)
    pro0, pro1, _, sum0, sum1, _ = s.value[:, 0]
    assert pro0 == pytest.approx(6.0**-1.5, abs=1e-12)
    assert pro1 == pytest.approx(6.0**-1.5, abs=1e-12)
    assert sum0 == pytest.approx(0.5, abs=1e-12)
    assert sum1 == pytest.approx(0.5, abs=1e-12)
    assert (s.error == 0.0).all()
    assert not s.singular.any()


def test_derived_quantities_on_pole_state():
    s = run_sweep(*NORTH)
    pro0, pro1, _, sum0, sum1, _ = s.value[:, 0]
    assert pro0 == 0.0
    assert pro1 == 0.0
    assert sum0 == pytest.approx(0.5, abs=1e-15)
    assert sum1 == pytest.approx(TAU / 4.0, abs=1e-15)
    assert s.singular[0, 0] and s.singular[1, 0]  # singular_pro0, singular_pro1
    # exact inputs carry no uncertainty, so nothing propagates even when singular
    assert s.error[0, 0] == 0.0


def test_singular_flags_with_noisy_inputs_mark_nan():
    s = _propagate((0.1, 0.0, 0.5), (1e-3, 1e-3, 1e-3))
    assert s.singular[0, 0]  # Delta(Sz) = 0
    assert math.isnan(s.error[0, 0])
    assert s.singular[1, 0]  # <Sy> = 0 zeroes the bound
    assert math.isnan(s.error[1, 0])


def test_sum2_is_sum1_over_tau():
    rng = np.random.default_rng(1)
    e = rng.uniform(-0.45, 0.45, size=(3, 20))
    sig = rng.uniform(1e-4, 1e-2, size=(3, 20))
    s = propagate_derived(np.zeros(20), e, sig)
    np.testing.assert_allclose(s.value[5], s.value[4] / TAU, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s.error[5], s.error[4] / TAU, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "n_params, e_shape, sig_shape",
    [(2, (3, 1), (3, 1)), (1, (3, 1), (3, 2)), (1, (1, 3), (1, 3)), (1, (3,), (3,)), (0, (3, 1), (3, 1))],
    ids=["params-longer", "stderr-wider", "estimate-transposed", "estimate-flat", "no-params"],
)
def test_propagation_refuses_mismatched_shapes(n_params, e_shape, sig_shape):
    with pytest.raises(ValueError):
        propagate_derived(np.zeros(n_params), np.full(e_shape, 0.1), np.full(sig_shape, 1e-3))


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
        _propagate(e, sig)


def test_propagation_takes_shot_and_exact_estimates_at_the_ball_edge():
    # a pole eigenstate reads +-1/2 with zero error; |2 <S_i>| may pass 1 by BLOCH_NORM_TOL
    shot = run_sweep(*SOUTH, ShotConfig(shots=100, seed=0))
    exact = run_sweep(*SOUTH)
    for s in (shot, exact):
        again = propagate_derived(s.parameter, s.estimate, s.stderr)
        assert again.estimate[2, 0] == -0.5
    edge = _propagate((0.0, 0.0, 0.5 + 1e-13), (0.0, 0.0, 0.0))
    assert edge.estimate[2, 0] == 0.5 + 1e-13


def test_delta_method_errors_match_finite_differences():
    # oracle: central finite differences of the derived maps
    e = np.array([0.21, -0.33, 0.12])
    sig = np.array([2e-4, 3e-4, 1.5e-4])

    def derived(vals):
        d = np.sqrt(0.25 - vals**2)
        return np.array([
            d[0] * d[1] * d[2],  # pro0
            math.sqrt(abs(TAU**3 * vals[0] * vals[1] * vals[2] / 8.0)),  # pro1
            math.sqrt(abs(vals[0] * vals[1] * vals[2] / 8.0)),  # pro2
            float(np.sum(0.25 - vals**2)),  # sum0
            TAU / 2.0 * float(np.sum(np.abs(vals))),  # sum1
            float(np.sum(np.abs(vals))) / 2.0,  # sum2
        ])

    h = 1e-7
    grads = np.zeros((6, 3))
    for i in range(3):
        up, dn = e.copy(), e.copy()
        up[i] += h
        dn[i] -= h
        grads[:, i] = (derived(up) - derived(dn)) / (2 * h)
    expected = np.sqrt(np.sum((grads * sig) ** 2, axis=1))

    np.testing.assert_allclose(_propagate(e, sig).error[:, 0], expected, rtol=1e-5)


@pytest.mark.parametrize("e", [(0.0, 0.2, 0.5), (-0.0, -0.3, -0.5), (0.5, -0.0, 0.0)])
def test_errors_at_kinks_take_one_sided_derivatives(e):
    # |<S_i>| has slope +-1 at <S_i> = +-0, and Var(S_i) = max(1/4 - <S_i>^2, 0) keeps the
    # slope -2 <S_i> of its first branch at <S_i> = +-1/2; a zero slope would drop that axis
    sig = np.array([2e-3, 1e-3, 3e-3])
    _, _, _, err_sum0, err_sum1, err_sum2 = _propagate(e, sig).error[:, 0]
    quad = math.sqrt(float(np.sum(sig**2)))
    assert err_sum1 == pytest.approx(TAU / 2.0 * quad, rel=1e-12)
    assert err_sum2 == pytest.approx(quad / 2.0, rel=1e-12)
    assert err_sum0 == pytest.approx(math.sqrt(float(np.sum((2.0 * np.array(e) * sig) ** 2))), rel=1e-12)


def test_tangents_keep_each_relations_bits_through_stacked_steps():
    """One walk of the sweep's four relations, whose triple products and triple sums are one
    stacked step each, gives the values and partials of each relation walked alone, bit for
    bit: on seeded estimates and at +-0 components, where |<S_i>| takes one side."""
    e = np.random.default_rng(5).uniform(-0.5, 0.5, (3, 40))
    e[:, :6] = [[0.0, -0.0, 0.5, -0.0, 0.3, 0.0], [-0.0, 0.0, 0.0, -0.5, -0.0, 0.2], [0.0, 0.0, -0.0, 0.1, 0.0, -0.0]]
    plan = table_plan(_DERIVED)
    assert [target for target, *_ in plan.steps if not isinstance(target, str)] == [slice(0, 2, 1), slice(2, 4, 1)]
    sides = _Tangent(np.empty((2, 4, 40)), np.empty((2, 4, 40, 3)))

    def emit(target, lhs, rhs):
        sides[0, target], sides[1, target] = lhs, rhs

    with np.errstate(divide="ignore", invalid="ignore"):  # Delta(S_i)'s partials at |<S_i>| = 1/2
        x = _Tangent(e, np.broadcast_to(np.eye(3)[:, None], (*e.shape, 3)))
        d, v, *_ = bloch_moments(2.0 * x, reads=())
        walk(plan, {"d": d, "v": v, "e": x}, emit)
        alone = [relation_sides(relation, d, v, x) for relation in _DERIVED]
    for k, relation in enumerate(_DERIVED):
        for stacked, side in zip((sides[0, k], sides[1, k]), alone[k]):
            assert stacked.val.tobytes() == side.val.tobytes(), relation
            assert stacked.tan.tobytes() == np.ascontiguousarray(side.tan).tobytes(), relation


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


@pytest.mark.parametrize("shots", [2.5, math.nan, math.inf, 100.0, 0, 2**63])
def test_shot_config_refuses_counts_that_are_no_int64_above_zero(shots):
    # binomial would truncate 2.5 shots to 2 while the estimate divided by 2.5
    with pytest.raises(ValueError, match="shots"):
        ShotConfig(shots=shots)


def test_shot_config_takes_numpy_integers():
    assert ShotConfig(shots=np.int64(100)).shots == 100


@pytest.mark.parametrize("flag", [True, False])
def test_shot_config_refuses_bool_counts(flag):
    # a bool is an int in Python, so True would stand for one shot
    with pytest.raises(ValueError, match="shots"):
        ShotConfig(shots=flag)


@pytest.mark.parametrize("seed", [2.7, -1, 2**64, None])
def test_shot_config_refuses_seeds_outside_the_stream_range(seed):
    # checked at construction, not first at run_sweep's streams
    with pytest.raises(ValueError, match="seed"):
        ShotConfig(seed=seed)


#: + probabilities at and one word step (2^-53) inside the ends of [0, 1], 1/2, the least subnormal, and random ones
COUNT_PROBABILITIES = [0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, *np.random.default_rng(8).random(4).tolist()]


@pytest.mark.parametrize("shots", [1, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 1])
def test_raw_word_counts_equal_the_float_route(shots):
    """_count_plus on raw Philox words equals count_nonzero(stream.random(shots) < p) bit for bit."""
    for key, p in enumerate(COUNT_PROBABILITIES):
        assert _count_plus(stream(5, key), p, shots) == np.count_nonzero(stream(5, key).random(shots) < p)


def test_raw_word_counts_are_exact_at_each_bound():
    """Words on both sides of each p's bound count as their floats (w >> 11) 2^-53 < p do."""

    class Words:  # a generator whose raw words are the given ones
        def __init__(self, words):
            self.bit_generator = self
            self.words = iter(words)

        def random_raw(self, k):
            return np.array([next(self.words) for _ in range(k)], dtype=np.uint64)

    for p in COUNT_PROBABILITIES:
        edge = min(math.ceil(p * 2.0**53) << 11, 2**64 - 1)
        words = [w for w in (0, edge - 2049, edge - 2048, edge - 1, edge, edge + 1, 2**64 - 1) if 0 <= w < 2**64]
        want = sum((w >> 11) * 2.0**-53 < p for w in words)
        assert _count_plus(Words(words), p, len(words)) == want


def test_meridian_start_point_values():
    pro0, pro1, _, sum0, sum1, _ = run_sweep(*NORTH).value[:, 0]
    assert pro0 == pytest.approx(0.0, abs=1e-15)
    assert pro1 == pytest.approx(0.0, abs=1e-15)
    assert sum0 == pytest.approx(0.5, abs=1e-15)
    assert sum1 == pytest.approx(TAU / 4.0, abs=1e-15)


def test_analytic_rows_respect_dominance():
    for family in Family:
        pro0, pro1, pro2, sum0, sum1, sum2 = run_sweep(family, sweep_parameters(family, 48)).value
        assert (pro0 - pro1).min() >= -1e-12
        assert (pro1 - pro2).min() >= -1e-12
        assert (sum0 - sum1).min() >= -1e-12
        assert (sum1 - sum2).min() >= -1e-12


def test_analytic_sweep_states_satisfy_every_relation():
    from triplespin import kernels

    for family in Family:
        params = sweep_parameters(family, 60)
        blochs = np.array([family_point(family, p) for p in params])
        gaps = kernels.bloch_scorer()(blochs)
        assert gaps.min() >= -1e-12


def test_estimator_spread_matches_binomial_prediction():
    cfg_shots = 10_000
    exact = run_sweep(*BALANCED).estimate[:, 0]
    estimates = np.hstack([run_sweep(*BALANCED, ShotConfig(shots=cfg_shots, seed=s)).estimate for s in range(30)])
    spread = np.std(estimates, axis=1, ddof=1)
    predicted = np.sqrt((0.25 - exact**2) / cfg_shots)
    assert (np.abs(spread / predicted - 1.0) <= 0.2).all()


def test_monte_carlo_rows_recompute_bit_exactly():
    cfg = ShotConfig(shots=20_000, seed=77)
    s = run_sweep(Family.R1_LATITUDE, sweep_parameters(Family.R1_LATITUDE, 6), cfg)
    assert _bits(propagate_derived(s.parameter, s.estimate, s.stderr)) == _bits(s)


def test_csv_schema():
    s = run_sweep(Family.R1_LATITUDE, sweep_parameters(Family.R1_LATITUDE, 3))
    assert len(s) == 3
    lines = rows_to_csv(s).strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert len(first) == 18
    assert first[0] == "0"


def test_csv_significant_digits():
    s = run_sweep(Family.R1_LATITUDE, sweep_parameters(Family.R1_LATITUDE, 7))
    fields = rows_to_csv(s).split("\n")[2].split(",")
    assert fields[1] == format(s.estimate[0, 1], ".12g")
    assert len(fields[1].replace("0.", "").replace("-", "")) <= 12


def test_csv_renders_special_floats_as_format_does():
    # every column takes every value once, one rotation per column; flag codes cycle through 0..7
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1 / 3, -2.5e-17]
    n = len(specials)
    cols = np.array([np.roll(specials, j) for j in range(17 + 4)])
    sweep = Sweep(
        cols[0], cols[1:7:2], cols[2:7:2], cols[7:13], cols[13:19],
        (np.arange(n) >> np.arange(3)[:, None] & 1).astype(bool),
    )
    tags = ("singular_pro0", "singular_pro1", "singular_pro2")
    lines = rows_to_csv(sweep).split("\n")
    assert lines[0] == CSV_HEADER and lines[-1] == "" and len(lines) == n + 2
    for k, line in enumerate(lines[1:-1]):
        (sx, sy, sz), (ex, ey, ez) = sweep.estimate[:, k], sweep.stderr[:, k]
        (pro0, pro1, pro2, sum0, sum1, sum2), (e0, e1, _, e3, e4, _) = sweep.value[:, k], sweep.error[:, k]
        values = (sweep.parameter[k], sx, ex, sy, ey, sz, ez, pro0, e0, pro1, e1, pro2, sum0, e3, sum1, e4, sum2)
        flags = [t for t, on in zip(tags, sweep.singular[:, k]) if on]
        assert line == ",".join([*(format(x, ".12g") for x in values), ";".join(flags)])
        assert len(flags) == bin(k % 8).count("1")


def test_analytic_sweep_prints_no_negative_zero():
    # the latitude family at phi = 0 has r_y = 0, which must print as 0, not -0
    csv = rows_to_csv(run_sweep(Family.R1_LATITUDE, sweep_parameters(Family.R1_LATITUDE, 4)))
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
    "shots, per_draw, expected",
    [(None, False, SWEEP_R2_5), (1000, False, SIMULATE_R2_5), (1000, True, SIMULATE_R2_5_PER_DRAW)],
    ids=["sweep", "simulate", "simulate-per-draw"],
)
def test_small_sweeps_reproduce_recorded_csv(shots, per_draw, expected):
    cfg = None if shots is None else ShotConfig(shots=shots, seed=7)
    s = run_sweep(Family.R2_MERIDIAN, sweep_parameters(Family.R2_MERIDIAN, 5), cfg, per_draw)
    assert rows_to_csv(s) == expected


def _per_state_columns(family, params, shots, seed, per_draw):
    """(3, n) estimates and errors by the per-state route: one validated density matrix per
    point, its Bloch vector r read back from it, and point k's axis i from stream (seed, k, i)."""
    e, sig = np.zeros((3, len(params))), np.zeros((3, len(params)))
    for k, p in enumerate(params):
        r = bloch_from_density(density_from_bloch(family_point(family, p)))
        for i in range(3):
            if shots is None:
                e[i, k] = r[i] / 2.0 + 0.0
                continue
            p_plus = np.clip((1.0 + r[i]) / 2.0, 0.0, 1.0)
            rng = stream(seed, k, i)
            plus = np.count_nonzero(rng.random(shots) < p_plus) if per_draw else rng.binomial(shots, p_plus)
            e[i, k] = plus / shots - 0.5
            sig[i, k] = math.sqrt(max(0.25 - e[i, k] * e[i, k], 0.0) / shots)
    return e, sig


@pytest.mark.parametrize("family", list(Family))
def test_sweep_rows_equal_the_per_state_route(family):
    params = sweep_parameters(family, 13)
    # 70000 per-draw shots span three blocks of kernels.CHUNK_ROWS
    for shots, per_draw in ((None, False), (5000, False), (70_000, True)):
        cfg = None if shots is None else ShotConfig(shots=shots, seed=3)
        s = run_sweep(family, params, cfg, per_draw)
        assert len(s) == 13
        e, sig = _per_state_columns(family, params, shots, 3, per_draw)
        assert (s.estimate.tobytes(), s.stderr.tobytes()) == (e.tobytes(), sig.tobytes())
        assert _bits(propagate_derived(params, e, sig)) == _bits(s)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_analytic_row_rejects_non_finite_parameter(bad):
    for cfg in (None, ShotConfig(shots=10, seed=0)):
        with pytest.raises(InvalidStateError):
            run_sweep(Family.R2_MERIDIAN, [0.5, bad], cfg)


@pytest.mark.parametrize("params", [0.5, [[0.0, 0.5]], np.zeros((3, 1))], ids=["scalar", "row", "column"])
def test_run_sweep_refuses_params_that_are_not_one_dimensional(params):
    with pytest.raises(ValueError):
        run_sweep(Family.R1_LATITUDE, params)
