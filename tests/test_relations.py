import collections
import math

import numpy as np
import pytest

from triplespin import cli, kernels, moments, relations, states
from triplespin.errors import DimensionMismatchError, InvalidStateError, SpinRestrictionError, TripleSpinError
from triplespin.moments import pure_moments
from triplespin.relations import (
    QUBIT_SOAK_RELATIONS,
    RELATIONS,
    TAU,
    RelationId,
    applicable_to,
    equality_condition,
    evaluate,
    evaluate_all,
    evaluate_robertson,
    relation_sides,
    soak_qubit,
    table_plan,
)
from triplespin.spin_ops import Spin, build_spin_operators, commutator
from triplespin.states import (
    QuantumState,
    density_from_bloch,
    from_statevector,
    random_mixed,
    random_mixed_bloch,
    random_pure,
    random_pure_bloch,
    random_pure_vectors,
)

SX, SY, _ = build_spin_operators(1)
SQ3 = math.sqrt(3.0)
BALANCED = density_from_bloch([1 / SQ3, 1 / SQ3, 1 / SQ3])


def test_triple_constant():
    assert abs(TAU - 2.0 / math.sqrt(3.0)) == 0.0
    assert abs(TAU * TAU - 4.0 / 3.0) <= 1e-15


def test_robertson_saturated_on_pole():
    rep = evaluate_robertson(density_from_bloch([0, 0, 1]), SX, SY)
    # Delta Sx = Delta Sy = 1/2 and <Sz> = 1/2 at the pole
    assert rep.lhs == pytest.approx(0.25, abs=1e-15)
    assert rep.rhs == pytest.approx(0.25, abs=1e-15)
    assert rep.saturated


def test_robertson_loose_on_maximally_mixed():
    rep = evaluate_robertson(density_from_bloch([0, 0, 0]), SX, SY)
    assert rep.lhs == pytest.approx(0.25, abs=1e-15)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)


def test_robertson_self_commutator():
    st = density_from_bloch([0.2, 0.3, 0.1])
    rep = evaluate_robertson(st, SX, SX)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)
    assert rep.gap >= 0.0


def test_robertson_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate_robertson(density_from_bloch([0, 0, 0]), SX, np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_robertson_rejects_non_finite_observables(bad):
    op = np.array([[bad, 0], [0, 1]], dtype=complex)
    for a, b in ((op, SX), (SX, op)):
        with pytest.raises(TripleSpinError, match="non-finite"):
            evaluate_robertson(density_from_bloch([0, 0, 1]), a, b)


#: The scalar functions of moments: the tests' oracle, which no evaluator calls.
SCALAR_MOMENTS = ("expectation", "variance", "std_dev", "outcome_distribution", "shannon_entropy")
#: Every relation that evaluate accepts at spin 1/2.
EVALUABLE = tuple(relation for relation in RelationId if applicable_to(relation, 1))


def _count_moment_calls(monkeypatch) -> collections.Counter:
    """Counts, from here on, of the scalar moment calls, kernels' pure_moments calls, eighs and eigvalshs."""
    counts = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (moments, relations, kernels):
        for name in SCALAR_MOMENTS:
            if hasattr(module, name):
                count(module, name)
    count(kernels, "pure_moments")
    count(np.linalg, "eigh")
    count(np.linalg, "eigvalsh")
    return counts


@pytest.mark.parametrize("relation", EVALUABLE)
def test_evaluate_computes_only_the_moments_its_relation_reads(monkeypatch, relation):
    """No scalar moment call; one pure_moments call for the means and variances
    if the formula reads any, one more for R8's Var(Si+Sj), none for entropies.

    The first evaluate builds the spin's moment builder and the second finds it
    cached, so rho's is the only eigh: no spin operator is diagonalized again,
    and the state's check and its moments share that one (QuantumState.spectrum).
    """
    want = evaluate(relation, BALANCED, 1)
    counts = _count_moment_calls(monkeypatch)
    assert evaluate(relation, QuantumState(BALANCED.rho), 1) == want
    reads = set(table_plan((relation,)).reads)
    pure_calls = bool(reads & {"d", "v", "e"}) + ("w" in reads)
    assert counts == collections.Counter({"pure_moments": pure_calls, "eigh": 1})


def test_evaluate_all_takes_every_moment_from_one_pass(monkeypatch):
    """One eigh of rho, the state's, and two pure_moments calls for the whole set: the spin stack and the pair sums."""
    want = evaluate_all(EVALUABLE, BALANCED, 1)
    counts = _count_moment_calls(monkeypatch)
    assert evaluate_all(EVALUABLE, QuantumState(BALANCED.rho), 1) == want
    assert counts == collections.Counter({"pure_moments": 2, "eigh": 1})


def test_verify_all_makes_one_eigh(monkeypatch, capsys):
    argv = ["verify", "--relation", "all", "--bloch", "0.1,0.2,0.3"]
    assert cli.dispatch(argv) == 0
    counts = _count_moment_calls(monkeypatch)
    assert cli.dispatch(argv) == 0
    assert counts["eigh"] == 1 and not counts["eigvalsh"]


def test_evaluate_all_computes_each_term_once(monkeypatch):
    """verify --relation all's set at spin 1/2 walks one table pass, so each TERMS entry is
    computed at most once, however many of its relations read it (abs_e: R2, R4, R5, SUM2)."""
    rels = cli.parse_relations("all", Spin(1))
    want = evaluate_all(rels, BALANCED, 1)
    counts = collections.Counter()

    def counted(name, formula):
        def term(*args):
            counts[name] += 1
            return formula(*args)

        return term

    relations._table_plan.cache_clear()  # plans keep the formulas they were built with
    monkeypatch.setattr(relations, "TERMS", {name: counted(name, f) for name, f in relations.TERMS.items()})
    try:
        assert evaluate_all(rels, BALANCED, 1) == want
    finally:
        monkeypatch.undo()
        relations._table_plan.cache_clear()
    assert set(counts) == set(relations.TERMS) and max(counts.values()) == 1


@pytest.mark.parametrize("twice_s", range(1, 5))
def test_evaluate_all_equals_evaluate_per_relation(twice_s):
    """Every applicable relation, in either order, on Haar pure and Hilbert-Schmidt states: repr-identical."""
    dim = twice_s + 1
    rels = [relation for relation in RelationId if applicable_to(relation, twice_s)]
    for st in [random_pure(dim, seed) for seed in range(3)] + [random_mixed(dim, seed) for seed in range(3)]:
        for order in (rels, rels[::-1]):
            assert repr(evaluate_all(order, st, twice_s)) == repr([evaluate(r, st, twice_s) for r in order])


def test_evaluate_robertson_computes_its_moments_in_one_pass(monkeypatch):
    """No scalar moment call, one pure_moments call on the stack (A, B, -i[A, B]) and rho's eigh, the state's."""
    want = evaluate_robertson(BALANCED, SX, SY)
    counts = _count_moment_calls(monkeypatch)
    assert evaluate_robertson(QuantumState(BALANCED.rho), SX, SY) == want
    assert counts == collections.Counter({"pure_moments": 1, "eigh": 1})


def _random_hermitian(dim: int, rng) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("dim", range(2, 7))
def test_evaluate_robertson_matches_the_scalar_route(dim):
    """Robertson's sides vs std_dev twice and <[A, B]> from the commutator, within 1e-12.

    On random Hermitian pairs, and Haar pure and Hilbert-Schmidt states.
    """
    rng = np.random.default_rng(60 + dim)
    for st in [random_pure(dim, seed) for seed in range(3)] + [random_mixed(dim, seed) for seed in range(3)]:
        a, b = _random_hermitian(dim, rng), _random_hermitian(dim, rng)
        lhs = moments.std_dev(st, a) * moments.std_dev(st, b)
        rhs = abs(np.einsum("ij,ji->", st.rho, commutator(a, b))) / 2.0
        rep = evaluate_robertson(st, a, b)
        assert abs(rep.lhs - lhs) <= 1e-12 and abs(rep.rhs - rhs) <= 1e-12
        assert rep.relation is RelationId.R_ROBERTSON_GENERIC


@pytest.mark.parametrize("twice_s", range(1, 9))
def test_robertson_on_the_spin_pair_is_the_pair_product_z(twice_s):
    """Delta(Sx) Delta(Sy) >= |<[Sx, Sy]>| / 2 is R2_PAIR_PRODUCT_Z, as -i[Sx, Sy] = Sz; within 1e-12."""
    dim = twice_s + 1
    sx, sy, _ = build_spin_operators(twice_s)
    for st in [random_pure(dim, seed) for seed in range(3)] + [random_mixed(dim, seed) for seed in range(3)]:
        rep = evaluate_robertson(st, sx, sy)
        want = evaluate(RelationId.R2_PAIR_PRODUCT_Z, st, twice_s)
        assert abs(rep.lhs - want.lhs) <= 1e-12 and abs(rep.rhs - want.rhs) <= 1e-12


@pytest.mark.parametrize("twice_s", range(1, 9))
def test_evaluate_matches_the_scalar_route(twice_s):
    """evaluate's sides vs the formulas over the scalar moment functions, within 1e-12.

    On Haar pure and Hilbert-Schmidt states, and on a rank-deficient state
    whose zero eigenvalues eigh returns slightly negative.
    """
    dim = twice_s + 1
    g = random_pure_vectors(dim, dim // 2, 4)
    deficient = QuantumState(g.T @ g.conj() / len(g))
    assert np.linalg.eigh(deficient.rho)[0][0] < 0.0
    axes = build_spin_operators(twice_s)
    pairs = [axes[i] + axes[(i + 1) % 3] for i in range(3)]
    applicable = [relation for relation in EVALUABLE if applicable_to(relation, twice_s)]
    samples = [random_pure(dim, seed) for seed in range(3)] + [random_mixed(dim, seed) for seed in range(3)]
    for st in [*samples, deficient]:
        d = [moments.std_dev(st, op) for op in axes]
        v = [moments.variance(st, op) for op in axes]
        e = [moments.expectation(st, op) for op in axes]
        h = [moments.shannon_entropy(st, op) for op in axes]
        w = [moments.variance(st, op) for op in pairs]
        for relation in applicable:
            lhs, rhs = relation_sides(relation, d, v, e, h, w, twice_s / 2)
            rep = evaluate(relation, st, twice_s)
            assert abs(rep.lhs - lhs) <= 1e-12 and abs(rep.rhs - rhs) <= 1e-12, relation


def test_triple_product_near_a_pole_keeps_its_small_variance():
    """Var(Sy) = (r_x^2 + r_z^2)/4 near the y pole is ~5e-17: a route that lost it
    to cancellation reported lhs 0 under rhs 1.5e-9 for a relation proved at s = 1/2."""
    r = np.array([1.2e-8, 1.0, 7.7e-9])
    lhs = math.sqrt((1.0 - r[0] ** 2) * (r[0] ** 2 + r[2] ** 2) * (1.0 - r[2] ** 2)) / 8.0
    rep = evaluate(RelationId.R3_TRIPLE_PRODUCT, density_from_bloch(r), 1)
    assert rep.lhs == pytest.approx(lhs, rel=1e-6)
    assert rep.gap > 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_saturation_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN or negative tolerance would report a saturating state as unsaturated
    with pytest.raises(ValueError, match="nonnegative"):
        evaluate(RelationId.R5_TRIPLE_SUM, BALANCED, 1, saturation_tol=tol)
    with pytest.raises(ValueError, match="nonnegative"):
        evaluate_robertson(density_from_bloch([0, 0, 1]), SX, SY, saturation_tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_every_tolerance_is_finite_and_nonnegative(tol):
    # unchecked, a NaN tol reads a saturating state as unsaturated in equality_condition
    # and an infinite one reads [0.1, 0, 0] as saturating R6, as evaluate refuses to
    from triplespin.triangle import centroid, check_analogs

    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        equality_condition(RelationId.R5_TRIPLE_SUM, [1 / SQ3, 1 / SQ3, 1 / SQ3], tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        equality_condition(RelationId.R6_SUM_HALF, [0.1, 0, 0], tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        soak_qubit(10, 10, seed=0, tolerance=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        check_analogs(centroid(), tol)


def test_triple_product_saturated_on_balanced_state():
    rep = evaluate(RelationId.R3_TRIPLE_PRODUCT, BALANCED, 1)
    expected = 6.0**-1.5  # (1/sqrt 6)^3 with tau^3/8 <S>^3 matching it
    assert rep.lhs == pytest.approx(expected, abs=1e-12)
    assert rep.rhs == pytest.approx(expected, abs=1e-12)
    assert rep.saturated


def test_triple_product_degenerate_branch():
    rep = evaluate(RelationId.R3_TRIPLE_PRODUCT, density_from_bloch([0, 0, 1]), 1)
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)
    assert rep.saturated


def test_triple_sum_saturated_on_balanced_state():
    rep = evaluate(RelationId.R5_TRIPLE_SUM, BALANCED, 1)
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs == pytest.approx(0.5, abs=1e-12)
    assert rep.saturated


def test_sum_half_saturated_on_any_pure_state():
    for seed in range(25):
        rep = evaluate(RelationId.R6_SUM_HALF, random_pure(2, seed), 1)
        assert abs(rep.gap) <= 1e-12


def test_variance_sum_bound_spin_one_eigenstate():
    st = QuantumState(np.diag([1.0, 0.0, 0.0]).astype(complex))
    rep = evaluate(RelationId.R7_SUM_GENERAL_S, st, 2)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == 1.0
    assert rep.saturated


def test_variance_of_sums_saturated():
    # oracle: variances (1/8, 1/8, 1/4); pair-sum variances (1/2, 3/8, 3/8)
    rep = evaluate(RelationId.R8_VARIANCE_OF_SUMS, density_from_bloch([1 / np.sqrt(2), -1 / np.sqrt(2), 0]), 1)
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs == pytest.approx(0.4 * (0.5 + 0.375 + 0.375), abs=1e-12)
    assert rep.saturated


def test_entropic_triple_saturated_on_pole():
    rep = evaluate(RelationId.R10_ENTROPIC_TRIPLE, density_from_bloch([0, 0, 1]), 1)
    assert rep.lhs == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert rep.rhs == pytest.approx(math.log(4.0), abs=1e-12)
    assert rep.saturated


def test_naive_sum_bound_ratio_is_tau():
    for seed in range(10):
        st = density_from_bloch(random_mixed_bloch(1, seed)[0])
        tight = evaluate(RelationId.R5_TRIPLE_SUM, st, 1)
        naive = evaluate(RelationId.NAIVE_SUM2, st, 1)
        if naive.rhs > 0:
            assert tight.rhs / naive.rhs == pytest.approx(TAU, abs=1e-12)


def test_spin_restriction_hard_fails():
    st = QuantumState(np.eye(3) / 3)
    for rel in (spec.relation for spec in RELATIONS if spec.spin_half_only):
        with pytest.raises(SpinRestrictionError):
            evaluate(rel, st, 2)


def test_conjecture_id_allows_higher_spin():
    st = QuantumState(np.diag([1.0, 0.0, 0.0]).astype(complex))
    rep = evaluate(RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, st, 2)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        evaluate(RelationId.R7_SUM_GENERAL_S, density_from_bloch([0, 0, 0]), 2)


def test_robertson_generic_needs_observables():
    with pytest.raises(ValueError):
        evaluate(RelationId.R_ROBERTSON_GENERIC, density_from_bloch([0, 0, 0]), 1)


def test_equality_condition_cases():
    assert equality_condition(RelationId.R5_TRIPLE_SUM, [1 / SQ3, 1 / SQ3, -1 / SQ3])
    assert not equality_condition(RelationId.R5_TRIPLE_SUM, [1, 0, 0])
    assert equality_condition(RelationId.R3_TRIPLE_PRODUCT, [0, 0, 1])
    assert equality_condition(RelationId.R3_TRIPLE_PRODUCT, [1 / SQ3, -1 / SQ3, 1 / SQ3])
    assert not equality_condition(RelationId.R3_TRIPLE_PRODUCT, [0.5, 0.5, 0.5])
    assert equality_condition(RelationId.R6_SUM_HALF, [0.6, 0.8, 0])
    assert not equality_condition(RelationId.R6_SUM_HALF, [0.5, 0, 0])
    assert equality_condition(RelationId.R8_VARIANCE_OF_SUMS, [1 / np.sqrt(2), -1 / np.sqrt(2), 0])
    assert not equality_condition(RelationId.R8_VARIANCE_OF_SUMS, [0, 0, 1])
    with pytest.raises(ValueError):
        equality_condition(RelationId.R7_SUM_GENERAL_S, [0, 0, 1])


@pytest.mark.parametrize(
    "relation",
    [RelationId.R3_TRIPLE_PRODUCT, RelationId.R5_TRIPLE_SUM, RelationId.R6_SUM_HALF, RelationId.R8_VARIANCE_OF_SUMS],
)
@pytest.mark.parametrize(
    "bloch", [[np.nan, 0, 0], [0, np.inf, 0], [1, 1, 1], [0, 0]], ids=["nan", "inf", "norm-sqrt3", "two-components"]
)
def test_equality_condition_refuses_what_is_not_a_state(relation, bloch):
    with pytest.raises(InvalidStateError):
        equality_condition(relation, bloch)


def _orthonormal_to_diagonal():
    a = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    b = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    return a, b


@pytest.mark.parametrize(
    "relation",
    [RelationId.R5_TRIPLE_SUM, RelationId.R6_SUM_HALF, RelationId.R8_VARIANCE_OF_SUMS],
)
def test_equality_condition_matches_saturation_both_ways(relation):
    """Condition holds iff |gap| <= 1e-9, on exact and clearly-off states."""
    rng = np.random.default_rng(5)
    a, b = _orthonormal_to_diagonal()
    cases = []
    if relation is RelationId.R5_TRIPLE_SUM:
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=3)
            cases.append(signs / SQ3)  # exact saturating states
            cases.append(signs / SQ3 * 0.999)  # slightly mixed
        cases.append(np.array([1.0, 0.0, 0.0]))
    elif relation is RelationId.R6_SUM_HALF:
        for seed in range(20):
            r = random_pure_bloch(1, seed)[0]
            cases.append(r)
            cases.append(r * 0.999)
    else:
        for t in np.linspace(0, 2 * np.pi, 17):
            cases.append(np.cos(t) * a + np.sin(t) * b)  # unit norm, zero component sum
        off = a + 1e-3 * np.ones(3)
        cases.append(off / np.linalg.norm(off))
    for r in cases:
        cond = equality_condition(relation, r)
        gap = evaluate(relation, density_from_bloch(r), 1).gap
        assert cond == (abs(gap) <= 1e-9), f"{relation} mismatch at r={r}, gap={gap}"


def test_equality_condition_implies_saturation_for_triple_product():
    rng = np.random.default_rng(8)
    for _ in range(20):
        signs = rng.choice([-1.0, 1.0], size=3)
        r = signs / SQ3
        assert equality_condition(RelationId.R3_TRIPLE_PRODUCT, r)
        assert abs(evaluate(RelationId.R3_TRIPLE_PRODUCT, density_from_bloch(r), 1).gap) <= 1e-9
    for axis in range(3):
        r = np.zeros(3)
        r[axis] = 1.0
        assert equality_condition(RelationId.R3_TRIPLE_PRODUCT, r)
        assert abs(evaluate(RelationId.R3_TRIPLE_PRODUCT, density_from_bloch(r), 1).gap) <= 1e-9


def test_catalog_contents():
    assert len(RELATIONS) >= 14
    by_id = {e.relation: e for e in RELATIONS}
    assert by_id[RelationId.R3_TRIPLE_PRODUCT].spin_half_only
    assert by_id[RelationId.R3_TRIPLE_PRODUCT].description.endswith("conjectured for all s as R11")
    assert not by_id[RelationId.R7_SUM_GENERAL_S].spin_half_only
    assert set(by_id) == set(RelationId)


def test_table_derived_spin_rules():
    R = RelationId
    entropic = {R.R9_ENTROPIC_PAIR_XY, R.R9_ENTROPIC_PAIR_YZ, R.R9_ENTROPIC_PAIR_ZX, R.R10_ENTROPIC_TRIPLE}
    assert {spec.relation for spec in RELATIONS if "h" in table_plan((spec.relation,)).reads} == entropic
    # R5 and R6 hold at every spin (see test_casimir_identity_bounds_triple_sum)
    spin_half_only = {spec.relation for spec in RELATIONS if spec.spin_half_only}
    assert spin_half_only == entropic | {R.R3_TRIPLE_PRODUCT, R.R8_VARIANCE_OF_SUMS}
    assert len(QUBIT_SOAK_RELATIONS) == 16
    assert set(RelationId) - set(QUBIT_SOAK_RELATIONS) == {
        R.R_ROBERTSON_GENERIC,
        R.R7_SUM_GENERAL_S,
        R.R11_CONJECTURE_TRIPLE_PRODUCT,
    }


@pytest.mark.parametrize(
    "group",
    [
        (RelationId.R2_PAIR_PRODUCT_X, RelationId.R2_PAIR_PRODUCT_Y, RelationId.R2_PAIR_PRODUCT_Z),
        (RelationId.R4_PAIR_SUM_X, RelationId.R4_PAIR_SUM_Y, RelationId.R4_PAIR_SUM_Z),
        (RelationId.R9_ENTROPIC_PAIR_XY, RelationId.R9_ENTROPIC_PAIR_YZ, RelationId.R9_ENTROPIC_PAIR_ZX),
    ],
    ids=["R2", "R4", "R9"],
)
def test_cyclic_axis_rotation_maps_each_instance_to_the_next(group):
    """Moving the x moments to y, y to z and z to x turns instance n into instance n+1."""
    rng = np.random.default_rng(11)
    d, e, h = rng.uniform(0.1, 2.0, (3, 3, 50))
    d_rot, e_rot, h_rot = (np.roll(m, 1, axis=0) for m in (d, e, h))
    for n, relation in enumerate(group):
        following = group[(n + 1) % 3]
        sides = relation_sides(relation, d, d * d, e, h)
        rotated = relation_sides(following, d_rot, d_rot * d_rot, e_rot, h_rot)
        for side, side_rot in zip(sides, rotated):
            np.testing.assert_allclose(side_rot, side, rtol=0, atol=1e-15)


def test_x_instances_read_the_axes_their_descriptions_name():
    d, e, h = np.array([1.0, 2.0, 3.0]), np.array([-4.0, 5.0, 6.0]), np.array([0.1, 0.2, 0.4])
    R = RelationId
    assert relation_sides(R.R2_PAIR_PRODUCT_X, d, d * d, e) == (6.0, 2.0)  # Delta(Sy) Delta(Sz), |<Sx>|/2
    assert relation_sides(R.R4_PAIR_SUM_X, d, d * d, e) == (13.0, 4.0)  # Var(Sy) + Var(Sz), |<Sx>|
    assert relation_sides(R.R9_ENTROPIC_PAIR_XY, d, d * d, e, h)[0] == 0.1 + 0.2  # H(Sx) + H(Sy)


@pytest.mark.parametrize("twice_s", range(1, 9))
def test_casimir_identity_bounds_triple_sum(twice_s):
    """Sum Var(S_i) = s(s+1) - L^2 with L = |<S>|, so R5's gap is >= (s - L)(s + L + 1) >= 0.

    Also sum |<S_i>| <= sqrt(3) L, which is what makes R5 hold at every spin;
    R6 follows from R7 (sum Var >= s >= 1/2).
    """
    s = twice_s / 2.0
    ops = build_spin_operators(twice_s)
    psis = random_pure_vectors(twice_s + 1, 2000, seed=40 + twice_s)
    e, v = pure_moments(psis[:, None], ops)
    length2 = np.sum(e * e, axis=0)
    np.testing.assert_allclose(v.sum(axis=0), s * (s + 1) - length2, rtol=0, atol=1e-12)
    length = np.sqrt(length2)
    assert np.all(np.abs(e).sum(axis=0) <= SQ3 * length + 1e-12)
    r5, r6 = kernels.vector_scorer((RelationId.R5_TRIPLE_SUM, RelationId.R6_SUM_HALF), twice_s)(psis).T
    assert np.all(r5 >= (s - length) * (s + length + 1) - 1e-12)
    assert np.all(r6 >= s - 0.5 - 1e-12)
    mixed = QuantumState(np.eye(twice_s + 1, dtype=complex) / (twice_s + 1))
    assert evaluate(RelationId.R5_TRIPLE_SUM, mixed, twice_s).gap == pytest.approx(s * (s + 1), abs=1e-12)


#: A spin-1 state that violates R8, from a seeded Nelder-Mead search past the
#: spin rule: Var(S_i) = 5/12 for each axis and <S> orthogonal to (1, 1, 1).
R8_SPIN_ONE_COUNTEREXAMPLE = np.array([
    0.8715165404005791 + 0.0j,
    -0.3785499470966714 + 0.0234899678610065j,
    0.1620575971175122 + 0.2652252137103488j,
])


def test_variance_of_sums_fails_at_spin_one():
    psi = R8_SPIN_ONE_COUNTEREXAMPLE
    e, v = pure_moments(psi[None, None], build_spin_operators(2))
    np.testing.assert_allclose(v.ravel(), [5 / 12] * 3, atol=1e-8)
    assert abs(e.sum()) <= 1e-8
    gap = kernels.vector_scorer((RelationId.R8_VARIANCE_OF_SUMS,), 2)(psi[None])[0, 0]
    assert gap < -0.1
    with pytest.raises(SpinRestrictionError):
        evaluate(RelationId.R8_VARIANCE_OF_SUMS, from_statevector(psi), 2)


def test_applicability_table():
    assert applicable_to(RelationId.R2_PAIR_PRODUCT_X, 4)
    assert applicable_to(RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, 3)
    assert applicable_to(RelationId.R5_TRIPLE_SUM, 4)
    assert applicable_to(RelationId.R6_SUM_HALF, 2)
    assert not applicable_to(RelationId.R8_VARIANCE_OF_SUMS, 2)
    assert not applicable_to(RelationId.R_ROBERTSON_GENERIC, 1)


def test_soak_small_sample_is_sound():
    summary = soak_qubit(5000, 5000, seed=123)
    assert summary.ok
    assert set(summary.min_gap) == set(QUBIT_SOAK_RELATIONS)
    assert all(g >= -1e-10 for g in summary.min_gap.values())


def test_soak_counts_non_finite_gap_as_violation(monkeypatch):
    real = kernels.bloch_scorer()  # the soak's scorer, taken before it is faked

    scored = []

    def with_nan(bloch, ws=None):
        gaps = np.array(real(bloch))
        if not scored:  # one NaN gap, in the first part scored (the pure states; one chunk runs in this thread)
            gaps[0, QUBIT_SOAK_RELATIONS.index(RelationId.R3_TRIPLE_PRODUCT)] = np.nan
        scored.append(len(bloch))
        return gaps

    monkeypatch.setattr(kernels, "bloch_scorer", lambda relations: with_nan)
    summary = soak_qubit(100, 100, seed=1)
    assert summary.violations[RelationId.R3_TRIPLE_PRODUCT] == 1
    assert not summary.ok


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
def test_soak_rejects_non_finite_tolerance(tolerance):
    with pytest.raises(ValueError):
        soak_qubit(10, 10, seed=1, tolerance=tolerance)


def test_soak_rejects_negative_tolerance():
    # a negative tolerance would count sound states as violations
    with pytest.raises(ValueError, match="nonnegative"):
        soak_qubit(10, 10, seed=1, tolerance=-0.5)
    assert soak_qubit(10, 10, seed=1, tolerance=0.0).tolerance == 0.0


@pytest.mark.parametrize("counts", [(2.5, 0), (0, 2.5), (True, 0), (10, False), ("3", 1), (None, 1)])
def test_soak_rejects_counts_that_are_no_integers(counts):
    # a float count used to fail inside range() with a TypeError, and a bool ran as 0 or 1 states
    with pytest.raises(ValueError, match="state counts must be integers"):
        soak_qubit(*counts, seed=1)


def test_soak_takes_numpy_integer_counts():
    summary = soak_qubit(np.int64(70), np.int32(50), seed=1)
    assert summary == soak_qubit(70, 50, seed=1)
    assert type(summary.n_pure) is type(summary.n_mixed) is int


def test_soak_batches_draw_from_independent_streams(monkeypatch):
    keys = []
    real = states.stream

    def recording(seed, *key):
        keys.append((seed, *key))
        return real(seed, *key)

    monkeypatch.setattr(states, "stream", recording)
    soak_qubit(50, 50, seed=9)
    assert len(keys) == 2
    assert keys[0] != keys[1]


def _keyed_soak_draws(n_pure, n_mixed, seed, chunk):
    """Every chunk's pure and mixed draws, stacked in the order the soak visits them."""
    blochs = []
    for k in range(-(-max(n_pure, n_mixed) // chunk)):
        for kind, (n, draw) in enumerate(((n_pure, random_pure_bloch), (n_mixed, random_mixed_bloch))):
            if n - k * chunk > 0:
                blochs.append(draw(min(chunk, n - k * chunk), seed, kind, k))
    return np.vstack(blochs)


@pytest.mark.parametrize("n_pure, n_mixed", [(2500, 1200), (700, 2300), (3000, 3000), (0, 1001)])
def test_soak_chunked_reduction_matches_direct(monkeypatch, n_pure, n_mixed):
    real = kernels.bloch_scorer()  # the soak's scorer, taken before it is faked

    def shifted(bloch, ws=None):
        return real(bloch) - 0.05  # near-saturating states now count as violations

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    monkeypatch.setattr(kernels, "bloch_scorer", lambda relations: shifted)
    summary = soak_qubit(n_pure, n_mixed, seed=5)
    gaps = shifted(_keyed_soak_draws(n_pure, n_mixed, 5, 1000))
    assert len(gaps) == n_pure + n_mixed
    mins = gaps.min(axis=0)
    argmins = _keyed_soak_draws(n_pure, n_mixed, 5, 1000)[gaps.argmin(axis=0)]
    viol = np.count_nonzero(gaps < -summary.tolerance, axis=0)
    assert viol.any()
    for i, rel in enumerate(QUBIT_SOAK_RELATIONS):
        assert summary.min_gap[rel] == mins[i]
        assert summary.argmin_bloch[rel] == tuple(argmins[i])
        assert summary.violations[rel] == viol[i]


def test_soak_argmin_reproduces_min_gap():
    summary = soak_qubit(40_000, 40_000, seed=17)  # two chunks of each kind
    for i, rel in enumerate(QUBIT_SOAK_RELATIONS):
        gaps = kernels.bloch_scorer()(np.array([summary.argmin_bloch[rel]]))
        assert gaps[0, i] == summary.min_gap[rel]


def test_soak_nan_in_a_later_chunk_fails(monkeypatch):
    real = kernels.bloch_scorer()  # the soak's scorer, taken before it is faked
    column = QUBIT_SOAK_RELATIONS.index(RelationId.R3_TRIPLE_PRODUCT)
    second_chunk = random_mixed_bloch(500, 3, 1, 1)
    calls = []

    def nan_after_first_chunk(bloch, ws=None):
        # chunks may be scored on several threads, so the chunk is told by its rows, not by call order
        gaps = np.array(real(bloch))
        if np.array_equal(bloch, second_chunk):
            gaps[len(bloch) // 2, column] = np.nan
        calls.append(len(bloch))
        return gaps

    monkeypatch.setattr(kernels, "CHUNK_ROWS", 1000)
    monkeypatch.setattr(kernels, "bloch_scorer", lambda relations: nan_after_first_chunk)
    summary = soak_qubit(1000, 1500, seed=3)
    assert sorted(calls) == [500, 1000, 1000]  # chunk 0's pure and mixed parts are scored one after the other
    assert math.isnan(summary.min_gap[RelationId.R3_TRIPLE_PRODUCT])
    assert summary.violations[RelationId.R3_TRIPLE_PRODUCT] == 1
    assert not summary.ok


def test_dominance_of_tightened_bounds():
    blochs = np.vstack([random_pure_bloch(200, 31), random_mixed_bloch(200, 32)])
    for r in blochs:
        st = density_from_bloch(r)
        assert evaluate(RelationId.R3_TRIPLE_PRODUCT, st, 1).rhs >= evaluate(
            RelationId.NAIVE_PRO2, st, 1
        ).rhs - 1e-15
        assert evaluate(RelationId.R5_TRIPLE_SUM, st, 1).rhs >= evaluate(
            RelationId.NAIVE_SUM2, st, 1
        ).rhs - 1e-15


def test_chained_pair_products_give_naive_triple_bound():
    """sqrt of the product of the three pairwise bounds equals the naive triple bound."""
    blochs = random_mixed_bloch(100, 44)
    for r in blochs:
        st = density_from_bloch(r)
        prod = 1.0
        for rel in (RelationId.R2_PAIR_PRODUCT_X, RelationId.R2_PAIR_PRODUCT_Y, RelationId.R2_PAIR_PRODUCT_Z):
            prod *= evaluate(rel, st, 1).rhs
        naive = evaluate(RelationId.NAIVE_PRO2, st, 1).rhs
        assert abs(math.sqrt(prod) - naive) <= 1e-12


@pytest.mark.parametrize("twice_s", [2, 3, 4])
def test_variance_sum_bound_random_states(twice_s):
    ops = build_spin_operators(twice_s)
    psis = random_pure_vectors(twice_s + 1, 10_000, seed=twice_s)
    sums = pure_moments(psis[:, None], ops)[1].sum(axis=0)
    assert np.min(sums) - twice_s / 2.0 >= -1e-10


@pytest.mark.parametrize("twice_s", [2, 3])
def test_conjectured_triple_product_random_states(twice_s):
    psis = random_pure_vectors(twice_s + 1, 100_000, seed=twice_s + 10)
    gaps = kernels.vector_scorer((RelationId.R11_CONJECTURE_TRIPLE_PRODUCT,), twice_s)(psis)
    worst = float(np.min(gaps))
    # conjecture status: a violation would be reported, not asserted away
    assert worst >= -1e-10, f"conjecture counterexample candidate at gap {worst}"


def test_report_serialization():
    rep = evaluate(RelationId.R5_TRIPLE_SUM, BALANCED, 1)
    d = rep.to_dict()
    assert d["relation"] == "R5_TRIPLE_SUM"
    assert d["saturated"] is True
    assert d["gap"] == rep.gap
