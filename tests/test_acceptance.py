"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and sample sizes are pinned here and must not be loosened.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from triplespin import kernels
from triplespin.cli import dispatch, replay
from triplespin.measure_sim import ShotConfig, run_sweep, sweep_parameters
from triplespin.moments import expectation, variance
from triplespin.prober import ProbeConfig, is_counterexample, min_gap, min_variance_sum, scan_conjecture
from triplespin.relations import TAU, RelationId, evaluate, soak_qubit
from triplespin.spin_ops import build_spin_operators, identity_residuals
from triplespin.states import (
    Family,
    QuantumState,
    bloch_from_density,
    density_from_bloch,
    random_pure,
)
from triplespin.triangle import centroid, check_analogs, sample_barycentric

SQ3 = math.sqrt(3.0)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{name}]: FAIL")
        raise
    print(f"criterion {number:02d} [{name}]: PASS")


def test_c01_operator_algebra():
    with criterion(1, "operator algebra identities"):
        start = time.perf_counter()
        for twice_s in range(1, 11):
            residuals = identity_residuals(build_spin_operators(twice_s))
            assert max(residuals.values()) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_c02_relation_soundness_soak():
    with criterion(2, "soundness soak, 1e5 pure + 1e5 mixed qubits"):
        start = time.perf_counter()
        summary = soak_qubit(100_000, 100_000, seed=20260809)
        elapsed = time.perf_counter() - start
        assert all(g >= -1e-10 for g in summary.min_gap.values()), summary.min_gap
        assert summary.ok
        assert elapsed < 60.0


def test_c03_saturation_suite():
    with criterion(3, "exact saturation suite at 1e-12"):
        balanced = density_from_bloch([1 / SQ3, 1 / SQ3, 1 / SQ3])
        assert abs(evaluate(RelationId.R3_TRIPLE_PRODUCT, balanced, 1).gap) <= 1e-12
        assert abs(evaluate(RelationId.R5_TRIPLE_SUM, balanced, 1).gap) <= 1e-12

        pole = density_from_bloch([0, 0, 1])
        assert abs(evaluate(RelationId.R3_TRIPLE_PRODUCT, pole, 1).gap) <= 1e-12

        for seed in range(100):
            rep = evaluate(RelationId.R6_SUM_HALF, random_pure(2, seed), 1)
            assert abs(rep.gap) <= 1e-12

        diagonal = density_from_bloch([1 / math.sqrt(2), -1 / math.sqrt(2), 0])
        assert abs(evaluate(RelationId.R8_VARIANCE_OF_SUMS, diagonal, 1).gap) <= 1e-12

        r10 = evaluate(RelationId.R10_ENTROPIC_TRIPLE, pole, 1)
        assert abs(r10.rhs - math.log(4.0)) <= 1e-15
        assert abs(r10.gap) <= 1e-12

        spin_one_top = QuantumState(np.diag([1.0, 0.0, 0.0]).astype(complex))
        r7 = evaluate(RelationId.R7_SUM_GENERAL_S, spin_one_top, 2)
        assert r7.rhs == 1.0
        assert abs(r7.gap) <= 1e-12


def test_c04_latitude_sweep_reproduction():
    with criterion(4, "latitude sweep: dominance, saturation points, tau^(3/2) ratio"):
        sweep = run_sweep(Family.R1_LATITUDE, sweep_parameters(Family.R1_LATITUDE, 360))
        assert len(sweep) == 360
        pro0, pro1, pro2, sum0, sum1, sum2 = sweep.value
        assert (pro0 - pro1).min() >= -1e-12
        assert (pro1 - pro2).min() >= -1e-12
        assert (sum0 - sum1).min() >= -1e-12
        assert (sum1 - sum2).min() >= -1e-12
        nonzero = pro2 > 1e-15
        assert np.abs(pro1[nonzero] / pro2[nonzero] - TAU**1.5).max(initial=0.0) <= 1e-12
        k = [45, 135, 225, 315]  # phi = pi/4 + j pi/2 on the 360-point grid
        assert np.abs(sum0[k] - 0.5).max() <= 1e-12
        assert np.abs(sum1[k] - 0.5).max() <= 1e-12
        assert np.abs(pro0[k] - 6.0**-1.5).max() <= 1e-12
        assert np.abs(pro1[k] - 6.0**-1.5).max() <= 1e-12


def test_c05_meridian_sweep_reproduction():
    with criterion(5, "meridian sweep: dominance, equality point, endpoints"):
        sweep = run_sweep(Family.R2_MERIDIAN, sweep_parameters(Family.R2_MERIDIAN, 361))
        assert len(sweep) == 361
        pro0, pro1, pro2, sum0, sum1, sum2 = sweep.value
        assert (pro0 - pro1).min() >= -1e-12
        assert (pro1 - pro2).min() >= -1e-12
        assert (sum0 - sum1).min() >= -1e-12
        assert (sum1 - sum2).min() >= -1e-12
        equal_point = run_sweep(Family.R2_MERIDIAN, [math.atan(math.sqrt(2.0))]).value[:, 0]
        assert abs(equal_point[3] - equal_point[4]) <= 1e-12  # sum0 = sum1
        ends = [0, -1]  # theta = 0 and pi
        assert np.abs(pro0[ends]).max() <= 1e-12
        assert np.abs(pro1[ends]).max() <= 1e-12


def test_c06_monte_carlo_fidelity():
    with criterion(6, "shot-noise fidelity at 4e6 and 1e4 shots"):
        start = time.perf_counter()
        # the latitude family at pi/4 is the balanced state, Bloch vector (1, 1, 1)/sqrt 3;
        # seed s draws its axis i from stream (s, 0, i)
        balanced = (Family.R1_LATITUDE, [math.pi / 4])
        exact = run_sweep(*balanced).estimate

        hits = 0
        total = 0
        for seed in range(1000):
            est = run_sweep(*balanced, ShotConfig(shots=4_000_000, seed=seed))
            total += 3
            hits += int(np.count_nonzero(np.abs(est.estimate - exact) <= 5 * est.stderr))
        assert hits / total >= 0.99

        estimates = np.hstack([run_sweep(*balanced, ShotConfig(shots=10_000, seed=s)).estimate for s in range(30)])
        spread = np.std(estimates, axis=1, ddof=1)
        predicted = np.sqrt((0.25 - exact[:, 0] ** 2) / 10_000)
        assert (np.abs(spread / predicted - 1.0) <= 0.2).all()
        assert time.perf_counter() - start < 60.0


def test_c07_prober_tightness(tmp_path):
    with criterion(7, "prober: R5 argmin, variance-sum minima, conjecture scans"):
        r5 = min_gap(RelationId.R5_TRIPLE_SUM, 1, ProbeConfig(restarts=64, seed=101))
        assert r5.min_gap <= 1e-8
        np.testing.assert_allclose(
            np.abs(bloch_from_density(r5.argmin_state)), [1 / SQ3] * 3, atol=1e-4
        )

        v_half, _ = min_variance_sum(1, ProbeConfig(restarts=32, seed=102))
        assert abs(v_half - 0.5) <= 1e-8
        v_one, _ = min_variance_sum(2, ProbeConfig(restarts=32, seed=103))
        assert abs(v_one - 1.0) <= 1e-6

        for twice_s in (2, 3):
            result = scan_conjecture(twice_s, 100_000, ProbeConfig(seed=104))
            if is_counterexample(result):
                artifact = tmp_path / f"counterexample_{twice_s}.json"
                import json

                artifact.write_text(json.dumps(result.to_dict()))
                print(f"conjecture counterexample candidate recorded: {artifact}")
            else:
                assert result.min_gap >= -1e-8


def test_c08_triangle_analog():
    with criterion(8, "triangle analogs on 1e5 points x 3 sides"):
        for side in (0.5, 1.0, 2.0):
            bary = sample_barycentric(100_000, seed=7)
            gaps = kernels.triangle_scorer(side)(bary)
            assert gaps.min() >= -1e-12
        reports = {r.relation: r for r in check_analogs(centroid(1.0))}
        assert abs(reports[RelationId.R5_TRIPLE_SUM].gap) <= 1e-12


def test_c09_oracle_equivalence():
    with criterion(9, "closed-form vs spectral qubit moments on 1e4 states"):
        from triplespin.states import random_mixed_bloch, random_pure_bloch

        qubit = build_spin_operators(1)
        blochs = np.vstack([random_pure_bloch(5000, 61), random_mixed_bloch(5000, 62)])
        for r in blochs:
            st = density_from_bloch(r)
            for k, op in enumerate(qubit):
                assert abs(expectation(st, op) - r[k] / 2.0) <= 1e-12
                assert abs(variance(st, op) - (1.0 - r[k] ** 2) / 4.0) <= 1e-12


def test_c10_manifest_determinism(tmp_path):
    with criterion(10, "stochastic runs replay byte-identically from manifests"):
        cases = [
            ["simulate", "--family", "r1", "--points", "6", "--shots", "50000", "--seed", "31"],
            ["probe", "--relation", "R3", "--spin", "1", "--restarts", "6", "--seed", "32"],
            ["triangle", "--samples", "20000", "--seed", "33"],
        ]
        for i, argv in enumerate(cases):
            target = tmp_path / f"out_{i}"
            assert dispatch(argv + ["--emit", str(target)]) == 0
            original = target.read_bytes()
            clone = tmp_path / f"clone_{i}"
            assert replay(str(target) + ".manifest.json", emit_override=str(clone)) == 0
            assert clone.read_bytes() == original
