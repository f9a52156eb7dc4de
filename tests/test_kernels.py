import numpy as np
import pytest

from triplespin import kernels
from triplespin.moments import bloch_moments
from triplespin.relations import QUBIT_SOAK_RELATIONS, TRIANGLE_ANALOG_RELATIONS, RelationId, applicable_to, evaluate
from triplespin.states import (
    bloch_from_density,
    density_from_bloch,
    from_statevector,
    random_mixed_bloch,
    random_pure_bloch,
    random_pure_vectors,
)
from triplespin.triangle import TrianglePoint, check_analogs, sample_barycentric


def _bloch_batch(n=400):
    return np.vstack([random_pure_bloch(n, 3), random_mixed_bloch(n, 4)])


def test_column_layouts():
    assert len(QUBIT_SOAK_RELATIONS) == 16
    assert len(TRIANGLE_ANALOG_RELATIONS) == 8
    assert kernels.BACKEND == "numpy"


def test_min_fold_keeps_first_tied_row_and_nan():
    fold = kernels.MinFold(3, 1)
    fold.add(np.array([[0.0], [1.0]]), np.array([[2.0, 5.0, 1.0], [2.0, 4.0, np.nan]]))
    fold.add(np.array([[2.0], [3.0]]), np.array([[2.0, 4.0, 0.0], [1.5, 6.0, 0.0]]))
    assert fold.min[:2].tolist() == [1.5, 4.0] and np.isnan(fold.min[2])
    assert fold.argmin[:, 0].tolist() == [3.0, 1.0, 1.0]


def test_qubit_gaps_shape_and_validation():
    g = kernels.qubit_relation_gaps(_bloch_batch(50))
    assert g.shape == (100, 16)
    with pytest.raises(ValueError):
        kernels.qubit_relation_gaps(np.zeros((4, 2)))


def test_triangle_gaps_validation():
    with pytest.raises(ValueError):
        kernels.triangle_analog_gaps(np.zeros((4, 3)), side=0.0)
    with pytest.raises(ValueError):
        kernels.triangle_analog_gaps(np.zeros((4, 4)), side=1.0)
    for side in (np.nan, np.inf):
        with pytest.raises(ValueError):
            kernels.triangle_analog_gaps(np.zeros((4, 3)), side=side)


def test_kernel_matches_matrix_route():
    """Closed-form kernel gaps vs the spectral evaluate() route."""
    bloch = _bloch_batch(60)
    gaps = kernels.qubit_relation_gaps(bloch)
    for i in range(0, len(bloch), 11):
        st = density_from_bloch(bloch[i])
        for k, rel in enumerate(QUBIT_SOAK_RELATIONS):
            assert abs(gaps[i, k] - evaluate(rel, st, 1).gap) <= 1e-12


def test_one_relation_reads_only_its_moments():
    """Scored alone, each relation (computing only the moments it reads) gives its table column bit for bit."""
    bloch = _bloch_batch(40)
    gaps = kernels.qubit_relation_gaps(bloch)
    for k, rel in enumerate(QUBIT_SOAK_RELATIONS):
        assert np.array_equal(kernels.qubit_relation_gaps(bloch, (rel,))[:, 0], gaps[:, k]), rel
    h, w = bloch_moments(np.ascontiguousarray(bloch.T), reads=())[3:]
    assert h is None and w is None
    for twice_s in (1, 2):
        relations = tuple(rel for rel in RelationId if applicable_to(rel, twice_s))
        psis = random_pure_vectors(twice_s + 1, 40, 7)
        gaps = kernels.vector_scorer(relations, twice_s)(psis)
        for k, rel in enumerate(relations):
            assert np.array_equal(kernels.vector_scorer((rel,), twice_s)(psis)[:, 0], gaps[:, k]), rel


def test_vector_scorer_matches_bloch_route_at_spin_half():
    """At spin 1/2 the state-vector scorer gives the Bloch scorer's 16 columns on the same states."""
    psis = random_pure_vectors(2, 500, 31)
    bloch = np.array([bloch_from_density(from_statevector(psi)) for psi in psis])
    vector = kernels.vector_scorer(QUBIT_SOAK_RELATIONS, 1)(psis)
    assert vector.shape == (500, 16)
    np.testing.assert_allclose(vector, kernels.qubit_relation_gaps(bloch), rtol=0, atol=1e-12)


def test_triangle_kernel_matches_report_route():
    """Kernel gaps vs the scalar check_analogs route, on both input layouts."""
    third = 1.0 / 3.0
    special = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],  # vertices
        [0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [0.7, 0.0, 0.3],  # edge points
        [third, third, third],  # centroid
    ])
    rng = np.random.default_rng(11)
    bary = rng.random((40, 3))
    bary /= bary.sum(axis=1, keepdims=True)
    contiguous = np.vstack([special, bary])
    sampled = sample_barycentric(40, seed=11)
    assert contiguous.flags.c_contiguous and sampled.T.flags.c_contiguous
    for side in (0.5, 1.5, 2.0):
        for batch in (contiguous, sampled):
            gaps = kernels.triangle_analog_gaps(batch, side)
            for point, row in zip(batch, gaps):
                reports = check_analogs(TrianglePoint(side, tuple(point)))
                for gap, rep in zip(row, reports):
                    assert abs(gap - rep.gap) <= 1e-12
