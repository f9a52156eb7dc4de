import numpy as np
import pytest

from triplespin.errors import DimensionMismatchError, NotHermitianError, TripleSpinError
from triplespin.moments import (
    bloch_moments,
    entr,
    expectation,
    outcome_distribution,
    pure_moments,
    shannon_entropy,
    std_dev,
    variance,
)
from triplespin.spin_ops import build_spin_operators
from triplespin.states import (
    density_from_bloch,
    random_mixed,
    random_mixed_bloch,
    random_pure_bloch,
)
from triplespin.rng import stream

QUBIT = build_spin_operators(1)
SQ3 = np.sqrt(3.0)


def _random_unitary(dim, seed):
    rng = stream(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_expectation_eigenstate():
    assert expectation(density_from_bloch([0, 0, 1]), QUBIT.sz) == pytest.approx(0.5, abs=1e-15)


def test_expectation_balanced_state():
    st = density_from_bloch([1 / SQ3, 1 / SQ3, 1 / SQ3])
    # <S_i> = r_i / 2 from expanding (1 + r.sigma)/2
    assert expectation(st, QUBIT.sx) == pytest.approx(1 / (2 * SQ3), abs=1e-15)


def test_expectation_traceless_on_maximally_mixed():
    st = density_from_bloch([0, 0, 0])
    for op in QUBIT.as_tuple():
        assert expectation(st, op) == pytest.approx(0.0, abs=1e-15)


def test_expectation_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        expectation(density_from_bloch([0, 0, 0]), np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("moment", [expectation, variance, std_dev, outcome_distribution, shannon_entropy])
def test_non_finite_observable_is_rejected(moment, bad):
    """A NaN residual passes the Hermiticity test, so non-finite entries are checked first."""
    op = np.array([[bad, 0], [0, 1]], dtype=complex)
    with pytest.raises(TripleSpinError, match="non-finite"):
        moment(density_from_bloch([0, 0, 1]), op)


def test_expectation_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        expectation(density_from_bloch([0, 0, 0]), np.eye(3))


def test_std_dev_eigenstate_is_zero():
    assert std_dev(density_from_bloch([0, 0, 1]), QUBIT.sz) == pytest.approx(0.0, abs=1e-15)


def test_std_dev_balanced_state():
    st = density_from_bloch([1 / SQ3, 1 / SQ3, 1 / SQ3])
    # (Delta S_i)^2 = (1 - r_i^2)/4 for a qubit
    assert std_dev(st, QUBIT.sx) == pytest.approx(1 / np.sqrt(6.0), abs=1e-15)


def test_std_dev_maximally_mixed():
    assert std_dev(density_from_bloch([0, 0, 0]), QUBIT.sz) == pytest.approx(0.5, abs=1e-15)


def test_outcome_distribution_eigenstate():
    eigvals, probs = outcome_distribution(density_from_bloch([0, 0, 1]), QUBIT.sz)
    np.testing.assert_allclose(eigvals, [0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("rz", [-0.9, -0.3, 0.0, 0.4, 1.0])
def test_outcome_distribution_diagonal_state(rz):
    _, probs = outcome_distribution(density_from_bloch([0, 0, rz]), QUBIT.sz)
    np.testing.assert_allclose(probs, [(1 + rz) / 2, (1 - rz) / 2], atol=1e-12)


def test_outcome_distribution_spin_one_mixed():
    ops = build_spin_operators(2)
    from triplespin.states import QuantumState

    st = QuantumState(np.eye(3) / 3)
    eigvals, probs = outcome_distribution(st, ops.sz)
    np.testing.assert_allclose(eigvals, [1, 0, -1], atol=1e-12)
    np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)


def test_outcome_distribution_merges_degenerate_eigenvalues():
    eigvals, probs = outcome_distribution(density_from_bloch([0.2, 0.1, -0.3]), np.eye(2))
    assert eigvals.tolist() == [pytest.approx(1.0)]
    assert probs.tolist() == [pytest.approx(1.0)]


def test_outcome_distribution_mean_matches_expectation():
    for seed in range(25):
        st = random_mixed(3, seed)
        op = np.asarray(build_spin_operators(2).sy)
        eigvals, probs = outcome_distribution(st, op)
        mean = float(np.dot(eigvals, probs))
        assert abs(mean - expectation(st, op)) <= 1e-10


def test_entropy_deterministic_outcome_is_zero():
    assert shannon_entropy(density_from_bloch([0, 0, 1]), QUBIT.sz) == pytest.approx(0.0, abs=1e-12)


def test_entropy_transverse_axis_is_ln2():
    assert shannon_entropy(density_from_bloch([0, 0, 1]), QUBIT.sx) == pytest.approx(
        np.log(2.0), abs=1e-12
    )


def test_entropy_within_range():
    ops3 = build_spin_operators(2)
    for seed in range(30):
        st = random_mixed(3, seed)
        for op in ops3.as_tuple():
            h = shannon_entropy(st, op)
            assert -1e-12 <= h <= np.log(3.0) + 1e-12


def test_entropy_matches_the_loop_over_outcomes():
    """The sum of entr equals the -p log p loop over positive p: bit for bit below
    8 outcomes, where numpy sums in order, and to rounding above."""
    for twice_s in range(1, 11):
        ops = build_spin_operators(twice_s)
        for seed in range(5):
            st = random_mixed(twice_s + 1, 100 * twice_s + seed)
            for op in ops.as_tuple():
                h = 0.0
                for p in outcome_distribution(st, op)[1]:
                    if p > 0.0:
                        h -= p * np.log(p)
                got = shannon_entropy(st, op)
                assert got == h if twice_s < 7 else abs(got - h) <= 1e-14


def test_closed_form_oracle_equivalence():
    """Spectral route vs (r_i/2, (1-r_i^2)/4) closed forms on random qubits."""
    blochs = np.vstack([random_pure_bloch(5000, 21), random_mixed_bloch(5000, 22)])
    for r in blochs[::37]:
        st = density_from_bloch(r)
        for k, op in enumerate(QUBIT.as_tuple()):
            assert abs(expectation(st, op) - r[k] / 2.0) <= 1e-12
            assert abs(variance(st, op) - (1 - r[k] ** 2) / 4.0) <= 1e-12


def test_rotated_observable_std_identity():
    """std_dev(rho, V+ Sz V) equals sqrt(1/4 - <V+ Sz V>^2) for any qubit and V."""
    for seed in range(40):
        v = _random_unitary(2, seed)
        op = v.conj().T @ np.asarray(QUBIT.sz) @ v
        op = (op + op.conj().T) / 2  # scrub fp Hermiticity residue
        st = random_mixed(2, seed + 1000)
        e = expectation(st, op)
        assert abs(std_dev(st, op) - np.sqrt(0.25 - e * e)) <= 1e-12


def test_batch_moments_match_scalar_path():
    """Pure states as one column each, and mixed ones as their scaled eigenvectors."""
    ops = build_spin_operators(2)
    rng = stream(99)
    psis = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    from triplespin.states import from_statevector

    mixed = [random_mixed(3, seed) for seed in range(50)]
    cols = []
    for st in mixed:
        lam, vecs = np.linalg.eigh(st.rho)
        cols.append((vecs * np.sqrt(lam)).T)
    for states, batch in (([from_statevector(psi) for psi in psis], psis[:, None]), (mixed, np.array(cols))):
        e_batch, v_batch = pure_moments(batch, np.array(ops.as_tuple()))
        for i in range(0, 50, 7):
            for k, op in enumerate(ops.as_tuple()):
                assert abs(e_batch[k, i] - expectation(states[i], op)) <= 1e-12
                assert abs(v_batch[k, i] - variance(states[i], op)) <= 1e-12


def test_pure_moments_shapes_follow_arguments():
    ops = build_spin_operators(2)
    stack = np.array(ops.as_tuple())
    rng = stream(7)
    cols = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
    cols /= np.linalg.norm(cols, axis=(1, 2), keepdims=True)
    e, v = pure_moments(cols, stack)
    assert e.shape == v.shape == (3, 5)
    e1, v1 = pure_moments(cols[2:3], stack[1:2])
    assert e1.shape == v1.shape == (1, 1)
    assert abs(e1[0, 0] - e[1, 2]) <= 1e-15 and abs(v1[0, 0] - v[1, 2]) <= 1e-15
    # a state vector batch without its column axis, or a single observable, is not a batch
    for args in ((cols[:, 0], stack), (cols, ops.sy), (cols[2], ops.sy)):
        with pytest.raises(ValueError, match="expected"):
            pure_moments(*args)


def test_bloch_moments_match_scalar_path():
    """Closed-form qubit moments vs the matrix and spectral route."""
    blochs = np.vstack([random_pure_bloch(500, 23), random_mixed_bloch(500, 24)])
    d, v, e, h, w = bloch_moments(blochs.T, reads=("h", "w"))
    assert d.shape == v.shape == e.shape == h.shape == w.shape == (3, 1000)
    axes = QUBIT.as_tuple()
    for n in range(0, 1000, 37):
        st = density_from_bloch(blochs[n])
        for i, op in enumerate(axes):
            pair = np.asarray(op) + np.asarray(axes[(i + 1) % 3])
            assert abs(e[i, n] - expectation(st, op)) <= 1e-12
            assert abs(v[i, n] - variance(st, op)) <= 1e-12
            assert abs(d[i, n] - std_dev(st, op)) <= 1e-12
            assert abs(h[i, n] - shannon_entropy(st, op)) <= 1e-12
            assert abs(w[i, n] - variance(st, pair)) <= 1e-12


def test_entr_matches_scipy_entr():
    from scipy.special import entr as scipy_entr

    p = np.concatenate([np.linspace(0.0, 1.0, 10_001), stream(3).random(10_000) ** 20, [5e-324, 1e-300]])
    # numpy's and the C library's log may differ by one ulp
    assert np.max(np.abs(entr(p) - scipy_entr(p))) <= 2.3e-16
    assert entr(0.0) == 0.0 and entr(1.0) == 0.0
    assert entr(0.5) == pytest.approx(0.5 * np.log(2.0), abs=1e-16)


def test_entr_keeps_nan():
    assert np.isnan(entr(np.nan))
    out = entr(np.array([0.0, np.nan, 0.25]))
    assert out[0] == 0.0 and np.isnan(out[1]) and np.isfinite(out[2])
    # a NaN Bloch component reaches its entropy, so the gaps that read it fail loudly
    h = bloch_moments(np.array([[np.nan], [0.0], [0.5]]), reads=("h",))[3]
    assert np.isnan(h[0, 0]) and np.isfinite(h[1:, 0]).all()
