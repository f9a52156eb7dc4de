import numpy as np
import pytest

from triplespin.errors import DimensionMismatchError, TrivialRepresentationError
from triplespin.spin_ops import Spin, build_spin_operators, commutator, identity_residuals


def test_spin_half_matrices_are_half_paulis():
    ops = build_spin_operators(1)
    assert np.array_equal(ops.sx, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    assert np.array_equal(ops.sy, np.array([[0, -0.5j], [0.5j, 0]], dtype=complex))
    assert np.array_equal(ops.sz, np.array([[0.5, 0], [0, -0.5]], dtype=complex))


def test_spin_one_sz_is_descending_diagonal():
    ops = build_spin_operators(2)
    assert np.array_equal(ops.sz, np.diag([1.0, 0.0, -1.0]).astype(complex))


def test_spin_three_halves_commutator_oracle():
    # oracle: direct matrix multiplication of the constructed matrices
    ops = build_spin_operators(3)
    residual = ops.sx @ ops.sy - ops.sy @ ops.sx - 1j * ops.sz
    assert np.max(np.abs(residual)) <= 1e-12


@pytest.mark.parametrize("twice_s", range(1, 11))
def test_commutation_and_casimir_identities(twice_s):
    res = identity_residuals(build_spin_operators(twice_s))
    for name, value in res.items():
        assert value <= 1e-12, f"{name} residual {value} at twice_s={twice_s}"


@pytest.mark.parametrize("twice_s", range(1, 11))
def test_eigenvalues_are_the_m_ladder(twice_s):
    ops = build_spin_operators(twice_s)
    s = twice_s / 2.0
    expected = np.sort(s - np.arange(twice_s + 1))
    for op in ops.as_tuple():
        np.testing.assert_allclose(np.linalg.eigvalsh(op), expected, atol=1e-10)


def test_raising_operator_matches_the_ladder_loop():
    """S+ = Sx + i Sy equals, bit for bit, the entries built one at a time."""
    for twice_s in range(1, 21):
        s = twice_s / 2.0
        m = s - np.arange(twice_s + 1)
        s_plus = np.zeros((twice_s + 1, twice_s + 1))
        for i in range(twice_s):
            s_plus[i, i + 1] = np.sqrt(s * (s + 1) - m[i + 1] * (m[i + 1] + 1))
        ops = build_spin_operators(twice_s)
        assert np.array_equal(ops.sx, (s_plus + s_plus.T) / 2)
        assert np.array_equal(ops.sy, (s_plus - s_plus.T) / 2j)


def test_operators_are_hermitian_and_read_only():
    ops = build_spin_operators(4)
    for op in ops.as_tuple():
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12
        assert not op.flags.writeable


def test_rejects_trivial_representation():
    with pytest.raises(TrivialRepresentationError):
        build_spin_operators(0)


def test_spin_value_helpers():
    assert Spin(1).s == 0.5
    assert Spin(3).dim == 4
    assert str(Spin(1)) == "1/2"
    assert str(Spin(2)) == "1"
    with pytest.raises(ValueError):
        Spin(-1)


def test_commutator_self_is_zero():
    ops = build_spin_operators(1)
    assert np.max(np.abs(commutator(ops.sx, ops.sx))) == 0.0


def test_commutator_spin_half_algebra():
    ops = build_spin_operators(1)
    np.testing.assert_allclose(commutator(ops.sx, ops.sy), 1j * np.asarray(ops.sz), atol=1e-15)


def test_commutator_spin_one_oracle():
    ops = build_spin_operators(2)
    residual = commutator(ops.sz, ops.sx) - 1j * np.asarray(ops.sy)
    assert np.max(np.abs(residual)) <= 1e-12


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        commutator(np.ones((2, 3)), np.ones((2, 3)))
