import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from triplespin.errors import DimensionMismatchError, InvalidStateError
from triplespin.states import (
    Family,
    QuantumState,
    bloch_from_density,
    density_from_bloch,
    family_bloch,
    family_point,
    from_statevector,
    random_mixed,
    random_mixed_bloch,
    random_pure,
    random_pure_bloch,
    state_from_json_dict,
    state_to_json_dict,
)
from triplespin.rng import stream

SQ3 = np.sqrt(3.0)


def test_density_from_bloch_pole():
    st = density_from_bloch([0, 0, 1])
    assert np.array_equal(st.rho, np.diag([1.0, 0.0]).astype(complex))


def test_density_from_bloch_center():
    st = density_from_bloch([0, 0, 0])
    assert np.array_equal(st.rho, np.diag([0.5, 0.5]).astype(complex))


def test_density_from_bloch_balanced_direction():
    # hand expansion of (1 + r.sigma)/2 at r = (1,1,1)/sqrt(3)
    st = density_from_bloch([1 / SQ3, 1 / SQ3, 1 / SQ3])
    expected = np.array(
        [
            [0.5 + 1 / (2 * SQ3), (1 - 1j) / (2 * SQ3)],
            [(1 + 1j) / (2 * SQ3), 0.5 - 1 / (2 * SQ3)],
        ]
    )
    np.testing.assert_allclose(st.rho, expected, atol=1e-15)


def test_density_from_bloch_rejects_outside_ball():
    with pytest.raises(InvalidStateError):
        density_from_bloch([1.1, 0, 0])


def test_bloch_roundtrip():
    r = np.array([0.3, -0.4, 0.5])
    np.testing.assert_allclose(bloch_from_density(density_from_bloch(r)), r, atol=1e-12)


def test_bloch_from_density_examples():
    np.testing.assert_allclose(bloch_from_density(density_from_bloch([0, 0, 1])), [0, 0, 1])
    np.testing.assert_allclose(bloch_from_density(density_from_bloch([0, 0, 0])), [0, 0, 0])


def test_bloch_view_requires_dim_two():
    with pytest.raises(DimensionMismatchError):
        bloch_from_density(random_pure(3, 0))


def test_family_r1_values():
    r1 = Family.R1_LATITUDE
    np.testing.assert_allclose(family_point(r1, np.pi / 4), [1 / SQ3, 1 / SQ3, 1 / SQ3], atol=1e-15)
    np.testing.assert_allclose(family_point(r1, 0.0), [np.sqrt(2 / 3), 0, 1 / SQ3], atol=1e-15)
    np.testing.assert_allclose(family_point(r1, np.pi / 2), [0, np.sqrt(2 / 3), 1 / SQ3], atol=1e-15)


def test_family_r2_values():
    r2 = Family.R2_MERIDIAN
    np.testing.assert_allclose(family_point(r2, 0.0), [0, 0, 1], atol=1e-15)
    theta = np.arctan(np.sqrt(2.0))
    np.testing.assert_allclose(family_point(r2, theta), [1 / SQ3, 1 / SQ3, 1 / SQ3], atol=1e-15)
    np.testing.assert_allclose(family_point(r2, np.pi / 2), [1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-15)


@pytest.mark.parametrize("family", list(Family))
def test_families_are_unit_vectors(family):
    for p in np.linspace(0, 2 * np.pi, 97):
        norm = np.linalg.norm(family_point(family, p))
        assert abs(norm - 1.0) <= 1e-12


@pytest.mark.parametrize("family", list(Family))
def test_family_bloch_columns_equal_the_validated_state_route(family):
    params = np.linspace(0, 2 * np.pi, 181)
    columns = family_bloch(family, params)
    assert columns.shape == (3, 181)
    for k, p in enumerate(params):
        assert np.array_equal(columns[:, k], bloch_from_density(density_from_bloch(family_point(family, p))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_family_bloch_rejects_non_finite_parameters(bad):
    with pytest.raises(InvalidStateError):
        family_bloch(Family.R2_MERIDIAN, [0.0, bad])


def test_families_intersect():
    r1 = family_point(Family.R1_LATITUDE, np.pi / 4)
    r2 = family_point(Family.R2_MERIDIAN, np.arctan(np.sqrt(2.0)))
    np.testing.assert_allclose(r1, r2, atol=1e-12)


def test_random_pure_deterministic():
    a = random_pure(2, seed=7)
    b = random_pure(2, seed=7)
    assert np.array_equal(a.rho, b.rho)
    assert not np.array_equal(a.rho, random_pure(2, seed=8).rho)


def test_random_pure_is_rank_one():
    for seed in range(20):
        assert abs(random_pure(2, seed).purity() - 1.0) <= 1e-12


def test_random_pure_haar_mean():
    # Haar average of |psi><psi| is the maximally mixed state
    acc = np.zeros((3, 3), dtype=complex)
    n = 10_000
    for seed in range(n):
        acc += random_pure(3, seed).rho
    np.testing.assert_allclose(acc / n, np.eye(3) / 3, atol=0.02)


def test_from_statevector_takes_columns():
    """(r, d) columns give sum_c g_c g_c^dag / t; one vector keeps the bits of np.outer,
    but for the diagonal's imaginary parts, which are exactly 0."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(from_statevector(g).rho, g.T @ g.conj() / np.vdot(g, g).real, rtol=0, atol=1e-15)
    assert not from_statevector(g).rho.diagonal().imag.any()
    psi = g[0] / np.linalg.norm(g[0])
    outer = np.outer(psi, psi.conj())
    outer.imag[np.diag_indices_from(outer)] = 0.0
    assert np.array_equal(from_statevector(g[0]).rho, outer)
    assert np.array_equal(from_statevector(g[:1]).rho, from_statevector(g[0]).rho)
    with pytest.raises(InvalidStateError, match="zero"):
        from_statevector(np.zeros((2, 3)))


def test_random_mixed_is_valid_and_deterministic():
    a = random_mixed(2, seed=1)
    b = random_mixed(2, seed=1)
    assert np.array_equal(a.rho, b.rho)
    eig = np.linalg.eigvalsh(a.rho)
    assert eig.min() >= -1e-12
    assert abs(eig.sum() - 1.0) <= 1e-12


def test_random_mixed_never_pure():
    for seed in range(10_000):
        norm = np.linalg.norm(bloch_from_density(random_mixed(2, seed)))
        assert norm < 1.0


def test_batch_bloch_generators_match_state_invariants():
    pure = random_pure_bloch(2000, 11)
    mixed = random_mixed_bloch(2000, 12)
    np.testing.assert_allclose(np.linalg.norm(pure, axis=1), 1.0, atol=1e-12)
    assert np.all(np.linalg.norm(mixed, axis=1) < 1.0)


# Distribution checks: each Kolmogorov-Smirnov p-value must exceed KS_ALPHA,
# a bound fixed before any draw was looked at.
KS_ALPHA = 1e-4
KS_N = 20_000


def _matrix_route_bloch(n, seed, *key):
    """Bloch vectors of rho = G G^dag / tr(G G^dag) for G of standard complex normals."""
    rng = stream(seed, *key)
    g = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    m = g @ np.conj(np.swapaxes(g, 1, 2))
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return np.column_stack([2.0 * m[:, 0, 1].real, -2.0 * m[:, 0, 1].imag, (m[:, 0, 0] - m[:, 1, 1]).real])


@pytest.mark.parametrize("key", [(), (1,), (1, 4)])
def test_random_mixed_bloch_fills_the_ball_uniformly(key):
    # uniform in the unit ball: r^3 ~ U(0, 1)
    r = np.linalg.norm(random_mixed_bloch(KS_N, 29, *key), axis=1)
    assert r.max() <= 1.0 + 1e-12
    assert kstest(r**3, "uniform").pvalue > KS_ALPHA


def test_random_mixed_fills_the_ball_uniformly():
    # the qubit Hilbert-Schmidt law over seeds: r^3 ~ U(0, 1)
    r = np.array([np.linalg.norm(bloch_from_density(random_mixed(2, seed))) for seed in range(5000)])
    assert kstest(r**3, "uniform").pvalue > KS_ALPHA


@pytest.mark.parametrize("key", [(), (1,), (1, 4)])
def test_random_mixed_bloch_matches_matrix_route(key):
    # the G G^dag / tr route on an independent stream: radius and r_z agree in distribution
    bloch = random_mixed_bloch(KS_N, 29, *key)
    reference = _matrix_route_bloch(KS_N, 30, *key)
    assert ks_2samp(np.linalg.norm(bloch, axis=1), np.linalg.norm(reference, axis=1)).pvalue > KS_ALPHA
    assert ks_2samp(bloch[:, 2], reference[:, 2]).pvalue > KS_ALPHA


@pytest.mark.parametrize("key", [(), (1,), (1, 4)])
def test_random_pure_bloch_is_uniform_on_the_sphere(key):
    # on the unit sphere, and by Archimedes' hat-box theorem r_z ~ U(-1, 1)
    bloch = random_pure_bloch(KS_N, 29, *key)
    assert np.abs(np.linalg.norm(bloch, axis=1) - 1.0).max() <= 1e-12
    assert kstest(bloch[:, 2], "uniform", args=(-1.0, 2.0)).pvalue > KS_ALPHA


def test_state_json_roundtrip():
    st = random_mixed(3, seed=5)
    blob = json.dumps(state_to_json_dict(st))
    back = state_from_json_dict(json.loads(blob))
    np.testing.assert_allclose(back.rho, st.rho, atol=1e-15)


def test_state_json_rejects_bad_entry_count():
    with pytest.raises(InvalidStateError):
        state_from_json_dict({"dim": 2, "entries": [[1.0, 0.0]]})


MALFORMED_STATE_JSON = {
    "no_dim": {"entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
    "entries_not_a_list": {"dim": 2, "entries": 5},
    "entry_of_strings": {"dim": 1, "entries": [["a", "b"]]},
    "top_level_list": [2, [[1, 0]]],
    "short_entry": {"dim": 1, "entries": [[0]]},
    "zero_dim": {"dim": 0, "entries": []},
    "fractional_dim": {"dim": 2.7, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
    "string_dim": {"dim": "2", "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
    "boolean_dim": {"dim": True, "entries": [[1, 0]]},
}


@pytest.mark.parametrize("obj", MALFORMED_STATE_JSON.values(), ids=MALFORMED_STATE_JSON.keys())
def test_state_json_rejects_malformed_objects(obj):
    with pytest.raises(InvalidStateError):
        state_from_json_dict(obj)


def test_quantum_state_validation():
    with pytest.raises(InvalidStateError):
        QuantumState(np.array([[1.0, 0.5], [0.4, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        QuantumState(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(InvalidStateError):
        QuantumState(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidStateError):
        QuantumState(np.ones((2, 3)))  # not square


@pytest.mark.parametrize("dim, mixed", [(2, False), (3, True), (5, True)])
def test_quantum_state_keeps_the_eigh_its_check_read(dim, mixed):
    """spectrum is eigh of the stored rho, read-only; a matrix just below the PSD floor still raises."""
    state = random_mixed(dim, 4) if mixed else random_pure(dim, 4)
    lam, vecs = state.spectrum
    want = np.linalg.eigh(state.rho)
    assert np.array_equal(lam, want[0]) and np.array_equal(vecs, want[1])
    assert not (state.rho.flags.writeable or lam.flags.writeable or vecs.flags.writeable)
    with pytest.raises(InvalidStateError, match="not positive semidefinite"):
        QuantumState(np.diag([1.0 + 2e-10, -2e-10]))
    assert QuantumState(np.diag([1.0 + 5e-11, -5e-11])).spectrum[0][0] == -5e-11


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_quantum_state_rejects_non_finite_entries(bad):
    with pytest.raises(InvalidStateError):
        QuantumState(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidStateError):
        density_from_bloch([bad, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_statevector_rejects_non_finite_entries(bad):
    # refused before the normalizing division, which would warn on NaN and inf
    for psi in ([bad, 1.0], [[1.0, 0.0], [0.0, bad]]):
        with pytest.raises(InvalidStateError, match="non-finite"):
            from_statevector(np.array(psi))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, -(2**64)])
def test_stream_rejects_seeds_outside_64_bits(seed):
    # masking them to 64 bits would give seeds 0 and 2**64 the same stream
    with pytest.raises(ValueError):
        stream(seed)


def test_stream_accepts_the_64_bit_range():
    assert stream(0).random() != stream(2**64 - 1).random()
