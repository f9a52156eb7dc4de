"""Quantum states: Bloch vectors, density matrices, experimental state families.

A qubit density matrix is parametrized as rho = (1 + r.sigma)/2 with r the
Bloch vector. Two one-parameter families of pure states are provided: a
latitude circle at rz = 1/sqrt(3) swept by the azimuth phi, and a meridian
with rx = ry swept by the polar angle theta. Random pure (Haar) and random
mixed (Hilbert-Schmidt) generators are deterministic per seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .rng import stream

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10
BLOCH_NORM_TOL = 1e-12

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Validated density matrix (Hermitian, unit trace, positive semidefinite).

    spectrum is rho's eigendecomposition (its ascending eigenvalues and the
    eigenvectors as columns, both read-only) from np.linalg.eigh, which the
    positive-semidefinite check reads: the one eigh the evaluators take a
    state's moments from.
    """

    rho: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        rho = np.ascontiguousarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
        if not np.isfinite(rho).all():
            raise InvalidStateError("density matrix has non-finite entries")
        herm = np.abs(rho - rho.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(f"density matrix not Hermitian: residual {herm:.3e}")
        tr = rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace must be 1, got {tr}")
        spectrum = np.linalg.eigh(rho)
        min_eig = float(spectrum[0][0])
        if min_eig < PSD_EIG_FLOOR:
            raise InvalidStateError(f"density matrix not positive semidefinite: min eig {min_eig:.3e}")
        for a in (rho, *spectrum):
            a.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "spectrum", tuple(spectrum))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.rho, self.rho).real)


class Family(enum.Enum):
    """Tags for the two experimental sweep families."""

    R1_LATITUDE = "r1"
    R2_MERIDIAN = "r2"


def from_statevector(psi: np.ndarray) -> QuantumState:
    """Density matrix |psi><psi| / <psi|psi> of a state vector (d,), or of r columns g_c as (r, d).

    r columns give sum_c g_c g_c^dag / t with t = sum_c ||g_c||^2, a mixed
    state when they are not all parallel.
    """
    g = np.atleast_2d(np.asarray(psi, dtype=complex))
    if not np.isfinite(g).all():  # first: the division below would warn on NaN and inf
        raise InvalidStateError("state vector has non-finite entries")
    norm = np.linalg.norm(g)
    if norm == 0:
        raise InvalidStateError("zero state vector")
    g = g / norm
    # elementwise, like np.outer: a vector's |psi><psi| keeps the bits of the outer product,
    # but for the diagonal's imaginary parts, which are 0 exactly, not g_i conj(g_i)'s rounding
    rho = (g[:, :, None] * g.conj()[:, None, :]).sum(axis=0)
    np.fill_diagonal(rho.imag, 0.0)
    return QuantumState(rho)


def density_from_bloch(r) -> QuantumState:
    """Qubit density matrix (1 + r.sigma)/2 for a Bloch vector inside the ball."""
    r = np.asarray(r, dtype=float).ravel()
    if r.shape != (3,):
        raise InvalidStateError(f"Bloch vector needs 3 components, got {r.shape}")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise InvalidStateError(f"Bloch vector norm {norm} exceeds 1")
    rho = 0.5 * (np.eye(2, dtype=complex) + r[0] * _PAULI_X + r[1] * _PAULI_Y + r[2] * _PAULI_Z)
    return QuantumState(rho)


def bloch_from_density(state: QuantumState) -> np.ndarray:
    """Bloch vector r_i = tr(rho sigma_i); inverse of density_from_bloch."""
    if state.dim != 2:
        raise DimensionMismatchError("Bloch view is defined for dimension 2 only")
    rho = state.rho
    rx = 2.0 * rho[0, 1].real
    ry = -2.0 * rho[0, 1].imag
    rz = (rho[0, 0] - rho[1, 1]).real
    return np.array([rx, ry, rz])


def _latitude(phi):
    """Latitude family r1: (sqrt(2/3) cos phi, sqrt(2/3) sin phi, 1/sqrt(3))."""
    a = np.sqrt(2.0 / 3.0)
    return np.stack(np.broadcast_arrays(a * np.cos(phi), a * np.sin(phi), 1.0 / np.sqrt(3.0)))


def _meridian(theta):
    """Meridian family r2: (sin theta / sqrt 2, sin theta / sqrt 2, cos theta)."""
    b = np.sin(theta) / np.sqrt(2.0)
    return np.stack([b, b, np.cos(theta)])


def _closed_form(family: Family):
    """The family's Bloch vector as a function of its parameter, scalar or (n,) -> (3,) or (3, n)."""
    if family is Family.R1_LATITUDE:
        return _latitude
    if family is Family.R2_MERIDIAN:
        return _meridian
    raise ValueError(f"unknown family {family!r}")


def family_point(family: Family, parameter: float) -> np.ndarray:
    """(3,) Bloch vector of a family's state at one parameter; density_from_bloch makes it a state."""
    with np.errstate(invalid="ignore"):  # sin(inf) is NaN, which density_from_bloch refuses
        return _closed_form(family)(parameter)


def family_bloch(family: Family, params) -> np.ndarray:
    """(3, n) Bloch columns of a family's states at n parameters, for batch sweeps.

    The columns are checked once, as density_from_bloch checks one vector: a
    non-finite entry or a norm above 1 + BLOCH_NORM_TOL raises
    InvalidStateError. Each column equals bloch_from_density of the point's
    validated state, without building it.
    """
    with np.errstate(invalid="ignore"):  # sin(inf) is NaN, refused just below
        r = _closed_form(family)(np.asarray(params, dtype=float))
    if not np.isfinite(r).all():
        raise InvalidStateError("Bloch columns have non-finite entries")
    norm = float(np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).max(initial=0.0))
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise InvalidStateError(f"Bloch vector norm {norm} exceeds 1")
    # r_z as bloch_from_density reads it back from rho = (1 + r.sigma)/2, as
    # rho_00 - rho_11 (r_x and r_y come back exactly): sweep outputs stay
    # those of the per-state route to the last bit (cos(pi/2) reads 5.55e-17, not 6.12e-17)
    r[2] = 0.5 * (1.0 + r[2]) - 0.5 * (1.0 - r[2])
    return r


def random_pure(dim: int, seed: int) -> QuantumState:
    """Haar-random pure state: normalized vector of standard complex normals."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return from_statevector(random_pure_vectors(dim, 1, seed)[0])


def random_mixed(dim: int, seed: int) -> QuantumState:
    """Hilbert-Schmidt random mixed state: the dim columns of one Haar-random unit vector of C^(dim^2)."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return from_statevector(random_pure_vectors(dim * dim, 1, seed)[0].reshape(dim, dim))


def _directions(n: int, rng, out=None) -> np.ndarray:
    """(3, n) unit vectors uniform on the sphere from stream rng (Muller, Comm. ACM 2, 19, 1959).

    They are drawn into out, a C-contiguous (3, n) array, if given, with the bits of a fresh draw.
    """
    v = rng.standard_normal((3, n), out=out)
    v /= np.sqrt(np.einsum("ij,ij->j", v, v))  # in place: a second (3, n) array raises peak memory
    return v


def random_pure_bloch(n: int, seed: int, *key: int, out=None) -> np.ndarray:
    """(n, 3) Bloch vectors of Haar-random qubit pure states from stream (seed, *key), uniform on the sphere.

    The result is the transposed view of (3, n) columns, drawn into out if given (see _directions).
    """
    return _directions(n, stream(seed, *key), out).T


def random_mixed_bloch(n: int, seed: int, *key: int, out=None) -> np.ndarray:
    """(n, 3) Bloch vectors of Hilbert-Schmidt random qubit mixed states from stream (seed, *key).

    Uniform in the ball (Zyczkowski & Sommers, J. Phys. A 34, 7111, 2001): a direction times U^(1/3).
    The result is the transposed view of (3, n) columns, drawn into out if given (see _directions).
    """
    rng = stream(seed, *key)
    r = _directions(n, rng, out)
    r *= rng.random(n) ** (1.0 / 3.0)
    return r.T


def random_pure_vectors(dim: int, n: int, seed: int, *key: int) -> np.ndarray:
    """(n, dim) Haar-random normalized state vectors from stream (seed, *key)."""
    return haar_vectors(stream(seed, *key), dim, n)


def haar_vectors(rng, dim: int, n: int) -> np.ndarray:
    """(n, dim) Haar-random normalized state vectors from the generator rng: normalized complex_normals."""
    return normalize_rows(complex_normals(rng, dim, n))


def complex_normals(rng, dim: int, n: int) -> np.ndarray:
    """(n, dim) standard complex normals from the generator rng: n dim real parts drawn, then the imaginary parts."""
    parts = rng.standard_normal((2, n, dim))
    z = np.empty((n, dim), dtype=complex)
    z.real, z.imag = parts[0], parts[1]
    return z


def normalize_rows(z: np.ndarray) -> np.ndarray:
    """z, (n, dim) complex, with each row divided by its norm in place; a row's bits do not depend on n."""
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def state_to_json_dict(state: QuantumState) -> dict:
    """Serialize to {dim, entries} with row-major [re, im] pairs."""
    return {
        "dim": state.dim,
        "entries": state.rho.view(float).reshape(-1, 2).tolist(),
    }


def state_from_json_dict(obj: dict) -> QuantumState:
    """Inverse of state_to_json_dict; InvalidStateError for a malformed object."""
    try:
        dim = obj["dim"]
        flat = np.array([complex(re, im) for re, im in obj["entries"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStateError(f"a state needs 'dim' and 'entries' as [re, im] number pairs ({exc!r})") from None
    # a JSON integer only: 2.7, "2" and true (a bool is an int in Python) are malformed
    if type(dim) is not int or dim < 1:
        raise InvalidStateError(f"dim must be a positive integer, got {dim!r}")
    if flat.size != dim * dim:
        raise InvalidStateError(f"expected {dim * dim} entries, got {flat.size}")
    return QuantumState(flat.reshape(dim, dim))
