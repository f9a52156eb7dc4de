"""Angular-momentum operator matrices for arbitrary spin quantum number.

The spin value is carried as ``twice_s`` (an integer) so that dimensions and
magnetic quantum numbers are exact. Matrices use the basis ordered by
descending magnetic quantum number m = s, s-1, ..., -s; every module in the
package relies on that ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TrivialRepresentationError

#: Max-entry tolerance for the construction identities (commutators, Casimir).
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class Spin:
    """Spin quantum number stored as twice its value (1 -> s=1/2, 2 -> s=1, ...)."""

    twice_s: int

    def __post_init__(self):
        if not isinstance(self.twice_s, (int, np.integer)) or self.twice_s < 0:
            raise ValueError(f"twice_s must be a non-negative integer, got {self.twice_s!r}")
        object.__setattr__(self, "twice_s", int(self.twice_s))

    @property
    def s(self) -> float:
        return self.twice_s / 2.0

    @property
    def dim(self) -> int:
        return self.twice_s + 1

    def __str__(self) -> str:
        return f"{self.twice_s}/2" if self.twice_s % 2 else str(self.twice_s // 2)


@dataclass(frozen=True, eq=False)
class SpinOperatorSet:
    """The three Hermitian spin-component matrices for one spin value (hbar = 1)."""

    spin: Spin
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.sx, self.sy, self.sz)

    @property
    def dim(self) -> int:
        return self.spin.dim


def _as_spin(spin: Spin | int) -> Spin:
    return spin if isinstance(spin, Spin) else Spin(spin)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def build_spin_operators(spin: Spin | int) -> SpinOperatorSet:
    """Construct Sx, Sy, Sz for the given spin via the ladder-operator recipe.

    The raising operator has entries sqrt(s(s+1) - m(m+1)) connecting |s,m>
    to |s,m+1>; then Sx = (S+ + S-)/2, Sy = (S+ - S-)/(2i) and Sz is diagonal
    with entries s, s-1, ..., -s.
    """
    spin = _as_spin(spin)
    if spin.twice_s == 0:
        raise TrivialRepresentationError(
            "twice_s = 0 gives the trivial one-dimensional representation; need twice_s >= 1"
        )
    s = spin.s
    m = s - np.arange(spin.dim)  # descending: s, s-1, ..., -s
    # column i+1 holds m[i+1]; S+ maps it up to m[i+1]+1 = m[i], one place above the diagonal
    s_plus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
    sx = (s_plus + s_plus.T) / 2
    sy = (s_plus - s_plus.T) / 2j
    sz = np.diag(m)
    return SpinOperatorSet(spin, _frozen(sx), _frozen(sy), _frozen(sz))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return AB - BA."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def identity_residuals(ops: SpinOperatorSet) -> dict[str, float]:
    """Max-entry residuals of the cyclic commutation identities and the Casimir.

    All four must be <= IDENTITY_TOL for a correctly built operator set.
    """
    sx, sy, sz = ops.as_tuple()
    s = ops.spin.s
    eye = np.eye(ops.dim)
    casimir = sx @ sx + sy @ sy + sz @ sz - s * (s + 1) * eye
    return {
        "comm_xy": float(np.max(np.abs(commutator(sx, sy) - 1j * sz))),
        "comm_yz": float(np.max(np.abs(commutator(sy, sz) - 1j * sx))),
        "comm_zx": float(np.max(np.abs(commutator(sz, sx) - 1j * sy))),
        "casimir": float(np.max(np.abs(casimir))),
    }
