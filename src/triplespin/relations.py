"""The uncertainty-relation catalog: evaluate LHS, RHS, gap, and saturation.

Identifiers are stable and serialized by name. The pairwise relations are
instances of the Robertson bound; the triple product and triple sum bounds
carry the tightening constant tau = 2/sqrt(3). Naming convention for the
pairwise ids: the suffix is the axis whose expectation forms the bound, e.g.
R2_PAIR_PRODUCT_Z is Delta(Sx) Delta(Sy) >= |<Sz>| / 2.

Relations proved only for spin-1/2 raise SpinRestrictionError for s >= 1;
the conjectured all-spin version of the triple product bound is available
separately as R11_CONJECTURE_TRIPLE_PRODUCT.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import DimensionMismatchError, SpinRestrictionError
from .moments import EntropyBase, expectation, shannon_entropy, std_dev, variance
from .spin_ops import Spin, SpinOperatorSet, build_spin_operators
from .states import QuantumState, random_mixed_bloch, random_pure_bloch

#: The triple constant tightening the naive three-component bounds.
TAU = 2.0 / math.sqrt(3.0)

#: Default |gap| threshold below which a relation counts as saturated.
SATURATION_TOL = 1e-9

_LN2 = math.log(2.0)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)


class RelationId(enum.Enum):
    R_ROBERTSON_GENERIC = "R_ROBERTSON_GENERIC"
    R2_PAIR_PRODUCT_X = "R2_PAIR_PRODUCT_X"
    R2_PAIR_PRODUCT_Y = "R2_PAIR_PRODUCT_Y"
    R2_PAIR_PRODUCT_Z = "R2_PAIR_PRODUCT_Z"
    R3_TRIPLE_PRODUCT = "R3_TRIPLE_PRODUCT"
    R4_PAIR_SUM_X = "R4_PAIR_SUM_X"
    R4_PAIR_SUM_Y = "R4_PAIR_SUM_Y"
    R4_PAIR_SUM_Z = "R4_PAIR_SUM_Z"
    R5_TRIPLE_SUM = "R5_TRIPLE_SUM"
    R6_SUM_HALF = "R6_SUM_HALF"
    R7_SUM_GENERAL_S = "R7_SUM_GENERAL_S"
    R8_VARIANCE_OF_SUMS = "R8_VARIANCE_OF_SUMS"
    R9_ENTROPIC_PAIR_XY = "R9_ENTROPIC_PAIR_XY"
    R9_ENTROPIC_PAIR_YZ = "R9_ENTROPIC_PAIR_YZ"
    R9_ENTROPIC_PAIR_ZX = "R9_ENTROPIC_PAIR_ZX"
    R10_ENTROPIC_TRIPLE = "R10_ENTROPIC_TRIPLE"
    R11_CONJECTURE_TRIPLE_PRODUCT = "R11_CONJECTURE_TRIPLE_PRODUCT"
    NAIVE_PRO2 = "NAIVE_PRO2"
    NAIVE_SUM2 = "NAIVE_SUM2"


@dataclass(frozen=True)
class RelationReport:
    """Outcome of one relation on one state: lhs >= rhs up to the gap."""

    relation: RelationId
    lhs: float
    rhs: float
    gap: float
    saturated: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "saturated": self.saturated,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class CatalogEntry:
    relation: RelationId
    description: str
    applicability: str


#: Relations the qubit soak kernel evaluates, in kernel column order.
QUBIT_SOAK_RELATIONS = tuple(RelationId[name] for name in kernels.QUBIT_GAP_COLUMNS)

#: Relations whose proofs hold only in the spin-1/2 representation.
SPIN_HALF_ONLY = frozenset(
    {
        RelationId.R3_TRIPLE_PRODUCT,
        RelationId.R5_TRIPLE_SUM,
        RelationId.R6_SUM_HALF,
        RelationId.R8_VARIANCE_OF_SUMS,
        RelationId.R9_ENTROPIC_PAIR_XY,
        RelationId.R9_ENTROPIC_PAIR_YZ,
        RelationId.R9_ENTROPIC_PAIR_ZX,
        RelationId.R10_ENTROPIC_TRIPLE,
    }
)


#: Relations whose sides are Shannon entropies of the three components.
ENTROPIC = frozenset(
    {
        RelationId.R9_ENTROPIC_PAIR_XY,
        RelationId.R9_ENTROPIC_PAIR_YZ,
        RelationId.R9_ENTROPIC_PAIR_ZX,
        RelationId.R10_ENTROPIC_TRIPLE,
    }
)


@lru_cache(maxsize=32)
def _ops(twice_s: int) -> SpinOperatorSet:
    return build_spin_operators(Spin(twice_s))


def _report(relation, lhs, rhs, tol) -> RelationReport:
    lhs, rhs = float(lhs), float(rhs)
    gap = lhs - rhs
    return RelationReport(relation, lhs, rhs, gap, abs(gap) <= tol, tol)


def evaluate_robertson(
    state: QuantumState,
    a: np.ndarray,
    b: np.ndarray,
    saturation_tol: float = SATURATION_TOL,
) -> RelationReport:
    """Robertson bound Delta(A) Delta(B) >= |<[A,B]>| / 2 for explicit observables."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"observable shapes differ: {a.shape} vs {b.shape}")
    lhs = std_dev(state, a) * std_dev(state, b)
    comm = a @ b - b @ a
    # <[A,B]> is purely imaginary for Hermitian A, B
    val = np.einsum("ij,ji->", state.rho, comm)
    rhs = abs(val) / 2.0
    return _report(RelationId.R_ROBERTSON_GENERIC, lhs, rhs, saturation_tol)


def _product3(x):
    return x[0] * x[1] * x[2]


def _sum3(x):
    return x[0] + x[1] + x[2]


def _abs_sum3(x):
    return np.abs(x[0]) + np.abs(x[1]) + np.abs(x[2])


# (d, v, e, h, w, s) -> (lhs, rhs) per relation; see relation_sides.
_SIDES = {
    RelationId.R2_PAIR_PRODUCT_X: lambda d, v, e, h, w, s: (d[1] * d[2], np.abs(e[0]) / 2.0),
    RelationId.R2_PAIR_PRODUCT_Y: lambda d, v, e, h, w, s: (d[2] * d[0], np.abs(e[1]) / 2.0),
    RelationId.R2_PAIR_PRODUCT_Z: lambda d, v, e, h, w, s: (d[0] * d[1], np.abs(e[2]) / 2.0),
    RelationId.R3_TRIPLE_PRODUCT: lambda d, v, e, h, w, s: (
        _product3(d),
        np.sqrt(np.abs(TAU**3 / 8.0 * e[0] * e[1] * e[2])),
    ),
    RelationId.R4_PAIR_SUM_X: lambda d, v, e, h, w, s: (v[1] + v[2], np.abs(e[0])),
    RelationId.R4_PAIR_SUM_Y: lambda d, v, e, h, w, s: (v[2] + v[0], np.abs(e[1])),
    RelationId.R4_PAIR_SUM_Z: lambda d, v, e, h, w, s: (v[0] + v[1], np.abs(e[2])),
    RelationId.R5_TRIPLE_SUM: lambda d, v, e, h, w, s: (_sum3(v), TAU / 2.0 * _abs_sum3(e)),
    RelationId.R6_SUM_HALF: lambda d, v, e, h, w, s: (_sum3(v), 0.5),
    RelationId.R7_SUM_GENERAL_S: lambda d, v, e, h, w, s: (_sum3(v), s),
    RelationId.R8_VARIANCE_OF_SUMS: lambda d, v, e, h, w, s: (_sum3(v), 0.4 * _sum3(w)),
    RelationId.R9_ENTROPIC_PAIR_XY: lambda d, v, e, h, w, s: (h[0] + h[1], _LN2),
    RelationId.R9_ENTROPIC_PAIR_YZ: lambda d, v, e, h, w, s: (h[1] + h[2], _LN2),
    RelationId.R9_ENTROPIC_PAIR_ZX: lambda d, v, e, h, w, s: (h[2] + h[0], _LN2),
    RelationId.R10_ENTROPIC_TRIPLE: lambda d, v, e, h, w, s: (_sum3(h), 2.0 * _LN2),
    RelationId.NAIVE_PRO2: lambda d, v, e, h, w, s: (
        _product3(d),
        np.sqrt(np.abs(e[0] * e[1] * e[2] / 8.0)),
    ),
    RelationId.NAIVE_SUM2: lambda d, v, e, h, w, s: (_sum3(v), _abs_sum3(e) / 2.0),
}
_SIDES[RelationId.R11_CONJECTURE_TRIPLE_PRODUCT] = _SIDES[RelationId.R3_TRIPLE_PRODUCT]


def relation_sides(relation: RelationId, d, v, e, h=None, w=None, s=None):
    """(lhs, rhs) of a catalog relation from per-axis moments.

    d, v, e are the (x, y, z) standard deviations, variances and means; h the
    (x, y, z) Shannon entropies in nats, read only by the ENTROPIC relations;
    w the pair-sum variances Var(Sx+Sy), Var(Sy+Sz), Var(Sz+Sx), read only by
    R8; s the spin, read only by R7. Each entry may be a float or an array of
    a batch of states. The gap is lhs - rhs.
    """
    try:
        sides = _SIDES[relation]
    except KeyError:
        raise ValueError(f"no moment formula for relation {relation!r}") from None
    return sides(d, v, e, h, w, s)


def evaluate(
    relation: RelationId,
    state: QuantumState,
    spin: Spin | int,
    saturation_tol: float = SATURATION_TOL,
) -> RelationReport:
    """Evaluate one catalog relation on a state of the given spin.

    Takes the moments by the validated matrix/spectral route and applies
    relation_sides to them; the closed-form Bloch route lives in
    kernels.qubit_relation_gaps and is cross-checked in tests.
    """
    spin = spin if isinstance(spin, Spin) else Spin(spin)
    if relation is RelationId.R_ROBERTSON_GENERIC:
        raise ValueError(
            "R_ROBERTSON_GENERIC needs an explicit observable pair; call evaluate_robertson"
        )
    if state.dim != spin.dim:
        raise DimensionMismatchError(f"state dim {state.dim} does not match spin dim {spin.dim}")
    if relation in SPIN_HALF_ONLY and spin.twice_s != 1:
        raise SpinRestrictionError(
            f"{relation.value} is proved for spin-1/2 only; "
            f"got twice_s = {spin.twice_s}. The tightened constants do not carry over to s >= 1 "
            "(use R11_CONJECTURE_TRIPLE_PRODUCT to explore the product bound at higher spin)."
        )

    axes = _ops(spin.twice_s).as_tuple()
    e = [expectation(state, op) for op in axes]
    v = [variance(state, op) for op in axes]
    d = [math.sqrt(x) for x in v]
    h = w = None
    if relation in ENTROPIC:
        h = [shannon_entropy(state, op, EntropyBase.NATURAL) for op in axes]
    if relation is RelationId.R8_VARIANCE_OF_SUMS:
        w = [variance(state, axes[i] + axes[(i + 1) % 3]) for i in range(3)]
    lhs, rhs = relation_sides(relation, d, v, e, h, w, spin.s)
    return _report(relation, lhs, rhs, saturation_tol)


def equality_condition(relation: RelationId, bloch, tol: float = 1e-9) -> bool:
    """Analytic spin-1/2 saturation condition on the Bloch vector.

    Supported: R3 (all |r_i| = 1/sqrt 3, or some |r_i| = 1), R5 (all
    |r_i| = 1/sqrt 3), R6 (|r| = 1), R8 (|r| = 1 and r_x + r_y + r_z = 0).
    """
    r = np.asarray(bloch, dtype=float).ravel()
    if r.shape != (3,):
        raise ValueError(f"Bloch vector needs 3 components, got {r.shape}")
    a = np.abs(r)
    if relation is RelationId.R3_TRIPLE_PRODUCT:
        balanced = bool(np.all(np.abs(a - _INV_SQRT3) <= tol))
        on_axis = bool(np.any(np.abs(a - 1.0) <= tol))
        return balanced or on_axis
    if relation is RelationId.R5_TRIPLE_SUM:
        return bool(np.all(np.abs(a - _INV_SQRT3) <= tol))
    if relation is RelationId.R6_SUM_HALF:
        return bool(abs(np.linalg.norm(r) - 1.0) <= tol)
    if relation is RelationId.R8_VARIANCE_OF_SUMS:
        return bool(abs(np.linalg.norm(r) - 1.0) <= tol and abs(float(np.sum(r))) <= tol)
    raise ValueError(f"no analytic equality condition implemented for {relation.value}")


def catalog() -> tuple[CatalogEntry, ...]:
    """Stable enumeration of every relation with its spin applicability."""
    entries = [
        CatalogEntry(
            RelationId.R_ROBERTSON_GENERIC,
            "Delta(A) Delta(B) >= |<[A,B]>|/2 for an explicit observable pair",
            "any dimension (explicit observables)",
        ),
        CatalogEntry(
            RelationId.R2_PAIR_PRODUCT_X,
            "Delta(Sy) Delta(Sz) >= |<Sx>|/2",
            "all s",
        ),
        CatalogEntry(
            RelationId.R2_PAIR_PRODUCT_Y,
            "Delta(Sz) Delta(Sx) >= |<Sy>|/2",
            "all s",
        ),
        CatalogEntry(
            RelationId.R2_PAIR_PRODUCT_Z,
            "Delta(Sx) Delta(Sy) >= |<Sz>|/2",
            "all s",
        ),
        CatalogEntry(
            RelationId.R3_TRIPLE_PRODUCT,
            "Delta(Sx) Delta(Sy) Delta(Sz) >= |tau^3 <Sx><Sy><Sz> / 8|^(1/2)",
            "s = 1/2 (conjectured all s via R11)",
        ),
        CatalogEntry(
            RelationId.R4_PAIR_SUM_X,
            "Var(Sy) + Var(Sz) >= |<Sx>|",
            "all s",
        ),
        CatalogEntry(
            RelationId.R4_PAIR_SUM_Y,
            "Var(Sz) + Var(Sx) >= |<Sy>|",
            "all s",
        ),
        CatalogEntry(
            RelationId.R4_PAIR_SUM_Z,
            "Var(Sx) + Var(Sy) >= |<Sz>|",
            "all s",
        ),
        CatalogEntry(
            RelationId.R5_TRIPLE_SUM,
            "Var(Sx) + Var(Sy) + Var(Sz) >= tau (|<Sx>| + |<Sy>| + |<Sz>|) / 2",
            "s = 1/2",
        ),
        CatalogEntry(
            RelationId.R6_SUM_HALF,
            "Var(Sx) + Var(Sy) + Var(Sz) >= 1/2 = 3 tau^2 / 8",
            "s = 1/2",
        ),
        CatalogEntry(
            RelationId.R7_SUM_GENERAL_S,
            "Var(Sx) + Var(Sy) + Var(Sz) >= s",
            "all s",
        ),
        CatalogEntry(
            RelationId.R8_VARIANCE_OF_SUMS,
            "Var(Sx) + Var(Sy) + Var(Sz) >= (2/5) [Var(Sx+Sy) + Var(Sy+Sz) + Var(Sz+Sx)]",
            "s = 1/2",
        ),
        CatalogEntry(
            RelationId.R9_ENTROPIC_PAIR_XY,
            "H(Sx) + H(Sy) >= log 2",
            "s = 1/2",
        ),
        CatalogEntry(
            RelationId.R9_ENTROPIC_PAIR_YZ,
            "H(Sy) + H(Sz) >= log 2",
            "s = 1/2",
        ),
        CatalogEntry(
            RelationId.R9_ENTROPIC_PAIR_ZX,
            "H(Sz) + H(Sx) >= log 2",
            "s = 1/2",
        ),
        CatalogEntry(
            RelationId.R10_ENTROPIC_TRIPLE,
            "H(Sx) + H(Sy) + H(Sz) >= log 4 = (3 tau^2 / 2) log 2",
            "s = 1/2",
        ),
        CatalogEntry(
            RelationId.R11_CONJECTURE_TRIPLE_PRODUCT,
            "conjectured all-spin version of the tightened triple product bound",
            "all s (conjecture)",
        ),
        CatalogEntry(
            RelationId.NAIVE_PRO2,
            "Delta(Sx) Delta(Sy) Delta(Sz) >= |<Sx><Sy><Sz> / 8|^(1/2), no tau tightening",
            "all s",
        ),
        CatalogEntry(
            RelationId.NAIVE_SUM2,
            "Var(Sx) + Var(Sy) + Var(Sz) >= (|<Sx>| + |<Sy>| + |<Sz>|) / 2, no tau tightening",
            "all s",
        ),
    ]
    return tuple(entries)


def applicable_to(relation: RelationId, spin: Spin | int) -> bool:
    """Whether evaluate() accepts this relation at the given spin."""
    spin = spin if isinstance(spin, Spin) else Spin(spin)
    if relation is RelationId.R_ROBERTSON_GENERIC:
        return False
    if relation in SPIN_HALF_ONLY:
        return spin.twice_s == 1
    return True


@dataclass(frozen=True)
class SoakSummary:
    """Per-relation extrema over a random-state soak."""

    n_pure: int
    n_mixed: int
    seed: int
    min_gap: dict[RelationId, float]
    violations: dict[RelationId, int]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.violations.values())


def soak_qubit(
    n_pure: int,
    n_mixed: int,
    seed: int,
    tolerance: float = 1e-10,
    threads: int = 1,
) -> SoakSummary:
    """Evaluate every qubit relation on random pure and mixed state batches.

    Pure states are Haar-distributed, mixed ones Hilbert-Schmidt. Returns the
    minimum gap and the count of gaps below -tolerance per relation.
    """
    blochs = []
    if n_pure > 0:
        blochs.append(random_pure_bloch(n_pure, seed))
    if n_mixed > 0:
        blochs.append(random_mixed_bloch(n_mixed, seed))
    if not blochs:
        raise ValueError("need at least one sample")
    bloch = np.vstack(blochs)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        chunks = np.array_split(bloch, threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            gaps = np.vstack(list(pool.map(kernels.qubit_relation_gaps, chunks)))
    else:
        gaps = kernels.qubit_relation_gaps(bloch)

    mins = gaps.min(axis=0)
    viol = (gaps < -tolerance).sum(axis=0)
    return SoakSummary(
        n_pure=n_pure,
        n_mixed=n_mixed,
        seed=seed,
        min_gap={rel: float(mins[i]) for i, rel in enumerate(QUBIT_SOAK_RELATIONS)},
        violations={rel: int(viol[i]) for i, rel in enumerate(QUBIT_SOAK_RELATIONS)},
        tolerance=tolerance,
    )
