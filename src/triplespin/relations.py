"""The uncertainty-relation catalog: evaluate LHS, RHS, gap, and saturation.

Identifiers are stable and serialized by name. The pairwise relations are
instances of the Robertson bound; the triple product and triple sum bounds
carry the tightening constant tau = 2/sqrt(3). Naming convention for the
pairwise ids: the suffix is the axis whose expectation forms the bound, e.g.
R2_PAIR_PRODUCT_Z is Delta(Sx) Delta(Sy) >= |<Sz>| / 2.

Relations proved only for spin-1/2 raise SpinRestrictionError for s >= 1;
the conjectured all-spin version of the triple product bound is available
separately as R11_CONJECTURE_TRIPLE_PRODUCT.

RELATIONS is the one table of relations: alias, axis group, description, spin
rule and moments-to-sides formula per id. The spin rules, the CLI spellings
and the kernel column orders are derived from it, and every gap in
the package (evaluate_all and its one-relation form evaluate, evaluate_robertson,
the kernels' scorers, the triangle check and the sweep) comes from its formulas
through relation_sides; the evaluators take their moments from
kernels.stack_moments, as the scorers do, one pass for a whole relation set.
"""

from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, SpinRestrictionError
from .moments import _check_pair
from .spin_ops import Spin, _as_spin, commutator
from .states import QuantumState, density_from_bloch, random_mixed_bloch, random_pure_bloch

#: The triple constant tightening the naive three-component bounds.
TAU = 2.0 / math.sqrt(3.0)

#: Default |gap| threshold below which a relation counts as saturated.
SATURATION_TOL = 1e-9
#: Default violation tolerance of soak_qubit: a gap below -this is a violation.
SOAK_TOL = 1e-10

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
class RelationSpec:
    """One catalog relation: its CLI spelling, spin rule and moment formula.

    `sides` maps per-axis moments to (lhs, rhs). Its parameter names, a subset
    of relation_sides' (d, v, e, h, w, s), are the moments it reads, listed in
    `reads`; callers compute only those. R_ROBERTSON_GENERIC's formula reads
    the moments of the stack (A, B, -i[A, B]) of its observable pair.
    """

    relation: RelationId
    alias: str | None
    group: str | None
    description: str
    spin_half_only: bool
    sides: Callable
    reads: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "reads", tuple(inspect.signature(self.sides).parameters))


def _report(relation, lhs, rhs, tol) -> RelationReport:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"saturation tolerance must be finite and nonnegative, got {tol}")
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
    from . import kernels  # kernels reads this module's table at import

    a, b = _check_pair(state, a), _check_pair(state, b)
    relation = RelationId.R_ROBERTSON_GENERIC
    moments = kernels.stack_moments(np.array([a, b, -1j * commutator(a, b)]), reads_of((relation,)))
    return _evaluate_with((relation,), state, moments, None, saturation_tol)[0]


def _sum3(x):
    return x[0] + x[1] + x[2]


def _cyclic(ids, group, suffix, description, spin_half_only, sides):
    """The three axis instances of a pairwise formula, one per cyclic (i, j, k).

    Instance n takes (i, j, k) = (n, n+1, n+2) mod 3. The alias is the group
    plus suffix, and suffix and description are format strings over the axis
    letters of i, j, k; sides(i, j, k) is the formula.
    """
    specs = []
    for n, relation in enumerate(ids):
        axes = (n, (n + 1) % 3, (n + 2) % 3)
        letters = ["xyz"[a] for a in axes]
        alias = group + suffix.format(*letters).upper()
        specs.append(RelationSpec(
            relation, alias, group, description.format(*letters), spin_half_only, sides(*axes)
        ))
    return tuple(specs)


def _pair_product(i, j, k):
    return lambda d, e: (d[j] * d[k], np.abs(e[i]) / 2.0)


def _pair_sum(i, j, k):
    return lambda v, e: (v[j] + v[k], np.abs(e[i]))


def _entropic_pair(i, j, k):
    return lambda h: (h[i] + h[j], _LN2)


def _triple_product(c):
    """Delta(Sx) Delta(Sy) Delta(Sz) >= |c^3 <Sx><Sy><Sz> / 8|^(1/2)."""
    scale = c**3 / 8.0
    return lambda d, e: (d[0] * d[1] * d[2], np.sqrt(np.abs(scale * e[0] * e[1] * e[2])))


def _triple_sum(c):
    """Var(Sx) + Var(Sy) + Var(Sz) >= c (|<Sx>| + |<Sy>| + |<Sz>|) / 2."""
    half = c / 2.0
    return lambda v, e: (_sum3(v), half * (np.abs(e[0]) + np.abs(e[1]) + np.abs(e[2])))


#: The catalog, one entry per RelationId in declaration order. Fields: id,
#: CLI alias, axis group, description, spin-1/2-only rule and the (lhs, rhs)
#: formula over the moments its parameters name. The pairwise groups are one
#: formula each over the cyclic axes; the naive triple bounds are the tightened
#: ones at constant 1 in place of tau.
RELATIONS = (
    RelationSpec(
        RelationId.R_ROBERTSON_GENERIC, None, None,
        "Delta(A) Delta(B) >= |<[A,B]>|/2 for an explicit observable pair", False,
        _pair_product(2, 0, 1),  # on the stack (A, B, C = -i[A, B]), as <[A, B]> = i<C>
    ),
    *_cyclic(
        (RelationId.R2_PAIR_PRODUCT_X, RelationId.R2_PAIR_PRODUCT_Y, RelationId.R2_PAIR_PRODUCT_Z),
        "R2", "{0}", "Delta(S{1}) Delta(S{2}) >= |<S{0}>|/2", False,
        _pair_product,
    ),
    RelationSpec(
        RelationId.R3_TRIPLE_PRODUCT, "R3", None,
        "Delta(Sx) Delta(Sy) Delta(Sz) >= |tau^3 <Sx><Sy><Sz> / 8|^(1/2); conjectured for all s as R11", True,
        _triple_product(TAU),
    ),
    *_cyclic(
        (RelationId.R4_PAIR_SUM_X, RelationId.R4_PAIR_SUM_Y, RelationId.R4_PAIR_SUM_Z),
        "R4", "{0}", "Var(S{1}) + Var(S{2}) >= |<S{0}>|", False,
        _pair_sum,
    ),
    RelationSpec(
        RelationId.R5_TRIPLE_SUM, "R5", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= tau (|<Sx>| + |<Sy>| + |<Sz>|) / 2", False,
        _triple_sum(TAU),
    ),
    RelationSpec(
        RelationId.R6_SUM_HALF, "R6", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= 1/2 = 3 tau^2 / 8", False,
        lambda v: (_sum3(v), 0.5),
    ),
    RelationSpec(
        RelationId.R7_SUM_GENERAL_S, "R7", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= s", False,
        lambda v, s: (_sum3(v), s),
    ),
    RelationSpec(
        RelationId.R8_VARIANCE_OF_SUMS, "R8", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= (2/5) [Var(Sx+Sy) + Var(Sy+Sz) + Var(Sz+Sx)]", True,
        lambda v, w: (_sum3(v), 0.4 * _sum3(w)),
    ),
    *_cyclic(
        (RelationId.R9_ENTROPIC_PAIR_XY, RelationId.R9_ENTROPIC_PAIR_YZ, RelationId.R9_ENTROPIC_PAIR_ZX),
        "R9", "{0}{1}", "H(S{0}) + H(S{1}) >= log 2", True,
        _entropic_pair,
    ),
    RelationSpec(
        RelationId.R10_ENTROPIC_TRIPLE, "R10", None,
        "H(Sx) + H(Sy) + H(Sz) >= log 4 = (3 tau^2 / 2) log 2", True,
        lambda h: (_sum3(h), 2.0 * _LN2),
    ),
    RelationSpec(
        RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, "R11", None,
        "conjectured all-spin version of the tightened triple product bound", False,
        _triple_product(TAU),
    ),
    RelationSpec(
        RelationId.NAIVE_PRO2, "PRO2", None,
        "Delta(Sx) Delta(Sy) Delta(Sz) >= |<Sx><Sy><Sz> / 8|^(1/2), no tau tightening", False,
        _triple_product(1.0),
    ),
    RelationSpec(
        RelationId.NAIVE_SUM2, "SUM2", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= (|<Sx>| + |<Sy>| + |<Sz>|) / 2, no tau tightening", False,
        _triple_sum(1.0),
    ),
)

_SPECS = {spec.relation: spec for spec in RELATIONS}

#: CLI spellings: alias -> relation, and axis group -> its three instances.
ALIASES = {spec.alias: spec.relation for spec in RELATIONS if spec.alias}
GROUPS = {
    group: tuple(spec.relation for spec in RELATIONS if spec.group == group)
    for group in dict.fromkeys(spec.group for spec in RELATIONS if spec.group)
}

#: Relations the qubit soak evaluates, in kernel column order: all but R_ROBERTSON_GENERIC,
#: R7 and R11, which on the spin-1/2 stack coincide with R2_PAIR_PRODUCT_Z, R6 and R3.
QUBIT_SOAK_RELATIONS = tuple(
    spec.relation
    for spec in RELATIONS
    if spec.relation
    not in (RelationId.R_ROBERTSON_GENERIC, RelationId.R7_SUM_GENERAL_S, RelationId.R11_CONJECTURE_TRIPLE_PRODUCT)
)

#: Relations with an equilateral-triangle analog, in kernel column order.
TRIANGLE_ANALOG_RELATIONS = (
    *GROUPS["R2"],
    RelationId.R3_TRIPLE_PRODUCT,
    *GROUPS["R4"],
    RelationId.R5_TRIPLE_SUM,
)


def reads_of(relations) -> frozenset:
    """The moments (names among d, v, e, h, w, s) that any of the relations reads."""
    return frozenset(name for relation in relations for name in _SPECS[relation].reads)


def relation_sides(relation: RelationId, d, v, e, h=None, w=None, s=None):
    """(lhs, rhs) of a catalog relation from per-axis moments.

    d, v, e are the (x, y, z) standard deviations, variances and means; h the
    (x, y, z) Shannon entropies in nats, read only by the entropic relations;
    w the pair-sum variances Var(Sx+Sy), Var(Sy+Sz), Var(Sz+Sx), read only by
    R8; s the spin, read only by R7; R_ROBERTSON_GENERIC's axes are (A, B, -i[A, B]).
    Each entry may be a float or an array of a batch of states. The gap is lhs - rhs.
    """
    spec = _SPECS[relation]
    moments = {"d": d, "v": v, "e": e, "h": h, "w": w, "s": s}
    return spec.sides(*[moments[name] for name in spec.reads])


def evaluate(
    relation: RelationId,
    state: QuantumState,
    spin: Spin | int,
    saturation_tol: float = SATURATION_TOL,
) -> RelationReport:
    """Evaluate one catalog relation on a state of the given spin: evaluate_all((relation,), ...)[0]."""
    return evaluate_all((relation,), state, spin, saturation_tol)[0]


def evaluate_all(
    relations,
    state: QuantumState,
    spin: Spin | int,
    saturation_tol: float = SATURATION_TOL,
) -> list[RelationReport]:
    """Reports of catalog relations on one state of the given spin, in the order given.

    Every relation is checked (check_applicable) before any is evaluated. One
    kernels.column_moments builder over the union of the relations' reads and
    one eigh of rho give every formula its moments (see _evaluate_with); the
    builder's moments do not depend on the reads it was built for, so each
    report equals the one a set of that relation alone gives.
    """
    from . import kernels  # kernels reads this module's table at import

    spin = _as_spin(spin)
    for relation in relations:
        check_applicable(relation, spin)
    if state.dim != spin.dim:
        raise DimensionMismatchError(f"state dim {state.dim} does not match spin dim {spin.dim}")
    moments = kernels.column_moments(spin.twice_s, reads_of(relations))
    return _evaluate_with(relations, state, moments, spin.s, saturation_tol)


def _evaluate_with(relations, state, moments, s, saturation_tol) -> list[RelationReport]:
    """The relations' reports on state from moments(cols), cols its columns sqrt(max(lam_c, 0)) v_c from one eigh."""
    lam, vecs = np.linalg.eigh(state.rho)
    cols = (vecs * np.sqrt(np.maximum(lam, 0.0))).T[None]
    taken = [m if m is None else m[:, 0] for m in moments(cols)]
    return [_report(relation, *relation_sides(relation, *taken, s), saturation_tol) for relation in relations]


def equality_condition(relation: RelationId, bloch, tol: float = 1e-9) -> bool:
    """Analytic spin-1/2 saturation condition on the Bloch vector.

    Supported: R3 (all |r_i| = 1/sqrt 3, or some |r_i| = 1), R5 (all
    |r_i| = 1/sqrt 3), R6 (|r| = 1), R8 (|r| = 1 and r_x + r_y + r_z = 0).
    A vector that is no state (not 3 finite components in the ball) raises
    InvalidStateError, as in states.density_from_bloch.
    """
    density_from_bloch(bloch)
    r = np.asarray(bloch, dtype=float).ravel()
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


def check_applicable(relation: RelationId, spin: Spin | int) -> None:
    """Raise the reason evaluate() refuses this relation at the given spin, if it does."""
    if relation is RelationId.R_ROBERTSON_GENERIC:
        raise ValueError("R_ROBERTSON_GENERIC needs an explicit observable pair; call evaluate_robertson")
    twice_s = _as_spin(spin).twice_s
    if _SPECS[relation].spin_half_only and twice_s != 1:
        raise SpinRestrictionError(
            f"{relation.value} ({_SPECS[relation].description}) is proved for spin-1/2 only; "
            f"got twice_s = {twice_s}"
        )


def applicable_to(relation: RelationId, spin: Spin | int) -> bool:
    """Whether evaluate() accepts this relation at the given spin."""
    try:
        check_applicable(relation, spin)
    except ValueError:
        return False
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
    #: Bloch vector of the first state that attained min_gap, per relation.
    argmin_bloch: dict[RelationId, tuple[float, float, float]]

    @property
    def ok(self) -> bool:
        """No gap below -tolerance and every minimum finite: a NaN gap fails."""
        return all(v == 0 for v in self.violations.values()) and all(
            math.isfinite(g) for g in self.min_gap.values()
        )


def soak_qubit(
    n_pure: int,
    n_mixed: int,
    seed: int,
    tolerance: float = SOAK_TOL,
) -> SoakSummary:
    """Evaluate every qubit relation on random pure and mixed state batches.

    Pure states are Haar-distributed, mixed ones Hilbert-Schmidt. Chunk k
    stacks up to kernels.CHUNK_ROWS states of each kind, drawn from the
    independent streams (seed, 0, k) and (seed, 1, k), and its gaps are folded
    into the result (kernels.fold_chunks), so memory stays constant in the
    counts. Returns per relation the minimum gap (NaN if any gap is NaN), the
    state that attained it and the count of gaps not at or above -tolerance
    (NaN counts).
    """
    from . import kernels  # kernels reads this module's table at import

    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if n_pure < 0 or n_mixed < 0:
        raise ValueError(f"state counts must be nonnegative, got {n_pure} pure and {n_mixed} mixed")
    if n_pure + n_mixed == 0:
        raise ValueError("need at least one sample")
    chunk = kernels.CHUNK_ROWS
    kinds = ((n_pure, random_pure_bloch), (n_mixed, random_mixed_bloch))

    def stack(k: int) -> np.ndarray:
        return np.vstack([
            draw(min(chunk, n - k * chunk), seed, kind, k)
            for kind, (n, draw) in enumerate(kinds)
            if n > k * chunk
        ])

    mins, rows, viol = kernels.fold_chunks(
        -(-max(n_pure, n_mixed) // chunk), stack, kernels.qubit_relation_gaps, tolerance
    )
    return SoakSummary(
        n_pure=n_pure,
        n_mixed=n_mixed,
        seed=seed,
        min_gap={rel: float(m) for rel, m in zip(QUBIT_SOAK_RELATIONS, mins)},
        violations={rel: int(c) for rel, c in zip(QUBIT_SOAK_RELATIONS, viol)},
        tolerance=tolerance,
        argmin_bloch={rel: tuple(map(float, r)) for rel, r in zip(QUBIT_SOAK_RELATIONS, rows)},
    )
