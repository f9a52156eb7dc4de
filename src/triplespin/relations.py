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
rule and moments-to-sides formula per id, with TERMS, the subexpressions
several formulas share. The spin rules, the CLI spellings and the kernel
column orders are derived from it, and every side and gap in the package
comes from its formulas through one loop, walk, over the table pass that
table_plan builds for a relation set: the kernels' scorers subtract the sides
into their gaps arrays, evaluate_all (and evaluate and evaluate_robertson) and
the triangle check write them for one point, the sweep for its tangents, and
relation_sides is the walk of one relation. The evaluators take their moments
from kernels.stack_moments, as the scorers do, one pass for a whole relation set.
"""

from __future__ import annotations

import collections
import enum
import inspect
import math
from dataclasses import dataclass, field
from functools import lru_cache
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


def _params(formula: Callable) -> tuple[str, ...]:
    return tuple(inspect.signature(formula).parameters)


def _sum3(x):
    return x[0] + x[1] + x[2]


#: Terms several formulas share, in dependency order: name -> formula over the
#: moments, or the terms above it, that its parameters name. A table pass
#: (table_plan) computes each term its formulas read once.
TERMS = {
    "abs_e": lambda e: np.abs(e),  # |<S_i>|, a row per axis
    "var_sum": lambda v: _sum3(v),  # Var(Sx) + Var(Sy) + Var(Sz)
    "sd_prod": lambda d: d[0] * d[1] * d[2],  # Delta(Sx) Delta(Sy) Delta(Sz)
    "abs_sum": lambda abs_e: _sum3(abs_e),  # |<Sx>| + |<Sy>| + |<Sz>|
}
_TERM_PARAMS = {name: _params(formula) for name, formula in TERMS.items()}


def _resolve(names) -> tuple[tuple[str, ...], frozenset]:
    """The TERMS that `names` need, in TERMS order, and the moments that the names and those terms read."""
    terms, reads, todo = set(), set(), list(names)
    while todo:
        name = todo.pop()
        if name not in TERMS:
            reads.add(name)
        elif name not in terms:
            terms.add(name)
            todo += _TERM_PARAMS[name]
    return tuple(name for name in TERMS if name in terms), frozenset(reads)


@dataclass(frozen=True)
class RelationSpec:
    """One catalog relation: its CLI spelling, spin rule and formula.

    `sides` maps per-axis moments and TERMS to (lhs, rhs). Its parameter
    names (`params`) are among relation_sides' (d, v, e, h, w, s) and the
    TERMS; a table pass (table_plan) resolves the terms they need and the
    moments those read, which callers compute alone. An instance of a
    formula family keeps the family's factory and its arguments, sides =
    family(*args): the axes (i, j, k) of a cyclic group or the constant c of a
    triple bound, so a table pass can evaluate several instances in one call.
    R_ROBERTSON_GENERIC's formula reads the moments of the stack (A, B, -i[A, B])
    of its observable pair.
    """

    relation: RelationId
    alias: str | None
    group: str | None
    description: str
    spin_half_only: bool
    sides: Callable
    family: Callable | None = None
    args: tuple = ()
    params: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "params", _params(self.sides))


def _check_tol(tol: float, what: str = "tolerance") -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{what} must be finite and nonnegative, got {tol}")


def evaluate_robertson(
    state: QuantumState,
    a: np.ndarray,
    b: np.ndarray,
    saturation_tol: float = SATURATION_TOL,
) -> RelationReport:
    """Robertson bound Delta(A) Delta(B) >= |<[A,B]>| / 2 for explicit observables."""
    from . import kernels  # kernels reads this module's table at import

    a, b = _check_pair(state, a), _check_pair(state, b)
    plan = table_plan((RelationId.R_ROBERTSON_GENERIC,))
    moments = kernels.stack_moments(np.array([a, b, -1j * commutator(a, b)]), plan.reads)
    return _evaluate_with(plan, state, moments, None, saturation_tol)[0]


def _member(family, *args):
    """The formula family(*args), family and args, as a RelationSpec takes them."""
    return family(*args), family, args


def _cyclic(ids, group, suffix, description, spin_half_only, sides):
    """The three axis instances of a pairwise formula, one per cyclic (i, j, k).

    Instance n takes (i, j, k) = (n, n+1, n+2) mod 3. The alias is the group
    plus suffix, and suffix and description are format strings over the axis
    letters of i, j, k; sides(i, j, k) is the formula, and i, j, k may
    as well be index arrays over the axes (see table_plan).
    """
    specs = []
    for n, relation in enumerate(ids):
        axes = (n, (n + 1) % 3, (n + 2) % 3)
        letters = ["xyz"[a] for a in axes]
        alias = group + suffix.format(*letters).upper()
        specs.append(RelationSpec(
            relation, alias, group, description.format(*letters), spin_half_only, *_member(sides, *axes)
        ))
    return tuple(specs)


def _pair_product(i, j, k):
    return lambda d, abs_e: (d[j] * d[k], abs_e[i] / 2.0)


def _pair_sum(i, j, k):
    return lambda v, abs_e: (v[j] + v[k], abs_e[i])


def _entropic_pair(i, j, k):
    return lambda h: (h[i] + h[j], _LN2)


def _triple_product(c):
    """Delta(Sx) Delta(Sy) Delta(Sz) >= |c^3 <Sx><Sy><Sz> / 8|^(1/2); c may be a column of constants."""
    scale = c * c * c / 8.0  # the bits of c**3 / 8 at tau and 1, and exact elementwise on a column
    return lambda sd_prod, e: (sd_prod, np.sqrt(np.abs(scale * e[0] * e[1] * e[2])))


def _triple_sum(c):
    """Var(Sx) + Var(Sy) + Var(Sz) >= c (|<Sx>| + |<Sy>| + |<Sz>|) / 2; c may be a column of constants."""
    half = c / 2.0
    return lambda var_sum, abs_sum: (var_sum, half * abs_sum)


#: The catalog, one entry per RelationId in declaration order. Fields: id,
#: CLI alias, axis group, description, spin-1/2-only rule and the (lhs, rhs)
#: formula over the moments and TERMS its parameters name. The pairwise groups are one
#: formula each over the cyclic axes; the naive triple bounds are the tightened
#: ones at constant 1 in place of tau. Both kinds are families (see RelationSpec).
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
        *_member(_triple_product, TAU),
    ),
    *_cyclic(
        (RelationId.R4_PAIR_SUM_X, RelationId.R4_PAIR_SUM_Y, RelationId.R4_PAIR_SUM_Z),
        "R4", "{0}", "Var(S{1}) + Var(S{2}) >= |<S{0}>|", False,
        _pair_sum,
    ),
    RelationSpec(
        RelationId.R5_TRIPLE_SUM, "R5", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= tau (|<Sx>| + |<Sy>| + |<Sz>|) / 2", False,
        *_member(_triple_sum, TAU),
    ),
    RelationSpec(
        RelationId.R6_SUM_HALF, "R6", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= 1/2 = 3 tau^2 / 8", False,
        lambda var_sum: (var_sum, 0.5),
    ),
    RelationSpec(
        RelationId.R7_SUM_GENERAL_S, "R7", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= s", False,
        lambda var_sum, s: (var_sum, s),
    ),
    RelationSpec(
        RelationId.R8_VARIANCE_OF_SUMS, "R8", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= (2/5) [Var(Sx+Sy) + Var(Sy+Sz) + Var(Sz+Sx)]", True,
        lambda var_sum, w: (var_sum, 0.4 * _sum3(w)),
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
        *_member(_triple_product, TAU),
    ),
    RelationSpec(
        RelationId.NAIVE_PRO2, "PRO2", None,
        "Delta(Sx) Delta(Sy) Delta(Sz) >= |<Sx><Sy><Sz> / 8|^(1/2), no tau tightening", False,
        *_member(_triple_product, 1.0),
    ),
    RelationSpec(
        RelationId.NAIVE_SUM2, "SUM2", None,
        "Var(Sx) + Var(Sy) + Var(Sz) >= (|<Sx>| + |<Sy>| + |<Sz>|) / 2, no tau tightening", False,
        *_member(_triple_sum, 1.0),
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


@dataclass(frozen=True)
class TablePlan:
    """One pass of the table over a relation set, built by table_plan.

    `reads` are the moments it reads, and `steps` its (target, formula,
    params, dead) in order, which walk runs: each calls formula on the values
    of params, and a term step (target a TERMS name) keeps the result as that
    value, while a gap step's (lhs, rhs) are the sides of the rows `target`
    (one row, or a slice of a family's rows) of the plan's k relations. The
    values named in dead are read by no later step.
    """

    relations: tuple[RelationId, ...]
    reads: frozenset
    steps: tuple


def _stacked(args: tuple):
    """One argument of a family over several instances: axes as an index, a slice
    (a view) when consecutive and ascending, else an index array; constants as
    an (m, 1) column, which broadcasts against rows of points."""
    if not all(isinstance(arg, int) for arg in args):
        return np.array(args)[:, None]
    if all(b == a + 1 for a, b in zip(args, args[1:])):
        return slice(args[0], args[-1] + 1)
    return np.array(args, dtype=np.intp)


def table_plan(relations) -> TablePlan:
    """The table pass over relations, the k rows of its output in their order; see TablePlan.

    The instances of a formula family (RelationSpec) that sit at evenly
    spaced rows, each once, are one step: the family's factory called with
    their stacked arguments (_stacked), which writes their rows at once.
    Every other relation is a step of its own formula. Each row applies the
    same operations to the same operands as the relation scored alone, so it
    keeps that relation's bits. Each term is computed once, just before the
    first step that reads it, and the steps are ordered to keep few values
    alive at a time. Built once per relation tuple.
    """
    return _table_plan(tuple(relations))


@lru_cache(maxsize=256)
def _table_plan(relations: tuple) -> TablePlan:
    rows_of: dict = {}  # family, or relation outside any, -> its rows
    for row, relation in enumerate(relations):
        rows_of.setdefault(_SPECS[relation].family or relation, []).append(row)
    gaps = []  # (rows, target, sides, params)
    for rows in rows_of.values():
        specs = [_SPECS[relations[row]] for row in rows]
        if 1 < len(rows) == len({spec.relation for spec in specs}) and len(set(np.diff(rows))) == 1:
            sides = specs[0].family(*map(_stacked, zip(*(spec.args for spec in specs))))
            gaps.append((rows, slice(rows[0], rows[-1] + 1, rows[1] - rows[0]), sides, specs[0].params))
        else:
            gaps += [([row], row, spec.sides, spec.params) for row, spec in zip(rows, specs)]
    # a moment few steps read is retired first, and of steps alike the one with fewer rows,
    # so that the temporaries of a family's rows meet as few live values as possible
    reads = [_resolve(params)[1] for *_, params in gaps]
    readers = collections.Counter(name for names in reads for name in names)
    steps, terms = [], set()
    for k in sorted(range(len(gaps)), key=lambda k: (sorted(readers[name] for name in reads[k]), len(gaps[k][0]), k)):
        _, target, sides, params = gaps[k]
        for name in _resolve(params)[0]:
            if name not in terms:
                steps.append((name, TERMS[name], _TERM_PARAMS[name]))
                terms.add(name)
        steps.append((target, sides, params))
    planned, later = [], set()
    for target, formula, params in reversed(steps):
        planned.append((target, formula, params, tuple(name for name in params if name not in later)))
        later.update(params)
    return TablePlan(relations, frozenset(later - terms), tuple(reversed(planned)))


def walk(plan: TablePlan, values: dict, emit) -> None:
    """Run the plan's steps on values, calling emit(target, lhs, rhs) at each gap step.

    values maps each moment the plan reads (and s, the spin) to an array, a
    float or a duck array such as a tangent; the walk adds each term to it and
    deletes each value after its last reader, so a pass whose values hold the
    only references keeps few arrays alive. emit is called, not yielded to, so
    that a step's sides are dropped before the next step computes.
    """
    for target, formula, params, dead in plan.steps:
        if isinstance(target, str):
            values[target] = formula(*[values[name] for name in params])
        else:
            emit(target, *formula(*[values[name] for name in params]))
        for name in dead:
            del values[name]


def relation_sides(relation: RelationId, d, v, e, h=None, w=None, s=None):
    """(lhs, rhs) of a catalog relation from per-axis moments: the walk of its one-relation plan.

    d, v, e are the (x, y, z) standard deviations, variances and means; h the
    (x, y, z) Shannon entropies in nats, read only by the entropic relations;
    w the pair-sum variances Var(Sx+Sy), Var(Sy+Sz), Var(Sz+Sx), read only by
    R8; s the spin, read only by R7; R_ROBERTSON_GENERIC's axes are (A, B, -i[A, B]).
    Each entry may be a float or an array of a batch of states. The gap is lhs - rhs.
    """
    sides = []
    walk(table_plan((relation,)), dict(d=d, v=v, e=e, h=h, w=w, s=s), lambda target, *pair: sides.append(pair))
    return sides[0]


def _reports(plan: TablePlan, values: dict, tol: float) -> list[RelationReport]:
    """Reports of the plan's relations on values, one point's moments as (3, 1) columns: one walk
    writes every side into (2, k, 1) buffers, so each term the relations share is computed once."""
    _check_tol(tol, "saturation tolerance")
    sides = np.empty((2, len(plan.relations), 1))
    lhs, rhs = sides

    def emit(target, left, right):
        lhs[target], rhs[target] = left, right

    walk(plan, values, emit)
    return [
        RelationReport(relation, left, right, left - right, abs(left - right) <= tol, tol)
        for relation, left, right in zip(plan.relations, *sides[:, :, 0].tolist())
    ]


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
    plan = table_plan(relations)
    moments = kernels.column_moments(spin.twice_s, plan.reads)
    return _evaluate_with(plan, state, moments, spin.s, saturation_tol)


def _evaluate_with(plan, state, moments, s, saturation_tol) -> list[RelationReport]:
    """The plan's reports on state from moments(cols), cols its columns sqrt(max(lam_c, 0)) v_c
    from the state's one eigh (QuantumState.spectrum)."""
    lam, vecs = state.spectrum
    values = dict(zip("dvehw", moments((vecs * np.sqrt(np.maximum(lam, 0.0))).T[None])))
    values["s"] = s
    return _reports(plan, values, saturation_tol)


def equality_condition(relation: RelationId, bloch, tol: float = 1e-9) -> bool:
    """Analytic spin-1/2 saturation condition on the Bloch vector.

    Supported: R3 (all |r_i| = 1/sqrt 3, or some |r_i| = 1), R5 (all
    |r_i| = 1/sqrt 3), R6 (|r| = 1), R8 (|r| = 1 and r_x + r_y + r_z = 0).
    A vector that is no state (not 3 finite components in the ball) raises
    InvalidStateError, as in states.density_from_bloch, and a tol that is not
    finite and nonnegative ValueError, as in evaluate.
    """
    _check_tol(tol)
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
    draws up to kernels.CHUNK_ROWS states of each kind from the independent
    streams (seed, 0, k) and (seed, 1, k), pure then mixed, each into its
    worker's one draw buffer once the part before it is scored, and its gaps
    are folded into the result (kernels.fold_chunks), so memory stays constant
    in the counts. Returns per relation the minimum gap (NaN if any gap is
    NaN), the state that attained it and the count of gaps not at or above
    -tolerance (NaN counts). The counts must be ints or numpy integers, not
    bools, and not both 0.
    """
    from . import kernels  # kernels reads this module's table at import

    _check_tol(tolerance)
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in (n_pure, n_mixed)):
        raise ValueError(f"state counts must be integers, got {n_pure!r} pure and {n_mixed!r} mixed")
    if n_pure < 0 or n_mixed < 0:
        raise ValueError(f"state counts must be nonnegative, got {n_pure} pure and {n_mixed} mixed")
    if n_pure + n_mixed == 0:
        raise ValueError("need at least one sample")
    chunk = kernels.CHUNK_ROWS
    kinds = ((n_pure, random_pure_bloch), (n_mixed, random_mixed_bloch))

    def draw(k: int, ws):
        for kind, (n, draw_kind) in enumerate(kinds):
            if n > k * chunk:
                m = min(chunk, n - k * chunk)
                yield draw_kind(m, seed, kind, k, out=ws.take("points", (3, m)))

    mins, rows, viol = kernels.fold_chunks(
        -(-max(n_pure, n_mixed) // chunk), draw, kernels.bloch_scorer(QUBIT_SOAK_RELATIONS), tolerance
    )
    return SoakSummary(
        n_pure=int(n_pure),
        n_mixed=int(n_mixed),
        seed=seed,
        min_gap={rel: float(m) for rel, m in zip(QUBIT_SOAK_RELATIONS, mins)},
        violations={rel: int(c) for rel, c in zip(QUBIT_SOAK_RELATIONS, viol)},
        tolerance=tolerance,
        argmin_bloch={rel: tuple(map(float, r)) for rel, r in zip(QUBIT_SOAK_RELATIONS, rows)},
    )
