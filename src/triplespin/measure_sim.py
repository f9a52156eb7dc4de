"""Shot-noise simulation of the prepare-rotate-measure protocol.

The rotation before readout is folded into the measured observable, so each
sweep point reduces to sampling +-1/2 outcomes of one spin component. By
default the full shot count collapses to a single binomial draw per (state,
axis), which is statistically identical to four million individual repeats;
a per-draw mode is kept behind a flag for audits.

Derived quantities follow the sweep-figure conventions and are the sides of
catalog relations (relations.relation_sides):
    pro0, pro1 = lhs, rhs of R3   pro2 = rhs of NAIVE_PRO2
    sum0, sum1 = lhs, rhs of R5   sum2 = rhs of NAIVE_SUM2
with <S_i> the estimates and the qubit moments of the Bloch vector 2 <S_i>
(moments.bloch_moments), so variances are 1/4 - <S_i>^2. Standard errors
propagate to first order treating the three per-axis estimates as independent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .moments import bloch_moments
from .relations import TAU, RelationId, relation_sides
from .rng import stream
from .states import Family, QuantumState, bloch_from_density, family_point

#: A sweep point is singular for pro0 error propagation when any standard
#: deviation factor is this close to zero, and for pro1/pro2 when the bound is.
PRO0_SINGULAR_TOL = 1e-6
PRO12_SINGULAR_TOL = 1e-12

DEFAULT_SHOTS = 4_000_000


class Axis(enum.Enum):
    SX = 0
    SY = 1
    SZ = 2


@dataclass(frozen=True)
class ShotConfig:
    shots: int = DEFAULT_SHOTS
    seed: int = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True)
class EstimationResult:
    """Monte Carlo estimate of one spin-component expectation."""

    axis: Axis
    estimate: float
    stderr: float
    shots: int


@dataclass(frozen=True)
class Derived:
    value: float
    stderr: float


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: per-axis estimates plus the derived products and sums."""

    parameter: float
    sx: EstimationResult
    sy: EstimationResult
    sz: EstimationResult
    pro0: Derived
    pro1: Derived
    pro2: Derived
    sum0: Derived
    sum1: Derived
    sum2: Derived
    flags: tuple[str, ...]


def simulate_expectation(
    state: QuantumState,
    axis: Axis,
    cfg: ShotConfig,
    index: int = 0,
    per_draw: bool = False,
) -> EstimationResult:
    """Sample `shots` outcomes of one spin component and average them.

    Outcomes are +-1/2, the + outcome with probability (1 + r_i)/2 for the
    Bloch component r_i; a state that is not a qubit raises
    DimensionMismatchError. The stream is keyed by (seed, index, axis) so
    sweep points can run in any order or in parallel without changing results.
    """
    r_i = float(bloch_from_density(state)[axis.value])
    p_plus = min(max((1.0 + r_i) / 2.0, 0.0), 1.0)

    rng = stream(cfg.seed, index, axis.value)
    if per_draw:
        k = int(np.count_nonzero(rng.random(cfg.shots) < p_plus))
    else:
        k = int(rng.binomial(cfg.shots, p_plus))
    estimate = k / cfg.shots - 0.5
    # outcomes are +-1/2, so the sample variance is exactly 1/4 - mean^2
    sample_var = max(0.25 - estimate * estimate, 0.0)
    stderr = math.sqrt(sample_var / cfg.shots)
    return EstimationResult(axis, estimate, stderr, cfg.shots)


def exact_expectation(state: QuantumState, axis: Axis) -> EstimationResult:
    """Analytic counterpart of simulate_expectation (zero standard error)."""
    # + 0.0 turns a -0.0 component into 0.0
    val = float(bloch_from_density(state)[axis.value]) / 2.0 + 0.0
    return EstimationResult(axis, val, 0.0, 0)


def propagate_derived(
    parameter: float,
    sx: EstimationResult,
    sy: EstimationResult,
    sz: EstimationResult,
) -> SweepRow:
    """Compute the six derived sweep quantities with delta-method errors.

    Near-singular derivatives are flagged instead of extrapolated: when any
    standard-deviation factor of pro0 is below PRO0_SINGULAR_TOL, or pro1 or
    pro2 is below PRO12_SINGULAR_TOL, the row gets a `singular_*` flag and
    the affected standard error is NaN (0 when all input errors are 0, since
    then nothing propagates).
    """
    ests = (sx, sy, sz)
    if tuple(e.axis for e in ests) != (Axis.SX, Axis.SY, Axis.SZ):
        raise ValueError("expected one estimate per axis in (SX, SY, SZ) order")
    e = np.array([sx.estimate, sy.estimate, sz.estimate])
    sig = np.array([sx.stderr, sy.stderr, sz.stderr])
    exact_inputs = bool(np.all(sig == 0.0))

    d, v, _, _, _ = bloch_moments(2.0 * e)
    pro0_val, pro1_val = map(float, relation_sides(RelationId.R3_TRIPLE_PRODUCT, d, v, e))
    pro2_val = float(relation_sides(RelationId.NAIVE_PRO2, d, v, e)[1])
    sum0_val, sum1_val = map(float, relation_sides(RelationId.R5_TRIPLE_SUM, d, v, e))
    sum2_val = float(relation_sides(RelationId.NAIVE_SUM2, d, v, e)[1])
    flags: list[str] = []

    pro0_singular = bool(np.any(d < PRO0_SINGULAR_TOL))
    if pro0_singular:
        flags.append("singular_pro0")
        pro0_err = 0.0 if exact_inputs else math.nan
    else:
        # d(pro0)/de_i = -e_i * pro0 / d_i^2
        pro0_err = float(pro0_val * math.sqrt(np.sum((e * sig / d**2) ** 2)))

    def _prod_bound_err(val: float, tol: float, tag: str) -> float:
        if val < tol:
            flags.append(tag)
            return 0.0 if exact_inputs else math.nan
        # d(val)/de_i = val / (2 e_i)
        return float(val / 2.0 * math.sqrt(np.sum((sig / e) ** 2)))

    pro1_err = _prod_bound_err(pro1_val, PRO12_SINGULAR_TOL, "singular_pro1")
    pro2_err = _prod_bound_err(pro2_val, PRO12_SINGULAR_TOL, "singular_pro2")

    sum0_err = float(math.sqrt(np.sum((2.0 * e * sig) ** 2)))
    sig_quad = float(math.sqrt(np.sum(sig**2)))
    sum1_err = TAU / 2.0 * sig_quad
    sum2_err = sig_quad / 2.0

    return SweepRow(
        parameter=float(parameter),
        sx=sx,
        sy=sy,
        sz=sz,
        pro0=Derived(pro0_val, pro0_err),
        pro1=Derived(pro1_val, pro1_err),
        pro2=Derived(pro2_val, pro2_err),
        sum0=Derived(sum0_val, sum0_err),
        sum1=Derived(sum1_val, sum1_err),
        sum2=Derived(sum2_val, sum2_err),
        flags=tuple(flags),
    )


def sweep_parameters(family: Family, n_points: int) -> np.ndarray:
    """Evenly spaced sweep grid: [0, 2pi) for the latitude family, [0, pi] for the meridian."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if family is Family.R1_LATITUDE:
        return 2.0 * np.pi * np.arange(n_points) / n_points
    if family is Family.R2_MERIDIAN:
        return np.pi * np.arange(n_points) / (n_points - 1)
    raise ValueError(f"unknown family {family!r}")


def analytic_row(family: Family, parameter: float) -> SweepRow:
    """Exact sweep row (the solid/dashed theory curves) at one parameter."""
    state = family_point(family, parameter).state()
    return propagate_derived(
        parameter,
        exact_expectation(state, Axis.SX),
        exact_expectation(state, Axis.SY),
        exact_expectation(state, Axis.SZ),
    )


def simulated_row(
    family: Family, parameter: float, index: int, cfg: ShotConfig, per_draw: bool = False
) -> SweepRow:
    """Monte Carlo sweep row (the scattered experimental points) at one parameter."""
    state = family_point(family, parameter).state()
    return propagate_derived(
        parameter,
        simulate_expectation(state, Axis.SX, cfg, index, per_draw),
        simulate_expectation(state, Axis.SY, cfg, index, per_draw),
        simulate_expectation(state, Axis.SZ, cfg, index, per_draw),
    )


def run_sweep(
    family: Family,
    n_points: int,
    cfg: ShotConfig,
    analytic_only: bool = False,
    per_draw: bool = False,
) -> list[SweepRow]:
    """Sweep one state family, either analytically or with shot noise."""
    params = sweep_parameters(family, n_points)
    if analytic_only:
        return [analytic_row(family, p) for p in params]
    return [simulated_row(family, p, k, cfg, per_draw) for k, p in enumerate(params)]


CSV_HEADER = (
    "param,exp_sx,err_sx,exp_sy,err_sy,exp_sz,err_sz,"
    "pro0,err_pro0,pro1,err_pro1,pro2,sum0,err_sum0,sum1,err_sum1,sum2,flags"
)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows in the fixed CSV schema (12 significant digits)."""
    lines = [CSV_HEADER]
    for r in rows:
        fields = [
            _fmt(r.parameter),
            _fmt(r.sx.estimate),
            _fmt(r.sx.stderr),
            _fmt(r.sy.estimate),
            _fmt(r.sy.stderr),
            _fmt(r.sz.estimate),
            _fmt(r.sz.stderr),
            _fmt(r.pro0.value),
            _fmt(r.pro0.stderr),
            _fmt(r.pro1.value),
            _fmt(r.pro1.stderr),
            _fmt(r.pro2.value),
            _fmt(r.sum0.value),
            _fmt(r.sum0.stderr),
            _fmt(r.sum1.value),
            _fmt(r.sum1.stderr),
            _fmt(r.sum2.value),
            ";".join(r.flags),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
