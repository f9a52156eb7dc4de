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
from dataclasses import dataclass

import numpy as np

from .moments import bloch_moments
from .relations import TAU, RelationId, relation_sides
from .rng import stream
from .states import Family, QuantumState, bloch_from_density, family_bloch

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
        if self.shots > np.iinfo(np.int64).max:
            raise ValueError(f"shots must fit numpy's int64, got {self.shots}")


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


def _count_plus(r_i: float, cfg: ShotConfig, index: int, axis: int, per_draw: bool) -> int:
    """Number of + outcomes among cfg.shots draws from the stream keyed (seed, index, axis)."""
    p_plus = min(max((1.0 + r_i) / 2.0, 0.0), 1.0)
    rng = stream(cfg.seed, index, axis)
    if per_draw:
        return int(np.count_nonzero(rng.random(cfg.shots) < p_plus))
    return int(rng.binomial(cfg.shots, p_plus))


def _shot_estimate(k, shots: int):
    """Mean outcome and its standard error from k + outcomes in `shots` (scalars or arrays)."""
    estimate = k / shots - 0.5
    # outcomes are +-1/2, so the sample variance is exactly 1/4 - mean^2
    return estimate, np.sqrt(np.maximum(0.25 - estimate * estimate, 0.0) / shots)


def _exact_estimate(r):
    # + 0.0 turns a -0.0 component into 0.0
    return r / 2.0 + 0.0


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
    estimate, stderr = _shot_estimate(_count_plus(r_i, cfg, index, axis.value, per_draw), cfg.shots)
    return EstimationResult(axis, estimate, float(stderr), cfg.shots)


def exact_expectation(state: QuantumState, axis: Axis) -> EstimationResult:
    """Analytic counterpart of simulate_expectation (zero standard error)."""
    r_i = float(bloch_from_density(state)[axis.value])
    return EstimationResult(axis, _exact_estimate(r_i), 0.0, 0)


def _derive(params, ests, e: np.ndarray, sig: np.ndarray) -> list[SweepRow]:
    """Sweep rows with the six derived quantities of (3, n) estimate and stderr columns.

    ests holds each row's (sx, sy, sz) EstimationResults. Near-singular
    derivatives are flagged instead of extrapolated: when any
    standard-deviation factor of pro0 is below PRO0_SINGULAR_TOL, or pro1 or
    pro2 is below PRO12_SINGULAR_TOL, the row gets a `singular_*` flag and
    the affected standard error is NaN (0 when all input errors are 0, since
    then nothing propagates).
    """
    d, v, _, _, _ = bloch_moments(2.0 * e)
    pro0, pro1 = relation_sides(RelationId.R3_TRIPLE_PRODUCT, d, v, e)
    pro2 = relation_sides(RelationId.NAIVE_PRO2, d, v, e)[1]
    sum0, sum1 = relation_sides(RelationId.R5_TRIPLE_SUM, d, v, e)
    sum2 = relation_sides(RelationId.NAIVE_SUM2, d, v, e)[1]

    unknown = np.where((sig == 0.0).all(axis=0), 0.0, np.nan)
    singular = (
        (d < PRO0_SINGULAR_TOL).any(axis=0), pro1 < PRO12_SINGULAR_TOL, pro2 < PRO12_SINGULAR_TOL
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # masked where singular
        # d(pro0)/de_i = -e_i * pro0 / d_i^2
        x = (e * sig / d**2) ** 2
        pro0_err = np.where(singular[0], unknown, pro0 * np.sqrt(x[0] + x[1] + x[2]))
        # d(pro)/de_i = pro / (2 e_i) for pro1 and pro2
        x = (sig / e) ** 2
        rel = np.sqrt(x[0] + x[1] + x[2])
        pro1_err = np.where(singular[1], unknown, pro1 / 2.0 * rel)
        pro2_err = np.where(singular[2], unknown, pro2 / 2.0 * rel)
    x = (2.0 * e * sig) ** 2
    sum0_err = np.sqrt(x[0] + x[1] + x[2])
    x = sig**2
    sig_quad = np.sqrt(x[0] + x[1] + x[2])

    tags = ("singular_pro0", "singular_pro1", "singular_pro2")
    hits = zip(*(m.tolist() for m in singular))
    flags = [tuple(t for t, hit in zip(tags, row) if hit) for row in hits]
    pairs = ((pro0, pro0_err), (pro1, pro1_err), (pro2, pro2_err),
             (sum0, sum0_err), (sum1, TAU / 2.0 * sig_quad), (sum2, sig_quad / 2.0))
    derived = zip(*(map(Derived, val.tolist(), err.tolist()) for val, err in pairs))
    return [SweepRow(float(p), *est, *der, f) for p, est, der, f in zip(params, ests, derived, flags)]


def propagate_derived(
    parameter: float,
    sx: EstimationResult,
    sy: EstimationResult,
    sz: EstimationResult,
) -> SweepRow:
    """The six derived sweep quantities of one point with delta-method errors (see _derive)."""
    ests = (sx, sy, sz)
    if tuple(x.axis for x in ests) != (Axis.SX, Axis.SY, Axis.SZ):
        raise ValueError("expected one estimate per axis in (SX, SY, SZ) order")
    e = np.array([[x.estimate] for x in ests])
    sig = np.array([[x.stderr] for x in ests])
    return _derive([parameter], [ests], e, sig)[0]


def sweep_parameters(family: Family, n_points: int) -> np.ndarray:
    """Evenly spaced sweep grid: [0, 2pi) for the latitude family, [0, pi] for the meridian."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if family is Family.R1_LATITUDE:
        return 2.0 * np.pi * np.arange(n_points) / n_points
    if family is Family.R2_MERIDIAN:
        return np.pi * np.arange(n_points) / (n_points - 1)
    raise ValueError(f"unknown family {family!r}")


def _family_rows(
    family: Family, params, cfg: ShotConfig | None, per_draw: bool = False
) -> list[SweepRow]:
    """Rows at the family's parameters, exact (cfg None) or from cfg.shots outcomes per axis.

    Point k's axis i draws from stream (seed, k, i), one (point, axis) at a
    time, so the per-draw mode holds O(shots) memory.
    """
    r = family_bloch(family, params)
    if cfg is None:
        e, sig, shots = _exact_estimate(r), np.zeros_like(r), 0
    else:
        k = np.array([
            [_count_plus(r_i, cfg, index, axis, per_draw) for index, r_i in enumerate(row)]
            for axis, row in enumerate(r.tolist())
        ])
        (e, sig), shots = _shot_estimate(k, cfg.shots), cfg.shots
    ests = zip(*(
        [EstimationResult(ax, x, s, shots) for x, s in zip(e[ax.value].tolist(), sig[ax.value].tolist())]
        for ax in Axis
    ))
    return _derive(params, ests, e, sig)


def analytic_row(family: Family, parameter: float) -> SweepRow:
    """Exact sweep row (the solid/dashed theory curves) at one parameter."""
    return _family_rows(family, [parameter], None)[0]


def run_sweep(
    family: Family,
    n_points: int,
    cfg: ShotConfig,
    analytic_only: bool = False,
    per_draw: bool = False,
) -> list[SweepRow]:
    """Sweep one state family, either analytically or with shot noise, as one batch."""
    params = sweep_parameters(family, n_points)
    return _family_rows(family, params, None if analytic_only else cfg, per_draw)


CSV_HEADER = (
    "param,exp_sx,err_sx,exp_sy,err_sy,exp_sz,err_sz,"
    "pro0,err_pro0,pro1,err_pro1,pro2,sum0,err_sum0,sum1,err_sum1,sum2,flags"
)


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows in the fixed CSV schema (12 significant digits)."""
    lines = [CSV_HEADER]
    for r in rows:
        values = (
            r.parameter,
            r.sx.estimate, r.sx.stderr, r.sy.estimate, r.sy.stderr, r.sz.estimate, r.sz.stderr,
            r.pro0.value, r.pro0.stderr, r.pro1.value, r.pro1.stderr, r.pro2.value,
            r.sum0.value, r.sum0.stderr, r.sum1.value, r.sum1.stderr, r.sum2.value,
        )
        lines.append(",".join([*(format(x, ".12g") for x in values), ";".join(r.flags)]))
    return "\n".join(lines) + "\n"
