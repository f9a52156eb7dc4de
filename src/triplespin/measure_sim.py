"""Shot-noise simulation of the prepare-rotate-measure protocol.

The rotation before readout is folded into the measured observable, so each
sweep point reduces to sampling +-1/2 outcomes of one spin component. By
default the full shot count collapses to a single binomial draw per (state,
axis), which is statistically identical to four million individual repeats;
a per-draw mode is kept behind a flag for audits.

Derived quantities follow the sweep-figure conventions and are the sides of
catalog relations, from one walk of their table pass (relations.walk):
    pro0, pro1 = lhs, rhs of R3   pro2 = rhs of NAIVE_PRO2
    sum0, sum1 = lhs, rhs of R5   sum2 = rhs of NAIVE_SUM2
with <S_i> the estimates and the qubit moments of the Bloch vector 2 <S_i>
(moments.bloch_moments), so variances are 1/4 - <S_i>^2. Standard errors are
first-order tangents of those sides, the three per-axis estimates independent.

A sweep is its columns from the draws to the CSV: a Sweep holds (n,)
parameters, (3, n) estimates and errors, (6, n) derived values and errors and
(3, n) flags. run_sweep makes one from a family's states, exact or with shot
noise, propagate_derived from estimates made elsewhere, and rows_to_csv
renders its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .moments import bloch_moments
from .relations import RelationId, table_plan, walk
from .rng import check_seed, map_streams
from .states import BLOCH_NORM_TOL, Family, family_bloch

#: A sweep point is singular for pro0 error propagation when any standard
#: deviation factor is this close to zero, and for pro1/pro2 when the bound is.
PRO0_SINGULAR_TOL = 1e-6
PRO12_SINGULAR_TOL = 1e-12

DEFAULT_SHOTS = 4_000_000


@dataclass(frozen=True)
class ShotConfig:
    shots: int = DEFAULT_SHOTS
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.shots, (int, np.integer)) or isinstance(self.shots, bool) or self.shots < 1:
            raise ValueError(f"shots must be an integer >= 1, got {self.shots!r}")
        if self.shots > np.iinfo(np.int64).max:
            raise ValueError(f"shots must fit numpy's int64, got {self.shots}")
        check_seed(self.seed)


_FLAG_TAGS = ("singular_pro0", "singular_pro1", "singular_pro2")
#: the CSV flags field of each code sum_j 2^j singular[j]
_FLAGS = [";".join(t for j, t in enumerate(_FLAG_TAGS) if code >> j & 1) for code in range(8)]


@dataclass(frozen=True, eq=False)
class Sweep:
    """A sweep's n points as columns.

    estimate and stderr hold <S_x>, <S_y>, <S_z> by row, value and error pro0, pro1, pro2,
    sum0, sum1, sum2, and singular the singular_pro0, _pro1, _pro2 flags.
    """

    parameter: np.ndarray  # (n,)
    estimate: np.ndarray  # (3, n)
    stderr: np.ndarray  # (3, n)
    value: np.ndarray  # (6, n)
    error: np.ndarray  # (6, n)
    singular: np.ndarray  # (3, n) bool

    def __len__(self) -> int:
        return len(self.parameter)


def _count_plus(rng, p_plus: float, shots: int) -> int:
    """Number of draws u < p_plus among `shots` rng.random() draws, counted on the raw Philox words.

    rng.random() is u = (w >> 11) 2^-53 for the next raw 64-bit word w, so u < p
    exactly when w < ceil(p 2^53) 2^11 (scaling by 2^53 and ceil are exact);
    at p = 1 that bound is 2^64 and every draw counts. The words come in blocks
    of kernels.CHUNK_ROWS, so memory does not grow with the shot count; the
    blocks continue one stream, so the count equals that of one draw of all the shots.
    """
    bound = math.ceil(p_plus * 2.0**53) << 11
    if bound >> 64:
        return shots
    raw, bound, chunk = rng.bit_generator.random_raw, np.uint64(bound), kernels.CHUNK_ROWS
    return sum(int(np.count_nonzero(raw(min(chunk, shots - start)) < bound)) for start in range(0, shots, chunk))


def _shot_estimate(k, shots: int):
    """Mean outcome and its standard error from k + outcomes in `shots` (scalars or arrays)."""
    estimate = k / shots - 0.5
    # outcomes are +-1/2, so the sample variance is exactly 1/4 - mean^2
    return estimate, np.sqrt(np.maximum(0.25 - estimate * estimate, 0.0) / shots)


class _Tangent(np.lib.mixins.NDArrayOperatorsMixin):
    """A value and its first-order partials along seed directions (tan's last axis), through the ufuncs of _PARTIALS.

    Kinks take one side: |a|' is copysign(1, a), so +-1 at a = +-0, and a tie of maximum takes its first argument's."""

    _PARTIALS = {  # ufunc: (out, *args) -> partial derivatives of out along its args
        np.add: lambda out, a, b: (1.0, 1.0), np.subtract: lambda out, a, b: (1.0, -1.0),
        np.multiply: lambda out, a, b: (b, a), np.true_divide: lambda out, a, b: (1.0 / b, -out / b),
        np.absolute: lambda out, a: (np.copysign(1.0, a),), np.sqrt: lambda out, a: (0.5 / out,),
        np.maximum: lambda out, a, b: (a >= b, a < b),
    }

    def __init__(self, val, tan):
        self.val, self.tan = val, tan

    def __getitem__(self, index):
        return _Tangent(self.val[index], self.tan[index])

    def __setitem__(self, index, value):
        self.val[index], self.tan[index] = value.val, value.tan

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs or ufunc not in self._PARTIALS:
            return NotImplemented
        vals = [x.val if isinstance(x, _Tangent) else x for x in args]
        out = ufunc(*vals)
        parts = zip(self._PARTIALS[ufunc](out, *vals), args)
        return _Tangent(out, sum(np.expand_dims(p, -1) * x.tan for p, x in parts if isinstance(x, _Tangent)))


#: The relations whose sides are the derived quantities, and (side, row) of pro0 ... sum2 among them
_DERIVED = (RelationId.R3_TRIPLE_PRODUCT, RelationId.NAIVE_PRO2, RelationId.R5_TRIPLE_SUM, RelationId.NAIVE_SUM2)
_QUANTITIES = ([0, 1, 1, 0, 1, 1], [0, 0, 1, 2, 2, 3])


def _derive(params: np.ndarray, e: np.ndarray, sig: np.ndarray) -> Sweep:
    """The sweep of (3, n) estimate and stderr columns, with the six derived quantities.

    bloch_moments and one walk of _DERIVED's table pass on a _Tangent seeded along e_x, e_y, e_z give
    each quantity and its partials p_i (one-sided at kinks, see _Tangent), and its standard error
    is sqrt(sum_i (p_i sigma_i)^2). Near-singular derivatives are flagged instead of extrapolated:
    when any standard-deviation factor of pro0 is below PRO0_SINGULAR_TOL, or pro1 or pro2 is below
    PRO12_SINGULAR_TOL, the row gets a `singular_*` flag and the affected standard error is NaN (0
    when all input errors are 0, since then nothing propagates).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # masked where singular
        x = _Tangent(e, np.broadcast_to(np.eye(3)[:, None], (*e.shape, 3)))
        d, v, _, _, _ = bloch_moments(2.0 * x, reads=())
        sides = _Tangent(np.empty((2, 4, e.shape[1])), np.empty((2, 4, e.shape[1], 3)))

        def emit(target, lhs, rhs):
            sides[0, target], sides[1, target] = lhs, rhs

        walk(table_plan(_DERIVED), {"d": d, "v": v, "e": x}, emit)
        derived = sides[_QUANTITIES]
        t = (derived.tan * sig.T) ** 2
        errs = np.sqrt(t[..., 0] + t[..., 1] + t[..., 2])

    singular = np.array([(d.val < PRO0_SINGULAR_TOL).any(axis=0), derived.val[1] < PRO12_SINGULAR_TOL,
                         derived.val[2] < PRO12_SINGULAR_TOL])
    unknown = np.where((sig == 0.0).all(axis=0), 0.0, np.nan)
    errs[:3] = np.where(singular, unknown, errs[:3])
    return Sweep(params, e, sig, derived.val, errs, singular)


def propagate_derived(params, estimate, stderr) -> Sweep:
    """The sweep of (n,) parameters and (3, n) <S_i> estimate and standard-error columns (see _derive).

    Raises ValueError unless the shapes match, every estimate is finite with
    |2 <S_i>| <= 1 + BLOCH_NORM_TOL, and every standard error is finite and non-negative.
    """
    params = np.asarray(params, dtype=float)
    e = np.asarray(estimate, dtype=float)
    sig = np.asarray(stderr, dtype=float)
    if params.ndim != 1 or e.shape != (3, len(params)) or sig.shape != e.shape:
        raise ValueError(f"expected (n,) parameters and (3, n) columns, got {params.shape} {e.shape} {sig.shape}")
    if not np.isfinite(e).all() or (np.abs(2.0 * e) > 1.0 + BLOCH_NORM_TOL).any():
        raise ValueError(f"estimates must be finite with |<S_i>| <= 1/2, got {e.tolist()}")
    if not (np.isfinite(sig) & (sig >= 0.0)).all():
        raise ValueError(f"standard errors must be finite and >= 0, got {sig.tolist()}")
    return _derive(params, e, sig)


def sweep_parameters(family: Family, n_points: int) -> np.ndarray:
    """Evenly spaced sweep grid: [0, 2pi) for the latitude family, [0, pi] for the meridian."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if family is Family.R1_LATITUDE:
        return 2.0 * np.pi * np.arange(n_points) / n_points
    if family is Family.R2_MERIDIAN:
        return np.pi * np.arange(n_points) / (n_points - 1)
    raise ValueError(f"unknown family {family!r}")


def run_sweep(family: Family, params, cfg: ShotConfig | None = None, per_draw: bool = False) -> Sweep:
    """The family's sweep at (n,) parameters, exact (cfg None) or from cfg.shots outcomes per axis.

    Raises ValueError unless params is 1-D; a non-finite parameter makes
    family_bloch raise InvalidStateError. The + probabilities (1 + r_i) / 2 of
    all points and axes are clamped to [0, 1] at once; point k's axis i then
    draws its count from stream (seed, k, i) in one call, a binomial or, per
    draw, a count of raw words in blocks (_count_plus), so memory stays
    constant; the streams' Philox keys are derived in one pass (rng.map_streams).
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 1:
        raise ValueError(f"sweep parameters must be a 1-D array, got shape {params.shape}")
    r = family_bloch(family, params)
    if cfg is None:
        # + 0.0 turns a -0.0 component into 0.0
        return _derive(params, r / 2.0 + 0.0, np.zeros_like(r))
    p_plus = np.minimum(np.maximum((1.0 + r) / 2.0, 0.0), 1.0).ravel().tolist()
    # row (index, axis) of keys is entry axis * n + index of p_plus
    keys = np.indices(r.shape)[::-1].reshape(2, -1).T
    if per_draw:
        k = map_streams(cfg.seed, keys, lambda rng, i: _count_plus(rng, p_plus[i], cfg.shots))
    else:
        k = map_streams(cfg.seed, keys, lambda rng, i: rng.binomial(cfg.shots, p_plus[i]))
    k = np.array(k).reshape(r.shape)
    return _derive(params, *_shot_estimate(k, cfg.shots))


CSV_HEADER = (
    "param,exp_sx,err_sx,exp_sy,err_sy,exp_sz,err_sz,"
    "pro0,err_pro0,pro1,err_pro1,pro2,sum0,err_sum0,sum1,err_sum1,sum2,flags"
)


def rows_to_csv(sweep: Sweep) -> str:
    """Render a sweep in the fixed CSV schema (12 significant digits), one row template per point."""
    n = len(sweep)
    estimates = np.stack((sweep.estimate, sweep.stderr), axis=1).reshape(6, n)
    # the derived (value, error) pairs, less pro2's and sum2's errors
    derived = np.stack((sweep.value, sweep.error), axis=1).reshape(12, n)[[0, 1, 2, 3, 4, 6, 7, 8, 9, 10]]
    table = np.concatenate((sweep.parameter[None], estimates, derived))
    codes = (sweep.singular.T @ (1, 2, 4)).tolist()
    row = "%.12g," * len(table) + "%s"
    lines = [row % (*values, _FLAGS[code]) for values, code in zip(table.T.tolist(), codes)]
    return "\n".join([CSV_HEADER, *lines]) + "\n"
