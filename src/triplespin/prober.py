"""Derivative-free search for minimum-gap and saturating states.

Pure states in dimension d are parametrized by 2d-1 unconstrained reals
(first amplitude taken real nonnegative, explicit renormalization at every
evaluation), so a simplex search never leaves the state manifold. For the
qubit, an optional mixed-state mode searches the closed Bloch ball instead.
Gaps involve absolute values and square roots with kinks at saturation, so
local refinement uses the Nelder-Mead simplex rather than gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import entr

from .errors import SpinRestrictionError, TripleSpinError
from .moments import bloch_moments, pure_moments
from .relations import ENTROPIC, RelationId, _ops, applicable_to, evaluate, relation_sides
from .rng import stream
from .spin_ops import Spin, build_spin_operators
from .states import QuantumState, density_from_bloch, from_statevector, random_pure_vectors

#: A scan minimum below -this is reported as a conjecture counterexample candidate.
COUNTEREXAMPLE_TOL = 1e-8

_XATOL = 1e-8


@dataclass(frozen=True)
class ProbeConfig:
    restarts: int = 64
    max_iters: int = 2000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")


@dataclass(frozen=True, eq=False)
class ProbeResult:
    relation: RelationId
    spin: Spin
    min_gap: float
    argmin_state: QuantumState
    converged: bool
    evaluations: int
    best_restart: int
    #: Final objective value of each restart (each refinement, for a
    #: conjecture scan) in run order; how many agree on min_gap shows how
    #: reliably the search finds the minimum.
    restart_gaps: tuple[float, ...]

    def to_dict(self) -> dict:
        from .states import state_to_json_dict

        return {
            "relation": self.relation.value,
            "twice_s": self.spin.twice_s,
            "min_gap": self.min_gap,
            "argmin_state": state_to_json_dict(self.argmin_state),
            "converged": self.converged,
            "evaluations": self.evaluations,
            "best_restart": self.best_restart,
            "restart_gaps": list(self.restart_gaps),
        }


def _psi_from_params(x: np.ndarray, dim: int) -> np.ndarray:
    psi = np.empty(dim, dtype=complex)
    psi[0] = abs(x[0])
    psi[1:] = x[1::2] + 1j * x[2::2]
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        psi[0] = 1.0
        norm = 1.0
    return psi / norm


def _state_from_params(x: np.ndarray, dim: int) -> QuantumState:
    return from_statevector(_psi_from_params(x, dim))


def _params_from_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    if abs(psi[0]) > 0:
        psi = psi * np.exp(-1j * np.angle(psi[0]))
    x = np.empty(2 * len(psi) - 1)
    x[0] = psi[0].real
    x[1::2] = psi[1:].real
    x[2::2] = psi[1:].imag
    return x


def _bloch_from_params(x: np.ndarray) -> np.ndarray:
    r = np.asarray(x, dtype=float)
    norm = np.linalg.norm(r)
    return r / norm if norm > 1.0 else r


def _random_start(dim: int, seed: int, restart: int, mixed: bool) -> np.ndarray:
    rng = stream(seed, restart)
    if mixed:
        # uniform over the ball by rejection-free radial scaling
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        return v * rng.random() ** (1.0 / 3.0)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return _params_from_vector(z / np.linalg.norm(z))


def gap_objective(relation: RelationId, spin: Spin | int, mixed: bool = False):
    """The search objective: x -> gap of `relation` at the state x parametrizes.

    Equals evaluate(relation, state, spin).gap, but passes moments straight
    to relations.relation_sides without building a validated QuantumState.
    With mixed=True they are the closed-form moments of the Bloch vector x
    (moments.bloch_moments). Otherwise they are the moments of the state
    vector (moments.pure_moments) over the operator stack, its eigenbases and
    the R8 pair sums, all prepared once here. Spin-component spectra are
    nondegenerate, so outcome probabilities are the squared amplitudes in the
    eigenbasis with no eigenvalue merging.
    """
    spin = spin if isinstance(spin, Spin) else Spin(spin)
    if mixed and spin.twice_s != 1:
        raise ValueError("mixed-state probing uses the Bloch ball and needs spin 1/2")
    s = spin.s
    if mixed:

        def bloch_objective(x):
            lhs, rhs = relation_sides(relation, *bloch_moments(_bloch_from_params(x)), s)
            return float(lhs - rhs)

        return bloch_objective

    dim = spin.dim
    ops = np.array(_ops(spin.twice_s).as_tuple(), dtype=complex)
    eigvecs_h = np.linalg.eigh(ops)[1].conj().transpose(0, 2, 1) if relation in ENTROPIC else None
    pairs = ops + ops[[1, 2, 0]] if relation is RelationId.R8_VARIANCE_OF_SUMS else None

    def objective(x):
        psi = _psi_from_params(x, dim)
        e, v = pure_moments(psi, ops)
        h = w = None
        if eigvecs_h is not None:
            a = eigvecs_h @ psi
            h = entr(a.real**2 + a.imag**2).sum(axis=1)
        if pairs is not None:
            w = pure_moments(psi, pairs)[1]
        lhs, rhs = relation_sides(relation, np.sqrt(v), v, e, h, w, s)
        return float(lhs - rhs)

    return objective


def _validated_gap(relation: RelationId, state: QuantumState, spin: Spin) -> float:
    """Gap of the search result, re-evaluated on the validated argmin state."""
    gap = evaluate(relation, state, spin).gap
    if not math.isfinite(gap):
        raise TripleSpinError(f"{relation.value} gap at the search minimum is {gap}, not finite")
    return gap


def _refine(objective, x0: np.ndarray, cfg: ProbeConfig):
    return minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": cfg.max_iters,
            "xatol": _XATOL,
            "fatol": cfg.tol,
        },
    )


def min_gap(
    relation: RelationId,
    spin: Spin | int,
    cfg: ProbeConfig = ProbeConfig(),
    mixed: bool = False,
) -> ProbeResult:
    """Minimize the gap of one relation over states of the given spin.

    Runs cfg.restarts independent Nelder-Mead searches from Haar-random pure
    starts (or Bloch-ball points when mixed=True, qubit only) and keeps the
    best result, ties broken by lowest restart index. Each restart has its
    own RNG stream, so the result is deterministic for a fixed config. The
    reported min_gap is evaluated on the validated argmin state.
    """
    spin = spin if isinstance(spin, Spin) else Spin(spin)
    if not applicable_to(relation, spin):
        raise SpinRestrictionError(f"{relation.value} is not applicable at twice_s = {spin.twice_s}")
    dim = spin.dim

    objective = gap_objective(relation, spin, mixed)
    runs = [_refine(objective, _random_start(dim, cfg.seed, r, mixed), cfg) for r in range(cfg.restarts)]
    gaps = tuple(float(res.fun) for res in runs)
    best_restart = min(range(cfg.restarts), key=gaps.__getitem__)
    best = runs[best_restart]
    if mixed:
        argmin = density_from_bloch(_bloch_from_params(best.x))
    else:
        argmin = _state_from_params(best.x, dim)
    return ProbeResult(
        relation=relation,
        spin=spin,
        min_gap=_validated_gap(relation, argmin, spin),
        argmin_state=argmin,
        converged=bool(best.success),
        evaluations=sum(int(res.nfev) for res in runs),
        best_restart=best_restart,
        restart_gaps=gaps,
    )


def min_variance_sum(spin: Spin | int, cfg: ProbeConfig = ProbeConfig()) -> tuple[float, ProbeResult]:
    """Minimize Var(Sx) + Var(Sy) + Var(Sz) over pure states.

    Returns (minimum variance sum, probe result); the probe result is
    expressed as the gap of the variance-sum bound, min_gap = minimum - s.
    """
    result = min_gap(RelationId.R7_SUM_GENERAL_S, spin, cfg)
    return result.min_gap + result.spin.s, result


def scan_conjecture(
    spin: Spin | int,
    samples: int,
    cfg: ProbeConfig = ProbeConfig(),
) -> ProbeResult:
    """Scan the all-spin triple-product conjecture on random pure states.

    Evaluates the conjectured bound on `samples` Haar-random states, then
    refines from the 10 smallest-gap samples with Nelder-Mead. A minimum
    below -COUNTEREXAMPLE_TOL marks a counterexample candidate; callers
    report it rather than fail.
    """
    spin = spin if isinstance(spin, Spin) else Spin(spin)
    if spin.twice_s < 2:
        raise ValueError("the spin-1/2 case is the proved product bound; scan needs twice_s >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dim = spin.dim
    ops = build_spin_operators(spin)
    relation = RelationId.R11_CONJECTURE_TRIPLE_PRODUCT

    psis = random_pure_vectors(dim, samples, cfg.seed)
    gaps = conjecture_gaps_batch(psis, ops)
    order = np.argsort(gaps)
    objective = gap_objective(relation, spin)

    best_gap = float(gaps[order[0]])
    best_psi = psis[order[0]]
    converged = True
    evaluations = samples
    refined = []
    for rank in range(min(10, samples)):
        res = _refine(objective, _params_from_vector(psis[order[rank]]), cfg)
        evaluations += int(res.nfev)
        refined.append(float(res.fun))
        if res.fun < best_gap:
            best_gap = float(res.fun)
            best_psi = _psi_from_params(res.x, dim)
            converged = bool(res.success)

    best_state = from_statevector(best_psi)
    return ProbeResult(
        relation=relation,
        spin=spin,
        min_gap=_validated_gap(relation, best_state, spin),
        argmin_state=best_state,
        converged=converged,
        evaluations=evaluations,
        best_restart=0,
        restart_gaps=tuple(refined),
    )


def is_counterexample(result: ProbeResult) -> bool:
    return result.min_gap < -COUNTEREXAMPLE_TOL


def conjecture_gaps_batch(psis: np.ndarray, ops) -> np.ndarray:
    """Vectorized conjectured-bound gaps for a batch of pure state vectors."""
    e, v = pure_moments(psis, np.array(ops.as_tuple()))
    lhs, rhs = relation_sides(RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, np.sqrt(v), v, e)
    return lhs - rhs
