"""Numerical laboratory for uncertainty relations of the three spin components.

Builds angular-momentum operator matrices for arbitrary spin, evaluates the
catalog of pairwise and triple uncertainty relations (product, sum,
state-independent, variance-of-sums, entropic) on qubit and higher-spin
states, simulates the prepare-rotate-measure experiment with shot noise, and
searches for minimum-gap states with an L-BFGS prober on central differences.
"""

__version__ = "0.1.0"

from .spin_ops import Spin, SpinOperatorSet, build_spin_operators, commutator
from .states import (
    QuantumState,
    Family,
    density_from_bloch,
    bloch_from_density,
    family_point,
    random_pure,
    random_mixed,
)
from .moments import (
    expectation,
    std_dev,
    outcome_distribution,
    shannon_entropy,
)
from .relations import (
    TAU,
    RelationId,
    RelationReport,
    evaluate,
    evaluate_robertson,
    equality_condition,
    RELATIONS,
)
from .prober import ProbeConfig, ProbeResult, min_gap, min_variance_sum, scan_conjecture

__all__ = [
    "__version__",
    "Spin",
    "SpinOperatorSet",
    "build_spin_operators",
    "commutator",
    "QuantumState",
    "Family",
    "density_from_bloch",
    "bloch_from_density",
    "family_point",
    "random_pure",
    "random_mixed",
    "expectation",
    "std_dev",
    "outcome_distribution",
    "shannon_entropy",
    "TAU",
    "RelationId",
    "RelationReport",
    "evaluate",
    "evaluate_robertson",
    "equality_condition",
    "RELATIONS",
    "ProbeConfig",
    "ProbeResult",
    "min_gap",
    "min_variance_sum",
    "scan_conjecture",
]
