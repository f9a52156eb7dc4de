"""lockstep_lbfgs's outputs pinned byte for byte on seeded searches.

A case's digest is the SHA-256 of the dtype, shape and bytes of x, fun, nit,
nfev and success, in that order. The digests were recorded before the
search's bookkeeping (the two-loop, the pair update, the stop test) was cut to
fewer numpy calls, and that cut kept every one of them. The cases cover
iterations where every run takes the unit step, backtracking that finds a step
and backtracking where a run stays put, pairs with s.y <= 0 (which must raise
no RuntimeWarning: pytest turns those into errors here), NaN rows, a stop at
max_iters, and runs that end at different iterations; test_cases_cover_the_branches
checks that they still do.
"""

import hashlib

import numpy as np
import pytest

from triplespin import prober
from triplespin.prober import _param_objective, _params_from_vector, lockstep_lbfgs
from triplespin.relations import RelationId
from triplespin.states import random_pure_vectors


def _gentle_quadratic(x):
    """0.25 + x^T A x / 2 with A's eigenvalues in [0.2, 1]: every unit step meets Armijo."""
    a = np.diag(np.linspace(0.2, 1.0, x.shape[1]))
    a[0, 1] = a[1, 0] = 0.1
    return 0.25 + 0.5 * np.vecdot(x, np.matvec(a, x))


def _quartic(x):
    """x^4 / 4: a unit step from |x| > 2 overshoots, so the run backtracks."""
    return x[:, 0] ** 4 / 4


def _kink(x):
    """|x| + x^2 / 8: at the kink the stencil's slope points nowhere downhill, so a run stays put."""
    return np.abs(x[:, 0]) + x[:, 0] ** 2 / 8


def _cosine(x):
    """cos x0 + cos x1 / 2: a step across a concave stretch gives a pair with s.y < 0."""
    return np.cos(x[:, 0]) + np.cos(x[:, 1]) / 2


def _walled(x):
    """A bowl centred at (2, -1) that reads NaN where x0 > 1.9: runs walk into NaN rows."""
    f = 0.3 * ((x[:, 0] - 2.0) ** 2 + (x[:, 1] + 1.0) ** 2)
    f[x[:, 0] > 1.9] = np.nan
    return f


def _starts(width, seed, runs):
    """Parameter rows of Haar unit vectors of C^width, restart r on stream (seed, r), as min_gap draws them."""
    return np.array([_params_from_vector(random_pure_vectors(width, 1, seed, r)[0]) for r in range(runs)])


def _case(name):
    """(objective, x0, max_iters, tol) of a case."""
    rng = np.random.default_rng(11)
    if name == "unit steps":
        return _gentle_quadratic, rng.uniform(-2.0, 2.0, (5, 6)), 2000, 1e-12
    if name == "backtracking":
        return _quartic, np.array([[0.5], [2.0], [3.0], [-2.5]]), 2000, 1e-10
    if name == "stays put":
        return _kink, np.array([[1e-9], [0.3], [-2.0], [5.0]]), 2000, 1e-10
    if name == "s.y <= 0":
        return _cosine, np.array([[0.5, 0.4], [2.5, -0.3], [-1.0, 1.2]]), 2000, 1e-10
    if name == "NaN rows":
        return _walled, np.array([[2.5, 0.0], [0.0, 0.0], [-1.0, 3.0], [1.0, -1.0]]), 2000, 1e-10
    if name == "max_iters":
        return _param_objective(RelationId.R7_SUM_GENERAL_S, 4), _starts(5, 0, 3), 3, 1e-10
    if name == "R7 spin 2, 10 runs":
        return _param_objective(RelationId.R7_SUM_GENERAL_S, 4), _starts(5, 21, 10), 700, 1e-10
    if name == "R3 mixed qubit":
        return _param_objective(RelationId.R3_TRIPLE_PRODUCT, 1), _starts(4, 4, 6), 2000, 1e-10
    if name == "R5 spin 1":
        return _param_objective(RelationId.R5_TRIPLE_SUM, 2), _starts(3, 2, 8), 2000, 1e-10
    if name == "R6 mixed qubit":
        return _param_objective(RelationId.R6_SUM_HALF, 1), _starts(4, 5, 4), 2000, 1e-10
    if name == "R10 qubit":
        return _param_objective(RelationId.R10_ENTROPIC_TRIPLE, 1), _starts(2, 2, 4), 700, 1e-10
    if name == "R11 spin 3/2":
        return _param_objective(RelationId.R11_CONJECTURE_TRIPLE_PRODUCT, 3), _starts(4, 3, 5), 200, 1e-10
    raise KeyError(name)


#: SHA-256 digest of each case's outputs
DIGESTS = {
    "unit steps": "fba8759126053346ede41b592890daf25e46b369e6724292f5c6bdb83ae5d749",
    "backtracking": "75ea0289059d9859b036ea69bde9f6a09d02c93f19e5950c48c40d5626a77ecb",
    "stays put": "06aa2b39babbd64d4d06b6d437851cdfc4c66388829922b42a56505db8e2bbc4",
    "s.y <= 0": "4d46bee41fe6321f9c26a7ec2ca4e40660136e51eac0523481d027e38327f92c",
    "NaN rows": "00afd875f4de8b711734be0c7567384b5c2222289176f50a3a553fa02419905f",
    "max_iters": "76160e44f761f6c5743c7ea32771ff20640256298fe4ee9c53aa2981f17e1944",
    "R7 spin 2, 10 runs": "8b6bb6c25b387e7f01a274b84bc6229c263b9b21f6b2da6690a9b33b377f6f6d",
    "R3 mixed qubit": "232220912a86f44a1116ffccae0aed5c48c954c09ddf5d4d64c8ecd5056a3c16",
    "R5 spin 1": "6c06d1b6cd5ab423665f7a6ea27cf67f44405fb83d3d5df27f57cbb913e30b3c",
    "R6 mixed qubit": "7fd437d6df349b9f33d5507571cd7485e333b7f3229882a0f9b83685075c13ba",
    "R10 qubit": "4e9001a9a69d1e696a085ba9bb8da671f1905867256d9f9b887fab85cbdd72a3",
    "R11 spin 3/2": "b8b9c7675b0079b5290a0753056724f306574038fa7f0851c2de8f512fa0e277",
}


def _digest(runs) -> str:
    h = hashlib.sha256()
    for a in (runs.x, runs.fun, runs.nit, runs.nfev, runs.success):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_search_keeps_its_bytes(name):
    objective, x0, max_iters, tol = _case(name)
    assert _digest(lockstep_lbfgs(objective, x0, max_iters, tol)) == DIGESTS[name]


def _stencil_centres(points, n):
    """The centre rows of points if they are gradient stencils (blocks of x, x + _H e_i, x - _H e_i), else None."""
    if len(points) % (2 * n + 1):
        return None
    blocks = points.reshape(-1, 2 * n + 1, n)
    offsets = np.vstack([np.eye(n), -np.eye(n)]) * prober._H
    if not np.allclose(blocks[:, 1:] - blocks[:, :1], offsets, rtol=0, atol=1e-12):
        return None
    return blocks[:, 0]


def _branches(objective, x0, max_iters, tol):
    """What a search did, read from its objective calls (see lockstep_lbfgs): the
    iterations in which every live run took the unit step, the runs that backtracked
    to a shorter step and those that stayed put; and the SearchRuns."""
    calls = []

    def logged(points):
        calls.append(np.array(points))
        return objective(points)

    runs = lockstep_lbfgs(logged, x0, max_iters, tol)
    n = x0.shape[1]
    seen = dict.fromkeys(("unit", "took", "stayed"), 0)
    k = 1  # calls[0] is the stencil at the starts
    while k < len(calls):
        assert _stencil_centres(calls[k], n) is not None  # an iteration opens with the unit-step stencil
        k += 1
        if k == len(calls) or _stencil_centres(calls[k], n) is not None:
            seen["unit"] += 1
            continue
        trials, k = calls[k], k + 1
        centres = _stencil_centres(calls[k], n) if k < len(calls) else None
        took = 0
        if centres is not None and all((trials == c).all(axis=1).any() for c in centres):
            took, k = len(centres), k + 1
        seen["took"] += took
        seen["stayed"] += len(trials) // 7 - took
    return seen, runs


def test_cases_cover_the_branches():
    unit, _ = _branches(*_case("unit steps"))
    assert unit["unit"] > 3
    back, _ = _branches(*_case("backtracking"))
    assert back["took"] > 0
    stays, _ = _branches(*_case("stays put"))
    assert stays["stayed"] > 0
    nan = lockstep_lbfgs(*_case("NaN rows"))
    assert np.isnan(nan.fun).any() and not np.isnan(nan.fun).all()
    _, capped = _branches(*_case("max_iters"))
    assert (capped.nit == 3).all() and not capped.success.any()
    for name in ("R3 mixed qubit", "R5 spin 1"):
        _, runs = _branches(*_case(name))
        assert len(set(runs.nit.tolist())) > 1, name


def test_a_pair_with_negative_curvature_is_taken_and_warns_nothing():
    """The cosine case's run 0 meets Armijo at its first unit step, and that pair has s.y < 0."""
    objective, x0, _, _ = _case("s.y <= 0")
    h = prober._H

    def gradient(x):
        rows = x + np.vstack([np.zeros(2), h * np.eye(2), -h * np.eye(2)])
        f = objective(rows)
        return f[0], (f[1:3] - f[3:]) / (2 * h)

    f0, g0 = gradient(x0[0])
    x1 = x0[0] - g0
    f1, g1 = gradient(x1)
    assert f1 <= f0 - prober._ARMIJO * g0 @ g0
    assert (x1 - x0[0]) @ (g1 - g0) < 0
