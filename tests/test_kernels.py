import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from triplespin import kernels
from triplespin.moments import bloch_moments, pure_moments
from triplespin.relations import (
    QUBIT_SOAK_RELATIONS,
    RELATIONS,
    TRIANGLE_ANALOG_RELATIONS,
    RelationId,
    applicable_to,
    evaluate,
    soak_qubit,
)
from triplespin.spin_ops import build_spin_operators
from triplespin.states import (
    bloch_from_density,
    density_from_bloch,
    from_statevector,
    random_mixed_bloch,
    random_pure_bloch,
    random_pure_vectors,
)
from triplespin.triangle import TrianglePoint, check_analogs, sample_barycentric, scan


#: Every relation: each has a moment formula.
FORMULAS = tuple(spec.relation for spec in RELATIONS)


def _bloch_batch(n=400):
    return np.vstack([random_pure_bloch(n, 3), random_mixed_bloch(n, 4)])


def test_column_layouts():
    assert len(QUBIT_SOAK_RELATIONS) == 16
    assert len(TRIANGLE_ANALOG_RELATIONS) == 8
    assert kernels.BACKEND == "numpy"


def _fold_table(monkeypatch, gaps, bounds, block_rows, workers):
    """fold_chunks over gaps[r] at points r, in chunks split at `bounds`."""
    gaps = np.array(gaps, dtype=float)
    chunks = np.split(np.arange(len(gaps)), bounds)
    monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
    return kernels.fold_chunks(
        len(chunks), lambda c: chunks[c][:, None].astype(float), lambda block: gaps[block[:, 0].astype(int)]
    )


def test_min_fold_keeps_first_tied_row_and_nan(monkeypatch):
    gaps = [[2.0, 5.0, 1.0], [2.0, 4.0, np.nan], [2.0, 4.0, 0.0], [1.5, 6.0, 0.0]]
    mins, rows, counts = _fold_table(monkeypatch, gaps, [], 2, 1)  # one chunk, two blocks
    assert mins[:2].tolist() == [1.5, 4.0] and np.isnan(mins[2])
    assert rows[:, 0].tolist() == [3.0, 1.0, 1.0]
    assert counts is None


def test_min_fold_merge_keeps_the_earlier_chunk_on_a_tie_and_the_first_nan(monkeypatch):
    gaps = [[2.0, 5.0, np.nan, 3.0], [1.0, 4.0, 0.0, 3.0], [1.0, 4.0, np.nan, np.nan], [9.0, 9.0, 0.0, 0.0]]
    for workers in (1, 2):
        mins, rows, _ = _fold_table(monkeypatch, gaps, [2], 2, workers)
        # column 0 ties (the earlier row 1 stays), column 1 ties, column 2 keeps the
        # earlier NaN, and column 3 takes the later NaN over a finite minimum
        assert mins[:2].tolist() == [1.0, 4.0] and np.isnan(mins[2:]).all()
        assert rows[:, 0].tolist() == [1.0, 1.0, 0.0, 2.0]


def _tied_gaps():
    rng = np.random.default_rng(0)
    gaps = np.round(rng.normal(size=(600, 5)), 1)  # many ties across chunks
    gaps[[250, 420], [1, 1]] = np.nan
    gaps[450, 4] = np.nan
    return gaps


def test_min_fold_merge_in_chunk_order_equals_adding_chunk_after_chunk(monkeypatch):
    gaps = _tied_gaps()
    whole = _fold_table(monkeypatch, gaps, [], 50, 1)
    for workers in (1, 2):
        mins, rows, _ = _fold_table(monkeypatch, gaps, [100, 250, 300, 450], 50, workers)
        assert np.array_equal(whole[0], mins, equal_nan=True)
        assert np.array_equal(whole[1], rows)
        assert rows[1, 0] == 250.0 and rows[4, 0] == 450.0


@pytest.mark.parametrize("block_rows", [7, 50, 1000])
@pytest.mark.parametrize("bounds", [[], [100, 250, 300, 450], [1, 599]], ids=["one-chunk", "five", "edges"])
@pytest.mark.parametrize("workers", [1, 2])
def test_fold_equals_one_argmin_over_every_gap_in_draw_order(monkeypatch, block_rows, bounds, workers):
    gaps = _tied_gaps()
    mins, rows, _ = _fold_table(monkeypatch, gaps, bounds, block_rows, workers)
    i = gaps.argmin(axis=0)
    assert np.array_equal(mins, gaps[i, np.arange(5)], equal_nan=True)
    assert rows[:, 0].tolist() == i.tolist()


def test_fold_needs_a_chunk():
    with pytest.raises(ValueError, match="at least one chunk"):
        kernels.fold_chunks(0, lambda c: np.zeros((1, 1)), lambda block: np.zeros((1, 1)))


def test_fold_counts_equal_a_count_over_every_gap(monkeypatch):
    """Blocks whose minima all clear -tolerance skip the count; the counts stay exact."""
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 50)
    rng = np.random.default_rng(3)
    gaps = rng.random((400, 4))
    gaps[[60, 61, 320], [0, 0, 2]] = [-0.5, -1e-9, -0.2]  # two counted, one within tolerance
    gaps[[75, 380], [1, 3]] = np.nan
    points = np.arange(400.0)[:, None]
    for workers in (1, 2):
        monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
        mins, _, counts = kernels.fold_chunks(
            4, lambda c: points[100 * c : 100 * (c + 1)], lambda block: gaps[block[:, 0].astype(int)], 1e-6
        )
        assert counts.tolist() == np.count_nonzero(~(gaps >= -1e-6), axis=0).tolist() == [1, 1, 1, 1]
        assert mins[0] == -0.5 and np.isnan(mins[1]) and np.isnan(mins[3])


def _with_workers(monkeypatch, workers, fn, *args):
    monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
    return fn(*args)


def test_many_chunk_results_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 3000)
    for fn, args in ((soak_qubit, (20_000, 14_000, 6)), (scan, (25_000, 6, 1.5))):
        one, two = (repr(_with_workers(monkeypatch, w, fn, *args)) for w in (1, 2))
        assert one == two


def test_no_scan_thread_outlives_the_call(monkeypatch):
    real = kernels.triangle_analog_gaps
    threads = set()

    def recording(bary, side):
        threads.add(threading.current_thread())
        return real(bary, side)

    monkeypatch.setattr(kernels, "triangle_analog_gaps", recording)
    monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
    scan(kernels.CHUNK_ROWS, 1)  # one chunk: scored in the calling thread
    assert threads == {threading.current_thread()}
    scan(4 * kernels.CHUNK_ROWS, 1)
    workers = threads - {threading.current_thread()}
    assert workers and not any(t.is_alive() for t in workers)


@pytest.mark.skipif(os.name != "posix", reason="malloc_trim is looked up only in a POSIX libc")
@pytest.mark.parametrize("has_trim", [True, False], ids=["glibc", "no-malloc_trim"])
def test_a_threaded_fold_trims_the_freed_heap_after_the_join(monkeypatch, has_trim):
    """The workers' freed heap goes back once they join; a libc without malloc_trim is left alone."""
    calls = []
    libc = SimpleNamespace(malloc_trim=lambda pad: calls.append((pad, threading.active_count())))
    monkeypatch.setattr(kernels.ctypes, "CDLL", lambda name: libc if has_trim else SimpleNamespace())
    before = threading.active_count()
    gaps = [[2.0, 1.0], [0.5, 3.0], [1.0, -1.0], [4.0, 0.0]]
    one = _fold_table(monkeypatch, gaps, [1, 3], 2, 1)
    assert calls == []  # the calling thread's fold starts no workers to trim after
    two = _fold_table(monkeypatch, gaps, [1, 3], 2, 2)
    assert repr(one) == repr(two)
    assert calls == ([(0, before)] if has_trim else [])


def test_qubit_gaps_shape_and_validation():
    g = kernels.qubit_relation_gaps(_bloch_batch(50))
    assert g.shape == (100, 16)
    with pytest.raises(ValueError):
        kernels.qubit_relation_gaps(np.zeros((4, 2)))


def test_triangle_gaps_validation():
    with pytest.raises(ValueError):
        kernels.triangle_analog_gaps(np.zeros((4, 3)), side=0.0)
    with pytest.raises(ValueError):
        kernels.triangle_analog_gaps(np.zeros((4, 4)), side=1.0)
    for side in (np.nan, np.inf):
        with pytest.raises(ValueError):
            kernels.triangle_analog_gaps(np.zeros((4, 3)), side=side)


def test_kernel_matches_matrix_route():
    """Closed-form kernel gaps vs the spectral evaluate() route."""
    bloch = _bloch_batch(60)
    gaps = kernels.qubit_relation_gaps(bloch)
    for i in range(0, len(bloch), 11):
        st = density_from_bloch(bloch[i])
        for k, rel in enumerate(QUBIT_SOAK_RELATIONS):
            assert abs(gaps[i, k] - evaluate(rel, st, 1).gap) <= 1e-12


def test_one_relation_reads_only_its_moments():
    """Scored alone, each relation (computing only the moments it reads) gives its table column bit for bit."""
    bloch = _bloch_batch(40)
    gaps = kernels.qubit_relation_gaps(bloch)
    for k, rel in enumerate(QUBIT_SOAK_RELATIONS):
        assert np.array_equal(kernels.qubit_relation_gaps(bloch, (rel,))[:, 0], gaps[:, k]), rel
    h, w = bloch_moments(np.ascontiguousarray(bloch.T), reads=())[3:]
    assert h is None and w is None
    for twice_s in (1, 2):
        relations = tuple(rel for rel in RelationId if applicable_to(rel, twice_s))
        psis = random_pure_vectors(twice_s + 1, 40, 7)
        gaps = kernels.vector_scorer(relations, twice_s)(psis)
        for k, rel in enumerate(relations):
            assert np.array_equal(kernels.vector_scorer((rel,), twice_s)(psis)[:, 0], gaps[:, k]), rel


@pytest.mark.parametrize("twice_s", range(1, 9))
def test_stack_moments_are_covariant(twice_s):
    """column_moments of the columns U g equal stack_moments of g on the stack U^dag S_i U, within 1e-12.

    Every moment (d, v, e, h, w), for state vectors (r = 1) and mixed states (r = d).
    """
    dim = twice_s + 1
    reads = frozenset("dvehw")
    rng = np.random.default_rng(90 + twice_s)
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    ops = build_spin_operators(twice_s)
    rotated = kernels.stack_moments(u.conj().T @ ops @ u, reads)
    for r in (1, dim):
        cols = random_pure_vectors(r * dim, 24, 70 + twice_s, r).reshape(24, r, dim)
        spin = kernels.column_moments(twice_s, reads)(cols @ u.T)
        for got, want in zip(rotated(cols), spin, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("twice_s", range(1, 9))
def test_column_moments_are_the_spin_stacks_moments(twice_s):
    """column_moments(twice_s, reads) equals stack_moments on build_spin_operators(twice_s), bit for bit."""
    dim = twice_s + 1
    for reads in (frozenset("e"), frozenset("dvehw")):
        spin = kernels.column_moments(twice_s, reads)
        stack = kernels.stack_moments(build_spin_operators(twice_s), reads)
        for r in (1, dim):
            cols = random_pure_vectors(r * dim, 24, 60 + twice_s, r).reshape(24, r, dim)
            for got, want in zip(spin(cols), stack(cols), strict=True):
                assert got is want is None or np.array_equal(got, want)


def test_vector_scorer_matches_bloch_route_at_spin_half():
    """At spin 1/2 the state-vector scorer gives the Bloch scorer's 16 columns on the same states."""
    psis = random_pure_vectors(2, 500, 31)
    bloch = np.array([bloch_from_density(from_statevector(psi)) for psi in psis])
    vector = kernels.vector_scorer(QUBIT_SOAK_RELATIONS, 1)(psis)
    assert vector.shape == (500, 16)
    np.testing.assert_allclose(vector, kernels.qubit_relation_gaps(bloch), rtol=0, atol=1e-12)


def test_triangle_kernel_matches_report_route():
    """Kernel gaps vs the scalar check_analogs route, on both input layouts."""
    third = 1.0 / 3.0
    special = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],  # vertices
        [0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [0.7, 0.0, 0.3],  # edge points
        [third, third, third],  # centroid
    ])
    rng = np.random.default_rng(11)
    bary = rng.random((40, 3))
    bary /= bary.sum(axis=1, keepdims=True)
    contiguous = np.vstack([special, bary])
    sampled = sample_barycentric(40, seed=11)
    assert contiguous.flags.c_contiguous and sampled.T.flags.c_contiguous
    for side in (0.5, 1.5, 2.0):
        for batch in (contiguous, sampled):
            gaps = kernels.triangle_analog_gaps(batch, side)
            for point, row in zip(batch, gaps):
                reports = check_analogs(TrianglePoint(side, tuple(point)))
                for gap, rep in zip(row, reports):
                    assert abs(gap - rep.gap) <= 1e-12


@pytest.mark.parametrize("twice_s", range(1, 9))
def test_state_vector_rows_do_not_depend_on_their_batch(monkeypatch, twice_s):
    """Each row's moments and gaps equal, bit for bit, those of the row scored alone or in any prefix.

    A row is r columns of length d: a state vector (r = 1) or a mixed state
    (r = d). A 1-row batch is the case a batched matmul rounds differently;
    the searches and restarts of the prober rely on rows scored alike in any
    batch, and on blocks (kernels.CHUNK_ROWS columns) changing no bit.
    """
    dim = twice_s + 1
    ops = build_spin_operators(twice_s)
    pairs = ops + ops[[1, 2, 0]]
    # every relation's formula: d, v and e, entropies (h) and Var(Si+Sj) (w) between them
    score = kernels.vector_scorer(FORMULAS, twice_s)
    for r in (1, dim):
        rows = random_pure_vectors(r * dim, 24, 40 + twice_s, r)
        routes = [
            lambda p: pure_moments(p.reshape(len(p), r, dim), ops),
            lambda p: pure_moments(p.reshape(len(p), r, dim), pairs),
            lambda p: (score(p).T,),
        ]
        for route in routes:
            full = route(rows)
            for n in range(1, len(rows) + 1):
                for got, want in zip(route(rows[:n]), full):
                    assert np.array_equal(got, want[..., :n])
            for i in range(len(rows)):
                for got, want in zip(route(rows[i : i + 1]), full):
                    assert np.array_equal(got[..., 0], want[..., i])
        # blocks of 5 rows and of 1 row: five blocks, the last one short, and 24
        full = score(rows)
        for block_rows in (5, 1):
            monkeypatch.setattr(kernels, "CHUNK_ROWS", block_rows * r)
            assert np.array_equal(score(rows), full)
        monkeypatch.undo()


def test_bloch_rows_do_not_depend_on_their_batch():
    bloch = _bloch_batch(12)
    full = kernels.qubit_relation_gaps(bloch, FORMULAS)
    for n in range(1, len(bloch) + 1):
        assert np.array_equal(kernels.qubit_relation_gaps(bloch[:n], FORMULAS), full[:n])
    for i in range(len(bloch)):
        assert np.array_equal(kernels.qubit_relation_gaps(bloch[i : i + 1], FORMULAS)[0], full[i])
