"""The soak, the triangle scan and the conjecture scan reduce chunk by chunk
in constant memory, and a scan block's table pass peaks near its moments; the
per-draw sweep holds one block of one (point, axis)'s outcomes at a time; the
prober's scorer scores its stencils in blocks."""

import platform
import sys
import tracemalloc

import pytest

from triplespin import kernels
from triplespin.measure_sim import ShotConfig, run_sweep, sweep_parameters
from triplespin.prober import ProbeConfig, min_gap, scan_conjecture
from triplespin.relations import RelationId, soak_qubit
from triplespin.states import Family, random_pure_bloch
from triplespin.triangle import sample_barycentric, scan

MIB = 1 << 20


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes Python and numpy allocate while fn runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_soak_peak_memory_is_bounded():
    # holding the gaps of all 8e5 states at once takes ~256 MiB
    assert traced_peak(soak_qubit, 400_000, 400_000, seed=1) < 64 * MIB


def test_triangle_scan_peak_memory_is_bounded():
    # holding the gaps of all 1e6 points at once takes ~191 MiB
    assert traced_peak(scan, 1_000_000, seed=1) < 64 * MIB


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts glibc's minor page faults, which depend on its heap trimming",
)
def test_a_warm_soak_keeps_its_pages(monkeypatch):
    """Each fold worker draws and scores into buffers it keeps, so chunks do not fault fresh pages in.

    Allocating its arrays chunk by chunk, a one-worker soak of 4 chunks faults
    about 5000 pages when warm, as glibc trims the freed heap top between them.
    """
    import resource  # POSIX only

    monkeypatch.setattr(kernels, "_scan_workers", lambda: 1)
    n = 4 * kernels.CHUNK_ROWS
    soak_qubit(n, n, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    soak_qubit(n, n, seed=2)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def _warm_block(scorer: str):
    """A scorer, one BLOCK_ROWS block of its points and a workspace it has scored into twice."""
    n = kernels.BLOCK_ROWS
    if scorer == "bloch":
        score, points = kernels.bloch_scorer(), random_pure_bloch(n, 1, 0, 0)
    else:
        score, points = kernels.triangle_scorer(1.0), sample_barycentric(n, 1, 0)
    ws = kernels.Workspace()
    score(points, ws)
    score(points, ws)
    return score, points, ws


#: The tracemalloc peak of a warm block of each scorer, in bytes a row
BLOCK_PEAKS = {"bloch": 168, "triangle": 144}


@pytest.mark.parametrize("scorer", BLOCK_PEAKS)
def test_a_warm_block_peaks_near_its_moments(scorer):
    """A table pass drops each moment and term after its last step and runs the families'
    rows when few values are alive, so a block's peak stays at that of its moments:
    168 B a row for the qubit scorer and 144 for the triangle's, plus about 1.4 kB
    a block. With every moment and term kept for the whole pass, a qubit block peaks
    at about 248 B a row; one more float a row kept alive (8 B) fails the bound."""
    score, points, ws = _warm_block(scorer)
    assert traced_peak(score, points, ws) <= (BLOCK_PEAKS[scorer] + 4) * kernels.BLOCK_ROWS


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts glibc's minor page faults, which depend on its heap trimming",
)
@pytest.mark.parametrize("scorer", ["bloch", "triangle"])
def test_warm_blocks_on_the_main_thread_keep_their_pages(monkeypatch, scorer):
    """Once a warm scan has freed its workspaces, glibc's trim threshold exceeds a block's
    temporaries, so 200 blocks scored on the main thread fault no fresh pages; a table
    pass whose peak rose past it would have the heap top trimmed and faulted back in
    every block (a few hundred pages a qubit block)."""
    import resource  # POSIX only

    monkeypatch.setattr(kernels, "_scan_workers", lambda: 1)
    soak_qubit(4 * kernels.CHUNK_ROWS, 4 * kernels.CHUNK_ROWS, seed=1)
    score, points, ws = _warm_block(scorer)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        score(points, ws)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_conjecture_scan_peak_memory_is_bounded():
    # holding all 4e5 spin-3/2 samples and their gaps at once takes ~262 MiB
    cfg = ProbeConfig(seed=1, max_iters=50)
    assert traced_peak(scan_conjecture, 3, 400_000, cfg) < 64 * MIB


def test_mixed_probe_scores_its_stencils_in_blocks():
    # 64 runs of 2 d^2 = 162 parameters at twice_s 8: scoring all 20800 stencil rows
    # (187200 columns) at once peaks at ~300 MB
    cfg = ProbeConfig(seed=0, max_iters=1)
    assert traced_peak(min_gap, RelationId.R7_SUM_GENERAL_S, 8, cfg, mixed=True) < 160 * MIB


def test_per_draw_sweep_peak_memory_is_bounded():
    # drawing all 200 x 3 x 1e5 outcomes at once takes ~480 MB
    cfg = ShotConfig(shots=100_000, seed=1)
    params = sweep_parameters(Family.R1_LATITUDE, 200)
    assert traced_peak(run_sweep, Family.R1_LATITUDE, params, cfg, per_draw=True) < 16 * MIB


def test_per_draw_shots_are_drawn_in_blocks():
    # drawing all 4e6 outcomes of one (point, axis) at once takes ~31 MiB
    cfg = ShotConfig(shots=4_000_000, seed=1)
    params = sweep_parameters(Family.R1_LATITUDE, 2)
    assert traced_peak(run_sweep, Family.R1_LATITUDE, params, cfg, per_draw=True) < 4 * MIB
