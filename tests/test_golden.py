"""Seeded CLI outputs pinned byte for byte against files in tests/golden.

The 2000-state soak report was recorded before the triangle sampler drew its
weights as (3, n) columns, and guards that the soak did not move with it; the
5000-point triangle report pins that (3, n) draw layout. Both fit in one
chunk. The 100000-state soak and the 250000-point triangle reports span
several chunks (kernels.CHUNK_ROWS) and were recorded while chunks were still
folded one after another in one thread, so they pin the fold across chunks
and blocks, whatever the thread count. The simulate CSVs were recorded while
every shot-sweep stream was built by rng.stream, one per point and axis, and
pin the batched key derivation (rng.map_streams) to it: binomial and per-draw
counts, and a seed of two 32-bit words. They were recorded while
measure_sim.rows_to_csv still formatted each field of per-row objects, so they
also pin the columnar renderer that replaced it (one "%.12g" template per row
over the Sweep's arrays). The probe JSONs were recorded when
the lockstep L-BFGS search (then two objective calls an iteration on
central differences) replaced Nelder-Mead: a pure spin-2 search, a mixed qubit
search, a small conjecture scan and the R10 search whose first restart gap
once changed with the number of restarts. Their min_gap (and R7's
variance_sum_min), which evaluate computes on the argmin state, were
recorded again when evaluate took its moments from the state-vector scorer's
builder (kernels.column_moments) on rho's scaled eigenvectors; the searches,
restart gaps and argmin states kept their bytes. The R7 JSON was recorded
again when the pure-state chart's first amplitude became x_0 of either sign
instead of |x_0|: its restart 0 no longer stalls at the kink x_0 = 0. The
other three kept their bytes. The three pure-state JSONs (R7, the conjecture
scan and R10) were recorded again when that chart lost its gauge and became
the 2d reals of the amplitudes' (re, im) pairs: the searches take other
paths to the same minima, with the same best_restart, agreeing_restarts and
converged. The mixed qubit JSON, whose Bloch-ball chart did not change, kept
its bytes. The mixed qubit JSON was recorded again when the Bloch-ball chart
went and a mixed search became two columns of one unit vector of C^4 (8
reals where the Bloch ball had 3): its min_gap stayed -1.3877787807814457e-17,
and evaluations went 808 -> 1168. The other ten kept their bytes. The four
probe JSONs were recorded again when an iteration began with the gradient
stencil at the unit step and only the runs that failed Armijo there scored
the shorter steps, and when the argmin's diagonal got exactly zero
imaginary parts: only evaluations (933 -> 833, 1168 -> 888, 6220 -> 5226,
733 -> 501) and those imaginary parts (up to 1.5e-17 before) changed; the
searches, restart gaps, min_gap and every real part kept their bytes, as
did the other seven files.
"""

from pathlib import Path

import pytest

from triplespin.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["soak", "--pure", "2000", "--mixed-n", "2000", "--seed", "0"], "soak_pure2000_mixed2000_seed0.txt"),
        (["triangle", "--samples", "5000", "--seed", "3"], "triangle_samples5000_seed3.json"),
        (
            ["soak", "--pure", "100000", "--mixed-n", "100000", "--seed", "0"],
            "soak_pure100000_mixed100000_seed0.txt",
        ),
        (["triangle", "--samples", "250000", "--seed", "1"], "triangle_samples250000_seed1.json"),
        (["simulate", "--family", "r2", "--points", "181", "--seed", "7"], "simulate_r2_points181_seed7.csv"),
        (
            ["simulate", "--family", "r1", "--points", "34", "--shots", "10000", "--per-draw", "--seed", "6"],
            "simulate_r1_points34_shots10000_perdraw_seed6.csv",
        ),
        (
            ["simulate", "--family", "r1", "--points", "19", "--seed", str(2**64 - 1)],
            "simulate_r1_points19_seed18446744073709551615.csv",
        ),
        (
            ["probe", "--relation", "R7", "--spin", "4", "--restarts", "3", "--max-iters", "100", "--seed", "1"],
            "probe_R7_spin4_restarts3_iters100_seed1.json",
        ),
        (
            ["probe", "--relation", "R3", "--spin", "1", "--mixed", "--restarts", "4", "--seed", "2"],
            "probe_R3_spin1_mixed_restarts4_seed2.json",
        ),
        (
            ["probe", "--conjecture", "--spin", "3", "--samples", "500", "--max-iters", "100", "--seed", "3"],
            "probe_conjecture_spin3_samples500_iters100_seed3.json",
        ),
        (
            ["probe", "--relation", "R10", "--spin", "1", "--restarts", "4", "--max-iters", "700", "--seed", "2"],
            "probe_R10_spin1_restarts4_iters700_seed2.json",
        ),
    ],
)
def test_seeded_output_matches_golden(capsys, argv, name):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
