"""Seeded CLI outputs pinned byte for byte against files in tests/golden.

The 2000-state soak report was recorded before the triangle sampler drew its
weights as (3, n) columns, and guards that the soak did not move with it; the
5000-point triangle report pins that (3, n) draw layout. Both fit in one
chunk. The 100000-state soak and the 250000-point triangle reports span
several chunks (kernels.CHUNK_ROWS) and were recorded while chunks were still
folded one after another in one thread, so they pin the fold across chunks
and blocks, whatever the thread count.
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
    ],
)
def test_seeded_output_matches_golden(capsys, argv, name):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
