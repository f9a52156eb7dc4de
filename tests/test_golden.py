"""Seeded CLI outputs pinned byte for byte against files in tests/golden.

The soak report was recorded before the triangle sampler drew its weights as
(3, n) columns, and guards that the soak did not move with it; the triangle
report pins that (3, n) draw layout.
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
    ],
)
def test_seeded_output_matches_golden(capsys, argv, name):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
