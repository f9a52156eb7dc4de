"""The soak and the triangle scan reduce chunk by chunk in constant memory."""

import tracemalloc

from triplespin.relations import soak_qubit
from triplespin.triangle import scan

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
