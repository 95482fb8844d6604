"""Traced-memory helper shared by the tests that bound what a layer holds."""

import tracemalloc

MB = 1 << 20


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy's buffers included) in fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
