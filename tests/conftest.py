import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` gives ``fn()`` and the most memory it held at once
    beyond what was held before."""

    def run(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return run
