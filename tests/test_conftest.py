"""Tests of the shared test helpers in ``conftest.py``."""

import tracemalloc

import numpy as np
import pytest
from conftest import traced_peak


@pytest.fixture(params=[False, True], ids=["untraced", "traced"])
def traced_before(request):
    """Tracing off, or already on as under ``PYTHONTRACEMALLOC=1``; restored after."""
    was_tracing = tracemalloc.is_tracing()
    if request.param:
        tracemalloc.start()
    else:
        tracemalloc.stop()
    yield request.param
    if was_tracing:
        tracemalloc.start()
    else:
        tracemalloc.stop()


def _allocate_and_free(n):
    return np.ones(n).sum()


def test_traced_peak_counts_only_the_call(traced_before):
    # Held before the call, so never part of its peak.
    held = np.ones(1 << 20)
    peak, total = traced_peak(_allocate_and_free, 1 << 17)
    assert total == 1 << 17
    # The call's 1 MiB array and a little bookkeeping, not the 8 MiB held.
    assert 1 << 20 <= peak < 2 << 20, f"peak {peak} bytes"
    # A trace that was on before stays on; one the helper started stops.
    assert tracemalloc.is_tracing() == traced_before
    del held
