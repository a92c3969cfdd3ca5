"""The traced memory peak of one call, shared by the memory tests."""

from __future__ import annotations

import tracemalloc


def traced_peak(call, warm_up=None):
    """``(call(), peak)``: the result and the ``tracemalloc`` peak in bytes of
    one call, traced after an untraced ``warm_up()`` (``call()`` itself unless
    given) has made the first-use allocations, such as loading the kernels."""
    (warm_up or call)()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
