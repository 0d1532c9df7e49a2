"""Helpers for tests that look at what one tape record holds."""

import tracemalloc

import numpy as np

from pmtk import tensor as T

# the tape, its record, the closure and the output's array header:
# 1.4-1.9 KB on the conv2d and scan_core records the tests take
RECORD_OVERHEAD = 4096


def retained_bytes(op, *args):
    """Bytes that recording ``op(*args)`` on a fresh tape leaves allocated,
    and the op's output. tracemalloc counts numpy's buffers exactly."""
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            out = op(*args)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    return retained, out


def relu_like_gradient(rng, shape, dtype):
    """Normal entries, a third of them -0.0 (as a relu mask leaves a negative
    gradient) and one inf."""
    g = rng.standard_normal(shape)
    g[rng.uniform(size=shape) < 1 / 3] = -0.0
    g.flat[g.size // 2] = np.inf
    return g.astype(dtype)
