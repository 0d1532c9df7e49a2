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


def kept_bytes(op, *args):
    """Bytes a tape keeps for recording ``op(*args)`` once the caller has
    dropped every tensor. Each ndarray argument is first made the output of
    an earlier record on that tape, so it is no leaf: the tape keeps its
    array only if ``op``'s closure does. Other arguments pass as they are."""
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            tensors = [T.scale(T.Tensor(a, a.dtype), 1.0) if isinstance(a, np.ndarray) else a
                       for a in args]
            op(*tensors)
        del tensors
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    made = sum(isinstance(a, np.ndarray) for a in args)
    assert [T.record_name(fn) for _, _, fn in tape] == ["tensor.scale"] * made + [T.record_name(op)]
    return kept


def relu_like_gradient(rng, shape, dtype):
    """Normal entries, a third of them -0.0 (as a relu mask leaves a negative
    gradient) and one inf."""
    g = rng.standard_normal(shape)
    g[rng.uniform(size=shape) < 1 / 3] = -0.0
    g.flat[g.size // 2] = np.inf
    return g.astype(dtype)
