"""Helpers for tests that look at what one tape record holds."""

import tracemalloc

import numpy as np

from pmtk import tensor as T

# the tape, its records, the closures and the output's array header:
# 0.7-1.9 KB on the records the tests take, alone or in the full suite
RECORD_OVERHEAD = 4096


def retained_bytes(op, *args):
    """Bytes that recording ``op(*args)`` on a fresh tape holds, and the
    output's size in bytes. The bytes are those that dropping the tape and
    the output frees, so buffers that numpy or Python cache while the op
    runs stay allocated on both sides and cancel: the figure does not depend
    on which tests ran before. tracemalloc counts numpy's buffers exactly."""
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            out = op(*args)
        assert len(tape) == 1
        nbytes = out.data.nbytes
        held, _ = tracemalloc.get_traced_memory()
        del tape, out
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - left, nbytes


def kept_bytes(op, *args):
    """Bytes a tape keeps for recording ``op(*args)`` once the caller has
    dropped every tensor: what dropping the tape then frees, so cached
    buffers cancel as in ``retained_bytes``. Each ndarray argument is first
    made the output of an earlier record on that tape, so it is no leaf:
    the tape keeps its array only if ``op``'s closure does. Other arguments
    pass as they are."""
    made = sum(isinstance(a, np.ndarray) for a in args)
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            tensors = [T.scale(T.Tensor(a, a.dtype), 1.0) if isinstance(a, np.ndarray) else a
                       for a in args]
            op(*tensors)
        del tensors
        names = [T.record_name(fn) for _, _, fn in tape]
        held, _ = tracemalloc.get_traced_memory()
        del tape
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert names == ["tensor.scale"] * made + [T.record_name(op)]
    return held - left


def relu_like_gradient(rng, shape, dtype):
    """Normal entries, a third of them -0.0 (as a relu mask leaves a negative
    gradient) and one inf."""
    g = rng.standard_normal(shape)
    g[rng.uniform(size=shape) < 1 / 3] = -0.0
    g.flat[g.size // 2] = np.inf
    return g.astype(dtype)
