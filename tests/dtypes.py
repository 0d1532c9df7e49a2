"""Helpers for tests that run the same code in 32-bit and in 64-bit.

A computation runs in the dtype of the arrays it is handed, so a 64-bit test
builds its tensors with an explicit dtype and casts its modules' parameters.
"""

import numpy as np

# test ids name the dtype as f32/f64
DTYPES = {"f32": np.float32, "f64": np.float64}


def cast_parameters(module, dtype):
    """Cast every parameter of ``module`` to ``dtype`` in place; returns it."""
    for p in module.parameters():
        p.data = p.data.astype(dtype)
    return module
