"""Helpers for tests that run the same code in 32-bit and in 64-bit.

A computation runs in the dtype of the arrays it is handed, so a 64-bit test
builds its tensors with an explicit dtype and casts its modules with
``Module.astype``.
"""

import numpy as np

# test ids name the dtype as f32/f64
DTYPES = {"f32": np.float32, "f64": np.float64}
