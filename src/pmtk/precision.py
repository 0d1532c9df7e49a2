"""Float precision: a property of the arrays, not of the process.

Every computation runs in the dtype of the arrays it is handed, following
numpy's promotion rules. ``DEFAULT`` is the dtype a ``Tensor`` is built in
when none is given, so parameters and images start in 32-bit; a 64-bit
model is one whose parameters were cast to float64.
"""

from __future__ import annotations

import numpy as np

DEFAULT = np.dtype(np.float32)

# (tolerance, noise-floor coefficient) of a gradient check, by the dtype of
# the leaves checked. The floor is per unit of loss magnitude; it is looser in
# 32-bit, where the tape itself perturbs small gradient entries by
# ~eps32 * intermediate scale.
GRADCHECK = {
    np.dtype(np.float32): (1e-3, 1e-3),
    np.dtype(np.float64): (1e-6, 1e-4),
}


def precision() -> str:
    """Name of the default dtype."""
    return "f32"
