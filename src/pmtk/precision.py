"""Float precision: a property of the arrays, not of the process.

Every computation runs in the dtype of the arrays it is handed, following
numpy's promotion rules. ``DEFAULT`` is the dtype a ``Tensor`` is built in
when none is given, so parameters and images start in 32-bit; a 64-bit
model is one cast with ``Module.astype(np.float64)``, as the gradient
checker casts every model it probes.
"""

from __future__ import annotations

import numpy as np

DEFAULT = np.dtype(np.float32)


def precision() -> str:
    """Name of the default dtype."""
    return "f32"
