"""Float precision, as recorded with a benchmark run.

The dtype a ``Tensor`` is built in when none is given is ``tensor.DEFAULT``
(float32); every computation runs in the dtype of the arrays it is handed.
"""

from __future__ import annotations


def precision() -> str:
    """Name of the default dtype."""
    return "f32"
