"""Single-level 2-D Haar transform, orthonormal convention.

Each non-overlapping 2x2 block

    [a b]
    [c d]

maps to four half-resolution coefficients:

    ll = (a + b + c + d) / 2      local average (x sqrt(2)^2 scaling)
    lh = (a - b + c - d) / 2      horizontal detail
    hl = (a + b - c - d) / 2      vertical detail
    hh = (a - b - c + d) / 2      diagonal detail

The 4x4 butterfly behind this is symmetric and orthogonal, hence involutory:
synthesis applies the very same arithmetic to (ll, lh, hl, hh), and the
transform is self-adjoint.

The diffusion in ``pmd`` does not call these functions: it moves the block
entries directly, and its backward pass relies on its own per-block map being
symmetric. This module serves ``pmtk dwt`` and is the subband reference that
the diffusion tests compare against.

All functions act on the trailing two axes, so channel stacks [B, C, H, W]
work unchanged. Trailing extents must be even.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError


class SubbandSet(NamedTuple):
    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray


def _check_even(shape) -> None:
    if len(shape) < 2:
        raise DimensionError(f"need at least 2 axes, got shape {shape}")
    h, w = shape[-2], shape[-1]
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise DimensionError(f"trailing extents must be even and >= 2, got {h}x{w}")


def dwt2(u: np.ndarray) -> SubbandSet:
    """Analyze ``u`` into four subbands of half the trailing extents."""
    u = np.asarray(u)
    _check_even(u.shape)
    a = u[..., 0::2, 0::2]
    b = u[..., 0::2, 1::2]
    c = u[..., 1::2, 0::2]
    d = u[..., 1::2, 1::2]
    return SubbandSet(
        ll=(a + b + c + d) * 0.5,
        lh=(a - b + c - d) * 0.5,
        hl=(a + b - c - d) * 0.5,
        hh=(a - b - c + d) * 0.5,
    )


def idwt2(s: SubbandSet) -> np.ndarray:
    """Synthesize the full-resolution array back from four subbands."""
    ll, lh, hl, hh = s
    if not (ll.shape == lh.shape == hl.shape == hh.shape):
        raise DimensionError("subbands must share one shape, got "
                             f"{ll.shape}/{lh.shape}/{hl.shape}/{hh.shape}")
    out_shape = ll.shape[:-2] + (2 * ll.shape[-2], 2 * ll.shape[-1])
    u = np.empty(out_shape, dtype=np.result_type(ll, lh, hl, hh))
    u[..., 0::2, 0::2] = (ll + lh + hl + hh) * 0.5
    u[..., 0::2, 1::2] = (ll - lh + hl - hh) * 0.5
    u[..., 1::2, 0::2] = (ll + lh - hl - hh) * 0.5
    u[..., 1::2, 1::2] = (ll - lh - hl + hh) * 0.5
    return u
