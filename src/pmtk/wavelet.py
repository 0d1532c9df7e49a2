"""Single-level 2-D Haar transform, orthonormal convention, and its block layout.

Each non-overlapping 2x2 block

    [a b]
    [c d]

maps to four half-resolution coefficients:

    ll = (a + b + c + d) / 2      local average (x sqrt(2)^2 scaling)
    lh = (a - b + c - d) / 2      horizontal detail
    hl = (a + b - c - d) / 2      vertical detail
    hh = (a - b - c + d) / 2      diagonal detail

The 4x4 butterfly behind this (``_butterfly``) is symmetric and orthogonal,
hence involutory: synthesis applies the very same arithmetic to
(ll, lh, hl, hh), and the transform is self-adjoint.

This module owns the block layout. ``blocks`` gives the entries a, b, c and
d of every block as four strided views, and ``merge`` builds the array whose
blocks are four given parts. ``dwt2`` and ``idwt2`` are the butterfly on
them. The diffusion in ``pmd`` moves the block entries through the same
``blocks`` and ``merge`` without forming the subbands; this module's
transforms serve ``pmtk dwt`` and are the subband reference that the
diffusion tests compare against.

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


def blocks(u: np.ndarray) -> tuple:
    """Views (a, b, c, d) of the entries of each 2x2 block [[a, b], [c, d]].

    Each is [..., H/2, W/2], strided by 2 on the trailing axes of ``u``.
    Raises DimensionError unless ``u`` has at least 2 axes and both
    trailing extents are even and >= 2.
    """
    if u.ndim < 2:
        raise DimensionError(f"need at least 2 axes, got shape {u.shape}")
    h, w = u.shape[-2:]
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise DimensionError(f"trailing extents must be even and >= 2, got {h}x{w}")
    return (u[..., 0::2, 0::2], u[..., 0::2, 1::2],
            u[..., 1::2, 0::2], u[..., 1::2, 1::2])


def merge(parts) -> np.ndarray:
    """A new array whose ``blocks`` are ``parts``: four arrays of one shape
    [..., h, w], or one array [4, ..., h, w]. Inverts ``np.stack(blocks(u))``."""
    h, w = parts[0].shape[-2:]
    u = np.empty(parts[0].shape[:-2] + (2 * h, 2 * w), np.result_type(*parts))
    for view, part in zip(blocks(u), parts):
        view[...] = part
    return u


def _butterfly(w, x, y, z) -> tuple:
    """The 4x4 Haar map on block entries or subbands; its own inverse."""
    return ((w + x + y + z) * 0.5, (w - x + y - z) * 0.5,
            (w + x - y - z) * 0.5, (w - x - y + z) * 0.5)


def dwt2(u: np.ndarray) -> SubbandSet:
    """Analyze ``u`` into four subbands of half the trailing extents."""
    return SubbandSet(*_butterfly(*blocks(np.asarray(u))))


def idwt2(s: SubbandSet) -> np.ndarray:
    """Synthesize the full-resolution array back from four subbands."""
    ll, lh, hl, hh = s
    if not (ll.shape == lh.shape == hl.shape == hh.shape):
        raise DimensionError("subbands must share one shape, got "
                             f"{ll.shape}/{lh.shape}/{hl.shape}/{hh.shape}")
    return merge(_butterfly(ll, lh, hl, hh))
