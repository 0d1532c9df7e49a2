"""Perona-Malik diffusion: finite-difference reference solver and wavelet form.

Two solvers share one diffusivity g(m) = 1 / (1 + (m/k)^2):

* ``pmd_step_fd`` discretizes the divergence form directly: forward
  differences for the gradient, diffusivity on its magnitude, backward
  differences for the divergence, reflective boundaries. The pairwise fluxes
  telescope, so the global mean is conserved exactly, and for dt <= 0.25 the
  update is a convex combination of neighbors (discrete extremum principle).

* ``pmd_step_dwt`` works in the Haar domain: the two first-order detail bands
  are scaled by g of their joint magnitude. ``attenuate`` mode reconstructs
  from {ll, g*lh, g*hl, hh} and can only shrink detail energy; ``as-written``
  mode adds the reconstruction of {0, g*lh, g*hl, 0} back onto the input,
  which sharpens rather than smooths and is kept for comparison.

The wavelet step never forms the subbands. For a 2x2 block [[a, b], [c, d]]
with diagonal differences p = a - d and q = b - c (``wavelet`` documents the
bands), lh = (p - q)/2 and hl = (p + q)/2, so |(lh, hl)| = sqrt((p^2 + q^2)/2).
Scaling lh and hl by the gate m and synthesizing changes only the diagonal
pairs: a += f*p, d -= f*p, b += f*q, c -= f*q, with f = (m - 1)/2 in
attenuate mode and f = m/2 in as-written mode; ll and hh pass through. Per
block the map on (a, d) and on (b, c) is [[1+f, -f], [-f, 1+f]], which is
symmetric, so at a fixed gate the step is self-adjoint.

The block layout belongs to ``wavelet``: ``blocks`` gives the a, b, c and d
entries as four strided views, and ``merge`` builds an array from four such
parts. Every wavelet user runs one step, ``_step``, in place on four
same-shape arrays of block entries; it returns the gate, and its diagonal
moves are ``_move``, which ``pmd_apply``'s backward reuses. ``pmd_step_dwt``
and the tape op ``pmd_apply`` pass it the ``blocks`` of a copy of their
input. The denoising run, ``denoise_with_log`` without a ``step_fn``
(``pmtk denoise`` in both wavelet modes), copies the image once into four
contiguous planes [4, ..., H/2, W/2] (``_to_planes``), steps the planes in
place and ``merge``s them back into the image once at the end. At 512x512 a
step on the planes takes about half the time of one on strided views, but the
two conversions cost more than one step saves, so only a run of many steps
converts.

The fd solver and the denoising log's masks share one forward-difference
helper, ``_forward_diff``; each logged step then takes its forward differences
at the edge pixels only, through the neighbour indices of
``_forward_neighbours``, mapped to plane positions (``_plane_positions``) when
the run is on planes.

``pmd_apply`` is the wavelet step as a tape op, whose backward is the
derivative of the step, gate included; ``model.PmdBlock`` runs it ahead of
its convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .wavelet import blocks, merge

MODES = ("as-written", "attenuate")


@dataclass(frozen=True)
class DiffusionConfig:
    k: float = 1.0
    steps: int = 1
    # the largest step pmd_step_fd accepts; the wavelet step never reads dt
    dt: float = 0.25
    mode: str = "attenuate"

    def __post_init__(self):
        if self.k <= 0:
            raise ConfigError(f"contrast constant k must be positive, got {self.k}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


def diffusivity(grad_mag: np.ndarray, k: float) -> np.ndarray:
    """Edge-stopping weight 1/(1+(m/k)^2); 1 at m=0, 0.5 at m=k, 0.1 at m=3k."""
    if k <= 0:
        raise ConfigError(f"contrast constant k must be positive, got {k}")
    m = np.asarray(grad_mag)
    r = m / k
    return 1.0 / (1.0 + r * r)


def _forward_diff(u: np.ndarray) -> tuple:
    """(dx, dy, |grad u|) by forward differences on the trailing two axes.

    The last column of dx and last row of dy are zero: with a reflective
    boundary the outermost difference, and so the outermost flux, vanishes.
    """
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dx[..., :, :-1] = u[..., :, 1:] - u[..., :, :-1]
    dy[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    return dx, dy, np.sqrt(dx * dx + dy * dy)


def _forward_neighbours(idx: np.ndarray, shape: tuple) -> tuple:
    """Flat indices of the right and down neighbours of flat indices ``idx``.

    Rows and columns are the trailing two axes of ``shape``. On the last
    column (row) a pixel is its own right (down) neighbour, so its forward
    difference is exactly 0, as in ``_forward_diff``.
    """
    h, w = shape[-2:]
    col = idx % w
    row = idx // w % h
    return (np.where(col < w - 1, idx + 1, idx),
            np.where(row < h - 1, idx + w, idx))


def pmd_step_fd(u: np.ndarray, cfg: DiffusionConfig) -> np.ndarray:
    """One explicit Euler step of div(g(|grad u|) grad u) on the trailing axes."""
    if cfg.dt > 0.25:
        raise ConfigError(f"finite-difference scheme needs dt <= 0.25, got {cfg.dt}")
    u = np.asarray(u)
    if u.ndim < 2:
        raise DimensionError(f"need at least 2 axes, got shape {u.shape}")
    dx, dy, mag = _forward_diff(u)
    g = diffusivity(mag, cfg.k)
    px = g * dx
    py = g * dy
    # Backward-difference divergence; missing terms at the low edge are the
    # zero reflective fluxes.
    div = px + py
    div[..., :, 1:] -= px[..., :, :-1]
    div[..., 1:, :] -= py[..., :-1, :]
    return u + cfg.dt * div


def _gate(p: np.ndarray, q: np.ndarray, k: float) -> np.ndarray:
    """g of the Haar detail magnitude |(lh, hl)| = sqrt((p^2 + q^2)/2)."""
    return diffusivity(np.sqrt((p * p + q * q) * 0.5), k)


def _factor(m: np.ndarray, mode: str) -> np.ndarray:
    """The step's f for gate ``m``: (m - 1)/2 attenuating, m/2 as written."""
    return (m - 1.0) * 0.5 if mode == "attenuate" else m * 0.5


def _move(parts, p: np.ndarray, q: np.ndarray) -> None:
    """Move the diagonal pairs of the blocks ``parts`` = (a, b, c, d) in place:
    a += p, d -= p, b += q, c -= q."""
    a, b, c, d = parts
    a += p
    d -= p
    b += q
    c -= q


def _step(parts, k: float, mode: str) -> np.ndarray:
    """One wavelet-domain diffusion step, in place on the block entries
    ``parts`` = (a, b, c, d); returns the gate m.

    With ``(p, q) = (a - d, b - c)`` the diagonal differences, moves the pairs
    by f*p and f*q (``_move``), where f = (m - 1)/2 in attenuate mode and
    m/2 in as-written mode. That equals idwt2 of {ll, m*lh, m*hl, hh}, or u
    plus idwt2 of {0, m*lh, m*hl, 0}. For a fixed gate the map is symmetric,
    so it is its own adjoint.
    """
    a, b, c, d = parts
    p = a - d
    q = b - c
    m = _gate(p, q, k)
    f = _factor(m, mode)
    p *= f
    q *= f
    _move(parts, p, q)
    return m


def pmd_step_dwt(u: np.ndarray, cfg: DiffusionConfig) -> np.ndarray:
    """One wavelet-domain diffusion step on the trailing two axes."""
    out = np.asarray(u).copy()
    _step(blocks(out), cfg.k, cfg.mode)
    return out


# ---------------------------------------------------------------------------
# Denoising run with per-step measurements (CLI `denoise`)
# ---------------------------------------------------------------------------

def _to_planes(u: np.ndarray) -> np.ndarray:
    """Copy the ``blocks`` of ``u`` into contiguous planes [4, ..., H/2, W/2];
    ``merge`` inverts it."""
    return np.stack(blocks(u))


def _plane_positions(shape: tuple, *index_sets: np.ndarray) -> tuple:
    """Map flat C-order pixel indices of an image of ``shape`` into ``_to_planes``.

    ``merge`` of the planes' own flat positions is the image that holds, at
    each pixel, where ``_to_planes`` puts it. That map is built once, read at
    each index set and dropped on return.
    """
    h, w = shape[-2:]
    n = int(np.prod(shape))
    where = merge(np.arange(n).reshape((4, *shape[:-2], h // 2, w // 2))).reshape(-1)
    return tuple(where[i] for i in index_sets)


def _measurement_masks(u0: np.ndarray) -> tuple:
    """Split pixels by the initial gradient magnitude: flat set vs edge set."""
    mag = _forward_diff(u0)[2]
    flat = mag <= np.median(mag)
    edge = mag >= np.quantile(mag, 0.9)
    return flat, edge


def denoise_with_log(u0: np.ndarray, cfg: DiffusionConfig, step_fn=None) -> tuple:
    """Run diffusion and record (step, flat_variance, edge_contrast) per step.

    flat_variance: intensity variance over the initially flattest half of the
    pixels. edge_contrast: mean gradient magnitude over the initially
    strongest decile. Both masks come from the input, so rows are comparable
    across steps.

    Index sets: the two masks of ``_measurement_masks(u0)`` become flat
    indices once, in C order as boolean indexing visits them, and stay fixed
    for the run. Each step reads ``u`` only at those indices and at the edge
    pixels' right and down neighbours (``_forward_neighbours``). The values,
    their order and the reductions are those of masking the full
    ``_forward_diff`` magnitude, so the rows are the same bit for bit.

    With ``step_fn`` None the wavelet step runs on Haar planes: ``u0`` is
    copied once into ``_to_planes``'s layout, each step updates the planes in
    place, and ``merge`` writes them back into the image once at the end. The
    four index sets are mapped to their plane positions once
    (``_plane_positions``), so the log gathers the same values in the same
    order as on the image, and rows and output equal those of
    ``step_fn=pmd_step_dwt`` bit for bit.
    """
    planar = step_fn is None
    u = _to_planes(u0) if planar else u0.copy()
    flat, edge = (np.flatnonzero(m) for m in _measurement_masks(u0))
    right, down = _forward_neighbours(edge, u0.shape)
    if planar:
        flat, edge, right, down = _plane_positions(u0.shape, flat, edge, right, down)

    def measure(u, step):
        v = u.reshape(-1)
        at = v[edge]
        dx = v[right] - at
        dy = v[down] - at
        return (step, float(v[flat].var()), float(np.sqrt(dx * dx + dy * dy).mean()))

    rows = [measure(u, 0)]
    for step in range(1, cfg.steps + 1):
        if planar:
            _step(u, cfg.k, cfg.mode)
        else:
            u = step_fn(u, cfg)
        rows.append(measure(u, step))
    return (merge(u) if planar else u), rows


# ---------------------------------------------------------------------------
# Sobel edge feature and tape-side diffusion
# ---------------------------------------------------------------------------

def sobel_magnitude(x: np.ndarray) -> np.ndarray:
    """3x3 Sobel gradient magnitude per channel, symmetric boundary."""
    kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=x.dtype)
    ky = kx.T
    H, W = x.shape[-2], x.shape[-1]
    # the one-pixel symmetric border (each edge repeated) is written by hand:
    # numpy's pad function runs ~45 us of Python per call
    xp = np.empty(x.shape[:-2] + (H + 2, W + 2), dtype=x.dtype)
    xp[..., 1:-1, 1:-1] = x
    xp[..., 0, 1:-1] = x[..., 0, :]
    xp[..., -1, 1:-1] = x[..., -1, :]
    xp[..., 0] = xp[..., 1]
    xp[..., -1] = xp[..., -2]
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    for i in range(3):
        for j in range(3):
            patch = xp[..., i:i + H, j:j + W]
            if kx[i, j]:
                gx = gx + kx[i, j] * patch
            if ky[i, j]:
                gy = gy + ky[i, j] * patch
    return np.sqrt(gx * gx + gy * gy)


def pmd_apply(x: T.Tensor, k: float = 1.0, mode: str = "attenuate") -> T.Tensor:
    """Tape-recorded wavelet diffusion step; the backward is its exact derivative.

    The forward is ``_step`` on the ``blocks`` of a copy of ``x``. Per 2x2
    block it moves the diagonal pairs: a += f*p, d -= f*p, b += f*q,
    c -= f*q with f = _factor(m), m = 1/(1 + r2/k^2) and r2 = (p^2 + q^2)/2.
    At fixed m its transpose is the same move on the block gradients
    (ga, gb, gc, gd). The gate adds a += e*p, d -= e*p, b += e*q, c -= e*q,
    where s = p*(ga - gd) + q*(gb - gc) and e = -s*m^2/(2k^2), from
    df/dm = 1/2 in both modes and dm/dr2 = -m^2/k^2. It is taken through r2,
    not through the sqrt in ``_gate``, whose slope is infinite at 0. The
    backward recomputes p and q from ``x.data``, so the record keeps only the
    gate m that ``_step`` returns.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    out = x.data.copy()
    m = _step(blocks(out), k, mode)

    def backward(g):
        gx = g.copy()
        ga, gb, gc, gd = parts = blocks(gx)
        a, b, c, d = blocks(x.data)
        p = a - d
        q = b - c
        u = ga - gd
        v = gb - gc
        e = p * u + q * v
        e *= m * m * (-0.5 / (k * k))
        # both terms in one pass over the strided blocks: each diagonal pair
        # moves by f*(ga - gd) + e*p and by f*(gb - gc) + e*q
        f = _factor(m, mode)
        u *= f
        u += e * p
        v *= f
        v += e * q
        _move(parts, u, v)
        return (gx,)

    return T.record_op((x,), out, backward)

