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
symmetric: for a frozen gate the step is self-adjoint.

Every wavelet user applies a gate through that one in-place butterfly,
``_gated``, on four same-shape arrays holding the a, b, c and d entries of the
blocks. ``pmd_step_dwt`` and the tape op ``pmd_apply`` (forward and backward)
pass it strided views of a copy of their input (``_blocks``). The denoising
run, ``denoise_with_log`` without a ``step_fn`` (``pmtk denoise`` in both
wavelet modes), copies the image once into four contiguous planes
[4, ..., H/2, W/2] (``_to_planes``), steps the planes in place and writes the
image back once at the end (``_from_planes``). At 512x512 a step on the
planes takes about half the time of one on strided views, but the two
conversions cost more than one step saves, so only a run of many steps
converts.

The fd solver and the denoising log's masks share one forward-difference
helper, ``_forward_diff``; each logged step then takes its forward differences
at the edge pixels only, through the neighbour indices of
``_forward_neighbours``, mapped to plane positions (``_plane_positions``) when
the run is on planes.

``PmdBlock`` wraps one wavelet diffusion step ahead of a two-conv residual
unit. The diffusion gate g is frozen during the backward pass (it is computed
from forward values and treated as a constant), so gradients flow through the
step as through a fixed self-adjoint linear map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, UsageError
from .wavelet import _check_even

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


def _blocks(u: np.ndarray) -> tuple:
    """Views (a, b, c, d) of the entries of each 2x2 block [[a, b], [c, d]].

    Each is [..., H/2, W/2], strided by 2 on the trailing axes of ``u``; odd
    or sub-2 trailing extents raise DimensionError, as ``wavelet.dwt2`` does.
    """
    _check_even(u.shape)
    return (u[..., 0::2, 0::2], u[..., 0::2, 1::2],
            u[..., 1::2, 0::2], u[..., 1::2, 1::2])


def _gate(p: np.ndarray, q: np.ndarray, k: float) -> np.ndarray:
    """g of the Haar detail magnitude |(lh, hl)| = sqrt((p^2 + q^2)/2)."""
    return diffusivity(np.sqrt((p * p + q * q) * 0.5), k)


def _gated(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
           p: np.ndarray, q: np.ndarray, m: np.ndarray, mode: str) -> None:
    """Scale the Haar detail bands of the blocks by the gate ``m``, in place.

    (a, b, c, d) are the block entries (``_blocks`` or planes of them) and
    ``(p, q) = (a - d, b - c)`` their diagonal differences, which are
    overwritten. Applies a += f*p, d -= f*p, b += f*q, c -= f*q, where
    f = (m - 1)/2 in attenuate mode and m/2 in as-written mode; that equals
    idwt2 of {ll, m*lh, m*hl, hh}, or u plus idwt2 of {0, m*lh, m*hl, 0}.
    For a fixed gate the map is symmetric, so it is its own adjoint.
    """
    f = (m - 1.0) * 0.5 if mode == "attenuate" else m * 0.5
    p *= f
    a += p
    d -= p
    q *= f
    b += q
    c -= q


def _step(blocks, k: float, mode: str) -> None:
    """One wavelet-domain diffusion step, in place on the blocks (a, b, c, d)."""
    a, b, c, d = blocks
    p = a - d
    q = b - c
    _gated(a, b, c, d, p, q, _gate(p, q, k), mode)


def pmd_step_dwt(u: np.ndarray, cfg: DiffusionConfig) -> np.ndarray:
    """One wavelet-domain diffusion step on the trailing two axes."""
    out = np.asarray(u).copy()
    _step(_blocks(out), cfg.k, cfg.mode)
    return out


# ---------------------------------------------------------------------------
# Denoising run with per-step measurements (CLI `denoise`)
# ---------------------------------------------------------------------------

def _to_planes(u: np.ndarray) -> np.ndarray:
    """Copy the ``_blocks`` of ``u`` into contiguous planes [4, ..., H/2, W/2]."""
    return np.stack(_blocks(u))


def _from_planes(planes: np.ndarray) -> np.ndarray:
    """The image whose ``_blocks`` are ``planes``; inverts ``_to_planes``."""
    h, w = planes.shape[-2:]
    u = np.empty(planes.shape[1:-2] + (2 * h, 2 * w), planes.dtype)
    for view, plane in zip(_blocks(u), planes):
        view[...] = plane
    return u


def _plane_positions(shape: tuple, *index_sets: np.ndarray) -> tuple:
    """Map flat C-order pixel indices of an image of ``shape`` into ``_to_planes``.

    Fold the leading axes into rows. As H is even, pixel (r, c) is entry
    (r // 2, c // 2) of plane 2*(r % 2) + c % 2, and the planes fold their
    leading axes the same way. The whole map is built once, read at each
    index set and dropped on return.
    """
    w = shape[-1]
    n = int(np.prod(shape))
    quarter = n // 4
    rows = np.arange(n // w)
    cols = np.arange(w)
    where = (((rows & 1) * (2 * quarter) + (rows >> 1) * (w // 2))[:, None]
             + ((cols & 1) * quarter + (cols >> 1))).reshape(-1)
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
    place, and the image is written back once at the end. The four index
    sets are mapped to their plane positions once (``_plane_positions``), so
    the log gathers the same values in the same order as on the image, and
    rows and output equal those of ``step_fn=pmd_step_dwt`` bit for bit.
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
    return (_from_planes(u) if planar else u), rows


# ---------------------------------------------------------------------------
# Tape-side diffusion and the residual block
# ---------------------------------------------------------------------------

def sobel_magnitude(x: np.ndarray) -> np.ndarray:
    """3x3 Sobel gradient magnitude per channel, symmetric boundary."""
    kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=x.dtype)
    ky = kx.T
    pad = [(0, 0)] * (x.ndim - 2) + [(1, 1), (1, 1)]
    xp = np.pad(x, pad, mode="symmetric")
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    H, W = x.shape[-2], x.shape[-1]
    for i in range(3):
        for j in range(3):
            patch = xp[..., i:i + H, j:j + W]
            if kx[i, j]:
                gx = gx + kx[i, j] * patch
            if ky[i, j]:
                gy = gy + ky[i, j] * patch
    return np.sqrt(gx * gx + gy * gy)


class GateTrace(T.Tape):
    """A tape that records each diffusion gate, or replays recorded ones.

    The in-network diffusion holds its gate constant in the backward pass, so
    a finite-difference probe of the training objective must evaluate with the
    gate pinned at its center-point value; letting the probe re-derive the
    gate would differentiate a different function than the tape does.
    ``pmd_apply`` finds this tape through ``T.active_tape()``: under
    ``GateTrace()`` it computes each gate and appends it to ``gates``; under
    ``GateTrace(replay=recorded.gates)`` it takes the recorded gates instead,
    in call order, since blocks call the diffusion in a fixed order. Under any
    other tape, or none, the gate is computed afresh.
    """

    def __init__(self, replay: list | None = None):
        super().__init__()
        self.replay = replay
        self.gates: list = []

    def gate(self, compute) -> np.ndarray:
        if self.replay is None:
            m = compute()
        elif len(self.gates) < len(self.replay):
            m = self.replay[len(self.gates)]
        else:
            raise UsageError("gate replay ran past the recorded trace")
        self.gates.append(m)
        return m


def pmd_apply(x: T.Tensor, k: float = 1.0, mode: str = "attenuate") -> T.Tensor:
    """Tape-recorded wavelet diffusion step with the gate g held constant.

    The gate is computed once from the forward values, or taken from an
    active replaying ``GateTrace``. What remains is the butterfly of
    ``_gated``: per 2x2 block the symmetric map [[1+f, -f], [-f, 1+f]] on
    the diagonal pairs (a, d) and (b, c), so the backward pass applies the
    same map, with the same frozen gate, to the incoming gradient.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    out = x.data.copy()
    a, b, c, d = _blocks(out)
    p = a - d
    q = b - c
    tape = T.active_tape()
    m = tape.gate(lambda: _gate(p, q, k)) if isinstance(tape, GateTrace) else _gate(p, q, k)
    _gated(a, b, c, d, p, q, m, mode)

    def backward(g):
        gx = g.copy()
        a, b, c, d = _blocks(gx)
        _gated(a, b, c, d, a - d, b - c, m, mode)
        return (gx,)

    return T.record_op((x,), out, backward)


PREPROCESS = ("dwt", "none", "sobel")
# contrast constant of the diffusion step inside every PmdBlock
BLOCK_K = 1.0


class PmdBlock(T.Module):
    """Diffusion preprocessing + two-conv residual unit.

    Layout: h = preprocess(x); y = relu(norm2(conv2(relu(norm1(conv1(h)))))
    + skip(h)), with conv1 carrying any stride/width change and skip a 1x1
    projection (plus norm) whenever shape changes. ``preprocess`` selects the
    wavelet diffusion step, identity, or a concatenated Sobel magnitude
    feature (which doubles conv1's input width).
    """

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int,
                 stride: int = 1, preprocess: str = "dwt"):
        if preprocess not in PREPROCESS:
            raise ConfigError(f"preprocess must be one of {PREPROCESS}, got {preprocess!r}")
        self.stride = stride
        self.preprocess = preprocess
        c_eff = c_in * (2 if preprocess == "sobel" else 1)
        self.w1 = T.uniform_param(rng, (c_out, c_eff, 3, 3), c_eff * 9)
        self.g1 = T.Parameter(np.ones(c_out))
        self.b1 = T.zeros_param((c_out,))
        self.w2 = T.uniform_param(rng, (c_out, c_out, 3, 3), c_out * 9)
        self.g2 = T.Parameter(np.ones(c_out))
        self.b2 = T.zeros_param((c_out,))
        if stride != 1 or c_eff != c_out:
            self.wp = T.uniform_param(rng, (c_out, c_eff, 1, 1), c_eff)
            self.gp = T.Parameter(np.ones(c_out))
            self.bp = T.zeros_param((c_out,))
        else:
            self.wp = None

    def __call__(self, x: T.Tensor) -> T.Tensor:
        if self.preprocess == "dwt":
            # Maps below 2x2 (deepest stage of very small inputs) have no
            # detail bands to diffuse; pass them through.
            if x.shape[-1] < 2 or x.shape[-2] < 2:
                h = x
            else:
                h = pmd_apply(x, BLOCK_K, "attenuate")
        elif self.preprocess == "sobel":
            # The gradient feature is a fresh constant tensor: gradients reach
            # x only through the identity slice of the concat.
            h = T.concat([x, T.Tensor(sobel_magnitude(x.data))], axis=-3)
        else:
            h = x
        y = T.conv2d(h, self.w1, stride=self.stride, pad=1)
        y = T.relu(T.norm_affine(y, self.g1, self.b1))
        y = T.conv2d(y, self.w2, stride=1, pad=1)
        y = T.norm_affine(y, self.g2, self.b2)
        if self.wp is not None:
            skip = T.norm_affine(T.conv2d(h, self.wp, stride=self.stride, pad=0),
                                 self.gp, self.bp)
        else:
            skip = h
        return T.relu(y + skip)
