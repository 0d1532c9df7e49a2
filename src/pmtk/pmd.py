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

Both wavelet users, ``pmd_step_dwt`` and the tape op ``pmd_apply`` (forward
and backward), apply a gate through that one butterfly, ``_gated``. The fd
solver and the denoising log's masks share one forward-difference helper,
``_forward_diff``; each logged step then takes its forward differences at the
edge pixels only, through the neighbour indices of ``_forward_neighbours``.

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
    dt: float = 1.0
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


def _diagonals(u: np.ndarray) -> tuple:
    """(p, q) = (a - d, b - c) of each 2x2 block [[a, b], [c, d]] of ``u``.

    Both are [..., H/2, W/2]; odd or sub-2 trailing extents raise
    DimensionError, as ``wavelet.dwt2`` does.
    """
    _check_even(u.shape)
    return (u[..., 0::2, 0::2] - u[..., 1::2, 1::2],
            u[..., 0::2, 1::2] - u[..., 1::2, 0::2])


def _gate(p: np.ndarray, q: np.ndarray, k: float) -> np.ndarray:
    """g of the Haar detail magnitude |(lh, hl)| = sqrt((p^2 + q^2)/2)."""
    return diffusivity(np.sqrt((p * p + q * q) * 0.5), k)


def _gated(u: np.ndarray, p: np.ndarray, q: np.ndarray, m: np.ndarray,
           mode: str) -> np.ndarray:
    """Scale the Haar detail bands of ``u`` by the gate ``m`` and synthesize.

    ``(p, q)`` are the diagonal differences of ``u`` (``_diagonals``). The
    result is u with a += f*p, d -= f*p, b += f*q, c -= f*q per block, where
    f = (m - 1)/2 in attenuate mode and m/2 in as-written mode, which equals
    idwt2 of {ll, m*lh, m*hl, hh}, or u plus idwt2 of {0, m*lh, m*hl, 0}.
    For a fixed gate the map is symmetric, so it is its own adjoint.
    """
    f = (m - 1.0) * 0.5 if mode == "attenuate" else m * 0.5
    fp = f * p
    fq = f * q
    out = u.copy()
    out[..., 0::2, 0::2] += fp
    out[..., 1::2, 1::2] -= fp
    out[..., 0::2, 1::2] += fq
    out[..., 1::2, 0::2] -= fq
    return out


def pmd_step_dwt(u: np.ndarray, cfg: DiffusionConfig) -> np.ndarray:
    """One wavelet-domain diffusion step on the trailing two axes."""
    u = np.asarray(u)
    p, q = _diagonals(u)
    return _gated(u, p, q, _gate(p, q, cfg.k), cfg.mode)


def pmd_run(u: np.ndarray, cfg: DiffusionConfig, step_fn=None) -> np.ndarray:
    """Apply cfg.steps diffusion iterations; step_fn defaults to the dwt form."""
    fn = step_fn or pmd_step_dwt
    out = np.asarray(u).copy()
    for _ in range(cfg.steps):
        out = fn(out, cfg)
    return out


# ---------------------------------------------------------------------------
# Denoising run with per-step measurements (CLI `denoise`)
# ---------------------------------------------------------------------------

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
    """
    fn = step_fn or pmd_step_dwt
    flat, edge = (np.flatnonzero(m) for m in _measurement_masks(u0))
    right, down = _forward_neighbours(edge, u0.shape)

    def measure(u, step):
        v = u.reshape(-1)
        at = v[edge]
        dx = v[right] - at
        dy = v[down] - at
        return (step, float(v[flat].var()), float(np.sqrt(dx * dx + dy * dy).mean()))

    u = u0.copy()
    rows = [measure(u, 0)]
    for step in range(1, cfg.steps + 1):
        u = fn(u, cfg)
        rows.append(measure(u, step))
    return u, rows


# ---------------------------------------------------------------------------
# Two-region edge-preservation benchmark
# ---------------------------------------------------------------------------

# Geometry frozen after a sweep against the fd solver (see tests): a centered
# disk deep enough that interior statistics are clean, with region means taken
# over the full regions. Margin excludes a boundary collar from the std
# measurement so noise suppression and edge blur are measured separately; it
# is sized to 3x the widest control blur considered, so a smeared edge cannot
# masquerade as interior noise.
BENCH_SIZE = 64
BENCH_RADIUS = 13.0
BENCH_MARGIN = 8.0


def two_region_image(size: int = BENCH_SIZE, radius: float = BENCH_RADIUS,
                     noise_sigma: float = 0.15, seed: int = 0) -> tuple:
    """Disk of level 1 on level 0 plus additive Gaussian noise.

    Returns (noisy, clean, r) where r is each pixel's distance to the disk
    center, used to carve interior/region masks.
    """
    yy, xx = np.mgrid[0:size, 0:size]
    c = (size - 1) / 2.0
    r = np.sqrt((yy - c) ** 2 + (xx - c) ** 2)
    clean = (r <= radius).astype(np.float64)
    rng = np.random.default_rng(seed)
    noisy = clean + noise_sigma * rng.standard_normal(clean.shape)
    return noisy, clean, r


def region_measures(u: np.ndarray, r: np.ndarray,
                    radius: float = BENCH_RADIUS,
                    margin: float = BENCH_MARGIN) -> tuple:
    """(mean interior std, inter-region mean gap) for a disk benchmark field."""
    inside = r <= radius
    outside = ~inside
    in_core = r <= radius - margin
    out_core = r >= radius + margin
    std = 0.5 * (float(u[in_core].std()) + float(u[out_core].std()))
    gap = abs(float(u[inside].mean()) - float(u[outside].mean()))
    return std, gap


def gaussian_blur(u: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with symmetric (reflective) boundary handling."""
    if sigma <= 0:
        return u.copy()
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()

    def along(a, axis):
        ap = np.moveaxis(a, axis, -1)
        padded = np.pad(ap, [(0, 0)] * (ap.ndim - 1) + [(radius, radius)], mode="symmetric")
        out = np.apply_along_axis(lambda v: np.convolve(v, kernel, mode="valid"), -1, padded)
        return np.moveaxis(out, -1, axis)

    return along(along(u, -1), -2)


def matched_blur_sigma(noisy: np.ndarray, r: np.ndarray, target_std: float,
                       radius: float = BENCH_RADIUS, margin: float = BENCH_MARGIN,
                       lo: float = 0.05, hi: float = 8.0) -> float:
    """Smallest blur width whose interior std reaches ``target_std``.

    Interior std is not monotone in the width: past a few pixels the smeared
    edge bleeds into the measurement cores and the std rises again, and near
    its minimum a whole range of widths gives nearly the same std. Taking the
    first crossing of the target on the descending branch is well posed and
    picks the weakest sufficient blur, the choice most favorable to the
    control. Falls back to the argmin width when no width reaches the target.
    """
    def std_at(sigma):
        return region_measures(gaussian_blur(noisy, sigma), r, radius, margin)[0]

    grid = np.geomspace(lo, hi, 200)
    stds = np.array([std_at(s) for s in grid])
    reached = np.nonzero(stds <= target_std)[0]
    if reached.size:
        return float(grid[reached[0]])
    return float(grid[stds.argmin()])


def edge_benchmark(noise_sigma: float = 0.15, k: float = 1.0, steps: int = 10,
                   seed: int = 0, size: int = BENCH_SIZE,
                   radius: float = BENCH_RADIUS) -> dict:
    """Run fd, dwt-attenuate and a variance-matched Gaussian control.

    Returns per-method (std_reduction, gap_retention) relative to the noisy
    input, plus the raw baseline numbers.
    """
    noisy, _, r = two_region_image(size, radius, noise_sigma, seed)
    std0, gap0 = region_measures(noisy, r, radius)

    # dt strictly inside the stability region: at the 0.25 boundary the
    # solver leaves its gradient-selective regime within a few steps (the
    # edge flattens and the flow degenerates toward plain heat flow)
    fd_cfg = DiffusionConfig(k=k, steps=steps, dt=0.20)
    dwt_cfg = DiffusionConfig(k=k, steps=steps, dt=1.0, mode="attenuate")
    u_fd = pmd_run(noisy, fd_cfg, step_fn=pmd_step_fd)
    u_dwt = pmd_run(noisy, dwt_cfg, step_fn=pmd_step_dwt)

    out = {"std0": std0, "gap0": gap0}
    std_fd, gap_fd = region_measures(u_fd, r, radius)
    out["fd"] = (1.0 - std_fd / std0, gap_fd / gap0)
    std_dwt, gap_dwt = region_measures(u_dwt, r, radius)
    out["dwt"] = (1.0 - std_dwt / std0, gap_dwt / gap0)

    sigma_b = matched_blur_sigma(noisy, r, std_fd, radius)
    std_g, gap_g = region_measures(gaussian_blur(noisy, sigma_b), r, radius)
    out["gauss"] = (1.0 - std_g / std0, gap_g / gap0)
    out["gauss_sigma"] = sigma_b
    return out


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
    p, q = _diagonals(x.data)
    tape = T.active_tape()
    m = tape.gate(lambda: _gate(p, q, k)) if isinstance(tape, GateTrace) else _gate(p, q, k)
    return T.record_op((x,), _gated(x.data, p, q, m, mode),
                       lambda g: (_gated(g, *_diagonals(g), m, mode),))


PREPROCESS = ("dwt", "none", "sobel")


class PmdBlock(T.Module):
    """Diffusion preprocessing + two-conv residual unit.

    Layout: h = preprocess(x); y = relu(norm2(conv2(relu(norm1(conv1(h)))))
    + skip(h)), with conv1 carrying any stride/width change and skip a 1x1
    projection (plus norm) whenever shape changes. ``preprocess`` selects the
    wavelet diffusion step, identity, or a concatenated Sobel magnitude
    feature (which doubles conv1's input width).
    """

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int,
                 stride: int = 1, k: float = 1.0, preprocess: str = "dwt"):
        if preprocess not in PREPROCESS:
            raise ConfigError(f"preprocess must be one of {PREPROCESS}, got {preprocess!r}")
        self.k = k
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
                h = pmd_apply(x, self.k, "attenuate")
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
