"""Test support: a two-region edge-preservation benchmark for the diffusion solvers.

A noisy disk on a flat background measures what a denoiser trades: how much of
the interior noise std it removes against how much of the gap between the two
region means it keeps. ``edge_benchmark`` runs the fd solver, the
``dwt-attenuate`` step and a Gaussian blur matched to the fd solver's std, which
is the Perona-Malik claim (Perona & Malik, IEEE TPAMI 1990): at equal noise
removal, gradient-stopped diffusion keeps more of the edge than linear blur.
"""

import numpy as np

from pmtk.pmd import DiffusionConfig, pmd_step_dwt, pmd_step_fd


def pmd_run(u: np.ndarray, cfg: DiffusionConfig, step_fn=pmd_step_dwt) -> np.ndarray:
    """Apply cfg.steps diffusion iterations of ``step_fn`` to a copy of ``u``."""
    out = np.asarray(u).copy()
    for _ in range(cfg.steps):
        out = step_fn(out, cfg)
    return out


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
