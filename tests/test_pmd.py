"""Diffusion solver exactness, invariants, and the edge-preservation claim."""

import numpy as np
import pytest

from pmtk import tensor as T
from pmtk.errors import ConfigError, DimensionError
from pmtk.pmd import (
    DiffusionConfig,
    _forward_diff,
    _forward_neighbours,
    _measurement_masks,
    denoise_with_log,
    diffusivity,
    pmd_apply,
    pmd_step_dwt,
    pmd_step_fd,
    sobel_magnitude,
)
from pmtk.wavelet import SubbandSet, dwt2, idwt2

from edge_preservation import (
    edge_benchmark,
    gaussian_blur,
    matched_blur_sigma,
    pmd_run,
    region_measures,
    two_region_image,
)
from subbands import detail_magnitude


def noise_field(seed=0, shape=(32, 32)):
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------------------
# Edge-stopping function
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0.25, 1.0, 3.0])
def test_diffusivity_anchor_points_exact(k):
    assert diffusivity(np.float64(0.0), k) == 1.0
    assert diffusivity(np.float64(k), k) == 0.5
    assert diffusivity(np.float64(3.0 * k), k) == 0.1


def test_diffusivity_monotone_and_bounded():
    m = np.linspace(0.0, 50.0, 2000)
    g = diffusivity(m, 1.3)
    assert np.all(np.diff(g) < 0)
    assert np.all((g > 0) & (g <= 1))


def test_diffusivity_rejects_bad_k():
    with pytest.raises(ConfigError):
        diffusivity(np.zeros(3), 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        DiffusionConfig(k=-1.0)
    with pytest.raises(ConfigError):
        DiffusionConfig(dt=0.0)
    with pytest.raises(ConfigError):
        DiffusionConfig(steps=-1)
    with pytest.raises(ConfigError):
        DiffusionConfig(mode="blur")


# ---------------------------------------------------------------------------
# Finite-difference step
# ---------------------------------------------------------------------------

def test_fd_step_conserves_mean():
    cfg = DiffusionConfig(k=0.7, dt=0.25)
    for seed in range(5):
        u = noise_field(seed)
        out = pmd_step_fd(u, cfg)
        assert abs(out.mean() - u.mean()) <= 1e-14 * max(1.0, abs(u.mean()))


def test_fd_step_no_new_extrema():
    cfg = DiffusionConfig(k=0.5, dt=0.25, steps=4)
    for seed in range(5):
        u = noise_field(seed)
        out = pmd_run(u, cfg, step_fn=pmd_step_fd)
        assert out.min() >= u.min() - 1e-12
        assert out.max() <= u.max() + 1e-12


def test_fd_step_constant_is_fixed_point():
    u = np.full((8, 10), 0.37)
    out = pmd_step_fd(u, DiffusionConfig(dt=0.2))
    np.testing.assert_array_equal(out, u)


def test_fd_step_runs_at_the_default_dt():
    # the default is the largest stable step, not a value the fd step rejects
    u = noise_field(0)
    np.testing.assert_array_equal(pmd_step_fd(u, DiffusionConfig()),
                                  pmd_step_fd(u, DiffusionConfig(dt=0.25)))


def test_fd_step_rejects_unstable_dt():
    with pytest.raises(ConfigError):
        pmd_step_fd(np.zeros((4, 4)), DiffusionConfig(dt=0.3))


def test_fd_step_rejects_vectors():
    with pytest.raises(DimensionError):
        pmd_step_fd(np.zeros(16), DiffusionConfig(dt=0.2))


def test_fd_step_batched_matches_loop():
    cfg = DiffusionConfig(k=1.0, dt=0.2)
    stack = np.stack([noise_field(s, (16, 16)) for s in range(3)])
    out = pmd_step_fd(stack, cfg)
    for i in range(3):
        np.testing.assert_array_equal(out[i], pmd_step_fd(stack[i], cfg))


# ---------------------------------------------------------------------------
# Wavelet-domain step
# ---------------------------------------------------------------------------

def test_dwt_step_constant_is_fixed_point():
    u = np.full((6, 6), 2.5)
    for mode in ("attenuate", "as-written"):
        out = pmd_step_dwt(u, DiffusionConfig(mode=mode))
        np.testing.assert_allclose(out, u, atol=1e-14)


def test_dwt_attenuate_subband_action():
    # linearity of the transform pins the whole step: approximation and
    # diagonal bands pass through, detail bands scale by the gate
    u = noise_field(3)
    s = dwt2(u)
    m = diffusivity(detail_magnitude(s), 0.8)
    out = pmd_step_dwt(u, DiffusionConfig(k=0.8, mode="attenuate"))
    so = dwt2(out)
    np.testing.assert_allclose(so.ll, s.ll, atol=1e-12)
    np.testing.assert_allclose(so.hh, s.hh, atol=1e-12)
    np.testing.assert_allclose(so.lh, m * s.lh, atol=1e-12)
    np.testing.assert_allclose(so.hl, m * s.hl, atol=1e-12)


def test_dwt_as_written_subband_action():
    # this mode adds the gated detail back on top of the signal, so the
    # detail bands come out amplified by (1 + gate)
    u = noise_field(4)
    s = dwt2(u)
    m = diffusivity(detail_magnitude(s), 0.8)
    out = pmd_step_dwt(u, DiffusionConfig(k=0.8, mode="as-written"))
    so = dwt2(out)
    np.testing.assert_allclose(so.ll, s.ll, atol=1e-12)
    np.testing.assert_allclose(so.hh, s.hh, atol=1e-12)
    np.testing.assert_allclose(so.lh, (1.0 + m) * s.lh, atol=1e-12)
    np.testing.assert_allclose(so.hl, (1.0 + m) * s.hl, atol=1e-12)


def test_dwt_attenuate_detail_energy_never_grows():
    for seed in range(4):
        u = noise_field(seed)
        s = dwt2(u)
        so = dwt2(pmd_step_dwt(u, DiffusionConfig(k=0.5)))
        before = (s.lh ** 2).sum() + (s.hl ** 2).sum()
        after = (so.lh ** 2).sum() + (so.hl ** 2).sum()
        assert after <= before + 1e-12


def test_pmd_run_zero_steps_copies():
    u = noise_field(1)
    out = pmd_run(u, DiffusionConfig(steps=0))
    np.testing.assert_array_equal(out, u)
    assert out is not u


def test_pmd_run_composes_steps():
    u = noise_field(2)
    cfg3 = DiffusionConfig(k=1.1, steps=3)
    cfg1 = DiffusionConfig(k=1.1, steps=1)
    manual = pmd_run(pmd_run(pmd_run(u, cfg1), cfg1), cfg1)
    np.testing.assert_array_equal(pmd_run(u, cfg3), manual)


def test_denoise_log_rows_and_flat_variance():
    rng = np.random.default_rng(0)
    u0 = 0.5 + 0.2 * rng.standard_normal((32, 32))
    final, rows = denoise_with_log(u0, DiffusionConfig(k=0.5, steps=6))
    assert len(rows) == 7
    assert rows[0][0] == 0 and rows[-1][0] == 6
    assert rows[-1][1] < rows[0][1]  # noise variance on the flat set drops
    assert final.shape == u0.shape


def reference_log(u0, cfg, step_fn):
    """The log by its first definition: full forward differences, boolean masks."""
    flat, edge = _measurement_masks(u0)

    def measure(u, step):
        mag = _forward_diff(u)[2]
        return (step, float(u[flat].var()), float(mag[edge].mean()))

    u = u0.copy()
    rows = [measure(u, 0)]
    for step in range(1, cfg.steps + 1):
        u = step_fn(u, cfg)
        rows.append(measure(u, step))
    return u, rows


FD_CFG = DiffusionConfig(k=0.5, steps=4, dt=0.2)
DWT_CFG = DiffusionConfig(k=0.5, steps=4)
AS_WRITTEN_CFG = DiffusionConfig(k=0.5, steps=4, mode="as-written")


@pytest.mark.parametrize("shape, cfg, step_fn", [
    ((6, 8), FD_CFG, pmd_step_fd),
    ((5, 7), FD_CFG, pmd_step_fd),
    ((1, 9), FD_CFG, pmd_step_fd),
    ((16, 12), DWT_CFG, pmd_step_dwt),
    ((16, 12), AS_WRITTEN_CFG, pmd_step_dwt),
    ((2, 8, 10), DiffusionConfig(k=0.5, steps=3), pmd_step_dwt),
    ((2, 5, 7), FD_CFG, pmd_step_fd),
    ((16, 12), DWT_CFG, None),
    ((16, 12), AS_WRITTEN_CFG, None),
    ((2, 8, 10), DiffusionConfig(k=0.5, steps=3), None),
    ((2, 2), DWT_CFG, None),
    ((16, 12), DiffusionConfig(k=0.5, steps=0), None),
], ids=["fd-6x8", "fd-5x7", "fd-1x9", "dwt-attenuate", "dwt-as-written",
        "dwt-stacked", "fd-stacked", "planes-attenuate", "planes-as-written",
        "planes-stacked", "planes-2x2", "planes-0-steps"])
def test_denoise_log_matches_masked_full_differences(shape, cfg, step_fn):
    # step_fn None runs the Haar-plane loop; its reference is the image loop
    u0 = np.random.default_rng(3).uniform(0.0, 1.0, shape)
    out, rows = denoise_with_log(u0, cfg, step_fn)
    ref_out, ref_rows = reference_log(u0, cfg, step_fn or pmd_step_dwt)
    assert rows == ref_rows  # exact float equality, row by row
    assert out.tobytes() == ref_out.tobytes()
    assert out is not u0
    if cfg.steps == 0:
        assert [row[0] for row in rows] == [0]
        assert out.tobytes() == u0.tobytes()


def test_denoise_log_on_constant_image_uses_every_pixel():
    u0 = np.full((8, 6), 0.25)
    flat, edge = _measurement_masks(u0)
    assert flat.all() and edge.all()
    for cfg, step_fn in ((FD_CFG, pmd_step_fd), (DiffusionConfig(steps=2), pmd_step_dwt)):
        out, rows = denoise_with_log(u0, cfg, step_fn)
        assert rows == reference_log(u0, cfg, step_fn)[1]
        assert out.tobytes() == u0.tobytes()


@pytest.mark.parametrize("shape", [(5, 7), (1, 9), (9, 1), (2, 4, 6)])
def test_forward_neighbours_give_forward_diff_magnitude(shape):
    u = np.random.default_rng(4).uniform(0.0, 1.0, shape)
    v = u.reshape(-1)
    idx = np.arange(u.size)
    right, down = _forward_neighbours(idx, shape)
    dx = v[right] - v[idx]
    dy = v[down] - v[idx]
    # bit for bit over every pixel, the zero last column and row included
    assert np.sqrt(dx * dx + dy * dy).tobytes() == _forward_diff(u)[2].ravel().tobytes()


# ---------------------------------------------------------------------------
# Edge preservation (tests/edge_preservation.py)
# ---------------------------------------------------------------------------

def test_two_region_image_clean_geometry():
    noisy, clean, r = two_region_image(size=32, radius=9.0, noise_sigma=0.1, seed=5)
    assert set(np.unique(clean)) == {0.0, 1.0}
    np.testing.assert_array_equal(clean, (r <= 9.0).astype(float))
    again, _, _ = two_region_image(size=32, radius=9.0, noise_sigma=0.1, seed=5)
    np.testing.assert_array_equal(noisy, again)


def test_region_measures_on_clean_disk():
    _, clean, r = two_region_image(noise_sigma=0.0, seed=0)
    std, gap = region_measures(clean, r)
    assert std == 0.0
    assert gap == pytest.approx(1.0)


def test_gaussian_blur_basics():
    u = noise_field(7)
    assert gaussian_blur(u, 0.0) is not u
    np.testing.assert_array_equal(gaussian_blur(u, -1.0), u)
    np.testing.assert_allclose(gaussian_blur(np.full((10, 10), 4.0), 2.0), 4.0, atol=1e-12)
    assert gaussian_blur(u, 2.0).std() < u.std()


def test_matched_blur_reaches_target():
    noisy, _, r = two_region_image(seed=1)
    std0, _ = region_measures(noisy, r)
    target = 0.7 * std0
    sigma = matched_blur_sigma(noisy, r, target)
    got, _ = region_measures(gaussian_blur(noisy, sigma), r)
    assert got <= target * (1.0 + 1e-9)


def test_fd_keeps_more_edge_than_matched_gaussian():
    # The Perona-Malik claim: at the noise std the fd solver reaches, a
    # Gaussian blur matched to it keeps less of the gap between the regions.
    # Defaults, seeds 0-4: fd keeps 0.870-0.873 of the gap and the matched
    # Gaussian 0.857-0.860. dwt-attenuate (the `pmtk denoise` default, k=1)
    # removes only 14-20% of the std: a weak denoiser of the input, reported
    # as it is rather than tuned.
    for seed in range(5):
        out = edge_benchmark(seed=seed)
        (fd_red, fd_gap), (g_red, g_gap) = out["fd"], out["gauss"]
        assert g_red >= fd_red  # the control removes at least as much noise
        assert fd_gap > g_gap
        dwt_red, dwt_gap = out["dwt"]
        assert 0.0 < dwt_red < fd_red
        assert dwt_gap > fd_gap


def test_sobel_on_linear_ramp():
    u = np.tile(np.arange(12.0), (10, 1))
    mag = sobel_magnitude(u)
    # 3x3 Sobel along a unit ramp responds with weight sum 8 away from edges
    np.testing.assert_allclose(mag[2:-2, 2:-2], 8.0, atol=1e-12)
    assert mag.shape == u.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 8), (2, 3, 7, 5), (1, 2, 1, 4, 9)])
def test_sobel_border_equals_np_pad_bit_for_bit(shape, dtype):
    # the magnitude of np.pad's symmetric border, cropped, reads the same
    # neighbours through the same arithmetic as the hand-written border
    x = np.random.default_rng(len(shape)).standard_normal(shape).astype(dtype)
    padded = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(1, 1), (1, 1)], mode="symmetric")
    mag = sobel_magnitude(x)
    assert mag.dtype == dtype
    assert mag.tobytes() == sobel_magnitude(padded)[..., 1:-1, 1:-1].tobytes()


# ---------------------------------------------------------------------------
# Tape-side diffusion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["attenuate", "as-written"])
def test_pmd_apply_matches_numpy_step(mode):
    x = T.Tensor(noise_field(9, (1, 2, 8, 8)))
    out = pmd_apply(x, k=0.9, mode=mode)
    expect = pmd_step_dwt(x.data, DiffusionConfig(k=0.9, mode=mode))
    np.testing.assert_array_equal(out.data, expect)


def test_pmd_apply_gradient_of_sum_is_ones():
    # the butterfly keeps every block's sum, so the pullback of an all-ones
    # gradient is all ones: the transposed butterfly sees ga - gd = gb - gc = 0,
    # and so does the gate term, s = p*(ga - gd) + q*(gb - gc) = 0
    x = T.Tensor(noise_field(10, (4, 6)))
    with T.Tape() as tape:
        loss = T.tsum(pmd_apply(x, k=1.0))
    g = T.grad_of(T.backward(tape, loss), x)
    np.testing.assert_allclose(g, 1.0, atol=1e-12)


def subband_step(u, m, mode):
    """The gated step by its Haar definition: scale lh and hl by ``m``."""
    s = dwt2(u)
    if mode == "attenuate":
        return idwt2(SubbandSet(s.ll, m * s.lh, m * s.hl, s.hh))
    zero = np.zeros_like(s.ll)
    return u + idwt2(SubbandSet(zero, m * s.lh, m * s.hl, zero))


@pytest.mark.parametrize("mode", ["attenuate", "as-written"])
def test_pmd_apply_backward_is_gradient_of_step(mode):
    # the tape gradient of sum(step(x) * y) against central differences of the
    # numpy step, gate included; k = 0.7 so a dropped 1/k^2 would show
    k, h = 0.7, 1e-6
    cfg = DiffusionConfig(k=k, mode=mode)
    x0 = noise_field(11, (6, 6))
    y = noise_field(12, (6, 6))
    x = T.Tensor(x0, np.float64)
    with T.Tape() as tape:
        loss = T.tsum(T.mul(pmd_apply(x, k=k, mode=mode), T.Tensor(y, np.float64)))
    g = T.grad_of(T.backward(tape, loss), x)
    fd = np.empty_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e.flat[i] = h
        fd.flat[i] = (np.sum(pmd_step_dwt(x0 + e, cfg) * y)
                      - np.sum(pmd_step_dwt(x0 - e, cfg) * y)) / (2 * h)
    # relative to the largest entry: entries near 0 carry absolute roundoff
    assert np.abs(g - fd).max() <= 1e-7 * np.abs(fd).max()


@pytest.mark.parametrize("mode", ["attenuate", "as-written"])
@pytest.mark.parametrize("shape", [(6, 8), (2, 3, 8, 6), (1, 4, 2, 2)])
def test_butterfly_equals_subband_form(mode, shape):
    u = np.random.default_rng(14).standard_normal(shape)
    m = diffusivity(detail_magnitude(dwt2(u)), 0.8)
    expect = subband_step(u, m, mode)
    # relative to the largest value: entries near 0 carry absolute rounding
    tol = 1e-15 * np.abs(expect).max()
    out = pmd_step_dwt(u, DiffusionConfig(k=0.8, mode=mode))
    assert np.abs(out - expect).max() <= tol
    tape_out = pmd_apply(T.Tensor(u, np.float64), k=0.8, mode=mode)
    assert np.abs(tape_out.data - expect).max() <= tol


def test_dwt_step_rejects_odd_extents():
    u = np.zeros((5, 6))
    with pytest.raises(DimensionError):
        pmd_step_dwt(u, DiffusionConfig())
    with pytest.raises(DimensionError):
        pmd_apply(T.Tensor(u))
    with pytest.raises(DimensionError):  # the Haar-plane run of the CLI
        denoise_with_log(u, DiffusionConfig())


def test_pmd_apply_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        pmd_apply(T.Tensor(np.zeros((4, 4))), mode="melt")

