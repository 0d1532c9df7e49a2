"""Diffusion solver exactness, invariants, and benchmark plumbing."""

import numpy as np
import pytest

from pmtk import precision
from pmtk import tensor as T
from pmtk.errors import ConfigError, DimensionError, UsageError
from pmtk.pmd import (
    DiffusionConfig,
    GateTrace,
    PmdBlock,
    _forward_diff,
    _forward_neighbours,
    _measurement_masks,
    denoise_with_log,
    diffusivity,
    edge_benchmark,
    gaussian_blur,
    matched_blur_sigma,
    pmd_apply,
    pmd_run,
    pmd_step_dwt,
    pmd_step_fd,
    region_measures,
    sobel_magnitude,
    two_region_image,
)
from pmtk.wavelet import SubbandSet, detail_magnitude, dwt2, idwt2


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


@pytest.mark.parametrize("shape, cfg, step_fn", [
    ((6, 8), FD_CFG, pmd_step_fd),
    ((5, 7), FD_CFG, pmd_step_fd),
    ((1, 9), FD_CFG, pmd_step_fd),
    ((16, 12), DiffusionConfig(k=0.5, steps=4), pmd_step_dwt),
    ((16, 12), DiffusionConfig(k=0.5, steps=4, mode="as-written"), pmd_step_dwt),
    ((2, 8, 10), DiffusionConfig(k=0.5, steps=3), pmd_step_dwt),
    ((2, 5, 7), FD_CFG, pmd_step_fd),
], ids=["fd-6x8", "fd-5x7", "fd-1x9", "dwt-attenuate", "dwt-as-written",
        "dwt-stacked", "fd-stacked"])
def test_denoise_log_matches_masked_full_differences(shape, cfg, step_fn):
    u0 = np.random.default_rng(3).uniform(0.0, 1.0, shape)
    out, rows = denoise_with_log(u0, cfg, step_fn)
    ref_out, ref_rows = reference_log(u0, cfg, step_fn)
    assert rows == ref_rows  # exact float equality, row by row
    assert out.tobytes() == ref_out.tobytes()


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
# Benchmark plumbing
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


def test_edge_benchmark_structure():
    out = edge_benchmark(seed=0)
    for key in ("fd", "dwt", "gauss", "std0", "gap0", "gauss_sigma"):
        assert key in out
    for key in ("fd", "dwt", "gauss"):
        red, ret = out[key]
        assert 0.0 < red < 1.0
        assert 0.0 < ret <= 1.0 + 1e-9


def test_sobel_on_linear_ramp():
    u = np.tile(np.arange(12.0), (10, 1))
    mag = sobel_magnitude(u)
    # 3x3 Sobel along a unit ramp responds with weight sum 8 away from edges
    np.testing.assert_allclose(mag[2:-2, 2:-2], 8.0, atol=1e-12)
    assert mag.shape == u.shape


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
    # the frozen-gate map is self-adjoint and preserves constants, so the
    # pullback of an all-ones upstream gradient is all ones
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
def test_pmd_apply_backward_reapplies_frozen_gate(mode):
    # f64, so the 1e-12 tolerance compares the butterfly with the subband
    # form and not one rounding with itself
    with precision.use("f64"):
        x = T.Tensor(noise_field(11, (6, 6)))
        y = T.Tensor(noise_field(12, (6, 6)))
        with T.Tape() as tape:
            loss = T.tsum(T.mul(pmd_apply(x, k=0.7, mode=mode), y))
        g = T.grad_of(T.backward(tape, loss), x)
    m = diffusivity(detail_magnitude(dwt2(x.data)), 0.7)
    expect = subband_step(y.data, m, mode)
    np.testing.assert_allclose(g, expect, atol=1e-12)


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
    with precision.use("f64"), GateTrace(replay=[m]):
        tape_out = pmd_apply(T.Tensor(u), k=0.8, mode=mode)
    assert np.abs(tape_out.data - expect).max() <= tol


@pytest.mark.parametrize("mode", ["attenuate", "as-written"])
def test_pmd_apply_frozen_gate_is_self_adjoint(mode):
    # <A u, v> == <u, A v>, with A the step under one recorded gate
    rng = np.random.default_rng(15)
    with precision.use("f64"):
        x = T.Tensor(rng.standard_normal((2, 3, 8, 6)))
        with GateTrace() as trace:
            pmd_apply(x, k=0.6, mode=mode)
        u, v = (T.Tensor(rng.standard_normal(x.shape)) for _ in range(2))
        with GateTrace(replay=trace.gates):
            au = pmd_apply(u, k=0.6, mode=mode).data
        with GateTrace(replay=trace.gates):
            av = pmd_apply(v, k=0.6, mode=mode).data
    lhs = float(np.sum(au * v.data))
    rhs = float(np.sum(u.data * av))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_dwt_step_rejects_odd_extents():
    u = np.zeros((5, 6))
    with pytest.raises(DimensionError):
        pmd_step_dwt(u, DiffusionConfig())
    with pytest.raises(DimensionError):
        pmd_apply(T.Tensor(u))


def test_pmd_apply_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        pmd_apply(T.Tensor(np.zeros((4, 4))), mode="melt")


def test_gate_trace_replays_without_recompute():
    with precision.use("f64"):
        x = T.Tensor(noise_field(13, (8, 8)))
        with GateTrace() as trace:
            pmd_apply(x, k=1.0)
        assert len(trace.gates) == 1
        # replaying against different data must reuse the recorded gate; the
        # gate is blind to a constant shift, so the data is also rescaled
        x.data = 2.0 * x.data + 0.5
        with GateTrace(replay=trace.gates):
            second = pmd_apply(x, k=1.0)
        expect = subband_step(x.data, trace.gates[0], "attenuate")
        np.testing.assert_allclose(second.data, expect, rtol=0, atol=1e-12)
        # a plain tape derives a fresh gate from the current data on every call
        with T.Tape():
            fresh = pmd_apply(x, k=1.0)
        np.testing.assert_array_equal(fresh.data, pmd_step_dwt(x.data, DiffusionConfig()))
        assert not np.array_equal(fresh.data, second.data)


def test_gate_trace_overrun_raises():
    with GateTrace(replay=[]):
        with pytest.raises(UsageError):
            pmd_apply(T.Tensor(np.zeros((4, 4))), k=1.0)


# ---------------------------------------------------------------------------
# Residual block
# ---------------------------------------------------------------------------

def test_block_shapes_and_stride():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((2, 3, 16, 16)))
    same = PmdBlock(rng, 3, 3)
    down = PmdBlock(rng, 3, 8, stride=2)
    assert same(x).shape == (2, 3, 16, 16)
    assert down(x).shape == (2, 8, 8, 8)


@pytest.mark.parametrize("preprocess", ["dwt", "none", "sobel"])
def test_block_preprocess_variants_run(preprocess):
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((1, 2, 8, 8)))
    block = PmdBlock(rng, 2, 4, stride=2, preprocess=preprocess)
    assert block(x).shape == (1, 4, 4, 4)


def test_block_rejects_unknown_preprocess():
    with pytest.raises(ConfigError):
        PmdBlock(np.random.default_rng(0), 2, 2, preprocess="fft")
