"""Tape mechanics and hand-checkable op cases.

Gradient formula coverage lives in the finite-difference suite; here the
focus is bookkeeping: recording, accumulation, aliasing, precision modes
and the couple of ops whose values are easy to verify by hand.
"""

import math

import numpy as np
import pytest

from pmtk import precision
from pmtk import tensor as T
from pmtk.errors import DataError, DimensionError, DivergenceError


def scalar_graph(a, b):
    return T.tsum(T.mul(a, b))


def test_backward_product_rule():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    with T.Tape() as tape:
        loss = scalar_graph(a, b)
    grads = T.backward(tape, loss)
    np.testing.assert_array_equal(T.grad_of(grads, a), b.data)
    np.testing.assert_array_equal(T.grad_of(grads, b), a.data)


def test_grad_accumulates_over_reuse():
    x = T.Tensor([2.0])
    with T.Tape() as tape:
        loss = T.tsum(T.mul(x, x))
    g = T.grad_of(T.backward(tape, loss), x)
    np.testing.assert_allclose(g, [4.0])


def test_off_tape_tensor_gets_zeros():
    x = T.Tensor([1.0, 2.0])
    other = T.Tensor([3.0, 4.0])
    with T.Tape() as tape:
        loss = T.tsum(x)
    g = T.grad_of(T.backward(tape, loss), other)
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_no_active_tape_records_nothing():
    x = T.Tensor([1.0])
    out = T.relu(x)
    assert T.active_tape() is None
    np.testing.assert_array_equal(out.data, [1.0])


def test_aliased_gradient_buffers_stay_independent():
    # add's backward hands the same upstream array to both inputs; an
    # in-place accumulation into one must not leak into the other
    a = T.Tensor([1.0, 1.0])
    b = T.Tensor([2.0, 2.0])
    with T.Tape() as tape:
        s = T.add(a, b)
        loss = T.tsum(T.add(s, T.mul(a, a)))
    grads = T.backward(tape, loss)
    np.testing.assert_allclose(T.grad_of(grads, b), [1.0, 1.0])
    np.testing.assert_allclose(T.grad_of(grads, a), [3.0, 3.0])


def test_view_returning_backward_not_corrupted():
    # reshape backward returns a view of the upstream gradient; later
    # accumulation into the viewed tensor must not double-count
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    with T.Tape() as tape:
        r = T.reshape(x, (4,))
        loss = T.add(T.tsum(r), T.tsum(x))
    g = T.grad_of(T.backward(tape, loss), x)
    np.testing.assert_allclose(g, np.full((2, 2), 2.0))


def test_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        T.add(T.Tensor([1.0]), T.Tensor([1.0, 2.0]))


def test_concat_roundtrip_gradient():
    a = T.Tensor([1.0, 2.0])
    b = T.Tensor([3.0])
    with T.Tape() as tape:
        c = T.concat([a, b], axis=0)
        loss = T.tsum(T.mul(c, c))
    grads = T.backward(tape, loss)
    np.testing.assert_allclose(T.grad_of(grads, a), [2.0, 4.0])
    np.testing.assert_allclose(T.grad_of(grads, b), [6.0])


@pytest.mark.parametrize("with_bias", [False, True])
def test_linear_matches_einsum(with_bias):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    with precision.use("f64"):
        args = [T.Tensor(x), T.Tensor(w)] + ([T.Tensor(b)] if with_bias else [])
        out = T.linear(*args)
    expect = np.einsum("bli,io->blo", x, w) + (b if with_bias else 0.0)
    assert out.shape == (2, 3, 5)
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)


def test_linear_shapes_checked():
    x = T.Tensor(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        T.linear(x, T.Tensor(np.ones((3, 5))))
    with pytest.raises(DimensionError):
        T.linear(x, T.Tensor(np.ones((4, 5))), T.Tensor(np.ones(4)))


def test_finite_check_names_first_non_finite_record():
    with precision.use("f32"), np.errstate(all="ignore"):
        x = T.Tensor(np.full(3, 1e4))
        with T.Tape():
            assert np.isinf(T.exp(T.scale(x, 1.0)).data).all()
        with pytest.raises(DivergenceError, match=r"tensor\.exp \(tape record 1\)"):
            with T.FiniteCheck():
                T.exp(T.scale(x, 1.0))


def test_record_name_is_module_and_op():
    with T.Tape() as tape:
        T.relu(T.Tensor(np.ones(2)))
    (_, _, backward_fn), = tape
    assert T.record_name(backward_fn) == "tensor.relu"


def test_conv2d_identity_kernel():
    x = T.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = T.conv2d(x, T.Tensor(w), stride=1, pad=1)
    np.testing.assert_allclose(out.data, x.data)


def test_conv2d_stride_halves_extent():
    x = T.Tensor(np.zeros((2, 3, 8, 8)))
    w = T.Tensor(np.zeros((5, 3, 3, 3)))
    assert T.conv2d(x, w, stride=2, pad=1).shape == (2, 5, 4, 4)


def conv2d_reference(x, w, stride, pad):
    """Cross-correlation, one output pixel and kernel tap at a time."""
    B, C, H, W = x.shape
    Cout, _, k, _ = w.shape
    Ho, Wo = (H + 2 * pad - k) // stride + 1, (W + 2 * pad - k) // stride + 1
    out = np.zeros((B, Cout, Ho, Wo))
    for i in range(Ho):
        for j in range(Wo):
            for di in range(k):
                for dj in range(k):
                    r, c = i * stride + di - pad, j * stride + dj - pad
                    if 0 <= r < H and 0 <= c < W:
                        out[:, :, i, j] += x[:, :, r, c] @ w[:, :, di, dj].T
    return out


@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_matches_per_pixel_reference(k, stride, pad):
    rng = np.random.default_rng(10 * k + 2 * stride + pad)
    x = rng.standard_normal((2, 3, 5, 7))
    w = rng.standard_normal((4, 3, k, k))
    with precision.use("f64"):
        out = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, pad=pad)
    np.testing.assert_allclose(out.data, conv2d_reference(x, w, stride, pad),
                               rtol=0, atol=1e-12)


def single_record(op, *args):
    """Run ``op`` under a tape that must record it once; return the output and
    the record's backward function."""
    with T.Tape() as tape:
        out = op(*args)
    (_, _, backward_fn), = tape
    return out, backward_fn


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_zero_border_equals_padded_input_bit_for_bit(stride, mode):
    rng = np.random.default_rng(20 + stride)
    with precision.use(mode):
        x = T.Tensor(rng.standard_normal((2, 3, 6, 7)))
        w = T.Tensor(rng.standard_normal((4, 3, 3, 3)))
        xp = T.Tensor(np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1))))
        out, bwd = single_record(T.conv2d, x, w, stride, 1)
        ref, ref_bwd = single_record(T.conv2d, xp, w, stride, 0)
    np.testing.assert_array_equal(out.data, ref.data)
    g = rng.standard_normal(out.shape).astype(out.data.dtype)
    (gx, gw), (gxp, gw_ref) = bwd(g), ref_bwd(g)
    assert gx.dtype == x.data.dtype
    np.testing.assert_array_equal(gx, gxp[:, :, 1:-1, 1:-1])
    np.testing.assert_array_equal(gw, gw_ref)


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_depthwise_conv1d_equals_three_taps_on_padded_input(mode):
    rng = np.random.default_rng(23)
    with precision.use(mode):
        x = T.Tensor(rng.standard_normal((2, 5, 4)))
        w = T.Tensor(rng.standard_normal((3, 4)))
        b = T.Tensor(rng.standard_normal(4))
        out, bwd = single_record(T.depthwise_conv1d, x, w, b)
    L = x.shape[1]
    xp = np.pad(x.data, ((0, 0), (1, 1), (0, 0)))
    taps = [xp[:, i:i + L] for i in range(3)]
    ref = w.data[0] * taps[0] + w.data[1] * taps[1] + w.data[2] * taps[2] + b.data
    np.testing.assert_array_equal(out.data, ref)
    g = rng.standard_normal(out.shape).astype(out.data.dtype)
    _, gw, _ = bwd(g)
    np.testing.assert_array_equal(gw, np.stack([(t * g).sum(axis=(0, 1)) for t in taps]))


@pytest.mark.parametrize("mode, rtol", [("f32", 1e-6), ("f64", 1e-15)])
def test_softplus_matches_logaddexp_without_overflow(mode, rtol):
    x = np.array([-1e4, -100.0, -30.0, 0.0, 30.0, 100.0, 1e4])
    with precision.use(mode), np.errstate(over="raise", invalid="raise", divide="raise"):
        xt = T.Tensor(x)
        out = T.softplus(xt)
        expect = np.logaddexp(0.0, xt.data)
    assert out.data.dtype == xt.data.dtype
    np.testing.assert_allclose(out.data, expect, rtol=rtol, atol=0)


def test_norm_affine_standardizes():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.uniform(1.0, 3.0, (4, 3, 5, 5)))
    out = T.norm_affine(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, 0.0, atol=1e-7)
    np.testing.assert_allclose(var, 1.0, atol=1e-3)


def test_norm_affine_constant_channel_maps_to_beta():
    x = T.Tensor(np.full((2, 1, 4, 4), 7.0))
    out = T.norm_affine(x, T.Tensor(np.ones(1)), T.Tensor(np.array([0.25])))
    np.testing.assert_allclose(out.data, 0.25, atol=1e-12)


def standardize_reference(x, gamma, beta, axes, channel_axis, g):
    """Output and adjoint of a norm through np.mean and np.var."""
    shape = [1] * x.ndim
    shape[channel_axis] = gamma.size
    gd = gamma.reshape(shape)
    param_axes = tuple(a for a in range(x.ndim) if a != channel_axis)
    n = math.prod(x.shape[a] for a in axes)
    xw = x.astype(np.float64)
    mean = np.mean(xw, axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(np.var(xw, axis=axes, keepdims=True) + T._NORM_EPS)
    xhat = (xw - mean) * inv
    out = (xhat * gd + beta.reshape(shape)).astype(x.dtype)
    dxhat = g * gd
    dx = (inv / n) * (n * dxhat
                      - dxhat.sum(axis=axes, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
    return out, (dx, (g * xhat).sum(axis=param_axes), g.sum(axis=param_axes))


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("op", ["norm_affine", "token_norm"])
def test_norm_matches_mean_var_reference_bit_for_bit(op, mode):
    rng = np.random.default_rng(30)
    with precision.use(mode):
        x = T.Tensor(rng.uniform(-2.0, 3.0, (3, 5, 6, 7)))
        C = 5 if op == "norm_affine" else 7
        gamma = T.Tensor(rng.standard_normal(C))
        beta = T.Tensor(rng.standard_normal(C))
    if op == "norm_affine":
        x.data[:, 2] = 1.5          # a constant channel
        axes, channel_axis = (0, 2, 3), 1
    else:
        x.data[1, 3, 4] = -0.75     # a constant token
        axes, channel_axis = (3,), 3
    with precision.use(mode):
        out, bwd = single_record(getattr(T, op), x, gamma, beta)
    g = rng.standard_normal(out.shape).astype(out.data.dtype)
    ref, ref_grads = standardize_reference(x.data, gamma.data, beta.data,
                                           axes, channel_axis, g)
    assert out.data.dtype == x.data.dtype
    np.testing.assert_array_equal(out.data, ref)
    for got, want in zip(bwd(g), ref_grads):
        np.testing.assert_array_equal(got, want)


def test_bilinear_upsample_constant_preserved():
    x = T.Tensor(np.full((1, 2, 4, 4), 3.0))
    out = T.bilinear_upsample(x, 2)
    assert out.shape == (1, 2, 8, 8)
    np.testing.assert_allclose(out.data, 3.0, atol=1e-12)


def upsample_reference(x, f):
    """align_corners=False bilinear upsampling, one output pixel at a time.

    Output pixel i samples source coordinate (i + 0.5) / f - 0.5, clamped
    below at 0; the upper neighbour index is clamped at the last row/column.
    """
    B, C, H, W = x.shape
    out = np.zeros((B, C, H * f, W * f))
    for i in range(H * f):
        sy = max((i + 0.5) / f - 0.5, 0.0)
        y0 = min(int(sy), H - 1)
        y1, wy = min(y0 + 1, H - 1), sy - y0
        for j in range(W * f):
            sx = max((j + 0.5) / f - 0.5, 0.0)
            x0 = min(int(sx), W - 1)
            x1, wx = min(x0 + 1, W - 1), sx - x0
            top = (1 - wx) * x[:, :, y0, x0] + wx * x[:, :, y0, x1]
            bottom = (1 - wx) * x[:, :, y1, x0] + wx * x[:, :, y1, x1]
            out[:, :, i, j] = (1 - wy) * top + wy * bottom
    return out


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_bilinear_upsample_matches_per_pixel_reference(factor):
    x = np.random.default_rng(factor).standard_normal((2, 3, 3, 5))
    with precision.use("f64"):
        out = T.bilinear_upsample(T.Tensor(x), factor)
    np.testing.assert_allclose(out.data, upsample_reference(x, factor), rtol=0, atol=1e-12)


def test_softmax_cross_entropy_uniform_logits():
    with precision.use("f64"):
        logits = T.Tensor(np.zeros((2, 3, 2, 2)))
        target = np.zeros((2, 2, 2), dtype=np.int64)
        loss = T.softmax_cross_entropy(logits, target)
    np.testing.assert_allclose(loss.item(), np.log(3.0), rtol=1e-12)


def softmax_cross_entropy_reference(ld, t, g):
    """Loss and logit gradient, gathering through a full index meshgrid."""
    B, K, H, W = ld.shape
    m = ld.max(axis=1, keepdims=True)
    ex = np.exp(ld - m)
    denom = ex.sum(axis=1, keepdims=True)
    logp = ld - m - np.log(denom)
    bi, hi, wi = np.meshgrid(np.arange(B), np.arange(H), np.arange(W), indexing="ij")
    n = B * H * W
    p = ex / denom
    p[bi, t, hi, wi] -= 1.0
    return -logp[bi, t, hi, wi].sum() / n, p * (g / n)


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_softmax_cross_entropy_matches_meshgrid_gather_bit_for_bit(mode):
    rng = np.random.default_rng(31)
    with precision.use(mode):
        logits = T.Tensor(3.0 * rng.standard_normal((3, 4, 5, 6)))
        target = rng.integers(0, 4, (3, 5, 6))
        loss, bwd = single_record(T.softmax_cross_entropy, logits, target)
    ref_loss, ref_grad = softmax_cross_entropy_reference(logits.data, target, 0.5)
    assert loss.data.tobytes() == np.asarray(ref_loss).tobytes()
    (grad,) = bwd(np.asarray(0.5))
    assert grad.dtype == logits.data.dtype
    np.testing.assert_array_equal(grad, ref_grad)


def test_softmax_cross_entropy_rejects_bad_labels():
    logits = T.Tensor(np.zeros((1, 2, 2, 2)))
    bad = np.full((1, 2, 2), 5, dtype=np.int64)
    with pytest.raises(DataError):
        T.softmax_cross_entropy(logits, bad)


def test_precision_mode_controls_dtype():
    with precision.use("f32"):
        assert T.Tensor([1.0]).data.dtype == np.float32
    with precision.use("f64"):
        assert T.Tensor([1.0]).data.dtype == np.float64


def test_momentum_step_matches_hand_update():
    p = T.Parameter(np.array([1.0]))
    opt = T.Momentum([p], lr=0.1, momentum=0.9)
    g = {p: np.array([2.0])}
    opt.step(g)
    np.testing.assert_allclose(p.data, [0.8])
    opt.step(g)
    # velocity 0.9*2 + 2 = 3.8, param 0.8 - 0.38
    np.testing.assert_allclose(p.data, [0.42])


def test_module_collects_nested_parameters():
    class Leaf(T.Module):
        def __init__(self):
            self.w = T.Parameter(np.zeros(2))

    class Root(T.Module):
        def __init__(self):
            self.a = Leaf()
            self.b = Leaf()

    names = [n for n, _ in Root().named_parameters()]
    assert names == ["a.w", "b.w"]
