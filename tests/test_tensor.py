"""Tape mechanics and hand-checkable op cases.

Gradient formula coverage lives in the finite-difference suite; here the
focus is bookkeeping: recording, accumulation, aliasing, dtypes (an op
computes in the dtype of its inputs; a Tensor is float32 unless given a
dtype) and the couple of ops whose values are easy to verify by hand,
the Vim mixer's pointwise and depthwise helpers in ``ssm`` among them.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from pmtk import model as M
from pmtk import ssm
from pmtk import tensor as T
from pmtk.errors import DataError, DimensionError, DivergenceError, UsageError

from dtypes import DTYPES
from records import RECORD_OVERHEAD, kept_bytes, relu_like_gradient, retained_bytes


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


def test_add_of_two_leaves_and_of_a_leaf_with_itself():
    a, b, x = T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]), T.Tensor([5.0, 6.0])
    with T.Tape() as tape:
        loss = T.tsum(T.add(T.add(a, b), T.add(x, x)))
    grads = T.backward(tape, loss)
    assert set(grads) == {a, b, x}
    np.testing.assert_array_equal(grads[a], [1.0, 1.0])
    np.testing.assert_array_equal(grads[b], [1.0, 1.0])
    np.testing.assert_array_equal(grads[x], [2.0, 2.0])


def test_returned_gradients_are_read_only():
    # add hands one array to both leaves; a write through either entry
    # would change the other
    a, b = T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0])
    with T.Tape() as tape:
        loss = T.tsum(T.mul(T.add(a, b), T.Tensor([2.0, 3.0])))
    grads = T.backward(tape, loss)
    for g in grads.values():
        assert not g.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g += 1.0
    np.testing.assert_array_equal(grads[a], [2.0, 3.0])
    np.testing.assert_array_equal(grads[b], [2.0, 3.0])


def test_closure_writing_into_its_gradient_raises():
    x = T.Tensor([1.0, 2.0])

    def bwd(g):
        g *= 2.0
        return (g,)

    with T.Tape() as tape:
        y = T.record_op((x,), x.data.copy(), bwd)
        loss = T.tsum(T.add(y, y))
    with pytest.raises(ValueError, match="read-only"):
        T.backward(tape, loss)


def test_backward_consumes_its_tape():
    # sweeping the emptied record list again would silently return only the
    # loss's seed gradient
    x = T.Tensor([1.0, 2.0])
    with T.Tape() as tape:
        loss = T.tsum(T.mul(x, x))
    assert len(tape) == 2
    grads = T.backward(tape, loss)
    assert len(tape) == 0
    assert list(tape) == []
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])
    with pytest.raises(UsageError, match="already swept"):
        T.backward(tape, loss)


def test_backward_frees_each_record_before_running_the_one_before_it():
    def times(t, c):
        return T.record_op((t,), t.data * c, lambda g: (g * c,))

    seen = []

    def first(g):
        seen.append(alive())
        return (g,)

    x = T.Tensor([1.0, 2.0])
    c = np.full(2, 3.0)
    alive = weakref.ref(c)
    with T.Tape() as tape:
        y = T.record_op((x,), x.data.copy(), first)
        loss = T.tsum(times(y, c))
    del c
    grads = T.backward(tape, loss)
    # only the later record's closure held c, and it was freed before the
    # first record's closure ran
    assert seen == [None]
    np.testing.assert_array_equal(grads[x], [3.0, 3.0])


def reference_backward(tape, loss):
    """The copy-everything sweep: every gradient, a copy of each first
    arrival, kept until the end, by record key."""
    grads = {tape.key(loss): np.ones_like(loss.data)}
    for in_keys, out_key, backward_fn in reversed(list(tape)):
        g = grads.get(out_key)
        if g is None:
            continue
        for key, gi in zip(in_keys, backward_fn(g)):
            if gi is None:
                continue
            acc = grads.get(key)
            if acc is None:
                grads[key] = np.array(gi, dtype=loss.data.dtype)
            else:
                acc += gi
    return grads


def micro_training_tape(dtype=np.float32):
    """Tape and loss of one micro-model training step at batch 8, 32x32."""
    rng = np.random.default_rng(0)
    model = M.PMamba(rng, M.MICRO_PLAN, size=32).astype(dtype)
    x = rng.uniform(0.0, 1.0, (8, 1, 32, 32))
    target = (rng.uniform(size=(8, 32, 32)) > 0.5).astype(np.int64)
    with T.Tape() as tape:
        loss, _ = M.total_loss(model(T.Tensor(x, dtype)), target)
    return tape, loss


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_backward_equals_copy_everything_sweep_bit_for_bit(mode):
    tape, loss = micro_training_tape(DTYPES[mode])
    assert loss.data.dtype == DTYPES[mode]
    # the sweep consumes the tape, so its keys are read before it
    produced = {out_key for _, out_key, _ in tape}
    ref = reference_backward(tape, loss)
    grads = T.backward(tape, loss)
    leaves = {key for key in ref if key not in produced}
    assert all(isinstance(t, T.Tensor) for t in leaves)
    assert set(grads) == leaves
    assert (len(grads), len(ref)) == (314, 571)
    for t in leaves:
        assert grads[t].dtype == ref[t].dtype
        assert grads[t].tobytes() == ref[t].tobytes()


def test_backward_frees_consumed_gradients():
    # tracemalloc counts numpy's buffers exactly, so these figures repeat.
    # The sweep keeps the leaves' gradients (749 KB) and views' bases
    # (60 KB); a sweep that keeps dead gradients again retains 2.5 MB, and
    # 3.4 MB when the Vim mixer was 19 records
    tape, loss = micro_training_tape()
    produced = {out_key for _, out_key, _ in tape}
    traced = []
    for sweep in (reference_backward, T.backward):
        tracemalloc.start()
        try:
            grads = sweep(tape, loss)
            traced.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        if sweep is reference_backward:
            leaf_bytes = sum(g.nbytes for key, g in grads.items() if key not in produced)
        del grads
    (ref_retained, ref_peak), (retained, peak) = traced
    assert peak < 0.5 * ref_peak
    assert retained < 1.1 * leaf_bytes < 0.4 * ref_retained


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
    args = [T.Tensor(a, np.float64) for a in ([x, w, b] if with_bias else [x, w])]
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
    # 1e30 squared overflows float32
    with np.errstate(all="ignore"):
        x = T.Tensor(np.full(3, 1e30))
        with T.Tape():
            assert np.isinf(T.mul(T.scale(x, 1.0), x).data).all()
        with pytest.raises(DivergenceError, match=r"tensor\.mul \(tape record 1\)"):
            with T.FiniteCheck():
                T.mul(T.scale(x, 1.0), x)


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
    out = T.conv2d(T.Tensor(x, np.float64), T.Tensor(w, np.float64), stride=stride, pad=pad)
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
    dtype = DTYPES[mode]
    x = T.Tensor(rng.standard_normal((2, 3, 6, 7)), dtype)
    w = T.Tensor(rng.standard_normal((4, 3, 3, 3)), dtype)
    xp = T.Tensor(np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1))), dtype)
    out, bwd = single_record(T.conv2d, x, w, stride, 1)
    ref, ref_bwd = single_record(T.conv2d, xp, w, stride, 0)
    assert out.data.dtype == dtype
    np.testing.assert_array_equal(out.data, ref.data)
    g = rng.standard_normal(out.shape).astype(out.data.dtype)
    (gx, gw), (gxp, gw_ref) = bwd(g), ref_bwd(g)
    assert gx.dtype == x.data.dtype
    np.testing.assert_array_equal(gx, gxp[:, :, 1:-1, 1:-1])
    np.testing.assert_array_equal(gw, gw_ref)


def conv2d_backward_kept_cols(xd, wd, stride, pad, g):
    """conv2d's backward as it was when the record kept its im2col matrix:
    cols built tap by tap, col2im as one strided += per tap. Returns (gx, gw)."""
    B, C, H, W = xd.shape
    Cout, _, k, _ = wd.shape
    Ho, Wo = g.shape[2:]
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=xd.dtype)
    xp[:, :, pad:pad + H, pad:pad + W] = xd
    cols = np.empty((B, C, k, k, Ho, Wo), dtype=xd.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride]
    cols = cols.reshape(B, C * k * k, Ho * Wo)
    g3 = g.reshape(B, Cout, Ho * Wo)
    if Ho * Wo >= Cout:
        gw = (g3 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(wd.shape)
    else:
        gw = np.tensordot(g3, cols, ((0, 2), (0, 2))).reshape(wd.shape)
    gcols = wd.reshape(Cout, C * k * k).T @ g3
    if k == 1 and stride == 1:
        gxp = gcols.reshape(xp.shape)
    else:
        gcols = gcols.reshape(B, C, k, k, Ho, Wo)
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += gcols[:, :, i, j]
    return gxp[:, :, pad:pad + H, pad:pad + W], gw


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(1, 2, 7, 5), (3, 3, 5, 3)])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_backward_equals_kept_cols_backward_bit_for_bit(k, stride, pad, shape, mode):
    # the record rebuilds cols and sums col2im taps through zeroed planes;
    # both must leave every gradient byte as keeping cols did, -0.0 and
    # inf in g included. (3, 3, 5, 3) at k=3, stride 2 takes gw's
    # tensordot branch, the others its per-image products
    rng = np.random.default_rng(sum(shape) + 10 * k + 2 * stride + pad)
    dtype = DTYPES[mode]
    x = T.Tensor(rng.standard_normal(shape), dtype)
    w = T.Tensor(rng.standard_normal((5, shape[1], k, k)), dtype)
    out, bwd = single_record(T.conv2d, x, w, stride, pad)
    g = relu_like_gradient(rng, out.shape, dtype)
    with np.errstate(invalid="ignore"):
        gx, gw = bwd(g)
        ref_gx, ref_gw = conv2d_backward_kept_cols(x.data, w.data, stride, pad, g)
    assert (gx.dtype, gw.dtype) == (dtype, dtype)
    assert gx.tobytes() == ref_gx.tobytes()
    assert gw.tobytes() == ref_gw.tobytes()


@pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 1), (1, 2, 0)])
def test_conv2d_record_keeps_no_im2col_matrix(k, stride, pad):
    # The closure keeps only the input, so recording retains the output,
    # which the caller holds, and no more: no im2col matrix (9x the input
    # at k=3, 1/4 at k=1 stride 2) and no padded copy. Over the batch-8 f32 micro_training_tape, traced
    # from just before its forward, keeping them made the tape 8869 KiB and
    # the forward-plus-backward peak 10358 KiB; rebuilding them (and the
    # scan's decays) in the backward gives 5675 and 7499 KiB.
    rng = np.random.default_rng(30 + k)
    x = T.Tensor(rng.standard_normal((2, 4, 32, 32)))
    w = T.Tensor(rng.standard_normal((4, 4, k, k)))
    retained, out_nbytes = retained_bytes(T.conv2d, x, w, stride, pad)
    assert out_nbytes <= retained <= out_nbytes + RECORD_OVERHEAD


# [B,C,H,W] of the record guards below: 32 KiB in f32
MAP = (2, 4, 32, 32)


def f32_map(shape=MAP):
    return np.random.default_rng(40).standard_normal(shape).astype(np.float32)


@pytest.mark.parametrize("op, arrays, extra", [
    (T.add, 2, ()),
    (T.reshape, 1, ((8, 1024),)),
    (T.transpose, 1, ((0, 2, 3, 1),)),
], ids=["add", "reshape", "transpose"])
def test_record_keeps_no_array(op, arrays, extra):
    # A record keeps keys, not tensors, and these closures read no array:
    # once the caller drops input and output, the tape keeps neither. A
    # record that held its tensors kept 64-96 KiB here.
    assert kept_bytes(op, *[f32_map() for _ in range(arrays)], *extra) <= RECORD_OVERHEAD


def test_relu_record_keeps_only_its_output():
    # the backward's mask is read off the output, not the input
    x = f32_map()
    assert x.nbytes <= kept_bytes(T.relu, x) <= x.nbytes + RECORD_OVERHEAD


def test_bilinear_upsample_record_keeps_only_its_matrices():
    # the two [32, 16] interpolation matrices; neither the [2,8,16,16]
    # input nor the 4x larger output
    matrices = 2 * 32 * 16 * np.dtype(np.float32).itemsize
    assert kept_bytes(T.bilinear_upsample, f32_map((2, 8, 16, 16)), 2) <= matrices + RECORD_OVERHEAD


@pytest.mark.parametrize("op, shape, stats", [
    (T.norm_affine, MAP, MAP[1]),
    (T.token_norm, (2, 128, 32), 2 * 128),
], ids=["norm_affine", "token_norm"])
def test_norm_record_keeps_only_its_input(op, shape, stats):
    # the f32 input and two 64-bit vectors of statistics (mean and 1/std, one
    # entry per channel or per token); not the output, and not the 64-bit
    # standardized input, twice the input's size, which the backward rebuilds.
    x = f32_map(shape)
    D = shape[1] if op is T.norm_affine else shape[-1]
    gamma, beta = T.Tensor(np.ones(D)), T.Tensor(np.zeros(D))
    vectors = 2 * stats * np.dtype(np.float64).itemsize
    kept = kept_bytes(op, x, gamma, beta)
    assert x.nbytes <= kept <= x.nbytes + vectors + RECORD_OVERHEAD


def test_conv2d_backward_holds_one_kernel_row_of_planes():
    # The stem2 conv of a default-plan batch-8 64x64 step. Besides gcols and
    # the padded gradient, col2im's planes are the backward's transient: one
    # kernel row is 3 padded maps, 1.8 MB; all nine taps held 5.3 MB.
    rng = np.random.default_rng(31)
    x = T.Tensor(rng.standard_normal((8, 16, 32, 32)))
    w = T.Tensor(rng.standard_normal((16, 16, 3, 3)))
    out, bwd = single_record(T.conv2d, x, w, 2, 1)
    g = rng.standard_normal(out.shape).astype(np.float32)
    padded = 8 * 16 * 34 * 34 * 4
    gcols = 8 * (16 * 9) * (16 * 16) * 4
    tracemalloc.start()
    try:
        grads = bwd(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del grads
    assert peak <= gcols + padded + 3 * padded + RECORD_OVERHEAD


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_depthwise_conv1d_equals_three_taps_on_padded_input(mode):
    rng = np.random.default_rng(23)
    dtype = DTYPES[mode]
    x, w, b = (rng.standard_normal(shape).astype(dtype) for shape in ((2, 5, 4), (3, 4), (4,)))
    out, bwd = ssm.depthwise_conv1d_np(x, w, b)
    assert out.dtype == dtype
    L = x.shape[1]
    xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
    taps = [xp[:, i:i + L] for i in range(3)]
    ref = w[0] * taps[0] + w[1] * taps[1] + w[2] * taps[2] + b
    np.testing.assert_array_equal(out, ref)
    g = rng.standard_normal(out.shape).astype(dtype)
    _, gw, _ = bwd(g)
    np.testing.assert_array_equal(gw, np.stack([(t * g).sum(axis=(0, 1)) for t in taps]))


@pytest.mark.parametrize("mode, rtol", [("f32", 1e-6), ("f64", 1e-15)])
def test_softplus_matches_logaddexp_without_overflow(mode, rtol):
    x = np.array([-1e4, -100.0, -30.0, 0.0, 30.0, 100.0, 1e4])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        xt = x.astype(DTYPES[mode])
        out, _ = ssm.softplus_np(xt)
        expect = np.logaddexp(0.0, xt)
    assert out.dtype == xt.dtype
    np.testing.assert_allclose(out, expect, rtol=rtol, atol=0)


@pytest.mark.parametrize("mode, rtol", [("f32", 1e-6), ("f64", 1e-14)])
def test_sigmoid_of_silu_and_softplus_does_not_overflow(mode, rtol):
    # e^-x overflows at x = -100 in f32 and at x = -1000 in f64; the sigmoid
    # is then exactly 0, and numpy must not warn (a warning fails the test)
    dtype = DTYPES[mode]
    x = np.array([-1000.0, -100.0, -10.0, 0.0, 10.0, 100.0, 1000.0], dtype)
    silu, silu_bwd = ssm.silu_np(x)
    _, softplus_bwd = ssm.softplus_np(x)
    g = np.ones_like(x)
    xw = x.astype(np.float64)
    sig = np.exp(-np.logaddexp(0.0, -xw))
    for got, want in ((silu, xw * sig),
                      (silu_bwd(g)[0], sig * (1.0 + xw * (1.0 - sig))),
                      (softplus_bwd(g)[0], sig)):
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-30)


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
    dtype = DTYPES[mode]
    x = T.Tensor(rng.uniform(-2.0, 3.0, (3, 5, 6, 7)), dtype)
    C = 5 if op == "norm_affine" else 7
    gamma = T.Tensor(rng.standard_normal(C), dtype)
    beta = T.Tensor(rng.standard_normal(C), dtype)
    if op == "norm_affine":
        x.data[:, 2] = 1.5          # a constant channel
        axes, channel_axis = (0, 2, 3), 1
    else:
        x.data[1, 3, 4] = -0.75     # a constant token
        axes, channel_axis = (3,), 3
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
    out = T.bilinear_upsample(T.Tensor(x, np.float64), factor)
    np.testing.assert_allclose(out.data, upsample_reference(x, factor), rtol=0, atol=1e-12)


def test_softmax_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((2, 3, 2, 2)), np.float64)
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
    logits = T.Tensor(3.0 * rng.standard_normal((3, 4, 5, 6)), DTYPES[mode])
    target = rng.integers(0, 4, (3, 5, 6))
    loss, bwd = single_record(T.softmax_cross_entropy, logits, target)
    assert loss.data.dtype == DTYPES[mode]
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


def test_tensor_dtype_is_explicit_or_float32():
    # the input's own dtype does not carry over; only an explicit one does
    assert T.Tensor([1.0]).data.dtype == np.float32
    assert T.Tensor(np.ones(2, np.float64)).data.dtype == np.float32
    assert T.Tensor(np.ones(2, np.float32), np.float64).data.dtype == np.float64
    assert T.Parameter(np.ones(2)).data.dtype == np.float32
    # an op's output keeps the dtype it was computed in
    for dtype in (np.float32, np.float64):
        x = T.Tensor([1.0, -2.0], dtype)
        assert T.relu(T.scale(x, 3.0)).data.dtype == dtype
        assert T.record_op((x,), x.data.astype(np.float64), lambda g: (g,)).data.dtype == np.float64


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
