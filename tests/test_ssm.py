"""Scan kernels against the definitional recurrence, the Vim mixer against
its per-op composition, plus token plumbing."""

import numpy as np
import pytest

from pmtk import ssm
from pmtk import tensor as T
from pmtk.errors import ConfigError, DimensionError
from pmtk.gradcheck import TOL, check_scalar_fn
from pmtk.ssm import (
    PatchEmbed,
    SsmParams,
    VimBlockWeights,
    loglog_slope,
    scan_complexity_probe,
    scan_backward_np,
    scan_forward_np,
    tokens_to_map,
    vim_block,
)

from dtypes import DTYPES
from records import RECORD_OVERHEAD, kept_bytes, relu_like_gradient, retained_bytes


def scan_core(u: T.Tensor, delta: T.Tensor, A: T.Tensor, B: T.Tensor,
              C: T.Tensor, Dskip: T.Tensor, reverse: bool = False) -> T.Tensor:
    """One scan direction as its own tape record over [Bn, L, D], on the
    package kernels: the per-op form of the Vim mixer's scans, which the
    mixer (``ssm.scan_core``) is checked against.

    ``reverse=True`` scans from the last token to the first: the same as
    flipping u, delta, B and C along L, scanning, and flipping y back. The
    kernels run on reversed views, so no flipped copy is taped.
    """
    seq = slice(None, None, -1 if reverse else 1)
    y = scan_forward_np(u.data[:, seq], delta.data[:, seq], A.data,
                        B.data[:, seq], C.data[:, seq], Dskip.data)

    def bwd(gy):
        _, (gu, gdelta, gA, gB, gC, gDskip) = scan_backward_np(
            gy[:, seq], u.data[:, seq], delta.data[:, seq], A.data,
            B.data[:, seq], C.data[:, seq], Dskip.data)
        return gu[:, seq], gdelta[:, seq], gA, gB[:, seq], gC[:, seq], gDskip

    return T.record_op((u, delta, A, B, C, Dskip), y[:, seq], bwd)


def silu(x: T.Tensor) -> T.Tensor:
    """``ssm.silu_np`` as its own tape record."""
    out, bwd = ssm.silu_np(x.data)
    return T.record_op((x,), out, bwd)


def softplus(x: T.Tensor) -> T.Tensor:
    """``ssm.softplus_np`` as its own tape record."""
    out, bwd = ssm.softplus_np(x.data)
    return T.record_op((x,), out, bwd)


def exp(x: T.Tensor) -> T.Tensor:
    """``np.exp`` as its own tape record."""
    out = np.exp(x.data)
    return T.record_op((x,), out, lambda g: (g * out,))


def depthwise_conv1d(x: T.Tensor, w: T.Tensor, bias: T.Tensor) -> T.Tensor:
    """``ssm.depthwise_conv1d_np`` as its own tape record."""
    out, bwd = ssm.depthwise_conv1d_np(x.data, w.data, bias.data)
    return T.record_op((x, w, bias), out, bwd)


def selective_scan(x: T.Tensor, p: SsmParams, reverse: bool = False) -> T.Tensor:
    """Input-dependent scan of a token sequence [Bn, L, D] as per-op records,
    last token first if ``reverse``."""
    D = p.W_dt.shape[0]
    if x.ndim != 3 or x.shape[2] != D:
        raise DimensionError(f"selective_scan: expected [Bn, L, {D}], got {x.shape}")
    delta = softplus(T.linear(x, p.W_dt, p.b_dt))
    Bmat = T.linear(x, p.W_B)
    Cmat = T.linear(x, p.W_C)
    A = T.scale(exp(p.A_log), -1.0)
    return scan_core(x, delta, A, Bmat, Cmat, p.D_skip, reverse)


def composed_mixer(u_lin: T.Tensor, z: T.Tensor, w: VimBlockWeights) -> T.Tensor:
    """The Vim mixer as one record per op, in the order ``ssm.scan_core``'s
    backward follows, from the mixer's own forward/adjoint pairs."""
    u = silu(depthwise_conv1d(u_lin, w.conv_w, w.conv_b))
    pre_gate = T.add(selective_scan(u, w.fwd), selective_scan(u, w.bwd, reverse=True))
    return T.mul(pre_gate, silu(z))


def composed_vim_block(X: T.Tensor, w: VimBlockWeights) -> T.Tensor:
    """``vim_block`` with the mixer as per-op records."""
    Xn = T.token_norm(X, w.norm_g, w.norm_b)
    u_lin = T.linear(Xn, w.W_in, w.b_in)
    z = T.linear(Xn, w.W_gate, w.b_gate)
    return T.add(T.linear(composed_mixer(u_lin, z, w), w.W_out, w.b_out), X)


def map_to_tokens(x: T.Tensor) -> tuple:
    """[Bn,D,h,w] feature map -> ([Bn, h*w, D], (h, w)), row-major; the
    inverse of ``tokens_to_map``."""
    if x.ndim != 4:
        raise DimensionError(f"map_to_tokens: map must be [Bn,D,h,w], got {x.shape}")
    Bn, D, h, w = x.shape
    return T.transpose(T.reshape(x, (Bn, D, h * w)), (0, 2, 1)), (h, w)


def random_scan_inputs(rng, Bn, L, D, S):
    u = rng.standard_normal((Bn, L, D))
    delta = np.log1p(np.exp(rng.standard_normal((Bn, L, D)) - 1.0))
    A = -np.exp(rng.standard_normal((D, S)))
    B = rng.standard_normal((Bn, L, S))
    C = rng.standard_normal((Bn, L, S))
    Dskip = rng.standard_normal(D)
    return u, delta, A, B, C, Dskip


def scan_sequential(u, delta, A, B, C, Dskip):
    """Definitional recurrence, looped per batch item, time step and channel."""
    Bn, L, D = u.shape
    S = A.shape[1]
    y = np.zeros_like(u)
    for b in range(Bn):
        for d in range(D):
            h = np.zeros(S, dtype=u.dtype)
            for t in range(L):
                abar = np.exp(delta[b, t, d] * A[d])
                h = abar * h + delta[b, t, d] * B[b, t] * u[b, t, d]
                y[b, t, d] = C[b, t] @ h + Dskip[d] * u[b, t, d]
    return y


# ---------------------------------------------------------------------------
# Kernel vs recurrence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(1, 4, 1, 1), (2, 7, 3, 2), (1, 16, 5, 4), (3, 5, 2, 8)])
def test_vectorized_matches_sequential(dims):
    rng = np.random.default_rng(sum(dims))
    args = random_scan_inputs(rng, *dims)
    np.testing.assert_allclose(scan_forward_np(*args), scan_sequential(*args),
                               rtol=0, atol=1e-12)


def test_single_step_closed_form():
    # with one token the state is delta*B*u, so y = delta*u*<C,B> + Dskip*u
    rng = np.random.default_rng(0)
    u, delta, A, B, C, Dskip = random_scan_inputs(rng, 2, 1, 3, 4)
    y = scan_forward_np(u, delta, A, B, C, Dskip)
    expect = delta * u * np.einsum("bls,bls->bl", C, B)[..., None] + Dskip * u
    np.testing.assert_allclose(y, expect, atol=1e-14)


def test_constant_input_geometric_series():
    # constant decay a and injection b give h_t = b*(1-a^(t+1))/(1-a)
    L, a, b, c, dsk = 6, 0.5, 0.3, 2.0, 0.25
    delta = np.full((1, L, 1), 1.0)
    A = np.array([[np.log(a)]])          # abar = exp(delta*A) = a
    u = np.ones((1, L, 1))
    Bm = np.full((1, L, 1), b)
    Cm = np.full((1, L, 1), c)
    y = scan_forward_np(u, delta, A, Bm, Cm, np.array([dsk]))
    t = np.arange(1, L + 1)
    expect = c * b * (1 - a ** t) / (1 - a) + dsk
    np.testing.assert_allclose(y[0, :, 0], expect, atol=1e-12)


def test_zero_input_zero_output():
    rng = np.random.default_rng(1)
    u, delta, A, B, C, Dskip = random_scan_inputs(rng, 1, 5, 2, 3)
    y = scan_forward_np(np.zeros_like(u), delta, A, B, C, Dskip)
    np.testing.assert_array_equal(y, 0.0)


def test_causality():
    rng = np.random.default_rng(2)
    u, delta, A, B, C, Dskip = random_scan_inputs(rng, 2, 12, 3, 4)
    y0 = scan_forward_np(u, delta, A, B, C, Dskip)
    u2 = u.copy()
    u2[:, 7] += 1.0
    y1 = scan_forward_np(u2, delta, A, B, C, Dskip)
    np.testing.assert_array_equal(y0[:, :7], y1[:, :7])
    assert np.abs(y0[:, 7:] - y1[:, 7:]).max() > 1e-6


def test_scan_core_records_and_matches_numpy():
    rng = np.random.default_rng(3)
    arrays = random_scan_inputs(rng, 2, 6, 2, 3)
    u, delta, A, B, C, Dskip = arrays
    # reverse=True is flip-scan-flip: u, delta, B, C reversed along L
    flipped = scan_sequential(u[:, ::-1], delta[:, ::-1], A, B[:, ::-1],
                              C[:, ::-1], Dskip)[:, ::-1]
    for reverse, expect in ((False, scan_sequential(*arrays)), (True, flipped)):
        tensors = [T.Tensor(a, np.float64) for a in arrays]
        with T.Tape() as tape:
            y = scan_core(*tensors, reverse=reverse)
            loss = T.tsum(y)
        grads = T.backward(tape, loss)
        np.testing.assert_allclose(y.data, expect, atol=1e-12)
        for t in tensors:
            assert np.isfinite(T.grad_of(grads, t)).all()


@pytest.mark.parametrize("reverse", [False, True])
def test_scan_core_batch_items_do_not_interact(reverse):
    # the time-major state interleaves the batch at every step; a batch of
    # three must give each sample's output and gradients as if scanned alone
    rng = np.random.default_rng(11)
    arrays = random_scan_inputs(rng, 3, 9, 4, 3)
    r = rng.uniform(0.5, 1.5, arrays[0].shape)

    def run(arrs, weight):
        tensors = [T.Tensor(a, np.float64) for a in arrs]
        with T.Tape() as tape:
            y = scan_core(*tensors, reverse=reverse)
            loss = T.tsum(T.mul(y, T.Tensor(weight, np.float64)))
        grads = T.backward(tape, loss)
        return y.data, [T.grad_of(grads, t) for t in tensors]

    per_sample = (0, 1, 3, 4)          # u, delta, B, C; A and Dskip are shared
    y, grads = run(arrays, r)
    shared = [np.zeros_like(arrays[2]), np.zeros_like(arrays[5])]
    for b in range(3):
        one = [a[b:b + 1] if i in per_sample else a for i, a in enumerate(arrays)]
        y1, g1 = run(one, r[b:b + 1])
        np.testing.assert_allclose(y[b:b + 1], y1, rtol=0, atol=1e-12)
        for i in per_sample:
            np.testing.assert_allclose(grads[i][b:b + 1], g1[i], rtol=0, atol=1e-12)
        shared[0] += g1[2]
        shared[1] += g1[5]
    np.testing.assert_allclose(grads[2], shared[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[5], shared[1], rtol=0, atol=1e-12)


def scan_kept_decays(gy, u, delta, A, B, C, Dskip):
    """The scan kernels as they were when the record kept the states H and
    the decays abar, with broadcast outer products: returns (y, the six
    input gradients)."""
    ut, dt, Bt, Ct, gyt = [np.ascontiguousarray(a.swapaxes(0, 1)) for a in (u, delta, B, C, gy)]
    abar = dt[:, :, None, :] * np.ascontiguousarray(A.T)
    np.exp(abar, out=abar)
    H = Bt[..., None] * (dt * ut)[:, :, None, :]
    for t in range(1, len(H)):
        H[t] += abar[t] * H[t - 1]
    y = (Ct[:, :, None, :] @ H)[:, :, 0].swapaxes(0, 1) + Dskip * u
    G = Ct[..., None] * gyt[:, :, None, :]
    for t in range(len(G) - 2, -1, -1):
        G[t] += abar[t + 1] * G[t + 1]
    GB = (Bt[:, :, None, :] @ G)[:, :, 0]
    gB = (G @ (dt * ut)[..., None])[..., 0].swapaxes(0, 1)
    gC = (H @ gyt[..., None])[..., 0].swapaxes(0, 1)
    gdA = G
    gdA[1:] *= H[:-1]
    gdA[1:] *= abar[1:]
    gdA[0] = 0
    gu = gy * Dskip + (dt * GB).swapaxes(0, 1)
    gdelta = (np.einsum("lbsd,sd->lbd", gdA, np.ascontiguousarray(A.T)) + ut * GB).swapaxes(0, 1)
    gA = np.einsum("lbsd,lbd->ds", gdA, dt)
    gDskip = np.einsum("bld,bld->d", gy, u)
    return y, (gu, gdelta, gA, gB, gC, gDskip)


def short_passes(monkeypatch):
    """Passes of the state loops of one time step whatever a step's size, so
    that small test shapes span many passes."""
    monkeypatch.setattr(ssm, "PASS_ELEMENTS", 0)


def pass_steps(Bn, L, D, S):
    """Time steps in one pass of the state loops over [Bn, L, D] inputs
    with S states."""
    return len(ssm._scratch(np.zeros((L, Bn, D)), np.zeros((D, S)), np.zeros((L, Bn, S))))


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("dims", [(1, 7, 3, 5), (3, 5, 4, 2), (2, 67, 3, 2)])
def test_scan_kernels_equal_kept_decays_bit_for_bit(dims, reverse, mode, monkeypatch):
    # the kernels rebuild abar and H a pass at a time with the same products
    # in the same order, and their einsum outer products equal the broadcast
    # ones, so y (the forward's, and the backward's from its rebuilt states)
    # and all six gradients keep every byte, on reversed views too; here
    # every pass is one step, so the states span at least five passes
    short_passes(monkeypatch)
    assert pass_steps(*dims) == 1 and dims[1] >= 5
    check_kernels_against_kept_decays(dims, reverse, DTYPES[mode])


def test_pass_holds_pass_elements_and_at_least_one_step(monkeypatch):
    # a pass takes as many steps as fit in PASS_ELEMENTS values, and one
    # when a single step of Bn * S * D values holds more
    Bn, L, D, S = 2, 300, 16, 8
    assert pass_steps(Bn, L, D, S) == ssm.PASS_ELEMENTS // (Bn * S * D) == 256
    assert pass_steps(Bn, 100, D, S) == 100
    monkeypatch.setattr(ssm, "PASS_ELEMENTS", 3 * Bn * S * D - 1)
    assert pass_steps(Bn, L, D, S) == 2
    monkeypatch.setattr(ssm, "PASS_ELEMENTS", Bn * S * D - 1)
    assert pass_steps(Bn, L, D, S) == 1


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_scan_kernels_equal_kept_decays_in_passes_of_pass_elements(mode):
    # a step of [Bn, S, D] = [2, 8, 16] is 256 values, so the default
    # PASS_ELEMENTS gives a pass of 256 steps, then the last 44
    Bn, L, D, S = 2, 300, 16, 8
    assert pass_steps(Bn, L, D, S) == 256
    check_kernels_against_kept_decays((Bn, L, D, S), True, DTYPES[mode])


def check_kernels_against_kept_decays(dims, reverse, dtype):
    rng = np.random.default_rng(sum(dims) + reverse)
    seq = slice(None, None, -1 if reverse else 1)
    u, delta, A, B, C, Dskip = [a.astype(dtype) for a in random_scan_inputs(rng, *dims)]
    gy = relu_like_gradient(rng, u.shape, dtype)[:, seq]
    args = (u[:, seq], delta[:, seq], A, B[:, seq], C[:, seq], Dskip)
    y = scan_forward_np(*args)
    with np.errstate(invalid="ignore"):
        y_bwd, grads = scan_backward_np(gy, *args)
        ref_y, ref_grads = scan_kept_decays(gy, *args)
    assert y.tobytes() == ref_y.tobytes()
    assert y_bwd.tobytes() == ref_y.tobytes()
    for grad, ref in zip(grads, ref_grads, strict=True):
        assert grad.dtype == dtype
        assert grad.tobytes() == ref.tobytes()


@pytest.mark.parametrize("reverse", [False, True])
def test_scan_core_record_keeps_no_states_or_decays(reverse):
    # H and abar are both [L, Bn, S, D], 32 KiB here against the output's
    # 8 KiB: the kernels rebuild both from the inputs and leave neither
    # behind, so recording retains only the output, which the caller holds
    rng = np.random.default_rng(12)
    Bn, L, D, S = 2, 64, 8, 4
    tensors = [T.Tensor(a, np.float64) for a in random_scan_inputs(rng, Bn, L, D, S)]
    retained, y_nbytes = retained_bytes(scan_core, *tensors, reverse)
    assert y_nbytes <= retained <= y_nbytes + RECORD_OVERHEAD


@pytest.mark.parametrize("reverse", [False, True])
def test_scan_core_gradients_match_finite_differences(reverse, monkeypatch):
    # the kernels' adjoint in float64, every input of one direction; Bn > 1
    # so the batch sums in gA and gDskip are probed, and passes of one step
    # so the state and adjoint loops cross every pass boundary
    short_passes(monkeypatch)
    rng = np.random.default_rng(13 + reverse)
    Bn, L, D, S = 2, 35, 3, 2
    signed = lambda shape: rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)
    u, B, C, Dsk = signed((Bn, L, D)), signed((Bn, L, S)), signed((Bn, L, S)), signed((D,))
    delta = rng.uniform(0.05, 0.6, (Bn, L, D))
    A = -rng.uniform(0.2, 2.0, (D, S))
    r = T.Tensor(rng.uniform(0.5, 1.5, (Bn, L, D)), np.float64)
    err = check_scalar_fn(lambda ts: T.tsum(T.mul(scan_core(*ts, reverse=reverse), r)),
                          [u, delta, A, B, C, Dsk])
    assert err < TOL


# ---------------------------------------------------------------------------
# The Vim mixer: one record, equal to its per-op composition
# ---------------------------------------------------------------------------

def mixer_inputs(rng, Bn, L, d, s, dtype):
    """u_lin, z and a block's weights, all in ``dtype``; the biases, zero at
    initialization, are drawn so that their adjoints are exercised."""
    w = VimBlockWeights(rng, d=d, s=s)
    for p in (w.conv_b, w.b_in, w.b_gate, w.b_out, w.norm_b):
        p.data = rng.uniform(-0.5, 0.5, p.shape)
    w.astype(dtype)
    u_lin, z = (rng.standard_normal((Bn, L, 2 * d)).astype(dtype) for _ in range(2))
    return u_lin, z, w


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_vim_block_equals_per_op_composition_bit_for_bit(mode, monkeypatch):
    # the mixer runs each op's own forward and adjoint, and adds u's gradient
    # terms in the per-op tape's order, so the block's output and the
    # gradients of its input and of every weight keep every byte; L spans
    # 67 passes of one step
    short_passes(monkeypatch)
    dtype = DTYPES[mode]
    rng = np.random.default_rng(21)
    _, _, w = mixer_inputs(rng, 1, 1, d=4, s=3, dtype=dtype)
    X_np = rng.standard_normal((2, 67, 4)).astype(dtype)
    r = T.Tensor(rng.standard_normal(X_np.shape), dtype)
    runs = []
    for block in (vim_block, composed_vim_block):
        X = T.Tensor(X_np, dtype)
        with T.Tape() as tape:
            out = block(X, w)
            loss = T.tsum(T.mul(out, r))
        names = [T.record_name(fn) for _, _, fn in tape]
        grads = T.backward(tape, loss)
        runs.append((out, names, [T.grad_of(grads, t) for t in [X, *w.parameters()]]))
    (out, names, grads), (ref_out, ref_names, ref_grads) = runs
    assert names == ["tensor.token_norm", "tensor.linear", "tensor.linear", "ssm.scan_core",
                     "tensor.linear", "tensor.add", "tensor.mul", "tensor.tsum"]
    assert len(ref_names) == len(names) + 18
    assert out.data.dtype == dtype
    assert out.data.tobytes() == ref_out.data.tobytes()
    for g, ref in zip(grads, ref_grads, strict=True):
        assert g.dtype == ref.dtype == dtype
        assert g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_mixer_equals_per_op_composition_bit_for_bit(mode):
    # the mixer alone, under a gradient with -0.0 entries and an inf, with
    # Bn > 1 so the weight gradients' batch sums are compared, and in one
    # pass of the state loops
    dtype = DTYPES[mode]
    rng = np.random.default_rng(22)
    u_np, z_np, w = mixer_inputs(rng, 3, 37, d=3, s=2, dtype=dtype)
    g = T.Tensor(relu_like_gradient(rng, u_np.shape, dtype), dtype)
    runs = []
    for mixer in (ssm.scan_core, composed_mixer):
        u_lin, z = T.Tensor(u_np, dtype), T.Tensor(z_np, dtype)
        with np.errstate(invalid="ignore"), T.Tape() as tape:
            out = mixer(u_lin, z, w)
            loss = T.tsum(T.mul(out, g))
        with np.errstate(invalid="ignore"):
            grads = T.backward(tape, loss)
        runs.append((out.data, [T.grad_of(grads, t) for t in [u_lin, z, *w.parameters()]]))
    (out, grads), (ref_out, ref_grads) = runs
    assert out.tobytes() == ref_out.tobytes()
    for gr, ref in zip(grads, ref_grads, strict=True):
        assert gr.tobytes() == ref.tobytes()


def test_mixer_record_keeps_only_its_inputs():
    # delta, B, C, u and both directions' [L, Bn, S, E] states are rebuilt
    # by the backward, so the record keeps u_lin and z (the weights are the
    # block's, which the caller holds) and nothing the forward made
    rng = np.random.default_rng(23)
    u_lin, z, w = mixer_inputs(rng, 2, 64, d=8, s=4, dtype=np.float64)
    kept = kept_bytes(ssm.scan_core, u_lin, z, w)
    assert u_lin.nbytes + z.nbytes <= kept <= u_lin.nbytes + z.nbytes + RECORD_OVERHEAD


def test_mixer_rejects_mismatched_sequences():
    w = VimBlockWeights(np.random.default_rng(0), d=3)
    u_lin = T.Tensor(np.zeros((2, 5, 6)))
    with pytest.raises(DimensionError):
        ssm.scan_core(u_lin, T.Tensor(np.zeros((2, 4, 6))), w)
    with pytest.raises(DimensionError):
        ssm.scan_core(T.Tensor(np.zeros((2, 5, 4))), T.Tensor(np.zeros((2, 5, 4))), w)


# ---------------------------------------------------------------------------
# Entry points, the oracle's wrapper and the Vim block
# ---------------------------------------------------------------------------

_UNBATCHED_CALLS = {
    "conv2d": lambda: T.conv2d(T.Tensor(np.zeros((2, 4, 4))), T.Tensor(np.zeros((3, 2, 3, 3)))),
    "norm_affine": lambda: T.norm_affine(T.Tensor(np.zeros((2, 4, 4))),
                                         T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))),
    "bilinear_upsample": lambda: T.bilinear_upsample(T.Tensor(np.zeros((2, 4, 4))), 2),
    "softmax_cross_entropy": lambda: T.softmax_cross_entropy(
        T.Tensor(np.zeros((3, 2, 2))), np.zeros((2, 2), dtype=np.int64)),
    "selective_scan": lambda: selective_scan(T.Tensor(np.zeros((5, 3))),
                                             SsmParams(np.random.default_rng(0), d=3)),
    "mixer": lambda: ssm.scan_core(T.Tensor(np.zeros((5, 6))), T.Tensor(np.zeros((5, 6))),
                                   VimBlockWeights(np.random.default_rng(0), d=3)),
    "map_to_tokens": lambda: map_to_tokens(T.Tensor(np.zeros((2, 2, 2)))),
    "tokens_to_map": lambda: tokens_to_map(T.Tensor(np.zeros((4, 2))), (2, 2)),
    "patch_embed": lambda: PatchEmbed(np.random.default_rng(0), 2, 3, 5, (2, 2))(
        T.Tensor(np.zeros((3, 4, 4)))),
}


@pytest.mark.parametrize("op", list(_UNBATCHED_CALLS))
def test_entry_points_require_batch_axis(op):
    # maps are [B,C,H,W] and sequences [B,L,D]; each input here lacks its
    # batch axis but is otherwise well-formed
    with pytest.raises(DimensionError):
        _UNBATCHED_CALLS[op]()


def test_selective_scan_rejects_wrong_width():
    p = SsmParams(np.random.default_rng(0), d=3)
    with pytest.raises(DimensionError):
        selective_scan(T.Tensor(np.zeros((1, 5, 4))), p)


def test_vim_block_preserves_shape():
    rng = np.random.default_rng(5)
    w = VimBlockWeights(rng, d=4, s=2)
    X = T.Tensor(rng.standard_normal((2, 6, 4)))
    out = vim_block(X, w)
    assert out.shape == (2, 6, 4)
    assert np.isfinite(out.data).all()


def test_vim_block_rejects_wrong_width():
    w = VimBlockWeights(np.random.default_rng(0), d=4)
    with pytest.raises(DimensionError):
        vim_block(T.Tensor(np.zeros((2, 6, 5))), w)


def scan_pair(u: T.Tensor, p_fwd: SsmParams, p_bwd: SsmParams) -> T.Tensor:
    """The sum of a forward and a reversed scan, as the mixer forms it."""
    return T.add(selective_scan(u, p_fwd), selective_scan(u, p_bwd, reverse=True))


def test_scan_pair_on_palindrome_is_palindromic():
    # same parameters both directions + mirror-symmetric input means the
    # two scans are mirror images, so their sum must be as well
    rng = np.random.default_rng(6)
    p = SsmParams(rng, d=2, s=3).astype(np.float64)
    half = rng.standard_normal((1, 4, 2))
    u = T.Tensor(np.concatenate([half, half[:, ::-1]], axis=1), np.float64)
    out = scan_pair(u, p, p).data
    np.testing.assert_allclose(out, out[:, ::-1], atol=1e-12)


def test_scan_pair_matches_flip_scan_flip():
    # the reversed scan must equal scanning the flipped sequence and flipping
    # the output back, in value and in every gradient
    rng = np.random.default_rng(8)
    pf = SsmParams(rng, d=3, s=2).astype(np.float64)
    pb = SsmParams(rng, d=3, s=2).astype(np.float64)
    u_np = rng.standard_normal((2, 7, 3))
    r = rng.uniform(0.5, 1.5, u_np.shape)
    params = pf.parameters() + pb.parameters()

    u = T.Tensor(u_np, np.float64)
    with T.Tape() as tape:
        out = scan_pair(u, pf, pb)
        loss = T.tsum(T.mul(out, T.Tensor(r, np.float64)))
    grads = T.backward(tape, loss)

    # reference: <r, flip(scan(flip(u)))> = <flip(r), scan(flip(u))>
    u_ref, u_flip = T.Tensor(u_np, np.float64), T.Tensor(u_np[:, ::-1], np.float64)
    with T.Tape() as tape:
        yf = selective_scan(u_ref, pf)
        yb = selective_scan(u_flip, pb)
        loss = T.add(T.tsum(T.mul(yf, T.Tensor(r, np.float64))),
                     T.tsum(T.mul(yb, T.Tensor(r[:, ::-1], np.float64))))
    ref = T.backward(tape, loss)

    np.testing.assert_allclose(out.data, yf.data + yb.data[:, ::-1], rtol=0, atol=1e-12)
    gu_ref = T.grad_of(ref, u_ref) + T.grad_of(ref, u_flip)[:, ::-1]
    np.testing.assert_allclose(T.grad_of(grads, u), gu_ref, rtol=0, atol=1e-12)
    for p in params:
        np.testing.assert_allclose(T.grad_of(grads, p), T.grad_of(ref, p), rtol=0, atol=1e-12)


def test_ssm_params_decay_is_negative():
    p = SsmParams(np.random.default_rng(7), d=3, s=4)
    A = -np.exp(p.A_log.data)
    assert A.shape == (3, 4)
    assert np.all(A < 0)


# ---------------------------------------------------------------------------
# Token/map plumbing
# ---------------------------------------------------------------------------

def test_token_roundtrip_and_order():
    x = T.Tensor(np.arange(8.0).reshape(1, 2, 2, 2))  # [B=1, D=2, h=2, w=2]
    tokens, grid = map_to_tokens(x)
    assert grid == (2, 2)
    # row-major: token 1 is map position (0, 1)
    np.testing.assert_array_equal(tokens.data[0, 1], x.data[0, :, 0, 1])
    back = tokens_to_map(tokens, grid)
    np.testing.assert_array_equal(back.data, x.data)


def test_token_roundtrip_batched():
    rng = np.random.default_rng(8)
    x = T.Tensor(rng.standard_normal((3, 4, 2, 5)))
    tokens, grid = map_to_tokens(x)
    assert tokens.shape == (3, 10, 4)
    np.testing.assert_array_equal(tokens_to_map(tokens, grid).data, x.data)


def test_tokens_to_map_checks_count():
    with pytest.raises(DimensionError):
        tokens_to_map(T.Tensor(np.zeros((1, 5, 2))), (2, 2))


def test_unit_patch_identity_projection_equals_token_view():
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.standard_normal((1, 3, 4, 4)), np.float64)
    embed = PatchEmbed(rng, n=1, c_in=3, d=3, grid=(4, 4)).astype(np.float64)
    embed.W_proj.data[...] = np.eye(3)
    got = embed(x)
    tokens, _ = map_to_tokens(x)
    np.testing.assert_allclose(got.data, tokens.data, atol=1e-14)


def test_patch_embed_divisibility_and_pos_checks():
    rng = np.random.default_rng(10)
    x = T.Tensor(np.zeros((1, 2, 6, 6)))
    with pytest.raises(DimensionError):  # 6 is not a multiple of 4
        PatchEmbed(rng, n=4, c_in=2, d=3, grid=(1, 1))(x)
    with pytest.raises(DimensionError):  # a 2x2 grid of patches, built for 3x3
        PatchEmbed(rng, n=3, c_in=2, d=3, grid=(3, 3))(x)


# ---------------------------------------------------------------------------
# Complexity probe
# ---------------------------------------------------------------------------

def test_probe_validates_lengths():
    with pytest.raises(ConfigError):
        scan_complexity_probe([64, 128, 256])
    with pytest.raises(ConfigError):
        scan_complexity_probe([64, 128, 128, 256])
    with pytest.raises(ConfigError, match="positive"):
        scan_complexity_probe([0, 1, 2, 3])


@pytest.mark.parametrize("sizes", [dict(reps=0), dict(d=0), dict(s=0), dict(reps=-1)])
def test_probe_rejects_sizes_below_one(sizes):
    # reps 0 averaged no samples into NaN rows; d or s 0 divided by zero
    with pytest.raises(ConfigError, match="must each be at least 1"):
        scan_complexity_probe([8, 16, 32, 64], **sizes)


def test_probe_row_structure():
    lengths = [8, 16, 32, 64]
    rows = scan_complexity_probe(lengths, d=4, s=2, reps=1)
    assert [r[:2] for r in rows] == ([(L, "scan") for L in lengths]
                                     + [(L, "attention") for L in lengths])
    assert all(r[2] > 0 and r[3] >= 0 for r in rows)


def test_loglog_slope_recovers_power_law():
    rows = [(L, "scan", 2.0 * L ** 3, 0.0) for L in (8, 16, 32, 64)]
    assert loglog_slope(rows, "scan") == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ConfigError):
        loglog_slope(rows, "attention")
