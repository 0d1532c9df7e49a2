"""Scan kernel against the definitional recurrence, plus token plumbing."""

import numpy as np
import pytest

from pmtk import precision
from pmtk import tensor as T
from pmtk.errors import ConfigError, DimensionError
from pmtk.ssm import (
    PatchEmbed,
    SsmParams,
    VimBlockWeights,
    loglog_slope,
    map_to_tokens,
    patch_embed,
    scan_complexity_probe,
    scan_core,
    scan_forward_np,
    scan_sequential,
    selective_scan,
    tokens_to_map,
    vim_block,
    vim_scan_pair,
)


def random_scan_inputs(rng, Bn, L, D, S):
    u = rng.standard_normal((Bn, L, D))
    delta = np.log1p(np.exp(rng.standard_normal((Bn, L, D)) - 1.0))
    A = -np.exp(rng.standard_normal((D, S)))
    B = rng.standard_normal((Bn, L, S))
    C = rng.standard_normal((Bn, L, S))
    Dskip = rng.standard_normal(D)
    return u, delta, A, B, C, Dskip


# ---------------------------------------------------------------------------
# Kernel vs recurrence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(1, 4, 1, 1), (2, 7, 3, 2), (1, 16, 5, 4), (3, 5, 2, 8)])
def test_vectorized_matches_sequential(dims):
    rng = np.random.default_rng(sum(dims))
    args = random_scan_inputs(rng, *dims)
    np.testing.assert_allclose(scan_forward_np(*args)[0], scan_sequential(*args),
                               rtol=0, atol=1e-12)


def test_single_step_closed_form():
    # with one token the state is delta*B*u, so y = delta*u*<C,B> + Dskip*u
    rng = np.random.default_rng(0)
    u, delta, A, B, C, Dskip = random_scan_inputs(rng, 2, 1, 3, 4)
    y = scan_forward_np(u, delta, A, B, C, Dskip)[0]
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
    y = scan_forward_np(u, delta, A, Bm, Cm, np.array([dsk]))[0]
    t = np.arange(1, L + 1)
    expect = c * b * (1 - a ** t) / (1 - a) + dsk
    np.testing.assert_allclose(y[0, :, 0], expect, atol=1e-12)


def test_zero_input_zero_output():
    rng = np.random.default_rng(1)
    u, delta, A, B, C, Dskip = random_scan_inputs(rng, 1, 5, 2, 3)
    y = scan_forward_np(np.zeros_like(u), delta, A, B, C, Dskip)[0]
    np.testing.assert_array_equal(y, 0.0)


def test_causality():
    rng = np.random.default_rng(2)
    u, delta, A, B, C, Dskip = random_scan_inputs(rng, 2, 12, 3, 4)
    y0 = scan_forward_np(u, delta, A, B, C, Dskip)[0]
    u2 = u.copy()
    u2[:, 7] += 1.0
    y1 = scan_forward_np(u2, delta, A, B, C, Dskip)[0]
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
        with precision.use("f64"):
            tensors = [T.Tensor(a) for a in arrays]
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
        tensors = [T.Tensor(a) for a in arrs]
        with T.Tape() as tape:
            y = scan_core(*tensors, reverse=reverse)
            loss = T.tsum(T.mul_const(y, weight))
        grads = T.backward(tape, loss)
        return y.data, [T.grad_of(grads, t) for t in tensors]

    per_sample = (0, 1, 3, 4)          # u, delta, B, C; A and Dskip are shared
    with precision.use("f64"):
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


# ---------------------------------------------------------------------------
# Selective wrapper and the Vim block
# ---------------------------------------------------------------------------

_UNBATCHED_CALLS = {
    "conv2d": lambda: T.conv2d(T.Tensor(np.zeros((2, 4, 4))), T.Tensor(np.zeros((3, 2, 3, 3)))),
    "norm_affine": lambda: T.norm_affine(T.Tensor(np.zeros((2, 4, 4))),
                                         T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))),
    "bilinear_upsample": lambda: T.bilinear_upsample(T.Tensor(np.zeros((2, 4, 4))), 2),
    "softmax_cross_entropy": lambda: T.softmax_cross_entropy(
        T.Tensor(np.zeros((3, 2, 2))), np.zeros((2, 2), dtype=np.int64)),
    "depthwise_conv1d": lambda: T.depthwise_conv1d(T.Tensor(np.zeros((5, 3))),
                                                   T.Tensor(np.zeros((3, 3))),
                                                   T.Tensor(np.zeros(3))),
    "selective_scan": lambda: selective_scan(T.Tensor(np.zeros((5, 3))),
                                             SsmParams(np.random.default_rng(0), d=3)),
    "map_to_tokens": lambda: map_to_tokens(T.Tensor(np.zeros((2, 2, 2)))),
    "tokens_to_map": lambda: tokens_to_map(T.Tensor(np.zeros((4, 2))), (2, 2)),
    "patch_embed": lambda: patch_embed(T.Tensor(np.zeros((3, 4, 4))), 2,
                                       T.Tensor(np.zeros((12, 5))), T.Tensor(np.zeros((4, 5)))),
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


def test_scan_pair_on_palindrome_is_palindromic():
    # same parameters both directions + mirror-symmetric input means the
    # two scans are mirror images, so their sum must be as well
    rng = np.random.default_rng(6)
    with precision.use("f64"):
        p = SsmParams(rng, d=2, s=3)
        half = rng.standard_normal((1, 4, 2))
        u = T.Tensor(np.concatenate([half, half[:, ::-1]], axis=1))
        out = vim_scan_pair(u, p, p).data
    np.testing.assert_allclose(out, out[:, ::-1], atol=1e-12)


def test_scan_pair_matches_flip_scan_flip():
    # the reversed scan must equal scanning the flipped sequence and flipping
    # the output back, in value and in every gradient
    rng = np.random.default_rng(8)
    with precision.use("f64"):
        pf, pb = SsmParams(rng, d=3, s=2), SsmParams(rng, d=3, s=2)
        u_np = rng.standard_normal((2, 7, 3))
        r = rng.uniform(0.5, 1.5, u_np.shape)
        params = pf.parameters() + pb.parameters()

        u = T.Tensor(u_np)
        with T.Tape() as tape:
            out = vim_scan_pair(u, pf, pb)
            loss = T.tsum(T.mul_const(out, r))
        grads = T.backward(tape, loss)

        # reference: <r, flip(scan(flip(u)))> = <flip(r), scan(flip(u))>
        u_ref, u_flip = T.Tensor(u_np), T.Tensor(u_np[:, ::-1])
        with T.Tape() as tape:
            yf = selective_scan(u_ref, pf)
            yb = selective_scan(u_flip, pb)
            loss = T.add(T.tsum(T.mul_const(yf, r)), T.tsum(T.mul_const(yb, r[:, ::-1])))
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
    with precision.use("f64"):
        x = T.Tensor(rng.standard_normal((1, 3, 4, 4)))
        W = T.Tensor(np.eye(3))
        E = T.Tensor(np.zeros((16, 3)))
        got = patch_embed(x, 1, W, E)
        tokens, _ = map_to_tokens(x)
    np.testing.assert_allclose(got.data, tokens.data, atol=1e-14)


def test_patch_embed_divisibility_and_pos_checks():
    x = T.Tensor(np.zeros((1, 2, 6, 6)))
    W = T.Tensor(np.zeros((2 * 4, 3)))
    with pytest.raises(DimensionError):
        patch_embed(x, 4, W, T.Tensor(np.zeros((4, 3))))
    W2 = T.Tensor(np.zeros((2 * 9, 3)))
    with pytest.raises(DimensionError):
        patch_embed(x, 3, W2, T.Tensor(np.zeros((9, 5))))


def test_patch_embed_module_matches_function():
    rng = np.random.default_rng(10)
    mod = PatchEmbed(rng, n=2, c_in=3, d=6, grid=(4, 4))
    x = T.Tensor(np.random.default_rng(11).standard_normal((1, 3, 8, 8)))
    np.testing.assert_array_equal(mod(x).data,
                                  patch_embed(x, 2, mod.W_proj, mod.E_pos).data)


# ---------------------------------------------------------------------------
# Complexity probe
# ---------------------------------------------------------------------------

def test_probe_validates_lengths():
    with pytest.raises(ConfigError):
        scan_complexity_probe([64, 128, 256])
    with pytest.raises(ConfigError):
        scan_complexity_probe([64, 128, 128, 256])


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
