"""Selective state-space token mixing.

The core recurrence, per channel d with hidden state h in R^S:

    abar_t = exp(delta_t[d] * A[d])          elementwise over S
    h_t    = abar_t * h_{t-1} + delta_t[d] * B_t * x_t[d]
    y_t[d] = <C_t, h_t> + D_skip[d] * x_t[d]

delta, B, C are input-dependent (selective) linear projections of the token
sequence; delta goes through a softplus and A is stored as -exp(A_log), which
keeps abar inside (0, 1). ``scan_sequential`` is the plain-loop definition
used as the oracle. ``scan_core`` carries a hand-derived backward pass and
loops only the two recurrences, the state forward in time and its adjoint
backward in time; everything else is a batched contraction.

Layouts: the kernels take and return batch-major [Bn, L, D] sequences and
[Bn, L, S] B and C, like every tape primitive. Inside, the state H, the
decays abar and the adjoint G are time-major [L, Bn, S, D] in memory as well
as in shape, so each step of a loop reads and writes Bn*S*D contiguous
values. Tape records store H and abar in that layout.

``vim_block`` is the residual token mixer built on two scan directions:
norm -> parallel input/gate projections -> short depthwise conv + SiLU ->
forward scan + reversed scan -> sum -> gate -> output projection -> + input.
"""

from __future__ import annotations

import time

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError


# ---------------------------------------------------------------------------
# Scan forward/backward kernels (plain numpy)
# ---------------------------------------------------------------------------

def _time_major(*arrays):
    """[Bn, L, ...] arrays as contiguous [L, Bn, ...] copies.

    Products of these are time-major in memory as well as in shape, so each
    time step of the state is one contiguous block.
    """
    return [np.ascontiguousarray(a.swapaxes(0, 1)) for a in arrays]


def scan_forward_np(u, delta, A, B, C, Dskip):
    """Scan over batch-major [Bn, L, D] inputs; loops only over time.

    Returns (y, H, abar): batch-major y [Bn, L, D], and the time-major
    states H and decays abar, both [L, Bn, S, D], which the backward reads.
    """
    ut, dt, Bt, Ct = _time_major(u, delta, B, C)
    # a unit-stride A.T, and exp in place: each fresh [L,Bn,S,D] buffer
    # costs page faults comparable to the arithmetic on it
    abar = dt[:, :, None, :] * np.ascontiguousarray(A.T)
    np.exp(abar, out=abar)
    H = Bt[..., None] * (dt * ut)[:, :, None, :]             # injections, then states
    hs, decay = list(H), list(abar)
    tmp = np.empty_like(hs[0])
    for t in range(1, len(hs)):
        np.multiply(decay[t], hs[t - 1], out=tmp)
        hs[t] += tmp
    y = (Ct[:, :, None, :] @ H)[:, :, 0].swapaxes(0, 1) + Dskip * u
    return y, H, abar


def scan_backward_np(gy, u, delta, A, B, C, Dskip, H, abar):
    """Adjoint of scan_forward_np; returns gradients for all six inputs.

    Arguments and gradients are batch-major like the forward's; H and abar
    are its time-major [L, Bn, S, D] states. G_t = dloss/dh_t obeys
    G_t = gy_t C_t + abar_{t+1} G_{t+1}; only that recurrence is looped, and
    every gradient is then one batched contraction of G with H and abar.
    """
    gyt, ut, dt, Bt, Ct = _time_major(gy, u, delta, B, C)
    G = Ct[..., None] * gyt[:, :, None, :]                     # [L,Bn,S,D]
    gs, decay = list(G), list(abar)
    tmp = np.empty_like(gs[0])
    for t in range(len(gs) - 2, -1, -1):
        np.multiply(decay[t + 1], gs[t + 1], out=tmp)
        gs[t] += tmp
    GB = (Bt[:, :, None, :] @ G)[:, :, 0]                     # [L,Bn,D]
    gB = (G @ (dt * ut)[..., None])[..., 0].swapaxes(0, 1)
    gC = (H @ gyt[..., None])[..., 0].swapaxes(0, 1)
    # G becomes d/d(delta*A): G_t * h_{t-1} * abar_t, with h_{-1} = 0
    gdA = G
    gdA[1:] *= H[:-1]
    gdA[1:] *= abar[1:]
    gdA[0] = 0
    gu = gy * Dskip + (dt * GB).swapaxes(0, 1)
    gdelta = (np.einsum("lbsd,sd->lbd", gdA, np.ascontiguousarray(A.T)) + ut * GB).swapaxes(0, 1)
    gA = np.einsum("lbsd,lbd->ds", gdA, dt)
    gDskip = np.einsum("bld,bld->d", gy, u)
    return gu, gdelta, gA, gB, gC, gDskip


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


def scan_core(u: T.Tensor, delta: T.Tensor, A: T.Tensor, B: T.Tensor,
              C: T.Tensor, Dskip: T.Tensor, reverse: bool = False) -> T.Tensor:
    """Tape-recorded scan over [Bn, L, D] with custom adjoint.

    ``reverse=True`` scans from the last token to the first: the same as
    flipping u, delta, B and C along L, scanning, and flipping y back. The
    kernels run on reversed views, so no flipped copy is taped.
    """
    seq = slice(None, None, -1 if reverse else 1)
    y, H, abar = scan_forward_np(u.data[:, seq], delta.data[:, seq], A.data,
                                 B.data[:, seq], C.data[:, seq], Dskip.data)

    def bwd(gy):
        gu, gdelta, gA, gB, gC, gDskip = scan_backward_np(
            gy[:, seq], u.data[:, seq], delta.data[:, seq], A.data,
            B.data[:, seq], C.data[:, seq], Dskip.data, H, abar)
        return gu[:, seq], gdelta[:, seq], gA, gB[:, seq], gC[:, seq], gDskip

    return T.record_op((u, delta, A, B, C, Dskip), y[:, seq], bwd)


# ---------------------------------------------------------------------------
# Parameterized selective scan
# ---------------------------------------------------------------------------

class SsmParams(T.Module):
    """Projections and state matrices for one scan direction over D channels."""

    def __init__(self, rng: np.random.Generator, d: int, s: int = 8):
        self.d = d
        # State decay rates spread over scales 1..s, shared across channels.
        self.A_log = T.Parameter(np.tile(np.log(np.arange(1, s + 1, dtype=np.float64)), (d, 1)))
        self.W_dt = T.uniform_param(rng, (d, d), d)
        # softplus(b_dt) ~ 0.05: moderate default step size.
        self.b_dt = T.Parameter(np.full(d, np.log(np.expm1(0.05))))
        self.W_B = T.uniform_param(rng, (d, s), d)
        self.W_C = T.uniform_param(rng, (d, s), d)
        self.D_skip = T.Parameter(np.ones(d))


def selective_scan(x: T.Tensor, p: SsmParams, reverse: bool = False) -> T.Tensor:
    """Input-dependent scan of a token sequence [Bn, L, D], last token first if ``reverse``."""
    if x.ndim != 3 or x.shape[2] != p.d:
        raise DimensionError(f"selective_scan: expected [Bn, L, {p.d}], got {x.shape}")
    delta = T.softplus(T.linear(x, p.W_dt, p.b_dt))
    Bmat = T.linear(x, p.W_B)
    Cmat = T.linear(x, p.W_C)
    A = T.scale(T.exp(p.A_log), -1.0)
    return scan_core(x, delta, A, Bmat, Cmat, p.D_skip, reverse)


# ---------------------------------------------------------------------------
# Token/map reshaping and patch embedding
# ---------------------------------------------------------------------------

def map_to_tokens(x: T.Tensor) -> tuple:
    """[Bn,D,h,w] feature map -> ([Bn, h*w, D], (h, w)), row-major."""
    if x.ndim != 4:
        raise DimensionError(f"map_to_tokens: map must be [Bn,D,h,w], got {x.shape}")
    Bn, D, h, w = x.shape
    return T.transpose(T.reshape(x, (Bn, D, h * w)), (0, 2, 1)), (h, w)


def tokens_to_map(X: T.Tensor, grid: tuple) -> T.Tensor:
    """Inverse of map_to_tokens for [Bn,M,D] sequences."""
    h, w = grid
    if X.ndim != 3:
        raise DimensionError(f"tokens_to_map: tokens must be [Bn,M,D], got {X.shape}")
    Bn, M, D = X.shape
    if M != h * w:
        raise DimensionError(f"tokens_to_map: {M} tokens cannot fill a {h}x{w} grid")
    return T.reshape(T.transpose(X, (0, 2, 1)), (Bn, D, h, w))


class PatchEmbed(T.Module):
    """Non-overlapping NxN patches, linear projection, additive position term."""

    def __init__(self, rng: np.random.Generator, n: int, c_in: int, d: int, grid: tuple):
        self.n = n
        self.W_proj = T.uniform_param(rng, (n * n * c_in, d), n * n * c_in)
        self.E_pos = T.zeros_param((grid[0] * grid[1], d))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return patch_embed(x, self.n, self.W_proj, self.E_pos)


def patch_embed(x: T.Tensor, n: int, W_proj: T.Tensor, E_pos: T.Tensor) -> T.Tensor:
    """[Bn,C,H,W] -> [Bn, M, D] tokens; patches enumerated row-major.

    Each patch is flattened in [C, n, n] row-major order before projection.
    """
    if x.ndim != 4:
        raise DimensionError(f"patch_embed: map must be [Bn,C,H,W], got {x.shape}")
    Bn, C, H, W = x.shape
    if H % n or W % n:
        raise DimensionError(f"patch_embed: {H}x{W} not divisible by patch size {n}")
    h, w = H // n, W // n
    if E_pos.shape != (h * w, W_proj.shape[1]):
        raise DimensionError(f"patch_embed: E_pos shape {E_pos.shape} does not match "
                             f"grid {h}x{w} and width {W_proj.shape[1]}")
    t = T.reshape(x, (Bn, C, h, n, w, n))
    t = T.transpose(t, (0, 2, 4, 1, 3, 5))          # [Bn,h,w,C,n,n]
    t = T.reshape(t, (Bn, h * w, C * n * n))
    return T.add_bcast(T.linear(t, W_proj), E_pos)


# ---------------------------------------------------------------------------
# Residual Vim block
# ---------------------------------------------------------------------------

# inner width of a Vim block, as a multiple of its token width
EXPAND = 2


class VimBlockWeights(T.Module):
    """All learned state of one residual Vim block over D-dim tokens."""

    def __init__(self, rng: np.random.Generator, d: int, s: int = 8):
        e = EXPAND * d
        self.d = d
        self.norm_g = T.Parameter(np.ones(d))
        self.norm_b = T.zeros_param((d,))
        self.W_in = T.uniform_param(rng, (d, e), d)
        self.b_in = T.zeros_param((e,))
        self.W_gate = T.uniform_param(rng, (d, e), d)
        self.b_gate = T.zeros_param((e,))
        self.conv_w = T.uniform_param(rng, (3, e), 3)
        self.conv_b = T.zeros_param((e,))
        self.fwd = SsmParams(rng, e, s)
        self.bwd = SsmParams(rng, e, s)
        self.W_out = T.uniform_param(rng, (e, d), e)
        self.b_out = T.zeros_param((d,))


def vim_block(X: T.Tensor, w: VimBlockWeights) -> T.Tensor:
    """Residual bidirectional mixer; output shape equals input shape."""
    if X.shape[-1] != w.d:
        raise DimensionError(f"vim_block: token width {X.shape[-1]} != weights width {w.d}")
    Xn = T.token_norm(X, w.norm_g, w.norm_b)
    u = T.linear(Xn, w.W_in, w.b_in)
    z = T.linear(Xn, w.W_gate, w.b_gate)
    u = T.silu(T.depthwise_conv1d(u, w.conv_w, w.conv_b))
    pre_gate = vim_scan_pair(u, w.fwd, w.bwd)
    y = T.mul(pre_gate, T.silu(z))
    return T.linear(y, w.W_out, w.b_out) + X


def vim_scan_pair(u: T.Tensor, p_fwd: SsmParams, p_bwd: SsmParams) -> T.Tensor:
    """Sum of the forward scan and the reversed scan of [Bn, L, D]."""
    return selective_scan(u, p_fwd) + selective_scan(u, p_bwd, reverse=True)


# ---------------------------------------------------------------------------
# Complexity probe (CLI `bench`)
# ---------------------------------------------------------------------------

def attention_mixer_np(x: np.ndarray, Wq, Wk, Wv) -> np.ndarray:
    """Single-head softmax attention; the quadratic reference mixer."""
    q = x @ Wq
    k = x @ Wk
    v = x @ Wv
    a = (q @ k.T) / np.sqrt(x.shape[1])
    a -= a.max(axis=1, keepdims=True)
    e = np.exp(a)
    return (e / e.sum(axis=1, keepdims=True)) @ v


def scan_complexity_probe(lengths, d: int = 64, s: int = 8, reps: int = 5,
                          seed: int = 0) -> list:
    """Time the scan forward and the attention reference at each L.

    Returns rows (L, mixer, mean_ms, std_ms): the scan rows, then the
    attention rows, each mixer in ascending L order.
    """
    lengths = list(lengths)
    if len(lengths) < 4 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ConfigError(f"need >= 4 strictly ascending lengths, got {lengths}")
    rng = np.random.default_rng(seed)
    rows = []

    def timed(fn):
        fn()  # warm up
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3)
        return float(np.mean(samples)), float(np.std(samples))

    for L in lengths:
        u = rng.standard_normal((1, L, d))
        delta = np.log1p(np.exp(rng.standard_normal((1, L, d)) - 2.0))
        A = -np.exp(np.tile(np.log(np.arange(1, s + 1, dtype=np.float64)), (d, 1)))
        B = rng.standard_normal((1, L, s))
        C = rng.standard_normal((1, L, s))
        Dsk = np.ones(d)
        mean, std = timed(lambda: scan_forward_np(u, delta, A, B, C, Dsk))
        rows.append((L, "scan", mean, std))

    Wq = rng.standard_normal((d, d))
    Wk = rng.standard_normal((d, d))
    Wv = rng.standard_normal((d, d))
    for L in lengths:
        x = rng.standard_normal((L, d))
        mean, std = timed(lambda: attention_mixer_np(x, Wq, Wk, Wv))
        rows.append((L, "attention", mean, std))
    return rows


def loglog_slope(rows, mixer: str) -> float:
    """Least-squares slope of log(mean time) against log(L) for one mixer."""
    pts = [(L, ms) for (L, name, ms, _) in rows if name == mixer]
    if len(pts) < 2:
        raise ConfigError(f"no rows for mixer {mixer!r}")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])
