"""Selective state-space token mixing.

The core recurrence, per channel d with hidden state h in R^S:

    abar_t = exp(delta_t[d] * A[d])          elementwise over S
    h_t    = abar_t * h_{t-1} + delta_t[d] * B_t * x_t[d]
    y_t[d] = <C_t, h_t> + D_skip[d] * x_t[d]

delta, B, C are input-dependent (selective) linear projections of the token
sequence; delta goes through a softplus and A is stored as -exp(A_log), which
keeps abar inside (0, 1). The plain-loop recurrence, the kernels' oracle,
lives in ``tests/test_ssm.py``. ``scan_core`` carries a hand-derived backward
pass and loops only the two recurrences, the state forward in time and its
adjoint backward in time; everything else is a batched contraction.

Layouts: the kernels take and return batch-major [Bn, L, D] sequences and
[Bn, L, S] B and C, like every tape primitive. Inside, the state H, the
decays abar and the adjoint G are time-major [L, Bn, S, D] in memory as well
as in shape, so each step of a loop reads and writes Bn*S*D contiguous
values. A tape record keeps only the scan's inputs, as in Mamba's kernel
(Gu & Dao, arXiv 2312.00752, §3.3.2): the backward rebuilds abar from delta
(two elementwise passes, no loop) and then H, with the same helper,
``_states``, that builds H in the forward.

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


def _decays(dt, A):
    """abar = exp(delta*A), time-major [L, Bn, S, D], from the time-major delta.

    A unit-stride A.T, and exp in place: each fresh [L,Bn,S,D] buffer costs
    page faults comparable to the arithmetic on it. The S-expanded outer
    products here and in the kernels are einsums: the same single products
    as a broadcast ``*``, so the same bits, and up to 2x faster.
    """
    abar = np.einsum("lbd,sd->lbsd", dt, np.ascontiguousarray(A.T))
    np.exp(abar, out=abar)
    return abar


# time steps per pass of _states, whose injection scratch is CHUNK/L of a
# full [L,Bn,S,D] buffer; 16, 32 and 64 timed alike in whole training steps
CHUNK = 32


def _states(abar, Bt, dtu, gdA=None):
    """Overwrite the decays abar [L, Bn, S, D] with the states H; return it.

    ``Bt`` [L, Bn, S] and ``dtu`` = delta*u [L, Bn, D] are time-major. Each
    pass takes CHUNK time steps: their injections B_t (x) delta_t u_t go
    into a scratch buffer, the loop turns them into states in place,
    h_t += abar_t * h_{t-1}, and the states then replace the decays, which
    nothing reads again. If ``gdA`` is given, it is the adjoint G, and it
    becomes d/d(delta*A) on the way: G_t * h_{t-1} * abar_t, with h_{-1} = 0.
    So a backward holds two [L, Bn, S, D] buffers, not three.
    """
    L = len(abar)
    scratch = np.empty((min(CHUNK, L),) + abar.shape[1:], abar.dtype)
    tmp = np.empty_like(abar[0])
    for t0 in range(0, L, CHUNK):
        a = abar[t0:t0 + CHUNK]
        h = scratch[:len(a)]
        np.einsum("lbs,lbd->lbsd", Bt[t0:t0 + CHUNK], dtu[t0:t0 + CHUNK], out=h)
        before = prev = abar[t0 - 1] if t0 else None    # h_{t0-1}, from the last pass
        for h_t, a_t in zip(h, a):
            if prev is not None:
                np.multiply(a_t, prev, out=tmp)
                h_t += tmp
            prev = h_t
        if gdA is not None:
            g = gdA[t0:t0 + CHUNK]
            if t0:
                g[0] *= before
            g[1:] *= h[:-1]
            g *= a
        a[...] = h
    if gdA is not None:
        gdA[0] = 0
    return abar


def scan_forward_np(u, delta, A, B, C, Dskip):
    """Scan over batch-major [Bn, L, D] inputs; returns y [Bn, L, D].

    Loops only over time. The states H live in the decays' buffer and are
    dropped with it: the backward rebuilds both.
    """
    ut, dt, Bt, Ct = _time_major(u, delta, B, C)
    H = _states(_decays(dt, A), Bt, dt * ut)
    return (Ct[:, :, None, :] @ H)[:, :, 0].swapaxes(0, 1) + Dskip * u


def scan_backward_np(gy, u, delta, A, B, C, Dskip):
    """Adjoint of scan_forward_np; returns gradients for all six inputs.

    Arguments and gradients are batch-major like the forward's. The decays
    abar and then the states H are rebuilt with the forward's own
    operations, so they match its bit for bit. G_t = dloss/dh_t obeys
    G_t = gy_t C_t + abar_{t+1} G_{t+1}; that recurrence and the states'
    are the only loops, and every gradient is then one batched contraction
    of G, H or d/d(delta*A).
    """
    gyt, ut, dt, Bt, Ct = _time_major(gy, u, delta, B, C)
    dtu = dt * ut
    abar = _decays(dt, A)
    G = np.einsum("lbs,lbd->lbsd", Ct, gyt)                     # [L,Bn,S,D]
    gs, decay = list(G), list(abar)
    tmp = np.empty_like(gs[0])
    for t in range(len(gs) - 2, -1, -1):
        np.multiply(decay[t + 1], gs[t + 1], out=tmp)
        gs[t] += tmp
    GB = (Bt[:, :, None, :] @ G)[:, :, 0]                     # [L,Bn,D]
    gB = (G @ dtu[..., None])[..., 0].swapaxes(0, 1)
    H = _states(abar, Bt, dtu, gdA=G)                         # in abar's buffer
    gdA = G                                                   # d/d(delta*A) now
    gC = (H @ gyt[..., None])[..., 0].swapaxes(0, 1)
    gu = gy * Dskip + (dt * GB).swapaxes(0, 1)
    gdelta = (np.einsum("lbsd,sd->lbd", gdA, np.ascontiguousarray(A.T)) + ut * GB).swapaxes(0, 1)
    gA = np.einsum("lbsd,lbd->ds", gdA, dt)
    gDskip = np.einsum("bld,bld->d", gy, u)
    return gu, gdelta, gA, gB, gC, gDskip


def scan_core(u: T.Tensor, delta: T.Tensor, A: T.Tensor, B: T.Tensor,
              C: T.Tensor, Dskip: T.Tensor, reverse: bool = False) -> T.Tensor:
    """Tape-recorded scan over [Bn, L, D] with custom adjoint.

    ``reverse=True`` scans from the last token to the first: the same as
    flipping u, delta, B and C along L, scanning, and flipping y back. The
    kernels run on reversed views, so no flipped copy is taped.
    """
    seq = slice(None, None, -1 if reverse else 1)
    y = scan_forward_np(u.data[:, seq], delta.data[:, seq], A.data,
                        B.data[:, seq], C.data[:, seq], Dskip.data)

    def bwd(gy):
        gu, gdelta, gA, gB, gC, gDskip = scan_backward_np(
            gy[:, seq], u.data[:, seq], delta.data[:, seq], A.data,
            B.data[:, seq], C.data[:, seq], Dskip.data)
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

def tokens_to_map(X: T.Tensor, grid: tuple) -> T.Tensor:
    """[Bn, h*w, D] row-major tokens -> [Bn,D,h,w] feature map."""
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
        """[Bn,C,H,W] -> [Bn, M, D] tokens; patches enumerated row-major.

        Each patch is flattened in [C, n, n] row-major order before projection.
        """
        if x.ndim != 4:
            raise DimensionError(f"PatchEmbed: map must be [Bn,C,H,W], got {x.shape}")
        Bn, C, H, W = x.shape
        n = self.n
        if H % n or W % n:
            raise DimensionError(f"PatchEmbed: {H}x{W} not divisible by patch size {n}")
        h, w = H // n, W // n
        if h * w != len(self.E_pos.data):
            raise DimensionError(f"PatchEmbed: {H}x{W} makes {h}x{w} patches, but the "
                                 f"positions were built for {len(self.E_pos.data)}")
        t = T.reshape(x, (Bn, C, h, n, w, n))
        t = T.transpose(t, (0, 2, 4, 1, 3, 5))          # [Bn,h,w,C,n,n]
        t = T.reshape(t, (Bn, h * w, C * n * n))
        return T.add_bcast(T.linear(t, self.W_proj), self.E_pos)


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
    pre_gate = T.add(selective_scan(u, w.fwd), selective_scan(u, w.bwd, reverse=True))
    y = T.mul(pre_gate, T.silu(z))
    return T.add(T.linear(y, w.W_out, w.b_out), X)


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
