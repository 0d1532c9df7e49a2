"""Selective state-space token mixing.

The core recurrence, per channel d with hidden state h in R^S:

    abar_t = exp(delta_t[d] * A[d])          elementwise over S
    h_t    = abar_t * h_{t-1} + delta_t[d] * B_t * x_t[d]
    y_t[d] = <C_t, h_t> + D_skip[d] * x_t[d]

delta, B, C are input-dependent (selective) linear projections of the token
sequence; delta goes through a softplus and A is stored as -exp(A_log), which
keeps abar inside (0, 1). The kernels ``scan_forward_np`` and
``scan_backward_np`` (a hand-derived adjoint) loop only the two recurrences,
the state forward in time and its adjoint backward in time; everything else
is a batched contraction. The plain-loop recurrence, the kernels' oracle,
lives in ``tests/test_ssm.py``.

Layouts: the kernels take and return batch-major [Bn, L, D] sequences and
[Bn, L, S] B and C, like every tape primitive. Inside, the decays abar, the
states H and the adjoint G are time-major [L, Bn, S, D] in memory as well as
in shape, so each step of a loop reads and writes Bn*S*D contiguous values.
The decays and the states are built a pass of time steps at a time into
scratch buffers (``_states``) and read out pass by pass, so a forward holds
no [L, Bn, S, D] buffer and a backward holds one, G.

``vim_block`` is the residual token mixer: norm -> parallel input/gate
projections -> the mixer -> output projection -> + input. The mixer,
``scan_core``, is one tape primitive: short depthwise conv + SiLU, a forward
and a reversed scan, their sum, and the SiLU gate. As in Mamba's kernel
(Gu & Dao, arXiv 2312.00752, §3.3.2), its record keeps only its inputs and
weights, and its backward rebuilds everything else. Its forward/adjoint
pairs besides ``T.linear_np`` live here, beside it: ``silu_np``,
``softplus_np`` and ``depthwise_conv1d_np``.
"""

from __future__ import annotations

import math
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


# A pass of the state loops takes CHUNK time steps, or more when a step is
# small, up to PASS_ELEMENTS values per scratch buffer (256 KB in f32), so
# that short batches do not pay Python's cost per pass many times over
CHUNK = 32
PASS_ELEMENTS = 1 << 16


def _passes(L, steps, reverse=False):
    """(first time step, steps) of each pass over L steps, in time order or,
    if ``reverse``, last pass first."""
    starts = range(0, L, steps)
    return [(t0, min(steps, L - t0)) for t0 in (reversed(starts) if reverse else starts)]


def _decays(dt, A_T, out):
    """abar = exp(delta*A) into ``out`` [n, Bn, S, D], from n time steps of
    the time-major delta and a unit-stride A.T.

    The S-expanded outer products here and in the kernels are einsums: the
    same single products as a broadcast ``*``, so the same bits, and up to
    2x faster. Each element is one product and one exp, so a pass's decays
    equal those of the whole sequence bit for bit.
    """
    np.einsum("lbd,sd->lbsd", dt, A_T, out=out)
    return np.exp(out, out=out)


def _scratch(dt, A, Bt):
    """An uninitialized buffer for one pass, [steps, Bn, S, D] in the decays'
    dtype, from the time-major delta [L, Bn, D] and B [L, Bn, S]."""
    step = Bt.shape[1:] + dt.shape[2:]
    steps = max(CHUNK, PASS_ELEMENTS // math.prod(step))
    return np.empty((min(steps, len(dt)),) + step, np.result_type(dt, A))


def _states(dt, A, Bt, ut, a_buf=None):
    """The states H over time-major inputs, one pass (``_scratch``) at a time.

    ``dt`` = delta [L, Bn, D], ``Bt`` [L, Bn, S] and ``ut`` [L, Bn, D] (a
    view will do: it enters only delta*u). Yields (t0, a, h, before) per
    pass: the pass's decays abar and states H, from time step t0 on, and
    h_{t0-1} (None at t0 = 0). Each pass builds its decays and its
    injections B_t (x) delta_t u_t in two scratch buffers, which the next
    pass overwrites, and the loop turns the injections into states in
    place, h_t += abar_t * h_{t-1}. So no [L, Bn, S, D] buffer is made, and
    the states are the same bits whatever the pass length. ``a_buf``, if
    given, is the decays' scratch and already holds the first pass's decays.
    """
    A_T = np.ascontiguousarray(A.T)
    built = a_buf is not None
    if not built:
        a_buf = _scratch(dt, A, Bt)
    h_buf = np.empty_like(a_buf)
    tmp = np.empty_like(a_buf[0])
    before = None
    for t0, n in _passes(len(dt), len(a_buf)):
        a = a_buf[:n]
        if t0 or not built:
            _decays(dt[t0:t0 + n], A_T, a)
        h = h_buf[:n]
        np.einsum("lbs,lbd->lbsd", Bt[t0:t0 + n], dt[t0:t0 + n] * ut[t0:t0 + n], out=h)
        prev = before
        for h_t, a_t in zip(h, a):
            if prev is not None:
                np.multiply(a_t, prev, out=tmp)
                h_t += tmp
            prev = h_t
        yield t0, a, h, before
        if before is None:
            before = np.empty_like(tmp)
        before[...] = h[-1]


def scan_forward_np(u, delta, A, B, C, Dskip):
    """Scan over batch-major [Bn, L, D] inputs; returns y [Bn, L, D].

    Loops only over time, and holds no [L, Bn, S, D] buffer: each pass of
    the states is read out, y_t += <C_t, h_t> on y = D_skip * u, before the
    next overwrites it.
    """
    dt, Bt, Ct = _time_major(delta, B, C)
    y = Dskip * u
    for t0, _, h, _ in _states(dt, A, Bt, u.swapaxes(0, 1)):
        y[:, t0:t0 + len(h)] += (Ct[t0:t0 + len(h), :, None, :] @ h)[:, :, 0].swapaxes(0, 1)
    return y


def scan_backward_np(gy, u, delta, A, B, C, Dskip):
    """Adjoint of scan_forward_np; returns (y, the gradients of all six inputs).

    Arguments, y and gradients are batch-major like the forward's. The
    adjoint G_t = dloss/dh_t obeys G_t = gy_t C_t + abar_{t+1} G_{t+1},
    looped backward in time over decays rebuilt a pass at a time. The
    states are then rebuilt pass by pass with the forward's own helper,
    ``_states``, so they and y match the forward bit for bit; each pass
    turns its part of G into d/d(delta*A), G_t * h_{t-1} * abar_t (0 at
    t = 0), and is read out for gC and y. So G is the one [L, Bn, S, D]
    buffer, and every gradient is a batched contraction of G, of d/d(delta*A)
    or of a pass of the states.
    """
    # u enters only elementwise products, which read a view as they read a
    # copy; gy is copied a pass at a time, for G's seed and gC's products
    ut, gyt = u.swapaxes(0, 1), gy.swapaxes(0, 1)
    dt, Bt, Ct = _time_major(delta, B, C)
    A_T = np.ascontiguousarray(A.T)
    a_buf = _scratch(dt, A, Bt)
    G = np.empty((len(dt),) + a_buf.shape[1:], np.result_type(Ct, gy))       # [L,Bn,S,D]
    GB = np.empty(dt.shape, G.dtype)                                          # [L,Bn,D]
    gBt = np.empty(Bt.shape, G.dtype)                                         # [L,Bn,S]
    tmp = np.empty_like(G[0])
    # each pass, last first, seeds its G with gy_t C_t and runs the loop;
    # carry is abar_t0 G_t0 of the pass before, owed to this pass's last G
    carry = None
    for t0, n in _passes(len(G), len(a_buf), reverse=True):
        c = slice(t0, t0 + n)
        np.einsum("lbs,lbd->lbsd", Ct[c], np.ascontiguousarray(gyt[c]), out=G[c])
        if carry is not None:
            G[t0 + n - 1] += carry
        a = _decays(dt[c], A_T, a_buf[:n])
        for t in range(t0 + n - 1, t0, -1):
            np.multiply(a[t - t0], G[t], out=tmp)
            G[t - 1] += tmp
        if t0:
            carry = np.multiply(a[0], G[t0], out=tmp)
        # this pass's G is final: read it out while it is in cache
        GB[c] = (Bt[c, :, None, :] @ G[c])[:, :, 0]
        gBt[c] = (G[c] @ (dt[c] * ut[c])[..., None])[..., 0]
    gCt = np.empty(Bt.shape, np.result_type(G, gyt))
    y = Dskip * u
    # the last G pass left the first pass's decays in a_buf
    for t0, a, h, before in _states(dt, A, Bt, ut, a_buf):
        c = slice(t0, t0 + len(h))
        g = G[c]
        if before is not None:
            g[0] *= before
        g[1:] *= h[:-1]
        g *= a
        gCt[c] = (h @ np.ascontiguousarray(gyt[c])[..., None])[..., 0]
        y[:, c] += (Ct[c, :, None, :] @ h)[:, :, 0].swapaxes(0, 1)
    G[0] = 0
    gdA = G                                                   # d/d(delta*A) now
    del a_buf, a, h, before, Bt, Ct
    # each sum adds into its first term, and both of GB's products go
    # through one buffer: fewer fresh temporaries, the same bits
    gu = gy * Dskip
    prod = dt * GB
    gu += prod.swapaxes(0, 1)
    np.multiply(ut, GB, out=prod)
    del GB
    gdelta = np.einsum("lbsd,sd->lbd", gdA, A_T)
    gdelta += prod
    del prod
    gA = np.einsum("lbsd,lbd->ds", gdA, dt)
    gDskip = np.einsum("bld,bld->d", gy, u)
    return y, (gu, gdelta.swapaxes(0, 1), gA, gBt.swapaxes(0, 1), gCt.swapaxes(0, 1), gDskip)


# ---------------------------------------------------------------------------
# Parameterized selective scan
# ---------------------------------------------------------------------------

class SsmParams(T.Module):
    """Projections and state matrices for one scan direction over D channels."""

    def __init__(self, rng: np.random.Generator, d: int, s: int = 8):
        # State decay rates spread over scales 1..s, shared across channels.
        self.A_log = T.Parameter(np.tile(np.log(np.arange(1, s + 1, dtype=np.float64)), (d, 1)))
        self.W_dt = T.uniform_param(rng, (d, d), d)
        # softplus(b_dt) ~ 0.05: moderate default step size.
        self.b_dt = T.Parameter(np.full(d, np.log(np.expm1(0.05))))
        self.W_B = T.uniform_param(rng, (d, s), d)
        self.W_C = T.uniform_param(rng, (d, s), d)
        self.D_skip = T.Parameter(np.ones(d))


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


# ---------------------------------------------------------------------------
# The mixer's pointwise and depthwise forward/adjoint pairs (plain numpy)
# ---------------------------------------------------------------------------

def _sigmoid_denominator(xd: np.ndarray) -> np.ndarray:
    """1 + e^-x, the sigmoid's denominator. Where e^-x overflows it is inf,
    and dividing by it gives exactly 0, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        return 1.0 + np.exp(-xd)


def silu_np(xd: np.ndarray) -> tuple:
    """x * sigmoid(x) and its adjoint ``bwd(g) -> (dx,)``, which keeps only
    ``xd`` and recomputes the sigmoid. Like ``T.linear_np`` and the other
    pairs here, ``scan_core`` runs it inside its one record."""
    def bwd(g):
        s = 1.0 / _sigmoid_denominator(xd)
        return (g * (s * (1.0 + xd * (1.0 - s))),)

    return xd * (1.0 / _sigmoid_denominator(xd)), bwd


def softplus_np(xd: np.ndarray) -> tuple:
    """log(1 + e^x) and its adjoint ``bwd(g) -> (dx,)``, which keeps ``xd``."""
    # log(1 + e^x) = max(x, 0) + log1p(e^-|x|): no overflow, and several
    # times faster than np.logaddexp(0, x)
    out = np.maximum(xd, 0) + np.log1p(np.exp(-np.abs(xd)))
    # g * sigmoid(x) as one division: g * (1/d) adds a rounding that moves
    # about a quarter of the gradient entries
    return out, lambda g: (g / _sigmoid_denominator(xd),)


def depthwise_conv1d_np(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> tuple:
    """Width-3 per-channel convolution along the sequence axis of [B,L,D]
    ``xd``, zero-padded by one step on each side, plus bias; and its adjoint
    ``bwd(g) -> (dx, dw, db)``, which keeps the padded input."""
    B, L, D = xd.shape
    xp = np.zeros((B, L + 2, D), dtype=xd.dtype)
    xp[:, 1:L + 1] = xd
    out = wd[0] * xp[:, :L] + wd[1] * xp[:, 1:L + 1] + wd[2] * xp[:, 2:L + 2] + bd

    def bwd(g):
        gp = np.zeros_like(xp)
        gp[:, :L] += wd[0] * g
        gp[:, 1:L + 1] += wd[1] * g
        gp[:, 2:L + 2] += wd[2] * g
        gx = gp[:, 1:L + 1]
        gw = np.stack([
            (xp[:, :L] * g).sum(axis=(0, 1)),
            (xp[:, 1:L + 1] * g).sum(axis=(0, 1)),
            (xp[:, 2:L + 2] * g).sum(axis=(0, 1)),
        ])
        return gx, gw, g.sum(axis=(0, 1))

    return out, bwd


def _scan_inputs(u, p, seq):
    """One direction's six scan inputs from the mixer's u [Bn, L, E], as
    views on ``seq``, and the adjoints of its projections and softplus,
    which keep u, the weights and softplus's input. ``p`` holds the
    direction's arrays in ``SsmParams`` order: A_log, W_dt, b_dt, W_B, W_C,
    D_skip."""
    A_log, W_dt, b_dt, W_B, W_C, D_skip = p
    dt_lin, dt_bwd = T.linear_np(u, W_dt, b_dt)
    delta, softplus_bwd = softplus_np(dt_lin)
    B, B_bwd = T.linear_np(u, W_B)
    C, C_bwd = T.linear_np(u, W_C)
    args = (u[:, seq], delta[:, seq], np.exp(A_log) * -1.0, B[:, seq], C[:, seq], D_skip)
    return args, (dt_bwd, softplus_bwd, B_bwd, C_bwd)


def _scan_forward(u, p, seq):
    """One direction's y [Bn, L, E]."""
    args, _ = _scan_inputs(u, p, seq)
    return scan_forward_np(*args)[:, seq]


def _scan_backward(g_pre, u, p, seq, gu):
    """One direction's part of the mixer's backward: its y, u's gradient and
    the gradients of ``p``. u's gradient terms are added into ``gu`` (or
    open it, if None) in the order the per-op tape added them: the scan,
    then W_C, W_B and W_dt."""
    args, (dt_bwd, softplus_bwd, B_bwd, C_bwd) = _scan_inputs(u, p, seq)
    y, (gs, gdelta, gA, gB, gC, gD) = scan_backward_np(g_pre[:, seq], *args)
    del args
    if gu is None:
        gu = gs[:, seq]
    else:
        gu += gs[:, seq]
    del gs
    gx, gW_C = C_bwd(gC[:, seq])
    gu += gx
    gx, gW_B = B_bwd(gB[:, seq])
    gu += gx
    gx, gW_dt, gb_dt = dt_bwd(softplus_bwd(gdelta[:, seq])[0])
    gu += gx
    # A = e^A_log * -1, so gA goes back through the adjoints of that
    # product and of exp, in their order (a NaN keeps its sign bit)
    return y[:, seq], gu, ((gA * -1.0) * np.exp(p[0]), gW_dt, gb_dt, gW_B, gW_C, gD)


# the two scan directions, first to last token and last to first
_SEQS = (slice(None), slice(None, None, -1))


def scan_core(u_lin: T.Tensor, z: T.Tensor, w: VimBlockWeights) -> T.Tensor:
    """The Vim mixer over [Bn, L, E] sequences, as one tape record:

        u = silu(depthwise_conv1d(u_lin)),   y = (y_fwd + y_bwd) * silu(z),

    where each direction scans u with delta = softplus(u W_dt + b_dt),
    B = u W_B, C = u W_C and A = -exp(A_log), and ``w.bwd``'s direction runs
    from the last token to the first (on reversed views; nothing flipped is
    copied).

    The record keeps only ``u_lin``, ``z`` and the weights, as Mamba's
    kernel does (Gu & Dao, arXiv 2312.00752, §3.3.2): the backward rebuilds
    u, delta, B, C and A with the forward's own operations, and takes each
    direction's y for the gate from the states its scan backward rebuilds,
    so no forward scan runs twice. The directions run one after the other,
    so one direction's [L, Bn, S, E] buffer, its adjoint G, is live at a
    time. Every forward and adjoint is an ``*_np`` pair (``T.linear_np`` and
    this module's), and u's gradient adds up its terms in the order a tape
    of one record per pair sweeps them, so outputs and gradients equal that
    per-op composition's (``tests/test_ssm.py``) bit for bit.
    """
    E = w.conv_w.shape[1]
    if u_lin.ndim != 3 or u_lin.shape != z.shape or u_lin.shape[2] != E:
        raise DimensionError(f"scan_core: u_lin and z must both be [Bn, L, {E}], "
                             f"got {u_lin.shape} and {z.shape}")
    params = (w.conv_w, w.conv_b, *w.fwd.parameters(), *w.bwd.parameters())
    ud, zd = u_lin.data, z.data
    conv_w, conv_b, *scan_w = (t.data for t in params)
    dirs = tuple(zip((scan_w[:6], scan_w[6:]), _SEQS))
    u = silu_np(depthwise_conv1d_np(ud, conv_w, conv_b)[0])[0]
    pre = _scan_forward(u, *dirs[0]) + _scan_forward(u, *dirs[1])
    del u
    out = pre * silu_np(zd)[0]

    def bwd(g):
        c, conv_bwd = depthwise_conv1d_np(ud, conv_w, conv_b)
        u, silu_bwd = silu_np(c)
        sz, gate_bwd = silu_np(zd)
        g_pre = g * sz
        del sz
        # the per-op tape swept the reversed direction first
        y_bwd, gu, grads_bwd = _scan_backward(g_pre, u, *dirs[1], None)
        pre, gu, grads_fwd = _scan_backward(g_pre, u, *dirs[0], gu)
        pre += y_bwd
        del u, y_bwd, g_pre
        gz, = gate_bwd(g * pre)
        del pre
        gu_lin, g_conv_w, g_conv_b = conv_bwd(silu_bwd(gu)[0])
        return (gu_lin, gz, g_conv_w, g_conv_b, *grads_fwd, *grads_bwd)

    return T.record_op((u_lin, z, *params), out, bwd)


def vim_block(X: T.Tensor, w: VimBlockWeights) -> T.Tensor:
    """Residual bidirectional mixer; output shape equals input shape.

    token norm -> parallel input/gate projections -> the mixer
    (``scan_core``) -> output projection -> + input.
    """
    if X.shape[-1] != w.d:
        raise DimensionError(f"vim_block: token width {X.shape[-1]} != weights width {w.d}")
    Xn = T.token_norm(X, w.norm_g, w.norm_b)
    u_lin = T.linear(Xn, w.W_in, w.b_in)
    z = T.linear(Xn, w.W_gate, w.b_gate)
    return T.add(T.linear(scan_core(u_lin, z, w), w.W_out, w.b_out), X)


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
    if len(lengths) < 4 or lengths[0] < 1 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ConfigError(f"need >= 4 strictly ascending positive lengths, got {lengths}")
    if min(reps, d, s) < 1:
        raise ConfigError(f"reps, d and s must each be at least 1, got {reps}, {d} and {s}")
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
