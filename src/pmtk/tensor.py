"""Dense tensor container and a reverse-mode differentiation tape.

The operation set is exactly what the segmentation pipeline needs: elementwise
arithmetic, 2-D matmul, 3x3/1x1 convolution, batch-stat and token-wise
normalization, bilinear upsampling, pixelwise softmax cross-entropy, and a few
shape movers. Every primitive computes its forward value eagerly with numpy
and, when a tape is active, records a backward closure. Replaying the tape in
reverse of recording order is a valid topological order because the graph is
built eagerly.

Tapes are single-writer: one training step owns one tape. Forward kernels are
pure and safe to call concurrently on disjoint data.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence

import numpy as np

from . import precision
from .errors import DataError, DimensionError, UsageError

# When enabled, every primitive asserts that its output is finite.
DEBUG_CHECK_FINITE = os.environ.get("PMTK_DEBUG", "") not in ("", "0")


class Tensor:
    """Dense row-major float array, wrapped so the tape can track identity."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        self.data = np.ascontiguousarray(data, dtype=dtype or precision.dtype())

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        return self.data

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"

    # Convenience arithmetic; routes through the recorded primitives below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return add(self, -float(other))


class Parameter(Tensor):
    """A tensor updated by the optimizer; distinguished only by type."""

    __slots__ = ()


class Tape:
    """Ordered record of primitive operations for one reverse sweep.

    ``backward`` replays the records strictly in reverse of recording order and
    accumulates gradients in a map keyed by tensor identity. Tensors that do
    not lie on a path to the loss simply never appear in the map (their
    gradient is zero).
    """

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        _stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _stack.pop()
        assert popped is self, "tapes must be exited in LIFO order"

    def record(self, inputs: tuple, output: Tensor, backward_fn: Callable) -> None:
        """Append one primitive.

        ``backward_fn(grad_out)`` must return one gradient array (or None) per
        input, aligned with ``inputs``.
        """
        self._records.append((inputs, output, backward_fn))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        """The (inputs, output, backward_fn) records, in recording order."""
        return iter(self._records)


_stack: list[Tape] = []


def active_tape() -> Tape | None:
    return _stack[-1] if _stack else None


def record_op(inputs: tuple, out_data: np.ndarray, backward_fn: Callable) -> Tensor:
    if DEBUG_CHECK_FINITE and not np.all(np.isfinite(out_data)):
        raise FloatingPointError("non-finite values produced by a tensor primitive")
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        tape.record(inputs, out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse sweep; returns a map from tensor (identity) to gradient array."""
    if loss.size != 1:
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for inputs, output, backward_fn in reversed(tape._records):
        g = grads.get(output)
        if g is None:
            continue
        in_grads = backward_fn(g)
        for inp, gi in zip(inputs, in_grads):
            if gi is None:
                continue
            acc = grads.get(inp)
            if acc is None:
                # own the buffer: backward fns may return views of (or the
                # same object as) another entry's gradient, and accumulating
                # in place into an aliased array would corrupt that entry
                grads[inp] = np.array(gi, dtype=loss.data.dtype)
            else:
                acc += gi
    return grads


def grad_of(grads: dict, t: Tensor) -> np.ndarray:
    """Gradient from a backward() map, or zeros for off-path tensors."""
    g = grads.get(t)
    return g if g is not None else np.zeros_like(t.data)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise suite
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return record_op((a,), a.data + c, lambda g: (g,))
    _same_shape(a, b, "add")
    return record_op((a, b), a.data + b.data, lambda g: (g, g))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return scale(a, float(b))
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return record_op((a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return record_op((x,), x.data * c, lambda g: (g * c,))


def mul_const(x: Tensor, c: np.ndarray) -> Tensor:
    """Elementwise product with a fixed array treated as a constant."""
    c = np.asarray(c, dtype=x.data.dtype)
    if c.shape != x.shape:
        raise DimensionError(f"mul_const: shape mismatch {x.shape} vs {c.shape}")
    return record_op((x,), x.data * c, lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return record_op((x,), np.maximum(xd, 0), lambda g: (g * (xd > 0),))


def silu(x: Tensor) -> Tensor:
    xd = x.data
    s = 1.0 / (1.0 + np.exp(-xd))
    return record_op((x,), xd * s, lambda g: (g * (s * (1.0 + xd * (1.0 - s))),))


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    out = np.logaddexp(0.0, xd)
    return record_op((x,), out, lambda g: (g / (1.0 + np.exp(-xd)),))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return record_op((x,), out, lambda g: (g * out,))


def add_bcast(x: Tensor, b: Tensor) -> Tensor:
    """Add a tensor whose shape equals the trailing extents of ``x``.

    Used for bias vectors on row-stacked data and for positional embeddings on
    batched token sequences; the gradient for ``b`` sums over leading axes.
    """
    k = b.ndim
    if k > x.ndim or x.shape[x.ndim - k:] != b.shape:
        raise DimensionError(f"add_bcast: {b.shape} is not a suffix of {x.shape}")
    lead = tuple(range(x.ndim - k))
    return record_op((x, b), x.data + b.data, lambda g: (g, g.sum(axis=lead) if lead else g))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    shape = x.shape
    return record_op((x,), np.asarray(x.data.sum()), lambda g: (np.broadcast_to(g, shape).copy(),))


def tmean(x: Tensor) -> Tensor:
    return scale(tsum(x), 1.0 / x.size)


# ---------------------------------------------------------------------------
# Shape movers
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = x.shape
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"reshape: cannot view {old} as {shape}")
    return record_op((x,), x.data.reshape(shape), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return record_op((x,), np.ascontiguousarray(x.data.transpose(axes)),
                 lambda g: (g.transpose(inv),))


def flip(x: Tensor, axis: int) -> Tensor:
    return record_op((x,), np.flip(x.data, axis=axis).copy(),
                 lambda g: (np.flip(g, axis=axis),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return record_op(tuple(parts), np.concatenate([p.data for p in parts], axis=axis), bwd)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return record_op((a, b), ad @ bd, lambda g: (g @ bd.T, ad.T @ g))


# ---------------------------------------------------------------------------
# Convolution (3x3 and 1x1 kernels, stride 1/2, zero pad 0/1)
# ---------------------------------------------------------------------------

def _conv_out_extent(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """Cross-correlation (no kernel flip) over [C,H,W] or [B,C,H,W] input."""
    if stride not in (1, 2):
        raise DimensionError(f"conv2d: stride must be 1 or 2, got {stride}")
    if pad not in (0, 1):
        raise DimensionError(f"conv2d: pad must be 0 or 1, got {pad}")
    if w.ndim != 4 or w.shape[2] != w.shape[3] or w.shape[2] not in (1, 3):
        raise DimensionError(f"conv2d: kernel must be [Cout,Cin,k,k] with k in {{1,3}}, got {w.shape}")
    squeeze = x.ndim == 3
    if squeeze:
        x4 = x.data[None]
    elif x.ndim == 4:
        x4 = x.data
    else:
        raise DimensionError(f"conv2d: input must be rank 3 or 4, got {x.shape}")
    B, C, H, W = x4.shape
    Cout, Cin, k, _ = w.shape
    if Cin != C:
        raise DimensionError(f"conv2d: input has {C} channels, kernel expects {Cin}")
    if H + 2 * pad < k or W + 2 * pad < k:
        raise DimensionError(f"conv2d: kernel {k}x{k} larger than padded input {H}x{W} (pad {pad})")
    Ho = _conv_out_extent(H, k, stride, pad)
    Wo = _conv_out_extent(W, k, stride, pad)

    if pad:
        xp = np.pad(x4, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    else:
        xp = x4
    # im2col: [B, C, Ho, Wo, k, k] -> [B*Ho*Wo, C*k*k]
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(B * Ho * Wo, C * k * k)
    wmat = w.data.reshape(Cout, C * k * k)
    out = (cols @ wmat.T).reshape(B, Ho, Wo, Cout).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)

    def bwd(g):
        g4 = g if g.ndim == 4 else g[None]
        g2 = g4.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, Cout)
        gw = (g2.T @ cols).reshape(w.shape)
        gcols = (g2 @ wmat).reshape(B, Ho, Wo, C, k, k)
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += \
                    gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        gx = gxp[:, :, pad:pad + H, pad:pad + W] if pad else gxp
        return (gx[0] if squeeze else gx, gw)

    return record_op((x, w), out[0] if squeeze else out, bwd)


def depthwise_conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Width-3 per-channel convolution along the sequence axis of [B,L,D].

    Zero padding of one step on each side keeps the sequence length.
    """
    squeeze = x.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3:
        raise DimensionError(f"depthwise_conv1d: input must be [L,D] or [B,L,D], got {x.shape}")
    B, L, D = xd.shape
    if w.shape != (3, D):
        raise DimensionError(f"depthwise_conv1d: kernel must be [3,{D}], got {w.shape}")
    xp = np.pad(xd, ((0, 0), (1, 1), (0, 0)))
    wd = w.data
    out = wd[0] * xp[:, :L] + wd[1] * xp[:, 1:L + 1] + wd[2] * xp[:, 2:L + 2]
    if bias is not None:
        out = out + bias.data

    def bwd(g):
        g3 = g[None] if squeeze else g
        gp = np.zeros_like(xp)
        gp[:, :L] += wd[0] * g3
        gp[:, 1:L + 1] += wd[1] * g3
        gp[:, 2:L + 2] += wd[2] * g3
        gx = gp[:, 1:L + 1]
        gw = np.stack([
            (xp[:, :L] * g3).sum(axis=(0, 1)),
            (xp[:, 1:L + 1] * g3).sum(axis=(0, 1)),
            (xp[:, 2:L + 2] * g3).sum(axis=(0, 1)),
        ])
        if bias is None:
            return gx[0] if squeeze else gx, gw
        return (gx[0] if squeeze else gx), gw, g3.sum(axis=(0, 1))

    inputs = (x, w) if bias is None else (x, w, bias)
    return record_op(inputs, out[0] if squeeze else out, bwd)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-5


def norm_affine(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel standardization over batch x spatial extent, then affine.

    Batch statistics are always used (no running-stat inference mode); a
    constant channel maps to ``beta`` exactly, so the zero-variance convention
    (output 0 for gamma=1, beta=0) holds by construction.
    """
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise DimensionError(f"norm_affine: input must be [C,H,W] or [B,C,H,W], got {x.shape}")
    C = xd.shape[1]
    if C == 0:
        raise DimensionError("norm_affine: zero-size channel axis")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise DimensionError(f"norm_affine: affine parameters must have shape ({C},)")
    axes = (0, 2, 3)
    n = xd.shape[0] * xd.shape[2] * xd.shape[3]
    # statistics and centering in 64-bit regardless of storage dtype: the
    # per-channel spread can sit orders below |x|, and 1/sqrt(var + eps)
    # amplifies the cancellation error of a narrow-dtype (x - mean) into
    # the dominant gradient noise of a deep model
    xw = xd.astype(np.float64, copy=False)
    mean = xw.mean(axis=axes, keepdims=True)
    var = xw.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat = (xw - mean) * inv
    gd = gamma.data.reshape(1, C, 1, 1)
    out = (xhat * gd + beta.data.reshape(1, C, 1, 1)).astype(xd.dtype)

    def bwd(g):
        g4 = g[None] if squeeze else g
        dbeta = g4.sum(axis=axes)
        dgamma = (g4 * xhat).sum(axis=axes)
        dxhat = g4 * gd
        dx = (inv / n) * (n * dxhat
                          - dxhat.sum(axis=axes, keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
        return (dx[0] if squeeze else dx), dgamma, dbeta

    return record_op((x, gamma, beta), out[0] if squeeze else out, bwd)


def token_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-token standardization over the feature axis of [..., D], then affine."""
    D = x.shape[-1]
    if gamma.shape != (D,) or beta.shape != (D,):
        raise DimensionError(f"token_norm: affine parameters must have shape ({D},)")
    xd = x.data
    # same 64-bit statistics rationale as norm_affine
    xw = xd.astype(np.float64, copy=False)
    mean = xw.mean(axis=-1, keepdims=True)
    var = xw.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat = (xw - mean) * inv
    out = (xhat * gamma.data + beta.data).astype(xd.dtype)
    lead = tuple(range(xd.ndim - 1))

    def bwd(g):
        dbeta = g.sum(axis=lead)
        dgamma = (g * xhat).sum(axis=lead)
        dxhat = g * gamma.data
        dx = (inv / D) * (D * dxhat
                          - dxhat.sum(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return record_op((x, gamma, beta), out, bwd)


# ---------------------------------------------------------------------------
# Bilinear upsampling (align_corners = False)
# ---------------------------------------------------------------------------

def _upsample_index(n: int, factor: int, dt) -> tuple:
    src = (np.arange(n * factor, dtype=dt) + dt.type(0.5)) / factor - dt.type(0.5)
    i0f = np.floor(src)
    frac = src - i0f
    i0 = np.clip(i0f, 0, n - 1).astype(np.intp)
    i1 = np.clip(i0f + 1, 0, n - 1).astype(np.intp)
    return i0, i1, frac


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    from .errors import ConfigError

    if factor < 2 or (factor & (factor - 1)) != 0:
        raise ConfigError(f"bilinear_upsample: factor must be a power of two >= 2, got {factor}")
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise DimensionError(f"bilinear_upsample: input must be rank 3 or 4, got {x.shape}")
    B, C, H, W = xd.shape
    dt = xd.dtype
    r0, r1, rf = _upsample_index(H, factor, dt)
    c0, c1, cf = _upsample_index(W, factor, dt)
    rf = rf.reshape(1, 1, -1, 1)
    cf = cf.reshape(1, 1, 1, -1)

    rows = xd[:, :, r0, :] * (1 - rf) + xd[:, :, r1, :] * rf
    out = rows[:, :, :, c0] * (1 - cf) + rows[:, :, :, c1] * cf

    def bwd(g):
        g4 = g[None] if squeeze else g
        grows = np.zeros((B, C, H * factor, W), dtype=dt)
        np.add.at(grows, (slice(None), slice(None), slice(None), c0), g4 * (1 - cf))
        np.add.at(grows, (slice(None), slice(None), slice(None), c1), g4 * cf)
        gx = np.zeros_like(xd)
        np.add.at(gx, (slice(None), slice(None), r0, slice(None)), grows * (1 - rf))
        np.add.at(gx, (slice(None), slice(None), r1, slice(None)), grows * rf)
        return (gx[0] if squeeze else gx,)

    return record_op((x,), out[0] if squeeze else out, bwd)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over pixels (and batch) of -log softmax(logits)[target].

    ``logits`` is [K,H,W] or [B,K,H,W]; ``target`` an integer mask of matching
    spatial shape with values in [0, K).
    """
    squeeze = logits.ndim == 3
    ld = logits.data[None] if squeeze else logits.data
    if ld.ndim != 4:
        raise DimensionError(f"softmax_cross_entropy: logits must be rank 3 or 4, got {logits.shape}")
    t = np.asarray(target)
    if squeeze and t.ndim == 2:
        t = t[None]
    B, K, H, W = ld.shape
    if t.shape != (B, H, W):
        raise DimensionError(f"softmax_cross_entropy: target shape {t.shape} does not match logits {logits.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        raise DataError("softmax_cross_entropy: target must be an integer mask")
    if t.min() < 0 or t.max() >= K:
        raise DataError(f"softmax_cross_entropy: labels must lie in [0, {K})")

    m = ld.max(axis=1, keepdims=True)
    ex = np.exp(ld - m)
    denom = ex.sum(axis=1, keepdims=True)
    logp = ld - m - np.log(denom)
    bi, hi, wi = np.meshgrid(np.arange(B), np.arange(H), np.arange(W), indexing="ij")
    picked = logp[bi, t, hi, wi]
    n = B * H * W
    loss = -picked.sum() / n

    def bwd(g):
        p = ex / denom
        p[bi, t, hi, wi] -= 1.0
        gl = p * (np.asarray(g).item() / n)
        return ((gl[0] if squeeze else gl),)

    return record_op((logits,), np.asarray(loss), bwd)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def uniform_param(rng: np.random.Generator, shape: Sequence[int], fan_in: int) -> Parameter:
    """Weight ~ uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) from a seeded generator."""
    bound = float(np.sqrt(1.0 / fan_in))
    return Parameter(rng.uniform(-bound, bound, size=tuple(shape)))


def zeros_param(shape: Sequence[int]) -> Parameter:
    return Parameter(np.zeros(tuple(shape)))


# ---------------------------------------------------------------------------
# Module convention
# ---------------------------------------------------------------------------

def _walk_params(name: str, value) -> "Iterable[tuple[str, Parameter]]":
    if isinstance(value, Parameter):
        yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(f"{name}.")
    elif isinstance(value, (list, tuple)):
        # recurse to any nesting depth: stage layouts are lists of lists
        for i, item in enumerate(value):
            yield from _walk_params(f"{name}.{i}", item)


class Module:
    """Tiny composition helper: anything holding Parameters or sub-Modules.

    ``named_parameters`` walks instance attributes (including arbitrarily
    nested lists of sub-modules) in insertion order, which makes checkpoint
    layouts and optimizer traversal deterministic.
    """

    def named_parameters(self, prefix: str = "") -> Iterable[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            yield from _walk_params(f"{prefix}{name}", value)

    def parameters(self) -> list:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.parameters()))


class Momentum:
    """Plain momentum SGD: v = mu*v + g; p -= lr*v."""

    def __init__(self, params: Sequence[Parameter], lr: float, momentum: float = 0.9):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict) -> None:
        for p, v in zip(self.params, self._velocity):
            g = grads.get(p)
            if g is None:
                continue
            v *= self.momentum
            v += g
            p.data -= self.lr * v
