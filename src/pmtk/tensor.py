"""Dense tensor container and a reverse-mode differentiation tape.

The operation set is exactly what the segmentation pipeline needs: elementwise
arithmetic, linear layers, 3x3/1x1 convolution, batch-stat and token-wise
normalization, bilinear upsampling, pixelwise softmax cross-entropy, and a few
shape movers. Every primitive computes its forward value eagerly with numpy
and, when a tape is active, records a backward closure. Replaying the tape in
reverse of recording order is a valid topological order because the graph is
built eagerly. The tape is the one instrumentation point: ``FiniteCheck`` is a
tape that stops at the first non-finite record, named by ``record_name``.

Every layout-aware primitive takes a leading batch axis: feature maps are
[B,C,H,W] and token sequences are [B,L,D]. A single image or sequence is a
batch of one.

Tapes are single-writer: one training step owns one tape. Forward kernels are
pure and safe to call concurrently on disjoint data.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import precision
from .errors import (ConfigError, DataError, DimensionError, DivergenceError,
                     UsageError)


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


def record_name(backward_fn: Callable) -> str:
    """``module.op`` of a tape record: the module of its backward closure and
    the first part of the closure's qualified name, which is the public op
    that made it (``tensor.linear``, ``ssm.scan_core``, ``pmd.pmd_apply``)."""
    module = backward_fn.__module__.rpartition(".")[2]
    return f"{module}.{backward_fn.__qualname__.split('.')[0]}"


class FiniteCheck(Tape):
    """A tape that raises DivergenceError, naming the record by ``record_name``
    and its tape index, at the first record whose output is non-finite."""

    def record(self, inputs: tuple, output: Tensor, backward_fn: Callable) -> None:
        if not np.isfinite(output.data).all():
            raise DivergenceError(f"{record_name(backward_fn)} (tape record {len(self)}) "
                                  f"produced a non-finite value")
        super().record(inputs, output, backward_fn)


_stack: list[Tape] = []


def active_tape() -> Tape | None:
    return _stack[-1] if _stack else None


def record_op(inputs: tuple, out_data: np.ndarray, backward_fn: Callable) -> Tensor:
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
    # log(1 + e^x) = max(x, 0) + log1p(e^-|x|): no overflow, and several
    # times faster than np.logaddexp(0, x)
    out = np.maximum(xd, 0) + np.log1p(np.exp(-np.abs(xd)))
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

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x [..., Din] @ w [Din, Dout] (+ b [Dout]) -> [..., Dout], one record.

    The leading axes are flattened into the rows of one 2-D product.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear: inner extents differ, {x.shape} x {w.shape}")
    Din, Dout = w.shape
    if b is not None and b.shape != (Dout,):
        raise DimensionError(f"linear: bias must have shape ({Dout},), got {b.shape}")
    x2, wd = x.data.reshape(-1, Din), w.data
    out = x2 @ wd
    if b is not None:
        out += b.data

    def bwd(g):
        g2 = g.reshape(-1, Dout)
        gx, gw = (g2 @ wd.T).reshape(x.shape), x2.T @ g2
        if b is None:
            return gx, gw
        # summed over the unflattened leading axes: numpy orders that sum
        # differently from a sum over the rows of g2
        return gx, gw, g.sum(axis=tuple(range(g.ndim - 1)))

    inputs = (x, w) if b is None else (x, w, b)
    return record_op(inputs, out.reshape(x.shape[:-1] + (Dout,)), bwd)


# ---------------------------------------------------------------------------
# Convolution (3x3 and 1x1 kernels, stride 1/2, zero pad 0/1)
# ---------------------------------------------------------------------------

def _conv_out_extent(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """Cross-correlation (no kernel flip) of [B,C,H,W] input with [Cout,C,k,k].

    Lowered to one matmul per image, wmat [Cout, C*k*k] @ cols [C*k*k, Ho*Wo],
    whose product is already the [Cout, Ho, Wo] output map. A 1x1 stride-1
    kernel uses the (padded) input itself as cols.
    """
    if stride not in (1, 2):
        raise DimensionError(f"conv2d: stride must be 1 or 2, got {stride}")
    if pad not in (0, 1):
        raise DimensionError(f"conv2d: pad must be 0 or 1, got {pad}")
    if w.ndim != 4 or w.shape[2] != w.shape[3] or w.shape[2] not in (1, 3):
        raise DimensionError(f"conv2d: kernel must be [Cout,Cin,k,k] with k in {{1,3}}, got {w.shape}")
    if x.ndim != 4:
        raise DimensionError(f"conv2d: input must be [B,C,H,W], got {x.shape}")
    xd = x.data
    B, C, H, W = xd.shape
    Cout, Cin, k, _ = w.shape
    if Cin != C:
        raise DimensionError(f"conv2d: input has {C} channels, kernel expects {Cin}")
    if H + 2 * pad < k or W + 2 * pad < k:
        raise DimensionError(f"conv2d: kernel {k}x{k} larger than padded input {H}x{W} (pad {pad})")
    Ho = _conv_out_extent(H, k, stride, pad)
    Wo = _conv_out_extent(W, k, stride, pad)

    # the zero border is written by hand: numpy's pad function runs ~45 us of
    # Python per call at these shapes, several times the copy itself
    if pad:
        xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=xd.dtype)
        xp[:, :, pad:pad + H, pad:pad + W] = xd
    else:
        xp = xd
    wmat = w.data.reshape(Cout, C * k * k)
    # im2col, channel-major: cols[b, (c, i, j), (ho, wo)] is the input pixel
    # that kernel tap (i, j) of channel c meets at output pixel (ho, wo)
    if k == 1 and stride == 1:
        cols = xp.reshape(B, C, Ho * Wo)
    else:
        cols = np.empty((B, C, k, k, Ho, Wo), dtype=xp.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = xp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride]
        cols = cols.reshape(B, C * k * k, Ho * Wo)
    out = (wmat @ cols).reshape(B, Cout, Ho, Wo)

    def bwd(g):
        g3 = g.reshape(B, Cout, Ho * Wo)
        # gw contracts over batch and pixels. Summing per-image products
        # makes a [B, Cout, C*k*k] intermediate, tensordot a transposed copy
        # of cols, [B, C*k*k, Ho*Wo]; take the smaller
        if Ho * Wo >= Cout:
            gw = (g3 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        else:
            gw = np.tensordot(g3, cols, ((0, 2), (0, 2))).reshape(w.shape)
        gcols = wmat.T @ g3
        if k == 1 and stride == 1:
            gxp = gcols.reshape(xp.shape)
        else:
            gcols = gcols.reshape(B, C, k, k, Ho, Wo)
            gxp = np.zeros_like(xp)
            for i in range(k):
                for j in range(k):
                    gxp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += gcols[:, :, i, j]
        gx = gxp[:, :, pad:pad + H, pad:pad + W] if pad else gxp
        return gx, gw

    return record_op((x, w), out, bwd)


def depthwise_conv1d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Width-3 per-channel convolution along the sequence axis of [B,L,D], plus bias.

    Zero padding of one step on each side keeps the sequence length.
    """
    if x.ndim != 3:
        raise DimensionError(f"depthwise_conv1d: input must be [B,L,D], got {x.shape}")
    xd = x.data
    B, L, D = xd.shape
    if w.shape != (3, D):
        raise DimensionError(f"depthwise_conv1d: kernel must be [3,{D}], got {w.shape}")
    xp = np.zeros((B, L + 2, D), dtype=xd.dtype)
    xp[:, 1:L + 1] = xd
    wd = w.data
    out = wd[0] * xp[:, :L] + wd[1] * xp[:, 1:L + 1] + wd[2] * xp[:, 2:L + 2] + bias.data

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

    return record_op((x, w, bias), out, bwd)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-5


def _standardize(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 stat_axes: tuple, channel_axis: int) -> tuple:
    """Standardize ``xd`` over ``stat_axes``, then scale and shift per channel.

    ``gamma`` and ``beta`` run along ``channel_axis``. Returns the output in
    the dtype of ``xd`` and its adjoint ``bwd(g) -> (dx, dgamma, dbeta)``.
    Callers record ``lambda g: bwd(g)``: a tape record is named after its
    closure, so the closure must be made in the public op.

    Statistics and centering run in 64-bit regardless of storage dtype: the
    spread can sit orders below |x|, and 1/sqrt(var + eps) amplifies the
    cancellation error of a narrow-dtype (x - mean) into the dominant
    gradient noise of a deep model.
    """
    shape = [1] * xd.ndim
    shape[channel_axis] = gamma.size
    gd = gamma.reshape(shape)
    param_axes = tuple(a for a in range(xd.ndim) if a != channel_axis)
    n = math.prod(xd.shape[a] for a in stat_axes)
    xw = xd.astype(np.float64, copy=False)
    # one centring pass; these are the operations of xw.mean and xw.var, in
    # their order, so the statistics are theirs bit for bit
    xc = xw - np.add.reduce(xw, axis=stat_axes, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=stat_axes, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat = xc
    xhat *= inv
    # the affine runs on 64-bit copies of the parameters: with a broadcast
    # f32 operand numpy takes a buffered casting loop, ~4x slower here
    out = (xhat * gd.astype(np.float64, copy=False)
           + beta.reshape(shape).astype(np.float64, copy=False)).astype(xd.dtype)

    def bwd(g):
        dxhat = g * gd
        dx = (inv / n) * (n * dxhat
                          - dxhat.sum(axis=stat_axes, keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=stat_axes, keepdims=True))
        return dx, (g * xhat).sum(axis=param_axes), g.sum(axis=param_axes)

    return out, bwd


def norm_affine(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Standardize each channel of [B,C,H,W] over batch and space, then affine.

    Batch statistics are always used (no running-stat inference mode); a
    constant channel maps to ``beta`` exactly, so the zero-variance convention
    (output 0 for gamma=1, beta=0) holds by construction.
    """
    if x.ndim != 4:
        raise DimensionError(f"norm_affine: input must be [B,C,H,W], got {x.shape}")
    C = x.shape[1]
    if C == 0:
        raise DimensionError("norm_affine: zero-size channel axis")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise DimensionError(f"norm_affine: affine parameters must have shape ({C},)")
    out, bwd = _standardize(x.data, gamma.data, beta.data, (0, 2, 3), 1)
    return record_op((x, gamma, beta), out, lambda g: bwd(g))


def token_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-token standardization over the feature axis of [..., D], then affine."""
    D = x.shape[-1]
    if gamma.shape != (D,) or beta.shape != (D,):
        raise DimensionError(f"token_norm: affine parameters must have shape ({D},)")
    last = x.ndim - 1
    out, bwd = _standardize(x.data, gamma.data, beta.data, (last,), last)
    return record_op((x, gamma, beta), out, lambda g: bwd(g))


# ---------------------------------------------------------------------------
# Bilinear upsampling (align_corners = False)
# ---------------------------------------------------------------------------

def _interp_matrix(n: int, factor: int, dt) -> np.ndarray:
    """[n*factor, n] linear interpolation weights, align_corners = False.

    Output i samples source coordinate (i + 0.5) / factor - 0.5, clamped to
    [0, n-1]; source j gets the hat weight max(0, 1 - |coordinate - j|).
    """
    src = np.clip((np.arange(n * factor) + 0.5) / factor - 0.5, 0, n - 1)
    return np.maximum(0.0, 1.0 - np.abs(src[:, None] - np.arange(n))).astype(dt)


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    """Upsample [B,C,H,W] by a power-of-two factor along H and W.

    Bilinear interpolation is separable: with R = [H*f, H] and Cm = [W*f, W]
    from ``_interp_matrix``, the output is R @ x @ Cm.T and the input gradient
    R.T @ g @ Cm, matmuls broadcast over [B,C].
    """
    if factor < 2 or (factor & (factor - 1)) != 0:
        raise ConfigError(f"bilinear_upsample: factor must be a power of two >= 2, got {factor}")
    if x.ndim != 4:
        raise DimensionError(f"bilinear_upsample: input must be [B,C,H,W], got {x.shape}")
    _, _, H, W = x.shape
    R = _interp_matrix(H, factor, x.data.dtype)
    Cm = _interp_matrix(W, factor, x.data.dtype)
    return record_op((x,), R @ (x.data @ Cm.T), lambda g: (R.T @ (g @ Cm),))


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over pixels (and batch) of -log softmax(logits)[target].

    ``logits`` is [B,K,H,W]; ``target`` a [B,H,W] integer mask with values in
    [0, K).
    """
    if logits.ndim != 4:
        raise DimensionError(f"softmax_cross_entropy: logits must be [B,K,H,W], got {logits.shape}")
    ld = logits.data
    t = np.asarray(target)
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
    idx = t[:, None]
    n = B * H * W
    loss = -np.take_along_axis(logp, idx, 1).sum() / n

    def bwd(g):
        p = ex / denom
        np.put_along_axis(p, idx, np.take_along_axis(p, idx, 1) - 1.0, 1)
        return (p * (np.asarray(g).item() / n),)

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
