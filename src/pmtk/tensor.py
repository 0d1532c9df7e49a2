"""Dense tensor container and a reverse-mode differentiation tape.

The ops are those the model, its loss and the gradient checker record: add,
mul, scale, relu, add_bcast, tsum, reshape, transpose, concat, linear,
conv2d, norm_affine, token_norm, bilinear_upsample and softmax_cross_entropy
(``ssm.scan_core`` and ``pmd.pmd_apply`` record through ``record_op``). Every
primitive computes its forward value eagerly with numpy and, when a tape is
active, records a backward closure. Walking the tape in reverse of recording
order is a valid topological order because the graph is built eagerly. The
tape is the one instrumentation point: ``FiniteCheck`` is a tape that stops
at the first non-finite record, named by ``record_name``.

A record holds identities, not arrays: a key for each input and for the
output, and its backward closure. A tensor that a record on the tape
produced is keyed by a token; the tape holds no such tensor, so the closure
is the only owner of the arrays its backward reads, and an op output that no
closure reads is freed as soon as the forward drops it. A leaf (an input that
no earlier record on the tape produced) is its own key, and the tape keeps
it. Code that needs a record's arrays reads them in ``record``, from a
``Tape`` subclass, as ``FiniteCheck`` does.

The reverse sweep consumes its tape and keeps only its frontier. Each record
is taken off the tape before its closure runs, so the closure and every
array only it reads are freed as soon as its input gradients are routed; a
swept tape cannot be swept again. A record's output gradient is dropped as
soon as that record's closure has consumed it, so the map that ``backward``
returns holds the leaves alone. Gradients are passed around without copies,
so a closure never writes into its incoming gradient ``g`` (it arrives
read-only); it may return ``g`` or views of it.

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

from .errors import (ConfigError, DataError, DimensionError, DivergenceError,
                     UsageError)

# a Tensor's dtype when none is given; every op computes in its inputs' dtype
DEFAULT = np.dtype(np.float32)


class Tensor:
    """Dense row-major float array, wrapped so the tape can track identity.

    ``data`` is cast to ``dtype``, or to ``DEFAULT`` (float32) when none is
    given, whatever the input's own dtype.
    """

    __slots__ = ("data", "_key")

    def __init__(self, data, dtype=None):
        self.data = np.ascontiguousarray(data, dtype=dtype or DEFAULT)
        self._key = None           # set by the tape whose record produces it

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A tensor updated by the optimizer; distinguished only by type."""

    __slots__ = ()


class Tape:
    """Ordered record of primitive operations for one reverse sweep.

    A record is (input keys, output key, backward_fn). The output key is a
    token that the tape gives the output tensor; an input's key is its token
    when a record on this tape produced it, else the input itself, a leaf,
    which the tape keeps. No record holds a produced tensor or its array.

    ``backward`` visits the records strictly in reverse of recording order and
    accumulates gradients in a map by key. Tensors that do not lie on a path
    to the loss simply never appear in the map (their gradient is zero).
    The sweep consumes the tape: it frees each record as it runs, and leaves
    the tape empty. Read a tape's records before sweeping it.
    """

    def __init__(self):
        self._records: list[tuple[tuple, object, Callable]] = []
        self._produced: set = set()        # output keys of this tape's records

    def __enter__(self) -> "Tape":
        _stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _stack.pop()
        assert popped is self, "tapes must be exited in LIFO order"

    def key(self, t: Tensor):
        """``t``'s token if a record on this tape produced it, else ``t``."""
        return t._key if t._key in self._produced else t

    def record(self, inputs: tuple, output: Tensor, backward_fn: Callable) -> None:
        """Append one primitive.

        ``backward_fn(grad_out)`` must return one gradient array (or None) per
        input, aligned with ``inputs``. The record keeps the inputs' keys and
        a new token for ``output``, not the tensors (leaves aside).
        """
        keys = tuple(self.key(t) for t in inputs)
        token = output._key = object()
        self._produced.add(token)
        self._records.append((keys, token, backward_fn))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        """The (input keys, output key, backward_fn) records, in recording
        order. A key is a token, or a leaf tensor; the arrays a backward
        reads are its closure's alone."""
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
    """Wrap an op's output, in the dtype the op computed it in, and record it."""
    out = Tensor(out_data, out_data.dtype)
    tape = active_tape()
    if tape is not None:
        tape.record(inputs, out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse sweep; returns a map from each leaf (a tensor no record on
    ``tape`` produced) on a path to the loss to its gradient.

    The sweep consumes ``tape``: it takes the records off the tape and pops
    each one before its closure runs, so the closure and the arrays only it
    reads are freed once its input gradients are routed. The tape is left
    empty, and a second sweep of it raises UsageError.

    Gradients are routed by record key (``Tape``), and the map holds only
    the frontier: a record's output gradient is popped when its record
    consumes it, so no dead gradient outlives its use. Each closure gets its
    gradient ``g`` read-only; it must not write into it, and may return
    ``g`` itself or views of it. A first-arriving gradient is stored as
    returned (cast only when its dtype differs from the loss's), so entries
    may share memory; a second arrival adds into a fresh array, and later
    ones add in place into that array. The returned gradients are read-only.
    """
    if loss.size != 1:
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    # records were made but none is left: an earlier sweep consumed them
    if tape._produced and not tape._records:
        raise UsageError("backward: this tape was already swept; "
                         "record the forward on a new tape")
    dtype = loss.data.dtype
    start = tape.key(loss)
    grads: dict = {start: np.ones_like(loss.data)}
    owned = {start}                    # entries only this sweep can reach
    records, tape._records = tape._records, []
    while records:
        in_keys, out_key, backward_fn = records.pop()
        g = grads.pop(out_key, None)
        if g is None:
            continue
        g.flags.writeable = False
        in_grads = backward_fn(g)
        for key, gi in zip(in_keys, in_grads):
            if gi is None:
                continue
            acc = grads.get(key)
            if acc is None:
                if gi.dtype == dtype:
                    grads[key] = gi
                else:
                    grads[key] = np.array(gi, dtype=dtype)
                    owned.add(key)
            elif key in owned:
                acc += gi
            else:
                # the entry is borrowed, possibly shared with another entry
                grads[key] = np.add(acc, gi, out=np.empty_like(acc))
                owned.add(key)
    for g in grads.values():
        g.flags.writeable = False
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

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return record_op((a, b), a.data + b.data, lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return record_op((a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return record_op((x,), x.data * c, lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    # the mask is read off the output, which the next op keeps as its input:
    # max(x, 0) > 0 exactly where x > 0, NaN and -0.0 included
    out = np.maximum(x.data, 0)
    return record_op((x,), out, lambda g: (g * (out > 0),))


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

def linear_np(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray | None = None) -> tuple:
    """xd [..., Din] @ wd (+ bd) and its adjoint ``bwd(g) -> (dx, dw[, db])``.

    The leading axes are flattened into the rows of one 2-D product.
    """
    Din, Dout = wd.shape
    x2 = xd.reshape(-1, Din)
    out = x2 @ wd
    if bd is not None:
        out += bd

    def bwd(g):
        g2 = g.reshape(-1, Dout)
        gx, gw = (g2 @ wd.T).reshape(xd.shape), x2.T @ g2
        if bd is None:
            return gx, gw
        # summed over the unflattened leading axes: numpy orders that sum
        # differently from a sum over the rows of g2
        return gx, gw, g.sum(axis=tuple(range(g.ndim - 1)))

    return out.reshape(xd.shape[:-1] + (Dout,)), bwd


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x [..., Din] @ w [Din, Dout] (+ b [Dout]) -> [..., Dout], one record."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear: inner extents differ, {x.shape} x {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise DimensionError(f"linear: bias must have shape ({w.shape[1]},), got {b.shape}")
    out, bwd = linear_np(x.data, w.data, None if b is None else b.data)
    inputs = (x, w) if b is None else (x, w, b)
    return record_op(inputs, out, lambda g: bwd(g))


# ---------------------------------------------------------------------------
# Convolution (3x3 and 1x1 kernels, stride 1/2, zero pad 0/1)
# ---------------------------------------------------------------------------

def _conv_out_extent(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def _im2col(xd: np.ndarray, k: int, stride: int, pad: int, Ho: int, Wo: int) -> np.ndarray:
    """im2col of [B,C,H,W] ``xd``, channel-major: cols[b, (c, i, j), (ho, wo)]
    is the input pixel that kernel tap (i, j) of channel c meets at output
    pixel (ho, wo). One copy from a strided view of the zero-padded input; a
    1x1 stride-1 kernel gets the padded input itself, [B, C, Ho*Wo]."""
    B, C, H, W = xd.shape
    # the zero border is written by hand: numpy's pad function runs ~45 us of
    # Python per call at these shapes, several times the copy itself
    if pad:
        xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=xd.dtype)
        xp[:, :, pad:pad + H, pad:pad + W] = xd
    else:
        xp = xd
    if k == 1 and stride == 1:
        return xp.reshape(B, C, Ho * Wo)
    sb, sc, sh, sw = xp.strides
    taps = np.lib.stride_tricks.as_strided(
        xp, (B, C, k, k, Ho, Wo), (sb, sc, sh, sw, stride * sh, stride * sw), writeable=False)
    return taps.reshape(B, C * k * k, Ho * Wo)


def _col2im(gcols: np.ndarray, k: int, stride: int, Ho: int, Wo: int, shape: tuple) -> np.ndarray:
    """Adjoint of ``_im2col`` for k > 1 or stride 2: sums each tap's [B,C,Ho,Wo]
    slab of ``gcols`` into the padded input extent ``shape``.

    One kernel row at a time: the row's k taps are copied into k zeroed
    planes, then each plane is added into a zeroed accumulator, in tap order,
    at its row's offset. A strided ``+=`` per tap, whose inner loop runs over
    only Wo elements, costs about twice as much. The planes leave out the row
    offset, so every row writes the same entries and the planes are zeroed
    once; k planes are live, not k². The sum is that loop's bit for bit:
    every pixel receives the same additions in the same order, and an entry
    a tap does not touch adds +0.0 or nothing, which changes no value an
    accumulator starting at +0.0 can hold (it never holds -0.0).
    """
    B, C, _, Wp = shape
    span = stride * (Ho - 1) + 1           # the rows one tap reaches
    planes = np.zeros((k, B, C, span, Wp), dtype=gcols.dtype)
    sj, sb, sc, sh, sw = planes.strides
    # view[b, c, j, ho, wo] is planes[j, b, c, stride*ho, j + stride*wo]
    view = np.lib.stride_tricks.as_strided(
        planes, (B, C, k, Ho, Wo), (sb, sc, sj + sw, stride * sh, stride * sw))
    taps = gcols.reshape(B, C, k, k, Ho, Wo)
    gxp = np.zeros(shape, dtype=gcols.dtype)
    for i in range(k):
        view[...] = taps[:, :, i]
        rows = gxp[:, :, i:i + span]
        for plane in planes:
            rows += plane
    return gxp


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """Cross-correlation (no kernel flip) of [B,C,H,W] input with [Cout,C,k,k].

    Lowered to one matmul per image, wmat [Cout, C*k*k] @ cols [C*k*k, Ho*Wo],
    whose product is already the [Cout, Ho, Wo] output map (``_im2col``). The
    record keeps only the input: the backward rebuilds cols, 9x the input for
    a 3x3 kernel, with the forward's own operations.
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
    wmat = w.data.reshape(Cout, C * k * k)
    out = (wmat @ _im2col(xd, k, stride, pad, Ho, Wo)).reshape(B, Cout, Ho, Wo)

    def bwd(g):
        g3 = g.reshape(B, Cout, Ho * Wo)
        cols = _im2col(xd, k, stride, pad, Ho, Wo)
        # gw contracts over batch and pixels. Summing per-image products
        # makes a [B, Cout, C*k*k] intermediate, tensordot a transposed copy
        # of cols, [B, C*k*k, Ho*Wo]; take the smaller
        if Ho * Wo >= Cout:
            gw = (g3 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        else:
            gw = np.tensordot(g3, cols, ((0, 2), (0, 2))).reshape(w.shape)
        del cols                           # before gcols, its equal in size
        gcols = wmat.T @ g3
        padded = (B, C, H + 2 * pad, W + 2 * pad)
        if k == 1 and stride == 1:
            gxp = gcols.reshape(padded)
        else:
            gxp = _col2im(gcols, k, stride, Ho, Wo, padded)
        gx = gxp[:, :, pad:pad + H, pad:pad + W] if pad else gxp
        return gx, gw

    return record_op((x, w), out, bwd)


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

    The adjoint keeps ``xd`` in its storage dtype and the per-channel mean
    and 1/std, not the 64-bit standardized input: that is twice the size of
    an f32 input, which the record before it (a conv) does not keep. The
    backward rebuilds it with the forward's own operations, so it is the
    forward's bit for bit. Each f32 operand of a full-size product is
    widened once, as a mixed-dtype product runs a slow buffered cast; the
    values are those of the mixed expression, and ``dx`` is 64-bit.
    """
    shape = [1] * xd.ndim
    shape[channel_axis] = gamma.size
    gd = gamma.reshape(shape)
    param_axes = tuple(a for a in range(xd.ndim) if a != channel_axis)
    n = math.prod(xd.shape[a] for a in stat_axes)
    xw = xd.astype(np.float64, copy=False)
    # one centring pass; these are the operations of xw.mean and xw.var, in
    # their order, so the statistics are theirs bit for bit
    mean = np.add.reduce(xw, axis=stat_axes, keepdims=True) / n
    xhat = xw - mean
    var = np.add.reduce(xhat * xhat, axis=stat_axes, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat *= inv
    # the affine runs on 64-bit copies of the parameters: with a broadcast
    # f32 operand numpy takes a buffered casting loop, ~4x slower here
    xhat *= gd.astype(np.float64, copy=False)
    xhat += beta.reshape(shape).astype(np.float64, copy=False)
    out = xhat.astype(xd.dtype)

    def bwd(g):
        xhat = xd.astype(np.float64)
        xhat -= mean
        xhat *= inv
        dxhat = g * gd
        # n * dxhat - sum(dxhat) runs in the storage dtype, then widens
        dx = n * dxhat
        dx -= dxhat.sum(axis=stat_axes, keepdims=True)
        dx = dx.astype(np.float64, copy=False)
        w = dxhat.astype(np.float64)
        w *= xhat
        np.multiply(xhat, w.sum(axis=stat_axes, keepdims=True), out=w)
        dx -= w
        dx *= inv / n
        w = g.astype(np.float64)
        w *= xhat
        return dx, w.sum(axis=param_axes), g.sum(axis=param_axes)

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

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns the module."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self


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
