"""Finite-difference verification of tape gradients.

Tape gradients are computed under the ambient precision mode; the
central-difference reference always evaluates the probed function in 64-bit,
so the difference quotient carries roundoff ~eps64*|loss|/h instead of the
~1e-4 a 32-bit forward would inject. What the comparison then measures is
the correctness of the backward formulas plus the 32-bit tape's own
rounding, which is what the 1e-3 (32-bit) / 1e-6 (64-bit) tolerances are
for.

The step is h=1e-5 in both modes. Large enough that a relu pre-activation
a few 1e-4 from zero is not straddled by the probe pair, small enough that
quotient roundoff stays ~1e-10 per unit of loss magnitude.

Comparison is elementwise relative error |a-b| / max(|a|,|b|), skipping
entries where both magnitudes sit below a noise floor. The floor scales
with the loss magnitude: the quotient's absolute resolution is set by
eps64*|loss|/h, so gradient entries many orders below the loss scale are
unresolvable by any finite difference and carry no information. Entries
above the floor are still held to the full relative tolerance.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import precision
from .tensor import Tape, Tensor, backward, grad_of


def fd_step() -> float:
    return 1e-5


def noise_floor_coeff() -> float:
    """Floor per unit of loss magnitude; looser in 32-bit where the tape
    itself perturbs small gradient entries by ~eps32 * intermediate scale."""
    return 1e-4 if precision.is_double() else 1e-3


def tolerance() -> float:
    return 1e-6 if precision.is_double() else 1e-3


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function, probe by probe."""
    h = fd_step() if h is None else h
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = float(f(x))
        flat[i] = keep - h
        fm = float(f(x))
        flat[i] = keep
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Largest elementwise relative error, ignoring jointly-tiny entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mag = np.maximum(np.abs(a), np.abs(b))
    mask = mag >= floor
    if not mask.any():
        return 0.0
    return float((np.abs(a - b)[mask] / mag[mask]).max())


def check_scalar_fn(f: Callable[[Sequence[Tensor]], Tensor],
                    xs: Sequence[np.ndarray], floor: float | None = None) -> float:
    """Worst relative error of tape gradients of ``f`` vs central differences.

    ``f`` maps a list of Tensors to a scalar Tensor; it is evaluated once on
    the tape under the ambient precision and repeatedly in 64-bit for the
    reference.
    """
    tensors = [Tensor(x) for x in xs]
    with Tape() as tape:
        loss = f(tensors)
    grads = backward(tape, loss)
    analytic = [grad_of(grads, t) for t in tensors]
    if floor is None:
        floor = noise_floor_coeff() * max(1.0, abs(float(loss.item())))

    h = fd_step()
    worst = 0.0
    with precision.use("f64"):
        for i in range(len(xs)):
            def probe(xi, i=i):
                args = [Tensor(x) for x in xs]
                args[i] = Tensor(xi)
                return f(args).item()

            fd = finite_diff_grad(probe, xs[i], h)
            worst = max(worst, max_rel_err(analytic[i], fd, floor))
    return worst


# ---------------------------------------------------------------------------
# Operation-family suite (tests and CLI `gradcheck`)
# ---------------------------------------------------------------------------

def _signed(rng, shape):
    """Magnitudes in [0.5, 1.5] with random sign: keeps gradients away from 0."""
    return (rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape))


def _weighted_sum(out, r):
    from . import tensor as T
    return T.tsum(T.mul_const(out, r))


def _fam_elementwise(rng):
    from . import tensor as T
    x = _signed(rng, (3, 4))
    y = _signed(rng, (3, 4))
    r = rng.uniform(0.5, 1.5, (3, 4))

    def f(ts):
        a, b = ts
        out = T.add(T.mul(T.relu(a), b), T.silu(a))
        out = T.add(out, T.softplus(b))
        out = T.add(out, T.exp(T.scale(a, 0.5)))
        return _weighted_sum(out, r)

    return check_scalar_fn(f, [x, y])


def _fam_matmul(rng):
    from . import tensor as T
    a = _signed(rng, (3, 4))
    b = _signed(rng, (4, 2))
    r = rng.uniform(0.5, 1.5, (3, 2))
    return check_scalar_fn(lambda ts: _weighted_sum(T.matmul(ts[0], ts[1]), r), [a, b])


def _fam_conv2d(rng):
    from . import tensor as T
    # batched and non-square, so the batch sum in gw and a swapped H/W are
    # probed; the 1x1 pad-0 case runs the branch without im2col
    worst = 0.0
    for k, stride, pad in ((3, 1, 1), (3, 2, 1), (3, 1, 0), (1, 1, 0)):
        x = _signed(rng, (2, 2, 5, 7))
        w = _signed(rng, (3, 2, k, k))
        ho, wo = ((n + 2 * pad - k) // stride + 1 for n in (5, 7))
        r = rng.uniform(0.5, 1.5, (2, 3, ho, wo))
        worst = max(worst, check_scalar_fn(
            lambda ts, s=stride, p=pad, rr=r: _weighted_sum(T.conv2d(ts[0], ts[1], s, p), rr),
            [x, w]))
    return worst


def _fam_depthwise_conv1d(rng):
    from . import tensor as T
    x = _signed(rng, (2, 6, 3))
    w = _signed(rng, (3, 3))
    b = _signed(rng, (3,))
    r = rng.uniform(0.5, 1.5, (2, 6, 3))
    return check_scalar_fn(
        lambda ts: _weighted_sum(T.depthwise_conv1d(ts[0], ts[1], ts[2]), r), [x, w, b])


def _fam_norm(rng):
    from . import tensor as T
    worst = 0.0
    x = _signed(rng, (2, 3, 4, 4))
    g = rng.uniform(0.5, 1.5, (3,))
    b = _signed(rng, (3,))
    r = rng.uniform(0.5, 1.5, x.shape)
    worst = max(worst, check_scalar_fn(
        lambda ts: _weighted_sum(T.norm_affine(*ts), r), [x, g, b]))
    xt = _signed(rng, (2, 5, 6))
    gt = rng.uniform(0.5, 1.5, (6,))
    bt = _signed(rng, (6,))
    rt = rng.uniform(0.5, 1.5, xt.shape)
    worst = max(worst, check_scalar_fn(
        lambda ts: _weighted_sum(T.token_norm(*ts), rt), [xt, gt, bt]))
    return worst


def _fam_upsample(rng):
    from . import tensor as T
    # non-square and batched, so a swapped row/column matrix cannot pass
    worst = 0.0
    for factor in (2, 4):
        x = _signed(rng, (2, 2, 3, 5))
        r = rng.uniform(0.5, 1.5, (2, 2, 3 * factor, 5 * factor))
        worst = max(worst, check_scalar_fn(
            lambda ts: _weighted_sum(T.bilinear_upsample(ts[0], factor), r), [x]))
    return worst


def _fam_cross_entropy(rng):
    from . import tensor as T
    logits = _signed(rng, (2, 3, 2, 2)) * 1.5
    target = rng.integers(0, 3, (2, 2, 2))
    # Scale up so gradient entries (~|p - y|/Npix) sit well above the floor.
    return check_scalar_fn(
        lambda ts: T.scale(T.softmax_cross_entropy(ts[0], target), 8.0), [logits])


def _fam_diffusion(rng):
    """Adjoint consistency of the frozen-gate diffusion map.

    The gate is a constant of the backward pass by design, so finite
    differences on the input would disagree (they see the gate move). The
    right check for a linear map L with recorded backward L* is the dot test
    <L x, y> = <x, L* y>.
    """
    from . import tensor as T
    from .pmd import pmd_apply
    worst = 0.0
    for mode in ("attenuate", "as-written"):
        x = T.Tensor(_signed(rng, (2, 6, 6)))
        cot = _signed(rng, x.shape)
        with Tape() as tape:
            y = pmd_apply(x, 1.0, mode)
            loss = T.tsum(T.mul_const(y, cot))
        gx = grad_of(backward(tape, loss), x)
        lhs = float(np.sum(y.data.astype(np.float64) * cot))
        rhs = float(np.sum(x.data.astype(np.float64) * gx))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    return worst


def _fam_scan(rng):
    from .ssm import scan_core
    # Bn > 1 so the batch sums in gA and gDskip are probed
    Bn, L, D, S = 2, 5, 3, 2
    worst = 0.0
    for reverse in (False, True):
        u = _signed(rng, (Bn, L, D))
        delta = rng.uniform(0.05, 0.6, (Bn, L, D))
        A = -rng.uniform(0.2, 2.0, (D, S))
        B = _signed(rng, (Bn, L, S))
        C = _signed(rng, (Bn, L, S))
        Dsk = _signed(rng, (D,))
        r = rng.uniform(0.5, 1.5, (Bn, L, D))
        worst = max(worst, check_scalar_fn(
            lambda ts: _weighted_sum(scan_core(*ts, reverse=reverse), r),
            [u, delta, A, B, C, Dsk]))
    return worst


def _fam_vim_block(rng):
    from .ssm import VimBlockWeights, vim_block
    w = VimBlockWeights(np.random.default_rng(int(rng.integers(1 << 31))), d=4, s=2)
    names = [n for n, _ in w.named_parameters()]
    params = {n: p for n, p in w.named_parameters()}
    x = _signed(rng, (1, 6, 4))
    r = rng.uniform(0.5, 1.5, x.shape)
    arrays = [x] + [params[n].data.copy() for n in names]

    def f(ts):
        # Rebind parameters to the probe tensors so tape gradients attach.
        for name, t in zip(names, ts[1:]):
            _assign(w, name, t)
        out = vim_block(ts[0], w)
        for name in names:
            _assign(w, name, params[name])
        return _weighted_sum(out, r)

    return check_scalar_fn(f, arrays)


def _assign(module, dotted: str, value) -> None:
    parts = dotted.split(".")
    obj = module
    for p in parts[:-1]:
        obj = obj[int(p)] if p.isdigit() else getattr(obj, p)
    last = parts[-1]
    if last.isdigit():
        obj[int(last)] = value
    else:
        setattr(obj, last, value)


def _fam_pmd_block(rng):
    """Parameter gradients of a diffusion-residual block.

    The block input is held fixed: its gradient is straight-through by design
    (the diffusion gate is frozen), while parameter gradients are exact since
    the gate depends only on the input.
    """
    from .pmd import PmdBlock
    blk = PmdBlock(np.random.default_rng(int(rng.integers(1 << 31))), 2, 3,
                   stride=1, preprocess="dwt")
    names = [n for n, _ in blk.named_parameters()]
    params = {n: p for n, p in blk.named_parameters()}
    x = _signed(rng, (1, 2, 6, 6))
    r = rng.uniform(0.5, 1.5, (1, 3, 6, 6))
    arrays = [params[n].data.copy() for n in names]

    def f(ts):
        for name, t in zip(names, ts):
            _assign(blk, name, t)
        out = blk(Tensor(x))
        for name in names:
            _assign(blk, name, params[name])
        return _weighted_sum(out, r)

    return check_scalar_fn(f, arrays)


FAMILIES = {
    "elementwise": _fam_elementwise,
    "matmul": _fam_matmul,
    "conv2d": _fam_conv2d,
    "depthwise_conv1d": _fam_depthwise_conv1d,
    "norm": _fam_norm,
    "bilinear_upsample": _fam_upsample,
    "softmax_cross_entropy": _fam_cross_entropy,
    "dwt_diffusion": _fam_diffusion,
    "selective_scan": _fam_scan,
    "vim_block": _fam_vim_block,
    "pmd_block": _fam_pmd_block,
}

FAST_FAMILIES = ("elementwise", "matmul", "conv2d", "norm",
                 "softmax_cross_entropy", "dwt_diffusion", "selective_scan")


def check_model_micro(seed: int) -> float:
    """Worst fd error over a per-tensor subsample of full-model parameters.

    Builds the micro segmentation model on a 32x32 input and probes one
    randomly chosen element of every parameter tensor (the element varies
    with the seed, so repeated seeds spread coverage within tensors while
    each run still touches every weight matrix, gain and bias). The
    in-network diffusion gate is held constant in the backward pass, so
    the center-point pass runs under a recording ``GateTrace`` and every
    probe under one that replays its gates; probing the re-derived gate
    would differentiate a different function than the tape does.

    Probes run through a 64-bit copy of the weights: unlike the per-op suite,
    whose probe closures rebuild their inputs under the 64-bit context, the
    model holds its arrays in the ambient dtype, and in 32-bit mode those
    would drag the probe forward back down to 32-bit.

    The step and floor differ from the per-op suite. Stem weights sit under
    the full depth of the network, and the objective's curvature along them
    is orders of magnitude larger than along any single op's inputs (measured
    third derivatives near 1e9, driven by normalization channels whose batch
    variance lands near the normalizer's eps). A 1e-5 step leaves pure
    truncation error of several percent on stem elements, shrinking as h^2;
    h=1e-7 brings it to ~1e-5 of the worst gradients while quotient roundoff,
    with the probe forward entirely in 64-bit, stays two orders below that.
    The floor is 100x the per-op one because a twenty-layer composite cannot
    resolve entries four orders below the loss scale at any step size;
    entries above the floor still face the full relative tolerance.
    """
    from .model import MICRO_PLAN, LossWeights, PMamba, total_loss
    from .pmd import GateTrace

    rng = np.random.default_rng(seed)
    model = PMamba(np.random.default_rng(int(rng.integers(1 << 31))),
                   MICRO_PLAN, size=32)
    lw = LossWeights()

    # The maps at 1/32 scale are 1x1, so batch entries are all the
    # normalization statistics have: a batch of eight keeps their variance
    # clear of the normalizer's eps, which directly sets the 1/sqrt(var+eps)
    # factor that amplifies a 32-bit tape's elementwise rounding (batches of
    # four were measured to leave some deep channel near 3e-5 and push worst
    # 32-bit elements past the tolerance). Beyond that, finite differences
    # only resolve gradients at a well-conditioned point. Two hazards are
    # screened for over candidate input draws (deterministic in the seed;
    # best draw kept), reading each norm and relu input off the records of
    # one taped forward:
    #   * a norm channel whose batch variance lands near the normalizer's
    #     eps has curvature ~1/eps^1.5 and defeats any step size;
    #   * a relu pre-activation within ~1e-6 of zero can flip its active set
    #     between the ambient-precision tape pass and the 64-bit probes,
    #     charging that unit's whole downstream contribution to the error.
    def conditioning(xc) -> float:
        """min(worst norm variance / 3e-5, worst relu margin / 1e-4).

        The variance scale is what a handful of 1x1 batch entries can
        actually reach at the deepest norm layers; the best draw is kept
        even when no draw clears both scales.
        """
        variances: list[float] = []
        margins: list[float] = []
        with Tape() as tape:
            total_loss(model(Tensor(xc)), target, lw)
        for inputs, _, backward_fn in tape:
            op = backward_fn.__qualname__.split(".")[0]
            a = inputs[0].data
            if op == "norm_affine":
                variances.append(float(a.var(axis=(0, 2, 3)).min()))
            elif op == "relu":
                margins.append(float(np.abs(a).min()))
        return min(min(variances) / 3e-5, min(margins) / 1e-4)

    target = rng.integers(0, 2, (8, 32, 32))
    best_x, best_score = None, -1.0
    for _ in range(32):
        cand = rng.uniform(0.0, 1.0, (8, 1, 32, 32))
        score = conditioning(cand)
        if score > best_score:
            best_x, best_score = cand, score
        if best_score >= 1.0:
            break
    x = best_x

    xt = Tensor(x)
    with GateTrace() as trace:
        loss, _ = total_loss(model(xt), target, lw)
    grads = backward(trace, loss)
    floor = 100.0 * noise_floor_coeff() * max(1.0, abs(float(loss.item())))

    def objective() -> float:
        with GateTrace(replay=trace.gates):
            val, _ = total_loss(model(xt), target, lw)
        return float(val.item())

    params = [p for _, p in model.named_parameters()]
    picks = [(ti, int(rng.integers(p.data.size))) for ti, p in enumerate(params)]

    h = 1e-7
    worst = 0.0
    with precision.use("f64"):
        # Probe through a 64-bit copy of the weights and input. Ops follow
        # operand dtype, so probing through the stored 32-bit arrays would
        # keep the early layers of the probe forward in 32-bit and bury the
        # quotient under eps32*|loss|/h noise at this step size. Upcasting
        # is exact: the probes still evaluate the same function at the same
        # point, just without artificial rounding.
        stash = [p.data for p in params]
        x_stash = xt.data
        for p in params:
            p.data = p.data.astype(np.float64)
        xt.data = xt.data.astype(np.float64)
        try:
            for ti, j in picks:
                flat = params[ti].data.reshape(-1)
                keep = flat[j]
                flat[j] = keep + h
                fp = objective()
                flat[j] = keep - h
                fm = objective()
                flat[j] = keep
                fd = (fp - fm) / (2.0 * h)
                an = float(grad_of(grads, params[ti]).reshape(-1)[j])
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), floor))
        finally:
            for p, d in zip(params, stash):
                p.data = d
            xt.data = x_stash
    return worst


def run_gradient_suite(families=None, seeds=(0, 1, 2, 3, 4)) -> list:
    """Max relative error per op family over the given seeds."""
    names = list(families) if families else list(FAMILIES)
    results = []
    for name in names:
        fn = FAMILIES[name]
        worst = 0.0
        for seed in seeds:
            worst = max(worst, fn(np.random.default_rng(seed)))
        results.append((name, worst))
    return results
