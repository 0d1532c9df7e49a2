"""Finite-difference verification of tape gradients.

Tape gradients are computed under the ambient precision mode. Every
reference comes from ``central_diff``: it rebinds each probed leaf's
``.data`` to a 64-bit copy, perturbs the picked elements of those copies in
place and evaluates the objective in 64-bit, so the difference quotient
carries roundoff ~eps64*|loss|/h instead of the ~1e-4 a 32-bit forward would
inject. The copies hold the ambient-precision values exactly, so the probes
run at the tape's own point. What the comparison then measures is the
correctness of the backward formulas plus the 32-bit tape's own rounding,
which is what the 1e-3 (32-bit) / 1e-6 (64-bit) tolerances are for.

The op families use a step of h=1e-5 in both modes. Large enough that a
relu pre-activation a few 1e-4 from zero is not straddled by the probe pair,
small enough that quotient roundoff stays ~1e-10 per unit of loss magnitude.
The micro model uses h=1e-7 (see ``check_model_micro``).

There are two comparison rules, both relative to a noise floor that scales
with the loss magnitude (the quotient's absolute resolution is set by
eps64*|loss|/h, so gradient entries many orders below the loss scale are
unresolvable by any finite difference):

* the op families use ``max_rel_err``, |a-b| / max(|a|,|b|) over the entries
  where either magnitude reaches the floor; entries below it are skipped;
* ``check_model_micro`` uses |a-b| / max(|a|,|b|,floor) on every probed
  entry, so an entry below the floor still counts, scaled by the floor.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import precision
from . import tensor as T
from .model import MICRO_PLAN, PMamba, total_loss
from .pmd import GateTrace, PmdBlock, pmd_apply
from .ssm import VimBlockWeights, scan_core, vim_block
from .tensor import Tape, Tensor, backward, grad_of, record_name


def fd_step() -> float:
    return 1e-5


def noise_floor_coeff() -> float:
    """Floor per unit of loss magnitude; looser in 32-bit where the tape
    itself perturbs small gradient entries by ~eps32 * intermediate scale."""
    return 1e-4 if precision.is_double() else 1e-3


def tolerance() -> float:
    return 1e-6 if precision.is_double() else 1e-3


def central_diff(objective: Callable[[], float], leaves: Sequence[Tensor],
                 picks: Sequence[Sequence[int]], h: float) -> list[np.ndarray]:
    """Central differences of ``objective()`` at the picked flat elements of
    each leaf: one 64-bit array per leaf, aligned with its picks.

    Every leaf's ``.data`` is rebound to a 64-bit copy for the duration, so
    the objective runs in 64-bit at the same point; the picked elements of
    the copies are perturbed in place, and the original arrays are rebound
    in a ``finally``.
    """
    originals = [t.data for t in leaves]
    fds = []
    try:
        with precision.use("f64"):
            for t in leaves:
                t.data = np.array(t.data, dtype=np.float64, order="C")
            for t, idx in zip(leaves, picks):
                flat = t.data.reshape(-1)
                fd = np.empty(len(idx))
                for n, j in enumerate(idx):
                    keep = flat[j]
                    flat[j] = keep + h
                    fp = objective()
                    flat[j] = keep - h
                    fm = objective()
                    flat[j] = keep
                    fd[n] = (fp - fm) / (2.0 * h)
                fds.append(fd)
    finally:
        for t, data in zip(leaves, originals):
            t.data = data
    return fds


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Largest elementwise relative error, ignoring jointly-tiny entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mag = np.maximum(np.abs(a), np.abs(b))
    mask = mag >= floor
    if not mask.any():
        return 0.0
    return float((np.abs(a - b)[mask] / mag[mask]).max())


def _check_leaves(loss_fn: Callable[[], Tensor], leaves: Sequence[Tensor]) -> float:
    """Worst ``max_rel_err`` of the tape gradients of ``loss_fn()`` against
    central differences over every element of every leaf, with the noise
    floor scaled by the loss magnitude."""
    with Tape() as tape:
        loss = loss_fn()
    grads = backward(tape, loss)
    analytic = [grad_of(grads, t).reshape(-1) for t in leaves]
    floor = noise_floor_coeff() * max(1.0, abs(loss.item()))
    fds = central_diff(lambda: loss_fn().item(), leaves,
                       [range(t.size) for t in leaves], fd_step())
    return max(max_rel_err(a, fd, floor) for a, fd in zip(analytic, fds))


def check_scalar_fn(f: Callable[[Sequence[Tensor]], Tensor],
                    xs: Sequence[np.ndarray]) -> float:
    """Worst relative error of tape gradients of ``f`` vs central differences.

    ``f`` maps a list of Tensors, built from ``xs`` under the ambient
    precision, to a scalar Tensor.
    """
    leaves = [Tensor(x) for x in xs]
    return _check_leaves(lambda: f(leaves), leaves)


# ---------------------------------------------------------------------------
# Operation-family suite (tests and CLI `gradcheck`)
# ---------------------------------------------------------------------------

def _signed(rng, shape):
    """Magnitudes in [0.5, 1.5] with random sign: keeps gradients away from 0."""
    return (rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape))


def _weighted_sum(out, r):
    return T.tsum(T.mul_const(out, r))


def _fam_elementwise(rng):
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


def _fam_linear(rng):
    # a 3-D input, so the flattening of the leading axes is probed
    x = _signed(rng, (2, 3, 4))
    w = _signed(rng, (4, 2))
    b = _signed(rng, (2,))
    r = rng.uniform(0.5, 1.5, (2, 3, 2))

    def f(ts):
        return _weighted_sum(T.linear(*ts), r)

    return max(check_scalar_fn(f, [x, w]), check_scalar_fn(f, [x, w, b]))


def _fam_conv2d(rng):
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
    x = _signed(rng, (2, 6, 3))
    w = _signed(rng, (3, 3))
    b = _signed(rng, (3,))
    r = rng.uniform(0.5, 1.5, (2, 6, 3))
    return check_scalar_fn(
        lambda ts: _weighted_sum(T.depthwise_conv1d(ts[0], ts[1], ts[2]), r), [x, w, b])


def _fam_norm(rng):
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
    # non-square and batched, so a swapped row/column matrix cannot pass
    worst = 0.0
    for factor in (2, 4):
        x = _signed(rng, (2, 2, 3, 5))
        r = rng.uniform(0.5, 1.5, (2, 2, 3 * factor, 5 * factor))
        worst = max(worst, check_scalar_fn(
            lambda ts: _weighted_sum(T.bilinear_upsample(ts[0], factor), r), [x]))
    return worst


def _fam_cross_entropy(rng):
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
    w = VimBlockWeights(np.random.default_rng(int(rng.integers(1 << 31))), d=4, s=2)
    x = Tensor(_signed(rng, (1, 6, 4)))
    r = rng.uniform(0.5, 1.5, x.shape)
    return _check_leaves(lambda: _weighted_sum(vim_block(x, w), r), [x, *w.parameters()])


def _fam_pmd_block(rng):
    """Parameter gradients of a diffusion-residual block.

    The block input is held fixed: its gradient is straight-through by design
    (the diffusion gate is frozen), while parameter gradients are exact since
    the gate depends only on the input.
    """
    blk = PmdBlock(np.random.default_rng(int(rng.integers(1 << 31))), 2, 3,
                   stride=1, preprocess="dwt")
    x = Tensor(_signed(rng, (1, 2, 6, 6)))
    r = rng.uniform(0.5, 1.5, (1, 3, 6, 6))
    return _check_leaves(lambda: _weighted_sum(blk(x), r), blk.parameters())


FAMILIES = {
    "elementwise": _fam_elementwise,
    "linear": _fam_linear,
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
    rng = np.random.default_rng(seed)
    model = PMamba(np.random.default_rng(int(rng.integers(1 << 31))),
                   MICRO_PLAN, size=32)

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
            total_loss(model(Tensor(xc)), target)
        for inputs, _, backward_fn in tape:
            op = record_name(backward_fn)
            a = inputs[0].data
            if op == "tensor.norm_affine":
                variances.append(float(a.var(axis=(0, 2, 3)).min()))
            elif op == "tensor.relu":
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
        loss, _ = total_loss(model(xt), target)
    grads = backward(trace, loss)
    floor = 100.0 * noise_floor_coeff() * max(1.0, abs(float(loss.item())))

    def objective() -> float:
        with GateTrace(replay=trace.gates):
            val, _ = total_loss(model(xt), target)
        return float(val.item())

    params = model.parameters()
    picks = [[int(rng.integers(p.size))] for p in params]
    # the input is a leaf with no picks, so central_diff upcasts it as well
    # and no layer of the probe forward runs in 32-bit
    fd = np.concatenate(central_diff(objective, params + [xt], picks + [[]], h=1e-7))
    an = np.array([grad_of(grads, p).reshape(-1)[j] for p, (j,) in zip(params, picks)],
                  dtype=np.float64)
    return float((np.abs(an - fd) / np.maximum(np.maximum(np.abs(an), np.abs(fd)), floor)).max())


def run_gradient_suite(seeds=(0, 1, 2, 3, 4)) -> list:
    """(name, max relative error over ``seeds``) for every op family in
    ``FAMILIES``, in registry order."""
    results = []
    for name, fn in FAMILIES.items():
        worst = 0.0
        for seed in seeds:
            worst = max(worst, fn(np.random.default_rng(seed)))
        results.append((name, worst))
    return results
