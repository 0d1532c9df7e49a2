"""Finite-difference verification of tape gradients, in float64.

The checker verifies the backward formulas, and those do not depend on the
dtype, so every leaf it probes is built in float64 with an explicit dtype:
the inputs of ``check_scalar_fn``, the ``vim_block`` and ``pmd_block``
weights, and the micro model and input of ``check_model_micro``. Every op
follows its inputs' dtype, so the tape, the loss and each probe forward run
in float64 too. Every reference comes from ``central_diff``, which perturbs
the picked elements of the leaves in place. The comparison then measures
the backward formulas, up to the quotient's truncation error and its
roundoff of ~eps64*|loss|/h, both well inside ``TOL``.

The op families use a step of h=1e-5: large enough that a relu
pre-activation a few 1e-4 from zero is not straddled by the probe pair, small
enough that quotient roundoff stays ~1e-10 per unit of loss magnitude. The
micro model uses h=1e-7 (see ``check_model_micro``).

There are two comparison rules, both relative to a noise floor of ``FLOOR``
per unit of loss magnitude (the quotient's absolute resolution is set by
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

from . import tensor as T
from .model import MICRO_PLAN, PMamba, PmdBlock, total_loss
from .pmd import pmd_apply
from .ssm import VimBlockWeights, scan_core, vim_block
from .tensor import Tape, Tensor, backward, grad_of


# largest relative error a check passes at, and the noise floor per unit of
# loss magnitude (module docstring)
TOL = 1e-6
FLOOR = 1e-4
# finite-difference step of the op families (module docstring)
FD_STEP = 1e-5


def central_diff(objective: Callable[[], float], leaves: Sequence[Tensor],
                 picks: Sequence[Sequence[int]], h: float) -> list[np.ndarray]:
    """Central differences of ``objective()`` at the picked flat elements of
    each float64 leaf: one array per leaf, aligned with its picks.

    Each picked element is perturbed in place in the leaf's own array and
    restored in a ``finally``, so an objective built on the leaves sees the
    probe and the leaves end as they began, even if the objective raises.
    """
    for t in leaves:
        if t.data.dtype != np.float64:
            raise TypeError(f"central_diff probes float64 leaves, got {t.data.dtype}")
    fds = []
    for t, idx in zip(leaves, picks):
        fd = np.empty(len(idx))
        for n, j in enumerate(idx):
            at = np.unravel_index(j, t.shape)
            keep = t.data[at]
            try:
                t.data[at] = keep + h
                fp = objective()
                t.data[at] = keep - h
                fm = objective()
            finally:
                t.data[at] = keep
            fd[n] = (fp - fm) / (2.0 * h)
        fds.append(fd)
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
    floor = FLOOR * max(1.0, abs(loss.item()))
    fds = central_diff(lambda: loss_fn().item(), leaves,
                       [range(t.size) for t in leaves], FD_STEP)
    return max(max_rel_err(a, fd, floor) for a, fd in zip(analytic, fds))


def check_scalar_fn(f: Callable[[Sequence[Tensor]], Tensor],
                    xs: Sequence[np.ndarray]) -> float:
    """Worst relative error of tape gradients of ``f`` vs central differences.

    ``f`` maps a list of Tensors, built from ``xs`` in float64, to a scalar
    Tensor.
    """
    leaves = [Tensor(x, np.float64) for x in xs]
    return _check_leaves(lambda: f(leaves), leaves)


# ---------------------------------------------------------------------------
# Operation-family suite (tests and CLI `gradcheck`)
# ---------------------------------------------------------------------------

def _signed(rng, shape):
    """Magnitudes in [0.5, 1.5] with random sign: keeps gradients away from 0."""
    return (rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape))


def _weighted_sum(out, r):
    return T.tsum(T.mul(out, T.Tensor(r, out.data.dtype)))


def _fam_elementwise(rng):
    # silu, softplus and exp run inside scan_core, whose family probes them
    x = _signed(rng, (3, 4))
    y = _signed(rng, (3, 4))
    r = rng.uniform(0.5, 1.5, (3, 4))

    def f(ts):
        a, b = ts
        return _weighted_sum(T.add(T.mul(T.relu(a), b), T.scale(a, 0.5)), r)

    return check_scalar_fn(f, [x, y])


def _fam_shape_movers(rng):
    """concat, reshape, transpose and add_bcast as the model chains them:
    the sobel plan's concat, ``PatchEmbed`` without its projection, and
    ``tokens_to_map``."""
    a = _signed(rng, (2, 1, 4, 6))
    b = _signed(rng, (2, 2, 4, 6))
    pos = _signed(rng, (6, 12))
    r = rng.uniform(0.5, 1.5, (2, 12, 2, 3))

    def f(ts):
        x = T.concat(ts[:2], axis=1)                          # [2,3,4,6]
        x = T.transpose(T.reshape(x, (2, 3, 2, 2, 3, 2)), (0, 2, 4, 1, 3, 5))
        x = T.add_bcast(T.reshape(x, (2, 6, 12)), ts[2])      # 6 patches of 2x2x3
        return _weighted_sum(T.reshape(T.transpose(x, (0, 2, 1)), (2, 12, 2, 3)), r)

    return check_scalar_fn(f, [a, b, pos])


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
    """Input gradient of the diffusion step, gate included, in both modes.

    k = 1.0 is the in-network value; k = 0.7 is probed too, since at k = 1 a
    dropped 1/k^2 in the gate's derivative would go unseen.
    """
    worst = 0.0
    for mode in ("attenuate", "as-written"):
        for k in (1.0, 0.7):
            x = _signed(rng, (2, 6, 6))
            r = rng.uniform(0.5, 1.5, x.shape)
            worst = max(worst, check_scalar_fn(
                lambda ts: _weighted_sum(pmd_apply(ts[0], k, mode), r), [x]))
    return worst


def _fam_scan_core(rng):
    """The Vim mixer's gradients: u_lin, z and every weight it reads, so
    the adjoints of its depthwise conv, SiLUs, softplus and exp as well.

    Bn > 1, so the batch sums of the weight gradients are probed. (The
    scans' passes over time are checked against an unchunked reference bit
    for bit in ``tests/test_ssm.py``.)
    """
    w = VimBlockWeights(np.random.default_rng(int(rng.integers(1 << 31))),
                        d=2, s=2).astype(np.float64)
    Bn, L, E = 2, 7, 2 * w.d
    u_lin = Tensor(_signed(rng, (Bn, L, E)), np.float64)
    z = Tensor(_signed(rng, (Bn, L, E)), np.float64)
    r = rng.uniform(0.5, 1.5, (Bn, L, E))
    weights = [w.conv_w, w.conv_b, *w.fwd.parameters(), *w.bwd.parameters()]
    return _check_leaves(lambda: _weighted_sum(scan_core(u_lin, z, w), r),
                         [u_lin, z, *weights])


def _fam_vim_block(rng):
    w = VimBlockWeights(np.random.default_rng(int(rng.integers(1 << 31))),
                        d=4, s=2).astype(np.float64)
    x = Tensor(_signed(rng, (1, 6, 4)), np.float64)
    r = rng.uniform(0.5, 1.5, x.shape)
    return _check_leaves(lambda: _weighted_sum(vim_block(x, w), r), [x, *w.parameters()])


def _fam_pmd_block(rng):
    """Input and parameter gradients of a diffusion-residual block."""
    blk = PmdBlock(np.random.default_rng(int(rng.integers(1 << 31))), 2, 3,
                   stride=1, preprocess="dwt").astype(np.float64)
    x = Tensor(_signed(rng, (1, 2, 6, 6)), np.float64)
    r = rng.uniform(0.5, 1.5, (1, 3, 6, 6))
    return _check_leaves(lambda: _weighted_sum(blk(x), r), [x, *blk.parameters()])


FAMILIES = {
    "elementwise": _fam_elementwise,
    "shape_movers": _fam_shape_movers,
    "linear": _fam_linear,
    "conv2d": _fam_conv2d,
    "norm": _fam_norm,
    "bilinear_upsample": _fam_upsample,
    "softmax_cross_entropy": _fam_cross_entropy,
    "dwt_diffusion": _fam_diffusion,
    "scan_core": _fam_scan_core,
    "vim_block": _fam_vim_block,
    "pmd_block": _fam_pmd_block,
}


def check_model_micro(seed: int) -> float:
    """Worst fd error over a per-tensor subsample of full-model parameters.

    Builds the micro segmentation model in float64 on a 32x32 input and
    probes one randomly chosen element of every parameter tensor (the element
    varies with the seed, so repeated seeds spread coverage within tensors
    while each run still touches every weight matrix, gain and bias). The
    probes evaluate the training loss itself, diffusion gates included.

    The step and floor differ from the per-op suite. Stem weights sit under
    the full depth of the network, and the objective's curvature along them
    is orders of magnitude larger than along any single op's inputs (measured
    third derivatives near 1e9, driven by normalization channels whose batch
    variance lands near the normalizer's eps). A 1e-5 step leaves pure
    truncation error of several percent on stem elements, shrinking as h^2;
    h=1e-7 brings it to ~1e-5 of the worst gradients while quotient roundoff
    stays two orders below that. The floor is 100x the per-op one because a
    twenty-layer composite cannot resolve entries four orders below the loss
    scale at any step size; entries above the floor still face the full
    relative tolerance.
    """
    rng = np.random.default_rng(seed)
    model = PMamba(np.random.default_rng(int(rng.integers(1 << 31))),
                   MICRO_PLAN, size=32).astype(np.float64)

    # The maps at 1/32 scale are 1x1, so the batch entries are all that the
    # normalization's batch statistics see. A norm channel whose batch
    # variance lands near the normalizer's eps has curvature ~1/eps^1.5,
    # which defeats any step size; eight entries keep the variance clear of
    # it. On the first draw, batch 8 reads at most 3e-7 on seeds 0-14 and
    # batch 2 up to 2.1e-5 on seeds 0-4. A per-sample norm (ROADMAP.md item
    # 2) is the change that lets this batch shrink.
    target = rng.integers(0, 2, (8, 32, 32))
    xt = Tensor(rng.uniform(0.0, 1.0, (8, 1, 32, 32)), np.float64)
    with Tape() as tape:
        loss, _ = total_loss(model(xt), target)
    grads = backward(tape, loss)
    floor = 100.0 * FLOOR * max(1.0, abs(float(loss.item())))

    def objective() -> float:
        return float(total_loss(model(xt), target)[0].item())

    params = model.parameters()
    picks = [[int(rng.integers(p.size))] for p in params]
    fd = np.concatenate(central_diff(objective, params, picks, h=1e-7))
    an = np.array([grad_of(grads, p).reshape(-1)[j] for p, (j,) in zip(params, picks)])
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
