"""Dual-branch segmentation model at desk scale.

Two four-stage encoders read the same image: a convolutional branch whose
residual blocks run a wavelet diffusion step ahead of their convolutions, and
a token-mixing branch of patch embeddings and residual Vim blocks. Stage
outputs at scales 1/4..1/32 are fused by elementwise sum and decoded twice:
a multi-scale top-down head produces the primary logits, a single-scale
fully-convolutional head the first auxiliary. Each branch additionally gets
its own single-scale auxiliary head, for a four-term cross-entropy loss.

Positional embeddings tie a built model to one input extent; the default toy
configuration uses 64x64 images.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, DimensionError, DivergenceError
from .pmd import PmdBlock
from .ssm import PatchEmbed, VimBlockWeights, tokens_to_map, vim_block


# The architecture of every model built here. Only the stage widths and the
# PMD branch's preprocessing vary, through StagePlan.
IN_CHANNELS = 1
NUM_CLASSES = 2
PMD_BLOCKS = (3, 4, 6, 3)
VIM_BLOCKS = (2, 2, 2, 2)
PATCH_SIZES = (4, 2, 2, 2)
TOTAL_STRIDE = math.prod(PATCH_SIZES)
STATE_DIM = 8
HEAD_WIDTH = 32
# cross-entropy weight of each head's output in total_loss, in tape order
LOSS_WEIGHTS = {"prim": 1.0, "fcn": 0.4, "pmd": 0.4, "vim": 0.4}


@dataclass(frozen=True)
class StagePlan:
    widths: tuple = (16, 32, 64, 128)
    preprocess: str = "dwt"

    def __post_init__(self):
        if len(self.widths) != 4:
            raise ConfigError("StagePlan requires exactly four stages")
        if any(b >= a for a, b in zip(self.widths[1:], self.widths)):
            raise ConfigError(f"widths must be strictly increasing, got {self.widths}")


MICRO_PLAN = StagePlan(widths=(4, 8, 16, 32))


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------

class _ConvNormRelu(T.Module):
    """3x3 convolution with padding 1, then norm and relu."""

    def __init__(self, rng, c_in, c_out, stride=1):
        self.stride = stride
        self.w = T.uniform_param(rng, (c_out, c_in, 3, 3), c_in * 9)
        self.g = T.Parameter(np.ones(c_out))
        self.b = T.zeros_param((c_out,))

    def __call__(self, x):
        return T.relu(T.norm_affine(T.conv2d(x, self.w, self.stride, 1),
                                    self.g, self.b))


class PmdBranch(T.Module):
    """Stem to 1/4 scale, then four stages of diffusion-residual blocks."""

    def __init__(self, rng: np.random.Generator, plan: StagePlan):
        c1 = plan.widths[0]
        self.stem1 = _ConvNormRelu(rng, IN_CHANNELS, c1, stride=2)
        self.stem2 = _ConvNormRelu(rng, c1, c1, stride=2)
        self.stages = []
        c_prev = c1
        for i, (c, depth) in enumerate(zip(plan.widths, PMD_BLOCKS)):
            blocks = []
            for j in range(depth):
                stride = 2 if (i > 0 and j == 0) else 1
                blocks.append(PmdBlock(rng, c_prev if j == 0 else c, c,
                                       stride=stride, preprocess=plan.preprocess))
            self.stages.append(blocks)
            c_prev = c

    def __call__(self, x: T.Tensor) -> list:
        cur = self.stem2(self.stem1(x))
        feats = []
        for blocks in self.stages:
            for blk in blocks:
                cur = blk(cur)
            feats.append(cur)
        return feats


class VimBranch(T.Module):
    """Per stage: patch embedding, two residual Vim blocks, back to a map."""

    def __init__(self, rng: np.random.Generator, plan: StagePlan, size: int):
        if size % TOTAL_STRIDE:
            raise DimensionError(f"input extent {size} not divisible by {TOTAL_STRIDE}")
        self.embeds = []
        self.blocks = []
        self.grids = []
        c_prev = IN_CHANNELS
        extent = size
        for c, n, depth in zip(plan.widths, PATCH_SIZES, VIM_BLOCKS):
            extent //= n
            grid = (extent, extent)
            self.embeds.append(PatchEmbed(rng, n, c_prev, c, grid))
            self.blocks.append([VimBlockWeights(rng, c, STATE_DIM)
                                for _ in range(depth)])
            self.grids.append(grid)
            c_prev = c

    def __call__(self, x: T.Tensor) -> list:
        feats = []
        cur = x
        for embed, blocks, grid in zip(self.embeds, self.blocks, self.grids):
            tokens = embed(cur)
            for blk in blocks:
                tokens = vim_block(tokens, blk)
            cur = tokens_to_map(tokens, grid)
            feats.append(cur)
        return feats


def fuse(a: list, b: list) -> list:
    """Elementwise sum of two four-scale feature lists."""
    if len(a) != len(b):
        raise DimensionError(f"fuse: {len(a)} vs {len(b)} scales")
    return [T.add(x, y) for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------

class SegHead(T.Module):
    """Top-down multi-scale decoder to full-resolution class logits."""

    def __init__(self, rng: np.random.Generator, widths):
        mid = HEAD_WIDTH
        self.laterals = [T.uniform_param(rng, (mid, c, 1, 1), c) for c in widths]
        self.smooth = T.uniform_param(rng, (mid, mid, 3, 3), mid * 9)
        self.classify = T.uniform_param(rng, (NUM_CLASSES, mid, 1, 1), mid)

    def __call__(self, feats: list) -> T.Tensor:
        t = T.conv2d(feats[-1], self.laterals[-1], 1, 0)
        for f, lat in zip(feats[-2::-1], self.laterals[-2::-1]):
            t = T.add(T.bilinear_upsample(t, 2), T.conv2d(f, lat, 1, 0))
        tops = T.conv2d(t, self.smooth, 1, 1)
        full = T.bilinear_upsample(tops, 4)
        return T.conv2d(full, self.classify, 1, 0)


class FCNHead(T.Module):
    """Decoder of the 1/32 map: conv-norm-relu, classifier, upsample to input."""

    def __init__(self, rng: np.random.Generator, c_in: int):
        self.body = _ConvNormRelu(rng, c_in, HEAD_WIDTH)
        self.classify = T.uniform_param(rng, (NUM_CLASSES, HEAD_WIDTH, 1, 1), HEAD_WIDTH)

    def __call__(self, f: T.Tensor) -> T.Tensor:
        return T.bilinear_upsample(T.conv2d(self.body(f), self.classify, 1, 0),
                                   TOTAL_STRIDE)


class PMamba(T.Module):
    """The full dual-branch model bound to one input extent."""

    def __init__(self, rng: np.random.Generator, plan: StagePlan = StagePlan(),
                 size: int = 64):
        self.plan = plan
        self.size = size
        self.pmd_branch = PmdBranch(rng, plan)
        self.vim_branch = VimBranch(rng, plan, size)
        self.seg_head = SegHead(rng, plan.widths)
        self.fcn_head = FCNHead(rng, plan.widths[-1])
        self.aux_pmd = FCNHead(rng, plan.widths[-1])
        self.aux_vim = FCNHead(rng, plan.widths[-1])

    def encode(self, x: T.Tensor) -> tuple:
        """Both encoders and their fusion: (feats_p, feats_v, fused), each a
        four-scale feature list; the heads read from these."""
        feats_p = self.pmd_branch(x)
        feats_v = self.vim_branch(x)
        return feats_p, feats_v, fuse(feats_p, feats_v)

    def __call__(self, x: T.Tensor) -> dict:
        feats_p, feats_v, fused = self.encode(x)
        return {
            "prim": self.seg_head(fused),
            "fcn": self.fcn_head(fused[-1]),
            "pmd": self.aux_pmd(feats_p[-1]),
            "vim": self.aux_vim(feats_v[-1]),
        }


# ---------------------------------------------------------------------------
# Loss and metrics
# ---------------------------------------------------------------------------

def total_loss(outputs: dict, target: np.ndarray) -> tuple:
    """Four-term cross-entropy weighted by LOSS_WEIGHTS; returns (total,
    per-term floats)."""
    terms = {}
    weighted = []
    for name, w in LOSS_WEIGHTS.items():
        ce = T.softmax_cross_entropy(outputs[name], target)
        terms[name] = ce.item()
        weighted.append(T.scale(ce, w))
    return functools.reduce(T.add, weighted), terms


def mask_metrics(pred: np.ndarray, true: np.ndarray) -> tuple:
    """(precision, recall, dice) for binary masks.

    Both masks empty counts as perfect agreement (all 1); with exactly one
    empty, dice is 0 and the undefined ratio is reported as 0.
    """
    pred = np.asarray(pred).astype(bool)
    true = np.asarray(true).astype(bool)
    if pred.shape != true.shape:
        raise DimensionError(f"mask shapes differ: {pred.shape} vs {true.shape}")
    tp = int(np.sum(pred & true))
    fp = int(np.sum(pred & ~true))
    fn = int(np.sum(~pred & true))
    if tp + fp + fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    dice = 2 * tp / (2 * tp + fp + fn)
    return precision, recall, dice


def predict(model: PMamba, images: np.ndarray) -> np.ndarray:
    """Argmax masks from the primary head; images [B,1,H,W] -> [B,H,W].

    Runs only the encoders and the primary head (``seg_head``); the three
    auxiliary heads feed the training loss alone, so they are skipped. The
    masks equal the argmax of ``model(x)["prim"]`` bit for bit.

    Raises DivergenceError, naming the first op whose output went
    non-finite, when any logit is non-finite: the argmax of NaN logits is
    class 0 everywhere and would pass for a prediction.
    """
    def logits():
        return model.seg_head(model.encode(T.Tensor(images))[2])

    # overflow is reported below, by the op that caused it
    with np.errstate(all="ignore"):
        out = logits().data
    if not np.isfinite(out).all():
        raise DivergenceError(f"non-finite logits in predict: {_first_non_finite(logits)}")
    return np.argmax(out, axis=1)


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

# wall_s is the epoch's wall time (training and validation); grad_norm is
# the largest global L2 norm of the parameter gradients over its batches
LOG_HEADER = ("epoch,loss_prim,loss_fcn,loss_pmd,loss_vim,val_precision,val_recall,"
              "val_dice,wall_s,grad_norm")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    # 0.1 with momentum 0.9 overflows the conv activations within the first
    # epochs on the synthetic task. 0.05 is not reliably stable either: at
    # batch 8 on 64x64 synthetic data it went non-finite within 37 steps on
    # seeds 1, 5 and 6 of seeds 0-6, and at batch 2 on 128x128 by step 32.
    # The benchmark trains at 0.025 (batch 8) and 0.0125 (batch 2); lower
    # the rate when train_toy raises DivergenceError.
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    size: int = 64
    plan: StagePlan = field(default_factory=StagePlan)
    log_path: str | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")


def _stack(samples) -> tuple:
    images = np.stack([np.asarray(s.image, dtype=np.float64) for s in samples])
    masks = np.stack([np.asarray(s.mask, dtype=np.int64) for s in samples])
    return images, masks


def _grad_norm(params, grads: dict) -> float:
    """Global L2 norm of the parameters' gradients, accumulated in f64."""
    sq = 0.0
    for p in params:
        g = grads.get(p)
        if g is not None:
            g = g.astype(np.float64).ravel()
            sq += float(g @ g)
    return float(np.sqrt(sq))


def _first_non_finite(forward) -> str:
    """Replay ``forward()`` under ``T.FiniteCheck`` with the current weights;
    its DivergenceError message names the first non-finite op."""
    try:
        with np.errstate(all="ignore"), T.FiniteCheck():
            forward()
    except DivergenceError as err:
        return str(err)
    return "the checked replay stayed finite"


def train_toy(train_samples, val_samples, cfg: TrainConfig = TrainConfig()) -> tuple:
    """Momentum-SGD training; returns (model, history rows as dicts).

    Fully determined by cfg.seed: initialization, shuffles and therefore the
    whole trajectory, so every history column but wall_s repeats. Writes the
    metric log incrementally when cfg.log_path is set (header LOG_HEADER).
    Raises DivergenceError, naming the epoch, the batch and the first op
    whose output went non-finite, as soon as a batch loss is non-finite,
    before any update from it. A validation forward that goes non-finite
    raises it from ``predict``.
    """
    if not train_samples:
        raise DataError("empty training set")
    rng = np.random.default_rng(cfg.seed)
    model = PMamba(rng, cfg.plan, cfg.size)
    opt = T.Momentum(model.parameters(), cfg.lr, cfg.momentum)
    images, masks = _stack(train_samples)
    n = len(train_samples)
    log_fh = open(cfg.log_path, "w") if cfg.log_path else None
    if log_fh:
        log_fh.write(LOG_HEADER + "\n")
    history = []
    try:
        for epoch in range(cfg.epochs):
            start_s = time.perf_counter()
            order = rng.permutation(n)
            sums = dict.fromkeys(LOSS_WEIGHTS, 0.0)
            batches = 0
            grad_norm = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]

                def batch_loss():
                    return total_loss(model(T.Tensor(images[idx])), masks[idx])

                # overflow is reported below, by the op that caused it,
                # instead of as numpy warnings from wherever it surfaced
                with np.errstate(all="ignore"), T.Tape() as tape:
                    loss, parts = batch_loss()
                # a step on a non-finite loss would turn the weights into
                # NaN without any error
                if not np.isfinite(loss.item()):
                    cause = _first_non_finite(batch_loss)
                    raise DivergenceError(
                        f"non-finite loss {loss.item()} at epoch {epoch}, batch "
                        f"{batches}: {cause}; lower the learning rate (lr {cfg.lr})")
                grads = T.backward(tape, loss)
                grad_norm = max(grad_norm, _grad_norm(opt.params, grads))
                opt.step(grads)
                for key in sums:
                    sums[key] += parts[key]
                batches += 1
            row = {"epoch": epoch}
            for key in sums:
                row[f"loss_{key}"] = sums[key] / batches
            if val_samples:
                _, means = evaluate(model, val_samples, cfg.batch_size)
                row.update(val_precision=means["precision"],
                           val_recall=means["recall"], val_dice=means["dice"])
            else:
                row.update(val_precision=float("nan"), val_recall=float("nan"),
                           val_dice=float("nan"))
            row.update(wall_s=time.perf_counter() - start_s, grad_norm=grad_norm)
            history.append(row)
            if log_fh:
                log_fh.write(",".join(format(row[col], ".6f") if col != "epoch"
                                      else str(row[col])
                                      for col in LOG_HEADER.split(",")) + "\n")
                log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    return model, history


def evaluate(model: PMamba, samples, batch_size: int = 8) -> tuple:
    """Per-sample (id, precision, recall, dice) rows plus their means."""
    if not samples:
        raise DataError("empty evaluation set")
    images, masks = _stack(samples)
    rows = []
    for start in range(0, len(samples), batch_size):
        pred = predict(model, images[start:start + batch_size])
        for j, sample in enumerate(samples[start:start + batch_size]):
            p, r, d = mask_metrics(pred[j], masks[start + j])
            rows.append((sample.id, p, r, d))
    means = {
        "precision": float(np.mean([r[1] for r in rows])),
        "recall": float(np.mean([r[2] for r in rows])),
        "dice": float(np.mean([r[3] for r in rows])),
    }
    return rows, means


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

VARIANTS = {"full": "dwt", "no-pmd": "none", "sobel": "sobel"}


@dataclass(frozen=True)
class AblateConfig:
    variants: tuple = ("full", "no-pmd", "sobel")
    seeds: tuple = (0, 1, 2, 3, 4)
    count: int = 120
    noise_sigma: float = 0.5
    epochs: int = 8
    lr: float = 0.05
    size: int = 64
    batch_size: int = 8


def ablate(cfg: AblateConfig = AblateConfig()) -> dict:
    """Train every variant under identical data/seed/budget per seed.

    Returns {"runs": [(variant, seed, precision, recall, dice)],
    "summary": [(variant, mean_precision, mean_recall, mean_dice)]}.
    """
    from .data import SynthConfig, split, synth_generate

    for v in cfg.variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}; valid: {sorted(VARIANTS)}")
    runs = []
    for seed in cfg.seeds:
        data_cfg = SynthConfig(seed=seed, count=cfg.count, size=cfg.size,
                               noise_sigma=cfg.noise_sigma)
        train_set, val_set, _ = split(synth_generate(data_cfg), seed=seed)
        for variant in cfg.variants:
            plan = StagePlan(preprocess=VARIANTS[variant])
            tcfg = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                               lr=cfg.lr, seed=seed, size=cfg.size, plan=plan)
            model, _ = train_toy(train_set, val_set, tcfg)
            _, means = evaluate(model, val_set, cfg.batch_size)
            runs.append((variant, seed, means["precision"], means["recall"],
                         means["dice"]))
    summary = []
    for variant in cfg.variants:
        rows = [r for r in runs if r[0] == variant]
        summary.append((variant,
                        float(np.mean([r[2] for r in rows])),
                        float(np.mean([r[3] for r in rows])),
                        float(np.mean([r[4] for r in rows]))))
    return {"runs": runs, "summary": summary}


# ---------------------------------------------------------------------------
# Profiling (CLI `bench` model table)
# ---------------------------------------------------------------------------

def model_profile(model: PMamba) -> dict:
    """Parameter count, forward milliseconds, peak allocation estimate.

    ``forward_ms`` and ``peak_bytes`` measure ``predict`` on one image: the
    encoders and the primary head, without the three auxiliary heads, so the
    ``pmtk bench`` model CSV reports that inference path. ``forward_ms`` is
    the median of three timed calls after one warm-up; the median, because
    a single slow call on a busy host would dominate a mean.
    """
    x = np.zeros((1, IN_CHANNELS, model.size, model.size))
    predict(model, x)  # warm up
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        predict(model, x)
        times.append((time.perf_counter() - t0) * 1e3)
    tracemalloc.start()
    predict(model, x)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "params": model.parameter_count(),
        "forward_ms": float(np.median(times)),
        "peak_bytes": int(peak),
    }
