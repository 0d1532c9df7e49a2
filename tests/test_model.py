"""Model assembly, loss/metric contracts, and a tiny end-to-end fit."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmtk
from pmtk import tensor as T
from pmtk.data import Sample, SynthConfig, split, synth_generate
from pmtk.errors import ConfigError, DimensionError, DivergenceError
from pmtk.model import (
    BLOCK_K,
    LOSS_WEIGHTS,
    MICRO_PLAN,
    PATCH_SIZES,
    TOTAL_STRIDE,
    AblateConfig,
    PMamba,
    PmdBlock,
    SegHead,
    StagePlan,
    TrainConfig,
    ablate,
    evaluate,
    mask_metrics,
    model_profile,
    predict,
    total_loss,
    train_toy,
    _grad_norm,
)
from pmtk.pmd import pmd_apply
from pmtk.serialize import load_checkpoint, restore_into, save_checkpoint

from dtypes import DTYPES


def micro_model(seed=0, size=32):
    return PMamba(np.random.default_rng(seed), MICRO_PLAN, size=size)


# ---------------------------------------------------------------------------
# Plan validation and assembly
# ---------------------------------------------------------------------------

def test_plan_validates_shape_of_itself():
    with pytest.raises(ConfigError):
        StagePlan(widths=(16, 32, 64))
    with pytest.raises(ConfigError):
        StagePlan(widths=(16, 16, 32, 64))


def test_total_stride():
    assert TOTAL_STRIDE == np.prod(PATCH_SIZES) == 32


def test_forward_output_heads_and_shapes():
    model = micro_model()
    x = T.Tensor(np.random.default_rng(1).standard_normal((2, 1, 32, 32)))
    out = model(x)
    assert set(out) == {"prim", "fcn", "pmd", "vim"}
    for head in out.values():
        assert head.shape == (2, 2, 32, 32)


def test_forward_deterministic_given_seed():
    x = np.random.default_rng(2).standard_normal((1, 1, 32, 32))
    a = micro_model(seed=7)(T.Tensor(x))["prim"].data
    b = micro_model(seed=7)(T.Tensor(x))["prim"].data
    np.testing.assert_array_equal(a, b)


def test_parameter_count_stable():
    # frozen once from the default plan; drift means an architecture change
    model = PMamba(np.random.default_rng(0), StagePlan(), size=64)
    assert model.parameter_count() == 2180656


# ---------------------------------------------------------------------------
# Residual block
# ---------------------------------------------------------------------------

def test_block_shapes_and_stride():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((2, 3, 16, 16)))
    same = PmdBlock(rng, 3, 3)
    down = PmdBlock(rng, 3, 8, stride=2)
    assert same(x).shape == (2, 3, 16, 16)
    assert down(x).shape == (2, 8, 8, 8)


@pytest.mark.parametrize("preprocess", ["dwt", "none", "sobel"])
def test_block_preprocess_variants_run(preprocess):
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((1, 2, 8, 8)))
    block = PmdBlock(rng, 2, 4, stride=2, preprocess=preprocess)
    assert block(x).shape == (1, 4, 4, 4)


def test_block_rejects_unknown_preprocess():
    with pytest.raises(ConfigError):
        PmdBlock(np.random.default_rng(0), 2, 2, preprocess="fft")


def test_block_is_relu_of_two_convs_plus_projected_skip():
    # h = diffusion(x); relu(norm(conv(relu(norm(conv(h))))) + norm(conv1x1(h)))
    rng = np.random.default_rng(2)
    blk = PmdBlock(rng, 3, 5, stride=2).astype(np.float64)
    x = T.Tensor(rng.standard_normal((2, 3, 8, 8)), np.float64)
    c1, c2, sk = blk.conv1, blk.conv2, blk.skip
    assert [name for name, _ in blk.named_parameters()] == [
        f"{unit}.{p}" for unit in ("conv1", "conv2", "skip") for p in "wgb"]
    assert sk.w.shape == (5, 3, 1, 1)
    h = pmd_apply(x, BLOCK_K, "attenuate")
    y = T.relu(T.norm_affine(T.conv2d(h, c1.w, 2, 1), c1.g, c1.b))
    y = T.norm_affine(T.conv2d(y, c2.w, 1, 1), c2.g, c2.b)
    skip = T.norm_affine(T.conv2d(h, sk.w, 2, 0), sk.g, sk.b)
    np.testing.assert_array_equal(blk(x).data, T.relu(T.add(y, skip)).data)


def test_block_of_unchanged_shape_adds_its_input():
    rng = np.random.default_rng(3)
    blk = PmdBlock(rng, 4, 4, preprocess="none").astype(np.float64)
    assert blk.skip is None
    x = T.Tensor(rng.standard_normal((2, 4, 6, 6)), np.float64)
    want = T.relu(T.add(blk.conv2(blk.conv1(x)), x)).data
    np.testing.assert_array_equal(blk(x).data, want)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_total_loss_weights_terms():
    model = micro_model()
    x = T.Tensor(np.random.default_rng(3).standard_normal((1, 1, 32, 32)))
    target = np.zeros((1, 32, 32), dtype=np.int64)
    out = model(x)
    total, parts = total_loss(out, target)
    expect = sum(w * parts[name] for name, w in LOSS_WEIGHTS.items())
    assert total.item() == pytest.approx(expect, rel=1e-6)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_mask_metrics_hand_case():
    pred = np.array([[1, 1], [0, 0]])
    true = np.array([[1, 0], [1, 0]])
    p, r, d = mask_metrics(pred, true)
    assert p == 0.5 and r == 0.5 and d == 0.5


def test_mask_metrics_edge_cases():
    empty = np.zeros((3, 3), dtype=int)
    ones = np.ones((3, 3), dtype=int)
    assert mask_metrics(empty, empty) == (1.0, 1.0, 1.0)
    assert mask_metrics(ones, empty) == (0.0, 0.0, 0.0)
    assert mask_metrics(empty, ones) == (0.0, 0.0, 0.0)
    with pytest.raises(DimensionError):
        mask_metrics(empty, np.zeros((2, 2), dtype=int))


@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
@settings(max_examples=50, deadline=None)
def test_mask_metrics_bounded_and_symmetric_dice(bits_a, bits_b):
    a = np.array([(bits_a >> i) & 1 for i in range(16)]).reshape(4, 4)
    b = np.array([(bits_b >> i) & 1 for i in range(16)]).reshape(4, 4)
    p1, r1, d1 = mask_metrics(a, b)
    p2, r2, d2 = mask_metrics(b, a)
    for v in (p1, r1, d1):
        assert 0.0 <= v <= 1.0
    assert d1 == pytest.approx(d2)     # dice is symmetric
    assert p1 == pytest.approx(r2)     # precision/recall swap roles
    if (a == b).all():
        assert d1 == 1.0


def test_predict_returns_label_maps():
    model = micro_model()
    masks = predict(model, np.zeros((2, 1, 32, 32)))
    assert masks.shape == (2, 32, 32)
    assert set(np.unique(masks)) <= {0, 1}


# at 96 the 1/32 maps are 3x3, which have no whole Haar blocks to diffuse
@pytest.mark.parametrize("plan, batch, size",
                         [(MICRO_PLAN, 3, 32), (StagePlan(), 1, 64), (MICRO_PLAN, 1, 96)],
                         ids=["micro-b3-32", "default-b1-64", "micro-b1-96"])
def test_predict_is_argmax_of_full_forward_primary_head(plan, batch, size):
    model = PMamba(np.random.default_rng(4), plan, size=size)
    x = np.random.default_rng(5).standard_normal((batch, 1, size, size))
    full = np.argmax(model(T.Tensor(x))["prim"].data, 1)
    masks = predict(model, x)
    assert masks.dtype == full.dtype
    np.testing.assert_array_equal(masks, full)


def test_predict_records_the_full_forward_without_the_auxiliary_heads():
    model = micro_model(seed=6)
    x = np.random.default_rng(7).standard_normal((2, 1, 32, 32))
    with T.Tape() as full:
        model(T.Tensor(x))
    feats_p, feats_v, fused = model.encode(T.Tensor(x))
    with T.Tape() as heads:
        model.fcn_head(fused[-1])
        model.aux_pmd(feats_p[-1])
        model.aux_vim(feats_v[-1])
    with T.Tape() as pred:
        predict(model, x)
    assert len(heads) > 0
    assert len(pred) == len(full) - len(heads)
    # the auxiliary heads run last in the full forward, so predict's records
    # are its leading ones
    names = [T.record_name(fn) for _, _, fn in full]
    assert [T.record_name(fn) for _, _, fn in pred] == names[:len(pred)]


# ---------------------------------------------------------------------------
# Training loop on a micro task
# ---------------------------------------------------------------------------

def tiny_dataset(n=8, size=32, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        mask = np.zeros((size, size), dtype=np.int64)
        c = rng.integers(10, size - 10, 2)
        yy, xx = np.mgrid[0:size, 0:size]
        mask[(yy - c[0]) ** 2 + (xx - c[1]) ** 2 <= 36] = 1
        image = 0.25 + 0.5 * mask + 0.05 * rng.standard_normal((size, size))
        samples.append(Sample(id=f"t{i:03d}", image=image[None], mask=mask))
    return samples


def test_train_toy_learns_separable_micro_task(tmp_path):
    samples = tiny_dataset(n=10)
    log = tmp_path / "log.csv"
    cfg = TrainConfig(epochs=8, batch_size=4, lr=0.02, seed=0, size=32,
                      plan=MICRO_PLAN, log_path=str(log))
    model, history = train_toy(samples[:8], samples[8:], cfg)
    assert len(history) == 8
    assert history[-1]["loss_prim"] < 0.5 * history[0]["loss_prim"]
    lines = log.read_text().strip().split("\n")
    assert lines[0].startswith("epoch,loss_prim")
    assert len(lines) == 9
    header = lines[0].split(",")
    assert header[-2:] == ["wall_s", "grad_norm"]
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        assert np.isfinite(row["wall_s"]) and row["wall_s"] > 0
        assert np.isfinite(row["grad_norm"]) and row["grad_norm"] > 0


def test_train_toy_deterministic():
    samples = tiny_dataset()
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=3, size=32,
                      plan=MICRO_PLAN)
    m1, h1 = train_toy(samples[:6], samples[6:], cfg)
    m2, h2 = train_toy(samples[:6], samples[6:], cfg)
    # wall time is the one column that is not a function of the seed
    assert [dict(r, wall_s=0.0) for r in h1] == [dict(r, wall_s=0.0) for r in h2]
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("batch_size", -3),
                                          ("epochs", -1)])
def test_train_config_rejects_bad_counts(field, value):
    with pytest.raises(ConfigError, match=field.replace("_", " ")):
        TrainConfig(**{field: value})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_toy_raises_on_divergence():
    # lr 1.0 drives the micro model's loss to NaN in the second epoch; the
    # error must name the step and the op that first went non-finite instead
    # of handing back NaN weights, and numpy must not warn on the way
    samples = synth_generate(SynthConfig(seed=0, count=8, size=32))
    cfg = TrainConfig(epochs=2, batch_size=4, lr=1.0, seed=0, size=32,
                      plan=MICRO_PLAN)
    with pytest.raises(DivergenceError, match=r"epoch 1, batch 1: \w+\.\w+ \(tape record \d+\)"):
        train_toy(samples, [], cfg)


def test_train_toy_raises_on_non_finite_gradient_of_finite_loss():
    # in f32 at lr 1.0, the step at epoch 1, batch 1 has a finite loss
    # (2.5e32) whose gradient overflows; the error must name the parameter
    # before the step writes NaN into the weights (without the check this
    # run returns NaN weights and raises nothing)
    samples = synth_generate(SynthConfig(seed=1, count=16, size=32))
    cfg = TrainConfig(epochs=2, batch_size=8, lr=1.0, seed=1, size=32,
                      plan=MICRO_PLAN)
    with pytest.raises(
            DivergenceError,
            match=r"non-finite gradient at epoch 1, batch 1: vim_branch\.embeds\.0\.W_proj "):
        train_toy(samples, [], cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_grad_norm_is_non_finite_when_any_gradient_is(mode, bad):
    # train_toy names the non-finite gradient only when the norm is
    # non-finite: one non-finite term must make the f64 sum of squares so,
    # among large finite terms (the largest f32 squares to 1.2e77)
    dtype = DTYPES[mode]
    params = [T.Parameter(np.zeros(6), dtype) for _ in range(3)]
    big = np.finfo(dtype).max if dtype == np.float32 else 1e150
    finite = {params[0]: np.full(6, big, dtype)}
    g = np.full(6, big, dtype)
    g[4] = bad
    assert math.isfinite(_grad_norm(params, finite))
    with np.errstate(all="ignore"):
        assert not math.isfinite(_grad_norm(params, {**finite, params[2]: g}))


class OutputDtypes(T.Tape):
    """A tape that collects the dtype of every record's output: a record
    keeps its output's key, not the array."""

    def __init__(self):
        super().__init__()
        self.dtypes = set()

    def record(self, inputs, output, backward_fn):
        self.dtypes.add(output.data.dtype)
        super().record(inputs, output, backward_fn)


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_dtype_follows_the_parameters(mode):
    # one training step and one predict: every tape record, gradient and
    # updated parameter has the parameters' dtype, although the images and
    # the step's constants are float64
    dtype = DTYPES[mode]
    model = micro_model().astype(dtype)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, (2, 1, 32, 32))
    target = rng.integers(0, 2, (2, 32, 32))
    opt = T.Momentum(model.parameters(), lr=0.025)
    with OutputDtypes() as tape:
        loss, _ = total_loss(model(T.Tensor(x, dtype)), target)
    # the sweep consumes the tape, so its length is read before it
    records = len(tape)
    grads = T.backward(tape, loss)
    opt.step(grads)
    with OutputDtypes() as predict_tape:
        predict(model, x)
    assert records > 0
    assert len(predict_tape) > 0
    for recorded in (tape, predict_tape):
        assert recorded.dtypes == {np.dtype(dtype)}
    assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(dtype)}


def test_training_step_tape_stays_under_15_mb():
    # The tape of a default-plan batch-8 64x64 f32 step, traced from just
    # before its forward: the leaves plus the arrays the closures read.
    # Records that held their input and output tensors kept 59.8 MB;
    # records that hold keys kept 47.0 MB. Norms and silu that keep only
    # their inputs and a seg_head that classifies before it upsamples kept
    # 38.1 MB. Scan records that keep no states (15.7 MB over 16 scans),
    # which the backward rebuilds, kept 22.4 MB. One record per Vim mixer,
    # keeping only u_lin and z, keeps 13.5 MB. tracemalloc counts numpy's
    # buffers exactly, so the figure repeats.
    rng = np.random.default_rng(8)
    model = PMamba(rng, StagePlan(), size=64)
    x = rng.uniform(0.0, 1.0, (8, 1, 64, 64))
    target = rng.integers(0, 2, (8, 64, 64))
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            total_loss(model(T.Tensor(x)), target)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape) > 0
    assert kept <= 15e6


def test_training_step_peak_stays_under_19_mb():
    # The same step, traced from just before its forward through its
    # backward. A sweep that kept every record until it returned peaked at
    # 52.3 MB, 12 MB above the forward's end; one that frees each record as
    # it runs peaked at 40.8 MB and leaves the tape empty. With scan records
    # that keep no states the step peaked at 25.1 MB. With one record per
    # Vim mixer the peak, 18.8 MB, is inside a stage-1 mixer's backward:
    # its scans hold one [L, Bn, S, E] buffer each, one after the other.
    rng = np.random.default_rng(8)
    model = PMamba(rng, StagePlan(), size=64)
    x = rng.uniform(0.0, 1.0, (8, 1, 64, 64))
    target = rng.integers(0, 2, (8, 64, 64))
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            loss, _ = total_loss(model(T.Tensor(x)), target)
        T.backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape) == 0
    assert peak <= 19e6


def test_train_toy_drops_each_steps_gradients_before_the_next_forward(monkeypatch):
    # the gradients of one step (a full parameter set) are dead once the
    # optimizer has used them; held through the next forward and backward,
    # they raised the traced peak of a three-step default-plan batch-8
    # 64x64 train_toy from 38.0 to 47.0 MB
    seen = []
    opt_step = T.Momentum.step

    def step(self, grads):
        seen.append([weakref.ref(g) for g in grads.values()])
        opt_step(self, grads)

    alive = []
    tape_enter = T.Tape.__enter__

    def enter(self):
        alive.append(sum(ref() is not None for refs in seen for ref in refs))
        return tape_enter(self)

    monkeypatch.setattr(T.Momentum, "step", step)
    monkeypatch.setattr(T.Tape, "__enter__", enter)
    samples = tiny_dataset(n=12)
    train_toy(samples, [], TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=0, size=32,
                                       plan=MICRO_PLAN))
    assert len(seen) == 3 and all(seen)
    assert alive == [0, 0, 0]


def test_seg_head_equals_classify_after_upsample_in_f64():
    # seg_head classifies at 1/4 scale, then upsamples; both maps are linear
    # and the classifier has no bias, so the order moves only rounding
    rng = np.random.default_rng(12)
    widths = StagePlan().widths
    head = SegHead(rng, widths).astype(np.float64)
    feats = [T.Tensor(rng.standard_normal((2, c, 16 >> i, 16 >> i)), np.float64)
             for i, c in enumerate(widths)]
    t = T.conv2d(feats[-1], head.laterals[-1], 1, 0)
    for f, lat in zip(feats[-2::-1], head.laterals[-2::-1]):
        t = T.add(T.bilinear_upsample(t, 2), T.conv2d(f, lat, 1, 0))
    full = T.bilinear_upsample(T.conv2d(t, head.smooth, 1, 1), 4)
    want = T.conv2d(full, head.classify, 1, 0).data
    got = head(feats).data
    assert got.shape == want.shape == (2, 2, 64, 64)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# one default-plan batch-8 64x64 f32 training step; prints the loss and a
# hash of each parameter's gradient
STEP_HASHES = """
import hashlib, json
import numpy as np
from pmtk import tensor as T
from pmtk.model import PMamba, StagePlan, total_loss
rng = np.random.default_rng(5)
model = PMamba(rng, StagePlan(), size=64)
x = rng.uniform(0.0, 1.0, (8, 1, 64, 64))
target = rng.integers(0, 2, (8, 64, 64))
with T.Tape() as tape:
    loss, _ = total_loss(model(T.Tensor(x)), target)
grads = T.backward(tape, loss)
print(json.dumps({"loss": loss.data.tobytes().hex(), **{
    name: hashlib.sha256(T.grad_of(grads, p).tobytes()).hexdigest()
    for name, p in model.named_parameters()}}))
"""


def test_training_step_is_the_same_at_1_and_2_blas_threads():
    # ABLATE and BENCH files compare runs made at different thread counts
    src = str(Path(pmtk.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", STEP_HASHES], env=env, check=True,
                             capture_output=True, text=True).stdout
        results.append(json.loads(out))
    one, two = results
    assert len(one) == 1 + len(PMamba(np.random.default_rng(5)).parameters())
    assert one == two


def test_environment_does_not_set_the_dtype():
    # no setting outside the arrays selects a dtype
    src = str(Path(pmtk.__file__).resolve().parents[1])
    env = dict(os.environ, PMTK_PRECISION="f64",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import numpy as np\n"
            "from pmtk import tensor as T\n"
            "from pmtk.model import MICRO_PLAN, PMamba\n"
            "m = PMamba(np.random.default_rng(0), MICRO_PLAN, size=32)\n"
            "print(T.Tensor(np.zeros(2)).data.dtype, "
            "sorted({str(p.data.dtype) for p in m.parameters()}))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["float32", "['float32']"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_predict_raises_on_non_finite_logits():
    # weights scaled by 1e4 overflow the forward; predict must name the op
    # that first went non-finite instead of taking the argmax of NaN logits
    model = micro_model()
    for p in model.parameters():
        p.data *= 1e4
    x = np.random.default_rng(3).standard_normal((2, 1, 32, 32))
    with pytest.raises(DivergenceError, match=r"predict: \w+\.\w+ \(tape record \d+\)"):
        predict(model, x)


def test_evaluate_reports_per_sample_rows():
    model = micro_model()
    samples = tiny_dataset(n=5)
    rows, means = evaluate(model, samples, batch_size=2)
    assert len(rows) == 5
    assert rows[0][0] == "t000"
    for key in ("precision", "recall", "dice"):
        assert 0.0 <= means[key] <= 1.0


# ---------------------------------------------------------------------------
# Checkpoint round trip
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_preserves_forward(tmp_path):
    model = micro_model(seed=5)
    x = np.random.default_rng(6).standard_normal((1, 1, 32, 32))
    before = predict(model, x)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.named_parameters())
    fresh = micro_model(seed=99)
    # the restore, not a coincidence of seeds, makes the predictions equal
    saved = dict(model.named_parameters())
    assert any(not np.array_equal(p.data, saved[name].data)
               for name, p in fresh.named_parameters())
    restore_into(fresh, load_checkpoint(path))
    np.testing.assert_array_equal(predict(fresh, x), before)


def test_model_profile_fields():
    model = micro_model()
    prof = model_profile(model)
    assert prof["params"] == model.parameter_count()
    assert prof["forward_ms"] > 0
    assert prof["peak_bytes"] > 0


def test_model_profile_inside_a_callers_tracemalloc_session():
    # the caller's earlier 8 MB peak is not predict's, and its session
    # must still be running afterwards
    model = micro_model()
    alone = model_profile(model)["peak_bytes"]
    tracemalloc.start()
    try:
        big = np.ones(1 << 20)  # 8 MB
        del big
        inside = model_profile(model)["peak_bytes"]
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    assert abs(inside - alone) < 0.1 * alone


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

def test_ablate_smoke():
    # the plumbing only: one seed, one epoch, the default plan at 32x32
    cfg = AblateConfig(seeds=(0,), count=10, epochs=1, size=32)
    result = ablate(cfg)
    assert [r[:2] for r in result["runs"]] == [(v, 0) for v in cfg.variants]
    assert [r[0] for r in result["summary"]] == list(cfg.variants)
    for row in result["runs"] + result["summary"]:
        assert all(0.0 <= v <= 1.0 for v in row[-3:])
    assert ablate(cfg) == result
    with pytest.raises(ConfigError, match="unknown variant"):
        ablate(AblateConfig(variants=("full", "fft"), seeds=(0,), count=10,
                            epochs=1, size=32))


def test_ablate_row_is_evaluate_of_the_trained_model():
    # a run's row is read off train_toy's last validation, not evaluated
    # again; it must equal evaluate() of the model the same config trains
    cfg = AblateConfig(variants=("full",), seeds=(1,), count=20, epochs=2, size=32)
    (row,) = ablate(cfg)["runs"]
    data = SynthConfig(seed=1, count=cfg.count, size=cfg.size, noise_sigma=cfg.noise_sigma)
    train_set, val_set, _ = split(synth_generate(data), seed=1)
    model, _ = train_toy(train_set, val_set,
                         TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                                     lr=cfg.lr, seed=1, size=cfg.size))
    _, means = evaluate(model, val_set, cfg.batch_size)
    assert row == ("full", 1, means["precision"], means["recall"], means["dice"])
    assert means["dice"] > 0


@pytest.mark.parametrize("field, value", [("epochs", 0), ("count", 9)])
def test_ablate_config_rejects_runs_without_a_validation(field, value):
    # no epoch, or int(0.1 * count) = 0 validation samples: no row to read
    with pytest.raises(ConfigError, match=f"{field} must be at least"):
        AblateConfig(**{field: value})
