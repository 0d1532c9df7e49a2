"""Model assembly, loss/metric contracts, and a tiny end-to-end fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtk import tensor as T
from pmtk.data import Sample, SynthConfig, synth_generate
from pmtk.errors import ConfigError, DimensionError, DivergenceError
from pmtk.model import (
    LOSS_WEIGHTS,
    MICRO_PLAN,
    PATCH_SIZES,
    TOTAL_STRIDE,
    AblateConfig,
    PMamba,
    StagePlan,
    TrainConfig,
    ablate,
    evaluate,
    mask_metrics,
    model_profile,
    predict,
    total_loss,
    train_toy,
)
from pmtk.serialize import load_checkpoint, restore_into, save_checkpoint


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


@pytest.mark.parametrize("plan, batch, size", [(MICRO_PLAN, 3, 32), (StagePlan(), 1, 64)],
                         ids=["micro-b3-32", "default-b1-64"])
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
