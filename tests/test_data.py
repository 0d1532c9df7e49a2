"""Generator contracts, split arithmetic, and PGM round trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtk.data import (
    RAYLEIGH_MEAN,
    Sample,
    SynthConfig,
    load_dataset,
    load_image,
    load_mask,
    save_dataset,
    save_image,
    split,
    synth_generate,
    synth_sample,
)
from pmtk.errors import ConfigError, DataError, FormatError


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(count=0)
    # 0 and -32 divide by 32 but make no image (a P5 0x0 file for 0)
    for size in (48, 0, -32):
        with pytest.raises(ConfigError, match=f"positive multiple of 32, got {size}"):
            SynthConfig(size=size)
    with pytest.raises(ConfigError):
        SynthConfig(shadow_prob=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(noise_sigma=-0.1)


def test_sample_shapes_and_ranges():
    for s in synth_generate(SynthConfig(seed=3, count=8, size=32)):
        assert s.image.shape == (1, 32, 32)
        assert s.mask.shape == (32, 32)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert set(np.unique(s.mask)) <= {0, 1}


def test_target_area_fraction_within_band():
    samples = synth_generate(SynthConfig(seed=0, count=64, size=64))
    fracs = [s.mask.mean() for s in samples]
    assert min(fracs) >= 0.05
    assert max(fracs) <= 0.45


def test_generation_deterministic_and_order_independent():
    cfg = SynthConfig(seed=11, count=6, size=32)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s.image, t.image)
        np.testing.assert_array_equal(s.mask, t.mask)
    # per-sample rng: regenerating a wider run reproduces earlier samples
    wider = synth_generate(SynthConfig(seed=11, count=12, size=32))
    np.testing.assert_array_equal(wider[3].image, a[3].image)


def test_noise_free_regions_nearly_flat():
    samples = synth_generate(SynthConfig(seed=1, count=16, size=64,
                                         noise_sigma=0.0, shadow_prob=0.0))
    for s in samples:
        inside = s.image[0][s.mask == 1]
        outside = s.image[0][s.mask == 0]
        assert inside.var() <= 1e-3
        assert outside.var() <= 1e-3
        # cavity darker than background by a clear margin
        assert outside.mean() - inside.mean() >= 0.2


def test_speckle_is_multiplicative():
    # noise amplitude should scale with intensity: collect (region mean,
    # residual std) pairs over the corpus and correlate
    clean_cfg = SynthConfig(seed=2, count=16, size=64, noise_sigma=0.0, shadow_prob=0.0)
    noisy_cfg = SynthConfig(seed=2, count=16, size=64, noise_sigma=0.4, shadow_prob=0.0)
    levels, stds = [], []
    for c, n in zip(synth_generate(clean_cfg), synth_generate(noisy_cfg)):
        resid = n.image[0] - c.image[0]
        for region in (c.mask == 1, c.mask == 0):
            levels.append(c.image[0][region].mean())
            stds.append(resid[region].std())
    assert np.corrcoef(levels, stds)[0, 1] > 0.5


def test_noise_sigma_zero_reproduces_geometry_of_noisy_run():
    noisy = synth_generate(SynthConfig(seed=9, count=4, size=32, noise_sigma=0.3))
    clean = synth_generate(SynthConfig(seed=9, count=4, size=32, noise_sigma=0.0))
    for a, b in zip(noisy, clean):
        np.testing.assert_array_equal(a.mask, b.mask)


def full_grid_sample(cfg: SynthConfig, index: int) -> Sample:
    """The generator over a full ``np.mgrid`` coordinate grid, every map kept
    until it returns: the reference ``synth_sample`` must equal byte for
    byte, with the same rng draws in the same order."""
    rng = np.random.default_rng(cfg.seed ^ index)
    size = cfg.size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)

    base = rng.uniform(0.5, 0.65)
    gx, gy = rng.uniform(-0.07, 0.07, size=2)
    background = base + gx * (xx / size - 0.5) + gy * (yy / size - 0.5)
    inside_level = base - 0.4

    cy, cx = rng.uniform(0.4 * size, 0.6 * size, size=2)
    a = rng.uniform(0.14 * size, 0.30 * size)
    b = rng.uniform(0.14 * size, 0.30 * size)
    theta = rng.uniform(0.0, np.pi)
    lobes = rng.integers(2, 5)
    phi0 = rng.uniform(0.0, 2.0 * np.pi)
    xr = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
    yr = -(xx - cx) * np.sin(theta) + (yy - cy) * np.cos(theta)
    phi = np.arctan2(yr, xr)
    wobble = 1.0 + cfg.deform * np.sin(lobes * phi + phi0)
    mask = (xr / (a * wobble)) ** 2 + (yr / (b * wobble)) ** 2 <= 1.0

    image = np.where(mask, inside_level, background)

    if rng.uniform() < cfg.shadow_prob:
        sy, sx = rng.uniform(0.0, size, size=2)
        edge = rng.integers(4)
        if edge == 0:
            sy = 0.0
        elif edge == 1:
            sy = size - 1.0
        elif edge == 2:
            sx = 0.0
        else:
            sx = size - 1.0
        direction = np.arctan2(cy - sy, cx - sx)
        half_width = rng.uniform(0.1, 0.25)
        ang = np.arctan2(yy - sy, xx - sx)
        diff = np.angle(np.exp(1j * (ang - direction)))
        image = np.where(np.abs(diff) < half_width, image * 0.55, image)

    if cfg.noise_sigma > 0:
        eta = rng.rayleigh(scale=1.0, size=image.shape) - RAYLEIGH_MEAN
        image = image * (1.0 + cfg.noise_sigma * eta)

    image = np.clip(image, 0.0, 1.0)
    return Sample(id=f"s{index:05d}", image=image[None], mask=mask.astype(np.int64))


@pytest.mark.parametrize("overrides", [
    {}, {"shadow_prob": 0.0}, {"shadow_prob": 1.0}, {"noise_sigma": 0.0}, {"deform": 0.0},
], ids=["defaults", "no-shadow", "shadow", "no-noise", "no-deform"])
@pytest.mark.parametrize("size", [32, 96, 160, 512])
def test_synth_sample_equals_full_grid_oracle_byte_for_byte(size, overrides):
    seeds = (0, 9) if size == 512 else (0, 3, 9, 14)
    for seed in seeds:
        cfg = SynthConfig(seed=seed, count=1, size=size, **overrides)
        for index in range(3):
            got, want = synth_sample(cfg, index), full_grid_sample(cfg, index)
            assert got.id == want.id
            for name in ("image", "mask"):
                g, w = getattr(got, name), getattr(want, name)
                assert (g.dtype, g.shape) == (w.dtype, w.shape), name
                assert g.tobytes() == w.tobytes(), (name, seed, index)


def test_one_512_sample_peaks_under_12_mb():
    # A shadowed 512x512 sample, whose wedge adds two complex128 maps. With
    # every map over a full coordinate grid and kept until the sample
    # returned, it peaked at 27.5 MB; with maps broadcast from a coordinate
    # row and column, updated in place and dropped after their last use, it
    # peaks at 8.8 MB. tracemalloc counts numpy's buffers exactly, so the
    # figure repeats.
    cfg = SynthConfig(count=1, size=512, shadow_prob=1.0)
    tracemalloc.start()
    try:
        synth_sample(cfg, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


# ---------------------------------------------------------------------------
# Split
# ---------------------------------------------------------------------------

def fake_samples(n):
    return [Sample(id=f"f{i}", image=np.zeros((1, 2, 2)), mask=np.zeros((2, 2), dtype=int))
            for i in range(n)]


@given(st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_split_is_a_partition(n):
    samples = fake_samples(n)
    train, val, test = split(samples, seed=4)
    assert len(val) == int(0.1 * n)
    assert len(test) == int(0.1 * n)
    assert len(train) + len(val) + len(test) == n
    ids = sorted(s.id for part in (train, val, test) for s in part)
    assert ids == sorted(s.id for s in samples)


def test_split_deterministic_by_seed():
    samples = fake_samples(20)
    a = split(samples, seed=1)
    b = split(samples, seed=1)
    c = split(samples, seed=2)
    assert [s.id for s in a[0]] == [s.id for s in b[0]]
    assert [s.id for s in a[0]] != [s.id for s in c[0]]


def test_split_validation():
    with pytest.raises(DataError):
        split([])


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------

def test_image_roundtrip_exact_on_grid_values(tmp_path):
    # multiples of 1/255 survive the quantization exactly
    x = (np.arange(64).reshape(8, 8) % 256) / 255.0
    p = tmp_path / "a.pgm"
    save_image(p, x)
    back = load_image(p)
    assert back.shape == (1, 8, 8)
    np.testing.assert_allclose(back[0], x, atol=1e-12)


def test_image_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (16, 16))
    p = tmp_path / "b.pgm"
    save_image(p, x)
    assert np.abs(load_image(p)[0] - x).max() <= 0.5 / 255.0 + 1e-12


def test_mask_roundtrip(tmp_path):
    mask = (np.random.default_rng(1).uniform(size=(8, 8)) > 0.5).astype(np.int64)
    p = tmp_path / "m.pgm"
    save_image(p, mask.astype(np.float64))
    np.testing.assert_array_equal(load_mask(p), mask)


def test_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n# more\n255\n" + bytes([0, 85, 170, 255]))
    img = load_image(p)
    np.testing.assert_allclose(img[0], np.array([[0, 85], [170, 255]]) / 255.0)


@pytest.mark.parametrize("payload", [
    b"P2\n2 2\n255\n" + bytes(4),            # ascii variant
    b"P5\n2 2\n65535\n" + bytes(8),          # 16-bit maxval
    b"P5\n2 2\n255\n" + bytes(3),            # truncated payload
    b"P5\n0 2\n255\n",                       # zero extent
    b"P5\ntwo 2\n255\n" + bytes(4),          # non-numeric field
    b"P5\n2",                                # truncated header
])
def test_malformed_pgm_rejected(tmp_path, payload):
    p = tmp_path / "bad.pgm"
    p.write_bytes(payload)
    with pytest.raises(FormatError):
        load_image(p)


def test_save_image_rejects_multichannel(tmp_path):
    with pytest.raises(FormatError):
        save_image(tmp_path / "x.pgm", np.zeros((3, 4, 4)))


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path):
    data = synth_generate(SynthConfig(seed=5, count=6, size=32))
    splits = {"train": data[:4], "val": data[4:5], "test": data[5:]}
    save_dataset(tmp_path, splits)
    back = load_dataset(tmp_path)
    assert {k: len(v) for k, v in back.items()} == {"train": 4, "val": 1, "test": 1}
    for name in splits:
        for orig, loaded in zip(splits[name], back[name]):
            assert loaded.id == orig.id
            np.testing.assert_array_equal(loaded.mask, orig.mask)
            assert np.abs(loaded.image - orig.image).max() <= 0.5 / 255.0 + 1e-12


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_load_dataset_rejects_bad_manifest(tmp_path):
    (tmp_path / "manifest.csv").write_text("wrong,header\n")
    with pytest.raises(FormatError):
        load_dataset(tmp_path)
    (tmp_path / "manifest.csv").write_text("id,split\na,b,c\n")
    with pytest.raises(FormatError):
        load_dataset(tmp_path)
    (tmp_path / "manifest.csv").write_text("id,split\n")
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def sample(i, shape, mask_shape=None):
    """Sample ``s<i>`` with a [1, *shape] image and a ``mask_shape`` mask
    (default: the image's extent)."""
    rng = np.random.default_rng(i)
    mask = rng.uniform(size=mask_shape or shape) > 0.5
    return Sample(f"s{i}", rng.uniform(size=(1,) + shape), mask.astype(np.int64))


@pytest.mark.parametrize("splits, error, message", [
    ({"train": [sample(0, (32, 32)), sample(1, (64, 64))]}, DataError,
     r"images/s1\.pgm: image is 64x64, but \S*images/s0\.pgm is 32x32"),
    ({"train": [sample(0, (32, 32), mask_shape=(16, 16))]}, DataError,
     r"masks/s0\.pgm: mask is 16x16, its image 32x32"),
    ({"train": [sample(0, (32, 64))]}, DataError,
     r"images/s0\.pgm: image is 64x32, not square"),
    ({"train": [sample(0, (32, 32))], "val": [sample(0, (32, 32))]}, FormatError,
     r"manifest\.csv: id 's0' is listed twice"),
], ids=["mixed-extents", "mask-extent", "non-square", "repeated-id"])
def test_load_dataset_names_the_file_at_fault(tmp_path, splits, error, message):
    save_dataset(tmp_path, splits)
    with pytest.raises(error, match=message):
        load_dataset(tmp_path)
