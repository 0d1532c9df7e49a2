"""Synthetic echo-like dataset, deterministic splits, and PGM image I/O.

The generator draws one deformed dark ellipse (the target) on a brighter
smooth background, multiplies by Rayleigh speckle and occasionally casts a
dark wedge shadow across the scene. Every sample is fully determined by
``cfg.seed ^ index``, so generation is reproducible and order-independent:
``synth_sample(cfg, index)`` builds one sample, ``synth_generate`` the list.

A sample's maps are broadcasts of one coordinate column and row, updated in
place and freed after their last use, so a 512x512 sample peaks at ~9 MB of
transients. Splitting ``range(count)`` and handing ``save_dataset`` one
generator per split writes a dataset with one sample in memory at a time
(``pmtk synth``).

On-disk datasets are plain directories: ``images/<id>.pgm``,
``masks/<id>.pgm`` (mask pixels 0 or 255) and ``manifest.csv`` with columns
id,split. Only binary 8-bit PGM (P5, maxval 255) is supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, check_finite

RAYLEIGH_MEAN = float(np.sqrt(np.pi / 2.0))


@dataclass(frozen=True)
class Sample:
    id: str
    image: np.ndarray   # [1,H,W] float in [0,1]
    mask: np.ndarray    # [H,W] int in {0,1}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    count: int = 64
    size: int = 64
    noise_sigma: float = 0.3
    shadow_prob: float = 0.3
    deform: float = 0.15

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.size < 32 or self.size % 32:
            raise ConfigError(f"size must be a positive multiple of 32, got {self.size}")
        if not 0.0 <= self.shadow_prob <= 1.0:
            raise ConfigError(f"shadow_prob must be in [0,1], got {self.shadow_prob}")
        check_finite("noise_sigma", self.noise_sigma, positive=False)
        check_finite("deform", self.deform, positive=False)


def synth_sample(cfg: SynthConfig, index: int) -> Sample:
    """Sample ``index`` of the dataset ``cfg`` describes.

    Each map is the broadcast of a coordinate column and row, is updated in
    place and is dropped after its last use, so one sample holds a few
    full-size maps at a time.
    """
    rng = np.random.default_rng(cfg.seed ^ index)
    size = cfg.size
    coord = np.arange(size, dtype=np.float64)
    yy, xx = coord[:, None], coord[None, :]

    # Smooth background, brighter than the cavity (echo-like contrast ~0.4).
    base = rng.uniform(0.5, 0.65)
    # slope bounded so the gradient's own spatial variance, (gx^2+gy^2)/12,
    # stays under the 1e-3 noise-free within-region budget
    gx, gy = rng.uniform(-0.07, 0.07, size=2)
    inside_level = base - 0.4

    # Deformed rotated ellipse: r(phi) = r0(phi) * (1 + deform*sin(m*phi+phi0)).
    cy, cx = rng.uniform(0.4 * size, 0.6 * size, size=2)
    a = rng.uniform(0.14 * size, 0.30 * size)
    b = rng.uniform(0.14 * size, 0.30 * size)
    theta = rng.uniform(0.0, np.pi)
    lobes = rng.integers(2, 5)
    phi0 = rng.uniform(0.0, 2.0 * np.pi)
    cos, sin = np.cos(theta), np.sin(theta)
    xr = (xx - cx) * cos + (yy - cy) * sin
    yr = -(xx - cx) * sin + (yy - cy) * cos
    wobble = np.arctan2(yr, xr)        # phi, then 1 + deform*sin(lobes*phi + phi0)
    wobble *= lobes
    wobble += phi0
    np.sin(wobble, out=wobble)
    wobble *= cfg.deform
    wobble += 1.0
    xr /= a * wobble
    wobble *= b
    yr /= wobble
    del wobble
    np.square(xr, out=xr)
    np.square(yr, out=yr)
    xr += yr
    del yr
    mask = xr <= 1.0
    del xr

    image = base + gx * (xx / size - 0.5) + gy * (yy / size - 0.5)
    np.copyto(image, inside_level, where=mask)

    if rng.uniform() < cfg.shadow_prob:
        # Dark wedge: angular sector from a random border point through the scene.
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
        # each pixel's bearing from (sy, sx) less direction, wrapped to
        # (-pi, pi] as the angle of exp(i * bearing)
        ang = np.arctan2(yy - sy, xx - sx)
        ang -= direction
        turn = 1j * ang
        del ang
        np.exp(turn, out=turn)
        diff = np.angle(turn)
        del turn
        np.abs(diff, out=diff)
        np.multiply(image, 0.55, out=image, where=diff < half_width)
        del diff

    if cfg.noise_sigma > 0:
        speckle = rng.rayleigh(scale=1.0, size=image.shape)
        speckle -= RAYLEIGH_MEAN
        speckle *= cfg.noise_sigma
        speckle += 1.0
        image *= speckle
        del speckle

    np.clip(image, 0.0, 1.0, out=image)
    return Sample(id=f"s{index:05d}", image=image[None], mask=mask.astype(np.int64))


def synth_generate(cfg: SynthConfig) -> list:
    return [synth_sample(cfg, i) for i in range(cfg.count)]


def split(samples, seed: int = 0) -> tuple:
    """Deterministic (train, val, test) partition of a seeded permutation:
    val and test each take int(0.1 * n) samples, train the remaining ~80%.

    ``samples`` is any sequence: split ``range(n)`` to partition indices
    the way the samples themselves would be partitioned."""
    if not samples:
        raise DataError("cannot split an empty sample list")
    n = len(samples)
    n_val = n_test = int(0.1 * n)
    order = np.random.default_rng(seed).permutation(n)
    val = [samples[i] for i in order[:n_val]]
    test = [samples[i] for i in order[n_val:n_val + n_test]]
    train = [samples[i] for i in order[n_val + n_test:]]
    return train, val, test


# ---------------------------------------------------------------------------
# PGM (P5) image files
# ---------------------------------------------------------------------------

def save_image(path, x: np.ndarray) -> None:
    """Write a [H,W] or [1,H,W] array in [0,1] as 8-bit binary PGM."""
    x = np.asarray(x)
    if x.ndim == 3 and x.shape[0] == 1:
        x = x[0]
    if x.ndim != 2:
        raise FormatError(f"save_image expects one grayscale plane, got shape {x.shape}")
    q = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii"))
        fh.write(q.tobytes())


def _read_pgm_tokens(raw: bytes, count: int) -> tuple:
    """First ``count`` whitespace-separated header tokens, skipping comments."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise FormatError("truncated header")
        ch = raw[i:i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j:j + 1].isspace() and raw[j:j + 1] != b"#":
                j += 1
            tokens.append(raw[i:j])
            i = j
    return tokens, i + 1  # single whitespace byte separates header from payload


def load_image(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a [1,H,W] float array scaled to [0,1]."""
    raw = Path(path).read_bytes()
    try:
        (magic, w_s, h_s, maxval_s), offset = _read_pgm_tokens(raw, 4)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if magic != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {magic!r})")
    try:
        w, h, maxval = int(w_s), int(h_s), int(maxval_s)
    except ValueError:
        raise FormatError(f"{path}: non-numeric header fields") from None
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad extents {w}x{h}")
    payload = raw[offset:offset + w * h]
    if len(payload) != w * h:
        raise FormatError(f"{path}: payload has {len(payload)} bytes, expected {w * h}")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return (img.astype(np.float64) / 255.0)[None]


def load_mask(path) -> np.ndarray:
    """Read a mask PGM; binarizes at threshold 128."""
    return (load_image(path)[0] >= 128.0 / 255.0).astype(np.int64)


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def save_dataset(root, splits: dict) -> None:
    """Write {"train": [...], "val": [...], "test": [...]} as a directory.

    Each split may be any iterable of samples; a generator is consumed one
    sample at a time as its files are written."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    lines = ["id,split"]
    for split_name, samples in splits.items():
        for s in samples:
            save_image(image_path(root, s.id), s.image)
            save_image(root / "masks" / f"{s.id}.pgm", s.mask.astype(np.float64))
            lines.append(f"{s.id},{split_name}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")


def image_path(root, sample_id: str) -> Path:
    return Path(root) / "images" / f"{sample_id}.pgm"


def load_dataset(root) -> dict:
    """Read a dataset directory back into per-split sample lists.

    Every id is listed once, every image is square and of one extent, and
    every mask has its image's extent; otherwise FormatError (the manifest)
    or DataError (the image or mask file) names the file at fault.
    """
    root = Path(root)
    manifest = root / "manifest.csv"
    if not manifest.exists():
        raise DataError(f"{root}: missing manifest.csv")
    splits: dict = {}
    lines = manifest.read_text().splitlines()
    if not lines or lines[0].strip() != "id,split":
        raise FormatError(f"{manifest}: expected header 'id,split'")
    first = None                       # path of the first image read
    seen = set()
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            sample_id, split_name = line.strip().split(",")
        except ValueError:
            raise FormatError(f"{manifest}: malformed line {line!r}") from None
        if sample_id in seen:
            raise FormatError(f"{manifest}: id {sample_id!r} is listed twice")
        seen.add(sample_id)
        path = image_path(root, sample_id)
        mask_path = root / "masks" / f"{sample_id}.pgm"
        image = load_image(path)
        mask = load_mask(mask_path)
        _, h, w = image.shape
        if h != w:
            raise DataError(f"{path}: image is {w}x{h}, not square")
        if first is None:
            first, extent = path, h
        elif h != extent:
            raise DataError(f"{path}: image is {w}x{h}, but {first} is {extent}x{extent}")
        if mask.shape != (h, w):
            raise DataError(f"{mask_path}: mask is {mask.shape[1]}x{mask.shape[0]}, "
                            f"its image {w}x{h}")
        splits.setdefault(split_name, []).append(Sample(sample_id, image, mask))
    if not splits:
        raise DataError(f"{root}: manifest lists no samples")
    return splits
