"""Bit-identity fingerprint of pmtk's outputs: one sha256 digest per output.

Usage, from the repository root:

    python tests/fingerprint.py > fingerprint.json

It prints a JSON object that maps each output's name to the digest of its
bytes (and dtypes and shapes). To show that a change keeps every output
bit-identical, run it on fresh ``git archive`` trees of the parent and the
change (``PYTHONPATH=<tree>/src``) and compare the two files. BLAS runs on
one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise. The digests
depend on the numpy and BLAS build, so they are compared between trees on
one machine, never pinned.

The outputs:

* ``init/<plan>/<dtype>``: the initial parameters of the ``dwt``, ``none``
  and ``sobel`` plans, in float32 and float64;
* ``steps/<dtype>/{loss,grads,params}``: the losses and every gradient of
  two momentum steps, and the parameters after them;
* ``tape/record_count`` (a number, not a digest) and ``tape/record_names``:
  the records of one float32 training step;
* ``predict/<plan>@<extent>``: predicted masks of the micro plan at 32 and
  96 px and of the default plan at 64 and 128 px;
* ``pmd_apply/<mode>/{forward,input_grad}``: the diffusion step's output
  and input gradient in both modes;
* ``cli/...``: what ``pmtk denoise`` (all three modes), ``pmtk dwt``,
  ``pmtk train`` and ``pmtk eval`` write on a dataset from ``pmtk synth``.
  A checkpoint is hashed by its arrays, not its ``.npz`` bytes, which carry
  zip timestamps; the training log without its wall-time column.

``fingerprint(micro=True)`` computes the same outputs on smaller inputs (the
steps and the CLI run on the micro plan's scale), which a test runs twice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

# BLAS reads its thread count when numpy loads; a test that imports this
# module leaves its process's environment alone
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from pmtk import cli  # noqa: E402
from pmtk import tensor as T  # noqa: E402
from pmtk.model import MICRO_PLAN, PMamba, StagePlan, predict, total_loss  # noqa: E402
from pmtk.pmd import pmd_apply  # noqa: E402
from pmtk.serialize import load_checkpoint  # noqa: E402

DTYPES = {"f32": np.float32, "f64": np.float64}
PLANS = {"dwt": StagePlan(), "none": StagePlan(preprocess="none"),
         "sobel": StagePlan(preprocess="sobel")}


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes), strings and bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(part)
    return h.hexdigest()


def named_arrays(pairs) -> list:
    """name, array, name, array, ... for ``digest``."""
    return [x for name, a in pairs for x in (name, np.asarray(a))]


def _init(out: dict, size: int) -> None:
    for plan_name, plan in PLANS.items():
        for dname, dtype in DTYPES.items():
            model = PMamba(np.random.default_rng(0), plan, size).astype(dtype)
            out[f"init/{plan_name}/{dname}"] = digest(*named_arrays(
                (n, p.data) for n, p in model.named_parameters()))


def _steps(out: dict, plan: StagePlan, size: int, batch: int) -> None:
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, (batch, 1, size, size))
    target = rng.integers(0, 2, (batch, size, size))
    for dname, dtype in DTYPES.items():
        model = PMamba(np.random.default_rng(2), plan, size).astype(dtype)
        opt = T.Momentum(model.parameters(), lr=0.025)
        losses, grads = [], []
        for _ in range(2):
            with T.Tape() as tape:
                loss, _ = total_loss(model(T.Tensor(x, dtype)), target)
            if dname == "f32" and not losses:
                names = [T.record_name(fn) for _, _, fn in tape]
                out["tape/record_count"] = len(names)
                out["tape/record_names"] = digest("\n".join(names))
            g = T.backward(tape, loss)
            losses.append(loss.data)
            grads += named_arrays((n, T.grad_of(g, p)) for n, p in model.named_parameters())
            opt.step(g)
        out[f"steps/{dname}/loss"] = digest(*losses)
        out[f"steps/{dname}/grads"] = digest(*grads)
        out[f"steps/{dname}/params"] = digest(*named_arrays(
            (n, p.data) for n, p in model.named_parameters()))


def _predict(out: dict) -> None:
    rng = np.random.default_rng(3)
    for name, plan, size in (("micro", MICRO_PLAN, 32), ("micro", MICRO_PLAN, 96),
                             ("default", StagePlan(), 64), ("default", StagePlan(), 128)):
        model = PMamba(np.random.default_rng(4), plan, size)
        images = rng.uniform(0.0, 1.0, (2, 1, size, size))
        out[f"predict/{name}@{size}"] = digest(predict(model, images))


def _pmd_apply(out: dict) -> None:
    rng = np.random.default_rng(5)
    x_np = rng.uniform(0.0, 1.0, (2, 3, 16, 16))
    r = T.Tensor(rng.standard_normal(x_np.shape))
    for mode in ("attenuate", "as-written"):
        x = T.Tensor(x_np)
        with T.Tape() as tape:
            y = pmd_apply(x, 1.0, mode)
            loss = T.tsum(T.mul(y, r))
        g = T.backward(tape, loss)
        out[f"pmd_apply/{mode}/forward"] = digest(y.data)
        out[f"pmd_apply/{mode}/input_grad"] = digest(T.grad_of(g, x))


def _file(path: Path) -> bytes:
    if path.name.endswith(".log.csv"):
        # every column but wall_s is a function of the seed
        rows = [line.split(",") for line in path.read_text().splitlines()]
        wall = rows[0].index("wall_s")
        return "\n".join(",".join(r[:wall] + r[wall + 1:]) for r in rows).encode()
    if path.suffix == ".npz":
        return bytes.fromhex(digest(*named_arrays(load_checkpoint(path).items())))
    return path.read_bytes()


def _cli(out: dict, count: int, size: int, batch: int) -> None:
    """The files each command writes, with relative paths, so that the
    ``.config`` files that record the command lines repeat too."""
    commands = {
        "synth": ["synth", "--out", "data", "--count", str(count), "--size", str(size)],
        "train": ["train", "--data", "data", "--out", "model.npz", "--epochs", "1",
                  "--batch-size", str(batch)],
        "eval": ["eval", "--data", "data", "--checkpoint", "model.npz", "--out", "eval.csv"],
        "denoise/fd": ["denoise", "--in", "data/images/s00000.pgm", "--out", "fd.pgm",
                       "--mode", "fd"],
        "denoise/dwt-aswritten": ["denoise", "--in", "data/images/s00000.pgm",
                                  "--out", "aw.pgm", "--mode", "dwt-aswritten"],
        "denoise/dwt-attenuate": ["denoise", "--in", "data/images/s00000.pgm",
                                  "--out", "at.pgm"],
        "dwt": ["dwt", "--in", "data/images/s00000.pgm", "--out-prefix", "sub"],
    }
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            seen = set()
            for name, argv in commands.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
                if status != 0:
                    raise RuntimeError(f"pmtk {' '.join(argv)} exited with {status}")
                made = sorted(p for p in Path(".").rglob("*") if p.is_file() and p not in seen)
                seen.update(made)
                parts = [x for p in made for x in (str(p), _file(p))]
                out[f"cli/{name}"] = digest(*parts)
        finally:
            os.chdir(cwd)


def fingerprint(micro: bool = False) -> dict:
    """Output name -> digest (``tape/record_count`` -> its count)."""
    out: dict = {}
    if micro:
        _init(out, 32)
        _steps(out, MICRO_PLAN, 32, 2)
        _cli(out, count=10, size=32, batch=4)
    else:
        _init(out, 64)
        _steps(out, StagePlan(), 64, 8)
        _cli(out, count=20, size=64, batch=8)
    _predict(out)
    _pmd_apply(out)
    return dict(sorted(out.items()))


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=1))
