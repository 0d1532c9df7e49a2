"""Workloads and the outside-in tracer of the pmtk benchmark.

A workload builds its inputs from a seed, runs one operation per ``op()``
call through pmtk's public functions and checks that operation's output in
``check()``. ``traced_op()`` runs the same operation with per-layer timing.

Tracing is done from outside the program, without monkeypatching:

* ``TracingTape`` subclasses the public ``tensor.Tape`` and overrides
  ``record``. Each record is named by its backward closure's module and
  the first part of its qualified name (``tensor.conv2d``, ``ssm.scan_core``,
  ``pmd.pmd_apply``); unknown names go to ``tensor.other``. Forward self time
  is the time since the previous record ended. The closure is wrapped, and
  its backward self time runs from the start of its call to the start of the
  next closure's call, so it includes the tape's accumulation of the
  gradients it returned.
* Model stages are spans around the model's public sub-modules, called in the
  order ``PMamba.__call__`` uses (``staged_forward``).
* ``pmd_step_dwt`` is timed through ``denoise_with_log``'s ``step_fn``
  argument; ``dwt2``/``idwt2`` by direct calls on the workload's shapes.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from pmtk import cli, data, pmd, ssm, wavelet
from pmtk import model as M
from pmtk import tensor as T
from pmtk.errors import PmtkError

# Tape primitives reported by name; every other record is ``tensor.other``.
PRIMITIVES = (
    "ssm.scan_core", "pmd.pmd_apply",
    "tensor.bilinear_upsample", "tensor.conv2d", "tensor.norm_affine",
    "tensor.token_norm", "tensor.matmul", "tensor.depthwise_conv1d",
    "tensor.softplus", "tensor.silu", "tensor.relu", "tensor.flip",
    "tensor.add_bcast", "tensor.reshape", "tensor.transpose",
    "tensor.softmax_cross_entropy", "tensor.other",
)
OUT_MB_PRIMITIVES = ("tensor.bilinear_upsample", "tensor.conv2d", "tensor.norm_affine")
# Layer calls timed directly around the call (``OpTrace.extra``).
TIMED_CALLS = ("tensor.backward.ms", "tensor.Momentum.step_ms", "pmd.pmd_step_dwt.ms",
               "pmd.denoise_with_log.measure_ms", "data.load_image.ms", "data.save_image.ms")
STAGES = ("stem", "pmd1", "pmd2", "pmd3", "pmd4", "vim1", "vim2", "vim3", "vim4",
          "fuse", "seg_head", "fcn_heads", "loss")

# `pmtk denoise` defaults for --mode dwt-attenuate (k, steps, dt).
DENOISE_CFG = pmd.DiffusionConfig(k=1.0, steps=10, dt=1.0, mode="attenuate")
CSV_HEADER = "step,flat_variance,edge_contrast"


class CheckFailed(Exception):
    """An operation returned, but its output failed the workload's check."""


def layer_name(fn) -> str:
    module = fn.__module__.rpartition(".")[2]
    name = f"{module}.{fn.__qualname__.split('.')[0]}"
    return name if name in PRIMITIVES else "tensor.other"


class OpTrace:
    """Per-layer totals of one traced operation."""

    def __init__(self):
        self.fwd = defaultdict(float)       # seconds, by primitive
        self.bwd = defaultdict(float)
        self.calls = defaultdict(int)
        self.out_bytes = defaultdict(int)
        self.stage_fwd = defaultdict(float)  # seconds, by model stage
        self.stage_bwd = defaultdict(float)
        self.extra = defaultdict(float)      # seconds, by metric name
        self.records = 0
        self.wavelet_inputs: list = []       # (shape, dtype) of each diffused array
        self._open = None                    # (name, stage, start) of the running backward

    def close_backward(self, now: float) -> None:
        if self._open is not None:
            name, stage, start = self._open
            self.bwd[name] += now - start
            if stage is not None:
                self.stage_bwd[stage] += now - start
            self._open = None

    def open_backward(self, name: str, stage, now: float) -> None:
        self.close_backward(now)
        self._open = (name, stage, now)


class TracingTape(T.Tape):
    """A tape that times each record's forward and backward self time."""

    def __init__(self, trace: OpTrace):
        super().__init__()
        self.trace = trace
        self.stage = None
        self._last = perf_counter()

    @contextlib.contextmanager
    def span(self, stage: str):
        self.stage = stage
        start = self._last = perf_counter()
        try:
            yield
        finally:
            self.trace.stage_fwd[stage] += perf_counter() - start
            self.stage = None

    def record(self, inputs, output, backward_fn) -> None:
        now = perf_counter()
        tr = self.trace
        name = layer_name(backward_fn)
        tr.fwd[name] += now - self._last
        tr.calls[name] += 1
        tr.out_bytes[name] += output.data.nbytes
        tr.records += 1
        if name == "pmd.pmd_apply":
            tr.wavelet_inputs.append((inputs[0].shape, inputs[0].data.dtype))
        stage = self.stage

        def timed_backward(g):
            tr.open_backward(name, stage, perf_counter())
            return backward_fn(g)

        super().record(inputs, output, timed_backward)
        self._last = perf_counter()


def staged_forward(model: M.PMamba, x: T.Tensor, span) -> dict:
    """``PMamba.__call__`` unrolled into stage spans; same calls, same order."""
    pb, vb = model.pmd_branch, model.vim_branch
    with span("stem"):
        cur = pb.stem2(pb.stem1(x))
    feats_p = []
    for i, blocks in enumerate(pb.stages, 1):
        with span(f"pmd{i}"):
            for blk in blocks:
                cur = blk(cur)
        feats_p.append(cur)
    feats_v = []
    cur = x
    for i, (embed, blocks, grid) in enumerate(zip(vb.embeds, vb.blocks, vb.grids), 1):
        with span(f"vim{i}"):
            tokens = embed(cur)
            for blk in blocks:
                tokens = ssm.vim_block(tokens, blk)
            cur = ssm.tokens_to_map(tokens, grid)
        feats_v.append(cur)
    with span("fuse"):
        fused = M.fuse(feats_p, feats_v)
    with span("seg_head"):
        prim = model.seg_head(fused)
    with span("fcn_heads"):
        fcn = model.fcn_head(fused[-1])
        aux_p = model.aux_pmd(feats_p[-1])
        aux_v = model.aux_vim(feats_v[-1])
    return {"prim": prim, "fcn": fcn, "pmd": aux_p, "vim": aux_v}


def check_staged_forward(model: M.PMamba, images: np.ndarray) -> None:
    """Drift guard: the stage composition must reproduce the model exactly."""
    with T.Tape() as plain:
        want = model(T.Tensor(images))
    tape = TracingTape(OpTrace())
    with tape:
        got = staged_forward(model, T.Tensor(images), tape.span)
    if len(tape) != len(plain):
        raise CheckFailed(f"staged forward made {len(tape)} records, model {len(plain)}")
    for key, out in want.items():
        if not np.array_equal(out.data, got[key].data):
            raise CheckFailed(f"staged forward differs from PMamba.__call__ on {key!r}")


def detail_energy(u: np.ndarray) -> float:
    s = wavelet.dwt2(u)
    return float((s.lh ** 2).sum() + (s.hl ** 2).sum())


def synth(seed: int, count: int, size: int, trace: dict | None = None) -> list:
    t0 = perf_counter()
    samples = data.synth_generate(data.SynthConfig(seed=seed, count=count, size=size))
    if trace is not None:
        trace["data.synth_generate.ms"] = (perf_counter() - t0) * 1e3
    return samples


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Train:
    """Momentum-SGD steps drawn the way ``train_toy`` draws its batches."""

    def __init__(self, seed: int, size: int, batch: int, lr: float, count: int,
                 setup_trace: dict | None = None):
        samples = synth(seed, count, size, setup_trace)
        self.images = np.stack([np.asarray(s.image, dtype=np.float64) for s in samples])
        self.masks = np.stack([np.asarray(s.mask, dtype=np.int64) for s in samples])
        self.batch = batch
        self.images_per_op = batch
        self.rng = np.random.default_rng(seed)
        self.model = M.PMamba(self.rng, M.StagePlan(), size)
        self.opt = T.Momentum(self.model.parameters(), lr, M.TrainConfig().momentum)
        self._batches = iter(())
        self._last = None

    def _next_batch(self) -> np.ndarray:
        idx = next(self._batches, None)
        if idx is None:
            n = len(self.images)
            order = self.rng.permutation(n)
            self._batches = iter([order[s:s + self.batch] for s in range(0, n, self.batch)])
            idx = next(self._batches)
        return idx

    def op(self) -> dict:
        idx = self._next_batch()
        t0 = perf_counter()
        with T.Tape() as tape:
            outputs = self.model(T.Tensor(self.images[idx]))
            loss, _ = M.total_loss(outputs, self.masks[idx])
        t1 = perf_counter()
        grads = T.backward(tape, loss)
        self.opt.step(grads)
        t2 = perf_counter()
        self._last = (loss, grads)
        return {"op": t2 - t0, "fwd": t1 - t0, "bwd": t2 - t1}

    def traced_op(self, trace: OpTrace) -> dict:
        idx = self._next_batch()
        t0 = perf_counter()
        tape = TracingTape(trace)
        with tape:
            outputs = staged_forward(self.model, T.Tensor(self.images[idx]), tape.span)
            with tape.span("loss"):
                loss, _ = M.total_loss(outputs, self.masks[idx])
        t1 = perf_counter()
        grads = T.backward(tape, loss)
        t2 = perf_counter()
        trace.close_backward(t2)
        self.opt.step(grads)
        t3 = perf_counter()
        trace.extra["tensor.backward.ms"] += t2 - t1
        trace.extra["tensor.Momentum.step_ms"] += t3 - t2
        self._last = (loss, grads)
        return {"op": t3 - t0, "fwd": t1 - t0, "bwd": t3 - t1}

    def check(self) -> None:
        loss, grads = self._last
        if not np.isfinite(loss.item()):
            raise CheckFailed(f"non-finite loss {loss.item()}")
        for p in self.opt.params:
            g = grads.get(p)
            if g is not None and not np.isfinite(g).all():
                raise CheckFailed("non-finite gradient")

    def guard_images(self) -> np.ndarray:
        return self.images[:self.batch]


class Infer:
    """``model.predict`` on one image per call, cycling through a pool."""

    images_per_op = 1

    def __init__(self, seed: int, size: int, pool: int, setup_trace: dict | None = None):
        samples = synth(seed, pool, size, setup_trace)
        self.images = np.stack([s.image for s in samples])
        self.model = M.PMamba(np.random.default_rng(seed), M.StagePlan(), size)
        self.size = size
        self.seen: dict = {}
        self.calls = 0
        self._last = None

    def _next_image(self) -> tuple:
        k = self.calls % len(self.images)
        self.calls += 1
        return k, self.images[k:k + 1]

    def op(self) -> dict:
        k, x = self._next_image()
        t0 = perf_counter()
        mask = M.predict(self.model, x)
        t1 = perf_counter()
        self._last = (k, mask)
        return {"op": t1 - t0}

    def traced_op(self, trace: OpTrace) -> dict:
        k, x = self._next_image()
        t0 = perf_counter()
        tape = TracingTape(trace)
        with tape:
            outputs = staged_forward(self.model, T.Tensor(x), tape.span)
        mask = np.argmax(outputs["prim"].data, axis=1)
        t1 = perf_counter()
        self._last = (k, mask)
        return {"op": t1 - t0}

    def check(self) -> None:
        k, mask = self._last
        if mask.shape != (1, self.size, self.size):
            raise CheckFailed(f"mask shape {mask.shape}")
        if not np.isin(mask, (0, 1)).all():
            raise CheckFailed("mask is not binary")
        first = self.seen.setdefault(k, mask.copy())
        if not np.array_equal(first, mask):
            raise CheckFailed(f"image {k} gave a different mask on a repeat")

    def guard_images(self) -> np.ndarray:
        return self.images[:1]


class Denoise:
    """``pmtk denoise`` run in-process on synthetic PGM files."""

    images_per_op = 1

    def __init__(self, seed: int, size: int, pool: int, workdir: Path,
                 setup_trace: dict | None = None):
        self.size = size
        self.inputs = []
        for j, sample in enumerate(synth(seed, pool, size, setup_trace)):
            path = workdir / f"in{j}.pgm"
            data.save_image(path, sample.image)
            self.inputs.append(str(path))
        self.detail_energy: dict = {}  # by pool index, filled by check()
        self.output = workdir / "out.pgm"
        self.csv = workdir / "out.pgm.csv"
        self.calls = 0
        self.checked = 0
        self.flat_variance_rose = 0
        self._last = (0, 0)

    def _next_input(self) -> str:
        k = self.calls % len(self.inputs)
        self.calls += 1
        self._last = (k, 0)
        return self.inputs[k]

    def op(self) -> dict:
        argv = ["denoise", "--in", self._next_input(), "--out", str(self.output)]
        t0 = perf_counter()
        rc = cli.main(argv)
        t1 = perf_counter()
        self._last = (self._last[0], rc)
        return {"op": t1 - t0}

    def traced_op(self, trace: OpTrace) -> dict:
        """The layer calls ``cmd_denoise`` makes, each timed."""
        path = self._next_input()

        def step(u, cfg):
            trace.wavelet_inputs.append((u.shape, u.dtype))
            s0 = perf_counter()
            out = pmd.pmd_step_dwt(u, cfg)
            trace.extra["pmd.pmd_step_dwt.ms"] += perf_counter() - s0
            return out

        t0 = perf_counter()
        u = data.load_image(path)[0]
        t1 = perf_counter()
        out, rows = pmd.denoise_with_log(u, DENOISE_CFG, step)
        t2 = perf_counter()
        data.save_image(self.output, np.clip(out, 0.0, 1.0))
        t3 = perf_counter()
        with open(self.csv, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(f"{s},{v:.8g},{c:.8g}\n" for s, v, c in rows)
        t4 = perf_counter()
        trace.extra["data.load_image.ms"] += t1 - t0
        trace.extra["pmd.denoise_with_log.measure_ms"] += (
            t2 - t1 - trace.extra["pmd.pmd_step_dwt.ms"])
        trace.extra["data.save_image.ms"] += t3 - t2
        return {"op": t4 - t0}

    def check(self) -> None:
        k, rc = self._last
        if rc != 0:
            raise CheckFailed(f"pmtk denoise exited with {rc}")
        img = data.load_image(self.output)
        if img.shape != (1, self.size, self.size):
            raise CheckFailed(f"output image shape {img.shape}")
        if img.min() < 0.0 or img.max() > 1.0:
            raise CheckFailed("output image outside [0, 1]")
        # attenuate mode only shrinks the Haar detail bands (pmd_step_dwt)
        if k not in self.detail_energy:
            self.detail_energy[k] = detail_energy(data.load_image(self.inputs[k])[0])
        if detail_energy(img[0]) > self.detail_energy[k]:
            raise CheckFailed("detail energy grew in attenuate mode")
        lines = self.csv.read_text().splitlines()
        if lines[0] != CSV_HEADER or len(lines) != DENOISE_CFG.steps + 2:
            raise CheckFailed(f"CSV has {len(lines) - 1} rows, expected {DENOISE_CFG.steps + 1}")
        variance = [float(line.split(",")[1]) for line in lines[1:]]
        if not np.isfinite(variance).all():
            raise CheckFailed("non-finite flat variance")
        # Not a failure: flat_variance is dominated by the contrast between
        # regions, and rises slightly on some synthetic images (README.md).
        self.checked += 1
        self.flat_variance_rose += variance[-1] > variance[0]

    def check_traced_matches_cli(self) -> None:
        """Drift guard: the traced decomposition writes what the CLI writes."""
        self.calls = 0
        self.op()
        self.check()
        cli_files = self.output.read_bytes(), self.csv.read_bytes()
        self.calls = 0
        self.traced_op(OpTrace())
        if (self.output.read_bytes(), self.csv.read_bytes()) != cli_files:
            raise CheckFailed("traced denoise differs from `pmtk denoise` output")
        self.calls = 0


# name -> (class, parameters); the rationale for each is in README.md
WORKLOADS = {
    "train_b8_64": (Train, dict(size=64, batch=8, lr=0.025, count=64)),
    "train_b2_128": (Train, dict(size=128, batch=2, lr=0.0125, count=16)),
    "infer_b1_64": (Infer, dict(size=64, pool=16)),
    "denoise_512": (Denoise, dict(size=512, pool=4)),
}


def setup(name: str, seed: int, workdir: Path, trace: dict | None = None):
    """Build a workload and run its warm-up operation."""
    cls, params = WORKLOADS[name]
    if cls is Denoise:
        params = dict(params, workdir=workdir)
    wl = cls(seed, setup_trace=trace, **params)
    wl.op()
    wl.check()
    return wl


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------

def run_op(wl, trace: OpTrace | None, stats: dict) -> dict | None:
    """One operation with its check; failures are counted, never skipped."""
    stats["attempted"] += 1
    try:
        timing = wl.op() if trace is None else wl.traced_op(trace)
    except PmtkError as exc:
        stats["failed"] += 1
        stats.setdefault("first_failure", repr(exc))
        return None
    try:
        wl.check()
    except CheckFailed as exc:
        stats["failed"] += 1
        stats.setdefault("first_failure", str(exc))
    return timing


def wavelet_ms(inputs: list) -> tuple:
    """Median time of one dwt2 and one idwt2 call on each listed array shape,
    summed over the list."""
    rng = np.random.default_rng(0)
    medians = {}
    for key in set(inputs):
        shape, dtype = key
        u = rng.standard_normal(shape).astype(dtype)
        fwd, inv = [], []
        for _ in range(7):
            t0 = perf_counter()
            s = wavelet.dwt2(u)
            t1 = perf_counter()
            wavelet.idwt2(s)
            t2 = perf_counter()
            fwd.append(t1 - t0)
            inv.append(t2 - t1)
        medians[key] = statistics.median(fwd), statistics.median(inv)
    return (sum(medians[k][0] for k in inputs) * 1e3,
            sum(medians[k][1] for k in inputs) * 1e3)


def per_layer(traces: list, op_ms: list) -> dict:
    """Median over traced operations of each per-layer figure."""
    med = statistics.median
    out = {}
    for name in PRIMITIVES:
        out[f"{name}.fwd_ms"] = med([t.fwd[name] * 1e3 for t in traces])
        out[f"{name}.bwd_ms"] = med([t.bwd[name] * 1e3 for t in traces])
        out[f"{name}.calls"] = int(med([t.calls[name] for t in traces]))
    for name in OUT_MB_PRIMITIVES:
        out[f"{name}.out_mb"] = med([t.out_bytes[name] / 1e6 for t in traces])
    for stage in STAGES:
        out[f"model.{stage}.fwd_ms"] = med([t.stage_fwd[stage] * 1e3 for t in traces])
        out[f"model.{stage}.bwd_ms"] = med([t.stage_bwd[stage] * 1e3 for t in traces])
    out["tensor.tape.records"] = int(med([t.records for t in traces]))
    for key in TIMED_CALLS:
        out[key] = med([t.extra[key] * 1e3 for t in traces])
    # traced operation time that no stage span or timed layer call covers;
    # the backward sweep is already inside the stages' bwd spans
    covered = [key for key in TIMED_CALLS if key != "tensor.backward.ms"]
    out["trace.stage_gap_ms"] = med([
        ms - 1e3 * (sum(t.stage_fwd.values()) + sum(t.stage_bwd.values())
                    + sum(t.extra[key] for key in covered))
        for t, ms in zip(traces, op_ms)])
    out["wavelet.dwt2.ms"], out["wavelet.idwt2.ms"] = wavelet_ms(traces[0].wavelet_inputs)
    return out
