"""Batch command-line front end.

One executable, one subcommand per capability; all output goes to files.
Every run writes its fully resolved invocation to ``<output>.config``, one
argument per line starting with the subcommand, so ``pmtk @that.config``
reproduces the run and trailing flags override recorded ones
(argparse reads @-prefixed files one argument per line).

Exit codes: 0 success, 1 runtime failure (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .data import (SynthConfig, image_path, load_dataset, load_image,
                   save_dataset, save_image, split, synth_sample)
from .errors import ConfigError, DataError, PmtkError
from .gradcheck import TOL, check_model_micro, run_gradient_suite
from .model import (LOG_HEADER, TOTAL_STRIDE, PMamba, StagePlan, TrainConfig,
                    evaluate, model_profile, train_toy)
from .pmd import DiffusionConfig, denoise_with_log, pmd_step_fd
from .ssm import loglog_slope, scan_complexity_probe
from .wavelet import dwt2

DENOISE_MODES = ("fd", "dwt-aswritten", "dwt-attenuate")


# argparse dests that differ from their option strings
_DEST_FLAGS = {"input": "--in", "output": "--out"}


def write_config(path, args: argparse.Namespace) -> None:
    lines = [args.command]
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command") or value is None:
            continue
        flag = _DEST_FLAGS.get(key, "--" + key.replace("_", "-"))
        if isinstance(value, bool):
            if value:
                lines.append(flag)
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.extend((flag, str(value)))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_denoise(args) -> int:
    if args.mode == "fd":
        dt = DiffusionConfig.dt if args.dt is None else args.dt
        cfg = DiffusionConfig(k=args.k, steps=args.steps, dt=dt)
        step_fn = pmd_step_fd
    elif args.dt is not None:
        # the wavelet step applies its gate once per step and never reads cfg.dt
        raise ConfigError(f"--dt applies only to --mode fd, not {args.mode}")
    else:
        mode = "attenuate" if args.mode == "dwt-attenuate" else "as-written"
        cfg = DiffusionConfig(k=args.k, steps=args.steps, mode=mode)
        step_fn = None  # the wavelet step on Haar planes
    u = load_image(args.input)[0]
    out, rows = denoise_with_log(u, cfg, step_fn)
    save_image(args.output, np.clip(out, 0.0, 1.0))
    csv_path = args.csv or args.output + ".csv"
    _write_csv(csv_path, "step,flat_variance,edge_contrast",
               ((s, f"{v:.8g}", f"{c:.8g}") for s, v, c in rows))
    write_config(args.output + ".config", args)
    return 0


def cmd_dwt(args) -> int:
    u = load_image(args.input)[0]
    s = dwt2(u)
    # Visualization scaling: ll spans [0,2]; detail bands are signed.
    save_image(args.out_prefix + "_ll.pgm", np.clip(s.ll / 2.0, 0, 1))
    for name, band in (("lh", s.lh), ("hl", s.hl), ("hh", s.hh)):
        save_image(f"{args.out_prefix}_{name}.pgm", np.clip(0.5 + band / 2.0, 0, 1))
    write_config(args.out_prefix + ".config", args)
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig(seed=args.seed, count=args.count, size=args.size,
                      noise_sigma=args.noise_sigma, shadow_prob=args.shadow_prob,
                      deform=args.deform)
    # split the indices, then generate each sample as it is written, so one
    # sample is in memory at a time
    parts = split(range(cfg.count), seed=args.seed)
    save_dataset(args.output, {name: (synth_sample(cfg, i) for i in part)
                               for name, part in zip(("train", "val", "test"), parts)})
    write_config(str(Path(args.output) / "synth.config"), args)
    return 0


def _nonempty_split(splits: dict, name: str, data) -> list:
    samples = splits.get(name, [])
    if not samples:
        raise DataError(f"split {name!r} is empty in {data}")
    return samples


def _model_extent(samples, data) -> int:
    """The extent of a dataset's images (load_dataset makes them square and
    of one extent), if the model can be built for it."""
    size = samples[0].image.shape[-1]
    if size % TOTAL_STRIDE:
        raise DataError(f"{image_path(data, samples[0].id)}: extent {size} is not a "
                        f"multiple of {TOTAL_STRIDE}, which the model needs")
    return size


def cmd_train(args) -> int:
    splits = load_dataset(args.data)
    train = _nonempty_split(splits, "train", args.data)
    # without validation samples every logged dice would be NaN
    val = _nonempty_split(splits, "val", args.data)
    size = _model_extent(train, args.data)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      lr=args.lr, seed=args.seed, size=size,
                      log_path=args.output + ".log.csv")
    model, history = train_toy(train, val, cfg)
    serialize.save_checkpoint(args.output, model.named_parameters())
    write_config(args.output + ".config", args)
    if history:
        last = history[-1]
        print(f"final val dice {last['val_dice']:.4f} "
              f"(precision {last['val_precision']:.4f}, recall {last['val_recall']:.4f})")
    return 0


def cmd_eval(args) -> int:
    samples = _nonempty_split(load_dataset(args.data), args.split, args.data)
    size = _model_extent(samples, args.data)
    loaded = serialize.load_checkpoint(args.checkpoint)
    model = PMamba(np.random.default_rng(0), StagePlan(), size)
    # the model predicts in the dtype the checkpoint stores: that of its
    # first entry (load_checkpoint returns at least one), as restore_into
    # rejects an entry whose dtype is not its parameter's
    model.astype(next(iter(loaded.values())).dtype)
    serialize.restore_into(model, loaded)
    rows, means = evaluate(model, samples)
    out_rows = [(sid, f"{p:.6f}", f"{r:.6f}", f"{d:.6f}") for sid, p, r, d in rows]
    out_rows.append(("mean", f"{means['precision']:.6f}", f"{means['recall']:.6f}",
                     f"{means['dice']:.6f}"))
    _write_csv(args.output, "id,precision,recall,dice", out_rows)
    write_config(args.output + ".config", args)
    print(f"dice {means['dice']:.4f} over {len(rows)} images")
    return 0


def cmd_bench(args) -> int:
    rows = scan_complexity_probe(args.lengths, d=args.d, s=args.s, reps=args.reps,
                                 seed=args.seed)
    _write_csv(args.output, "L,mixer,mean_ms,std_ms",
               ((L, m, f"{a:.6f}", f"{b:.6f}") for L, m, a, b in rows))
    for mixer in ("scan", "attention"):
        print(f"{mixer} log-log slope {loglog_slope(rows, mixer):.3f}")
    model = PMamba(np.random.default_rng(args.seed), StagePlan(), 64)
    prof = model_profile(model)
    model_path = str(Path(args.output).with_suffix("")) + "_model.csv"
    _write_csv(model_path, "params,forward_ms,peak_bytes",
               [(prof["params"], f"{prof['forward_ms']:.3f}", prof["peak_bytes"])])
    write_config(args.output + ".config", args)
    return 0


def cmd_gradcheck(args) -> int:
    seeds = tuple(range(args.seed, args.seed + 5))
    results = run_gradient_suite(seeds)
    print(f"float64 leaves, tolerance {TOL:.1e}")
    failed = False
    for name, err in results:
        ok = err <= TOL
        failed |= not ok
        print(f"{name:22s} max_rel_err {err:.3e} {'PASS' if ok else 'FAIL'}")
    if args.model:
        for seed in seeds:
            err = check_model_micro(seed)
            ok = err <= TOL
            failed |= not ok
            print(f"model(seed={seed})      max_rel_err {err:.3e} {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list:
    """Comma-separated integers, as ``--lengths`` takes them."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _seed(text: str) -> int:
    """A non-negative integer, as numpy's generators take a seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(prog="pmtk", fromfile_prefix_chars="@",
                                     description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="diffusion-denoise a PGM image")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--mode", choices=DENOISE_MODES, default="dwt-attenuate")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--dt", type=float, default=None,
                   help=f"time step of --mode fd (default {DiffusionConfig.dt})")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("dwt", help="write the four Haar subbands as images")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_dwt)

    p = sub.add_parser("synth", help="materialize a synthetic dataset directory")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--shadow-prob", type=float, default=0.3)
    p.add_argument("--deform", type=float, default=0.15)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the toy model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="val")
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="scan scaling CSV and model profile")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--lengths", type=_int_list, default="256,512,1024,2048")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--model", action="store_true",
                   help="also probe the assembled micro model (slower)")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PmtkError as exc:
        print(f"pmtk: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pmtk: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
