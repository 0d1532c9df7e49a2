"""Command-line behavior: exit codes, output files, @-config replay."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pmtk
from pmtk import cli, serialize
from pmtk.cli import build_parser, main
from pmtk.data import (Sample, SynthConfig, load_dataset, load_image, save_dataset,
                       save_image, split, synth_generate)
from pmtk.errors import FormatError
from pmtk.gradcheck import FAMILIES
from pmtk.model import PMamba, StagePlan, evaluate
from pmtk.pmd import DiffusionConfig, denoise_with_log, pmd_step_dwt



@pytest.fixture()
def image_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "input.pgm"
    save_image(path, rng.uniform(0.2, 0.8, (32, 32)))
    return path


def test_denoise_writes_image_csv_config(tmp_path, image_file):
    out = tmp_path / "out.pgm"
    rc = main(["denoise", "--in", str(image_file), "--out", str(out),
               "--mode", "dwt-attenuate", "--steps", "4"])
    assert rc == 0
    assert out.exists()
    lines = (tmp_path / "out.pgm.csv").read_text().strip().split("\n")
    assert lines[0] == "step,flat_variance,edge_contrast"
    assert len(lines) == 6  # header + steps 0..4
    cfg = (tmp_path / "out.pgm.config").read_text()
    assert cfg.startswith("denoise\n")
    assert "--steps\n4" in cfg


def test_denoise_fd_mode(tmp_path, image_file):
    out = tmp_path / "fd.pgm"
    rc = main(["denoise", "--in", str(image_file), "--out", str(out),
               "--mode", "fd", "--steps", "2"])
    assert rc == 0
    assert load_image(out).shape == (1, 32, 32)


@pytest.mark.parametrize("mode", ["dwt-attenuate", "dwt-aswritten"])
def test_denoise_dt_rejected_in_wavelet_modes(tmp_path, image_file, capsys, mode):
    out = tmp_path / "o.pgm"
    rc = main(["denoise", "--in", str(image_file), "--out", str(out),
               "--mode", mode, "--dt", "0.1"])
    assert rc == 1
    assert "--dt" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_fd_mode_takes_dt(tmp_path, image_file):
    out = tmp_path / "fd.pgm"
    rc = main(["denoise", "--in", str(image_file), "--out", str(out),
               "--mode", "fd", "--dt", "0.2", "--steps", "2"])
    assert rc == 0
    assert "--dt\n0.2" in (tmp_path / "fd.pgm.config").read_text()


def test_main_reuses_one_parser_without_carrying_options(tmp_path, image_file):
    assert build_parser() is build_parser()
    csv = tmp_path / "c.csv"
    rc = main(["denoise", "--in", str(image_file), "--out", str(tmp_path / "fd.pgm"),
               "--mode", "fd", "--dt", "0.1", "--csv", str(csv)])
    assert rc == 0 and csv.exists()
    # a --dt carried over would be rejected in the default dwt-attenuate mode
    rc = main(["denoise", "--in", str(image_file), "--out", str(tmp_path / "plain.pgm")])
    assert rc == 0
    assert (tmp_path / "plain.pgm.csv").exists()
    config = (tmp_path / "plain.pgm.config").read_text()
    assert "--dt" not in config and "--csv" not in config


@pytest.mark.parametrize("mode", ["dwt-attenuate", "dwt-aswritten"])
def test_denoise_wavelet_modes_reject_odd_extents(tmp_path, capsys, mode):
    path = tmp_path / "odd.pgm"
    save_image(path, np.full((5, 7), 0.5))
    out = tmp_path / "o.pgm"
    rc = main(["denoise", "--in", str(path), "--out", str(out), "--mode", mode])
    assert rc == 1
    assert "trailing extents must be even and >= 2, got 5x7" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "o.pgm.csv").exists()
    # the fd solver has no block structure, so odd extents are fine there
    assert main(["denoise", "--in", str(path), "--out", str(out), "--mode", "fd"]) == 0


@pytest.mark.parametrize("mode, diffusion", [("dwt-attenuate", "attenuate"),
                                             ("dwt-aswritten", "as-written")])
def test_denoise_plane_run_writes_image_loop_files(tmp_path, mode, diffusion):
    # `pmtk denoise` runs the wavelet step on Haar planes; its files must be
    # the bytes the image-layout loop of pmd_step_dwt gives
    path = tmp_path / "in.pgm"
    save_image(path, synth_generate(SynthConfig(seed=3, count=1, size=64))[0].image)
    out = tmp_path / "cli.pgm"
    assert main(["denoise", "--in", str(path), "--out", str(out), "--mode", mode]) == 0
    cfg = DiffusionConfig(k=1.0, steps=10, mode=diffusion)
    ref, rows = denoise_with_log(load_image(path)[0], cfg, pmd_step_dwt)
    save_image(tmp_path / "ref.pgm", np.clip(ref, 0.0, 1.0))
    assert out.read_bytes() == (tmp_path / "ref.pgm").read_bytes()
    csv = "step,flat_variance,edge_contrast\n" + "".join(
        f"{s},{v:.8g},{c:.8g}\n" for s, v, c in rows)
    assert (tmp_path / "cli.pgm.csv").read_text() == csv


def test_python_dash_m_pmtk_denoise_matches_in_process(tmp_path, image_file):
    # an uninstalled checkout reaches the CLI as `python -m pmtk`
    src = str(Path(pmtk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    sub, here = tmp_path / "sub.pgm", tmp_path / "here.pgm"
    proc = subprocess.run(
        [sys.executable, "-m", "pmtk", "denoise", "--in", str(image_file),
         "--out", str(sub)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert main(["denoise", "--in", str(image_file), "--out", str(here)]) == 0
    assert sub.read_bytes() == here.read_bytes()
    assert (tmp_path / "sub.pgm.csv").read_bytes() == (tmp_path / "here.pgm.csv").read_bytes()


def test_denoise_missing_input_is_runtime_error(tmp_path):
    rc = main(["denoise", "--in", str(tmp_path / "nope.pgm"),
               "--out", str(tmp_path / "o.pgm")])
    assert rc == 1


def test_denoise_bad_mode_is_usage_error(tmp_path, image_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--in", str(image_file),
              "--out", str(tmp_path / "o.pgm"), "--mode", "magic"])
    assert exc.value.code == 2


def test_dwt_writes_four_bands(tmp_path, image_file):
    prefix = tmp_path / "bands"
    rc = main(["dwt", "--in", str(image_file), "--out-prefix", str(prefix)])
    assert rc == 0
    for band in ("ll", "lh", "hl", "hh"):
        img = load_image(f"{prefix}_{band}.pgm")
        assert img.shape == (1, 16, 16)


def test_dwt_config_replay_writes_the_same_bands(tmp_path, image_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["dwt", "--in", str(image_file), "--out-prefix", str(a)]) == 0
    config = Path(f"{a}.config").read_text().split("\n")
    assert config[config.index("--out-prefix") + 1] == str(a)
    # replay from the recorded config, overriding only the prefix
    assert main([f"@{a}.config", "--out-prefix", str(b)]) == 0
    for band in ("ll", "lh", "hl", "hh"):
        assert Path(f"{b}_{band}.pgm").read_bytes() == Path(f"{a}_{band}.pgm").read_bytes()


def test_synth_creates_loadable_dataset(tmp_path):
    root = tmp_path / "data"
    rc = main(["synth", "--out", str(root), "--count", "12", "--size", "32",
               "--seed", "5"])
    assert rc == 0
    splits = load_dataset(root)
    assert sum(len(v) for v in splits.values()) == 12
    assert (root / "synth.config").exists()


def test_synth_writes_what_the_generated_list_writes(tmp_path):
    # pmtk synth generates each sample as it is written; its files, the
    # manifest included, are those of splitting the whole generated list
    cfg = SynthConfig(seed=4, count=12, size=32)
    train, val, test = split(synth_generate(cfg), seed=cfg.seed)
    save_dataset(tmp_path / "want", {"train": train, "val": val, "test": test})
    assert main(["synth", "--out", str(tmp_path / "got"), "--count", "12",
                 "--size", "32", "--seed", "4"]) == 0

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                if p.is_file() and p.name != "synth.config"}

    want = files(tmp_path / "want")
    assert len(want) == 2 * 12 + 1
    assert files(tmp_path / "got") == want


def test_synth_holds_one_sample_at_a_time(tmp_path):
    # Holding the whole dataset until it was written, pmtk synth at 256 px
    # traced 6.4 MB at --count 2 and 21.1 MB at --count 16; streamed, both
    # read ~3.2-3.4 MB.
    size = 256
    peaks = {}
    for count in (2, 16):
        tracemalloc.start()
        try:
            assert main(["synth", "--out", str(tmp_path / f"d{count}"), "--count",
                         str(count), "--size", str(size)]) == 0
            _, peaks[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    one_sample = size * size * 8 * 2   # a float64 image and an int64 mask
    assert peaks[16] - peaks[2] <= one_sample


def test_synth_config_replay_reproduces(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--out", str(a), "--count", "6", "--size", "32", "--seed", "3"])
    # replay from the recorded config, overriding only the destination
    rc = main([f"@{a / 'synth.config'}", "--out", str(b)])
    assert rc == 0
    sa, sb = load_dataset(a), load_dataset(b)
    for name in sa:
        for x, y in zip(sa[name], sb[name]):
            assert x.id == y.id
            np.testing.assert_array_equal(x.image, y.image)


def test_train_eval_chain(tmp_path):
    root = tmp_path / "data"
    main(["synth", "--out", str(root), "--count", "12", "--size", "32"])
    ckpt = tmp_path / "model.ckpt"
    rc = main(["train", "--data", str(root), "--out", str(ckpt),
               "--epochs", "1", "--lr", "0.02"])
    assert rc == 0
    # one archive, no .manifest sidecar and no leftover .tmp
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data", "model.ckpt", "model.ckpt.config", "model.ckpt.log.csv"]
    log = (tmp_path / "model.ckpt.log.csv").read_text().strip().split("\n")
    assert log[0].startswith("epoch,loss_prim")
    assert len(log) == 2

    report = tmp_path / "eval.csv"
    rc = main(["eval", "--data", str(root), "--checkpoint", str(ckpt),
               "--split", "val", "--out", str(report)])
    assert rc == 0
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "id,precision,recall,dice"
    assert lines[-1].startswith("mean,")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_exits_1_with_message(tmp_path, capsys):
    root = tmp_path / "data"
    # 10 samples split 8/1/1, so training has a validation split
    main(["synth", "--out", str(root), "--count", "10", "--size", "32"])
    rc = main(["train", "--data", str(root), "--out", str(tmp_path / "m.ckpt"),
               "--epochs", "2", "--lr", "5.0", "--batch-size", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "non-finite loss nan at epoch 1, batch 1" in err
    # the message names the first op whose output went non-finite
    assert re.search(r"batch 1: \w+\.\w+ \(tape record \d+\) produced a non-finite value", err)
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("batch_size", ["0", "-3"])
def test_train_bad_batch_size_exits_1(tmp_path, capsys, batch_size):
    root = tmp_path / "data"
    main(["synth", "--out", str(root), "--count", "10", "--size", "32"])
    rc = main(["train", "--data", str(root), "--out", str(tmp_path / "m.ckpt"),
               "--epochs", "1", "--batch-size", batch_size])
    assert rc == 1
    assert f"batch size must be at least 1, got {batch_size}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_train_without_val_split_exits_1(tmp_path, capsys):
    root = tmp_path / "data"
    # 8 samples split 8/0/0: no validation split
    main(["synth", "--out", str(root), "--count", "8", "--size", "32"])
    rc = main(["train", "--data", str(root), "--out", str(tmp_path / "m.ckpt"),
               "--epochs", "1"])
    assert rc == 1
    assert f"split 'val' is empty in {root}" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_rejects_mixed_extents_naming_the_file(tmp_path, capsys):
    # one 64x64 image among 32x32 ones fails where it is read, not in np.stack
    root = tmp_path / "data"
    main(["synth", "--out", str(root), "--count", "10", "--size", "32"])
    big = synth_generate(SynthConfig(seed=1, count=1, size=64))[0]
    save_image(root / "images" / "s00003.pgm", big.image)
    save_image(root / "masks" / "s00003.pgm", big.mask.astype(np.float64))
    rc = main(["train", "--data", str(root), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.search(r"s000\d\d\.pgm: image is \d\dx\d\d, but \S+s000\d\d\.pgm is", err), err
    assert "s00003.pgm" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_extent_the_model_rejects_names_the_file(tmp_path, capsys, command):
    root = tmp_path / "data"
    rng = np.random.default_rng(0)
    samples = [Sample(f"s{i}", rng.uniform(size=(1, 48, 48)), np.zeros((48, 48), np.int64))
               for i in range(3)]
    save_dataset(root, {"train": samples[:2], "val": samples[2:]})
    args = {"train": ["--epochs", "1"], "eval": ["--checkpoint", str(tmp_path / "none.ckpt")]}
    rc = main([command, "--data", str(root), "--out", str(tmp_path / "out")] + args[command])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.search(r"images/s\d\.pgm: extent 48 is not a multiple of 32", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_eval_missing_checkpoint(tmp_path, capsys):
    root = tmp_path / "data"
    # 10 samples split 8/1/1, so eval gets past the split and opens the checkpoint
    main(["synth", "--out", str(root), "--count", "10", "--size", "32"])
    rc = main(["eval", "--data", str(root), "--checkpoint",
               str(tmp_path / "none.ckpt"), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "none.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("raw, message", [
    (b"PMTK\x01\x01\x01\x03\x00\x00\x00" + bytes(24), "version-1 PMTK container"),
    (b"", "not an .npz checkpoint"),
    (b"PK\x03\x04\x14\x00\x00", "unreadable archive"),
], ids=["version-1", "empty", "truncated"])
def test_eval_rejects_a_bad_checkpoint(tmp_path, capsys, raw, message):
    root = tmp_path / "data"
    main(["synth", "--out", str(root), "--count", "10", "--size", "32"])
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(raw)
    rc = main(["eval", "--data", str(root), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_eval_predicts_in_the_checkpoints_dtype(tmp_path, monkeypatch):
    root = tmp_path / "data"
    main(["synth", "--out", str(root), "--count", "10", "--size", "32"])
    model = PMamba(np.random.default_rng(3), StagePlan(), 32).astype(np.float64)
    ckpt = tmp_path / "f64.ckpt"
    serialize.save_checkpoint(ckpt, model.named_parameters())
    evaluated = []

    def recording_evaluate(m, samples):
        evaluated.append({p.data.dtype for p in m.parameters()})
        return evaluate(m, samples)

    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    rc = main(["eval", "--data", str(root), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    assert evaluated == [{np.dtype(np.float64)}]
    _, means = evaluate(model, load_dataset(root)["val"])
    last = (tmp_path / "r.csv").read_text().strip().split("\n")[-1]
    assert last == f"mean,{means['precision']:.6f},{means['recall']:.6f},{means['dice']:.6f}"
    # the same checkpoint does not load, cast, into a float32 model
    with pytest.raises(FormatError,
                       match=r"pmd_branch\.\S+: stored as float64, the model's parameter is float32"):
        serialize.restore_into(PMamba(np.random.default_rng(0), StagePlan(), 32),
                               serialize.load_checkpoint(ckpt))


def test_bench_writes_scaling_and_profile(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--out", str(out), "--lengths", "16,32,64,128",
               "--d", "8", "--s", "2", "--reps", "1"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "L,mixer,mean_ms,std_ms"
    assert len(lines) == 9  # 4 scan + 4 attention rows
    model_lines = (tmp_path / "bench_model.csv").read_text().strip().split("\n")
    assert model_lines[0] == "params,forward_ms,peak_bytes"
    replay = build_parser().parse_args([f"@{out}.config"])
    assert replay.lengths == [16, 32, 64, 128]


def test_bench_bad_lengths_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--out", str(tmp_path / "b.csv"), "--lengths", "64,128,x,256"])
    assert exc.value.code == 2
    assert "comma-separated integers" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert header == "float64 leaves, tolerance 1.0e-06"
    assert [row.split()[0] for row in rows] == list(FAMILIES)
    assert all(row.endswith(" PASS") for row in rows)


def test_installed_entry_point_smoke(tmp_path):
    # main() end to end in a fresh interpreter, the call the `pmtk` console
    # script makes; the installed script itself runs in CI, after `pip install .`
    root = tmp_path / "ds"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from pmtk.cli import main; sys.exit(main(sys.argv[1:]))",
         "synth", "--out", str(root), "--count", "4", "--size", "32"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (root / "manifest.csv").exists()
