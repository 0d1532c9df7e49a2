"""Command-line behavior: exit codes, output files, @-config replay."""

import re
import subprocess
import sys

import numpy as np
import pytest

from pmtk.cli import main
from pmtk.data import load_dataset, load_image, save_image


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


def test_synth_creates_loadable_dataset(tmp_path):
    root = tmp_path / "data"
    rc = main(["synth", "--out", str(root), "--count", "12", "--size", "32",
               "--seed", "5"])
    assert rc == 0
    splits = load_dataset(root)
    assert sum(len(v) for v in splits.values()) == 12
    assert (root / "synth.config").exists()


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
    assert ckpt.exists()
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


def test_train_without_val_split_exits_1(tmp_path, capsys):
    root = tmp_path / "data"
    # 8 samples split 8/0/0: no validation split
    main(["synth", "--out", str(root), "--count", "8", "--size", "32"])
    rc = main(["train", "--data", str(root), "--out", str(tmp_path / "m.ckpt"),
               "--epochs", "1"])
    assert rc == 1
    assert f"split 'val' is empty in {root}" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_eval_missing_checkpoint(tmp_path, capsys):
    root = tmp_path / "data"
    # 10 samples split 8/1/1, so eval gets past the split and opens the checkpoint
    main(["synth", "--out", str(root), "--count", "10", "--size", "32"])
    rc = main(["eval", "--data", str(root), "--checkpoint",
               str(tmp_path / "none.ckpt"), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "none.ckpt" in capsys.readouterr().err


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


def test_gradcheck_fast_passes(capsys):
    rc = main(["gradcheck", "--fast"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_installed_entry_point_smoke(tmp_path):
    # the console script itself, end to end in a subprocess
    root = tmp_path / "ds"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from pmtk.cli import main; sys.exit(main(sys.argv[1:]))",
         "synth", "--out", str(root), "--count", "4", "--size", "32"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (root / "manifest.csv").exists()
