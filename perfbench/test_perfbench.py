"""Tests of the benchmark itself: smoke runs, metric names and drift guards.

Run from the repository root with ``python -m pytest perfbench``; a full run
takes under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from pmtk import data  # noqa: E402
from pmtk import model as M  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        assert f"\n{name} " in proc.stdout  # printed by name in the report


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("workload", ["train_b8_64", "train_b2_128"])
def test_train_loop_reproduces_train_toy(workload):
    cls, params = harness.WORKLOADS[workload]
    batch, size, seed = params["batch"], params["size"], 5
    count = 2 * batch
    wl = cls(seed, **dict(params, count=count))
    for _ in range(count // batch):
        wl.op()
        wl.check()
    samples = data.synth_generate(data.SynthConfig(seed=seed, count=count, size=size))
    cfg = M.TrainConfig(epochs=1, batch_size=batch, lr=params["lr"], seed=seed, size=size)
    ref, _ = M.train_toy(samples, [], cfg)
    for (name, p), (_, q) in zip(wl.model.named_parameters(), ref.named_parameters()):
        assert np.array_equal(p.data, q.data), name


@pytest.mark.parametrize("workload", ["train_b8_64", "infer_b1_64"])
def test_staged_forward_reproduces_model(workload):
    cls, params = harness.WORKLOADS[workload]
    wl = cls(2, **params)
    harness.check_staged_forward(wl.model, wl.guard_images())


def test_traced_denoise_reproduces_cli(tmp_path):
    cls, params = harness.WORKLOADS["denoise_512"]
    cls(4, workdir=tmp_path, **params).check_traced_matches_cli()


def test_check_rejects_non_finite_loss():
    cls, params = harness.WORKLOADS["train_b8_64"]
    wl = cls(1, **dict(params, count=8))
    wl.op()
    wl.check()
    for p in wl.model.parameters():
        p.data[...] = np.nan
    stats = {"attempted": 0, "failed": 0}
    with np.errstate(all="ignore"):
        harness.run_op(wl, None, stats)
    assert stats["failed"] == 1 and stats["attempted"] == 1
