"""The bit-identity fingerprint (``tests/fingerprint.py``) repeats, and
covers every output it is meant to."""

from fingerprint import fingerprint

OUTPUTS = sorted(
    [f"init/{plan}/{dtype}" for plan in ("dwt", "none", "sobel") for dtype in ("f32", "f64")]
    + [f"steps/{dtype}/{part}" for dtype in ("f32", "f64") for part in ("loss", "grads", "params")]
    + ["tape/record_count", "tape/record_names"]
    + ["predict/micro@32", "predict/micro@96", "predict/default@64", "predict/default@128"]
    + [f"pmd_apply/{mode}/{part}" for mode in ("attenuate", "as-written")
       for part in ("forward", "input_grad")]
    + ["cli/synth", "cli/train", "cli/eval", "cli/dwt", "cli/denoise/fd",
       "cli/denoise/dwt-aswritten", "cli/denoise/dwt-attenuate"])


def test_fingerprint_repeats_in_process_and_covers_every_output():
    # digests depend on the numpy and BLAS build, so none is pinned here;
    # two runs in one process must agree, buffers reused and all
    first = fingerprint(micro=True)
    second = fingerprint(micro=True)
    assert sorted(first) == OUTPUTS
    assert first == second
    assert first["tape/record_count"] > 0
    digests = [v for k, v in first.items() if k != "tape/record_count"]
    assert all(len(v) == 64 for v in digests)
    # outputs that differ get different digests: no output was hashed empty
    assert len(set(digests)) == len(digests) - 2    # none/dwt plans init alike
