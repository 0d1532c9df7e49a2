"""Container format: roundtrips and rejection of malformed files."""

import numpy as np
import pytest

from pmtk.errors import FormatError
from pmtk.serialize import (load_checkpoint, load_tensor, restore_into,
                            save_checkpoint, save_tensor)
from pmtk.tensor import Module, Parameter


def test_tensor_roundtrip_f64(tmp_path):
    a = np.random.default_rng(0).normal(size=(3, 4, 5))
    p = tmp_path / "t.pmtk"
    save_tensor(p, a)
    b = load_tensor(p)
    assert b.dtype == np.float64
    np.testing.assert_array_equal(a, b)


def test_tensor_roundtrip_f32(tmp_path):
    a = np.random.default_rng(1).normal(size=(7,)).astype(np.float32)
    p = tmp_path / "t.pmtk"
    save_tensor(p, a)
    b = load_tensor(p)
    assert b.dtype == np.float32
    np.testing.assert_array_equal(a, b)


def test_scalar_saves_as_length_one_vector(tmp_path):
    # contiguity normalization promotes 0-d input to rank 1
    p = tmp_path / "s.pmtk"
    save_tensor(p, np.float64(2.5))
    b = load_tensor(p)
    assert b.shape == (1,)
    assert float(b[0]) == 2.5


def test_integer_payload_rejected(tmp_path):
    with pytest.raises(FormatError):
        save_tensor(tmp_path / "i.pmtk", np.arange(4))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.pmtk"
    save_tensor(p, np.zeros(3))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_tensor(p)


def test_unsupported_version_rejected(tmp_path):
    p = tmp_path / "v.pmtk"
    save_tensor(p, np.zeros(3))
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_tensor(p)


def test_unknown_precision_code_rejected(tmp_path):
    p = tmp_path / "p.pmtk"
    save_tensor(p, np.zeros(3))
    raw = bytearray(p.read_bytes())
    raw[5] = 7
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="precision"):
        load_tensor(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "trunc.pmtk"
    save_tensor(p, np.zeros((2, 3)))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="payload"):
        load_tensor(p)


def test_truncated_header_rejected(tmp_path):
    p = tmp_path / "hdr.pmtk"
    p.write_bytes(b"PMTK\x01")
    with pytest.raises(FormatError, match="truncated"):
        load_tensor(p)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    named = [("a.w", Parameter(rng.normal(size=(2, 3)))),
             ("a.b", Parameter(rng.normal(size=(3,)))),
             ("head.k", Parameter(rng.normal(size=(1, 1, 2, 2))))]
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, named)
    loaded = load_checkpoint(p)
    assert set(loaded) == {"a.w", "a.b", "head.k"}
    for name, param in named:
        np.testing.assert_array_equal(loaded[name], param.data)


def test_checkpoint_missing_manifest(tmp_path):
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, [("w", Parameter(np.zeros(2)))])
    (tmp_path / "ck.pmtk.manifest").unlink()
    with pytest.raises(FormatError, match="manifest"):
        load_checkpoint(p)


def test_checkpoint_overrun_entry_rejected(tmp_path):
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, [("w", Parameter(np.zeros(2)))])
    man = tmp_path / "ck.pmtk.manifest"
    man.write_text(man.read_text() + "extra 5 0\n")
    with pytest.raises(FormatError, match="overruns"):
        load_checkpoint(p)


def test_checkpoint_malformed_manifest_line(tmp_path):
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, [("w", Parameter(np.zeros(2)))])
    (tmp_path / "ck.pmtk.manifest").write_text("just-one-token\n")
    with pytest.raises(FormatError, match="malformed"):
        load_checkpoint(p)


def test_empty_checkpoint_rejected(tmp_path):
    with pytest.raises(FormatError):
        save_checkpoint(tmp_path / "ck.pmtk", [])


def test_restore_rejects_entries_the_model_lacks(tmp_path):
    module = Module()
    module.w = Parameter(np.arange(3.0))
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, module.named_parameters())
    man = tmp_path / "ck.pmtk.manifest"
    man.write_text(man.read_text() + "extra.w 1 2\n")
    loaded = load_checkpoint(p)
    assert set(loaded) == {"w", "extra.w"}
    with pytest.raises(FormatError, match="extra.w"):
        restore_into(module, loaded)
