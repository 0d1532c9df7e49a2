"""Checkpoint archives: roundtrips, atomic writes and rejection of damaged files."""

import io
import struct
import zipfile

import numpy as np
import pytest

from pmtk.errors import FormatError
from pmtk.serialize import load_checkpoint, restore_into, save_checkpoint
from pmtk.tensor import Module, Parameter


def npy_member(shape, payload: bytes, descr="<f8") -> bytes:
    """An .npy member whose header claims ``shape`` over the raw ``payload``."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue() + payload


def write_archive(path, members) -> None:
    """Write (name, bytes) members into a zip, laid out as np.savez does."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, raw in members:
            zf.writestr(name, raw)


def roundtrip(tmp_path, named):
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, named)
    return load_checkpoint(p)


def test_tensor_roundtrip_f64(tmp_path):
    a = np.random.default_rng(0).normal(size=(3, 4, 5))
    b = roundtrip(tmp_path, [("t", Parameter(a, dtype=np.float64))])["t"]
    assert b.dtype == np.float64
    np.testing.assert_array_equal(a, b)


def test_tensor_roundtrip_f32(tmp_path):
    a = np.random.default_rng(1).normal(size=(7,)).astype(np.float32)
    b = roundtrip(tmp_path, [("t", Parameter(a, dtype=np.float32))])["t"]
    assert b.dtype == np.float32
    np.testing.assert_array_equal(a, b)


def test_scalar_saves_as_length_one_vector(tmp_path):
    # contiguity normalization in Tensor promotes 0-d input to rank 1
    b = roundtrip(tmp_path, [("s", Parameter(np.float64(2.5), dtype=np.float64))])["s"]
    assert b.shape == (1,)
    assert float(b[0]) == 2.5


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    named = [("a.w", Parameter(rng.normal(size=(2, 3)), dtype=np.float64)),
             ("a.b", Parameter(rng.normal(size=(3,)), dtype=np.float32)),
             ("head.k", Parameter(rng.normal(size=(1, 1, 2, 2)), dtype=np.float64))]
    loaded = roundtrip(tmp_path, named)
    assert list(loaded) == ["a.w", "a.b", "head.k"]
    for name, param in named:
        assert loaded[name].dtype == param.data.dtype
        np.testing.assert_array_equal(loaded[name], param.data)


def test_checkpoint_is_one_file(tmp_path):
    # no sidecar and no leftover temp file, also when replacing a checkpoint
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, [("w", Parameter(np.zeros(2)))])
    save_checkpoint(p, [("w", Parameter(np.ones(2)))])
    assert [f.name for f in tmp_path.iterdir()] == ["ck.pmtk"]
    np.testing.assert_array_equal(load_checkpoint(p)["w"], np.ones(2))


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, [("w", Parameter(np.arange(3.0)))])
    before = p.read_bytes()

    def savez_that_fails_midway(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_that_fails_midway)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(p, [("w", Parameter(np.ones(3)))])
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["ck.pmtk"]


def test_empty_checkpoint_rejected(tmp_path):
    with pytest.raises(FormatError):
        save_checkpoint(tmp_path / "ck.pmtk", [])


def test_integer_payload_rejected(tmp_path):
    param = Parameter(np.zeros(4))
    param.data = np.arange(4)
    with pytest.raises(FormatError, match="float32/float64"):
        save_checkpoint(tmp_path / "i.pmtk", [("w", param)])
    assert list(tmp_path.iterdir()) == []
    p = tmp_path / "i.npz"
    with open(p, "wb") as fh:
        np.savez(fh, w=np.arange(4))
    with pytest.raises(FormatError, match="entry w is not a float32/float64"):
        load_checkpoint(p)


def test_unknown_precision_code_rejected(tmp_path):
    # strings, objects and other float widths are not checkpoint entries
    p = tmp_path / "p.npz"
    for entry in (np.array(["abc"]), np.array([{"k": 1}], dtype=object),
                  np.zeros(3, np.float16)):
        with open(p, "wb") as fh:
            np.savez(fh, w=entry)
        with pytest.raises(FormatError, match="entry w is not|allow_pickle"):
            load_checkpoint(p)


def test_unsupported_version_rejected(tmp_path):
    # a version-1 container: magic, version, precision, rank, extents, payload
    p = tmp_path / "v1.pmtk"
    p.write_bytes(b"PMTK" + struct.pack("<BBBI", 1, 1, 1, 3) + np.zeros(3).tobytes())
    (tmp_path / "v1.pmtk.manifest").write_text("w 3 0\n")
    with pytest.raises(FormatError, match="version-1 PMTK container"):
        load_checkpoint(p)


def test_truncated_header_rejected(tmp_path):
    p = tmp_path / "hdr.pmtk"
    p.write_bytes(b"PMTK\x01")
    with pytest.raises(FormatError, match="version-1"):
        load_checkpoint(p)
    p.write_bytes(b"PK\x03\x04\x14\x00")
    with pytest.raises(FormatError, match="unreadable archive"):
        load_checkpoint(p)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.pmtk"
    for raw in (b"", b"PK", b"NOPE and some bytes", bytes(range(256))):
        p.write_bytes(raw)
        with pytest.raises(FormatError, match="not an .npz checkpoint"):
            load_checkpoint(p)


def test_bare_npy_rejected(tmp_path):
    p = tmp_path / "w.npy"
    np.save(p, np.zeros(3))
    with pytest.raises(FormatError, match="not an .npz checkpoint"):
        load_checkpoint(p)


def two_entry_checkpoint(tmp_path):
    """a = 0..2, b = 3..6, written by save_checkpoint."""
    p = tmp_path / "ck.pmtk"
    save_checkpoint(p, [("a", Parameter(np.arange(3.0), dtype=np.float64)),
                        ("b", Parameter(np.arange(3.0, 7.0), dtype=np.float64))])
    return p


def test_truncated_payload_rejected(tmp_path):
    p = two_entry_checkpoint(tmp_path)
    raw = p.read_bytes()
    for cut in range(len(raw)):
        p.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(p)


def test_flipped_payload_byte_rejected(tmp_path):
    p = two_entry_checkpoint(tmp_path)
    raw = bytearray(p.read_bytes())
    # b's last value sits just before the central directory
    at = raw.index(np.float64(6.0).tobytes())
    raw[at] ^= 0x01
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="CRC"):
        load_checkpoint(p)


def test_every_flipped_byte_is_caught_or_harmless(tmp_path):
    # zip fields nobody reads (timestamps, attributes) may change freely;
    # nothing may load wrong values or drop an entry
    p = two_entry_checkpoint(tmp_path)
    reference = load_checkpoint(p)
    raw = p.read_bytes()
    module = Module()
    module.a = Parameter(np.zeros(3), dtype=np.float64)
    module.b = Parameter(np.zeros(4), dtype=np.float64)
    for at in range(len(raw)):
        damaged = bytearray(raw)
        damaged[at] ^= 0xFF
        p.write_bytes(bytes(damaged))
        try:
            loaded = load_checkpoint(p)
        except FormatError:
            continue
        assert list(loaded) == ["a", "b"], f"byte {at}"
        restore_into(module, loaded)
        np.testing.assert_array_equal(module.a.data, reference["a"])
        np.testing.assert_array_equal(module.b.data, reference["b"])


def test_hidden_entries_rejected(tmp_path):
    # a comment length in the first central-directory record that runs over
    # the second record hides it from zipfile; the end record still counts 2
    p = two_entry_checkpoint(tmp_path)
    damaged = bytearray(p.read_bytes())
    damaged[damaged.index(b"PK\x01\x02") + 32] = 0xFF
    p.write_bytes(bytes(damaged))
    with pytest.raises(FormatError, match="1 entries read, the archive records 2"):
        load_checkpoint(p)


def test_archive_without_entries_rejected(tmp_path):
    # an entry's local header, then an end record that counts no entries:
    # zipfile reads an empty archive from it
    p = two_entry_checkpoint(tmp_path)
    raw = p.read_bytes()
    start = raw.index(b"PK\x01\x02")
    p.write_bytes(raw[:start] + struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 0, 0, 0, start, 0))
    with pytest.raises(FormatError, match="records no entries"):
        load_checkpoint(p)


def test_archive_comment_rejected(tmp_path):
    # np.savez writes none, so the end record must be the last 22 bytes
    p = tmp_path / "ck.npz"
    with zipfile.ZipFile(p, "w") as zf:
        zf.writestr("a.npy", npy_member((3,), np.arange(3.0).tobytes()))
        zf.comment = b"note"
    with pytest.raises(FormatError, match="does not end in its end-of-central-directory"):
        load_checkpoint(p)


def as_zip64(raw: bytes, total: int) -> bytes:
    """``raw`` ended by a zip64 end record counting ``total`` entries, its
    locator, and an end record whose counts (0xFFFF) defer to it."""
    size_cd, offset_cd = struct.unpack("<II", raw[-10:-2])
    body = raw[:-22]
    record = struct.pack("<4sQHHIIQQQQ", b"PK\x06\x06", 44, 45, 45, 0, 0,
                         total, total, size_cd, offset_cd)
    locator = struct.pack("<4sIQI", b"PK\x06\x07", 0, len(body), 1)
    end = struct.pack("<4sHHHHIIH", b"PK\x05\x06", 0, 0, 0xFFFF, 0xFFFF,
                      size_cd, offset_cd, 0)
    return body + record + locator + end


def test_zip64_entry_total_is_read(tmp_path):
    p = two_entry_checkpoint(tmp_path)
    raw = p.read_bytes()
    p.write_bytes(as_zip64(raw, 2))
    assert list(load_checkpoint(p)) == ["a", "b"]
    p.write_bytes(as_zip64(raw, 3))
    with pytest.raises(FormatError, match="2 entries read, the archive records 3"):
        load_checkpoint(p)


def test_damaged_zip_fields_rejected(tmp_path):
    # zipfile raises RuntimeError, NotImplementedError and zlib.error for these
    p = two_entry_checkpoint(tmp_path)
    stored = p.read_bytes()
    directory = stored.index(b"PK\x01\x02")
    buf = io.BytesIO()
    np.savez_compressed(buf, **load_checkpoint(p))
    deflated = buf.getvalue()
    name_len, extra_len = struct.unpack("<HH", deflated[26:30])
    for raw, at, value in (
            (stored, directory + 8, 0x01),  # general-purpose flags: encrypted
            (stored, directory + 10, 99),  # compression method: unknown
            (deflated, 30 + name_len + extra_len, 0x07)):  # reserved deflate block type
        damaged = bytearray(raw)
        damaged[at] = value
        p.write_bytes(bytes(damaged))
        with pytest.raises(FormatError, match="unreadable archive"):
            load_checkpoint(p)


@pytest.mark.parametrize("shape", [(1, -2), (3, -1), (-1, -5), (-5,)],
                         ids=["1x-2", "3x-1", "-1x-5", "-5"])
def test_checkpoint_negative_extent_rejected(tmp_path, shape):
    # in the version-1 manifest, `a 1,-2 0` read a as (1, 5) into b's values
    p = tmp_path / "ck.npz"
    write_archive(p, [("a.npy", npy_member(shape, np.arange(5.0).tobytes())),
                      ("b.npy", npy_member((4,), np.arange(3.0, 7.0).tobytes()))])
    with pytest.raises(FormatError, match="unreadable archive"):
        load_checkpoint(p)


def test_checkpoint_overrun_entry_rejected(tmp_path):
    # the header claims more values than the member holds; 2**40 float64s is
    # more than numpy will allocate, so the claim fails before any read
    p = tmp_path / "ck.npz"
    for extent in (5, 2**40):
        write_archive(p, [("w.npy", npy_member((extent,), np.zeros(2).tobytes()))])
        with pytest.raises(FormatError, match="unreadable archive"):
            load_checkpoint(p)


def test_checkpoint_malformed_entry_header_rejected(tmp_path):
    p = tmp_path / "ck.npz"
    member = npy_member((2,), np.zeros(2).tobytes()).replace(b"'shape'", b"'shapf'")
    write_archive(p, [("w.npy", member)])
    with pytest.raises(FormatError, match="unreadable archive"):
        load_checkpoint(p)


def test_checkpoint_repeated_name_rejected(tmp_path):
    p = tmp_path / "ck.npz"
    with pytest.warns(UserWarning, match="Duplicate name"):
        write_archive(p, [("a.npy", npy_member((3,), np.arange(3.0).tobytes())),
                          ("b.npy", npy_member((4,), np.arange(4.0).tobytes())),
                          ("b.npy", npy_member((4,), np.ones(4).tobytes()))])
    with pytest.raises(FormatError, match="appear twice: b"):
        load_checkpoint(p)


def test_restore_rejects_entries_the_model_lacks(tmp_path):
    module = Module()
    module.w = Parameter(np.arange(3.0))
    p = tmp_path / "ck.npz"
    with open(p, "wb") as fh:
        np.savez(fh, w=module.w.data, **{"extra.w": np.ones(1)})
    loaded = load_checkpoint(p)
    assert list(loaded) == ["w", "extra.w"]
    with pytest.raises(FormatError, match="extra.w"):
        restore_into(module, loaded)


def test_restore_rejects_another_dtype_naming_the_entry():
    module = Module()
    module.a = Parameter(np.zeros(2), dtype=np.float64)
    module.b = Parameter(np.zeros(3), dtype=np.float32)
    with pytest.raises(FormatError, match="b: stored as float64, the model's parameter is float32"):
        restore_into(module, {"a": np.ones(2), "b": np.ones(3)})
    np.testing.assert_array_equal(module.a.data, np.zeros(2))
    assert module.b.data.dtype == np.float32


@pytest.mark.parametrize("loaded, match", [
    ({"a": np.ones(2), "b": np.ones(4)}, "b: shape"),
    ({"a": np.ones(2)}, "missing parameter b"),
], ids=["wrong-shape", "missing"])
def test_rejected_restore_leaves_the_module_unchanged(loaded, match):
    module = Module()
    module.a = Parameter(np.zeros(2))
    module.b = Parameter(np.zeros(3))
    assert [name for name, _ in module.named_parameters()] == ["a", "b"]
    with pytest.raises(FormatError, match=match):
        restore_into(module, loaded)
    np.testing.assert_array_equal(module.a.data, np.zeros(2))
    np.testing.assert_array_equal(module.b.data, np.zeros(3))
