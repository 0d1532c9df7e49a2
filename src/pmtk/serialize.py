"""On-disk tensor container and checkpoint files.

Single-tensor layout (little-endian throughout):

    offset 0   magic        4 bytes  b"PMTK"
    offset 4   version      u8       currently 1
    offset 5   precision    u8       0 = float32, 1 = float64
    offset 6   rank         u8
    offset 7   extents      rank x u32
    then       payload      raw row-major floats

A checkpoint is one such container holding every parameter flattened and
concatenated, next to a plain-text manifest mapping parameter names to shapes
and flat offsets.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"PMTK"
VERSION = 1
_PRECISION_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_PRECISION_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_tensor(path, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    if array.dtype not in _PRECISION_CODE:
        raise FormatError(f"only float32/float64 payloads are supported, got {array.dtype}")
    if array.ndim > 255:
        raise FormatError("rank exceeds the u8 header field")
    if any(n > 0xFFFFFFFF for n in array.shape):
        raise FormatError("extent exceeds the u32 header field")
    header = MAGIC + struct.pack("<BBB", VERSION, _PRECISION_CODE[array.dtype], array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes())


def load_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 7:
        raise FormatError(f"{path}: truncated header")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    version, prec, rank = struct.unpack("<BBB", raw[4:7])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if prec not in _PRECISION_DTYPE:
        raise FormatError(f"{path}: unknown precision code {prec}")
    need = 7 + 4 * rank
    if len(raw) < need:
        raise FormatError(f"{path}: truncated extents")
    shape = struct.unpack(f"<{rank}I", raw[7:need])
    dtype = _PRECISION_DTYPE[prec]
    count = int(np.prod(shape)) if rank else 1
    payload = raw[need:]
    if len(payload) != count * dtype.itemsize:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {count * dtype.itemsize}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def save_checkpoint(path, named_params) -> None:
    """Write parameters as one flat container plus a .manifest text file."""
    names, arrays = [], []
    for name, p in named_params:
        names.append(name)
        arrays.append(np.ascontiguousarray(p.data))
    if not arrays:
        raise FormatError("checkpoint with no parameters")
    dtype = arrays[0].dtype
    if any(a.dtype != dtype for a in arrays):
        raise FormatError("checkpoint parameters must share one dtype")
    flat = np.concatenate([a.reshape(-1) for a in arrays])
    save_tensor(path, flat)
    lines = []
    offset = 0
    for name, a in zip(names, arrays):
        shape = ",".join(str(n) for n in a.shape)
        lines.append(f"{name} {shape or 'scalar'} {offset}")
        offset += a.size
    Path(str(path) + ".manifest").write_text("\n".join(lines) + "\n")


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into a name -> array map."""
    flat = load_tensor(path)
    manifest = Path(str(path) + ".manifest")
    if not manifest.exists():
        raise FormatError(f"{manifest}: missing manifest")
    out = {}
    for line in manifest.read_text().splitlines():
        if not line.strip():
            continue
        try:
            name, shape_s, offset_s = line.rsplit(" ", 2)
            shape = () if shape_s == "scalar" else tuple(int(n) for n in shape_s.split(","))
            offset = int(offset_s)
        except ValueError as exc:
            raise FormatError(f"{manifest}: malformed line {line!r}") from exc
        if name in out:
            raise FormatError(f"{manifest}: {name} is listed twice")
        count = int(np.prod(shape)) if shape else 1
        # a negative offset would slice from the end of the container, into
        # another entry's values
        if offset < 0:
            raise FormatError(f"{manifest}: {name} has negative offset {offset}")
        if offset + count > flat.size:
            raise FormatError(f"{manifest}: {name} overruns the container")
        out[name] = flat[offset:offset + count].reshape(shape)
    return out


def restore_into(module, loaded: dict) -> None:
    """Copy loaded arrays into a module's parameters, matching by name.

    Every parameter must be in the checkpoint and every checkpoint entry must
    name a parameter; either mismatch means the checkpoint is of another model.
    Every entry is checked before any is copied, so a rejected checkpoint
    leaves the module as it was.
    """
    named = list(module.named_parameters())
    extra = sorted(set(loaded) - {name for name, _ in named})
    if extra:
        raise FormatError(f"checkpoint has entries the model lacks: {', '.join(extra)}")
    for name, p in named:
        if name not in loaded:
            raise FormatError(f"checkpoint missing parameter {name}")
        a = loaded[name]
        if a.shape != p.data.shape:
            raise FormatError(f"{name}: shape {a.shape} does not match model {p.data.shape}")
    for name, p in named:
        p.data[...] = loaded[name].astype(p.data.dtype)
