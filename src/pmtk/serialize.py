"""Checkpoint files: one numpy ``.npz`` archive per model.

One float32/float64 entry per dotted parameter name, in ``named_parameters``
order; the archive records each entry's name, shape and dtype and CRC-checks
its payload. It is written to ``<path>.tmp``, synced and renamed onto ``path``,
so a crash mid-write leaves an earlier checkpoint whole. Version-1 files (a
``PMTK`` container with a ``.manifest`` sidecar) raise ``FormatError``, and so
does an archive that yields fewer or more entries than its
end-of-central-directory record counts, or none.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
# numpy's and zipfile's errors on damage; RuntimeError covers NotImplementedError
_DAMAGE = (zipfile.BadZipFile, ValueError, EOFError, OSError, MemoryError, RuntimeError,
           zlib.error)


def save_checkpoint(path, named_params) -> None:
    """Write parameters as one .npz archive, replacing ``path`` atomically."""
    arrays = {name: p.data for name, p in named_params}
    for name, a in arrays.items():
        if a.dtype not in _FLOATS:
            raise FormatError(f"{name}: only float32/float64 parameters, got {a.dtype}")
    if not arrays:
        raise FormatError("checkpoint with no parameters")
    tmp = Path(f"{path}.tmp")
    try:
        # through a handle, as np.savez appends .npz to a path without one
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _entry_total(fh) -> int | None:
    """The entry total of the end-of-central-directory record that ends the
    file (np.savez writes no archive comment), or None if none ends it.

    A total of 0xFFFF defers to the zip64 record when a zip64 locator
    precedes the end record.
    """
    fh.seek(max(fh.seek(0, os.SEEK_END) - 42, 0))
    tail = fh.read(42)
    locator, eocd = tail[:-22], tail[-22:]
    if eocd[:4] != b"PK\x05\x06":
        return None
    total = int.from_bytes(eocd[10:12], "little")
    if total == 0xFFFF and locator[:4] == b"PK\x06\x07":
        fh.seek(int.from_bytes(locator[8:16], "little"))
        record = fh.read(40)
        total = int.from_bytes(record[32:40], "little") if record[:4] == b"PK\x06\x06" else None
    return total


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into a name -> array map, in archive order."""
    # np.load reads through this handle: given the path, it opens its own,
    # which leaks when a damaged archive raises before the zip reader owns it
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == b"PMTK":
            raise FormatError(f"{path}: a version-1 PMTK container; retrain to write .npz")
        if magic != b"PK\x03\x04":
            raise FormatError(f"{path}: not an .npz checkpoint (starts with {magic!r})")
        total = _entry_total(fh)
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                names = archive.files
                out = {name: archive[name] for name in names}
        except _DAMAGE as exc:
            raise FormatError(f"{path}: unreadable archive: {exc!r}") from exc
    if total is None:
        raise FormatError(f"{path}: the archive does not end in its "
                          "end-of-central-directory record")
    # zipfile walks the central directory by its byte size and never checks
    # the count, so a damaged comment length can hide the entries after it
    if len(names) != total:
        raise FormatError(f"{path}: {len(names)} entries read, the archive records {total}")
    if not names:
        # save_checkpoint writes none such, and a model has parameters
        raise FormatError(f"{path}: the archive records no entries")
    if len(out) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise FormatError(f"{path}: entries appear twice: {', '.join(repeated)}")
    for name, a in out.items():
        if not isinstance(a, np.ndarray) or a.dtype not in _FLOATS:
            raise FormatError(f"{path}: entry {name} is not a float32/float64 array")
    return out


def restore_into(module, loaded: dict) -> None:
    """Copy loaded arrays into a module's parameters, matching by name.

    Every parameter must be in the checkpoint and every checkpoint entry must
    name a parameter; either mismatch means the checkpoint is of another model.
    Every entry must also have its parameter's dtype: a checkpoint loads in
    its own dtype, never cast. Every entry is checked before any is copied,
    so a rejected checkpoint leaves the module as it was.
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
        if loaded[name].dtype != p.data.dtype:
            raise FormatError(f"{name}: stored as {loaded[name].dtype}, the model's "
                              f"parameter is {p.data.dtype}")
    for name, p in named:
        p.data[...] = loaded[name]
