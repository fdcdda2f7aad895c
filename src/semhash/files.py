"""The file layer: UTF-8 text inputs, atomic writes, strict JSON and the binary container.

A binary file's reader checks its content by building the value's type
inside ``read_file``'s block.
"""
from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import MalformedFile, NonFiniteInput, ShapeMismatch, VersionMismatch


def read_text(path: str | Path) -> str:
    """Contents of a UTF-8 text input file; ``MalformedFile`` if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise MalformedFile(f"{path}: not UTF-8 text") from None


def write_atomic(path: str | Path, *chunks) -> None:
    """Replace ``path`` with ``chunks`` written in turn, without a partial file.

    Each chunk is text (written as UTF-8) or a bytes-like object such as a
    contiguous array, written as is without a copy.  The chunks go to a
    temporary file beside ``path`` that ``os.replace`` then renames over it,
    so an interrupted write leaves the previous file whole.  The new file has
    the default permissions, and a symlink at ``path`` is replaced, not
    written through.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the file the caller asked for
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_json(path: str | Path, obj) -> None:
    """Replace ``path`` with ``obj`` as strict JSON (no NaN or inf), keys sorted, and a newline."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def file_header(magic: bytes, version: int, *fields: int) -> bytes:
    """A binary file's header: ``magic``, then ``version`` and ``fields`` as little-endian u32."""
    return magic + struct.pack(f"<{1 + len(fields)}I", version, *fields)


@contextmanager
def read_file(path: str | Path, magic: bytes, version: int, n_fields: int):
    """``with`` block over a file written as ``file_header(...)`` + payload: ``(fields, take)``.

    ``take(dtype, count)`` is the next ``count`` payload items as a writable
    array over the one buffer that the file is read into.  A short header,
    another magic, a payload shorter than the takes or bytes left when the
    block ends raise ``MalformedFile``; another version ``VersionMismatch``.
    A ``ShapeMismatch`` or ``NonFiniteInput`` raised in the block, by the type
    it builds, becomes a ``MalformedFile`` naming the file.
    """
    with Path(path).open("rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw) :]  # shorter if the file shrank since its size was read
    offset = len(magic) + 4 * (1 + n_fields)
    if len(raw) < offset:
        raise MalformedFile(f"{path}: truncated header ({len(raw)} bytes)")
    if not raw.startswith(magic):
        raise MalformedFile(f"{path}: bad magic {bytes(raw[: len(magic)])!r}")
    found, *fields = struct.unpack_from(f"<{1 + n_fields}I", raw, len(magic))
    if found != version:
        raise VersionMismatch(f"{path}: unsupported version {found}")

    def take(dtype, count: int) -> np.ndarray:
        nonlocal offset
        dtype = np.dtype(dtype)
        end = offset + dtype.itemsize * count
        if end > len(raw):
            raise MalformedFile(f"{path}: truncated at {len(raw)} bytes, expected at least {end}")
        items = np.frombuffer(raw, dtype, count, offset)
        offset = end
        return items

    try:
        yield fields, take
    except (ShapeMismatch, NonFiniteInput) as exc:
        raise MalformedFile(f"{path}: {exc}") from None
    if offset != len(raw):
        raise MalformedFile(f"{path}: expected {offset} bytes, found {len(raw)}")
