"""On-disk formats: ".eplt" tensor dumps and binary (P5) PGM label maps.

The ".eplt" layout is: magic bytes ``EPLT``, u32 little-endian version (=1),
u32 ndim, ndim u32 dims, then float32 little-endian values in C (row-major)
order.  Potential-field sets are stored with their natural (direction,
class, row, column) axis order, i.e. direction-major.

Label maps are single-byte P5 PGM files with maxval 255; the pixel value is
the class index.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"EPLT"
VERSION = 1


class FormatError(ValueError):
    """Raised for malformed .eplt or PGM content."""


def write_tensor(path, array) -> None:
    """Write an array as a float32 .eplt dump."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim < 1:
        arr = arr.reshape(1)
    header = struct.pack("<4sII", MAGIC, VERSION, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + dims + arr.tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a .eplt dump back as a float32 array."""
    buf = Path(path).read_bytes()
    if len(buf) < 12:
        raise FormatError(f"{path}: truncated header")
    magic, version, ndim = struct.unpack_from("<4sII", buf, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if ndim < 1 or ndim > 8:
        raise FormatError(f"{path}: implausible ndim {ndim}")
    if len(buf) < 12 + 4 * ndim:
        raise FormatError(f"{path}: truncated dim list")
    dims = struct.unpack_from(f"<{ndim}I", buf, 12)
    count = int(np.prod(dims, dtype=np.int64))
    data = buf[12 + 4 * ndim:]
    if len(data) != 4 * count:
        raise FormatError(f"{path}: expected {4 * count} data bytes, got {len(data)}")
    return np.frombuffer(data, dtype="<f4").reshape(dims).copy()


def write_pgm(path, labels) -> None:
    """Write an integer (or boolean) label map as a binary P5 PGM (maxval 255)."""
    lab = np.asarray(labels)
    if lab.dtype.kind not in "biu":
        raise FormatError(f"label map must be integer, got dtype {lab.dtype}")
    if lab.ndim != 2:
        raise FormatError(f"label map must be 2-D, got shape {lab.shape}")
    if lab.size and (lab.min() < 0 or lab.max() > 255):
        raise FormatError("label values must fit in one byte")
    h, w = lab.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + lab.astype(np.uint8).tobytes(order="C"))


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            while pos < n and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and buf[pos] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise FormatError("unexpected end of PGM header")
    return buf[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into a uint8 label map, the bytes it holds.

    Any maxval from 1 to 255 is accepted; a pixel above it is malformed.
    """
    buf = Path(path).read_bytes()
    magic, pos = _next_token(buf, 0)
    if magic != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError as exc:
            raise FormatError(f"{path}: bad header token {tok!r}") from exc
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval < 256:
        raise FormatError(f"{path}: maxval {maxval} outside single-byte range")
    pos += 1  # single whitespace byte after maxval
    data = buf[pos:pos + width * height]
    if len(data) != width * height:
        raise FormatError(f"{path}: expected {width * height} pixels, got {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8)
    if maxval < 255:
        over = np.count_nonzero(pixels > maxval)
        if over:
            raise FormatError(f"{path}: {over} pixel(s) exceed maxval {maxval}")
    return pixels.reshape(height, width).copy()
