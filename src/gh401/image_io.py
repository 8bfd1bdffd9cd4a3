"""Binary PGM (P5) reading and writing.

The single supported interchange format: 8-bit grayscale, maxval 255.
Header comments are accepted on read; writing emits the canonical
three-line header.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np


def _next_token(data: bytes, pos: int):
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into a 2-D uint8 array; a parse error names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_pgm(data)
    except ValueError as exc:
        raise ValueError(f"image {os.fsdecode(path)!r}: {exc}") from None


def _parse_pgm(data: bytes) -> np.ndarray:
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise ValueError(f"unsupported image format {magic!r}: only binary PGM (P5) is handled")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ValueError(f"PGM header {name} is not an integer: {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"PGM header gives width {width} and height {height}; both must be at least 1")
    if maxval != 255:
        raise ValueError(f"only 8-bit images (maxval 255) are supported, got maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise ValueError(f"PGM payload truncated: expected {width * height} bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` via a temp file and a rename; a failed write leaves no temp file."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM, atomically."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    height, width = img.shape
    write_atomic(path, f"P5\n{width} {height}\n255\n".encode("ascii") + img.tobytes())
