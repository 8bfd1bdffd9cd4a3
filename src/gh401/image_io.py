"""Where files are read and written, and binary PGM (P5) images.

:func:`read_file` reads every input file and :func:`write_atomic` writes
every output file.  PGM, the single supported image format, is 8-bit
grayscale with maxval 255; header comments are accepted on read, and
writing emits the canonical three-line header.
"""

from __future__ import annotations

import contextlib
import os
import re

import numpy as np

# whitespace and '#' comments (each to the end of its line), then one header token
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def _next_token(data: bytes, pos: int):
    match = _TOKEN.match(data, pos)
    if match is None:
        raise ValueError("truncated PGM header")
    return match[1], match.end()


def read_file(path, parse, kind: str):
    """``parse`` of the file's bytes; a ``ValueError`` from it becomes ``{kind} '{path}': {message}``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{kind} {os.fsdecode(path)!r}: {exc}") from None


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into a 2-D uint8 array."""
    return read_file(path, _parse_pgm, "image")


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
    """Write ``data`` via a new temp file, never a symlink, and a rename; a failure leaves none."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def check_pixels(pixels) -> np.ndarray:
    """``pixels`` as an array; ``ValueError`` unless they are uint8, so no value wraps mod 256."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {pixels.dtype}")
    return pixels


def check_image(img) -> np.ndarray:
    """``img`` as an array; ``ValueError`` unless it is 2-D uint8, the only image PGM holds."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    return check_pixels(img)


def check_blocks(img) -> np.ndarray:
    """``img`` as an array; ``ValueError`` unless it is a 2-D uint8 image of whole 2x2 blocks."""
    img = check_image(img)
    h, w = img.shape
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise ValueError(f"image dimensions must be even and at least 2x2, got {h}x{w}")
    if h * w > 1 << 32:  # the ciphers' uint32 tables and SSX1's 32-bit words index each pixel
        raise ValueError(f"image has {h * w} pixels, more than the 2^32 = {1 << 32} "
                         "that 32-bit pixel indices can address")
    return img


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM, atomically."""
    img = check_image(img)
    height, width = img.shape
    write_atomic(path, f"P5\n{width} {height}\n255\n".encode("ascii") + img.tobytes())
