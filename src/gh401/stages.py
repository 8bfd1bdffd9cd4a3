"""The keyed stages of a round: sort permutation and Q-matrix block diffusion.

Permutation rearranges the pixel vector through the sorting-index vector
S and adds a round offset to every output byte: R[i] = (P[S[i]] + offset)
mod 256.  With offset 0 this is a plain rearrangement, which preserves
the pixel multiset exactly, so a uniform image passes through unchanged;
a nonzero offset breaks that fixed point.

Diffusion uses the tenth power of the Fibonacci Q-matrix Q = [[1,1],[1,0]]:

    A = Q^10 mod 256 = [[89, 55], [55, 34]]

det A = 89*34 - 55*55 = 3026 - 3025 = +1: det Q = -1 and the power is
even.  So A is invertible mod 256 and its inverse is its adjugate,
A^-1 = [[34, -55], [-55, 89]] = [[34, 201], [201, 89]] mod 256.  The
image is tiled into non-overlapping 2x2 blocks, row-major from the
top-left, and every block B is replaced by (B @ A) mod 256.

A bias b is added to every element before and after the matrix multiply:
((B + b) @ A + b) mod 256.  With bias 0 the map is linear mod 256, which
annihilates the all-zero image; with bias 1 the all-zero block maps to a
nonzero block from round one.

Row i of B @ A is (B[i,0], B[i,1]) @ A, so one diffusion mixes each
pixel only with its horizontal neighbour; spreading further comes from
the permutation and the rounds.  Each direction is thus one 65 536-entry
table over uint16 pixel pairs, built in uint8 wrap-around, which is
exact mod 256.  Every gather and scatter indexes at native width (intp),
cast from the table one band at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from gh401.image_io import check_blocks, check_pixels

DIFFUSION_MATRIX = np.array([[89, 55], [55, 34]], dtype=np.int64)
DIFFUSION_MATRIX_INV = np.array([[34, 201], [201, 89]], dtype=np.int64)
_BAND = 1 << 14  # indices cast to intp at a time: 128 KB, which stays in cache


def _index(s) -> np.ndarray:
    """``s`` as an array; ``ValueError`` unless its dtype is a signed or unsigned integer."""
    s = np.asarray(s)
    if s.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got {s.dtype}")
    return s


def _intp_bands(s: np.ndarray):
    """Yield each band of ``s`` as (slice, the band cast to intp)."""
    for start in range(0, len(s), _BAND):
        band = slice(start, start + _BAND)
        yield band, s[band].astype(np.intp)


def check_permutation(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``values`` hold every index in [0, len(values)) once.

    After the range check, one pass of bool scatters must mark every slot.
    Only a failing check looks for the first repeated value, the one whose
    second appearance comes first, and both of its indices.
    """
    n = len(values)
    values = _index(values)
    if values.max() >= n or values.min() < 0:
        raise ValueError(f"{what} has indices outside [0, {n})")
    seen = np.zeros(n, dtype=bool)
    for _, index in _intp_bands(values):
        seen[index] = True
    if not seen.all():
        first = np.zeros(n, dtype=bool)
        first[np.unique(values, return_index=True)[1]] = True
        second = int(np.argmin(first))
        value = values[second]
        raise ValueError(f"{what} is not a bijection: value {int(value)} appears at "
                         f"indices {int(np.argmax(values == value))} and {second}")


def _operands(pixels: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pixels, s = check_pixels(pixels), _index(s)
    if pixels.shape != s.shape:
        raise ValueError(f"pixel vector and permutation differ in length: {pixels.size} vs {s.size}")
    return pixels, s


def permute(p: np.ndarray, s: np.ndarray, offset: int) -> np.ndarray:
    """R[i] = (P[S[i]] + offset) mod 256."""
    p, s = _operands(p, s)
    out = np.empty_like(p)
    for band, index in _intp_bands(s):
        np.take(p, index, out=out[band])
    out += np.uint8(offset % 256)
    return out


def invert_permute(r: np.ndarray, s: np.ndarray, offset: int) -> np.ndarray:
    """Exact left inverse of :func:`permute` with the same offset; ``s`` must be a permutation."""
    r, s = _operands(r, s)
    p = np.zeros_like(r)
    for band, index in _intp_bands(s):
        p[index] = r[band] - np.uint8(offset % 256)
    return p


@functools.lru_cache(maxsize=8)
def _pair_table(inverse: bool, bias: int) -> np.ndarray:
    """((x + bias) @ matrix + bias) mod 256 for every block row x = (x0, x1), read as one uint16."""
    matrix = (DIFFUSION_MATRIX_INV if inverse else DIFFUSION_MATRIX).astype(np.uint8)
    b = np.uint8(bias)
    x = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
    table = ((x + b) @ matrix + b).view(np.uint16).reshape(-1)
    table.flags.writeable = False  # the cache hands this one array to every call
    return table


def _mix(img: np.ndarray, inverse: bool, bias: int) -> np.ndarray:
    img = check_blocks(img)
    table = _pair_table(inverse, bias % 256)
    pairs = np.ascontiguousarray(img).view(np.uint16).reshape(-1)
    out = np.empty_like(pairs)
    for band, index in _intp_bands(pairs):
        np.take(table, index, out=out[band])
    return out.view(np.uint8).reshape(img.shape)


def diffuse(img: np.ndarray, bias: int) -> np.ndarray:
    """Per 2x2 block: ((B + bias) @ A + bias) mod 256."""
    return _mix(img, False, bias)


def inverse_diffuse(img: np.ndarray, bias: int) -> np.ndarray:
    """Exact inverse of :func:`diffuse` with the same bias."""
    return _mix(img, True, -bias)
