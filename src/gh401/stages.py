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

Both directions are computed in uint8 wrap-around, which is exact mod
256, on strided views of the image.
"""

from __future__ import annotations

import numpy as np

from gh401.image_io import check_blocks, check_pixels

DIFFUSION_MATRIX = np.array([[89, 55], [55, 34]], dtype=np.int64)
DIFFUSION_MATRIX_INV = np.array([[34, 201], [201, 89]], dtype=np.int64)


def check_permutation(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``values`` hold every index in [0, len(values)) once.

    ``values`` are non-negative integers.  One ``np.bincount`` decides;
    only a failing check looks for the first repeated value, the one
    whose second appearance comes first, and both of its indices.
    """
    n = len(values)
    if values.max() >= n:
        raise ValueError(f"{what} has indices outside [0, {n})")
    if np.bincount(values, minlength=n).max() != 1:
        first = np.zeros(n, dtype=bool)
        first[np.unique(values, return_index=True)[1]] = True
        second = int(np.argmin(first))
        value = values[second]
        raise ValueError(f"{what} is not a bijection: value {int(value)} appears at "
                         f"indices {int(np.argmax(values == value))} and {second}")


def _check_lengths(p: np.ndarray, s: np.ndarray) -> None:
    if p.shape != s.shape:
        raise ValueError(f"pixel vector and permutation differ in length: {p.size} vs {s.size}")


def permute(p: np.ndarray, s: np.ndarray, offset: int) -> np.ndarray:
    """R[i] = (P[S[i]] + offset) mod 256."""
    p = check_pixels(p)
    s = np.asarray(s)
    _check_lengths(p, s)
    return p[s] + np.uint8(offset % 256)


def invert_permute(r: np.ndarray, s: np.ndarray, offset: int) -> np.ndarray:
    """Exact left inverse of :func:`permute` with the same offset; ``s`` must be a permutation."""
    r = check_pixels(r)
    s = np.asarray(s)
    _check_lengths(r, s)
    p = np.zeros_like(r)
    p[s] = r - np.uint8(offset % 256)
    return p


def _mix(img: np.ndarray, matrix: np.ndarray, bias: int) -> np.ndarray:
    """Per 2x2 block B: ((B + bias) @ matrix + bias) mod 256."""
    img = check_blocks(img)
    h, w = img.shape
    b = np.uint8(bias % 256)
    x = img + b
    m = matrix.tolist()
    out = np.empty((h, w), dtype=np.uint8)
    for i, j in np.ndindex(2, 2):
        out[i::2, j::2] = x[i::2, 0::2] * m[0][j] + x[i::2, 1::2] * m[1][j] + b
    return out


def diffuse(img: np.ndarray, bias: int) -> np.ndarray:
    """Per 2x2 block: ((B + bias) @ A + bias) mod 256."""
    return _mix(img, DIFFUSION_MATRIX, bias)


def inverse_diffuse(img: np.ndarray, bias: int) -> np.ndarray:
    """Exact inverse of :func:`diffuse` with the same bias."""
    return _mix(img, DIFFUSION_MATRIX_INV, -bias)
