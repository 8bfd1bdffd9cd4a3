"""Sort-based pixel permutation and its inverse.

The pixel vector is rearranged through the sorting-index vector S and a
round offset is added to every output byte: R[i] = (P[S[i]] + offset)
mod 256.  With offset 0 this is a plain rearrangement, which preserves
the pixel multiset exactly, so a uniform image passes through unchanged;
a nonzero offset breaks that fixed point.
"""

from __future__ import annotations

import numpy as np

from gh401.image_io import check_pixels


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
