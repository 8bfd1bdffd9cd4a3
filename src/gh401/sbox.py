"""Byte substitution stage and the transparency-order metric.

The substitution layer is a bijective 256-entry lookup table applied to
every pixel.  Transparency order is the side-channel metric used to rank
tables by their leakage under differential power analysis; for an S-box F
with n input and m output bits it is

    TO(F) = max over beta in {0,1}^m of
        |m - 2*wt(beta)|
        - (2^(2n) - 2^n)^-1 * sum over a != 0 of
            | sum_j (-1)^beta_j * sum_x (-1)^(F_j(x) xor F_j(x xor a)) |

where F_j is the j-th coordinate function and wt the Hamming weight.  The
result lies in [0, m]; lower values are reported as more DPA-resistant.
The sums over x are the autocorrelations of the F_j: with H[u, x] =
(-1)^(u . x) the Sylvester-Hadamard matrix and S[x, j] = (-1)^F_j(x), they
are H @ (H @ S)^2 / 2^n, squared entrywise and exact in integers.

Two tables ship with the package: the identity (for pipeline isolation
tests) and the well-documented strong "aes" table stored under
``data/aes.txt``; :func:`bundled_sbox` returns them by name.
Externally constructed tables, such as genetic-algorithm optimized ones,
come in one of two ways: an in-memory table goes through :class:`SBox8`,
a ``.txt`` or ``.bin`` table file through :func:`load_sbox`.
"""

from __future__ import annotations

import os
from importlib import resources

import numpy as np

from gh401.image_io import check_pixels, read_file
from gh401.stages import check_permutation


def _byte_table(table) -> np.ndarray:
    """``table``'s integer entries as a read-only uint8 array; ``ValueError`` outside [0, 255]."""
    try:  # list() first: bytes() of a numpy array would read its raw buffer
        return np.frombuffer(bytes(list(table)), np.uint8)
    except ValueError:
        raise ValueError("S-box entries must be bytes in [0, 255]") from None


class SBox8:
    """Bijective byte substitution table with a precomputed inverse."""

    def __init__(self, table, name: str = "custom"):
        self.table = _byte_table(table)
        if self.table.size != 256:
            raise ValueError(f"S-box must have exactly 256 entries, got {self.table.size}")
        check_permutation(self.table, "S-box")
        self.inverse = np.empty(256, dtype=np.uint8)
        self.inverse[self.table] = np.arange(256, dtype=np.uint8)
        self.name = name

    def __repr__(self):
        return f"SBox8(name={self.name!r})"


def load_sbox(path) -> SBox8:
    """Read a validated S-box from a table file, named after the file's stem.

    ``.txt`` holds 256 whitespace-separated decimal byte values, each
    written in ASCII digits only, ``.bin`` holds 256 raw bytes.
    """
    path = os.fsdecode(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    if path.endswith(".txt"):
        def value(tok):
            number = int(tok)  # int() also reads signs, underscores and non-ASCII digits
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"S-box entry {tok!r} is not written in ASCII decimal digits")
            return number

        def values(data):
            return [value(tok) for tok in data.decode("utf-8").split()]
    elif path.endswith(".bin"):
        values = list
    else:
        raise ValueError(f"unsupported S-box file extension: {path!r} (use .txt or .bin)")
    return read_file(path, lambda data: SBox8(values(data), name=stem), "S-box file")


BUNDLED_SBOXES = ("aes", "identity")


def bundled_sbox(name: str) -> SBox8:
    """Return one of the tables shipped with the package.

    ``identity`` maps every byte to itself; ``aes`` is the bundled strong
    table.
    """
    if name == "identity":
        return SBox8(np.arange(256), name="identity")
    if name == "aes":
        with resources.as_file(resources.files("gh401").joinpath("data/aes.txt")) as path:
            return load_sbox(path)
    raise ValueError(f"unknown bundled S-box {name!r} (known: {', '.join(BUNDLED_SBOXES)})")


def substitute(img: np.ndarray, s: SBox8, inverse: bool = False) -> np.ndarray:
    """Replace every pixel v by table[v] (or inverse[v])."""
    img = check_pixels(img)
    lut = s.inverse if inverse else s.table
    return lut[img]


def transparency_order(s) -> float:
    """Transparency order of an S-box.

    Accepts an :class:`SBox8` or any table of length 2^n with n <= 8
    output bits (m = n), so small cases can be cross-checked exhaustively.
    """
    table = s.table if isinstance(s, SBox8) else _byte_table(s)
    size = table.size
    n = int(size).bit_length() - 1
    if size != 1 << n or n < 1 or n > 8:
        raise ValueError(f"table length must be a power of two in [2, 256], got {size}")
    if table.max() >= size:
        raise ValueError("table entries out of range for its width")
    # bits[v, j] = bit j of v; h[u, x] = (-1)^(u . x), the Sylvester-Hadamard matrix
    bits = (np.arange(size)[:, np.newaxis] >> np.arange(n)) & 1
    h = 1 - 2 * ((bits @ bits.T) & 1)
    # ac[a, j] = sum_x (-1)^(F_j(x) xor F_j(x xor a)): the transform of the squared Walsh
    # spectrum h @ S, S = (-1)^bits[table], is 2^n times it, so the shift divides exactly
    ac = (h @ (h @ (1 - 2 * bits[table])) ** 2) >> n
    weights = bits.sum(axis=1)

    combined = (1 - 2 * bits) @ ac.T  # (2^n, 2^n)
    inner = np.abs(combined)[:, 1:].sum(axis=1)  # exclude a = 0
    scale = 1.0 / (2.0 ** (2 * n) - 2.0**n)
    values = np.abs(n - 2 * weights) - scale * inner
    return float(values.max())
