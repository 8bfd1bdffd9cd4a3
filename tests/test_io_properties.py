"""Property tests for PGM files and whole-cipher round trips.

A PGM file comes from outside the program, so any header or payload edit
either reads back as an image or raises ``ValueError`` (the CLI's exit
2).  Writing then reading an image, and encrypting then decrypting it
with either scheme, gives back the same pixels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gh401 import chaos, cipher
from gh401.image_io import read_pgm, write_pgm
from gh401.sbox import bundled_sbox

SETTINGS = settings(database=None, max_examples=100, deadline=None)

SBOXES = {name: bundled_sbox(name) for name in ("aes", "identity")}


def images(sides):
    return st.tuples(sides, sides).flatmap(lambda shape: arrays(np.uint8, shape))


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "img.pgm"


@st.composite
def edited_pgms(draw):
    """A PGM with header tokens replaced, an odd separator, a short payload and raw byte edits."""
    img = draw(images(st.integers(1, 6)))
    tokens = [b"P5", *(str(v).encode() for v in (img.shape[1], img.shape[0], 255))]
    for k in draw(st.lists(st.integers(0, 3), max_size=2)):
        tokens[k] = draw(st.sampled_from([b"P6", b"#", b"x", b"-1", b"0", b"65535"])
                         | st.integers(0, 9).map(lambda v: str(v).encode()))
    sep = draw(st.sampled_from([b"\n", b"", b" ", b"\n# c\n"]))
    payload = img.tobytes()[:draw(st.sampled_from([img.size, 0]) | st.integers(0, img.size))]
    data = b" ".join(tokens) + sep + payload
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data = data[:i] + draw(st.binary(max_size=8)) + data[j:]
    return data


@SETTINGS
@given(images(st.integers(1, 9)))
def test_pgm_write_read_is_exact(pgm_path, img):
    write_pgm(pgm_path, img)
    assert np.array_equal(read_pgm(pgm_path), img)


@settings(SETTINGS, max_examples=300)
@given(edited_pgms())
def test_pgm_reader_raises_only_value_error(pgm_path, data):
    pgm_path.write_bytes(data)
    try:
        img = read_pgm(pgm_path)
    except ValueError:
        return
    assert img.dtype == np.uint8 and img.ndim == 2
    write_pgm(pgm_path, img)
    assert np.array_equal(read_pgm(pgm_path), img)


@SETTINGS
@given(img=images(st.integers(1, 4).map(lambda half: 2 * half)),
       scheme=st.sampled_from([cipher.SCHEME_IEAHF, cipher.SCHEME_GH401]),
       system=st.sampled_from(chaos.list_systems()),
       seed=st.none() | st.integers(0, 2**32),
       rounds=st.none() | st.integers(3, 5),
       sbox=st.sampled_from(sorted(SBOXES)))
def test_encrypt_decrypt_is_exact(img, scheme, system, seed, rounds, sbox):
    params = chaos.default_params(system) if seed is None else chaos.draw_params(system, seed)
    table = SBOXES[sbox] if scheme == cipher.SCHEME_GH401 else None
    c, key = cipher.encrypt(scheme, img, params, rounds, table, system)
    assert c.shape == img.shape
    assert np.array_equal(cipher.decrypt(c, key, table), img)
