"""Property tests for the key-material parsers: GH401 envelopes, SSX1 files, S-box files.

Each reads key material from outside the program, so any input, as text
or as the bytes of a key file, either parses or raises ``ValueError``
(the CLI's exit 2).  The two key files follow one contract: an input
parses only if writing it back gives the same text or bytes.
"""

import os
import struct
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gh401.chaos import InitialConditions, SystemParams, list_systems
from gh401.cipher import MAX_ROUNDS, KeyEnvelope, SideChannelFile
from gh401.sbox import load_sbox

SETTINGS = settings(database=None, max_examples=200, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
# An envelope value is one line: no control characters or line separators.
names = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1)
envelopes = st.builds(
    KeyEnvelope,
    system=st.sampled_from(list_systems()),
    ic=st.builds(InitialConditions, finite, finite, finite, finite, finite, finite),
    params=st.builds(SystemParams, finite, finite, finite, finite, finite, finite),
    n=st.integers(3, MAX_ROUNDS),
    whitening=st.binary(min_size=16, max_size=16),
    sbox_name=names,
)
u32 = st.integers(0, 4) | st.integers(0, 2**32 - 1)


@st.composite
def edited_envelope_texts(draw):
    """A valid envelope with one field's value replaced, then raw slice edits."""
    lines = draw(envelopes).to_text().splitlines(keepends=True)
    k = draw(st.integers(0, len(lines) - 1))
    key = lines[k].partition("=")[0]
    value = draw(st.text() | u32.map(str) | st.integers().map(str) | st.floats().map(repr))
    lines[k] = f"{key}={value}\n"
    text = "".join(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.text(max_size=8)) + text[j:]
    return text


@st.composite
def edited_envelope_bytes(draw):
    """A valid envelope file with raw byte-slice edits, so not always UTF-8."""
    data = draw(envelopes).to_bytes()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        edit = st.binary(max_size=8) | st.text(max_size=8).map(str.encode)
        data = data[:i] + draw(edit) + data[j:]
    return data


@st.composite
def side_channel_files(draw):
    width, height, rounds = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    # one row per round: a permutation of the pixel indices, then a 32-bit checksum
    rows = [[*draw(st.permutations(range(width * height))), draw(u32)] for _ in range(rounds)]
    return SideChannelFile(width=width, height=height, table=np.array(rows, dtype="<u4"))


@st.composite
def ssx1_blobs(draw):
    """A valid SSX1 file with some 32-bit words overwritten, cut short or extended."""
    data = bytearray(draw(side_channel_files()).to_bytes())
    for _ in range(draw(st.integers(0, 3))):
        # Half the edits hit the header: magic, rounds, width, height.
        word = draw(st.integers(0, 3) | st.integers(0, len(data) // 4 - 1))
        data[4 * word:4 * word + 4] = struct.pack("<I", draw(st.integers(0, 40) | u32))
    if draw(st.integers(0, 3)) == 3:
        data[draw(st.integers(0, len(data))):] = draw(st.binary(max_size=8))
    return bytes(data)


@st.composite
def edited_sbox_texts(draw):
    """A valid ``.txt`` S-box table with some tokens replaced, then raw byte-slice edits."""
    tokens = [str(v) for v in draw(st.permutations(range(256)))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[k] = draw(st.integers().map(str) | st.floats().map(repr) | st.text(max_size=8))
    data = " ".join(tokens).encode()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data = data[:i] + draw(st.binary(max_size=8)) + data[j:]
    return data


def load_sbox_file(data, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        return load_sbox(path)


@SETTINGS
@given(envelopes)
def test_envelope_serialize_parse_serialize_is_byte_exact(env):
    text = env.to_text()
    parsed = KeyEnvelope.from_text(text)
    assert parsed == env
    assert parsed.to_text() == text


@SETTINGS
@given(edited_envelope_texts())
def test_envelope_parser_raises_only_value_error(text):
    try:
        env = KeyEnvelope.from_text(text)
    except ValueError:
        return
    assert env.to_text() == text


@SETTINGS
@given(envelopes)
def test_envelope_bytes_serialize_parse_serialize_is_byte_exact(env):
    data = env.to_bytes()
    parsed = KeyEnvelope.from_bytes(data)
    assert parsed == env
    assert parsed.to_bytes() == data


@SETTINGS
@given(st.binary() | edited_envelope_bytes())
def test_envelope_bytes_parser_raises_only_value_error(data):
    try:
        env = KeyEnvelope.from_bytes(data)
    except ValueError:
        return
    assert env.to_bytes() == data


@SETTINGS
@given(side_channel_files())
def test_side_file_serialize_parse_serialize_is_byte_exact(side):
    data = side.to_bytes()
    assert SideChannelFile.from_bytes(data).to_bytes() == data


@SETTINGS
@given(ssx1_blobs())
def test_side_file_parser_raises_only_value_error(blob):
    try:
        side = SideChannelFile.from_bytes(blob)
    except ValueError:
        return
    assert side.to_bytes() == blob


@SETTINGS
@given(edited_sbox_texts())
def test_sbox_text_file_parser_raises_only_value_error(data):
    try:
        sbox = load_sbox_file(data, ".txt")
    except ValueError:
        return
    tokens = data.decode().split()
    assert all(token.isascii() and token.isdigit() for token in tokens)
    assert sbox.table.tolist() == [int(token) for token in tokens]


@SETTINGS
@given(st.binary(max_size=300) | st.permutations(range(256)).map(bytes))
def test_sbox_binary_file_parser_raises_only_value_error(data):
    try:
        sbox = load_sbox_file(data, ".bin")
    except ValueError:
        return
    assert sbox.table.tobytes() == data
