"""Substitution stage and transparency order."""

import numpy as np
import pytest

from gh401.sbox import SBox8, bundled_sbox, load_sbox, substitute, transparency_order

# 4-bit table used as the published small-case fixture; its transparency
# order was computed once by the exhaustive (beta, a, x) enumeration in
# test_acceptance and frozen here.
PRESENT_4BIT = [0xC, 5, 6, 0xB, 9, 0, 0xA, 0xD, 3, 0xE, 0xF, 8, 4, 7, 1, 2]
PRESENT_4BIT_TO = 3.533333333333333

# Frozen exhaustive-oracle values for the bundled 8-bit tables.
AES_TO = 7.860049019607843
IDENTITY8_TO = 5.835294117647059


def test_identity_table_is_valid():
    s = SBox8(range(256), name="identity")
    assert np.array_equal(s.table, np.arange(256))
    assert np.array_equal(s.inverse, np.arange(256))


@pytest.mark.parametrize("table", [bytes(range(256)), bytearray(range(256))], ids=["bytes", "bytearray"])
def test_sbox8_takes_a_byte_string_as_a_table(table):
    s = SBox8(table)
    assert s.name == "custom"
    assert np.array_equal(s.table, np.arange(256))


def test_duplicate_entries_rejected_naming_first():
    table = list(range(256))
    table[0] = 7
    table[1] = 7
    with pytest.raises(ValueError, match=r"value 7 appears at indices 0 and 1"):
        SBox8(table)


def test_wrong_length_rejected():
    with pytest.raises(ValueError, match="256 entries"):
        SBox8(range(255))


def test_out_of_range_rejected():
    table = list(range(256))
    table[3] = 300
    with pytest.raises(ValueError, match="bytes"):
        SBox8(table)


def test_float_entries_rejected():
    # bytes() takes only integers, so 0.5 is refused, not truncated to 0
    with pytest.raises(TypeError):
        SBox8([0.5, *range(1, 256)])


def test_inverse_property():
    s = bundled_sbox("aes")
    assert np.array_equal(s.inverse[s.table], np.arange(256))
    assert sorted(s.table.tolist()) == list(range(256))


def test_substitute_identity_and_constant():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    ident = bundled_sbox("identity")
    assert np.array_equal(substitute(img, ident), img)
    aes = bundled_sbox("aes")
    const = np.full((4, 4), 7, dtype=np.uint8)
    assert (substitute(const, aes) == aes.table[7]).all()


def test_substitute_roundtrip():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    s = bundled_sbox("aes")
    assert np.array_equal(substitute(substitute(img, s), s, inverse=True), img)


@pytest.mark.parametrize("inverse", [False, True])
def test_substitute_refuses_non_uint8_pixels(inverse):
    # 300 would wrap to 44 if the pixels were cast to uint8
    with pytest.raises(ValueError, match="expected uint8 pixels, got int64"):
        substitute(np.array([300, 1], dtype=np.int64), bundled_sbox("identity"), inverse=inverse)


def test_substitution_permutes_histogram():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    s = bundled_sbox("aes")
    hist_in = np.bincount(img.reshape(-1), minlength=256)
    hist_out = np.bincount(substitute(img, s).reshape(-1), minlength=256)
    assert np.array_equal(hist_out[s.table], hist_in)


def test_load_sbox_text_and_binary(tmp_path):
    txt = tmp_path / "box.txt"
    txt.write_text(" ".join(str(v) for v in range(256)))
    s = load_sbox(txt)
    assert s.name == "box"
    assert np.array_equal(s.table, np.arange(256))

    raw = tmp_path / "box.bin"
    raw.write_bytes(bytes(range(256)))
    s2 = load_sbox(raw)
    assert s2.name == "box"
    assert np.array_equal(s2.table, np.arange(256))


def test_load_sbox_length_error(tmp_path):
    short = tmp_path / "short.bin"
    short.write_bytes(bytes(range(255)))
    with pytest.raises(ValueError, match="256"):
        load_sbox(short)


def test_load_sbox_names_a_non_integer_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 x")
    with pytest.raises(ValueError, match=r"S-box file '.*bad\.txt': invalid literal for int\(\) .*'x'"):
        load_sbox(path)


def test_load_sbox_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe 1 2")
    with pytest.raises(ValueError, match=r"S-box file '.*bad\.txt': 'utf-8' codec can't decode"):
        load_sbox(path)


def test_load_sbox_bad_extension(tmp_path):
    path = tmp_path / "box.csv"
    path.write_text("0")
    with pytest.raises(ValueError, match="extension"):
        load_sbox(path)


def test_bundled_unknown_name():
    with pytest.raises(ValueError, match="unknown bundled"):
        bundled_sbox("serpent")


def _looped_transparency_order(table):
    """Transparency order with its autocorrelations taken one difference a at a time.

    The 8-bit reference for the Walsh-Hadamard form in ``gh401.sbox``: the
    same integers, the same beta combination and the same float expression.
    """
    table = np.asarray(table, dtype=np.int64)
    size = table.size
    n = size.bit_length() - 1
    x = np.arange(size)
    # signs[j, x] = (-1)^(bit j of table[x]); ac[j, a] = sum_x signs[j, x] * signs[j, x ^ a]
    signs = 1 - 2 * ((table[np.newaxis, :] >> np.arange(n)[:, np.newaxis]) & 1)
    ac = np.empty((n, size), dtype=np.int64)
    for a in range(size):
        ac[:, a] = (signs * signs[:, x ^ a]).sum(axis=1)

    beta_bits = (np.arange(size)[:, np.newaxis] >> np.arange(n)[np.newaxis, :]) & 1
    weights = beta_bits.sum(axis=1)
    inner = np.abs((1 - 2 * beta_bits) @ ac)[:, 1:].sum(axis=1)  # exclude a = 0
    scale = 1.0 / (2.0 ** (2 * n) - 2.0**n)
    return float((np.abs(n - 2 * weights) - scale * inner).max())


def _tables_of_every_size():
    yield pytest.param(bundled_sbox("aes").table, id="aes")
    yield pytest.param(np.arange(256), id="identity")
    yield pytest.param(PRESENT_4BIT, id="present")
    for n in range(1, 9):
        rng = np.random.default_rng(n)
        for i in range(8):
            yield pytest.param(rng.permutation(1 << n), id=f"permutation-{1 << n}-{i}")
        for i in range(2):  # maps that need not be bijections
            yield pytest.param(rng.integers(0, 1 << n, size=1 << n), id=f"map-{1 << n}-{i}")


@pytest.mark.parametrize("table", _tables_of_every_size())
def test_transparency_order_equals_the_looped_autocorrelation_to_the_bit(table):
    assert transparency_order(table) == _looped_transparency_order(table)


def test_transparency_order_range():
    rng = np.random.default_rng(3)
    for _ in range(10):
        table = rng.permutation(256)
        to = transparency_order(table)
        assert 0.0 <= to <= 8.0


def test_transparency_order_fixtures():
    assert transparency_order(PRESENT_4BIT) == pytest.approx(PRESENT_4BIT_TO, abs=1e-12)
    assert transparency_order(bundled_sbox("aes")) == pytest.approx(AES_TO, abs=1e-9)
    assert transparency_order(bundled_sbox("identity")) == pytest.approx(IDENTITY8_TO, abs=1e-9)


def test_transparency_order_invariant_under_input_xor():
    rng = np.random.default_rng(4)
    table = rng.permutation(16)
    base = transparency_order(table)
    for c in range(16):
        shifted = [table[x ^ c] for x in range(16)]
        assert transparency_order(shifted) == pytest.approx(base, abs=1e-12)


def test_transparency_order_bad_tables():
    with pytest.raises(ValueError, match="power of two"):
        transparency_order(list(range(12)))
    with pytest.raises(ValueError, match="range"):
        transparency_order([1, 2, 3, 9])


@pytest.mark.parametrize("first, error", [(10**30, ValueError), (0.5, TypeError)],
                         ids=["beyond-int64", "float"])
def test_transparency_order_reads_a_raw_table_as_sbox8_does(first, error):
    # an int64 conversion overflowed on 10**30 and truncated 0.5 to the identity's 0
    with pytest.raises(error):
        transparency_order([first, *range(1, 16)])
