"""Pipelines, key envelopes, side-channel file, key-space arithmetic."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from gh401 import chaos, cipher
from gh401.analysis import npcr_uaci
from gh401.cipher import CryptoMismatchError, KeyEnvelope, SideChannelFile
from gh401.image_io import check_blocks
from gh401.sbox import bundled_sbox

PARAMS = chaos.SystemParams(3.99, 3.99, 3.99, 3.99, 3.99, 3.99)
AES = bundled_sbox("aes")


def black(n=16):
    return np.zeros((n, n), dtype=np.uint8)


def white(n=16):
    return np.full((n, n), 255, dtype=np.uint8)


def random_image(rng, h, w):
    return rng.integers(0, 256, size=(h, w)).astype(np.uint8)


def _envelope(n, whitening=bytes(16), sbox_name="aes", system="reftestmap"):
    return KeyEnvelope(system=system,
                       ic=chaos.InitialConditions(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
                       params=PARAMS, n=n, whitening=whitening, sbox_name=sbox_name)


# ---------------------------------------------------------------- IEAHF

def test_ieahf_black_fixed_point():
    for n in (1, 2, 3):
        c, _ = cipher.encrypt_ieahf(black(), PARAMS, n)
        assert np.array_equal(c, black())


def test_ieahf_white_single_round_two_values():
    c, _ = cipher.encrypt_ieahf(white(), PARAMS, 1)
    values, counts = np.unique(c, return_counts=True)
    assert values.tolist() == [112, 167]
    assert counts[0] == counts[1] == c.size // 2


def test_ieahf_roundtrip_random():
    rng = np.random.default_rng(10)
    for _ in range(5):
        img = random_image(rng, 16, 24)
        c, side = cipher.encrypt_ieahf(img, PARAMS, 3)
        assert np.array_equal(cipher.decrypt_ieahf(c, side), img)


def test_ieahf_black_ciphertext_decrypts_to_black():
    c, side = cipher.encrypt_ieahf(black(), PARAMS, 2)
    assert np.array_equal(cipher.decrypt_ieahf(c, side), black())


def test_ieahf_reordered_side_file_fails_checksum():
    rng = np.random.default_rng(11)
    img = random_image(rng, 16, 16)
    c, side = cipher.encrypt_ieahf(img, PARAMS, 3)
    side.table[[0, 1]] = side.table[[1, 0]]
    with pytest.raises(CryptoMismatchError):
        cipher.decrypt_ieahf(c, side)


def test_ieahf_wrong_image_fails_checksum():
    rng = np.random.default_rng(12)
    img = random_image(rng, 16, 16)
    _, side = cipher.encrypt_ieahf(img, PARAMS, 2)
    other, _ = cipher.encrypt_ieahf(random_image(rng, 16, 16), PARAMS, 2)
    with pytest.raises(CryptoMismatchError, match="checksum"):
        cipher.decrypt_ieahf(other, side)


def test_ieahf_rejects_odd_dimensions():
    with pytest.raises(ValueError, match="even"):
        cipher.encrypt_ieahf(np.zeros((15, 16), dtype=np.uint8), PARAMS, 2)


def test_side_channel_file_binary_roundtrip():
    rng = np.random.default_rng(13)
    img = random_image(rng, 8, 10)
    c, side = cipher.encrypt_ieahf(img, PARAMS, 2)
    blob = side.to_bytes()
    assert blob[:4] == b"SSX1"
    assert len(blob) == 16 + 2 * (4 * 80 + 4)
    parsed = SideChannelFile.from_bytes(blob)
    # the parsed table is a view of the file's bytes, not a copy
    assert not parsed.table.flags.owndata
    assert np.array_equal(cipher.decrypt_ieahf(c, parsed), img)


def test_side_channel_files_compare_by_size_and_table():
    _, side = cipher.encrypt_ieahf(random_image(np.random.default_rng(15), 8, 10), PARAMS, 2)
    assert side == SideChannelFile.from_bytes(side.to_bytes())
    swapped = side.table.copy()
    swapped[:, [0, 1]] = swapped[:, [1, 0]]
    assert (side == SideChannelFile(width=10, height=8, table=swapped)) is False
    # the same words read as a 10x8 image's
    assert side != SideChannelFile(width=8, height=10, table=side.table)
    assert side != side.to_bytes()


def test_side_channel_file_bad_magic_and_size():
    with pytest.raises(ValueError, match="magic"):
        SideChannelFile.from_bytes(b"NOPE" + bytes(12))
    rng = np.random.default_rng(14)
    _, side = cipher.encrypt_ieahf(random_image(rng, 8, 8), PARAMS, 2)
    blob = side.to_bytes()
    with pytest.raises(ValueError, match="bytes"):
        SideChannelFile.from_bytes(blob[:-4])


def test_side_channel_file_rejects_non_bijection():
    table = np.zeros((1, 17), dtype="<u4")
    with pytest.raises(ValueError, match="bijection"):
        SideChannelFile(width=4, height=4, table=table)
    # the first repeated value is named with both of its indices
    table[0, :16] = [3, 1, 2, 0, 5, 4, 7, 6, 9, 8, 11, 10, 13, 1, 15, 14]
    with pytest.raises(ValueError, match=r"^round 1 permutation is not a bijection: "
                                         r"value 1 appears at indices 1 and 13$"):
        SideChannelFile(width=4, height=4, table=table)


@pytest.mark.parametrize("img, message", [
    (np.zeros((4, 4, 1), dtype=np.uint8), "2-D"),
    (np.zeros((4, 4), dtype=np.uint16), "uint8"),
], ids=["3-d", "uint16"])
def test_encrypt_rejects_non_grayscale_images(img, message):
    with pytest.raises(ValueError, match=message):
        cipher.encrypt_ieahf(img, PARAMS, 2)


def _table(perm, checksum=0, dtype="<u4"):
    return np.array([[*perm, checksum]], dtype=dtype)


@pytest.mark.parametrize("table, message", [
    (np.empty((0, 17), dtype="<u4"), "IEAHF uses at least 1 round and at most 255, got 0"),
    (_table(range(15)), "15 entries, expected 16"),
    (_table(range(16))[0], "2-D little-endian uint32"),
    (_table(range(16), dtype=np.int32), "2-D little-endian uint32"),
    # a table whose type could hold a negative or 33-bit checksum is refused by its type
    (_table(range(16), dtype=np.int64), "2-D little-endian uint32"),
    (_table(range(16), dtype=">u4"), "2-D little-endian uint32"),
    (np.tile(_table(range(16)), (256, 1)), "IEAHF uses at least 1 round and at most 255, got 256"),
], ids=["empty", "wrong-size", "1-d", "int32", "int64", "big-endian", "256-rounds"])
def test_side_channel_file_rejects_malformed_rounds(table, message):
    with pytest.raises(ValueError, match=message):
        SideChannelFile(width=4, height=4, table=table)


def test_round_count_below_one_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        cipher.encrypt_ieahf(black(4), PARAMS, 0)
    with pytest.raises(ValueError, match="at least 1"):
        cipher.key_space_bits(0)


@pytest.mark.parametrize("n", [cipher.MAX_ROUNDS + 1, 100_000_000_000])
def test_ieahf_round_count_is_capped_before_any_allocation(monkeypatch, n):
    monkeypatch.setattr(cipher, "generate_orbit", None)
    with pytest.raises(ValueError, match="IEAHF uses at least 1 round and at most 255"):
        cipher.encrypt_ieahf(black(8), PARAMS, n)


# ---------------------------------------------------------------- memory

def _traced_peak(fn, *args):
    """Peak bytes allocated while ``fn(*args)`` runs, beyond what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [2, 4])
def test_ieahf_frees_each_round_orbit_before_its_sort(n):
    # A round's orbit (16 B/px) is last read when its sort sequence is built.
    # Held through the sort, it sits beside the sequence, the sort order and
    # the sorted keys (8 B/px each) and the peak passes this bound.
    img = random_image(np.random.default_rng(21), 256, 256)
    mn = img.size
    orbit_bytes = (chaos.TRANSIENT_LENGTH + chaos.rows_for_sequence(mn)) * 6 * 8
    table_bytes = n * (mn + 1) * 4
    assert _traced_peak(cipher.encrypt_ieahf, img, PARAMS, n) < orbit_bytes + table_bytes + 16 * mn


@pytest.mark.parametrize("system", ["reftestmap", "hosny6d"])
@pytest.mark.parametrize("n", [4, 8])
def test_gh401_holds_one_orbit_slice_at_a_time(system, n):
    # The permutation table takes 4 B/px a round.  Each round's orbit slice
    # (16 B/px) is freed before its sort, whose sequence, sort order and
    # sorted keys take 8 B/px each.  A slice held through its sort passes
    # this bound, and the whole n-round orbit (16*n B/px) passes it by far.
    # 128x128 keeps the traced hosny6d orbit loop short and still shows both.
    img = random_image(np.random.default_rng(7), 128, 128)
    mn = img.size
    params = chaos.draw_params(system, 3)
    env = KeyEnvelope(system=system, ic=chaos.derive_initial_conditions(img), params=params,
                      n=n, whitening=bytes(16), sbox_name="aes")
    slice_bytes = (chaos.TRANSIENT_LENGTH + chaos.rows_for_sequence(mn)) * 6 * 8
    bound = 4 * n * mn + slice_bytes + 16 * mn
    assert _traced_peak(cipher.encrypt_gh401, img, params, n, AES, system) < bound
    assert _traced_peak(cipher.decrypt_gh401, img, env, AES) < bound


@pytest.mark.parametrize("system", ["reftestmap", "hosny6d"])
def test_gh401_encrypt_peak_does_not_grow_with_rounds(system):
    # Encryption applies each round's permutation as it is made and keeps
    # none, so its peak is one round's sort (24 B/px) and a few images at
    # any n.  A table of the rounds not yet reached would add 4 B/px a round.
    # tracemalloc also counts about 0.5 KB a round of tuples left on
    # CPython's free lists: 1.1% from n = 4 to 16 at this size, hence 2%.
    img = random_image(np.random.default_rng(7), 128, 128)
    mn = img.size
    params = chaos.draw_params(system, 3)
    slice_bytes = (chaos.TRANSIENT_LENGTH + chaos.rows_for_sequence(mn)) * 6 * 8
    cipher.encrypt_gh401(img, params, 3, AES, system)  # builds the cached diffusion tables
    peaks = [_traced_peak(cipher.encrypt_gh401, img, params, n, AES, system) for n in (4, 8, 16)]
    assert max(peaks) <= 1.02 * min(peaks)
    assert max(peaks) < slice_bytes + 12 * mn


def test_side_file_encodes_with_one_copy_of_its_table():
    mn = 256 * 256
    row = np.append(np.arange(mn), 0).astype("<u4")
    side = SideChannelFile(width=256, height=256, table=np.tile(row, (4, 1)))
    header = b"SSX1" + np.array([4, 256, 256], dtype="<u4").tobytes()
    assert side.to_bytes() == header + side.table.tobytes()
    assert _traced_peak(side.to_bytes) < 1.5 * side.table.nbytes
    # a table in another memory order still writes its rows in file order
    fortran = SideChannelFile(width=256, height=256, table=np.asfortranarray(side.table))
    assert fortran.to_bytes() == side.to_bytes()


# ---------------------------------------------------------------- GH401

def test_gh401_roundtrip_random():
    rng = np.random.default_rng(20)
    for _ in range(5):
        img = random_image(rng, 16, 24)
        c, env = cipher.encrypt_gh401(img, PARAMS, 4, AES)
        assert np.array_equal(cipher.decrypt_gh401(c, env, AES), img)


def test_gh401_deterministic_reencryption():
    rng = np.random.default_rng(21)
    img = random_image(rng, 16, 16)
    c1, env1 = cipher.encrypt_gh401(img, PARAMS, 4, AES)
    c2, env2 = cipher.encrypt_gh401(img, PARAMS, 4, AES)
    assert np.array_equal(c1, c2)
    assert env1.to_text() == env2.to_text()


def test_gh401_no_uniform_fixed_point():
    # every constant image must leave the pipeline changed
    for value in range(256):
        img = np.full((8, 8), value, dtype=np.uint8)
        c, _ = cipher.encrypt_gh401(img, PARAMS, 4, AES)
        assert not np.array_equal(c, img), f"constant {value} passed through"


def test_gh401_constant_images_uniform_under_hosny6d():
    # Includes gray 128, whose seed chain degenerates to (1, 0, ..., 0); the
    # hosny6d flow leaves that point, so the ciphertext stays uniform.
    params = chaos.default_params("hosny6d")
    from gh401.analysis import CHI2_CRITICAL_255_001, chi_square
    for value in (0, 128, 255):
        img = np.full((256, 256), value, dtype=np.uint8)
        c, _ = cipher.encrypt_gh401(img, params, 4, AES, system="hosny6d")
        assert chi_square(c) < CHI2_CRITICAL_255_001


def test_ieahf_gray128_two_valued_forever():
    # {0, 128} is a subgroup of Z_256 closed under the linear diffusion,
    # and the permutation preserves multisets, so the baseline never
    # escapes it no matter how many rounds run.
    img = np.full((64, 64), 128, dtype=np.uint8)
    for n in (1, 5, 20):
        c, _ = cipher.encrypt_ieahf(img, PARAMS, n)
        assert set(np.unique(c).tolist()) <= {0, 128}


def test_gh401_key_sensitivity():
    # 1e-10 on x1 regenerates an unrelated orbit; decryption must fail wholesale
    rng = np.random.default_rng(22)
    img = random_image(rng, 64, 64)
    c, env = cipher.encrypt_gh401(img, PARAMS, 4, AES)
    bumped = KeyEnvelope(
        system=env.system,
        ic=chaos.InitialConditions(env.ic.x1 + 1e-10, env.ic.x2, env.ic.x3,
                                   env.ic.x4, env.ic.x5, env.ic.x6),
        params=env.params, n=env.n, whitening=env.whitening, sbox_name=env.sbox_name)
    wrong = cipher.decrypt_gh401(c, bumped, AES)
    assert (wrong != img).mean() >= 0.99


def test_reftestmap_params_carry_no_secret():
    # a..r never enter the reftestmap update rule, so any parameter set
    # gives the same ciphertext and the same whitening key.
    img = random_image(np.random.default_rng(5), 64, 64)
    c1, env1 = cipher.encrypt_gh401(img, chaos.default_params("reftestmap"), 4, AES)
    c2, env2 = cipher.encrypt_gh401(img, chaos.draw_params("reftestmap", 9), 4, AES)
    assert env1.params != env2.params
    assert np.array_equal(c1, c2)
    assert env1.whitening == env2.whitening


@pytest.mark.parametrize("params", [chaos.default_params("hosny6d"),
                                    chaos.draw_params("hosny6d", 3)], ids=["default", "drawn3"])
def test_hosny6d_decrypts_with_a_slightly_wrong_parameter(params):
    # hosny6d does not separate nearby orbits, so a 1e-12 relative change
    # of a leaves every permutation and the whitening key as they were.
    img = random_image(np.random.default_rng(5), 64, 64)
    c, env = cipher.encrypt_gh401(img, params, 4, AES, system="hosny6d")
    bumped = chaos.SystemParams(params.a * (1 + 1e-12), *params.as_tuple()[1:])
    assert bumped != params
    wrong_key = KeyEnvelope(system=env.system, ic=env.ic, params=bumped, n=env.n,
                            whitening=env.whitening, sbox_name=env.sbox_name)
    assert np.array_equal(cipher.decrypt_gh401(c, wrong_key, AES), img)


def test_gh401_wrong_sbox_name():
    rng = np.random.default_rng(23)
    img = random_image(rng, 8, 8)
    c, env = cipher.encrypt_gh401(img, PARAMS, 4, AES)
    with pytest.raises(CryptoMismatchError, match="S-box"):
        cipher.decrypt_gh401(c, env, bundled_sbox("identity"))


def test_gh401_scheme_mismatch():
    # Key envelopes are GH401-only: neither another scheme's name nor the
    # shorter layout without whitening and S-box lines parses.
    lines = _envelope(4).to_text().replace("scheme=GH401", "scheme=IEAHF").splitlines()
    for text in ("\n".join(lines), "\n".join(lines[:-2])):
        with pytest.raises(ValueError, match="scheme 'IEAHF'"):
            KeyEnvelope.from_text(text)


def test_gh401_round_minimum():
    with pytest.raises(ValueError, match="3 rounds"):
        cipher.encrypt_gh401(black(8), PARAMS, 2, AES)


def test_gh401_round_maximum(monkeypatch):
    img = random_image(np.random.default_rng(27), 8, 8)
    c, env = cipher.encrypt_gh401(img, PARAMS, cipher.MAX_ROUNDS, AES)
    assert np.array_equal(cipher.decrypt_gh401(c, env, AES), img)
    # One round more is refused before any orbit is generated.
    monkeypatch.setattr(cipher, "generate_orbit", None)
    with pytest.raises(ValueError, match="at most 255"):
        cipher.encrypt_gh401(img, PARAMS, cipher.MAX_ROUNDS + 1, AES)


def test_envelope_text_roundtrip_bit_exact():
    rng = np.random.default_rng(24)
    img = random_image(rng, 16, 16)
    params = chaos.draw_params("hosny6d", 5)
    _, env = cipher.encrypt_gh401(img, params, 4, AES, system="hosny6d")
    text = env.to_text()
    reparsed = KeyEnvelope.from_text(text)
    assert reparsed.to_text() == text
    assert reparsed.ic == env.ic
    assert reparsed.params == env.params
    assert reparsed.whitening == env.whitening


def test_envelope_17_digit_reals_roundtrip():
    # 17 significant digits uniquely identify a binary64 value
    values = [1 / 3, 0.1, 1 / 129, 2 / 3 + 1e-16, 3.99]
    for v in values:
        assert float(f"{v:.17g}") == v


def test_envelope_preserves_decryption(tmp_path):
    rng = np.random.default_rng(25)
    img = random_image(rng, 16, 16)
    c, env = cipher.encrypt_gh401(img, PARAMS, 4, AES)
    path = tmp_path / "img.key"
    path.write_text(env.to_text(), encoding="utf-8")
    env2 = KeyEnvelope.from_text(path.read_text(encoding="utf-8"))
    assert np.array_equal(cipher.decrypt_gh401(c, env2, AES), img)


# Each edit of a written envelope still holds every field value, but is not the
# text the writer writes for them, so it must not parse.
@pytest.mark.parametrize("edit", [
    lambda t: t.replace("\nsystem=", "\n\nsystem="),
    lambda t: t.replace("\nsystem=", "\n  \nsystem="),
    lambda t: t.replace("\nn=4\n", "\nn=0_4\n"),
    lambda t: t.replace("\nn=4\n", "\nn=\u0664\n"),
    lambda t: t.replace("\nn=4\n", "\nn= 4 \n"),
    lambda t: t.replace("\nn=4\n", "\nn=04\n"),
    lambda t: t.replace("=f0e0d0c0b0a0", "=F0E0D0C0B0A0"),
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t[:-1],
    lambda t: t + t.splitlines(keepends=True)[-1],
    lambda t: t.replace("\na=3.9900000000000002\n", "\na=3.99\n"),
    lambda t: t.replace("\na=3.9900000000000002\n", "\na=1e300\n"),
], ids=["blank-line", "space-line", "n-underscore", "n-arabic-indic", "n-spaced", "n-leading-zero",
        "uppercase-hex", "crlf", "no-final-newline", "repeated-last-line", "a-short-real",
        "a-1e300"])
def test_envelope_rejects_text_to_text_never_writes(edit):
    text = _envelope(4, whitening=bytes(range(0, 256, 16))[::-1]).to_text()
    edited = edit(text)
    assert edited != text
    with pytest.raises(ValueError) as exc:
        KeyEnvelope.from_text(edited)
    # reals and the whitening key are key material: no value is echoed back
    values = {line.partition("=")[2].strip() for line in edited.splitlines()} - {""}
    assert not [v for v in values if v in str(exc.value)]


def test_envelope_field_order_enforced():
    lines = _envelope(4).to_text().splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    with pytest.raises(ValueError, match="order"):
        KeyEnvelope.from_text("\n".join(lines))


@pytest.mark.parametrize("field, value, message", [
    ("x1", "abc", "envelope field x1 is not a real number"),
    ("n", "four", "envelope field n is not an integer"),
    ("whitening", "zz", "envelope field whitening is not hex"),
])
def test_envelope_parse_error_names_the_field(field, value, message):
    lines = [f"{field}={value}" if ln.startswith(f"{field}=") else ln
             for ln in _envelope(4).to_text().splitlines()]
    with pytest.raises(ValueError, match=message) as exc:
        KeyEnvelope.from_text("\n".join(lines))
    # the rejected value can be most of the key, so the message never echoes it
    assert value not in str(exc.value)


def test_envelope_bytes_are_its_utf8_text():
    env = _envelope(4, sbox_name="b\u00f6x")
    assert env.to_bytes() == env.to_text().encode("utf-8")
    with pytest.raises(ValueError, match="^key envelope is not UTF-8 text$"):
        KeyEnvelope.from_bytes(b"\xff\xfe" + env.to_bytes())


def test_envelope_validation():
    for n in (2, cipher.MAX_ROUNDS + 1):
        with pytest.raises(ValueError, match="at least 3 rounds and at most 255"):
            _envelope(n)
    with pytest.raises(ValueError, match="whitening"):
        _envelope(4, whitening=bytes(8))
    with pytest.raises(ValueError, match="S-box name"):
        _envelope(4, sbox_name="")
    with pytest.raises(ValueError, match="unknown dynamical system 'nope'"):
        _envelope(4, system="nope")


def test_key_material_cannot_be_changed_after_its_checks():
    # the checks run only at construction, so an assignment would skip them
    _, side = cipher.encrypt_ieahf(black(4), PARAMS, 1)
    for key, field, value in ((_envelope(4), "n", 10**6), (side, "table", side.table[:, :1])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(key, field, value)


# every boundary str.splitlines knows; the text form must read each name back as one line
@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_envelope_rejects_names_with_line_breaks(brk):
    with pytest.raises(ValueError, match="one line"):
        _envelope(4, sbox_name=f"a{brk}b")
    with pytest.raises(ValueError, match="one line"):
        _envelope(4, system=f"reftestmap{brk}")


_SQUARE_TABLE = np.array([[0, 1, 2, 3, 0]], dtype="<u4")


# each of these would construct, then fail or write a file its own parser refuses
@pytest.mark.parametrize("make, message", [
    (lambda: _envelope(4.0), "^n must be int, got float$"),
    (lambda: _envelope(4, whitening="0" * 16), "^whitening must be bytes, got str$"),
    (lambda: _envelope(4, sbox_name=3), "^sbox_name must be str, got int$"),
    (lambda: _envelope(4, system=1), "^system must be str, got int$"),
    (lambda: SideChannelFile(width=2.0, height=2, table=_SQUARE_TABLE),
     "^width must be int, got float$"),
    (lambda: SideChannelFile(width=2, height="2", table=_SQUARE_TABLE),
     "^height must be int, got str$"),
], ids=["float-n", "str-whitening", "int-sbox-name", "int-system", "float-width", "str-height"])
def test_key_material_refuses_field_types_its_file_cannot_hold(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_key_material_stores_numpy_integers_as_int():
    env = _envelope(np.int64(4))
    assert type(env.n) is int and env.to_text() == _envelope(4).to_text()
    side = SideChannelFile(width=np.uint32(2), height=np.int8(2), table=_SQUARE_TABLE)
    assert type(side.width) is int and type(side.height) is int
    assert SideChannelFile.from_bytes(side.to_bytes()) == side


# ---------------------------------------------------- scheme dispatch

@pytest.mark.parametrize("scheme, key_type, rounds", [
    (cipher.SCHEME_IEAHF, SideChannelFile, 2),
    (cipher.SCHEME_GH401, KeyEnvelope, 4),
])
def test_dispatch_roundtrip_with_default_rounds(scheme, key_type, rounds):
    img = random_image(np.random.default_rng(26), 16, 16)
    c, key = cipher.encrypt(scheme, img, PARAMS, sbox=AES)
    assert isinstance(key, key_type)
    assert key.rounds == cipher.DEFAULT_ROUNDS[scheme] == rounds
    assert np.array_equal(cipher.decrypt(c, key, AES), img)


def test_dispatch_rejects_unknown_scheme_and_key():
    with pytest.raises(ValueError, match="scheme"):
        cipher.encrypt("ROT13", black(8), PARAMS, 2)
    with pytest.raises(TypeError, match="KeyEnvelope"):
        cipher.decrypt(black(8), b"not a key")


@pytest.fixture
def orbit_calls(monkeypatch):
    calls = []
    generate = cipher.generate_orbit
    monkeypatch.setattr(cipher, "generate_orbit",
                        lambda *a, **k: calls.append(1) or generate(*a, **k))
    return calls


def test_odd_image_is_rejected_before_any_orbit(orbit_calls):
    _, env = cipher.encrypt_gh401(black(16), PARAMS, 3, AES)
    orbit_calls.clear()
    odd = np.zeros((15, 16), dtype=np.uint8)
    for run in (lambda: cipher.encrypt_ieahf(odd, PARAMS, 2),
                lambda: cipher.encrypt_gh401(odd, PARAMS, 3, AES),
                lambda: cipher.decrypt_gh401(odd, env, AES)):
        with pytest.raises(ValueError, match="even"):
            run()
    assert orbit_calls == []


def test_image_beyond_2_to_32_pixels_is_rejected_before_any_orbit(orbit_calls):
    _, env = cipher.encrypt_gh401(black(16), PARAMS, 3, AES)
    orbit_calls.clear()
    # 2^32 + 4 pixels held in one byte; a uint32 table would store index 2^32 as 0
    huge = np.broadcast_to(np.uint8(0), (2, 2**31 + 2))
    for run in (lambda: cipher.encrypt_ieahf(huge, PARAMS, 2),
                lambda: cipher.encrypt_gh401(huge, PARAMS, 3, AES),
                lambda: cipher.decrypt_gh401(huge, env, AES)):
        with pytest.raises(ValueError, match=r"^image has 4294967300 pixels, "
                                             r"more than the 2\^32 = 4294967296 "):
            run()
    assert orbit_calls == []


def test_image_of_2_to_32_pixels_passes_the_block_check():
    img = np.broadcast_to(np.uint8(0), (2, 2**31))
    assert check_blocks(img) is img


def test_dispatch_gh401_encrypt_without_sbox_generates_no_orbit(orbit_calls):
    with pytest.raises(TypeError, match="S-box"):
        cipher.encrypt(cipher.SCHEME_GH401, black(8), PARAMS)
    assert orbit_calls == []


def test_dispatch_gh401_decrypt_without_sbox_generates_no_orbit(orbit_calls):
    c, env = cipher.encrypt(cipher.SCHEME_GH401, black(8), PARAMS, sbox=AES)
    orbit_calls.clear()
    with pytest.raises(TypeError, match="S-box"):
        cipher.decrypt(c, env)
    assert orbit_calls == []


@pytest.mark.parametrize("system", ["reftestmap", "hosny6d"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_gh401_equal_sum_change_stays_within_its_footprint(system, n):
    # The keystream sees the plaintext only through (pixel sum, M*N).  XOR,
    # S-box and permutation each change or move one pixel at a time, and
    # each diffusion round mixes a pixel with its block-row neighbour, so
    # one changed pixel reaches at most 2^n ciphertext pixels, two 2^(n+1).
    img = np.random.default_rng(64).integers(1, 255, size=(64, 64)).astype(np.uint8)
    assert chaos.derive_initial_conditions(img) == chaos.initial_conditions_from_sum(
        int(img.sum()), img.size)
    same_sum, plus_one = img.copy(), img.copy()
    same_sum[5, 9] += 1
    same_sum[40, 22] -= 1
    plus_one[5, 9] += 1
    params = chaos.default_params(system)
    c, env = cipher.encrypt_gh401(img, params, n, AES, system=system)
    c_same, env_same = cipher.encrypt_gh401(same_sum, params, n, AES, system=system)
    assert env_same.to_text() == env.to_text()
    assert 1 <= np.count_nonzero(c_same != c) <= 2 ** (n + 1)
    # Positive control: a change of sum re-keys every round.  The ideal
    # NPCR is 99.61%; 99% is about six standard errors below it at 4096 pixels.
    c_plus, _ = cipher.encrypt_gh401(plus_one, params, n, AES, system=system)
    assert npcr_uaci(c, c_plus)[0] > 99.0


@pytest.mark.parametrize("system", ["reftestmap", "hosny6d"])
@pytest.mark.parametrize("draw", [None, 3])
@pytest.mark.parametrize("shape", [(10, 10), (2, 4)])
def test_keystream_slices_are_one_orbit(monkeypatch, system, draw, shape):
    # Each round's slice continues from the last row of the slice before, so
    # the slices are bit for bit the rows of one call for every round.  At
    # 10x10 a round takes 34 rows and leaves 2 values unused; at 2x4 it
    # takes 3, so the whitening rows span two slices.  A slice is made only
    # when its round is taken.
    n = 5
    img = random_image(np.random.default_rng(9), *shape)
    mn, rows = img.size, chaos.rows_for_sequence(img.size)
    params = chaos.default_params(system) if draw is None else chaos.draw_params(system, draw)
    ic = chaos.derive_initial_conditions(img)
    slices = []
    generate = cipher.generate_orbit

    def spy(*args, **kwargs):
        slices.append(generate(*args, **kwargs))
        return slices[-1]

    monkeypatch.setattr(cipher, "generate_orbit", spy)
    keys = cipher._keystream(mn, system, ic, params)
    assert slices == []
    rounds = []
    for k in range(1, n + 1):
        rounds.append(next(keys))
        assert len(slices) == k
    keys.close()
    orbit = chaos.generate_orbit(chaos.get_system(system), ic, params, n * rows)
    assert [len(s) for s in slices] == [rows] * n
    assert np.concatenate(slices).tobytes() == orbit.tobytes()
    for k, (perm, head) in enumerate(rounds):
        assert head.tobytes() == orbit[:min(chaos.WHITENING_ROWS, (k + 1) * rows)].tobytes()
        sequence = chaos.build_sort_sequence(orbit[k * rows:], mn)
        assert np.array_equal(perm, chaos.argsort_ascending(sequence))
    assert rounds[-1][1].tobytes() == orbit[:chaos.WHITENING_ROWS].tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 4), (16, 16)])
@pytest.mark.parametrize("n", [3, 5])
def test_gh401_makes_one_orbit_slice_per_round(monkeypatch, shape, n):
    # Below 16 pixels the whitening rows span the first ceil(6 / rows)
    # slices, 3 at 2x2, so encryption takes those rounds before round 1;
    # three rounds always cover them, so no slice is made beyond round n.
    img = random_image(np.random.default_rng(17), *shape)
    calls = []
    generate = cipher.generate_orbit
    monkeypatch.setattr(cipher, "generate_orbit",
                        lambda *args, **kwargs: calls.append(1) or generate(*args, **kwargs))
    c, env = cipher.encrypt_gh401(img, PARAMS, n, AES)
    assert len(calls) == n
    assert np.array_equal(cipher.decrypt_gh401(c, env, AES), img)
    assert len(calls) == 2 * n


@pytest.mark.parametrize("d", [11.5, 12.0, 12.5])
def test_divergence_in_a_later_slice_names_its_full_trajectory_row(d):
    # A positive d makes x4 grow until the flow overflows.  From this 8x8
    # image's seeds these d keep the transient and round 1 finite and
    # overflow in round 4, 3 or 2 of 4.
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    n, rows = 4, chaos.rows_for_sequence(img.size)
    params = dataclasses.replace(chaos.default_params("hosny6d"), d=d)
    ic = chaos.derive_initial_conditions(img)
    with pytest.raises(chaos.OrbitDivergenceError) as whole:
        chaos.generate_orbit(chaos.get_system("hosny6d"), ic, params, n * rows)
    assert whole.value.step >= chaos.TRANSIENT_LENGTH + rows
    with pytest.raises(chaos.OrbitDivergenceError) as sliced:
        cipher.encrypt_gh401(img, params, n, AES, system="hosny6d")
    assert str(sliced.value) == str(whole.value)
    assert (sliced.value.step, sliced.value.variable) == (whole.value.step, whole.value.variable)


# ------------------------------------------------- key space / bandwidth

def test_key_space_bits():
    assert 446.9 <= cipher.key_space_bits(1) <= 447.0
    assert cipher.key_space_bits(4) == pytest.approx(cipher.key_space_bits(1) + 2)
    assert 318.9 <= cipher.ieahf_key_space_bits() <= 319.0


def test_bandwidth_ratio():
    ratio = cipher.bandwidth_ratio(256, 256, 2)
    assert 4 * 2 * 256 * 256 == 524288
    assert ratio > 1500
    assert cipher.bandwidth_ratio(256, 256, 4) == pytest.approx(2 * ratio)
    assert cipher.bandwidth_ratio(1, 1, 1) < 1  # degenerate, no clamping
    with pytest.raises(ValueError):
        cipher.bandwidth_ratio(0, 256, 1)
    with pytest.raises(ValueError, match="at most 255, got 256"):
        cipher.bandwidth_ratio(256, 256, 256)


# ------------------------------------------------------ golden ciphertexts

# SHA-256 over ciphertext and key material of a seeded random 16x24, an
# all-black and an all-white 16x16 image, per (scheme, system, S-box) at
# the scheme's default rounds.  Any change to what either cipher emits,
# however it is computed, fails here.
GOLDEN_DIGESTS = {
    ("IEAHF", "reftestmap", None): "678bf316147001376598ebea8771d943a41cec16f8c3ce2f3f6faf38036c52bb",
    ("IEAHF", "hosny6d", None): "4bee1c86e1e77e4bd84d4ad73de6f09c7dcc6c137c0c415d57ec6a10a5a55c57",
    ("GH401", "reftestmap", "aes"): "71980c53e1b05901381cef69d27661fd84af1bcb50d17cee71e9e34a4326e41d",
    ("GH401", "hosny6d", "aes"): "4f4d620c8c5fd487f2ac6ed28c96c944a15c23f0d02c0ea2f3439fdb0468833e",
    ("GH401", "reftestmap", "identity"): "d0f1c00330639d74f31aefbee2be838e50e4030fca4f78c035338d972c98c11e",
    ("GH401", "hosny6d", "identity"): "58e839853fd067de83d8c28c9864b7267b4947225df76c24b986fe4732240b13",
}


@pytest.mark.parametrize("scheme, system, sbox_name", list(GOLDEN_DIGESTS))
def test_golden_ciphertext_digests(scheme, system, sbox_name):
    # reftestmap at its default parameters, hosny6d at a drawn key
    params = (chaos.draw_params(system, 7) if system == "hosny6d"
              else chaos.default_params(system))
    sbox = bundled_sbox(sbox_name) if sbox_name else None
    digest = hashlib.sha256()
    for img in (random_image(np.random.default_rng(401), 16, 24), black(), white()):
        c, key = cipher.encrypt(scheme, img, params, sbox=sbox, system=system)
        digest.update(c.tobytes())
        digest.update(key.to_bytes() if scheme == cipher.SCHEME_IEAHF else key.to_text().encode())
    assert digest.hexdigest() == GOLDEN_DIGESTS[scheme, system, sbox_name]
