"""Sort-based permutation stage."""

import numpy as np
import pytest

from gh401.cipher import permute_gh401
from gh401.stages import invert_permute, permute


def test_ieahf_definition():
    p = np.array([10, 20, 30], dtype=np.uint8)
    s = np.array([2, 0, 1])
    assert permute(p, s, 0).tolist() == [30, 10, 20]


def test_ieahf_identity_permutation():
    p = np.arange(16, dtype=np.uint8)
    assert permute(p, np.arange(16), 0).tolist() == p.tolist()


def test_ieahf_uniform_input_is_fixed():
    p = np.full(64, 255, dtype=np.uint8)
    s = np.random.default_rng(0).permutation(64)
    assert permute(p, s, 0).tolist() == p.tolist()


def test_gh401_round_offset():
    s = np.random.default_rng(1).permutation(8)
    assert permute(np.zeros(8, dtype=np.uint8), s, 1).tolist() == [1] * 8
    assert permute(np.full(8, 255, dtype=np.uint8), s, 1).tolist() == [0] * 8
    p = np.array([10, 20, 30], dtype=np.uint8)
    assert permute(p, np.array([2, 0, 1]), 2).tolist() == [32, 12, 22]


def test_gh401_rejects_round_zero():
    with pytest.raises(ValueError):
        permute_gh401(np.zeros(4, dtype=np.uint8), np.arange(4), 0)


def test_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        permute(np.zeros(4, dtype=np.uint8), np.arange(5), 0)
    with pytest.raises(ValueError, match="length"):
        invert_permute(np.zeros(4, dtype=np.uint8), np.arange(5), 1)


def test_ieahf_preserves_histogram():
    rng = np.random.default_rng(5)
    p = rng.integers(0, 256, 500).astype(np.uint8)
    s = rng.permutation(500)
    assert np.array_equal(np.bincount(permute(p, s, 0), minlength=256),
                          np.bincount(p, minlength=256))


def test_gh401_shifts_histogram_circularly():
    rng = np.random.default_rng(6)
    p = rng.integers(0, 256, 2048).astype(np.uint8)
    s = rng.permutation(2048)
    for k in (1, 3, 200, 256):
        hist_in = np.bincount(p, minlength=256)
        hist_out = np.bincount(permute(p, s, k), minlength=256)
        assert np.array_equal(hist_out, np.roll(hist_in, k % 256))


def test_roundtrip_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 300))
        p = rng.integers(0, 256, n).astype(np.uint8)
        s = rng.permutation(n)
        k = int(rng.integers(1, 20))
        assert np.array_equal(invert_permute(permute(p, s, 0), s, 0), p)
        assert np.array_equal(invert_permute(permute(p, s, k), s, k), p)


def test_invert_permute_leaves_unnamed_slots_zero():
    # s is not a permutation: every index is 0, so slots 1..4095 are never written
    r = np.full(4096, 7, dtype=np.uint8)
    s = np.zeros(4096, dtype=np.int64)
    first = invert_permute(r, s, 0)
    assert first[0] == 7 and not first[1:].any()
    assert np.array_equal(invert_permute(r, s, 0), first)


@pytest.mark.parametrize("stage", [permute, invert_permute])
def test_refuses_non_uint8_pixels(stage):
    # 300 would wrap to 44 if the pixels were cast to uint8
    with pytest.raises(ValueError, match="expected uint8 pixels, got int64"):
        stage(np.array([300, 1], dtype=np.int64), np.array([0, 1]), 0)
