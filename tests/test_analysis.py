"""Security metrics."""

import numpy as np
import pytest

from gh401 import analysis, cipher
from gh401.analysis import (
    CHI2_CRITICAL_255_001,
    ZeroVarianceError,
    chi_square,
    correlation,
    differential_test,
    entropy,
    full_report,
    histogram,
    npcr_uaci,
)
from gh401.chaos import TRANSIENT_LENGTH, SystemParams
from gh401.stages import permute
from gh401.sbox import bundled_sbox

PARAMS = SystemParams(3.99, 3.99, 3.99, 3.99, 3.99, 3.99)


def test_histogram_black():
    img = np.zeros((16, 16), dtype=np.uint8)
    h = histogram(img)
    assert h[0] == 256 and h[1:].sum() == 0


def test_histogram_four_levels():
    h = histogram(np.array([[0, 1], [2, 3]], dtype=np.uint8))
    assert h[:4].tolist() == [1, 1, 1, 1] and h.sum() == 4


def test_histogram_sums_to_pixel_count():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(33, 7)).astype(np.uint8)
    assert histogram(img).sum() == img.size


WIDE = np.array([[300, 1], [2, 3]])  # int64; as uint8, 300 would count as 44
U8 = WIDE.astype(np.uint8)


@pytest.mark.parametrize("call", [
    lambda: histogram(WIDE),
    lambda: chi_square(WIDE),
    lambda: entropy(WIDE),
    lambda: npcr_uaci(WIDE, U8),
    lambda: npcr_uaci(U8, WIDE),
    lambda: correlation(WIDE, "H", pairs=2, seed=0),
    lambda: full_report(np.tile(WIDE, (2, 2)), pairs=2),
    lambda: full_report(np.tile(U8, (2, 2)), np.tile(WIDE, (2, 2)), pairs=2),
    lambda: differential_test(lambda im: im, WIDE, U8, trials=1, seed=0),
    lambda: differential_test(lambda im: im, U8, WIDE, trials=1, seed=0),
], ids=["histogram", "chi_square", "entropy", "npcr_uaci-first", "npcr_uaci-second",
        "correlation", "full_report-cipher", "full_report-plain",
        "differential_test-image", "differential_test-base"])
def test_metrics_refuse_non_uint8_images(call):
    with pytest.raises(ValueError, match="expected uint8 pixels, got int64"):
        call()


def test_metrics_refuse_non_2d_images():
    with pytest.raises(ValueError, match="expected a 2-D grayscale image"):
        histogram(np.zeros(16, dtype=np.uint8))


def test_chi_square_constant_256():
    img = np.full((256, 256), 128, dtype=np.uint8)
    assert chi_square(img) == 16711680.0


def test_chi_square_uniform_is_zero():
    img = np.tile(np.arange(256, dtype=np.uint8), 256).reshape(256, 256)
    assert chi_square(img) == 0.0


def test_chi_square_two_level():
    img = np.tile(np.array([112, 167], dtype=np.uint8), 32768).reshape(256, 256)
    assert chi_square(img) == 8323072.0


def test_entropy_values():
    assert entropy(np.full((16, 16), 9, dtype=np.uint8)) == 0.0
    two = np.tile(np.array([112, 167], dtype=np.uint8), 128).reshape(16, 16)
    assert entropy(two) == 1.0
    uniform = np.tile(np.arange(256, dtype=np.uint8), 256).reshape(256, 256)
    assert entropy(uniform) == 8.0


def test_entropy_is_permutation_invariant():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    s = rng.permutation(img.size)
    shuffled = permute(img.reshape(-1), s, 0).reshape(img.shape)
    assert entropy(shuffled) == entropy(img)


def test_npcr_uaci_extremes():
    a = np.zeros((8, 8), dtype=np.uint8)
    b = np.full((8, 8), 255, dtype=np.uint8)
    assert npcr_uaci(a, a) == (0.0, 0.0)
    assert npcr_uaci(a, b) == (100.0, 100.0)


def test_npcr_uaci_symmetric():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    b = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    assert npcr_uaci(a, b) == npcr_uaci(b, a)


def test_npcr_uaci_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        npcr_uaci(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 6), dtype=np.uint8))
    # these two shapes broadcast, so only the shape check refuses them
    with pytest.raises(ValueError, match="shapes"):
        npcr_uaci(np.zeros((4, 4), dtype=np.uint8), np.zeros((1, 4), dtype=np.uint8))


def test_correlation_perfect_on_constant_rows():
    # every horizontally adjacent pair is (row value, row value): y = x
    img = np.repeat(np.arange(64, dtype=np.uint8)[:, None], 64, axis=1)
    assert correlation(img, "H", pairs=1000, seed=0) == pytest.approx(1.0)


def test_correlation_constant_image_raises():
    img = np.full((64, 64), 5, dtype=np.uint8)
    with pytest.raises(ZeroVarianceError):
        correlation(img, "H", pairs=100, seed=0)


def test_correlation_deterministic_and_seed_dependent():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
    r1 = correlation(img, "V", pairs=500, seed=42)
    assert correlation(img, "V", pairs=500, seed=42) == r1
    assert correlation(img, "V", pairs=500, seed=43) != r1


def test_correlation_validates_pairs():
    img = np.zeros((8, 8), dtype=np.uint8)
    with pytest.raises(ValueError, match="pairs"):
        correlation(img, "H", pairs=1, seed=0)
    with pytest.raises(ValueError, match="adjacent"):
        correlation(img, "H", pairs=10_000, seed=0)
    with pytest.raises(ValueError, match="direction"):
        correlation(img, "X", pairs=4, seed=0)


def test_correlation_bounded():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
    for d in "HVD":
        assert abs(correlation(img, d, pairs=2000, seed=1)) <= 1.0


def test_chi_square_critical_holds_for_random_images():
    # at the 1% level, at least 95 of 100 random uniform images pass
    passes = 0
    for seed in range(100):
        img = np.random.default_rng(seed).integers(0, 256, size=(256, 256)).astype(np.uint8)
        passes += chi_square(img) < CHI2_CRITICAL_255_001
    assert passes >= 95


def test_differential_test_deterministic():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    enc = lambda im: cipher.encrypt_ieahf(im, PARAMS, 2)[0]
    r1 = differential_test(enc, img, enc(img), trials=3, seed=9)
    r2 = differential_test(enc, img, enc(img), trials=3, seed=9)
    assert (r1.mean_npcr, r1.mean_uaci, r1.best_trial) == (r2.mean_npcr, r2.mean_uaci, r2.best_trial)


def test_differential_test_requires_trials():
    zero = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        differential_test(lambda im: im, zero, zero, trials=0, seed=0)


def test_differential_best_tracks_max_npcr():
    img = np.zeros((8, 8), dtype=np.uint8)
    # toy pipeline whose ciphertext equals the plaintext: only the flipped
    # pixel differs, so every trial scores the same tiny NPCR
    res = differential_test(lambda im: im, img, img, trials=4, seed=0)
    assert res.best_npcr == res.mean_npcr == pytest.approx(100.0 / 64)
    assert res.best_trial == 0


def test_white_differential_runs_on_two_keystreams(monkeypatch):
    # +1 wraps a 255 pixel to 0, so every trial plaintext of a white image
    # has the pixel sum 255*MN - 255 and the same seeds: the base encryption
    # and the trials share two distinct orbits between them.  Each keystream
    # starts with the one orbit slice that runs the transient from the seeds.
    seeds = []
    generate_orbit = cipher.generate_orbit

    def spy(system, ic, params, length, *, transient=TRANSIENT_LENGTH):
        if transient:
            seeds.append(ic.as_tuple())
        return generate_orbit(system, ic, params, length, transient=transient)

    monkeypatch.setattr(cipher, "generate_orbit", spy)
    white = np.full((16, 16), 255, dtype=np.uint8)
    enc = lambda im: cipher.encrypt_gh401(im, PARAMS, 4, bundled_sbox("aes"))[0]
    differential_test(enc, white, enc(white), trials=10, seed=0)
    assert len(seeds) == 11
    assert len(set(seeds)) == 2


def test_full_report_fields_and_zero_variance_flag():
    img = np.full((64, 64), 200, dtype=np.uint8)
    report = dict(full_report(img, pairs=500, seed=0))
    assert [report[f"correlation.{d}"] for d in "hvd"] == ["undefined (zero variance)"] * 3
    counts = [int(v) for v in report["histogram"].split(",")]
    assert len(counts) == 256 and counts[200] == sum(counts) == img.size
    assert report["entropy"] == "0.000000"
    assert report["chi_square_pass"] == "false"
    assert "npcr" not in report


def test_full_report_with_pair_metrics():
    rng = np.random.default_rng(6)
    plain = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
    other = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
    report = full_report(other, plain, pairs=500, seed=3)
    keys = [key for key, _ in report]
    assert keys[-3:] == ["npcr", "uaci", "histogram"]
    assert dict(report)["npcr"] == f"{npcr_uaci(other, plain)[0]:.6f}"
    assert ("seed", 3) in report


def test_report_text_deterministic():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
    a = analysis.key_value_text(full_report(img, pairs=400, seed=1))
    b = analysis.key_value_text(full_report(img, pairs=400, seed=1))
    assert a == b
