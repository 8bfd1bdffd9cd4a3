"""Q-matrix block diffusion and its modular inverse."""

import numpy as np
import pytest

from gh401.chaos import default_params
from gh401.cipher import encrypt_gh401
from gh401.sbox import bundled_sbox
from gh401.stages import DIFFUSION_MATRIX, DIFFUSION_MATRIX_INV, diffuse, inverse_diffuse


def fib_q_power(n: int):
    """Q^n = [[F_{n+1}, F_n], [F_n, F_{n-1}]] with exact integers: the oracle for A = Q^10."""
    if n < 1:
        raise ValueError("n must be at least 1")
    f_prev, f_cur = 0, 1  # F_0, F_1
    for _ in range(n):
        f_prev, f_cur = f_cur, f_prev + f_cur
    # now f_cur = F_{n+1}, f_prev = F_n
    f_next, f_n = f_cur, f_prev
    f_before = f_next - f_n  # F_{n-1}
    return [[f_next, f_n], [f_n, f_before]]


def test_fib_q_power_small():
    assert fib_q_power(1) == [[1, 1], [1, 0]]
    assert fib_q_power(2) == [[2, 1], [1, 1]]
    assert fib_q_power(10) == [[89, 55], [55, 34]]


def test_fib_q_power_determinant_identity():
    for n in range(1, 21):
        m = fib_q_power(n)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det == (-1) ** n


def test_fib_q_power_rejects_zero():
    with pytest.raises(ValueError):
        fib_q_power(0)


def test_matrix_inverse_mod_256():
    prod = (DIFFUSION_MATRIX @ DIFFUSION_MATRIX_INV) % 256
    assert prod.tolist() == [[1, 0], [0, 1]]
    # spot value from the adjugate: 89*34 + 55*201 = 14081 = 55*256 + 1
    assert (89 * 34 + 55 * 201) % 256 == 1


def test_ieahf_blocks():
    zero = np.zeros((2, 2), dtype=np.uint8)
    assert diffuse(zero, 0).tolist() == [[0, 0], [0, 0]]
    white = np.full((2, 2), 255, dtype=np.uint8)
    assert diffuse(white, 0).tolist() == [[112, 167], [112, 167]]
    eye = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    assert diffuse(eye, 0).tolist() == [[89, 55], [55, 34]]


def test_gh401_blocks():
    zero = np.zeros((2, 2), dtype=np.uint8)
    assert diffuse(zero, 1).tolist() == [[145, 90], [145, 90]]
    white = np.full((2, 2), 255, dtype=np.uint8)
    assert diffuse(white, 1).tolist() == [[1, 1], [1, 1]]


def test_inverse_of_white_cipher_block():
    block = np.array([[112, 167], [112, 167]], dtype=np.uint8)
    assert inverse_diffuse(block, 0).tolist() == [[255, 255], [255, 255]]


def test_gh401_zero_image_becomes_nonzero_pattern():
    img = np.zeros((16, 16), dtype=np.uint8)
    out = diffuse(img, 1)
    assert (out != 0).all()
    # every block is identical, a two-column constant pattern
    assert np.array_equal(out[:, 0::2], np.full((16, 8), 145))
    assert np.array_equal(out[:, 1::2], np.full((16, 8), 90))


def test_odd_dimensions_rejected():
    with pytest.raises(ValueError, match="even"):
        diffuse(np.zeros((3, 4), dtype=np.uint8), 0)
    with pytest.raises(ValueError, match="even"):
        diffuse(np.zeros((4, 5), dtype=np.uint8), 1)
    with pytest.raises(ValueError, match="even"):
        inverse_diffuse(np.zeros((5, 5), dtype=np.uint8), 0)
    # an image with no block is rejected as the pipelines reject it, in the same words
    empty = np.zeros((0, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="even") as stage:
        diffuse(empty, 1)
    with pytest.raises(ValueError) as pipeline:
        encrypt_gh401(empty, default_params("reftestmap"), 4, bundled_sbox("identity"))
    assert str(stage.value) == str(pipeline.value) == "image dimensions must be even and at least 2x2, got 0x4"


def test_1d_array_rejected():
    with pytest.raises(ValueError, match="2-D"):
        diffuse(np.zeros(4, dtype=np.uint8), 0)


def test_roundtrip_property_both_schemes():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        h = 2 * int(rng.integers(1, 17))
        w = 2 * int(rng.integers(1, 17))
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        assert np.array_equal(inverse_diffuse(diffuse(img, 0), 0), img)
        assert np.array_equal(inverse_diffuse(diffuse(img, 1), 1), img)
        assert np.array_equal(diffuse(inverse_diffuse(img, 0), 0), img)
        assert np.array_equal(diffuse(inverse_diffuse(img, 1), 1), img)


def _oracle(img, matrix, bias):
    """((B + bias) @ matrix + bias) mod 256 per 2x2 block, in int64."""
    h, w = img.shape
    blocks = img.astype(np.int64).reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3)
    out = ((blocks + bias) @ matrix + bias) % 256
    return out.transpose(0, 2, 1, 3).reshape(h, w).astype(np.uint8)


@pytest.mark.parametrize("bias", [0, 1])
def test_matches_int64_block_oracle(bias):
    # B @ A and A @ B differ, which a round trip alone cannot tell apart
    rng = np.random.default_rng(10 + bias)
    for _ in range(200):
        h = 2 * int(rng.integers(1, 17))
        w = 2 * int(rng.integers(1, 17))
        img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        assert np.array_equal(diffuse(img, bias), _oracle(img, DIFFUSION_MATRIX, bias))
        assert np.array_equal(inverse_diffuse(img, bias),
                              _oracle(img, DIFFUSION_MATRIX_INV, -bias))


def test_ieahf_is_linear_mod_256():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    y = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    lhs = diffuse(((x.astype(np.int64) + y) % 256).astype(np.uint8), 0)
    rhs = (diffuse(x, 0).astype(np.int64) + diffuse(y, 0)) % 256
    assert np.array_equal(lhs, rhs.astype(np.uint8))


@pytest.mark.parametrize("stage", [diffuse, inverse_diffuse])
def test_refuses_non_uint8_pixels(stage):
    # 300 would wrap to 44 if the pixels were cast to uint8
    with pytest.raises(ValueError, match="expected uint8 pixels, got int64"):
        stage(np.array([[300, 1], [2, 3]], dtype=np.int64), 1)
