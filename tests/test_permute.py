"""Sort-based permutation stage."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gh401.stages import check_permutation, invert_permute, permute


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


@pytest.mark.parametrize("dtype", ["u1", "<u4", "i8"])
def test_integer_tables_of_any_width_agree(dtype):
    rng = np.random.default_rng(11)
    p = rng.integers(0, 256, 256).astype(np.uint8)
    s = rng.permutation(256)
    table = s.astype(dtype)
    expected = ((p[s].astype(np.int64) + 3) % 256).astype(np.uint8)
    assert np.array_equal(permute(p, table, 3), expected)
    assert np.array_equal(invert_permute(expected, table, 3), p)
    check_permutation(table, "table")


@pytest.mark.parametrize("table", [np.array([2.9, 0.0, 1.0, 3.0]), np.array([True, False, True, True])],
                         ids=["float", "bool"])
def test_refuses_non_integer_tables(table):
    # a float table would truncate to [2, 0, 1, 3]; a bool one would act as a mask
    p = np.arange(4, dtype=np.uint8)
    message = f"^indices must be integers, got {table.dtype}$"
    for stage in (permute, invert_permute):
        with pytest.raises(ValueError, match=message):
            stage(p, table, 0)
    with pytest.raises(ValueError, match=message):
        check_permutation(table, "table")


def test_negative_and_out_of_range_indices_behave_as_numpy_indexing():
    p = np.array([10, 20, 30, 40], dtype=np.uint8)
    s = np.array([-1, 0, 1, 2])
    assert permute(p, s, 0).tolist() == [40, 10, 20, 30]
    assert invert_permute(p, s, 0).tolist() == [20, 30, 40, 10]
    for stage in (permute, invert_permute):
        with pytest.raises(IndexError, match="index 4 is out of bounds for axis 0 with size 4"):
            stage(p, np.array([4, 0, 1, 2]), 0)


def test_check_permutation_refuses_negative_values():
    # a bool scatter would wrap -1 onto slot 2 and accept this table
    with pytest.raises(ValueError, match=r"^table has indices outside \[0, 3\)$"):
        check_permutation(np.array([-1, 0, 1]), "table")


def _bijection_oracle(values: np.ndarray, what: str):
    """The message check_permutation must raise, or None: bincount, then a scan for the first repeat."""
    n = len(values)
    v = values.astype(np.int64)
    if v.max() >= n or v.min() < 0:
        return f"{what} has indices outside [0, {n})"
    if np.bincount(v, minlength=n).max() == 1:
        return None
    where = {}
    for j, x in enumerate(v.tolist()):
        if x in where:
            return f"{what} is not a bijection: value {x} appears at indices {where[x]} and {j}"
        where[x] = j


@settings(database=None, max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["u1", "<u4", "i8"]), st.integers(1, 300),
       st.sampled_from(["valid", "duplicate", "out of range"]))
def test_check_permutation_agrees_with_bincount_oracle(data, dtype, n, kind):
    info = np.iinfo(dtype)
    # a u1 table longer than 256 wraps on the cast, so it always repeats a value
    values = np.array(data.draw(st.permutations(range(n)))).astype(dtype)
    if kind == "duplicate":
        assume(n > 1)
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        values[j] = values[i]
    elif kind == "out of range":
        assume(n <= info.max or info.min < 0)
        bad = st.integers(n, info.max) if n <= info.max else st.nothing()
        if info.min < 0:
            bad = bad | st.integers(info.min, -1)
        values[data.draw(st.integers(0, n - 1))] = data.draw(bad)
    expected = _bijection_oracle(values, "row")
    if expected is None:
        check_permutation(values, "row")
    else:
        with pytest.raises(ValueError) as err:
            check_permutation(values, "row")
        assert str(err.value) == expected


def test_tables_longer_than_one_index_band():
    # the stages cast indices to intp in bands of 2**14; cover a partial last band
    rng = np.random.default_rng(12)
    n = 3 * 2**14 + 123
    p = rng.integers(0, 256, n).astype(np.uint8)
    s = rng.permutation(n).astype("<u4")
    expected = p[s.astype(np.int64)] + np.uint8(7)
    assert np.array_equal(permute(p, s, 7), expected)
    assert np.array_equal(invert_permute(expected, s, 7), p)
    check_permutation(s, "row")
    for i, j in ((0, n - 1), (n - 2, 5)):
        bad = s.copy()
        bad[j] = bad[i]
        first, second = min(i, j), max(i, j)
        with pytest.raises(ValueError, match=f"^row is not a bijection: value {int(s[i])} "
                                             f"appears at indices {first} and {second}$"):
            check_permutation(bad, "row")
