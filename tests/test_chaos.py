"""Keystream layer: seed derivation, orbits, sorting sequence, whitening."""

import hashlib
import math
import struct
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gh401 import chaos

SETTINGS = settings(database=None, max_examples=300, deadline=None)

PARAMS_399 = chaos.SystemParams(3.99, 3.99, 3.99, 3.99, 3.99, 3.99)

# First post-transient row of the reftestmap orbit seeded from the
# all-zero 256x256 image with params all 3.99 (regression fixture,
# computed once and frozen as exact float bit patterns).
GOLDEN_FIRST_ROW = [
    "0x1.c0adc6a0384eap-1",
    "0x1.124d6a2b1c639p-1",
    "0x1.c64a2a76f46a0p-5",
    "0x1.ff1d3c9f40e98p-1",
    "0x1.d19fe10b805f9p-1",
    "0x1.ea6d78a86b6d0p-1",
]
GOLDEN_WHITENING = "c8c08018cecc611030f0f07048e6f840"


def black(shape=(256, 256)):
    return np.zeros(shape, dtype=np.uint8)


def test_x1_black_is_exact_ratio():
    ic = chaos.derive_initial_conditions(black())
    assert ic.x1 == 65536 / 8454144
    assert ic.x1 == 1 / 129


def test_seed_chain_matches_exact_oracle():
    # The double-precision chain may drift from the exact recurrence by
    # one part in ~1e14 per step (the 1e6 multiplier amplifies rounding).
    ic = chaos.derive_initial_conditions(black())
    exact = Fraction(65536, 2**23 + 65536)
    exact2 = (exact * 10**6) % 1
    assert abs(ic.x2 - float(exact2)) < 1e-9
    assert str(ic.x2).startswith("0.937984496124")
    for x in (ic.x2, ic.x3, ic.x4, ic.x5, ic.x6):
        assert 0.0 <= x < 1.0


def test_x1_white_exceeds_one():
    white = np.full((256, 256), 255, dtype=np.uint8)
    ic = chaos.derive_initial_conditions(white)
    exact = Fraction(255 * 65536 + 65536, 2**23 + 65536)
    assert ic.x1 > 1
    assert abs(ic.x1 - float(exact)) < 1e-12


def test_derive_initial_conditions_deterministic():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(32, 48)).astype(np.uint8)
    assert chaos.derive_initial_conditions(img) == chaos.derive_initial_conditions(img)


def test_derive_initial_conditions_rejects_empty():
    with pytest.raises(ValueError):
        chaos.derive_initial_conditions(np.zeros((0, 4), dtype=np.uint8))


def test_orbit_shape_and_range():
    ic = chaos.derive_initial_conditions(black())
    orbit = chaos.generate_orbit(chaos.get_system("reftestmap"), ic, PARAMS_399, 10)
    assert orbit.shape == (10, 6)
    assert (orbit >= 0).all() and (orbit < 1).all()


@pytest.mark.parametrize("name", ["reftestmap", "hosny6d"])
def test_orbit_bitwise_deterministic(name):
    system = chaos.get_system(name)
    params = chaos.default_params(name)
    ic = chaos.derive_initial_conditions(black((16, 16)))
    o1 = chaos.generate_orbit(system, ic, params, 200)
    o2 = chaos.generate_orbit(system, ic, params, 200)
    assert np.array_equal(o1, o2)


# SHA-256 of generate_orbit(...).tobytes() for a 64x64 seeded image, 5464
# kept rows (a 64x64 GH401 encrypt at 4 rounds).  Recorded from the earlier
# implementation that kept a per-step rule beside the fused loop, so they
# pin the single unrolled rule to the same bits.  "drawn7" uses draw_params;
# "odd" seeds exercise the reftestmap entry wrap: negative, far above 1,
# zero, a half-integer, negative zero, just below 1.
GOLDEN_ORBIT_LENGTH = 5464
GOLDEN_ORBIT_SHA256 = {
    "hosny6d-default": "f9432c1583eedc0948c1d14fc26039018fd57600184bb7eac8a0bd8d84ee7f88",
    "hosny6d-drawn7": "340f9d24e5ed724c6020d0de20acc8bcdd459a1fc913695fa670579cedf7789d",
    "reftestmap-default": "fed88cafdb087518a313728498adab3ed9c84ef541289075968e2ef5fd0319c5",
    "reftestmap-odd": "b12065d09ec03ab20eb5afa96182320c40f179227c05d7ad327beed74bfbb7e2",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ORBIT_SHA256))
def test_golden_orbit_digests(case):
    ic = chaos.derive_initial_conditions(
        np.random.default_rng(0).integers(0, 256, (64, 64)).astype(np.uint8))
    odd = chaos.InitialConditions(-3.7, 1e6 + 0.25, 0.0, 5.5, -0.0, 0.999999999)
    name, variant = case.split("-")
    params = chaos.draw_params(name, 7) if variant == "drawn7" else chaos.default_params(name)
    seeds = odd if variant == "odd" else ic
    orbit = chaos.generate_orbit(chaos.get_system(name), seeds, params, GOLDEN_ORBIT_LENGTH)
    assert orbit.shape == (GOLDEN_ORBIT_LENGTH, 6) and orbit.dtype == np.float64
    assert hashlib.sha256(orbit.tobytes()).hexdigest() == GOLDEN_ORBIT_SHA256[case]


def first_rows(gen, n):
    """The first ``n`` rows an ``iterate`` generator yields, as an (n, 6) array."""
    return np.fromiter(gen, (np.float64, 6), count=n)


@pytest.mark.parametrize("name", ["reftestmap", "hosny6d"])
def test_iterate_contract(name):
    # iterate yields one state after another, so a fresh generator's
    # first rows are a prefix of a longer pull.
    system = chaos.get_system(name)
    params = chaos.default_params(name)
    state = chaos.derive_initial_conditions(black((16, 16))).as_tuple()
    assert all(len(row) == 6 and all(type(v) is float for v in row)
               for row in islice(system.iterate(state, params), 100))
    full = first_rows(system.iterate(state, params), 100)
    assert full.shape == (100, 6) and full.dtype == np.float64
    assert np.array_equal(first_rows(system.iterate(state, params), 40), full[:40])


@pytest.mark.parametrize("name", ["reftestmap", "hosny6d"])
def test_iterate_runs_lanes_bit_for_bit(name):
    # Six float64 arrays as the state run one orbit per element through
    # the same update rule; every lane equals its scalar orbit bit for bit,
    # and the caller's state arrays are left as they were.
    system = chaos.get_system(name)
    params = chaos.draw_params(name, 3)
    seeds = [chaos.initial_conditions_from_sum(total, 64 * 64).as_tuple()
             for total in range(0, 64 * 255, 255)]
    n = chaos.TRANSIENT_LENGTH + 88
    lanes = np.array(seeds).T.copy()
    lane_rows = np.array([np.stack(row) for row in islice(system.iterate(tuple(lanes), params), n)])
    assert lane_rows.shape == (n, 6, 64)
    assert np.array_equal(lanes, np.array(seeds).T)
    for k, seed in enumerate(seeds):
        assert lane_rows[:, :, k].tobytes() == first_rows(system.iterate(seed, params), n).tobytes()


def test_golden_orbit_row():
    ic = chaos.derive_initial_conditions(black())
    orbit = chaos.generate_orbit(chaos.get_system("reftestmap"), ic, PARAMS_399, 1)
    assert [v.hex() for v in orbit[0]] == GOLDEN_FIRST_ROW


def test_orbit_divergence_names_step():
    # Explosive parameters drive the flow to infinity in the first update,
    # well inside the transient.
    system = chaos.get_system("hosny6d")
    bad = chaos.SystemParams(1e100, 1, 1, 1, 1, 1)
    ic = chaos.InitialConditions(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    with pytest.raises(chaos.OrbitDivergenceError) as err:
        chaos.generate_orbit(system, ic, bad, 10)
    assert str(err.value).startswith("non-finite state at iteration 0 ")
    assert (err.value.step, err.value.variable) == (0, "x1")


def test_orbit_divergence_inside_transient_names_first_bad_row():
    # d = 100 makes x4 grow about 10% per step; x2 overflows first, mid-transient.
    system = chaos.get_system("hosny6d")
    params = chaos.SystemParams(10.0, 8.0 / 3.0, 28.0, 100.0, 8.0, 3.0)
    ic = chaos.InitialConditions(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    with pytest.raises(chaos.OrbitDivergenceError) as err:
        chaos.generate_orbit(system, ic, params, 10)
    step = err.value.step
    assert 0 < step < chaos.TRANSIENT_LENGTH
    full = first_rows(system.iterate(ic.as_tuple(), params), step + 1)
    assert np.isfinite(full[:step]).all()
    bad_cols = np.flatnonzero(~np.isfinite(full[step]))
    assert err.value.variable == f"x{bad_cols[0] + 1}"
    assert f"iteration {step} ({err.value.variable} " in str(err.value)


def test_orbit_divergence_after_transient_names_its_full_trajectory_row():
    # With d = 10 the flow stays finite through the transient; x1 overflows
    # in kept row 318, which is row 1318 of the full run.
    system = chaos.get_system("hosny6d")
    params = chaos.SystemParams(10.0, 8.0 / 3.0, 28.0, 10.0, 8.0, 3.0)
    ic = chaos.InitialConditions(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    with pytest.raises(chaos.OrbitDivergenceError) as err:
        chaos.generate_orbit(system, ic, params, 1000)
    assert (err.value.step, err.value.variable) == (1318, "x1")


def test_generate_orbit_iterates_once(monkeypatch):
    # One run yields the kept rows and, on divergence, the row that names it.
    system = chaos.get_system("hosny6d")
    pulled = []

    def spy(state, params):
        pulled.append(0)
        for row in type(system).iterate(system, state, params):
            pulled[-1] += 1
            yield row

    monkeypatch.setattr(system, "iterate", spy)
    ic = chaos.InitialConditions(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    chaos.generate_orbit(system, ic, chaos.default_params("hosny6d"), 10)
    with pytest.raises(chaos.OrbitDivergenceError):
        chaos.generate_orbit(system, ic, chaos.SystemParams(1e100, 1, 1, 1, 1, 1), 10)
    assert pulled == [chaos.TRANSIENT_LENGTH + 10] * 2


def test_generate_orbit_rejects_zero_length():
    ic = chaos.InitialConditions(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    with pytest.raises(ValueError):
        chaos.generate_orbit(chaos.get_system("reftestmap"), ic, PARAMS_399, 0)


def test_sort_sequence_unrolled():
    orbit = np.arange(12, dtype=np.float64).reshape(2, 6)
    seq = chaos.build_sort_sequence(orbit, 6)
    # column 1 then column 3 then column 5, serially
    assert seq.tolist() == [orbit[0, 0], orbit[1, 0], orbit[0, 2],
                            orbit[1, 2], orbit[0, 4], orbit[1, 4]]


def test_sort_sequence_truncates():
    orbit = np.arange(12, dtype=np.float64).reshape(2, 6)
    assert chaos.build_sort_sequence(orbit, 5).tolist() == \
        chaos.build_sort_sequence(orbit, 6).tolist()[:5]


@pytest.mark.parametrize("mn", [1, 2, 3, 4, 7, 100, 65536])
def test_sort_sequence_length_contract(mn):
    rows = chaos.rows_for_sequence(mn)
    rng = np.random.default_rng(mn)
    orbit = rng.random((rows, 6))
    assert chaos.build_sort_sequence(orbit, mn).size == mn


def test_sort_sequence_rejects_empty_length():
    with pytest.raises(ValueError, match="at least 1"):
        chaos.build_sort_sequence(np.zeros((1, 6)), 0)


def test_sort_sequence_orbit_too_short():
    orbit = np.random.default_rng(0).random((3, 6))
    with pytest.raises(ValueError, match="too short"):
        chaos.build_sort_sequence(orbit, 100)


def test_argsort_examples():
    assert chaos.argsort_ascending([0.3, 0.1, 0.2]).tolist() == [1, 2, 0]
    assert chaos.argsort_ascending([0.1, 0.2, 0.3]).tolist() == [0, 1, 2]
    # stable tie-break
    assert chaos.argsort_ascending([0.5, 0.5, 0.1]).tolist() == [2, 0, 1]


def test_argsort_rejects_nan():
    with pytest.raises(ValueError):
        chaos.argsort_ascending([0.1, float("nan"), 0.3])


def test_argsort_is_bijection():
    rng = np.random.default_rng(9)
    for _ in range(20):
        mn = int(rng.integers(1, 400))
        s = chaos.argsort_ascending(rng.random(mn))
        assert np.array_equal(np.sort(s), np.arange(mn))


def _one_duplicate():
    keys = np.random.default_rng(0).random(32)
    keys[20] = keys[7]
    return keys


@pytest.mark.parametrize("keys", [
    [0.7] * 9,
    [0.0, -0.0, 0.0, -0.0],
    [0.0, -0.0, 0.0, -0.0] * 2 + [0.5, 0.25] * 4,
    _one_duplicate(),
    [np.inf, 0.2, -np.inf, np.inf, -np.inf, 0.5],
    [],
    [0.25],
], ids=["constant", "signed-zeros", "signed-zeros-mixed", "one-duplicate", "infinities",
        "empty", "single"])
def test_argsort_ties_fall_back_to_the_stable_order(keys):
    keys = np.asarray(keys, dtype=np.float64)
    expected = np.argsort(keys, kind="stable")
    order = chaos.argsort_ascending(keys)
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


# A small pool makes ties, signed zeros and repeated infinities common.
_TIE_POOL = [-np.inf, -1.5, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf]


@SETTINGS
@given(st.lists(st.sampled_from(_TIE_POOL) | st.floats(allow_nan=False), max_size=64))
def test_argsort_matches_stable_argsort(keys):
    keys = np.array(keys, dtype=np.float64)
    assert np.array_equal(chaos.argsort_ascending(keys), np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("name", ["reftestmap", "hosny6d"])
def test_argsort_of_an_orbit_skips_the_stable_sort(monkeypatch, name):
    # Orbit keys are distinct, so the tie fallback must not fire: a check
    # that always fired would stay correct but silently lose the fast path.
    mn = 256 * 256
    img = np.random.default_rng(0).integers(0, 256, (256, 256)).astype(np.uint8)
    orbit = chaos.generate_orbit(chaos.get_system(name), chaos.derive_initial_conditions(img),
                                 chaos.default_params(name), chaos.rows_for_sequence(mn))
    seq = chaos.build_sort_sequence(orbit, mn)
    expected = np.argsort(seq, kind="stable")
    kinds = []
    argsort = np.argsort

    def spy(a, *args, kind=None, **kwargs):
        kinds.append(kind)
        return argsort(a, *args, kind=kind, **kwargs)

    monkeypatch.setattr(chaos.np, "argsort", spy)
    order = chaos.argsort_ascending(seq)
    assert kinds == ["quicksort"]
    assert np.array_equal(order, expected)


def test_whitening_key_contract():
    ic = chaos.derive_initial_conditions(black())
    orbit = chaos.generate_orbit(chaos.get_system("reftestmap"), ic, PARAMS_399, 8)
    key = chaos.derive_whitening_key(orbit)
    assert len(key) == 16
    assert key.hex() == GOLDEN_WHITENING


def test_whitening_key_matches_exact_requantization():
    # Re-evaluate the quantizer on the orbit values in exact rational
    # arithmetic; the float path must agree byte for byte.
    ic = chaos.derive_initial_conditions(black())
    orbit = chaos.generate_orbit(chaos.get_system("reftestmap"), ic, PARAMS_399, 6)
    key = chaos.derive_whitening_key(orbit)
    vals = orbit[:6, [1, 3, 5]].ravel()[:16]
    expected = bytes(int((Fraction(abs(float(v))) % 1) * 2**56) % 256 for v in vals)
    assert key == expected


def test_whitening_key_uses_even_columns_only():
    rng = np.random.default_rng(4)
    orbit = rng.random((6, 6))
    other = orbit.copy()
    other[:, [0, 2, 4]] = rng.random((6, 3))
    assert chaos.derive_whitening_key(orbit) == chaos.derive_whitening_key(other)


def test_whitening_key_orbit_too_short():
    with pytest.raises(ValueError, match="too short"):
        chaos.derive_whitening_key(np.random.default_rng(0).random((5, 6)))


def test_seed_sensitivity_reshuffles_argsort():
    # 1e-10 on x1 must reshuffle at least 90% of sorting positions once
    # the transient has amplified it (reftestmap mixes within ~50 steps).
    mn = 4096
    rows = chaos.rows_for_sequence(mn)
    system = chaos.get_system("reftestmap")
    ic = chaos.derive_initial_conditions(black())
    bumped = chaos.InitialConditions(ic.x1 + 1e-10, ic.x2, ic.x3, ic.x4, ic.x5, ic.x6)
    s1 = chaos.argsort_ascending(chaos.build_sort_sequence(
        chaos.generate_orbit(system, ic, PARAMS_399, rows), mn))
    s2 = chaos.argsort_ascending(chaos.build_sort_sequence(
        chaos.generate_orbit(system, bumped, PARAMS_399, rows), mn))
    assert (s1 != s2).mean() >= 0.90


def test_hosny6d_does_not_amplify_a_seed_change():
    # A chaotic flow grows a seed change exponentially: the 3-D Lorenz core
    # alone, under the same RK4 step, grows it by about e^48 over these ~88
    # time units.  hosny6d keeps a 1e-12 relative change of x1 below 1e-6
    # over the whole orbit of a 256x256, 4-round GH401 encryption.
    img = np.random.default_rng(3).integers(0, 256, size=(256, 256)).astype(np.uint8)
    ic = chaos.derive_initial_conditions(img)
    bumped = chaos.InitialConditions(ic.x1 * (1 + 1e-12), ic.x2, ic.x3, ic.x4, ic.x5, ic.x6)
    assert bumped != ic
    system = chaos.get_system("hosny6d")
    n = chaos.TRANSIENT_LENGTH + 4 * chaos.rows_for_sequence(img.size)
    for params in (chaos.default_params("hosny6d"), chaos.draw_params("hosny6d", 3)):
        gap = np.abs(first_rows(system.iterate(ic.as_tuple(), params), n)
                     - first_rows(system.iterate(bumped.as_tuple(), params), n)).max()
        assert 0 < gap < 1e-6


def test_registry():
    assert chaos.list_systems() == ["hosny6d", "reftestmap"]
    with pytest.raises(ValueError, match="unknown dynamical system"):
        chaos.get_system("nope")


def test_default_and_drawn_params():
    base = chaos.default_params("hosny6d").as_tuple()
    drawn = chaos.draw_params("hosny6d", 7)
    assert drawn == chaos.draw_params("hosny6d", 7)
    assert drawn != chaos.draw_params("hosny6d", 8)
    for b, d in zip(base, drawn.as_tuple()):
        assert abs(d - b) <= abs(b) * 0.0100001


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        chaos.SystemParams(1.0, float("inf"), 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_initial_conditions_reject_nonfinite(bad):
    with pytest.raises(ValueError, match="x3 is not finite"):
        chaos.InitialConditions(0.1, 0.2, bad, 0.4, 0.5, 0.6)


def test_params_and_seeds_are_python_floats():
    drawn = chaos.draw_params("hosny6d", 7)
    assert all(type(v) is float for v in drawn.as_tuple())
    ic = chaos.InitialConditions(*np.linspace(0.1, 0.6, 6))
    assert all(type(v) is float for v in ic.as_tuple())


def test_reftestmap_wraps_out_of_range_seeds():
    system = chaos.get_system("reftestmap")
    big = chaos.InitialConditions(1.984496124, 0.2, 0.3, 0.4, 0.5, 0.6)
    orbit = chaos.generate_orbit(system, big, PARAMS_399, 5)
    assert (orbit >= 0).all() and (orbit < 1).all()
    # wrapping on entry: a seed and its fractional part give the same orbit
    wrapped = chaos.InitialConditions(1.984496124 - 1.0, 0.2, 0.3, 0.4, 0.5, 0.6)
    orbit2 = chaos.generate_orbit(system, wrapped, PARAMS_399, 5)
    assert np.array_equal(orbit, orbit2)


def _bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("n", [0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0,
                               math.nextafter(1.0, 2.0), 1.0999999999999999, 1.5])
def test_reftestmap_wrap_is_the_exact_fractional_part(n):
    # The reftestmap update wraps each n >= 0 with n % 1.0; it must be
    # bit for bit the n - floor(n) the map is defined by.
    assert _bits(n % 1.0) == _bits(n - math.floor(n))


@SETTINGS
@given(st.floats(min_value=0.0, max_value=2.0) | st.floats(min_value=0.0, allow_infinity=False))
def test_reftestmap_wrap_matches_floor_for_nonnegative_floats(n):
    assert _bits(n % 1.0) == _bits(n - math.floor(n))
