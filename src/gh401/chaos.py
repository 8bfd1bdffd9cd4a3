"""Keystream layer: the dynamical systems and what the ciphers take from them.

Everything the ciphers need from the 6-dimensional dynamical system lives
here: deriving the initial conditions from the plaintext, iterating the
system past its transient, concatenating the odd state columns into the
sorting sequence, and quantizing the even columns into the 128-bit
whitening key.

There are exactly two systems, each a class with a ``name``, its
``DEFAULT_PARAMS`` and ``iterate(state, params)``, an endless generator of
6-tuple states that :func:`generate_orbit` alone collects.  The update never
works in place, so six float64 arrays as the state run one orbit per element:

``hosny6d``
    A six-dimensional Lorenz-family flow (Lorenz core plus three linear
    feedback states), advanced one fixed RK4 step of size ``RK4_STEP``
    per iteration.  Measured, it does not amplify seed changes; see
    :class:`Hosny6D`.

``reftestmap``
    A coupled logistic ring map confined to [0, 1)^6.  It is a
    self-contained test double: fully specified below, fast, and
    independent of any external parameter tables.  The six system
    parameters are accepted but do not enter the update rule.

All arithmetic is IEEE-754 binary64.  Every fractional part frac(x) is
taken as ``x % 1.0`` on a finite x >= 0, an exact fmod that is bit for bit
x - floor(x).  Every function is a pure function of its arguments, so
results are bitwise reproducible across runs and safe to call from
multiple threads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

# Iterations discarded before any keystream material is taken.  This is a
# fixed constant of the construction, not key material.
TRANSIENT_LENGTH = 1000

# Fixed RK4 step size used by the continuous hosny6d system.
RK4_STEP = 0.001


class OrbitDivergenceError(ValueError):
    """Raised when the trajectory leaves the finite floats: bad seeds or parameters.

    ``step`` is the 0-based row of the full trajectory, transient
    included, at which the state first stops being finite; ``variable``
    names the first non-finite coordinate of that row (``"x1"``..``"x6"``).
    """

    def __init__(self, step: int, variable: str):
        super().__init__(f"non-finite state at iteration {step} ({variable} left the finite floats)")
        self.step = step
        self.variable = variable


@dataclass(frozen=True)
class _SixReals:
    """Six finite reals, stored as Python floats and read back in field order."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{type(self).__name__} field {f.name} is not finite: {value!r}")
            object.__setattr__(self, f.name, float(value))

    def as_tuple(self):
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class SystemParams(_SixReals):
    """The six real-valued system parameters (a, b, c, d, e, r)."""

    a: float
    b: float
    c: float
    d: float
    e: float
    r: float


@dataclass(frozen=True)
class InitialConditions(_SixReals):
    """Six finite real seeds of the orbit.

    x2..x6 always lie in [0, 1) when produced by
    :func:`derive_initial_conditions`; x1 is the raw pixel-sum ratio and
    may exceed 1 for bright images.
    """

    x1: float
    x2: float
    x3: float
    x4: float
    x5: float
    x6: float


def initial_conditions_from_sum(total: int, mn: int) -> InitialConditions:
    """The orbit seeds of any image of ``mn`` pixels summing to ``total``.

    x1 = (total + mn) / (2^23 + mn), with the sums done in exact integer
    arithmetic before the single float division.  Each further seed is
    x_i = frac(x_{i-1} * 1e6).
    """
    xs = [(total + mn) / (2**23 + mn)]
    for _ in range(5):
        xs.append(xs[-1] * 1e6 % 1.0)
    return InitialConditions(*xs)


def derive_initial_conditions(pixels: np.ndarray) -> InitialConditions:
    """Derive the orbit seeds from an image: they depend on its pixel sum and size only."""
    pixels = np.asarray(pixels)
    if pixels.size == 0:
        raise ValueError("cannot derive initial conditions from an empty image")
    return initial_conditions_from_sum(int(pixels.sum(dtype=np.int64)), int(pixels.size))


class ReferenceTestMap:
    """Coupled logistic ring map on [0, 1)^6.

    Update rule, for j = 1..6 with neighbour index (j mod 6) + 1:

        y'_j = frac( rho_j * y_j * (1 - y_j) + 0.1 * y_neighbour )

    with rho_j = 3.99 + 0.001*j.  Inputs are wrapped into [0, 1) by
    frac(|.|) on entry, so any real seed is accepted.  The system
    parameters are ignored; the map is fully pinned by the constants
    above.
    """

    name = "reftestmap"

    DEFAULT_PARAMS = SystemParams(3.99, 3.99, 3.99, 3.99, 3.99, 3.99)

    RHO = tuple(3.99 + 0.001 * j for j in (1, 2, 3, 4, 5, 6))

    def iterate(self, state, params: SystemParams):
        r1, r2, r3, r4, r5, r6 = self.RHO
        # Wrap once on entry; every later n is >= 0, so n % 1.0 is frac(n).
        y1, y2, y3, y4, y5, y6 = (abs(v) % 1.0 for v in state)
        while True:
            n1 = r1 * y1 * (1.0 - y1) + 0.1 * y2
            n2 = r2 * y2 * (1.0 - y2) + 0.1 * y3
            n3 = r3 * y3 * (1.0 - y3) + 0.1 * y4
            n4 = r4 * y4 * (1.0 - y4) + 0.1 * y5
            n5 = r5 * y5 * (1.0 - y5) + 0.1 * y6
            n6 = r6 * y6 * (1.0 - y6) + 0.1 * y1
            y1 = n1 % 1.0
            y2 = n2 % 1.0
            y3 = n3 % 1.0
            y4 = n4 % 1.0
            y5 = n5 % 1.0
            y6 = n6 % 1.0
            yield y1, y2, y3, y4, y5, y6


class Hosny6D:
    """Six-dimensional Lorenz-family flow, one RK4 step per iteration.

    The flow couples a Lorenz core (parameters a, b, c) with a damped
    nonlinear mode x4 and two integral feedback states x5, x6:

        dx1/dt = a*(x2 - x1) + x4 - x6
        dx2/dt = c*x1 - x2 - x1*x3 + x5
        dx3/dt = x1*x2 - b*x3
        dx4/dt = d*x4 - x1*x3
        dx5/dt = -e*x2
        dx6/dt = r*x1

    One iteration advances the flow by the fixed step ``RK4_STEP`` with
    the classical fourth-order Runge-Kutta rule, evaluated in exactly the
    order x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), stage states x + (0.5*h)*k.
    The default parameters are (10, 8/3, 28, -1, 8, 3).  Measured, the
    flow does not amplify seed changes, as a chaotic one would.  From the
    seeds of a 256x256 ``default_rng(3)`` image, scaling x1 by (1 + 1e-12)
    left the two orbits within 1.1e-10 of each other over all 88 384 rows
    of a 4-round GH401 encryption, on a trajectory of scale about 97; with
    ``draw_params("hosny6d", 3)`` they stayed within 1.7e-10.  Under the
    same change reftestmap separates beyond 0.1 within 35 iterations.
    """

    name = "hosny6d"

    DEFAULT_PARAMS = SystemParams(10.0, 8.0 / 3.0, 28.0, -1.0, 8.0, 3.0)

    def iterate(self, state, params: SystemParams):
        a, b, c, d, e, r = params.as_tuple()
        ne = -e
        h = RK4_STEP
        hh, h6 = 0.5 * h, h / 6.0
        x1, x2, x3, x4, x5, x6 = state
        while True:
            # k1 = f(x)
            p13 = x1 * x3
            k11 = a * (x2 - x1) + x4 - x6
            k12 = c * x1 - x2 - p13 + x5
            k13 = x1 * x2 - b * x3
            k14 = d * x4 - p13
            k15 = ne * x2
            k16 = r * x1
            # k2 = f(x + (h/2) k1)
            s1, s2, s3 = x1 + hh * k11, x2 + hh * k12, x3 + hh * k13
            s4, s5, s6 = x4 + hh * k14, x5 + hh * k15, x6 + hh * k16
            p13 = s1 * s3
            k21 = a * (s2 - s1) + s4 - s6
            k22 = c * s1 - s2 - p13 + s5
            k23 = s1 * s2 - b * s3
            k24 = d * s4 - p13
            k25 = ne * s2
            k26 = r * s1
            # k3 = f(x + (h/2) k2)
            s1, s2, s3 = x1 + hh * k21, x2 + hh * k22, x3 + hh * k23
            s4, s5, s6 = x4 + hh * k24, x5 + hh * k25, x6 + hh * k26
            p13 = s1 * s3
            k31 = a * (s2 - s1) + s4 - s6
            k32 = c * s1 - s2 - p13 + s5
            k33 = s1 * s2 - b * s3
            k34 = d * s4 - p13
            k35 = ne * s2
            k36 = r * s1
            # k4 = f(x + h k3), folded into the update
            s1, s2, s3 = x1 + h * k31, x2 + h * k32, x3 + h * k33
            s4, s5, s6 = x4 + h * k34, x5 + h * k35, x6 + h * k36
            p13 = s1 * s3
            x1 = x1 + h6 * (((k11 + 2.0 * k21) + 2.0 * k31) + (a * (s2 - s1) + s4 - s6))
            x2 = x2 + h6 * (((k12 + 2.0 * k22) + 2.0 * k32) + (c * s1 - s2 - p13 + s5))
            x3 = x3 + h6 * (((k13 + 2.0 * k23) + 2.0 * k33) + (s1 * s2 - b * s3))
            x4 = x4 + h6 * (((k14 + 2.0 * k24) + 2.0 * k34) + (d * s4 - p13))
            x5 = x5 + h6 * (((k15 + 2.0 * k25) + 2.0 * k35) + ne * s2)
            x6 = x6 + h6 * (((k16 + 2.0 * k26) + 2.0 * k36) + r * s1)
            yield x1, x2, x3, x4, x5, x6


_SYSTEMS = {system.name: system for system in (ReferenceTestMap(), Hosny6D())}


def get_system(name: str) -> ReferenceTestMap | Hosny6D:
    try:
        return _SYSTEMS[name]
    except KeyError:
        known = ", ".join(sorted(_SYSTEMS))
        raise ValueError(f"unknown dynamical system {name!r} (known: {known})") from None


def list_systems():
    return sorted(_SYSTEMS)


def default_params(system_name: str) -> SystemParams:
    """Documented default parameter set of a system."""
    return get_system(system_name).DEFAULT_PARAMS


def draw_params(system_name: str, seed: int) -> SystemParams:
    """Seeded random key draw: each default parameter perturbed by up to 1%.

    The 1% band makes every component carry fresh key material.  It does
    not make hosny6d sensitive to its seeds: see :class:`Hosny6D`.
    """
    rng = np.random.default_rng(seed)
    base = default_params(system_name).as_tuple()
    scale = 1.0 + rng.uniform(-0.01, 0.01, size=6)
    return SystemParams(*(b * s for b, s in zip(base, scale)))


def generate_orbit(system: ReferenceTestMap | Hosny6D, ic: InitialConditions,
                   params: SystemParams, length: int, *,
                   transient: int = TRANSIENT_LENGTH) -> np.ndarray:
    """Collect ``transient + length`` rows of ``system.iterate``; keep the tail.

    Returns a (length, 6) float64 array, column j holding state variable
    j+1.  Raises :class:`OrbitDivergenceError` naming the first bad
    iteration of this call, transient included, and its first non-finite
    variable if the trajectory leaves the finite floats.  ``transient`` is
    ``TRANSIENT_LENGTH`` except where an orbit is continued from its last
    row, which needs none: the continued rows are bit for bit those one
    longer call would give.
    """
    if length < 1:
        raise ValueError("orbit length must be at least 1")
    # array("d") over-allocates by 1/16; an exactly sized buffer (np.fromiter) sets glibc's
    # trim threshold under what an IEAHF encrypt frees, so each next decrypt refaults the heap.
    rows = array("d")
    for state in islice(system.iterate(ic.as_tuple(), params), transient + length):
        rows.extend(state)
    full = np.frombuffer(rows).reshape(-1, 6)
    if not np.isfinite(full).all():
        row, col = np.argwhere(~np.isfinite(full))[0]
        raise OrbitDivergenceError(int(row), f"x{col + 1}")
    return full[transient:]


def rows_for_sequence(mn: int) -> int:
    """Orbit rows needed to build a sorting sequence of length ``mn``."""
    return -(-mn // 3)


def build_sort_sequence(orbit: np.ndarray, mn: int) -> np.ndarray:
    """Serially concatenate odd state columns (x1, x3, x5) to length ``mn``.

    Each column contributes ceil(mn/3) values; the concatenation is
    truncated to exactly ``mn`` entries.
    """
    if mn < 1:
        raise ValueError("mn must be at least 1")
    rows = rows_for_sequence(mn)
    if orbit.shape[0] < rows:
        raise ValueError(f"orbit too short: {orbit.shape[0]} rows, need {rows}")
    seq = np.concatenate([orbit[:rows, 0], orbit[:rows, 2], orbit[:rows, 4]])
    return seq[:mn]


def argsort_ascending(values: np.ndarray) -> np.ndarray:
    """Positions of the values in ascending order, ties kept stable.

    The result is always ``np.argsort(values, kind="stable")``.  Distinct
    keys have exactly one ascending permutation, so the faster unstable
    sort is tried first and kept when no two sorted neighbours compare
    equal; ``==`` also pairs -0.0 with 0.0 and equal infinities.  Only on
    a tie does the stable sort run.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ValueError("cannot sort a sequence containing NaN")
    order = np.argsort(values, kind="quicksort")
    ranked = values[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.argsort(values, kind="stable")
    return order


WHITENING_KEY_BYTES = 16
WHITENING_ROWS = 6


def derive_whitening_key(orbit: np.ndarray) -> bytes:
    """Quantize the even state columns into the 128-bit whitening key.

    Takes the first 6 post-transient rows of (x2, x4, x6) in row-major
    order, maps each value v to floor(frac(|v|) * 2^56) mod 256, and keeps
    the first 16 bytes.
    """
    if orbit.shape[0] < WHITENING_ROWS:
        raise ValueError(f"orbit too short for whitening key: {orbit.shape[0]} rows, need {WHITENING_ROWS}")
    values = orbit[:WHITENING_ROWS, [1, 3, 5]].ravel()
    out = bytearray()
    for v in values[:WHITENING_KEY_BYTES]:
        out.append(int(abs(float(v)) % 1.0 * 2.0**56) % 256)
    return bytes(out)
