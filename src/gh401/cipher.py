"""The two encryption pipelines, key envelopes, and the side-channel file.

IEAHF (baseline)
    Per round: re-derive the orbit seeds from the current image, permute
    through the sorting vector, diffuse with the Q-matrix.  Decryption
    needs the per-round permutations, so encryption emits a side-channel
    file holding every sorting vector plus a per-round CRC32 of the
    intermediate image.  This reproduces the baseline's transmission
    behaviour, including its bandwidth cost.

GH401 (hardened)
    The orbit seeds are derived once from the plaintext; one long orbit
    gives the whitening key from its first rows and every round's
    permutation from a disjoint slice, made when its round is reached.
    Encryption applies each permutation as it comes; decryption, which runs
    the rounds in reverse, collects them first in a uint32 table.  Per round
    k: XOR the 128-bit whitening key cyclically into the image, permute with
    the round offset k, apply the incremented Q-matrix diffusion, then the
    S-box.  Decryption needs only the compact key envelope, which names
    every setting of one GH401 encryption: system, seeds, parameters, rounds
    (3 to ``MAX_ROUNDS``), whitening key and S-box.  IEAHF has no envelope;
    its key material is the side file.

IEAHF permutes with offset 0 and diffuses with bias 0; GH401 uses the
round number as offset and bias 1.  :func:`encrypt` and :func:`decrypt`
are the one place that picks a pipeline and its default round count.

Images are 2-D uint8 arrays with even dimensions and keep their shape
through every stage; the permutations index their pixels row-major.  Bad
input raises ``ValueError``; key material that does not match raises
:class:`CryptoMismatchError`.
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from gh401.chaos import (
    TRANSIENT_LENGTH,
    WHITENING_KEY_BYTES,
    WHITENING_ROWS,
    InitialConditions,
    OrbitDivergenceError,
    SystemParams,
    argsort_ascending,
    build_sort_sequence,
    default_params,
    derive_initial_conditions,
    derive_whitening_key,
    generate_orbit,
    get_system,
    initial_conditions_from_sum,
    rows_for_sequence,
)
from gh401.image_io import check_blocks
from gh401.sbox import SBox8, substitute
from gh401.stages import check_permutation, diffuse, invert_permute, inverse_diffuse, permute

SCHEME_IEAHF = "IEAHF"
SCHEME_GH401 = "GH401"
DEFAULT_ROUNDS = {SCHEME_IEAHF: 2, SCHEME_GH401: 4}
MIN_ROUNDS = {SCHEME_IEAHF: 1, SCHEME_GH401: 3}
DEFAULT_SYSTEM = "reftestmap"
# The last round whose permutation offset k mod 256 is its own round number.
# IEAHF takes the same cap, which also bounds its side-file table.
MAX_ROUNDS = 255

SS_MAGIC = b"SSX1"
# the SSX1 header: magic, rounds, width, height
_SS_HEADER = struct.Struct("<4sIII")


class CryptoMismatchError(Exception):
    """Key material does not belong to this ciphertext, or to this S-box."""


def check_rounds(scheme: str, n: int) -> None:
    """Raise ``ValueError`` unless ``n`` lies in ``scheme``'s round range."""
    lo = MIN_ROUNDS[scheme]
    if not lo <= n <= MAX_ROUNDS:
        unit = "round" if lo == 1 else "rounds"
        raise ValueError(f"{scheme} uses at least {lo} {unit} and at most {MAX_ROUNDS}, got {n}")


def _crc32(img: np.ndarray) -> int:
    return zlib.crc32(img.tobytes())


def _check_types(instance, **types: type) -> None:
    """``TypeError`` unless each named field of the frozen ``instance`` has its type.

    An ``int`` field takes any integer through ``operator.index`` and is
    stored as ``int``, so numpy integers keep working and a float is refused.
    """
    for name, kind in types.items():
        value = getattr(instance, name)
        if kind is int:
            try:
                object.__setattr__(instance, name, operator.index(value))
                continue
            except TypeError:
                pass
        if not isinstance(value, kind):
            raise TypeError(f"{name} must be {kind.__name__}, got {type(value).__name__}")


@dataclass(frozen=True)
class SideChannelFile:
    """The SSX1 side file: per-round sorting vectors and image checksums in one table.

    ``table`` holds one row of width*height + 1 values per round: the
    round's 0-based indices, then the CRC32 of the post-round image.  It
    is held as the file's little-endian uint32 words.  On disk: magic
    ``SSX1``, then rounds, width, height and the table, all as 32-bit
    little-endian values; :meth:`from_bytes` returns the table as a
    read-only view of those bytes.  Construction checks that width and
    height are integers, there are 1 to ``MAX_ROUNDS`` rounds and every
    round holds a bijection on [0, width*height), so serialization and
    decryption need not; the instance is frozen, so those checks hold for
    its life.  Two side files are equal when their width, height and
    table are (``np.array_equal``).
    """

    width: int
    height: int
    table: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, SideChannelFile) and self.width == other.width
                and self.height == other.height and np.array_equal(self.table, other.table))

    def __post_init__(self):
        _check_types(self, width=int, height=int)
        table = self.table
        if not isinstance(table, np.ndarray) or table.dtype != np.dtype("<u4") or table.ndim != 2:
            raise ValueError("side-channel table must be a 2-D little-endian uint32 array")
        check_rounds(SCHEME_IEAHF, len(table))
        if self.width < 1 or self.height < 1:
            raise ValueError(f"side-channel file is for a {self.width}x{self.height} image")
        mn = self.width * self.height
        if table.shape[1] != mn + 1:
            raise ValueError(f"round permutations have {table.shape[1] - 1} entries, expected {mn}")
        for k, perm in enumerate(table[:, :-1], start=1):
            check_permutation(perm, f"round {k} permutation")

    @property
    def rounds(self) -> int:
        return len(self.table)

    def to_bytes(self) -> bytes:
        # one copy: the header joined straight onto the table's own bytes
        words = np.ascontiguousarray(self.table).data
        return _SS_HEADER.pack(SS_MAGIC, self.rounds, self.width, self.height) + words

    @classmethod
    def from_bytes(cls, data: bytes) -> "SideChannelFile":
        size = _SS_HEADER.size
        if len(data) < size:
            raise ValueError(f"side-channel file is {len(data)} bytes, shorter than its {size}-byte header")
        magic, rounds, width, height = _SS_HEADER.unpack_from(data)
        if magic != SS_MAGIC:
            raise ValueError("not a side-channel file (bad magic)")
        mn = width * height
        expected = size + rounds * (4 * mn + 4)
        if len(data) != expected:
            raise ValueError(f"side-channel file is {len(data)} bytes, expected {expected}")
        table = np.frombuffer(data, dtype="<u4", offset=size).reshape(rounds, mn + 1)
        return cls(width=width, height=height, table=table)


@dataclass(frozen=True)
class KeyEnvelope:
    """The full transmittable secret for one GH401 encryption.

    Serialized as UTF-8 text, one ``field=value`` per line, reals printed
    with 17 significant digits, field order fixed: scheme (always GH401),
    system, x1..x6, a..e, r, n, whitening as 32 hex characters, and the
    S-box name, each line ending in a newline.  A text parses only if
    writing it back gives the same text, so one key has one file.
    Construction checks every field, and the instance is frozen, so the
    checks hold for its life.
    """

    scheme: ClassVar[str] = SCHEME_GH401

    system: str
    ic: InitialConditions
    params: SystemParams
    n: int
    whitening: bytes
    sbox_name: str

    def __post_init__(self):
        _check_types(self, system=str, ic=InitialConditions, params=SystemParams, n=int,
                     whitening=bytes, sbox_name=str)
        check_rounds(self.scheme, self.n)
        if len(self.whitening) != WHITENING_KEY_BYTES:
            raise ValueError(f"GH401 envelopes carry a {WHITENING_KEY_BYTES}-byte whitening key")
        if not self.sbox_name:
            raise ValueError("GH401 envelopes carry an S-box name")
        for label, name in (("system", self.system), ("S-box name", self.sbox_name)):
            # every field is one line of the text form, so a line break would not read back
            if name.splitlines() != [name]:
                raise ValueError(f"envelope {label} {name!r} is not one line of text")
        get_system(self.system)  # raises ValueError for an unknown system

    @property
    def rounds(self) -> int:
        return self.n

    def check_sbox(self, sbox: SBox8) -> None:
        """Raise :class:`CryptoMismatchError` unless ``sbox`` is the one named here."""
        if sbox.name != self.sbox_name:
            raise CryptoMismatchError(
                f"envelope was made with S-box {self.sbox_name!r}, got {sbox.name!r}")

    _REALS = tuple(f.name for reals in (InitialConditions, SystemParams) for f in fields(reals))
    _FIELDS = ("scheme", "system", *_REALS, "n", "whitening", "sbox")

    def to_text(self) -> str:
        reals = (f"{value:.17g}" for value in (*self.ic.as_tuple(), *self.params.as_tuple()))
        values = (self.scheme, self.system, *reals, self.n, self.whitening.hex(), self.sbox_name)
        return "".join(f"{name}={value}\n" for name, value in zip(self._FIELDS, values))

    def to_bytes(self) -> bytes:
        return self.to_text().encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "KeyEnvelope":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError("key envelope is not UTF-8 text") from None
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "KeyEnvelope":
        values = dict(line.partition("=")[::2] for line in text.splitlines())
        if values.get("scheme") != cls.scheme:
            raise ValueError(f"envelope is for scheme {values.get('scheme')!r}; "
                             f"key envelopes are {cls.scheme}-only")
        if tuple(values) != cls._FIELDS:
            raise ValueError("envelope fields missing, unknown, or out of order")

        def parse(name, convert, kind):
            try:
                return convert(values[name])
            except ValueError:
                raise ValueError(f"envelope field {name} is not {kind}") from None

        reals = [parse(k, float, "a real number") for k in cls._REALS]
        env = cls(system=values["system"], ic=InitialConditions(*reals[:6]),
                  params=SystemParams(*reals[6:]), n=parse("n", int, "an integer"),
                  whitening=parse("whitening", bytes.fromhex, "hex"), sbox_name=values["sbox"])
        if env.to_text() != text:
            raise ValueError("envelope is not in the form its writer writes: one field=value "
                             "line each, ending in a newline, with the value written canonically")
        return env


# The pipelines call the forward stages through these names because perfbench/spans.py
# traces each one as permute.forward or diffuse.forward.
permute_ieahf = permute_gh401 = permute
diffuse_ieahf = diffuse_gh401 = diffuse


def _keystream(mn: int, system: str, ic: InitialConditions, params: SystemParams):
    """Yield a copy of the orbit's first ``WHITENING_ROWS`` rows, then one permutation per round.

    Round k's permutation is the ascending order of the sort sequence built
    from the k-th block of ``rows_for_sequence(mn)`` orbit rows, made only
    when its round is asked for.  Each round's slice is its own
    :func:`generate_orbit` call: the first runs the transient and holds at
    least the whitening rows, every later one continues from the last row
    of the block before, bit for bit the rows of one long call.  A slice
    (16 B/px) is freed before its sort.  A divergence names its row in the
    full trajectory.
    """
    rows = rows_for_sequence(mn)
    dynamics = get_system(system)
    # each slice's start state, transient, length, and first row in the full trajectory
    state, transient, length, start = ic, TRANSIENT_LENGTH, max(rows, WHITENING_ROWS), 0
    while True:
        try:
            orbit = generate_orbit(dynamics, state, params, length, transient=transient)
        except OrbitDivergenceError as exc:
            raise OrbitDivergenceError(start + exc.step, exc.variable) from None
        if transient:
            yield orbit[:WHITENING_ROWS].copy()
        state, start = InitialConditions(*orbit[rows - 1]), start + transient + rows
        transient, length = 0, rows
        seq = build_sort_sequence(orbit, mn)
        del orbit  # the slice goes before its sort
        perm = argsort_ascending(seq)
        try:
            yield perm
        finally:
            # the order before its sequence, so the heap a receiver reuses is left untrimmed
            del perm, seq


def encrypt_ieahf(img: np.ndarray, params: SystemParams, n: int,
                  system: str = DEFAULT_SYSTEM):
    """Baseline pipeline; returns (ciphertext, side-channel file).

    Every round re-derives the orbit seeds from the round's input image,
    which is exactly why the receiver needs the stored sorting vectors.
    ``n`` is normally at least 2; single-round runs are accepted for the
    weakness demonstrations.
    """
    img = check_blocks(img)
    check_rounds(SCHEME_IEAHF, n)
    h, w = img.shape
    cur = img
    table = np.empty((n, img.size + 1), dtype="<u4")
    for row in table:
        keys = _keystream(img.size, system, derive_initial_conditions(cur), params)
        next(keys)  # IEAHF has no whitening key
        row[:-1] = next(keys)
        keys.close()  # frees the order, then its sequence, before the round's stages run
        cur = diffuse_ieahf(permute_ieahf(cur, row[:-1], 0), 0)
        row[-1] = _crc32(cur)
    return cur, SideChannelFile(width=w, height=h, table=table)


def decrypt_ieahf(cipher: np.ndarray, side: SideChannelFile) -> np.ndarray:
    """Invert the baseline rounds in reverse order using the stored vectors."""
    cipher = check_blocks(cipher)
    h, w = cipher.shape
    if (side.width, side.height) != (w, h):
        raise CryptoMismatchError(
            f"side-channel file is for {side.width}x{side.height}, image is {w}x{h}")
    cur = cipher
    for k in reversed(range(side.rounds)):
        if _crc32(cur) != side.table[k, -1]:
            raise CryptoMismatchError(
                f"round {k + 1} checksum mismatch: wrong side-channel file for this ciphertext")
        cur = invert_permute(inverse_diffuse(cur, 0), side.table[k, :-1], 0)
    return cur


def _require_sbox(sbox) -> None:
    if sbox is None:
        raise TypeError("GH401 needs an S-box: sbox is None")


def encrypt_gh401(img: np.ndarray, params: SystemParams, n: int, sbox: SBox8,
                  system: str = DEFAULT_SYSTEM):
    """Hardened pipeline; returns (ciphertext, key envelope)."""
    img = check_blocks(img)
    check_rounds(SCHEME_GH401, n)
    _require_sbox(sbox)
    ic = derive_initial_conditions(img)
    keys = _keystream(img.size, system, ic, params)
    whitening = derive_whitening_key(next(keys))
    mask = np.resize(np.frombuffer(whitening, dtype=np.uint8), img.shape)
    cur = img
    for k in range(1, n + 1):
        perm = next(keys)  # before the XOR, so no round's pixels are held through its sort
        cur = substitute(diffuse_gh401(permute_gh401(cur ^ mask, perm, k), 1), sbox)
        del perm  # before the next round's sort
    return cur, KeyEnvelope(system=system, ic=ic, params=params, n=n,
                            whitening=whitening, sbox_name=sbox.name)


def decrypt_gh401(cipher: np.ndarray, env: KeyEnvelope, sbox: SBox8) -> np.ndarray:
    """Rebuild every round's permutation from the envelope, then invert the rounds in reverse."""
    cipher = check_blocks(cipher)
    _require_sbox(sbox)
    env.check_sbox(sbox)
    keys = _keystream(cipher.size, env.system, env.ic, env.params)
    next(keys)  # the envelope carries the whitening key
    table = np.empty((env.n, cipher.size), dtype=np.uint32)
    for row in table:
        row[:] = next(keys)
    keys.close()  # the table is full: free the last round's sort now
    mask = np.resize(np.frombuffer(env.whitening, dtype=np.uint8), cipher.shape)
    cur = cipher
    for k in range(env.n, 0, -1):
        cur = inverse_diffuse(substitute(cur, sbox, inverse=True), 1)
        cur = invert_permute(cur, table[k - 1], k) ^ mask
    return cur


def encrypt(scheme: str, img: np.ndarray, params: SystemParams, rounds: int | None = None,
            sbox: SBox8 | None = None, system=DEFAULT_SYSTEM):
    """Encrypt with either scheme; returns (ciphertext, key material).

    The key material is a :class:`SideChannelFile` for IEAHF and a
    :class:`KeyEnvelope` for GH401.  ``rounds`` defaults to the scheme's
    ``DEFAULT_ROUNDS`` entry; ``sbox`` is required by GH401, unused by IEAHF.
    """
    if scheme not in DEFAULT_ROUNDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    n = DEFAULT_ROUNDS[scheme] if rounds is None else rounds
    if scheme == SCHEME_IEAHF:
        return encrypt_ieahf(img, params, n, system=system)
    return encrypt_gh401(img, params, n, sbox, system=system)


def decrypt(cipher: np.ndarray, key, sbox: SBox8 | None = None) -> np.ndarray:
    """Invert :func:`encrypt`, picking the scheme from the key material's type."""
    if isinstance(key, SideChannelFile):
        return decrypt_ieahf(cipher, key)
    if isinstance(key, KeyEnvelope):
        return decrypt_gh401(cipher, key, sbox)
    raise TypeError(f"expected a SideChannelFile or KeyEnvelope, got {type(key).__name__}")


def key_space_bits(n: int) -> float:
    """GH401 key space in bits: n * 2^128 * 10^96 combinations.

    Twelve reals at 16 decimal digits each give 10^96, the whitening key
    adds 2^128, and the round count multiplies by n.
    """
    if n < 1:
        raise ValueError("round count must be at least 1")
    return math.log2(n) + 128 + 96 * math.log2(10)


def ieahf_key_space_bits() -> float:
    """Baseline comparison value: 10^96 = 2^319 combinations."""
    return 96 * math.log2(10)


def _nominal_envelope_bytes() -> int:
    # Canonical GH401 envelope: seeds chained from the all-zero 256x256
    # image, the hosny6d default parameter set, default rounds, bundled
    # strong S-box.
    env = KeyEnvelope(system="hosny6d", ic=initial_conditions_from_sum(0, 256 * 256),
                      params=default_params("hosny6d"), n=DEFAULT_ROUNDS[SCHEME_GH401],
                      whitening=bytes(WHITENING_KEY_BYTES), sbox_name="aes")
    return len(env.to_bytes())


NOMINAL_ENVELOPE_BYTES = _nominal_envelope_bytes()


def bandwidth_ratio(width: int, height: int, n: int) -> float:
    """Secure-channel cost of the side-channel file relative to an envelope.

    The side-channel payload is n*width*height 32-bit indices; the
    envelope is the fixed-size canonical text record (header and
    checksum bytes of the actual file format are negligible and
    excluded).  No clamping: degenerate geometries may yield ratios
    below 1.  ``n`` is the side file's IEAHF round count.
    """
    check_rounds(SCHEME_IEAHF, n)
    if width < 1 or height < 1:
        raise ValueError("width and height must be at least 1")
    return (4.0 * n * width * height) / NOMINAL_ENVELOPE_BYTES
