"""The three benchmark workloads: inputs, one op, and the per-op check.

Each workload is a closed loop with one client: the runner makes the next
op's input, times :meth:`run`, then calls :meth:`check`.  Inputs are
derived from ``(seed, op index)`` only, so the same seed gives the same
inputs; the program under test receives nothing but those inputs.

``run`` returns an :class:`OpResult` whose ``encrypt_s``/``decrypt_s``
lists hold the sender-side and receiver-side latencies seen in the op.
``golden`` reduces an op's outputs to the values recorded from the seed
commit on the default seed (``golden.json``); ``check`` compares them when
a golden entry exists and always runs every other check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Wu, Noonan & Agaian 2011 bounds for 256x256 8-bit images at alpha = 0.05.
NPCR_MIN = 99.5693
UACI_RANGE = (33.2824, 33.6447)

# Side length of the small input each workload warms up on before timing.
WARMUP_SIDE = 16


def op_seed(seed: int, op: int) -> int:
    """Integer seed handed to the program for op ``op`` of a run."""
    return seed * 100_000 + op


def random_image(seed: int, op: int, side: int) -> np.ndarray:
    rng = np.random.default_rng([seed, op])
    return rng.integers(0, 256, size=(side, side)).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    """Write an input image without going through the program under test."""
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def read_canonical_pgm(path) -> np.ndarray:
    """Read a PGM with the canonical three-line header the CLI writes.

    Kept independent of ``gh401.read_pgm`` so that a reader and writer
    broken the same way cannot pass the round-trip check together.
    """
    with open(path, "rb") as fh:
        magic, dims, maxval, pixels = fh.read().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not a canonical 8-bit P5 file")
    w, h = (int(v) for v in dims.split())
    if len(pixels) != w * h:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes, expected {w * h}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def sha256(img: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(img).tobytes()).hexdigest()


@dataclass
class OpResult:
    pixels: int
    encrypt_s: list = field(default_factory=list)
    decrypt_s: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


class Workload:
    name = ""
    side = 0

    def close(self):
        """Undo anything the workload changed in the library."""


class Hosny6D256(Workload):
    """README library quick start: GH401 on hosny6d, 4 rounds, aes S-box."""

    name = "gh401-hosny6d-256"
    side = 256
    rounds = 4

    def __init__(self, gh401, seed: int, workdir: str):
        self.g = gh401
        self.seed = seed
        self.sbox = gh401.bundled_sbox("aes")

    def make_input(self, op: int, side: int):
        return (random_image(self.seed, op, side),
                self.g.draw_params("hosny6d", op_seed(self.seed, op)))

    def run(self, inp) -> OpResult:
        g = self.g
        img, params = inp
        t0 = perf_counter()
        cipher_img, env = g.encrypt_gh401(img, params, self.rounds, self.sbox, system="hosny6d")
        text = env.to_text()
        t1 = perf_counter()
        received = g.KeyEnvelope.from_text(text)
        plain = g.decrypt_gh401(cipher_img, received, self.sbox)
        t2 = perf_counter()
        return OpResult(pixels=img.size, encrypt_s=[t1 - t0], decrypt_s=[t2 - t1],
                        outputs={"cipher": cipher_img, "envelope": text, "plain": plain,
                                 "key_bytes": len(text.encode("utf-8"))})

    def golden(self, inp, res: OpResult) -> dict:
        return {"cipher_sha256": sha256(res.outputs["cipher"])}

    def check(self, inp, res: OpResult) -> list[str]:
        img, _ = inp
        out = res.outputs
        problems = []
        if not np.array_equal(out["plain"], img):
            problems.append("decrypted image differs from the plaintext")
        if self.g.KeyEnvelope.from_text(out["envelope"]).to_text() != out["envelope"]:
            problems.append("envelope does not re-serialize byte-exactly")
        nominal = self.g.cipher.NOMINAL_ENVELOPE_BYTES
        # The bandwidth claim is an envelope of a few hundred bytes against
        # megabytes of side-channel file; drawn keys print longer reals
        # than the nominal envelope's default parameters, so the gate is
        # the order of magnitude and the ratio is reported.
        if out["key_bytes"] >= 2 * nominal:
            problems.append(f"envelope is {out['key_bytes']} bytes, nominal {nominal}")
        return problems


@contextlib.contextmanager
def _quiet():
    """Capture what the CLI prints, so the benchmark's own output stays parseable."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        yield buf


class IeahfCli512(Workload):
    """IEAHF sender and receiver through the CLI, in process."""

    name = "ieahf-cli-512"
    side = 512
    rounds = 2

    def __init__(self, gh401, seed: int, workdir: str):
        self.g = gh401
        self.seed = seed
        self.dir = workdir

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def make_input(self, op: int, side: int):
        img = random_image(self.seed, op, side)
        write_pgm(self._path("p.pgm"), img)
        return img, op_seed(self.seed, op)

    def run(self, inp) -> OpResult:
        main = self.g.cli.main
        img, key_seed = inp
        p, c, ss, d = (self._path(n) for n in ("p.pgm", "c.pgm", "c.ss", "d.pgm"))
        with _quiet() as log:
            t0 = perf_counter()
            enc_rc = main(["encrypt", p, "--scheme", "IEAHF", "--system", "reftestmap",
                           "--rounds", str(self.rounds), "--seed", str(key_seed),
                           "--out", c, "--ss", ss])
            t1 = perf_counter()
            res = OpResult(pixels=img.size, encrypt_s=[t1 - t0])
            if enc_rc == 0:
                dec_rc = main(["decrypt", c, "--ss", ss, "--out", d])
                res.decrypt_s.append(perf_counter() - t1)
            else:
                dec_rc = None
        res.outputs = {"encrypt_rc": enc_rc, "decrypt_rc": dec_rc, "log": log.getvalue(),
                       "key_bytes": os.path.getsize(ss) if enc_rc == 0 else None}
        return res

    def golden(self, inp, res: OpResult) -> dict:
        return {"cipher_sha256": sha256(read_canonical_pgm(self._path("c.pgm")))}

    def check(self, inp, res: OpResult) -> list[str]:
        img, _ = inp
        out = res.outputs
        if out["encrypt_rc"] != 0 or out["decrypt_rc"] != 0:
            return [f"CLI exit codes {out['encrypt_rc']}/{out['decrypt_rc']}: {out['log'].strip()}"]
        problems = []
        if not np.array_equal(read_canonical_pgm(self._path("d.pgm")), img):
            problems.append("decrypted image differs from the plaintext")
        expected = 16 + self.rounds * (4 * img.size + 4)
        if out["key_bytes"] != expected:
            problems.append(f"side-channel file is {out['key_bytes']} bytes, expected {expected}")
        return problems


class DifferentialWhite256(Workload):
    """``gh401 analyze white.pgm --differential --trials 100`` (criterion 5).

    The harness encrypts through ``gh401.cipher.encrypt_gh401``; this
    workload wraps that attribute for its whole life to time each
    encryption, hash every ciphertext in call order, and keep every
    call's plaintext, ciphertext and envelope (the base encryption first)
    for the round-trip check.
    """

    name = "differential-white-256"
    side = 256
    trials = 100

    def __init__(self, gh401, seed: int, workdir: str):
        self.g = gh401
        self.seed = seed
        self.dir = workdir
        self.sbox = gh401.bundled_sbox("aes")
        self._encrypt = gh401.cipher.encrypt_gh401
        gh401.cipher.encrypt_gh401 = self._observed_encrypt
        self._reset()

    def close(self):
        self.g.cipher.encrypt_gh401 = self._encrypt

    def _reset(self):
        self._times, self._hash, self._kept = [], hashlib.sha256(), []

    def _observed_encrypt(self, img, *args, **kwargs):
        t0 = perf_counter()
        result = self._encrypt(img, *args, **kwargs)
        self._times.append(perf_counter() - t0)
        self._hash.update(np.ascontiguousarray(result[0]).tobytes())
        self._kept.append((img, *result))
        return result

    def make_input(self, op: int, side: int):
        path = os.path.join(self.dir, f"white{side}.pgm")
        write_pgm(path, np.full((side, side), 255, dtype=np.uint8))
        return path, side, op_seed(self.seed, op)

    def run(self, inp) -> OpResult:
        path, side, diff_seed = inp
        self._reset()
        with _quiet() as log:
            rc = self.g.cli.main(["analyze", path, "--differential", "--trials", str(self.trials),
                                  "--scheme", "GH401", "--system", "reftestmap",
                                  "--seed", str(diff_seed)])
        report = dict(line.partition("=")[::2] for line in log.getvalue().splitlines()
                      if line.startswith("differential."))
        return OpResult(pixels=len(self._times) * side * side, encrypt_s=self._times,
                        outputs={"rc": rc, "log": log.getvalue(), "report": report,
                                 "cipher_sha256": self._hash.hexdigest(), "kept": self._kept})

    def golden(self, inp, res: OpResult) -> dict:
        rep = res.outputs["report"]
        return {"ciphers_sha256": res.outputs["cipher_sha256"],
                "mean_npcr": rep["differential.mean_npcr"],
                "mean_uaci": rep["differential.mean_uaci"]}

    def check(self, inp, res: OpResult) -> list[str]:
        path, side, _ = inp
        out = res.outputs
        if out["rc"] != 0:
            return [f"analyze exited {out['rc']}: {out['log'].strip()[-400:]}"]
        problems = []
        if len(res.encrypt_s) != self.trials + 1:
            problems.append(f"{len(res.encrypt_s)} encryptions, expected {self.trials + 1}")
        npcr = float(out["report"]["differential.mean_npcr"])
        uaci = float(out["report"]["differential.mean_uaci"])
        if npcr < NPCR_MIN:
            problems.append(f"mean NPCR {npcr} below {NPCR_MIN}")
        if not UACI_RANGE[0] <= uaci <= UACI_RANGE[1]:
            problems.append(f"mean UACI {uaci} outside {UACI_RANGE}")
        if not np.array_equal(out["kept"][0][0], np.full((side, side), 255, dtype=np.uint8)):
            problems.append("the harness's base encryption was not of the white image")
        # Receiver side of the same key: every ciphertext decrypts to its plaintext.
        for img, cipher_img, env in out["kept"]:
            t0 = perf_counter()
            plain = self.g.decrypt_gh401(cipher_img, env, self.sbox)
            res.decrypt_s.append(perf_counter() - t0)
            if not np.array_equal(plain, img):
                problems.append("a harness ciphertext does not decrypt to its plaintext")
        return problems


WORKLOADS = {w.name: w for w in (Hosny6D256, IeahfCli512, DifferentialWhite256)}
