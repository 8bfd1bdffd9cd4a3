"""Command-line front end.

Subcommands: encrypt, decrypt, analyze, compare, sbox-eval, bench.
Images travel as binary PGM (P5, maxval 255); GH401 key envelopes as
UTF-8 text files; IEAHF side-channel data as the binary SSX1 format.

Exit codes (stable):
    0  success
    2  validation error (bad arguments, malformed inputs, odd dimensions,
       key parameters whose orbit leaves the finite floats)
    3  I/O error (missing or unreadable files)
    4  crypto mismatch (wrong side-channel file, envelope, or S-box)
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from gh401 import analysis, chaos, cipher
from gh401.cipher import SCHEME_GH401, SCHEME_IEAHF
from gh401.image_io import read_pgm, write_atomic, write_pgm
from gh401.sbox import BUNDLED_SBOXES, bundled_sbox, load_sbox, transparency_order

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_MISMATCH = 4

_SBOX_HELP = f"bundled S-box name ({', '.join(BUNDLED_SBOXES)}) or a .txt/.bin table file"


def _emit(text: str, report_path) -> None:
    if report_path:
        write_atomic(report_path, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _resolve_sbox(value: str):
    if value in BUNDLED_SBOXES:
        return bundled_sbox(value)
    return load_sbox(value)


def _sbox_for(scheme: str, args):
    """The --sbox table for GH401; IEAHF has no S-box stage, so none is loaded."""
    return _resolve_sbox(args.sbox) if scheme == SCHEME_GH401 else None


def _seeded_params(args) -> chaos.SystemParams:
    if args.seed is not None:
        return chaos.draw_params(args.system, args.seed)
    return chaos.default_params(args.system)


def _read_envelope(path) -> cipher.KeyEnvelope:
    with open(path, "r", encoding="utf-8") as fh:
        return cipher.KeyEnvelope.from_text(fh.read())


def _default_out(input_path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(input_path)
    return stem + suffix


def cmd_encrypt(args) -> int:
    img = read_pgm(args.input)
    out = args.out or _default_out(args.input, ".enc.pgm")
    cipher_img, key = cipher.encrypt(args.scheme, img, _seeded_params(args), args.rounds,
                                     _sbox_for(args.scheme, args), system=args.system)
    if args.scheme == SCHEME_IEAHF:
        label, key_path = "side-channel file", args.ss or _default_out(args.input, ".ss")
        data = key.to_bytes()
    else:
        label, key_path = "key envelope", args.key or _default_out(args.input, ".key")
        data = key.to_text().encode("utf-8")
    write_pgm(out, cipher_img)
    write_atomic(key_path, data)
    print(f"ciphertext: {out}")
    print(f"{label}: {key_path} ({len(data)} bytes)")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    img = read_pgm(args.input)
    out = args.out or _default_out(args.input, ".dec.pgm")
    if args.ss:
        with open(args.ss, "rb") as fh:
            key, sbox = cipher.SideChannelFile.from_bytes(fh.read()), None
    elif args.key:
        key, sbox = _read_envelope(args.key), _resolve_sbox(args.sbox)
    else:
        raise ValueError("decrypt needs --key (GH401 envelope) or --ss (IEAHF side-channel file)")
    write_pgm(out, cipher.decrypt(img, key, sbox))
    print(f"plaintext: {out}")
    return EXIT_OK


def _encrypt_fn(scheme, params, rounds, sbox, system):
    return lambda im: cipher.encrypt(scheme, im, params, rounds, sbox, system=system)[0]


def cmd_analyze(args) -> int:
    img = read_pgm(args.input)
    plain = read_pgm(args.plain) if args.plain else None
    report = analysis.full_report(img, plain, pairs=args.pairs, seed=args.seed or 0)
    text = analysis.report_to_text(report, title="image")
    if args.differential:
        if args.key:
            env = _read_envelope(args.key)
            sbox = _resolve_sbox(args.sbox)
            env.check_sbox(sbox)
            scheme, system, rounds, params = env.scheme, env.system, env.n, env.params
        else:
            scheme, system, rounds, params = args.scheme, args.system, args.rounds, _seeded_params(args)
            sbox = _sbox_for(scheme, args)
        encrypt_fn = _encrypt_fn(scheme, params, rounds, sbox, system)
        diff = analysis.differential_test(encrypt_fn, img, encrypt_fn(img), args.trials,
                                          args.seed or 0)
        text += (
            f"differential.scheme={scheme}\n"
            f"differential.trials={diff.trials}\n"
            f"differential.seed={diff.seed}\n"
            f"differential.mean_npcr={diff.mean_npcr:.6f}\n"
            f"differential.mean_uaci={diff.mean_uaci:.6f}\n"
            f"differential.best_npcr={diff.best_npcr:.6f}\n"
            f"differential.best_uaci={diff.best_uaci:.6f}\n"
            f"differential.best_trial={diff.best_trial}\n"
        )
    _emit(text, args.report)
    return EXIT_OK


def cmd_compare(args) -> int:
    """Both schemes on one image: per-scheme metrics plus differential means."""
    if args.rounds is not None:
        cipher.check_gh401_rounds(args.rounds)  # GH401 runs too; fail before IEAHF works
    img = read_pgm(args.input)
    seed = args.seed or 0
    params = _seeded_params(args)
    header = "# informational comparison; third-party schemes are not implemented\n"
    sections = []
    for scheme in (SCHEME_IEAHF, SCHEME_GH401):
        sbox = _sbox_for(scheme, args)
        cipher_img, key = cipher.encrypt(scheme, img, params, args.rounds, sbox, system=args.system)
        report = analysis.full_report(cipher_img, img, pairs=args.pairs, seed=seed)
        title = scheme.lower()
        header += f"compare.{title}.rounds={key.rounds}\n"
        text = analysis.report_to_text(report, title=title)
        encrypt_fn = _encrypt_fn(scheme, params, args.rounds, sbox, args.system)
        diff = analysis.differential_test(encrypt_fn, img, cipher_img, args.trials, seed)
        text += (
            f"{title}.differential.mean_npcr={diff.mean_npcr:.6f}\n"
            f"{title}.differential.mean_uaci={diff.mean_uaci:.6f}\n"
            f"{title}.differential.best_npcr={diff.best_npcr:.6f}\n"
        )
        sections.append(text)
    header += f"compare.system={args.system}\ncompare.trials={args.trials}\n"
    _emit(header + "".join(sections), args.report)
    return EXIT_OK


def cmd_sbox_eval(args) -> int:
    sbox = _resolve_sbox(args.sbox)
    to = transparency_order(sbox)
    text = (
        f"sbox.name={sbox.name}\n"
        "sbox.bijective=true\n"
        f"sbox.transparency_order={to:.6f}\n"
        "sbox.note=lower transparency order indicates higher DPA resistance\n"
    )
    _emit(text, args.report)
    return EXIT_OK


def cmd_bench(args) -> int:
    """Wall-clock timing; hardware-dependent, informational only."""
    if args.input:
        img = read_pgm(args.input)
    else:
        img = np.random.default_rng(args.seed or 0).integers(0, 256, size=(256, 256)).astype(np.uint8)
    params = chaos.default_params(args.system)
    sbox = _sbox_for(args.scheme, args)
    enc_times, dec_times = [], []
    for _ in range(args.trials):
        t0 = time.perf_counter()
        cipher_img, key = cipher.encrypt(args.scheme, img, params, args.rounds, sbox, system=args.system)
        t1 = time.perf_counter()
        cipher.decrypt(cipher_img, key, sbox)
        t2 = time.perf_counter()
        enc_times.append(t1 - t0)
        dec_times.append(t2 - t1)
    text = (
        f"bench.scheme={args.scheme}\n"
        f"bench.image={img.shape[1]}x{img.shape[0]}\n"
        f"bench.trials={args.trials}\n"
        f"bench.encrypt.mean_s={np.mean(enc_times):.6f}\n"
        f"bench.encrypt.median_s={np.median(enc_times):.6f}\n"
        f"bench.encrypt.min_s={np.min(enc_times):.6f}\n"
        f"bench.encrypt.max_s={np.max(enc_times):.6f}\n"
        f"bench.decrypt.mean_s={np.mean(dec_times):.6f}\n"
        f"bench.decrypt.median_s={np.median(dec_times):.6f}\n"
        f"bench.decrypt.min_s={np.min(dec_times):.6f}\n"
        f"bench.decrypt.max_s={np.max(dec_times):.6f}\n"
        "bench.note=wall-clock times are hardware-dependent and informational only\n"
    )
    _emit(text, args.report)
    return EXIT_OK


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _add_common(parser, *, scheme=True):
    if scheme:
        parser.add_argument("--scheme", choices=(SCHEME_IEAHF, SCHEME_GH401),
                            default=SCHEME_GH401, help="cipher scheme (default GH401)")
    parser.add_argument("--system", choices=tuple(chaos.list_systems()),
                        default=cipher.DEFAULT_SYSTEM,
                        help="dynamical system id (default %(default)s)")
    parser.add_argument("--rounds", type=_int_at_least(1), default=None,
                        help="round count (defaults: IEAHF 2, GH401 4)")
    parser.add_argument("--sbox", default="aes", help=_SBOX_HELP)
    parser.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="64-bit seed; for encrypt it draws the key parameters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gh401",
        description="Chaos-based grayscale image encryption toolkit (binary PGM only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt a PGM image")
    p.add_argument("input")
    _add_common(p)
    p.add_argument("--out", help="ciphertext PGM path")
    p.add_argument("--key", help="key envelope output path (GH401)")
    p.add_argument("--ss", help="side-channel file output path (IEAHF)")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a PGM image")
    p.add_argument("input")
    p.add_argument("--sbox", default="aes", help=_SBOX_HELP + "; must be the envelope's")
    p.add_argument("--out", help="plaintext PGM path")
    p.add_argument("--key", help="key envelope path (GH401)")
    p.add_argument("--ss", help="side-channel file path (IEAHF)")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("analyze", help="security metrics for an image")
    p.add_argument("input")
    _add_common(p)
    p.add_argument("--plain", help="reference image for NPCR/UACI")
    p.add_argument("--pairs", type=_int_at_least(2), default=analysis.DEFAULT_CORRELATION_PAIRS,
                   help="adjacent pixel pairs sampled per correlation (default %(default)s)")
    p.add_argument("--differential", action="store_true",
                   help="run the single-pixel differential harness (encrypts internally)")
    p.add_argument("--trials", type=_int_at_least(1), default=100,
                   help="differential trials (default %(default)s)")
    p.add_argument("--key", help="GH401 key envelope for --differential; it sets the scheme, "
                   "system, rounds and parameters, and --sbox must be the one it names")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="run both schemes on one image, side by side")
    p.add_argument("input")
    _add_common(p, scheme=False)
    p.add_argument("--pairs", type=_int_at_least(2), default=analysis.DEFAULT_CORRELATION_PAIRS,
                   help="adjacent pixel pairs sampled per correlation (default %(default)s)")
    p.add_argument("--trials", type=_int_at_least(1), default=100,
                   help="differential trials per scheme (default %(default)s)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sbox-eval", help="bijectivity and transparency order of an S-box")
    p.add_argument("--sbox", required=True, help=_SBOX_HELP)
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_sbox_eval)

    p = sub.add_parser("bench", help="wall-clock encrypt/decrypt timing")
    p.add_argument("input", nargs="?", help="PGM image (default: seeded random 256x256)")
    _add_common(p)
    p.add_argument("--trials", type=_int_at_least(1), default=100,
                   help="timing repetitions (default %(default)s)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cipher.CryptoMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, chaos.OrbitDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
