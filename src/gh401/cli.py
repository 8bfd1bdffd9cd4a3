"""Command-line front end.

Subcommands: encrypt, decrypt, analyze, compare, sbox-eval, bench.
Images travel as binary PGM (P5, maxval 255); GH401 key envelopes as
UTF-8 text files; IEAHF side-channel data as the binary SSX1 format.
A run whose output names the same file as another output or an input
exits 2 before it reads any file.  The parser is built once per process.

Exit codes (stable), one exception type each in :func:`main`:
    0  success
    2  ``ValueError``: validation error (bad arguments, malformed inputs,
       odd dimensions, key parameters whose orbit leaves the finite floats)
    3  ``OSError``: I/O error (missing or unreadable files)
    4  ``CryptoMismatchError``: crypto mismatch (wrong side file, envelope or S-box)
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from gh401 import analysis, chaos, cipher
from gh401.cipher import SCHEME_GH401, SCHEME_IEAHF
from gh401.image_io import check_blocks, read_file, read_pgm, write_atomic, write_pgm
from gh401.sbox import BUNDLED_SBOXES, bundled_sbox, load_sbox, transparency_order

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_MISMATCH = 4

DEFAULT_SCHEME = SCHEME_GH401
DEFAULT_SBOX = "aes"
DEFAULT_TRIALS = 100
_ROUNDS_HELP = "round count ({})".format("; ".join(
    f"{scheme} {cipher.MIN_ROUNDS[scheme]} to {cipher.MAX_ROUNDS}, default {n}"
    for scheme, n in cipher.DEFAULT_ROUNDS.items()))
_SBOX_HELP = f"bundled S-box name ({', '.join(BUNDLED_SBOXES)}) or a .txt/.bin table file"


def _emit(text: str, report_path) -> None:
    if report_path:
        write_atomic(report_path, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _resolve_sbox(value):
    value = DEFAULT_SBOX if value is None else value
    if value in BUNDLED_SBOXES:
        return bundled_sbox(value)
    return load_sbox(value)


def _reject_unread_sbox(args, reads_sbox: bool) -> None:
    if args.sbox is not None and not reads_sbox:
        raise ValueError("--sbox is read only by GH401 runs; this run has no S-box stage")


def _scheme(args) -> str:
    return DEFAULT_SCHEME if args.scheme is None else args.scheme


def _system(args) -> str:
    return cipher.DEFAULT_SYSTEM if args.system is None else args.system


def _settings(scheme: str, args):
    """The ``(params, rounds, sbox, system)`` that ``cipher.encrypt`` takes after the image.

    Called before any file is read.  ``--rounds`` must lie in the scheme's
    range; IEAHF has no S-box stage, so only GH401 takes ``--sbox``.
    ``--seed`` draws the parameters, else the system's defaults are used.
    """
    if args.rounds is not None:
        cipher.check_rounds(scheme, args.rounds)
    _reject_unread_sbox(args, scheme == SCHEME_GH401)
    system = _system(args)
    params = (chaos.default_params(system) if args.seed is None
              else chaos.draw_params(system, args.seed))
    sbox = _resolve_sbox(args.sbox) if scheme == SCHEME_GH401 else None
    return params, args.rounds, sbox, system


def _check_envelope_flags(args, env: cipher.KeyEnvelope) -> None:
    """Raise :class:`cipher.CryptoMismatchError` for a given flag that disagrees with ``env``."""
    for flag, given, stored in (("--scheme", args.scheme, env.scheme),
                                ("--system", args.system, env.system),
                                ("--rounds", args.rounds, env.n)):
        if given is not None and given != stored:
            raise cipher.CryptoMismatchError(f"envelope was made with {flag} {stored}, got {given}")


def _default_out(input_path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(input_path)
    return stem + suffix


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.abspath(a) == os.path.abspath(b)


def _check_paths(args, outputs: dict) -> None:
    """Raise ``ValueError`` when an output names the same file as another output or an input.

    ``outputs`` maps a flag to the path the run writes; the inputs are the
    file flags of ``args`` that are not outputs.  Called before any file
    is read, so a refused run reads and writes nothing.
    """
    seen = [(flag, getattr(args, flag.lstrip("-"), None))
            for flag in ("input", "--plain", "--key", "--ss") if flag not in outputs]
    seen.append(("--sbox", None if args.sbox in BUNDLED_SBOXES else args.sbox))
    for flag, path in outputs.items():
        for other, other_path in seen:
            if path and other_path and _same_file(path, other_path):
                raise ValueError(f"{flag} {path!r} names the same file as {other} {other_path!r}")
        seen.append((flag, path))


def cmd_encrypt(args) -> int:
    scheme = _scheme(args)
    flag, other, label = (("ss", "key", "side-channel file") if scheme == SCHEME_IEAHF
                          else ("key", "ss", "key envelope"))
    if getattr(args, other):
        raise ValueError(f"{scheme} writes its key file to --{flag}, not --{other}")
    out = args.out or _default_out(args.input, ".enc.pgm")
    key_path = getattr(args, flag) or _default_out(args.input, "." + flag)
    _check_paths(args, {"--out": out, f"--{flag}": key_path})
    settings = _settings(scheme, args)
    img = read_pgm(args.input)
    cipher_img, key = cipher.encrypt(scheme, img, *settings)
    data = key.to_bytes()
    write_pgm(out, cipher_img)
    write_atomic(key_path, data)
    print(f"ciphertext: {out}")
    print(f"{label}: {key_path} ({len(data)} bytes)")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    if bool(args.key) == bool(args.ss):
        raise ValueError("decrypt takes exactly one of --key (GH401 envelope) "
                         "and --ss (IEAHF side-channel file)")
    _reject_unread_sbox(args, bool(args.key))
    out = args.out or _default_out(args.input, ".dec.pgm")
    _check_paths(args, {"--out": out})
    sbox = _resolve_sbox(args.sbox) if args.key else None
    img = read_pgm(args.input)
    key_class = cipher.KeyEnvelope if args.key else cipher.SideChannelFile
    key = read_file(args.key or args.ss, key_class.from_bytes, "key file")
    write_pgm(out, cipher.decrypt(img, key, sbox))
    print(f"plaintext: {out}")
    return EXIT_OK


def _encrypt_fn(scheme, settings):
    return lambda im: cipher.encrypt(scheme, im, *settings)[0]


def cmd_analyze(args) -> int:
    if not args.differential:
        for flag in ("key", "scheme", "system", "rounds", "trials"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is read only by --differential")
    scheme = _scheme(args)
    _reject_unread_sbox(args, args.differential)
    _check_paths(args, {"--report": args.report})
    if args.key:
        env = read_file(args.key, cipher.KeyEnvelope.from_bytes, "key file")
        _check_envelope_flags(args, env)
        sbox = _resolve_sbox(args.sbox)
        env.check_sbox(sbox)
        scheme, settings = env.scheme, (env.params, env.n, sbox, env.system)
    elif args.differential:
        settings = _settings(scheme, args)
    img = read_pgm(args.input)
    if args.differential:
        check_blocks(img)
    plain = read_pgm(args.plain) if args.plain else None
    seed = args.seed or 0
    text = analysis.key_value_text(analysis.full_report(img, plain, pairs=args.pairs, seed=seed),
                                   prefix="image.")
    if args.differential:
        trials = args.trials or DEFAULT_TRIALS
        encrypt_fn = _encrypt_fn(scheme, settings)
        diff = analysis.differential_test(encrypt_fn, img, encrypt_fn(img), trials, seed)
        text += analysis.key_value_text(
            [("scheme", scheme), ("trials", trials), ("seed", seed),
             *analysis.differential_pairs(diff)], prefix="differential.")
    _emit(text, args.report)
    return EXIT_OK


def cmd_compare(args) -> int:
    """Both schemes on one image: per-scheme metrics plus differential means."""
    # One GH401 resolution serves both runs: cipher.encrypt ignores the S-box
    # for IEAHF, and GH401's 3..255 rounds lie inside IEAHF's 1..255.
    _check_paths(args, {"--report": args.report})
    settings = _settings(SCHEME_GH401, args)
    img = read_pgm(args.input)
    seed = args.seed or 0
    header, sections = [], []
    for scheme in (SCHEME_IEAHF, SCHEME_GH401):
        cipher_img, key = cipher.encrypt(scheme, img, *settings)
        title = scheme.lower()
        header.append((f"{title}.rounds", key.rounds))
        report = analysis.full_report(cipher_img, img, pairs=args.pairs, seed=seed)
        diff = analysis.differential_test(_encrypt_fn(scheme, settings), img, cipher_img,
                                          args.trials, seed)
        # the comparison keeps the two means and the best NPCR of each scheme
        sections.append(analysis.key_value_text(report, prefix=f"{title}.")
                        + analysis.key_value_text(analysis.differential_pairs(diff)[:3],
                                                  prefix=f"{title}.differential."))
    header += [("system", _system(args)), ("trials", args.trials)]
    _emit("# informational comparison; third-party schemes are not implemented\n"
          + analysis.key_value_text(header, prefix="compare.") + "".join(sections), args.report)
    return EXIT_OK


def cmd_sbox_eval(args) -> int:
    _check_paths(args, {"--report": args.report})
    sbox = _resolve_sbox(args.sbox)
    _emit(analysis.key_value_text([
        ("name", sbox.name), ("bijective", "true"),
        ("transparency_order", f"{transparency_order(sbox):.6f}"),
        ("note", "lower transparency order indicates higher DPA resistance")], prefix="sbox."),
        args.report)
    return EXIT_OK


def cmd_bench(args) -> int:
    """Wall-clock timing; hardware-dependent, informational only."""
    scheme = _scheme(args)
    _check_paths(args, {"--report": args.report})
    params, rounds, sbox, system = _settings(scheme, args)
    if args.input:
        img = read_pgm(args.input)
    else:
        img = np.random.default_rng(args.seed or 0).integers(0, 256, size=(256, 256)).astype(np.uint8)
    enc_times, dec_times = [], []
    for _ in range(args.trials):
        t0 = time.perf_counter()
        cipher_img, key = cipher.encrypt(scheme, img, params, rounds, sbox, system)
        t1 = time.perf_counter()
        cipher.decrypt(cipher_img, key, sbox)
        t2 = time.perf_counter()
        enc_times.append(t1 - t0)
        dec_times.append(t2 - t1)
    pairs = [("scheme", scheme), ("image", f"{img.shape[1]}x{img.shape[0]}"),
             ("trials", args.trials)]
    for stage, times in (("encrypt", enc_times), ("decrypt", dec_times)):
        pairs += [(f"{stage}.{stat.__name__}_s", f"{stat(times):.6f}")
                  for stat in (np.mean, np.median, np.min, np.max)]
    pairs.append(("note", "wall-clock times are hardware-dependent and informational only"))
    _emit(analysis.key_value_text(pairs, prefix="bench."), args.report)
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
                            help=f"cipher scheme (default {DEFAULT_SCHEME})")
    parser.add_argument("--system", choices=tuple(chaos.list_systems()),
                        help=f"dynamical system id (default {cipher.DEFAULT_SYSTEM})")
    parser.add_argument("--rounds", type=_int_at_least(1), help=_ROUNDS_HELP)
    parser.add_argument("--sbox", help=_SBOX_HELP + f"; GH401 only (default {DEFAULT_SBOX})")
    parser.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="64-bit seed; draws the key parameters wherever a subcommand "
                        "encrypts without --key, and seeds all sampling")


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
    p.add_argument("--sbox", help=_SBOX_HELP + f"; --key only, must be the envelope's "
                   f"(default {DEFAULT_SBOX})")
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
    p.add_argument("--trials", type=_int_at_least(1),
                   help=f"differential trials (default {DEFAULT_TRIALS})")
    p.add_argument("--key", help="GH401 key envelope for --differential; it sets the scheme, "
                   "system, rounds and parameters, which --scheme, --system and --rounds "
                   "must agree with, and --sbox must be the one it names")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="run both schemes on one image, side by side")
    p.add_argument("input")
    _add_common(p, scheme=False)
    p.add_argument("--pairs", type=_int_at_least(2), default=analysis.DEFAULT_CORRELATION_PAIRS,
                   help="adjacent pixel pairs sampled per correlation (default %(default)s)")
    p.add_argument("--trials", type=_int_at_least(1), default=DEFAULT_TRIALS,
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
    p.add_argument("--trials", type=_int_at_least(1), default=DEFAULT_TRIALS,
                   help="timing repetitions (default %(default)s)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_bench)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except cipher.CryptoMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
