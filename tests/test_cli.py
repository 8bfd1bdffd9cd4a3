"""PGM I/O and the command-line front end."""

import hashlib
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gh401 import chaos, cipher, cli
from gh401.image_io import read_pgm, write_pgm
from gh401.sbox import bundled_sbox


def write_image(path, img):
    write_pgm(path, img)
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------- PGM

def test_pgm_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, size=(10, 14)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_header_comments(tmp_path):
    img = np.arange(4, dtype=np.uint8).reshape(2, 2)
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + img.tobytes())
    assert np.array_equal(read_pgm(path), img)


def test_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError, match="P5"):
        read_pgm(path)


def test_pgm_rejects_wide_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_pgm_empty_file_is_truncated_header(tmp_path):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated PGM header"):
        read_pgm(path)


@pytest.mark.parametrize("header, message", [
    (b"P5\n-8 -8\n255\n", "width -8 and height -8"),
    (b"P5\n0 4\n255\n", "width 0 and height 4"),
    (b"P5\nx 4\n255\n", "PGM header width is not an integer: b'x'"),
], ids=["negative", "zero", "non-integer"])
def test_pgm_rejects_non_positive_dimensions(tmp_path, header, message):
    path = tmp_path / "flat.pgm"
    path.write_bytes(header + bytes(64))
    with pytest.raises(ValueError, match=message):
        read_pgm(path)


def test_cli_analyze_rejects_a_negative_pgm_dimension(tmp_path, capsys):
    path = tmp_path / "neg.pgm"
    path.write_bytes(b"P5\n-8 -8\n255\n" + bytes(64))
    assert cli.main(["analyze", str(path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "width -8 and height -8" in err
    assert "Traceback" not in err


def test_cli_analyze_names_the_bad_plain_image(tmp_path, capsys):
    src = write_image(tmp_path / "c.pgm", np.zeros((4, 4), dtype=np.uint8))
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n")
    assert cli.main(["analyze", src, "--plain", str(bad)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"image {str(bad)!r}: PGM payload truncated: expected 16 bytes, got 0" in err
    assert "Traceback" not in err


def test_pgm_write_rejects_1d_array(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_pgm(tmp_path / "flat.pgm", np.zeros(4, dtype=np.uint8))
    assert list(tmp_path.iterdir()) == []


def test_pgm_write_rejects_pixels_that_are_not_uint8(tmp_path):
    # 300 would be written as 300 mod 256 = 44, which reads back as another image
    with pytest.raises(ValueError, match="expected uint8 pixels, got int64"):
        write_pgm(tmp_path / "wide.pgm", np.array([[300, 1], [2, 3]], dtype=np.int64))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- CLI

def test_cli_gh401_file_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    src = write_image(tmp_path / "plain.pgm", img)
    enc = str(tmp_path / "cipher.pgm")
    key = str(tmp_path / "cipher.key")
    dec = str(tmp_path / "roundtrip.pgm")
    assert cli.main(["encrypt", src, "--scheme", "GH401", "--out", enc, "--key", key]) == 0
    assert cli.main(["decrypt", enc, "--key", key, "--out", dec]) == 0
    assert (tmp_path / "roundtrip.pgm").read_bytes() == (tmp_path / "plain.pgm").read_bytes()


def test_cli_ieahf_file_roundtrip(tmp_path, rng):
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    src = write_image(tmp_path / "plain.pgm", img)
    enc = str(tmp_path / "cipher.pgm")
    ss = str(tmp_path / "cipher.ss")
    dec = str(tmp_path / "roundtrip.pgm")
    assert cli.main(["encrypt", src, "--scheme", "IEAHF", "--out", enc, "--ss", ss]) == 0
    assert cli.main(["decrypt", enc, "--ss", ss, "--out", dec]) == 0
    assert (tmp_path / "roundtrip.pgm").read_bytes() == (tmp_path / "plain.pgm").read_bytes()


def test_cli_ieahf_black_passthrough(tmp_path):
    img = np.zeros((16, 16), dtype=np.uint8)
    src = write_image(tmp_path / "black.pgm", img)
    enc = str(tmp_path / "black.enc.pgm")
    assert cli.main(["encrypt", src, "--scheme", "IEAHF", "--out", enc,
                     "--ss", str(tmp_path / "black.ss")]) == 0
    assert np.array_equal(read_pgm(enc), img)


def test_cli_missing_sbox_file_is_io_error(tmp_path, rng):
    img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    src = write_image(tmp_path / "p.pgm", img)
    code = cli.main(["encrypt", src, "--scheme", "GH401",
                     "--sbox", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "c.pgm")])
    assert code == cli.EXIT_IO


def test_cli_odd_dimensions_rejected(tmp_path):
    img = np.zeros((7, 8), dtype=np.uint8)
    src = write_image(tmp_path / "odd.pgm", img)
    code = cli.main(["encrypt", src, "--out", str(tmp_path / "c.pgm")])
    assert code == cli.EXIT_VALIDATION


def test_cli_wrong_side_file_is_mismatch(tmp_path, rng):
    a = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    b = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    src_a = write_image(tmp_path / "a.pgm", a)
    src_b = write_image(tmp_path / "b.pgm", b)
    assert cli.main(["encrypt", src_a, "--scheme", "IEAHF",
                     "--out", str(tmp_path / "a.enc.pgm"), "--ss", str(tmp_path / "a.ss")]) == 0
    assert cli.main(["encrypt", src_b, "--scheme", "IEAHF",
                     "--out", str(tmp_path / "b.enc.pgm"), "--ss", str(tmp_path / "b.ss")]) == 0
    code = cli.main(["decrypt", str(tmp_path / "a.enc.pgm"), "--ss", str(tmp_path / "b.ss"),
                     "--out", str(tmp_path / "x.pgm")])
    assert code == cli.EXIT_MISMATCH


def test_cli_side_file_for_another_image_size_is_mismatch(tmp_path, capsys):
    small = write_image(tmp_path / "s.pgm", np.zeros((8, 8), dtype=np.uint8))
    large = write_image(tmp_path / "l.pgm", np.zeros((16, 16), dtype=np.uint8))
    ss = str(tmp_path / "s.ss")
    assert cli.main(["encrypt", small, "--scheme", "IEAHF", "--out", str(tmp_path / "s.enc.pgm"),
                     "--ss", ss]) == 0
    capsys.readouterr()
    out = tmp_path / "x.pgm"
    code = cli.main(["decrypt", large, "--ss", ss, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_MISMATCH
    assert "side-channel file is for 8x8, image is 16x16" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_decrypt_needs_key_or_ss(tmp_path):
    src = write_image(tmp_path / "c.pgm", np.zeros((8, 8), dtype=np.uint8))
    assert cli.main(["decrypt", src, "--out", str(tmp_path / "p.pgm")]) == cli.EXIT_VALIDATION


def test_cli_analyze_black(tmp_path, capsys):
    src = write_image(tmp_path / "black.pgm", np.zeros((256, 256), dtype=np.uint8))
    assert cli.main(["analyze", src]) == 0
    out = capsys.readouterr().out
    assert "image.entropy=0.000000" in out
    assert "image.chi_square=16711680.000" in out
    assert "image.chi_square_pass=false" in out


def test_cli_analyze_deterministic_report_bytes(tmp_path, rng):
    img = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
    src = write_image(tmp_path / "img.pgm", img)
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    assert cli.main(["analyze", src, "--seed", "5", "--pairs", "400",
                     "--report", str(r1)]) == 0
    assert cli.main(["analyze", src, "--seed", "5", "--pairs", "400",
                     "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_analyze_differential(tmp_path):
    src = write_image(tmp_path / "w.pgm", np.full((16, 16), 255, dtype=np.uint8))
    report = tmp_path / "diff.txt"
    assert cli.main(["analyze", src, "--differential", "--scheme", "GH401",
                     "--rounds", "3", "--trials", "2", "--pairs", "100",
                     "--report", str(report)]) == 0
    text = report.read_text()
    assert "differential.mean_npcr=" in text
    assert "differential.trials=2" in text


def test_cli_sbox_eval(tmp_path, capsys):
    assert cli.main(["sbox-eval", "--sbox", "identity"]) == 0
    out = capsys.readouterr().out
    assert "sbox.bijective=true" in out
    assert "sbox.transparency_order=5.835294" in out

    bad = tmp_path / "bad.txt"
    bad.write_text(" ".join(["7"] * 256))
    assert cli.main(["sbox-eval", "--sbox", str(bad)]) == cli.EXIT_VALIDATION


def test_cli_sbox_eval_deterministic(capsys):
    assert cli.main(["sbox-eval", "--sbox", "aes"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["sbox-eval", "--sbox", "aes"]) == 0
    assert capsys.readouterr().out == first


def test_cli_bench_schema(tmp_path, rng):
    img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    src = write_image(tmp_path / "b.pgm", img)
    report = tmp_path / "bench.txt"
    assert cli.main(["bench", src, "--trials", "2", "--rounds", "3",
                     "--report", str(report)]) == 0
    text = report.read_text()
    assert "bench.trials=2" in text
    assert "bench.encrypt.mean_s=" in text
    assert "bench.decrypt.mean_s=" in text
    assert "bench.encrypt.median_s=" in text
    assert "bench.decrypt.median_s=" in text
    assert "informational" in text


def test_cli_compare_schema(tmp_path, rng):
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    src = write_image(tmp_path / "cmp.pgm", img)
    report = tmp_path / "cmp.txt"
    assert cli.main(["compare", src, "--trials", "2", "--pairs", "100",
                     "--report", str(report)]) == 0
    text = report.read_text()
    assert "ieahf.entropy=" in text
    assert "gh401.entropy=" in text
    assert "ieahf.differential.mean_npcr=" in text
    assert "gh401.differential.mean_npcr=" in text
    assert "third-party schemes are not implemented" in text
    assert "compare.ieahf.rounds=2\ncompare.gh401.rounds=4\n" in text


@pytest.fixture
def ieahf_rounds(monkeypatch):
    """The round count of every IEAHF encryption the CLI runs."""
    seen = []
    encrypt = cipher.encrypt_ieahf

    def spy(img, params, n, **kwargs):
        seen.append(n)
        return encrypt(img, params, n, **kwargs)

    monkeypatch.setattr(cipher, "encrypt_ieahf", spy)
    return seen


@pytest.mark.parametrize("argv, rounds", [
    (["compare", "--pairs", "100"], 2),
    (["compare", "--pairs", "100", "--rounds", "3"], 3),
    (["bench", "--scheme", "IEAHF"], 2),
    (["bench", "--scheme", "IEAHF", "--rounds", "1"], 1),
], ids=["compare-default", "compare-3", "bench-default", "bench-1"])
def test_cli_ieahf_runs_its_own_default_or_the_given_rounds(tmp_path, rng, ieahf_rounds,
                                                            argv, rounds):
    src = write_image(tmp_path / "p.pgm", rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
    assert cli.main([argv[0], src, *argv[1:], "--trials", "2",
                     "--report", str(tmp_path / "r.txt")]) == 0
    assert ieahf_rounds and set(ieahf_rounds) == {rounds}


def test_cli_compare_encrypts_each_plaintext_once(tmp_path, rng, ieahf_rounds):
    # one base ciphertext shared by the report and the differential, plus one per trial
    src = write_image(tmp_path / "p.pgm", rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
    assert cli.main(["compare", src, "--trials", "2", "--pairs", "100",
                     "--report", str(tmp_path / "r.txt")]) == 0
    assert len(ieahf_rounds) == 3


@pytest.mark.parametrize("rounds", ["2", "256"])
def test_cli_compare_checks_gh401_rounds_before_any_encryption(tmp_path, capsys, ieahf_rounds,
                                                               rounds):
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    code = cli.main(["compare", src, "--rounds", rounds, "--report", str(tmp_path / "r.txt")])
    assert code == cli.EXIT_VALIDATION
    assert "GH401 uses at least 3 rounds" in capsys.readouterr().err
    assert ieahf_rounds == []
    assert not (tmp_path / "r.txt").exists()


def test_cli_compare_loads_the_sbox_before_any_encryption(tmp_path, capsys, ieahf_rounds):
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    code = cli.main(["compare", src, "--sbox", str(tmp_path / "missing.txt"),
                     "--report", str(tmp_path / "r.txt")])
    assert code == cli.EXIT_IO
    assert "missing.txt" in capsys.readouterr().err
    assert ieahf_rounds == []
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--trials", "0"], "--trials"),
    (["analyze", "--differential", "--trials", "-3"], "--trials"),
    (["compare", "--trials", "0"], "--trials"),
    (["encrypt", "--seed", "-1"], "--seed"),
    (["bench", "--seed", "-1"], "--seed"),
    (["analyze", "--pairs", "0"], "--pairs"),
    (["compare", "--pairs", "1"], "--pairs"),
    (["encrypt", "--rounds", "0"], "--rounds"),
    (["bench", "--rounds", "-1"], "--rounds"),
], ids=["bench-trials", "analyze-trials", "compare-trials", "encrypt-seed", "bench-seed",
        "analyze-pairs", "compare-pairs", "encrypt-rounds", "bench-rounds"])
def test_cli_rejects_out_of_range_trials_and_seed(tmp_path, capsys, argv, flag):
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], src, *argv[1:]])
    assert exc.value.code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.pgm"]


@pytest.mark.parametrize("argv", [
    ["encrypt", "--out", "c.pgm", "--ss", "c.ss"],
    ["bench", "--trials", "1", "--report", "r.txt"],
    ["analyze", "--differential", "--trials", "1", "--report", "r.txt"],
], ids=["encrypt", "bench", "analyze-differential"])
@pytest.mark.parametrize("rounds", ["256", "100000000000"])
def test_cli_ieahf_rounds_are_capped(tmp_path, capsys, monkeypatch, argv, rounds):
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    monkeypatch.chdir(tmp_path)
    code = cli.main([argv[0], src, *argv[1:], "--scheme", "IEAHF", "--rounds", rounds])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"IEAHF uses at least 1 round and at most 255, got {rounds}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.pgm"]


def test_cli_sbox_file_name_with_line_break_writes_nothing(tmp_path, capsys):
    # the envelope names the S-box by its file stem, which would span two lines
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    sbox = tmp_path / "n\nl.txt"
    sbox.write_text(" ".join(str(v) for v in range(256)))
    code = cli.main(["encrypt", src, "--scheme", "GH401", "--sbox", str(sbox)])
    assert code == cli.EXIT_VALIDATION
    assert "one line" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n\nl.txt", "p.pgm"]


def _differential_lines(tmp_path, argv):
    report = tmp_path / "diff.txt"
    assert cli.main([*argv, "--report", str(report)]) == 0
    return [ln for ln in report.read_text().splitlines() if ln.startswith("differential.")]


def test_cli_analyze_key_takes_scheme_system_and_rounds_from_envelope(tmp_path):
    src = write_image(tmp_path / "p.pgm", np.arange(64, dtype=np.uint8).reshape(8, 8))
    key = tmp_path / "c.key"
    assert cli.main(["encrypt", src, "--scheme", "GH401", "--system", "hosny6d",
                     "--rounds", "5", "--seed", "9", "--out", str(tmp_path / "c.pgm"),
                     "--key", str(key)]) == 0
    white = write_image(tmp_path / "w.pgm", np.full((8, 8), 255, dtype=np.uint8))
    argv = ["analyze", white, "--differential", "--trials", "2", "--pairs", "10",
            "--key", str(key)]
    from_key = _differential_lines(tmp_path, argv)
    explicit = _differential_lines(tmp_path, [*argv, "--system", "hosny6d", "--rounds", "5"])
    assert from_key == explicit
    assert "differential.scheme=GH401" in from_key


def test_cli_analyze_key_still_takes_seed(tmp_path):
    # --key sets the cipher; --seed still seeds the trial pixels and the correlation sample.
    src = write_image(tmp_path / "p.pgm", np.arange(64, dtype=np.uint8).reshape(8, 8))
    key = tmp_path / "c.key"
    assert cli.main(["encrypt", src, "--out", str(tmp_path / "c.pgm"), "--key", str(key)]) == 0
    report = tmp_path / "r.txt"
    assert cli.main(["analyze", src, "--differential", "--trials", "2", "--pairs", "10",
                     "--key", str(key), "--seed", "5", "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert "image.seed=5" in lines
    assert "differential.seed=5" in lines


@pytest.mark.parametrize("flag, value, stored", [
    ("--scheme", "IEAHF", "GH401"), ("--system", "reftestmap", "hosny6d"), ("--rounds", "3", "5"),
], ids=["scheme", "system", "rounds"])
def test_cli_analyze_key_rejects_a_flag_the_envelope_contradicts(tmp_path, capsys, monkeypatch,
                                                                 flag, value, stored):
    src = write_image(tmp_path / "p.pgm", np.arange(64, dtype=np.uint8).reshape(8, 8))
    key = tmp_path / "c.key"
    assert cli.main(["encrypt", src, "--system", "hosny6d", "--rounds", "5", "--seed", "9",
                     "--out", str(tmp_path / "c.pgm"), "--key", str(key)]) == 0
    capsys.readouterr()
    reads = []
    monkeypatch.setattr(cli, "read_pgm", lambda path: reads.append(path))
    code = cli.main(["analyze", src, "--differential", "--key", str(key), flag, value])
    err = capsys.readouterr().err
    assert code == cli.EXIT_MISMATCH
    assert f"envelope was made with {flag} {stored}, got {value}" in err
    assert "Traceback" not in err
    assert reads == []


def test_cli_ieahf_decrypt_checks_each_permutation_once(tmp_path, rng, monkeypatch):
    # Every side-file permutation passes the bijection check once.
    src = write_image(tmp_path / "p.pgm", rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
    enc, ss = str(tmp_path / "c.pgm"), str(tmp_path / "c.ss")
    assert cli.main(["encrypt", src, "--scheme", "IEAHF", "--rounds", "3",
                     "--out", enc, "--ss", ss]) == 0
    calls = []
    check = cipher.check_permutation
    monkeypatch.setattr(cipher, "check_permutation", lambda *a, **k: calls.append(1) or check(*a, **k))
    assert cli.main(["decrypt", enc, "--ss", ss, "--out", str(tmp_path / "d.pgm")]) == 0
    assert len(calls) == 3


def test_cli_failed_write_leaves_no_temp_file(tmp_path, rng, capsys):
    src = write_image(tmp_path / "p.pgm", rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
    out = tmp_path / "out.pgm"
    out.mkdir()
    code = cli.main(["encrypt", src, "--scheme", "IEAHF", "--out", str(out),
                     "--ss", str(tmp_path / "c.ss")])
    assert code == cli.EXIT_IO
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pgm", "p.pgm"]
    with pytest.raises(IsADirectoryError):
        write_pgm(out, np.zeros((2, 2), dtype=np.uint8))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pgm", "p.pgm"]


@pytest.mark.parametrize("scheme, flag, label", [("GH401", "--key", "key envelope"),
                                                 ("IEAHF", "--ss", "side-channel file")])
def test_cli_encrypt_prints_written_key_size(tmp_path, rng, capsys, scheme, flag, label):
    src = write_image(tmp_path / "p.pgm", rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
    key = tmp_path / "p.keyfile"
    assert cli.main(["encrypt", src, "--scheme", scheme, "--seed", "3",
                     "--out", str(tmp_path / "c.pgm"), flag, str(key)]) == 0
    out = capsys.readouterr().out
    assert f"{label}: {key} ({key.stat().st_size} bytes)\n" in out


def _gh401_envelope(tmp_path, system):
    src = write_image(tmp_path / "p.pgm", np.arange(64, dtype=np.uint8).reshape(8, 8))
    enc, key = tmp_path / "c.pgm", tmp_path / "c.key"
    assert cli.main(["encrypt", src, "--scheme", "GH401", "--system", system,
                     "--out", str(enc), "--key", str(key)]) == 0
    return enc, key


def _set_field(key, field, value):
    lines = key.read_text().splitlines()
    lines = [f"{field}={value}" if ln.startswith(f"{field}=") else ln for ln in lines]
    key.write_text("\n".join(lines) + "\n")


def test_cli_diverging_envelope_is_validation_error(tmp_path, capsys):
    enc, key = _gh401_envelope(tmp_path, "hosny6d")
    _set_field(key, "a", f"{1e300:.17g}")
    capsys.readouterr()
    code = cli.main(["decrypt", str(enc), "--key", str(key), "--out", str(tmp_path / "d.pgm")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error: non-finite state at iteration 0 ")
    assert "Traceback" not in err


def test_cli_envelope_diverging_in_a_later_round_is_validation_error(tmp_path, capsys):
    # With d = 12 this 8x8 image's 4-round hosny6d keystream stays finite
    # through the transient and round 1, then overflows in a later round's
    # slice; the error names the row of the whole trajectory.
    enc, key = _gh401_envelope(tmp_path, "hosny6d")
    _set_field(key, "d", "12")
    env = cipher.KeyEnvelope.from_bytes(key.read_bytes())
    rows = chaos.rows_for_sequence(64)
    with pytest.raises(chaos.OrbitDivergenceError) as whole:
        chaos.generate_orbit(chaos.get_system("hosny6d"), env.ic, env.params, env.n * rows)
    assert whole.value.step >= chaos.TRANSIENT_LENGTH + rows
    capsys.readouterr()
    code = cli.main(["decrypt", str(enc), "--key", str(key), "--out", str(tmp_path / "d.pgm")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert err == f"error: {whole.value}\n"
    assert not (tmp_path / "d.pgm").exists()


@pytest.mark.parametrize("system", ["hosny6d", "reftestmap"])
def test_cli_nan_seed_envelope_is_validation_error(tmp_path, capsys, system):
    enc, key = _gh401_envelope(tmp_path, system)
    _set_field(key, "x1", "nan")
    capsys.readouterr()
    code = cli.main(["decrypt", str(enc), "--key", str(key), "--out", str(tmp_path / "d.pgm")])
    assert code == cli.EXIT_VALIDATION
    assert "x1 is not finite" in capsys.readouterr().err


def test_cli_decrypt_takes_no_system_flag(tmp_path):
    # The envelope or side file names the system; decrypt has no --system.
    enc, key = _gh401_envelope(tmp_path, "reftestmap")
    with pytest.raises(SystemExit) as exc:
        cli.main(["decrypt", str(enc), "--key", str(key), "--system", "hosny6d",
                  "--out", str(tmp_path / "d.pgm")])
    assert exc.value.code == cli.EXIT_VALIDATION


def test_cli_envelope_rounds_are_capped(tmp_path, capsys):
    enc, key = _gh401_envelope(tmp_path, "reftestmap")
    _set_field(key, "n", "256")
    capsys.readouterr()
    code = cli.main(["decrypt", str(enc), "--key", str(key), "--out", str(tmp_path / "d.pgm")])
    assert code == cli.EXIT_VALIDATION
    assert "at most 255" in capsys.readouterr().err


def _reads_envelope(tmp_path, command, key, *flags):
    """A decrypt, or an analyze --differential, of an 8x8 image under envelope ``key``."""
    src = write_image(tmp_path / "w.pgm", np.full((8, 8), 255, dtype=np.uint8))
    extra = ["--differential", "--trials", "2", "--pairs", "10"] if command == "analyze" else []
    return cli.main([command, src, *extra, "--key", str(key), *flags,
                     "--out" if command == "decrypt" else "--report", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["decrypt", "analyze"])
def test_cli_envelope_sbox_must_match(tmp_path, capsys, command):
    _, key = _gh401_envelope(tmp_path, "reftestmap")
    capsys.readouterr()
    assert _reads_envelope(tmp_path, command, key, "--sbox", "identity") == cli.EXIT_MISMATCH
    assert "S-box 'aes', got 'identity'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decrypt", "analyze"])
def test_cli_envelope_unknown_system_is_validation_error(tmp_path, capsys, command):
    _, key = _gh401_envelope(tmp_path, "reftestmap")
    _set_field(key, "system", "nope")
    capsys.readouterr()
    assert _reads_envelope(tmp_path, command, key) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"key file '{key}': unknown dynamical system 'nope'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["decrypt", "analyze"])
def test_cli_envelope_not_as_written_is_validation_error(tmp_path, capsys, command):
    # n=04 reads as the integer 4, but the writer writes n=4
    _, key = _gh401_envelope(tmp_path, "reftestmap")
    _set_field(key, "n", "04")
    capsys.readouterr()
    assert _reads_envelope(tmp_path, command, key) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "not in the form its writer writes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["decrypt", "analyze"])
def test_cli_ieahf_envelope_is_validation_error(tmp_path, capsys, command):
    # The IEAHF envelope layout: no whitening or S-box line.
    _, key = _gh401_envelope(tmp_path, "reftestmap")
    lines = key.read_text().replace("scheme=GH401", "scheme=IEAHF").splitlines()
    key.write_text("\n".join(lines[:-2]) + "\n")
    capsys.readouterr()
    assert _reads_envelope(tmp_path, command, key) == cli.EXIT_VALIDATION
    assert "scheme 'IEAHF'" in capsys.readouterr().err


def test_cli_parse_error_names_the_kind_and_the_file(tmp_path, capsys):
    enc, key = _gh401_envelope(tmp_path, "reftestmap")
    ss, g04, sbox = tmp_path / "short.ss", tmp_path / "g04.key", tmp_path / "three.txt"
    assert cli.main(["encrypt", str(tmp_path / "p.pgm"), "--scheme", "IEAHF",
                     "--out", str(tmp_path / "i.pgm"), "--ss", str(ss)]) == 0
    ss.write_bytes(ss.read_bytes()[:-4])
    g04.write_text(key.read_text().replace("\nn=4\n", "\nn=04\n"))
    sbox.write_text("0 1 2\n")
    for flags, prefix in [
            (["--key", str(g04)], f"key file {str(g04)!r}: envelope is not in the form"),
            (["--ss", str(ss)], f"key file {str(ss)!r}: side-channel file is 532 bytes, expected 536"),
            (["--key", str(key), "--sbox", str(sbox)],
             f"S-box file {str(sbox)!r}: S-box must have exactly 256 entries, got 3")]:
        capsys.readouterr()
        out = tmp_path / "d.pgm"
        assert cli.main(["decrypt", str(enc), *flags, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {prefix}")
        assert not out.exists()


@pytest.mark.parametrize("blob, message", [
    (b"SSX1" + struct.pack("<III", 1, 2, 2) + struct.pack("<4I", 1, 2, 3, 4) + bytes(4),
     "indices outside [0, 4)"),
    (b"SSX1\x01\x00", "shorter than its 16-byte header"),
    (b"SSX1" + struct.pack("<III", 1, 0, 2) + bytes(4), "for a 0x2 image"),
    (b"SSX1" + struct.pack("<III", 0, 2, 2), "IEAHF uses at least 1 round and at most 255, got 0"),
    (b"SSX1" + struct.pack("<III", 256, 2, 2) + struct.pack("<5I", 0, 1, 2, 3, 0) * 256,
     "IEAHF uses at least 1 round and at most 255, got 256"),
], ids=["index-out-of-range", "short-header", "empty-image", "no-rounds", "256-rounds"])
def test_cli_malformed_side_file_is_validation_error(tmp_path, capsys, blob, message):
    src = write_image(tmp_path / "c.pgm", np.zeros((2, 2), dtype=np.uint8))
    ss = tmp_path / "c.ss"
    ss.write_bytes(blob)
    code = cli.main(["decrypt", src, "--ss", str(ss), "--out", str(tmp_path / "d.pgm")])
    assert code == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


# SHA-256 of the full stdout of each report, recorded before the report
# renderers were rewritten to share one key=value writer.
_PINNED_REPORTS = {
    "analyze": (["analyze", "{img}", "--pairs", "100", "--seed", "3"],
        "85d54690c57d0d1ddb718678ccd63a149b00b2dc59f2b199cc7c3db15e9be4ff"),
    "analyze-differential-gh401": (["analyze", "{img}", "--differential", "--scheme", "GH401",
                                    "--rounds", "3", "--trials", "3", "--pairs", "100",
                                    "--seed", "3"],
        "5b8406e94d588e46ae0a1ab3259293b1059eb2087b7082afaf68d93e1a2686ae"),
    "analyze-differential-ieahf": (["analyze", "{img}", "--differential", "--scheme", "IEAHF",
                                    "--trials", "3", "--pairs", "100", "--seed", "3"],
        "b7a9e2b9fae1f6b009c1ae0fe3cd2351abab0d4bed787d2d7a6ffb9eb4e51ed3"),
    "analyze-differential-key": (["analyze", "{img}", "--differential", "--key", "{key}",
                                  "--trials", "2", "--pairs", "100", "--seed", "3"],
        "07d3ac3bd0a2638a5adb868a773b686d307f229418b3ef127cdd40bc05a341d6"),
    "compare": (["compare", "{img}", "--trials", "2", "--pairs", "100"],
        "3cd0d71cec75baaa060adecc40a8e43409becaf47e642c80f859f2b0d77e44bb"),
    "compare-rounds-system": (["compare", "{img}", "--trials", "2", "--pairs", "100",
                               "--rounds", "5", "--system", "hosny6d"],
        "94468ec7914584d204c20bf37af7b5e97e52274be213108dfa03ebb7b7297bd7"),
    "sbox-eval": (["sbox-eval", "--sbox", "aes"],
        "c99a103f559712fca8e489bce277e7743abf8fc9028acf155db307b636699237"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_REPORTS))
def test_cli_report_bytes_are_pinned(tmp_path, rng, capsys, case):
    src = write_image(tmp_path / "p.pgm", rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
    key = tmp_path / "p.key"
    argv, digest = _PINNED_REPORTS[case]
    if "{key}" in argv:
        assert cli.main(["encrypt", src, "--system", "hosny6d", "--seed", "9",
                         "--out", str(tmp_path / "c.pgm"), "--key", str(key)]) == 0
        capsys.readouterr()
    assert cli.main([arg.format(img=src, key=key) for arg in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_cli_bench_report_keys_are_pinned(tmp_path, rng, capsys):
    # Timings vary from run to run; the keys and their order do not.
    src = write_image(tmp_path / "p.pgm", rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
    assert cli.main(["bench", src, "--trials", "1", "--rounds", "3"]) == 0
    keys = [line.partition("=")[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == ["bench.scheme", "bench.image", "bench.trials",
                    "bench.encrypt.mean_s", "bench.encrypt.median_s",
                    "bench.encrypt.min_s", "bench.encrypt.max_s",
                    "bench.decrypt.mean_s", "bench.decrypt.median_s",
                    "bench.decrypt.min_s", "bench.decrypt.max_s", "bench.note"]


_SBOX_UNREAD = "--sbox is read only by GH401 runs"


@pytest.mark.parametrize("argv, message", [
    (["encrypt", "{img}", "--scheme", "GH401", "--ss", "{dir}/wanted.ss"],
     "GH401 writes its key file to --key, not --ss"),
    (["encrypt", "{img}", "--scheme", "IEAHF", "--key", "{dir}/wanted.key"],
     "IEAHF writes its key file to --ss, not --key"),
    (["decrypt", "{img}", "--ss", "{dir}/a.ss", "--key", "{dir}/b.key"],
     "decrypt takes exactly one of --key"),
    (["analyze", "{img}", "--key", "/nonexistent"], "--key is read only by --differential"),
    (["encrypt", "{img}", "--scheme", "IEAHF", "--sbox", "/nonexistent.txt"], _SBOX_UNREAD),
    (["decrypt", "{img}", "--ss", "{dir}/a.ss", "--sbox", "/nonexistent.txt"], _SBOX_UNREAD),
    (["analyze", "{img}", "--sbox", "/nonexistent.txt"], _SBOX_UNREAD),
    (["analyze", "{img}", "--differential", "--scheme", "IEAHF", "--sbox", "/nonexistent.txt"],
     _SBOX_UNREAD),
    (["bench", "{img}", "--scheme", "IEAHF", "--sbox", "/nonexistent.txt"], _SBOX_UNREAD),
    (["analyze", "{img}", "--scheme", "IEAHF"], "--scheme is read only by --differential"),
    (["analyze", "{img}", "--system", "hosny6d"], "--system is read only by --differential"),
    (["analyze", "{img}", "--rounds", "9"], "--rounds is read only by --differential"),
    (["analyze", "{img}", "--trials", "5"], "--trials is read only by --differential"),
], ids=["encrypt-gh401-ss", "encrypt-ieahf-key", "decrypt-ss-and-key", "analyze-key",
        "encrypt-ieahf-sbox", "decrypt-ss-sbox", "analyze-sbox", "analyze-differential-ieahf-sbox",
        "bench-ieahf-sbox", "analyze-scheme", "analyze-system", "analyze-rounds", "analyze-trials"])
def test_cli_rejects_a_key_file_flag_it_would_ignore(tmp_path, capsys, monkeypatch, argv, message):
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    (tmp_path / "a.ss").write_bytes(b"SSX1")
    (tmp_path / "b.key").write_text("scheme=GH401\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    reads = []
    monkeypatch.setattr(cli, "read_pgm", lambda path: reads.append(path))
    code = cli.main([arg.format(img=src, dir=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert message in err
    assert "Traceback" not in err
    assert reads == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["encrypt", "{dir}/p.pgm", "--out", "{dir}/same.out", "--key", "{dir}/same.out"],
    ["encrypt", "{dir}/p.pgm", "--scheme", "IEAHF", "--out", "{dir}/p.pgm"],
    ["encrypt", "{dir}/p.key"],
    ["decrypt", "{dir}/p.pgm", "--key", "{dir}/p.key", "--out", "{dir}/p.key"],
    ["analyze", "{dir}/p.pgm", "--report", "{dir}/p.pgm"],
    ["analyze", "{dir}/p.pgm", "--report", "{dir}/link.pgm"],
    ["analyze", "{dir}/p.pgm", "--plain", "{dir}/q.pgm", "--report", "{dir}/new/../q.pgm"],
    ["compare", "{dir}/p.pgm", "--sbox", "{dir}/t.txt", "--report", "{dir}/t.txt"],
    ["sbox-eval", "--sbox", "{dir}/t.txt", "--report", "{dir}/t.txt"],
    ["bench", "{dir}/p.pgm", "--report", "{dir}/p.pgm"],
], ids=["encrypt-out-key", "encrypt-out-input", "encrypt-default-key-input", "decrypt-out-key",
        "analyze-report-input", "analyze-report-link", "analyze-report-plain", "compare-report-sbox",
        "sbox-eval-report-sbox", "bench-report-input"])
def test_cli_refuses_an_output_that_names_another_path(tmp_path, capsys, monkeypatch, argv):
    # samefile decides where both files exist (link.pgm is p.pgm), else the normalized path
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    write_image(tmp_path / "q.pgm", np.zeros((8, 8), dtype=np.uint8))
    (tmp_path / "link.pgm").symlink_to(src)
    (tmp_path / "p.key").write_text("scheme=GH401\n")
    (tmp_path / "t.txt").write_text(" ".join(map(str, range(256))))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    reads = []
    monkeypatch.setattr(cli, "read_pgm", lambda path: reads.append(path))
    code = cli.main([arg.format(dir=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert "names the same file as" in err and "Traceback" not in err
    assert reads == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_cli_bench_draws_the_key_from_seed(monkeypatch, capsys):
    # With no input image, bench times a seeded random 256x256 image.
    seen = []
    encrypt = cipher.encrypt_gh401

    def spy(img, params, n, sbox, system):
        seen.append((params, system))
        return encrypt(img, params, n, sbox, system=system)

    monkeypatch.setattr(cipher, "encrypt_gh401", spy)
    assert cli.main(["bench", "--scheme", "GH401", "--system", "hosny6d", "--seed", "7",
                     "--trials", "1"]) == 0
    assert seen == [(chaos.draw_params("hosny6d", 7), "hosny6d")]
    assert "bench.image=256x256\n" in capsys.readouterr().out


def test_cli_rejects_a_non_integer_count(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--trials", "x"])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "argument --trials: expected an integer, got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, code", [
    (["--key", "{dir}/missing.key"], cli.EXIT_IO),
    (["--key", "{dir}/p.key", "--sbox", "identity"], cli.EXIT_MISMATCH),
], ids=["missing-key", "wrong-sbox"])
def test_cli_analyze_reads_its_key_before_the_report(tmp_path, monkeypatch, flags, code):
    src = write_image(tmp_path / "p.pgm", np.zeros((8, 8), dtype=np.uint8))
    assert cli.main(["encrypt", src, "--out", str(tmp_path / "c.pgm"),
                     "--key", str(tmp_path / "p.key")]) == 0
    reports = []
    monkeypatch.setattr(cli.analysis, "full_report", lambda *a, **k: reports.append(a))
    argv = ["analyze", src, "--differential", "--plain", src,
            *(flag.format(dir=tmp_path) for flag in flags)]
    assert cli.main(argv) == code
    assert reports == []


def test_cli_analyze_differential_checks_the_image_before_the_report(tmp_path, capsys,
                                                                     monkeypatch):
    src = write_image(tmp_path / "odd.pgm", np.zeros((15, 16), dtype=np.uint8))
    reports = []
    monkeypatch.setattr(cli.analysis, "full_report", lambda *a, **k: reports.append(a))
    assert cli.main(["analyze", src, "--differential", "--trials", "1"]) == cli.EXIT_VALIDATION
    assert "image dimensions must be even and at least 2x2, got 15x16" in capsys.readouterr().err
    assert reports == []


def test_cli_decrypt_of_a_missing_image_is_io_error(tmp_path, capsys):
    _, key = _gh401_envelope(tmp_path, "reftestmap")
    missing = str(tmp_path / "missing.pgm")
    capsys.readouterr()
    assert cli.main(["decrypt", missing, "--key", str(key)]) == cli.EXIT_IO
    assert missing in capsys.readouterr().err


def test_cli_sbox_entry_beyond_a_byte_names_the_file(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text(" ".join(str(v) for v in [10**30, *range(1, 256)]))
    assert cli.main(["sbox-eval", "--sbox", str(big)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: S-box file {str(big)!r}: S-box entries must be bytes in [0, 255]\n"


@pytest.mark.parametrize("token", ["0_0", "+1", "\u0662"], ids=["underscore", "sign", "arabic-indic"])
def test_cli_sbox_entry_not_in_ascii_digits_names_the_file(tmp_path, capsys, token):
    # int() reads each of these as its index, so the table would be the identity
    tokens = [str(v) for v in range(256)]
    tokens[int(token)] = token
    table = tmp_path / "t.txt"
    table.write_text(" ".join(tokens), encoding="utf-8")
    assert cli.main(["sbox-eval", "--sbox", str(table)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: S-box file {str(table)!r}: S-box entry "
                                       f"{token!r} is not written in ASCII decimal digits\n")


@pytest.mark.parametrize("argv, message", [
    (["encrypt", "--scheme", "IEAHF", "--rounds", "256"],
     "IEAHF uses at least 1 round and at most 255, got 256"),
    (["bench", "--rounds", "2"], "GH401 uses at least 3 rounds and at most 255, got 2"),
    (["analyze", "--differential", "--scheme", "IEAHF", "--rounds", "256"],
     "IEAHF uses at least 1 round and at most 255, got 256"),
    (["decrypt", "--key", "{dir}/missing.key", "--sbox", "x.xyz"],
     "unsupported S-box file extension"),
    (["encrypt", "--rounds", "256"], "GH401 uses at least 3 rounds and at most 255, got 256"),
], ids=["encrypt-ieahf-rounds", "bench-gh401-rounds", "analyze-differential-ieahf-rounds",
        "decrypt-sbox", "encrypt-gh401-rounds"])
def test_cli_checks_its_settings_before_it_reads_a_file(tmp_path, capsys, monkeypatch, argv,
                                                        message):
    reads, reports = [], []

    def spy(path):
        reads.append(path)
        return read_pgm(path)

    monkeypatch.setattr(cli, "read_pgm", spy)
    monkeypatch.setattr(cli.analysis, "full_report", lambda *a, **k: reports.append(a))
    missing = str(tmp_path / "missing.pgm")
    code = cli.main([argv[0], missing, *(arg.format(dir=tmp_path) for arg in argv[1:])])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert message in err
    assert reads == [] and reports == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(2, 2), (4, 1)], ids=["2x2", "1x4"])
def test_cli_analyze_names_an_image_too_small_for_correlation(tmp_path, capsys, shape):
    src = write_image(tmp_path / "s.pgm", np.arange(4, dtype=np.uint8).reshape(shape))
    assert cli.main(["analyze", src]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    h, w = shape
    assert f"image is {w}x{h}; correlation needs at least 2 adjacent pixel pairs" in err
    assert "need at least 2 pairs" not in err


# ---------------------------------------------------------------- argv property

# One directory of small good and bad files per example; "@name" in a drawn argv names one.
_PATHS = ("good.pgm", "odd.pgm", "truncated.pgm", "text.pgm", "good.key", "good.ss",
          "corrupt.ss", "good.txt", "bad.txt", "good.bin", "folder", "missing")


@pytest.fixture(scope="module")
def argv_files():
    img = np.random.default_rng(5).integers(0, 256, size=(8, 8)).astype(np.uint8)
    params = chaos.default_params(cipher.DEFAULT_SYSTEM)
    _, env = cipher.encrypt_gh401(img, params, 3, bundled_sbox("aes"))
    _, side = cipher.encrypt_ieahf(img, params, 2)
    ss = bytearray(side.to_bytes())
    ss[-1] ^= 1  # the last round's checksum
    return {"good.pgm": b"P5\n8 8\n255\n" + img.tobytes(),
            "odd.pgm": b"P5\n7 8\n255\n" + bytes(56),
            "truncated.pgm": b"P5\n8 8\n255\n" + bytes(10),
            "text.pgm": b"not an image\n",
            "good.key": env.to_bytes(),
            "good.ss": side.to_bytes(),
            "corrupt.ss": bytes(ss),
            "good.txt": " ".join(map(str, bundled_sbox("aes").table)).encode(),
            "bad.txt": b"1 2 x",
            "good.bin": bytes(range(256))}


def _argvs():
    def pick(good, bad):  # about half the draws from each pool
        return st.sampled_from(good) | st.sampled_from(bad)

    def path(*good):
        return pick(good or _PATHS, _PATHS).map(lambda name: "@" + name)

    def flag(name, values):
        return st.tuples(st.just(name), values)

    image, out = path("good.pgm"), path("missing")
    trials = flag("--trials", st.sampled_from(["1", "2"]))
    sbox = flag("--sbox", pick(["aes", "identity", "@good.txt", "@good.bin"], ["x", "@bad.txt"])
                | path())
    common = [flag("--scheme", pick(["IEAHF", "GH401"], ["x"])),
              flag("--system", pick(["reftestmap", "hosny6d"], ["x"])),
              flag("--rounds", pick(["1", "3", "255"], ["0", "256", "x"])),
              sbox,
              flag("--seed", pick(["0", "1"], ["-1", "x"]))]
    pairs = flag("--pairs", pick(["2", "100"], ["1", "x"]))
    key, side = flag("--key", path("good.key")), flag("--ss", path("good.ss", "corrupt.ss"))
    report = flag("--report", out)
    # (required, optional) flags; a run that would default to 100 differential or
    # timing trials always gets --trials
    commands = {
        "encrypt": ([], common + [flag("--out", out), flag("--key", out), flag("--ss", out)]),
        "decrypt": ([key | side], [sbox, flag("--out", out), key, side]),
        "analyze": ([], common + [pairs, trials, report, flag("--plain", image),
                                  key, trials.map(lambda t: ("--differential", *t))]),
        "compare": ([trials], common[1:] + [pairs, report]),
        "sbox-eval": ([sbox], [report]),
        "bench": ([trials], common + [report]),
    }

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(commands)))
        required, optional = commands[command]
        tokens = [command] if command == "sbox-eval" else [command, draw(image)]
        for group in required + draw(st.lists(st.sampled_from(optional), max_size=4, unique=True)):
            tokens.extend(draw(group))
        return tokens

    return argv()


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(argv=_argvs())
def test_cli_argv_exits_only_with_documented_codes(argv_files, argv):
    # every run returns an exit code of the module docstring; only argparse raises
    with tempfile.TemporaryDirectory() as directory:
        for name, data in argv_files.items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)
        os.mkdir(os.path.join(directory, "folder"))
        args = [os.path.join(directory, t[1:]) if t.startswith("@") else t for t in argv]
        try:
            assert cli.main(args) in (0, 2, 3, 4)
        except SystemExit as exc:
            assert exc.code in (0, 2)
