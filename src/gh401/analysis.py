"""Security metrics for ciphertext images.

Histogram, Pearson chi-square uniformity statistic, Shannon entropy,
NPCR/UACI differential metrics, adjacent-pixel correlation, the seeded
differential-attack harness, and the reports.  A report is an ordered
list of ``(key, value)`` pairs whose values are already in text form;
:func:`key_value_text` prints one as ``key=value`` lines.  All sampling
is driven by an explicit 64-bit seed recorded alongside the results, so
any reported number can be recomputed bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gh401.image_io import check_image

# 0.99 quantile of the chi-square distribution with 255 degrees of
# freedom; a uniform histogram passes when the statistic stays below it.
CHI2_CRITICAL_255_001 = 310.457

DEFAULT_CORRELATION_PAIRS = 40000

_DIRECTIONS = ("H", "V", "D")


class ZeroVarianceError(ValueError):
    """Correlation is undefined when a sampled margin is constant."""


def histogram(img: np.ndarray) -> np.ndarray:
    """Exact count of each gray level, 256 bins."""
    return np.bincount(check_image(img).reshape(-1), minlength=256)


def chi_square(img: np.ndarray) -> float:
    """Pearson statistic against a flat histogram: sum (v-e)^2 / e."""
    counts = histogram(img).astype(np.float64)
    expected = counts.sum() / 256.0
    return float(((counts - expected) ** 2 / expected).sum())


def entropy(img: np.ndarray) -> float:
    """Shannon entropy in bits over the 256-level empirical distribution."""
    counts = histogram(img).astype(np.float64)
    p = counts / counts.sum()
    nz = p > 0
    # + 0.0 normalizes the -0.0 a constant image would otherwise produce
    return float(-(p[nz] * np.log2(p[nz])).sum() + 0.0)


def npcr_uaci(c1: np.ndarray, c2: np.ndarray):
    """Pixel change rate and mean absolute intensity change, as percentages."""
    c1 = check_image(c1)
    c2 = check_image(c2)
    if c1.shape != c2.shape:
        raise ValueError(f"image shapes differ: {c1.shape} vs {c2.shape}")
    npcr = 100.0 * np.count_nonzero(c1 != c2) / c1.size
    uaci = 100.0 * np.abs(c1.astype(np.int16) - c2.astype(np.int16)).sum() / (255.0 * c1.size)
    return float(npcr), float(uaci)


def _adjacent_arrays(img: np.ndarray, direction: str):
    if direction == "H":
        return img[:, :-1], img[:, 1:]
    if direction == "V":
        return img[:-1, :], img[1:, :]
    if direction == "D":
        return img[:-1, :-1], img[1:, 1:]
    raise ValueError(f"unknown direction {direction!r} (use H, V, or D)")


def correlation(img: np.ndarray, direction: str,
                pairs: int = DEFAULT_CORRELATION_PAIRS, seed: int = 0) -> float:
    """Correlation coefficient of sampled adjacent pixel pairs.

    ``pairs`` distinct adjacent positions are drawn uniformly without
    replacement by a generator seeded with ``seed``.  E, D, and cov use
    the population (1/N) normalization.  A constant margin makes the
    coefficient undefined and raises :class:`ZeroVarianceError`.
    """
    img = check_image(img)
    if pairs < 2:
        raise ValueError("need at least 2 pairs")
    xs, ys = _adjacent_arrays(img, direction)
    available = xs.size
    if pairs > available:
        raise ValueError(f"requested {pairs} pairs but only {available} adjacent "
                         f"positions exist in direction {direction}")
    rng = np.random.default_rng(seed)
    sel = rng.choice(available, size=pairs, replace=False)
    x = xs.reshape(-1)[sel].astype(np.float64)
    y = ys.reshape(-1)[sel].astype(np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = (dx * dx).mean()
    var_y = (dy * dy).mean()
    if var_x == 0.0 or var_y == 0.0:
        raise ZeroVarianceError(
            f"correlation undefined in direction {direction}: sampled values are constant")
    cov = (dx * dy).mean()
    return float(cov / np.sqrt(var_x * var_y))


@dataclass
class DifferentialResult:
    """Averaged NPCR/UACI over single-pixel-change trials."""

    mean_npcr: float
    mean_uaci: float
    best_npcr: float
    best_uaci: float
    best_trial: int


def differential_test(encrypt_fn, img: np.ndarray, base_cipher: np.ndarray,
                      trials: int, seed: int) -> DifferentialResult:
    """Single-pixel differential harness.

    ``base_cipher`` must be ``encrypt_fn(img)``; callers usually hold it
    already, so it is not encrypted twice.  Per trial t, a pixel chosen
    by the generator seeded with seed+t is incremented by 1 mod 256, the
    changed image is encrypted with the same parameters (``encrypt_fn``
    must be a deterministic image -> ciphertext closure), and NPCR/UACI
    against ``base_cipher`` are accumulated.  Returns the means plus the
    trial with the highest NPCR.
    """
    if trials < 1:
        raise ValueError("need at least 1 trial")
    img = check_image(img)
    npcr_sum = uaci_sum = 0.0
    best = (-1.0, 0.0, -1)
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        idx = int(rng.integers(0, img.size))
        changed = img.copy()
        flat = changed.reshape(-1)
        flat[idx] = (int(flat[idx]) + 1) % 256
        other = encrypt_fn(changed)
        npcr, uaci = npcr_uaci(base_cipher, other)
        npcr_sum += npcr
        uaci_sum += uaci
        if npcr > best[0]:
            best = (npcr, uaci, t)
    return DifferentialResult(npcr_sum / trials, uaci_sum / trials, *best)


def differential_pairs(result: DifferentialResult) -> list[tuple[str, object]]:
    """The harness's report as ordered ``(key, value)`` pairs, percentages with 6 decimals."""
    return [("mean_npcr", f"{result.mean_npcr:.6f}"), ("mean_uaci", f"{result.mean_uaci:.6f}"),
            ("best_npcr", f"{result.best_npcr:.6f}"), ("best_uaci", f"{result.best_uaci:.6f}"),
            ("best_trial", result.best_trial)]


def full_report(cipher: np.ndarray, plain: np.ndarray | None = None,
                pairs: int = DEFAULT_CORRELATION_PAIRS, seed: int = 0) -> list[tuple[str, object]]:
    """Every metric with one seed, as ordered, unprefixed ``(key, value)`` pairs.

    Values are text: percentages with 6 decimals, chi-square with 3,
    correlations with 4 or ``undefined (zero variance)``, the histogram as
    comma-joined counts.  NPCR/UACI against ``plain`` precede the histogram.
    """
    cipher = check_image(cipher)
    h, w = cipher.shape
    available = min((w - 1) * h, (h - 1) * w, (h - 1) * (w - 1))
    if available < 2:
        raise ValueError(f"image is {w}x{h}; correlation needs at least 2 adjacent "
                         "pixel pairs in each direction")
    pairs = min(pairs, available)
    chi2 = chi_square(cipher)
    report = [("width", w), ("height", h), ("entropy", f"{entropy(cipher):.6f}"),
              ("chi_square", f"{chi2:.3f}"),
              ("chi_square_pass", "true" if chi2 < CHI2_CRITICAL_255_001 else "false"),
              ("chi_square_critical", CHI2_CRITICAL_255_001)]
    for direction in _DIRECTIONS:
        try:
            value = f"{correlation(cipher, direction, pairs=pairs, seed=seed):.4f}"
        except ZeroVarianceError:
            value = "undefined (zero variance)"
        report.append((f"correlation.{direction.lower()}", value))
    report += [("correlation.pairs", pairs), ("seed", seed)]
    if plain is not None:
        npcr, uaci = npcr_uaci(cipher, plain)
        report += [("npcr", f"{npcr:.6f}"), ("uaci", f"{uaci:.6f}")]
    report.append(("histogram", ",".join(map(str, histogram(cipher).tolist()))))
    return report


def key_value_text(pairs, prefix: str = "") -> str:
    """One ``prefix+key=value`` line per (key, value) pair, in order: every report's format."""
    return "".join(f"{prefix}{key}={value}\n" for key, value in pairs)
