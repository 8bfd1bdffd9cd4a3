"""Why the baseline cipher fails on uniform images.

The IEAHF pipeline is permute-then-diffuse.  A permutation cannot change
a constant image, and the Q-matrix diffusion is linear mod 256, so the
all-zero image is a perfect fixed point and the all-white image collapses
to a two-valued pattern in round one.  This script reproduces both
failures and tracks how slowly the statistics recover across rounds.
"""

import numpy as np

from gh401 import analysis, chaos, cipher

params = chaos.SystemParams(3.99, 3.99, 3.99, 3.99, 3.99, 3.99)
black = np.zeros((256, 256), dtype=np.uint8)
white = np.full((256, 256), 255, dtype=np.uint8)

print("=== black image: a perfect fixed point ===")
for n in (1, 2, 5):
    c, _ = cipher.encrypt_ieahf(black, params, n)
    print(f"rounds={n}: ciphertext identical to plaintext: {np.array_equal(c, black)}")

print()
print("=== white image: chi-square / entropy per round ===")
print(f"{'rounds':>6} {'chi2':>14} {'entropy':>10} {'distinct':>9}")
chi2 = analysis.chi_square(white)
print(f"{'plain':>6} {chi2:14.1f} {analysis.entropy(white):10.4f} {1:9d}")
for n in range(1, 6):
    c, _ = cipher.encrypt_ieahf(white, params, n)
    chi2 = analysis.chi_square(c)
    ent = analysis.entropy(c)
    distinct = np.unique(c).size
    print(f"{n:>6} {chi2:14.1f} {ent:10.4f} {distinct:9d}")
print(f"(uniformity requires chi2 < {analysis.CHI2_CRITICAL_255_001})")

print()
print("=== white image, round 1: the two-valued ciphertext ===")
c1, _ = cipher.encrypt_ieahf(white, params, 1)
values, counts = np.unique(c1, return_counts=True)
print(f"values {values.tolist()} with counts {counts.tolist()}")
print("each 2x2 block of 255s maps to [[112, 167], [112, 167]] under the Q-matrix")

print()
print("=== gray 128: a failure no number of rounds repairs ===")
# {0, 128} is a subgroup of Z_256 closed under the linear diffusion, and
# the permutation only rearranges pixels, so the ciphertext can never
# hold more than two values.
gray = np.full((256, 256), 128, dtype=np.uint8)
for n in (1, 5, 20):
    c, _ = cipher.encrypt_ieahf(gray, params, n)
    print(f"rounds={n:>2}: distinct values {np.unique(c).size}, "
          f"entropy {analysis.entropy(c):.6f}")

print()
print("=== single-pixel sensitivity (differential) ===")
for n in (1, 2):
    enc = lambda im: cipher.encrypt_ieahf(im, params, n)[0]
    res = analysis.differential_test(enc, white, enc(white), trials=10, seed=0)
    print(f"rounds={n}: mean NPCR {res.mean_npcr:.4f}%  mean UACI {res.mean_uaci:.4f}%"
          f"   (a strong cipher scores NPCR ~99.61%)")
