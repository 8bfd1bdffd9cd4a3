"""The hardened GH401 pipeline on the same worst-case inputs.

Three changes break the uniform-image fixed points: the round number is
added to every permuted byte, the Q-matrix diffusion increments each
block before and after the multiply, and a strong S-box plus a 128-bit
whitening key inject nonlinearity and fresh key material every round.
Decryption needs only the ~266-byte key envelope instead of megabytes of
transmitted permutation tables.
"""

import numpy as np

from gh401 import analysis, chaos, cipher
from gh401.sbox import bundled_sbox

params = chaos.SystemParams(3.99, 3.99, 3.99, 3.99, 3.99, 3.99)
sbox = bundled_sbox("aes")
black = np.zeros((256, 256), dtype=np.uint8)
white = np.full((256, 256), 255, dtype=np.uint8)

print("=== uniform images, 4 rounds ===")
print(f"{'input':>6} {'chi2':>9} {'entropy':>10} {'corr H':>9} {'corr V':>9} {'corr D':>9}")
for name, img in (("black", black), ("white", white)):
    c, env = cipher.encrypt_gh401(img, params, 4, sbox)
    corr = [analysis.correlation(c, d, pairs=40000, seed=0) for d in "HVD"]
    print(f"{name:>6} {analysis.chi_square(c):9.2f} {analysis.entropy(c):10.6f} "
          f"{corr[0]:9.4f} {corr[1]:9.4f} {corr[2]:9.4f}")
    back = cipher.decrypt_gh401(c, env, sbox)
    assert np.array_equal(back, img)
print(f"(both pass chi2 < {analysis.CHI2_CRITICAL_255_001}; ideal entropy is 8)")

print()
print("=== single-pixel sensitivity, 4 rounds ===")
enc = lambda im: cipher.encrypt_gh401(im, params, 4, sbox)[0]
res = analysis.differential_test(enc, white, enc(white), trials=20, seed=0)
print(f"white: mean NPCR {res.mean_npcr:.4f}%  mean UACI {res.mean_uaci:.4f}%")
print("(pass thresholds for 256x256: NPCR >= 99.5693, UACI in [33.2824, 33.6447])")

print()
print("=== key sensitivity ===")
rng = np.random.default_rng(1)
img = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
c, env = cipher.encrypt_gh401(img, params, 4, sbox)
bumped = cipher.KeyEnvelope(
    system=env.system,
    ic=chaos.InitialConditions(env.ic.x1 + 1e-10, env.ic.x2, env.ic.x3,
                               env.ic.x4, env.ic.x5, env.ic.x6),
    params=env.params, n=env.n, whitening=env.whitening, sbox_name=env.sbox_name)
wrong = cipher.decrypt_gh401(c, bumped, sbox)
print(f"x1 perturbed by 1e-10: {100 * (wrong != img).mean():.2f}% of pixels wrong")
