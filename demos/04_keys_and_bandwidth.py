"""Key envelopes, key-space arithmetic, and secure-channel bandwidth.

The baseline transmits every per-round permutation table (4 bytes per
pixel per round) over the secure channel; the hardened scheme transmits
one small text envelope.  This script prints a real envelope, the
key-space sizes, and the bandwidth ratio as rounds grow.
"""

import numpy as np

from gh401 import chaos, cipher
from gh401.sbox import bundled_sbox

rng = np.random.default_rng(7)
img = rng.integers(0, 256, size=(256, 256)).astype(np.uint8)
params = chaos.draw_params("hosny6d", seed=42)
sbox = bundled_sbox("aes")

print("=== a GH401 key envelope (everything the receiver needs) ===")
cipher_img, env = cipher.encrypt_gh401(img, params, 4, sbox, system="hosny6d")
text = env.to_text()
print(text, end="")
print(f"--- {len(text)} bytes; parses back bit-exactly: "
      f"{cipher.KeyEnvelope.from_text(text).to_text() == text}")

print()
print("=== the baseline's side-channel payload for the same image ===")
c2, side = cipher.encrypt_ieahf(img, params, 2, system="hosny6d")
blob = side.to_bytes()
print(f"2 rounds of 256x256 permutations: {len(blob):,} bytes")
for n in (2, 4, 8, 20):
    ratio = cipher.bandwidth_ratio(256, 256, n)
    print(f"  rounds={n:>2}: secure-channel cost {ratio:,.0f}x the envelope")

print()
print("=== key space ===")
print(f"baseline (12 reals at 16 decimal digits): {cipher.ieahf_key_space_bits():.2f} bits")
for n in (3, 4):
    print(f"hardened, n={n}: {cipher.key_space_bits(n):.2f} bits "
          "(reals + 128-bit whitening key + round count)")
