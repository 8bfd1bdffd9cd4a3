"""The traced benchmark's per-layer hooks still see every layer call.

``perfbench/spans.py`` wraps library functions at the attribute their
caller looks them up by, mostly ``gh401.cipher``'s module globals.  A
pipeline that stopped calling through those names would run untraced and
zero the traced benchmark's per-layer figures without failing anything
else, so this test runs both schemes under the real tracer and pins the
span counts.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import gh401
import gh401.cli  # noqa: F401  (install_layers wraps gh401.cli, which the package does not import)
from gh401 import cipher

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_call_is_traced():
    spans = _load_spans()
    tracer = spans.Tracer()
    img = np.random.default_rng(16).integers(0, 256, size=(16, 16)).astype(np.uint8)
    sbox = gh401.bundled_sbox("aes")
    spans.install_layers(tracer, gh401)
    try:
        tracer.open_op(0)
        c, env = gh401.encrypt_gh401(img, gh401.draw_params("hosny6d", 3), 4, sbox,
                                     system="hosny6d")
        assert np.array_equal(gh401.decrypt_gh401(c, env, sbox), img)
        c, side = cipher.encrypt(cipher.SCHEME_IEAHF, img, gh401.default_params("reftestmap"), 2)
        assert np.array_equal(cipher.decrypt(c, side), img)
        tracer.close_op()
    finally:
        tracer.restore()
    counts = Counter(s.name for s in tracer.spans if s.name != spans.ROOT)
    assert counts == {
        "chaos.build_sort_sequence": 10,
        "chaos.argsort_ascending": 10,
        "permute.forward": 6,
        "permute.invert_permute": 6,
        "diffuse.forward": 6,
        "diffuse.inverse_diffuse": 6,
        # one call per round's orbit slice: 4 + 4 for GH401, 2 for IEAHF
        "chaos.generate_orbit": 10,
        "chaos.derive_initial_conditions": 3,
        "chaos.derive_whitening_key": 1,
        "cipher.encrypt": 2,
        "cipher.decrypt": 2,
    }
