"""Chaos-based grayscale image encryption toolkit.

Implements the baseline IEAHF permutation-diffusion cipher together with
the hardened GH401 variant (round-offset permutation, incremented
Q-matrix diffusion, S-box stage, compact key envelope) and the security
metrics used to compare them.
"""

from types import ModuleType as _ModuleType

from gh401.chaos import (
    TRANSIENT_LENGTH,
    Hosny6D,
    InitialConditions,
    OrbitDivergenceError,
    ReferenceTestMap,
    SystemParams,
    argsort_ascending,
    build_sort_sequence,
    default_params,
    derive_initial_conditions,
    derive_whitening_key,
    draw_params,
    generate_orbit,
    get_system,
    list_systems,
)
from gh401.stages import (DIFFUSION_MATRIX, DIFFUSION_MATRIX_INV, diffuse, inverse_diffuse,
                          invert_permute, permute)
from gh401.sbox import SBox8, bundled_sbox, load_sbox, substitute, transparency_order
from gh401.cipher import (
    SCHEME_GH401,
    SCHEME_IEAHF,
    CryptoMismatchError,
    KeyEnvelope,
    SideChannelFile,
    bandwidth_ratio,
    decrypt_gh401,
    decrypt_ieahf,
    encrypt_gh401,
    encrypt_ieahf,
    ieahf_key_space_bits,
    key_space_bits,
)
from gh401.analysis import (
    CHI2_CRITICAL_255_001,
    DifferentialResult,
    ZeroVarianceError,
    chi_square,
    correlation,
    differential_test,
    entropy,
    full_report,
    histogram,
    npcr_uaci,
)
from gh401.image_io import read_pgm, write_pgm

__version__ = "0.1.0"

# every public name is written once, in the imports above
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
