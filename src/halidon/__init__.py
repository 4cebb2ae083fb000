"""Halidon rings over Z_n.

A halidon ring is Z_n equipped with an invertible index m and a
primitive m-th root of unity omega (omega^m = 1 with all the power sums
over omega^r vanishing for r not divisible by m).  On top of that
structure this package provides the number-theoretic discrete Fourier
transform, unit arithmetic in the group ring Z_n[C_m], and two toy
cryptosystems (RSA-DFT and RSA-HGR) that transport a secret omega under
RSA and then encrypt symbol blocks linearly.
"""

from .arith import (
    Factorization,
    Residue,
    crt_combine,
    divisors,
    euler_phi,
    factorize,
    is_probable_prime,
)
from .analysis import (
    HalidonRing,
    RootSearchReport,
    enumerate_primitive_roots,
    find_primitive_root,
    halidon_function_psi,
    is_primitive_root_of_unity,
)
from .codec import (
    ALPHABET,
    BLANK_CODE,
    UnitAssignment,
    codes_to_text,
    gen_unit_table,
    pad_and_block,
    read_table,
    text_to_codes,
    unapply_table,
    write_table,
)
from .dft import (
    ResidueVector,
    convolve,
    cyclic_convolve,
    dft_forward,
    dft_inverse,
    pointwise_mul,
)
from .group_ring import (
    GroupRingElement,
    LambdaVector,
    coeffs_of_lambda,
    invert_unit,
    is_unit,
    lambda_of,
    multiply,
)
from .protocol import (
    CiphertextDFT,
    CiphertextHGR,
    choose_omega,
    dft_decrypt_message,
    dft_encrypt_message,
    hgr_decrypt_message,
    hgr_encrypt_message,
    read_ciphertext,
    recover_omega,
    write_ciphertext,
)
from .rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    keygen,
    read_private_key,
    read_public_key,
    rsa_decrypt,
    rsa_encrypt,
    write_private_key,
    write_public_key,
)
from . import errors

__version__ = "0.1.0"
