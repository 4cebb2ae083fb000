"""End-to-end sessions for the two cryptosystems.

Stage 1 moves a secret primitive root omega under plain RSA; stage 2
encrypts fixed-length symbol blocks, either as DFT spectra (RSA-DFT) or
as group-ring coefficients synthesized from a symbol-to-unit table
(RSA-HGR).  The RSA transport value c rides inside the ciphertext, so
one file captures a whole session.

Both schemes are linear in the plaintext once omega is fixed; they are
teaching ciphers, not hardened cryptography.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import chain
from pathlib import Path

from ._files import DECIMAL, ENTRIES, decimal_rows, read_fields
from .analysis import HalidonRing, is_primitive_root_of_unity
from .arith import Residue, _Value, euler_phi, factorize
from .codec import (
    UnitAssignment,
    codes_to_text,
    pad_and_block,
    text_to_codes,
    unapply_table,
)
from .dft import _transform
from .errors import (
    CodeOutOfRange,
    HalidonError,
    IndexNotSupported,
    InvalidOmega,
    LengthMismatch,
    MalformedFile,
    ModulusMismatch,
    SearchExhausted,
    UnknownUnit,
)
from .rsa import RsaPrivateKey, RsaPublicKey, rsa_decrypt, rsa_encrypt

DEFAULT_OMEGA_ATTEMPTS = 10**6


class _Ciphertext(_Value):
    """RSA-transported omega plus one transformed block per m symbols."""

    n: int
    m: int
    c: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # the transform kernel checks no block, so the ciphertext does
        for index, block in enumerate(self.blocks):
            if len(block) != self.m:
                raise LengthMismatch(
                    f"block {index} has length {len(block)} against "
                    f"block length {self.m}"
                )


class CiphertextDFT(_Ciphertext):
    """RSA-transported omega plus one spectrum per message block."""

    _header = "RSA-DFT v1"


class CiphertextHGR(_Ciphertext):
    """RSA-transported omega plus group-ring coefficients per block."""

    _header = "RSA-HGR v1"


def choose_omega(
    pub: RsaPublicKey,
    seed: int | None = None,
    attempts: int = DEFAULT_OMEGA_ATTEMPTS,
) -> tuple[Residue, int]:
    """Pick a secret primitive m-th root by rejection sampling.

    Only the public key is used: candidates are drawn uniformly from Z_n
    and checked with the root criterion, which needs no factorization.
    Returns (omega, c) with c = omega^e mod n.  SearchExhausted after
    `attempts` failed draws: a draw is a root with probability
    phi(m)^k/n for n with k distinct primes, too small at RSA sizes.
    """
    if pub.m < 2:
        raise IndexNotSupported(
            f"block length m = {pub.m}; the exchange needs m >= 2"
        )
    rng = random.Random(seed)
    for _ in range(attempts):
        candidate = rng.randrange(2, pub.n)
        if is_primitive_root_of_unity(pub.n, pub.m, candidate):
            omega = Residue(candidate, pub.n)
            return omega, rsa_encrypt(pub, omega).value
    raise SearchExhausted(
        f"no primitive {pub.m}th root found in {attempts} draws from "
        f"Z_{pub.n}; a uniform draw is one with probability phi(m)^k/n = "
        f"{euler_phi(factorize(pub.m))}^k/{pub.n}, k being the number of "
        "distinct prime factors of n, so at RSA sizes the roots are too sparse to "
        "sample from the public key alone"
    )


def recover_omega(priv: RsaPrivateKey, c: int) -> Residue:
    """Decrypt c and insist the result really is a primitive m-th root."""
    omega = rsa_decrypt(priv, c)
    if not is_primitive_root_of_unity(priv.n, priv.m, omega.value):
        raise InvalidOmega(
            f"decrypted value {omega.value} is not a primitive "
            f"{priv.m}th root of unity mod {priv.n}"
        )
    return omega


def _same_modulus(what: str, n: int, key_n: int) -> None:
    if n != key_n:
        raise ModulusMismatch(f"{what} mod {n} against key mod {key_n}")


def _encrypt(cls, pub, omega, text, slot_of, scaled) -> _Ciphertext:
    """Pad the codes to blocks of m, map each code to its slot (itself
    without `slot_of`), transform at omega (times m^-1 if `scaled`), and
    RSA-wrap omega."""
    ring = HalidonRing.create(pub.n, pub.m, omega)
    blocks = pad_and_block(text_to_codes(text), pub.m)
    if slot_of is not None:
        blocks = [tuple(map(slot_of, block)) for block in blocks]
    out = _transform(ring, blocks, inverse=False, scaled=scaled)
    return cls(pub.n, pub.m, rsa_encrypt(pub, ring.omega).value, tuple(out))


def _decrypt(cls, priv, ct, decode, scaled, keep_padding, table=None) -> str:
    """Check `ct` against the scheme, key and table, recover omega, invert
    every block (times m^-1 unless encryption `scaled`), decode the slots
    naming a bad one by block and position, and strip pad blanks."""
    if ct.__class__ is not cls:
        raise HalidonError(
            f"scheme mismatch: this is an {ct._header} ciphertext, "
            f"not an {cls._header} ciphertext"
        )
    _same_modulus("ciphertext", ct.n, priv.n)
    if ct.m != priv.m:
        raise LengthMismatch(
            f"ciphertext block length {ct.m} against key block length {priv.m}"
        )
    if table is not None:
        _same_modulus("table", table.modulus, priv.n)
    # recover_omega has certified the root, so the ring skips the check
    ring = HalidonRing(ct.n, ct.m, recover_omega(priv, ct.c).value)
    slots = _transform(ring, ct.blocks, inverse=True, scaled=not scaled)
    try:
        text = decode(list(chain.from_iterable(slots)))
    except CodeOutOfRange as exc:
        block, position = divmod(exc.position, ct.m)
        raise CodeOutOfRange(exc.code, position, block) from exc
    except UnknownUnit as exc:
        block, position = divmod(exc.position, ct.m)
        detail = f"block {block}; wrong table or wrong root?"
        raise UnknownUnit(exc.value, position, detail) from exc
    return text if keep_padding else text.rstrip(" ")


def dft_encrypt_message(
    pub: RsaPublicKey, omega: int | Residue, text: str
) -> CiphertextDFT:
    """Encode, pad to blocks of m, and transform each block at omega."""
    return _encrypt(CiphertextDFT, pub, omega, text, None, scaled=False)


def dft_decrypt_message(
    priv: RsaPrivateKey, ct: CiphertextDFT, keep_padding: bool = False
) -> str:
    """Recover omega, invert each block, decode, strip pad blanks."""
    return _decrypt(CiphertextDFT, priv, ct, codes_to_text, False, keep_padding)


def hgr_encrypt_message(
    pub: RsaPublicKey,
    omega: int | Residue,
    table: UnitAssignment,
    text: str,
) -> CiphertextHGR:
    """Translate symbols to units, then synthesize coefficients per block."""
    _same_modulus("table", table.modulus, pub.n)
    return _encrypt(
        CiphertextHGR, pub, omega, text, table.values.__getitem__, scaled=True
    )


def hgr_decrypt_message(
    priv: RsaPrivateKey,
    table: UnitAssignment,
    ct: CiphertextHGR,
    keep_padding: bool = False,
) -> str:
    """Recover omega, extract each block's spectrum, map units to symbols."""
    decode = partial(unapply_table, table=table)
    return _decrypt(CiphertextHGR, priv, ct, decode, True, keep_padding, table)


_CLASS_OF_HEADER = {
    cls._header: cls for cls in (CiphertextDFT, CiphertextHGR)
}
_FIELDS = [(name, DECIMAL) for name in ("n", "m", "c")] + [("block", ENTRIES)]


def render_ciphertext(ct: CiphertextDFT | CiphertextHGR) -> str:
    head = f"{ct._header}\nn={ct.n}\nm={ct.m}\nc={ct.c}\n"
    return head + decimal_rows("block=", ct.blocks)


def write_ciphertext(ct: CiphertextDFT | CiphertextHGR, path) -> None:
    Path(path).write_text(
        render_ciphertext(ct), encoding="utf-8", newline="\n"
    )


def read_ciphertext(path) -> CiphertextDFT | CiphertextHGR:
    """Strict parse of a session file; MalformedFile carries a line number."""
    header, values = read_fields(
        path, tuple(_CLASS_OF_HEADER), _FIELDS, repeat=True
    )
    n, m, c = map(int, values[:3])
    blocks = [tuple(map(int, row.split(" "))) for row in values[3:]]
    if c >= n:
        raise MalformedFile(path, 4, f"c = {c} is not a residue mod {n}")
    # one pass in C checks every row; only a file that fails it is
    # walked row by row, to name the first bad line
    if set(map(len, blocks)) != {m} or max(chain.from_iterable(blocks)) >= n:
        for line, entries in enumerate(blocks, start=5):
            if len(entries) != m:
                raise MalformedFile(
                    path, line, f"block has {len(entries)} entries, expected {m}"
                )
            if max(entries) >= n:
                raise MalformedFile(path, line, f"block entry outside Z_{n}")
    return _CLASS_OF_HEADER[header](n, m, c, tuple(blocks))
