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
from itertools import chain
from pathlib import Path

from .analysis import HalidonRing, is_primitive_root_of_unity
from .arith import Residue, _Value
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
    IndexNotSupported,
    InvalidOmega,
    MalformedFile,
    ModulusMismatch,
    SearchExhausted,
    UnknownUnit,
)
from .rsa import RsaPrivateKey, RsaPublicKey, rsa_decrypt, rsa_encrypt

DEFAULT_OMEGA_ATTEMPTS = 10**6


class CiphertextDFT(_Value):
    """RSA-transported omega plus one spectrum per message block."""

    n: int
    m: int
    c: int
    blocks: tuple[tuple[int, ...], ...]


class CiphertextHGR(_Value):
    """RSA-transported omega plus group-ring coefficients per block."""

    n: int
    m: int
    c: int
    blocks: tuple[tuple[int, ...], ...]


def choose_omega(
    pub: RsaPublicKey,
    seed: int | None = None,
    attempts: int = DEFAULT_OMEGA_ATTEMPTS,
) -> tuple[Residue, int]:
    """Pick a secret primitive m-th root by rejection sampling.

    Only the public key is used: candidates are drawn uniformly from Z_n
    and checked with the root criterion, which needs no factorization.
    Returns (omega, c) with c = omega^e mod n.  SearchExhausted after
    `attempts` failed draws.
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
        f"no primitive {pub.m}th root found in {attempts} draws from Z_{pub.n}"
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


def dft_encrypt_message(
    pub: RsaPublicKey, omega: int | Residue, text: str
) -> CiphertextDFT:
    """Encode, pad to blocks of m, and transform each block at omega."""
    ring = HalidonRing.create(pub.n, pub.m, omega)
    blocks = pad_and_block(text_to_codes(text), pub.m)
    spectra = _transform(ring, blocks, inverse=False, scaled=False)
    c = rsa_encrypt(pub, ring.omega).value
    return CiphertextDFT(n=pub.n, m=pub.m, c=c, blocks=tuple(spectra))


def dft_decrypt_message(
    priv: RsaPrivateKey, ct: CiphertextDFT, keep_padding: bool = False
) -> str:
    """Recover omega, invert each block, decode, strip pad blanks."""
    if ct.n != priv.n:
        raise ModulusMismatch(
            f"ciphertext mod {ct.n} against key mod {priv.n}"
        )
    ring = HalidonRing.create(ct.n, ct.m, recover_omega(priv, ct.c))
    blocks = _transform(ring, ct.blocks, inverse=True, scaled=True)
    try:
        text = codes_to_text(list(chain.from_iterable(blocks)))
    except CodeOutOfRange as exc:
        block, position = divmod(exc.position, ct.m)
        raise CodeOutOfRange(exc.code, position, block) from exc
    return text if keep_padding else text.rstrip(" ")


def hgr_encrypt_message(
    pub: RsaPublicKey,
    omega: int | Residue,
    table: UnitAssignment,
    text: str,
) -> CiphertextHGR:
    """Translate symbols to units, then synthesize coefficients per block."""
    if table.modulus != pub.n:
        raise ModulusMismatch(
            f"table mod {table.modulus} against key mod {pub.n}"
        )
    ring = HalidonRing.create(pub.n, pub.m, omega)
    unit_of = table.values.__getitem__
    units = [
        tuple(map(unit_of, block))
        for block in pad_and_block(text_to_codes(text), pub.m)
    ]
    coeff_blocks = _transform(ring, units, inverse=False, scaled=True)
    c = rsa_encrypt(pub, ring.omega).value
    return CiphertextHGR(n=pub.n, m=pub.m, c=c, blocks=tuple(coeff_blocks))


def hgr_decrypt_message(
    priv: RsaPrivateKey,
    table: UnitAssignment,
    ct: CiphertextHGR,
    keep_padding: bool = False,
) -> str:
    """Recover omega, extract each block's spectrum, map units to symbols."""
    if ct.n != priv.n:
        raise ModulusMismatch(
            f"ciphertext mod {ct.n} against key mod {priv.n}"
        )
    if table.modulus != priv.n:
        raise ModulusMismatch(
            f"table mod {table.modulus} against key mod {priv.n}"
        )
    ring = HalidonRing.create(ct.n, ct.m, recover_omega(priv, ct.c))
    spectra = _transform(ring, ct.blocks, inverse=True, scaled=False)
    try:
        text = unapply_table(list(chain.from_iterable(spectra)), table)
    except UnknownUnit as exc:
        block, position = divmod(exc.position, ct.m)
        raise UnknownUnit(
            exc.value, position, f"block {block}; wrong table or wrong root?"
        ) from exc
    return text if keep_padding else text.rstrip(" ")


_DFT_HEADER = "RSA-DFT v1"
_HGR_HEADER = "RSA-HGR v1"


def render_ciphertext(ct: CiphertextDFT | CiphertextHGR) -> str:
    header = _DFT_HEADER if isinstance(ct, CiphertextDFT) else _HGR_HEADER
    lines = [header, f"n={ct.n}", f"m={ct.m}", f"c={ct.c}"]
    lines += [
        "block=" + " ".join(map(str, block)) for block in ct.blocks
    ]
    return "\n".join(lines) + "\n"


def write_ciphertext(ct: CiphertextDFT | CiphertextHGR, path) -> None:
    Path(path).write_text(
        render_ciphertext(ct), encoding="utf-8", newline="\n"
    )


def read_ciphertext(path) -> CiphertextDFT | CiphertextHGR:
    """Strict parse of a session file; MalformedFile carries a line number."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise MalformedFile(path, 1, "empty file")
    if lines[0] == _DFT_HEADER:
        cls = CiphertextDFT
    elif lines[0] == _HGR_HEADER:
        cls = CiphertextHGR
    else:
        raise MalformedFile(
            path, 1, f"expected header {_DFT_HEADER!r} or {_HGR_HEADER!r}"
        )
    if len(lines) < 5:
        raise MalformedFile(path, len(lines), "missing block lines")
    values = {}
    for i, name in enumerate(("n", "m", "c"), start=2):
        line = lines[i - 1]
        prefix = f"{name}="
        raw = line[len(prefix):]
        if not (line.isascii() and line.startswith(prefix) and raw.isdigit()):
            raise MalformedFile(path, i, f"expected line {name}=<decimal>")
        values[name] = int(raw)
    n, m, c = values["n"], values["m"], values["c"]
    if c >= n:
        raise MalformedFile(path, 4, f"c = {c} is not a residue mod {n}")
    blocks = []
    for i, line in enumerate(lines[4:], start=5):
        if not line.startswith("block="):
            raise MalformedFile(path, i, "expected line block=<residues>")
        parts = line[len("block="):].split()
        if len(parts) != m:
            raise MalformedFile(
                path, i, f"block has {len(parts)} entries, expected {m}"
            )
        try:
            entries = tuple(map(int, parts))
        except ValueError:
            raise MalformedFile(path, i, "non-integer block entry") from None
        if entries and (min(entries) < 0 or max(entries) >= n):
            raise MalformedFile(path, i, f"block entry outside Z_{n}")
        blocks.append(entries)
    return cls(n=n, m=m, c=c, blocks=tuple(blocks))
