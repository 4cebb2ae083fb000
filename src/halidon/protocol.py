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
from operator import itemgetter
from pathlib import Path

from . import _files
from ._files import (
    DECIMAL,
    decimal_rows,
    entry_rows,
    fit_digits,
    read_fields,
    walk_rows,
)
from .analysis import (
    HalidonRing,
    _index_primes,
    _is_root,
    _phi,
    is_primitive_root_of_unity,
)
from .arith import Residue, _Value, is_probable_prime
from .codec import (
    ALPHABET,
    UnitAssignment,
    codes_to_text,
    pad_codes,
    text_to_codes,
    unapply_table,
)
from .dft import _transform
from .errors import (
    AlphabetTooLarge,
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

    @classmethod
    def _of_entries(cls, n: int, m: int, c: int, entries: list[int]):
        """The ciphertext of the checked flat `entries`: the sessions carry
        them alone, and `blocks` is cut from them on first read."""
        self = cls._certified(n, m, c)
        object.__setattr__(self, "_entries", entries)
        return self

    def __getattr__(self, name):  # only for an attribute not yet set
        if name != "blocks":
            return object.__getattribute__(self, name)  # the usual error
        blocks = tuple(zip(*[iter(self._entries)] * self.m))
        object.__setattr__(self, "blocks", blocks)
        return blocks

    def __post_init__(self):
        # what the constructor accepts renders to a file that reads back:
        # at least one block of m >= 1 entries, and c a residue
        if self.m < 1:
            raise LengthMismatch(
                f"block length m = {self.m}: a ciphertext needs m >= 1"
            )
        if not self.blocks:
            raise LengthMismatch("no blocks: a ciphertext needs at least one")
        if not 0 <= self.c < self.n:
            raise ValueError(f"c = {self.c} is not a residue mod {self.n}")
        # the transform kernel checks no block, so the ciphertext does, in
        # passes in C, and looks for a bad one only once one is there; its
        # entries must be residues, or a column word of the kernel could
        # carry into the next
        if set(map(len, self.blocks)) - {self.m}:
            lengths = list(map(len, self.blocks))
            index = next(i for i, k in enumerate(lengths) if k != self.m)
            raise LengthMismatch(
                f"block {index} has length {lengths[index]} against "
                f"block length {self.m}"
            )
        flat = list(chain.from_iterable(self.blocks))
        if not (min(flat) >= 0 and max(flat) < self.n):
            index = next(i for i, v in enumerate(flat) if not 0 <= v < self.n)
            block, position = divmod(index, self.m)
            raise ValueError(
                f"block {block}: entry {flat[index]} at position {position} "
                f"is outside Z_{self.n}"
            )
        object.__setattr__(self, "_entries", flat)


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
    Returns (omega, c) with c = omega^e mod n.  A root's primes are all
    1 mod m, so n has k = 1 prime if it is prime, else at most k with
    (m+1)^k <= n, and a draw is a root with probability at most
    phi(m)^k/(n-2).  SearchExhausted before the first draw when
    `attempts` draws succeed with probability under 2^-10 by that bound,
    and after `attempts` failed draws.
    """
    m, n = pub.m, pub.n
    _require_exchange_index(m)
    primes = _index_primes(m)
    k, power, phi = 0, m + 1, _phi(m, primes)
    while power <= n:
        k, power = k + 1, power * (m + 1)
    why = "every prime of n exceeds m, so n has at most k = {} distinct primes"
    odds = attempts << 10  # draws times 2^10
    # the primality test runs only where k = 1 would refuse and k would not
    if odds * phi < n - 2 <= odds * phi**k and is_probable_prime(n):
        k, why = 1, "n is prime, so k = {}"
    if odds * phi**k < n - 2:
        raise SearchExhausted(
            f"no search for a primitive {m}th root in Z_{n}: "
            f"{why.format(k)}, and a draw is a root with probability at most "
            f"phi(m)^k/(n-2) = {phi}^{k}/{n - 2}; {attempts} draws would find "
            "one with probability under 2^-10"
        )
    rng = random.Random(seed)
    for _ in range(attempts):
        candidate = rng.randrange(2, n)
        if _is_root(n, m, primes, candidate):
            omega = Residue(candidate, n)
            return omega, rsa_encrypt(pub, omega).value
    raise SearchExhausted(
        f"no primitive {m}th root found in {attempts} draws from "
        f"Z_{n}; a uniform draw is one with probability phi(m)^k/n = "
        f"{phi}^k/{n}, k being the number of "
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


def _require_exchange_index(m: int) -> None:
    """IndexNotSupported for m < 2: the only 1st root of unity is 1, at
    which the transform is the identity, so its blocks would be the
    symbol codes themselves."""
    if m < 2:
        raise IndexNotSupported(
            f"block length m = {m}; the exchange needs m >= 2"
        )


def _same_modulus(what: str, n: int, key_n: int) -> None:
    if n != key_n:
        raise ModulusMismatch(f"{what} mod {n} against key mod {key_n}")


def _encrypt(cls, pub, omega, text, units, scaled) -> _Ciphertext:
    """RSA-wrap omega, refuse a message whose file could only be over
    the size cap, pad the codes to blocks of m, replace each code by its
    unit (keep it without `units`) and transform at omega (times m^-1 if
    `scaled`); IndexNotSupported first at m < 2."""
    _require_exchange_index(pub.m)
    ring = HalidonRing.create(pub.n, pub.m, omega)
    codes = text_to_codes(text)
    c = rsa_encrypt(pub, ring.omega).value
    # each line is `block=` and m entries of at least one digit, each
    # followed by a space or the LF: a bound on the file before any work,
    # the padding too (one block at m = 10^9 is 10^9 codes)
    blocks = max(1, -(-len(codes) // pub.m))
    head = _head(cls._header, pub.n, pub.m, c)
    least = len(head) + blocks * (2 * pub.m + 6)
    if least > _files.MAX_FILE_BYTES:
        raise HalidonError(
            f"ciphertext of {blocks} blocks of {pub.m} entries is at least "
            f"{least} bytes, over the size cap of {_files.MAX_FILE_BYTES} "
            "bytes that its reader accepts"
        )
    codes = pad_codes(codes, pub.m)
    top = len(ALPHABET) - 1  # a bound on every entry, which sizes slots
    if units is not None:
        # every unit in one lookup: at m >= 2 there are two codes or more,
        # so itemgetter gives a tuple
        codes, top = itemgetter(*codes)(units), max(units)
    out = _transform(ring, codes, inverse=False, scaled=scaled, top=top)
    # the kernel gives residues in blocks of m, so the checks are not rerun
    return cls._of_entries(pub.n, pub.m, c, out)


def _decrypt(cls, priv, ct, decode, scaled, keep_padding, table=None) -> str:
    """Check `ct` against the scheme, key and table, recover omega, invert
    every block (times m^-1 unless encryption `scaled`), decode the slots
    naming a bad one by block and position, and strip pad blanks;
    IndexNotSupported first at m < 2."""
    _require_exchange_index(priv.m)
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
    # the reader or the constructor has checked every entry is below n
    slots = _transform(ring, ct._entries, True, not scaled, top=ct.n - 1)
    try:
        text = decode(slots)
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
    """Encode, pad to blocks of m, and transform each block at omega.

    The codes 0..39 are the plaintext residues, so n must be at least 40
    (AlphabetTooLarge otherwise); below that two codes would collide.
    """
    if pub.n < len(ALPHABET):
        raise AlphabetTooLarge(
            f"n = {pub.n} < {len(ALPHABET)}; RSA-DFT needs all "
            f"{len(ALPHABET)} symbol codes 0..{len(ALPHABET) - 1} to be "
            f"distinct residues mod n"
        )
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
        CiphertextHGR, pub, omega, text, table.values, scaled=True
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
_FIELDS = [(name, DECIMAL) for name in ("n", "m", "c")]


def _head(header: str, n: int, m: int, c: int) -> str:
    """The session file's fixed lines, which the `block=` rows follow."""
    return f"{header}\nn={n}\nm={m}\nc={c}\n"


def render_ciphertext(ct: CiphertextDFT | CiphertextHGR) -> str:
    """The session file's text; HalidonError if read_ciphertext would
    refuse it, past the size cap _files.MAX_FILE_BYTES."""
    text = _head(ct._header, ct.n, ct.m, ct.c)
    text += decimal_rows("block=", ct._entries, ct.m)
    if len(text) > _files.MAX_FILE_BYTES:
        raise HalidonError(
            f"ciphertext of {len(text)} bytes is over the size cap of "
            f"{_files.MAX_FILE_BYTES} bytes that its reader accepts"
        )
    return text


def write_ciphertext(ct: CiphertextDFT | CiphertextHGR, path) -> None:
    Path(path).write_text(
        render_ciphertext(ct), encoding="utf-8", newline="\n"
    )


def read_ciphertext(path) -> CiphertextDFT | CiphertextHGR:
    """Strict parse of a session file; MalformedFile carries a line number.

    The `block=` rows are checked and read in one bulk pass over their
    bytes (_files.entry_rows), which raises nothing.  Only a file that
    fails it is walked line by line, the one path that raises, so a fault
    is named in the order of the walk: a row's syntax, then a decimal past
    int()'s digit limit, then c, then a row's length before its range.
    """
    header, (*fixed, rows) = read_fields(
        path, tuple(_CLASS_OF_HEADER), _FIELDS, rows=True
    )
    values = _read_blocks(fixed, rows) or _walk_blocks(path, fixed, rows)
    # every block has length m, so the constructor's check is not rerun
    return _CLASS_OF_HEADER[header]._of_entries(*values)


def _read_blocks(fixed: list, rows: bytes) -> tuple | None:
    """(n, m, c, entries) from the n, m and c texts and the `block=` lines
    `rows`, read in bulk; None, and nothing raised, at any fault."""
    try:
        n, m, c = map(int, fixed)
    except ValueError:  # a decimal past int()'s digit limit
        return None
    flat = entry_rows(rows, "block", m)
    if flat is None or c >= n or max(flat) >= n:
        return None
    return n, m, c, flat


def _walk_blocks(path, fixed: list, rows: bytes) -> tuple:
    """(n, m, c, entries) as _read_blocks gives them, line by line:
    MalformedFile at the first fault."""
    lines = walk_rows(path, rows, 5, "block")
    fit_digits(path, 2, fixed + lines)
    n, m, c = map(int, fixed)
    if c >= n:
        raise MalformedFile(path, 4, f"c = {c} is not a residue mod {n}")
    entries = []
    for line, row in enumerate(lines, start=5):
        block = list(map(int, row.split(" ")))
        if len(block) != m:
            raise MalformedFile(
                path, line, f"block has {len(block)} entries, expected {m}"
            )
        if max(block) >= n:
            raise MalformedFile(path, line, f"block entry outside Z_{n}")
        entries += block
    return n, m, c, entries
