"""Text encoding: the 40-symbol alphabet, block padding, unit tables.

Symbols are digits, A-Z, blank, colon, period, hyphen, numbered 0..39 in
that order.  Lowercase letters fold to uppercase; anything else is
rejected.  RSA-HGR replaces the numeric codes with an injective
assignment of symbols to units of Z_n.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from pathlib import Path
from typing import Sequence, Union

from ._files import DECIMAL, read_fields
from .analysis import HalidonRing
from .arith import _Value, euler_phi, factorize
from .errors import (
    AlphabetTooLarge,
    CodeOutOfRange,
    MalformedFile,
    ModulusMismatch,
    NotAUnit,
    UnknownUnit,
    UnsupportedSymbol,
)
from .group_ring import LambdaVector

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ :.-"
BLANK_CODE = 36

# Key names used in table files, in code order.
_KEY_NAMES = tuple(ALPHABET[:36]) + ("SPACE", "COLON", "PERIOD", "HYPHEN")


# Byte tables for bytes.translate, 255 marking a rejected byte: the code
# text_to_codes gives each ASCII character, and the symbol of each code.
_ASCII_CODES = bytes(
    ALPHABET.find(chr(b).upper()) % 256 for b in range(128)
).ljust(256, b"\xff")
_CODE_SYMBOLS = ALPHABET.encode("ascii").ljust(256, b"\xff")


def text_to_codes(text: str) -> tuple[int, ...]:
    """Map text to symbol codes; lowercase folds, anything else rejects."""
    if text.isascii():
        translated = text.encode("ascii").translate(_ASCII_CODES)
        if 255 not in translated:
            return tuple(translated)
    codes = []
    for pos, char in enumerate(text):
        folded = char.upper()
        idx = ALPHABET.find(folded)
        if idx < 0 or len(folded) != 1:
            raise UnsupportedSymbol(char, pos)
        codes.append(idx)
    return tuple(codes)


def codes_to_text(codes: Sequence[int]) -> str:
    """Inverse of text_to_codes; codes must lie in 0..39."""
    try:
        symbols = bytes(codes).translate(_CODE_SYMBOLS)
    except ValueError:  # a code outside 0..255
        symbols = b"\xff"
    if 255 in symbols:
        for pos, code in enumerate(codes):
            if not 0 <= code < len(ALPHABET):
                raise CodeOutOfRange(code, pos)
    return symbols.decode("ascii")


def pad_and_block(codes: Sequence[int], m: int) -> list[tuple[int, ...]]:
    """Split into length-m blocks, padding the tail with blanks.

    An empty message still produces one all-blank block.
    """
    if m < 1:
        raise ValueError(f"block length {m} must be >= 1")
    codes = tuple(codes)
    total = max(1, -(-len(codes) // m)) * m
    padded = codes + (BLANK_CODE,) * (total - len(codes))
    return [padded[i : i + m] for i in range(0, total, m)]


class UnitAssignment(_Value):
    """Map from the 40 symbols to units of Z_n, stored in code order."""

    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(ALPHABET):
            raise ValueError(
                f"table needs {len(ALPHABET)} values, got {len(self.values)}"
            )
        for sym, value in zip(ALPHABET, self.values):
            if not 0 <= value < self.modulus:
                raise ValueError(
                    f"table value {value} for {sym!r} is outside Z_{self.modulus}"
                )
            if math.gcd(value, self.modulus) != 1:
                raise NotAUnit(
                    f"table value {value} for {sym!r} is not a unit mod {self.modulus}"
                )

    @property
    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def value_for(self, symbol: str) -> int:
        idx = ALPHABET.find(symbol.upper())
        if idx < 0:
            raise UnsupportedSymbol(symbol, 0)
        return self.values[idx]

    @cached_property
    def _symbol_by_value(self) -> dict[int, str]:
        # first-wins: on duplicate values the symbol with the smaller
        # code is reported (the K/M, L/N style ambiguity of defective
        # tables resolves to K and L)
        out: dict[int, str] = {}
        for sym, value in zip(ALPHABET, self.values):
            out.setdefault(value, sym)
        return out

    def symbol_for(self, value: int) -> str | None:
        return self._symbol_by_value.get(value)


def gen_unit_table(
    ring: Union[HalidonRing, int], seed: int
) -> UnitAssignment:
    """Draw 40 distinct units uniformly (seeded) and assign in code order.

    Accepts a ring or a bare modulus (the table depends only on n).
    Needs phi(n) >= 40 (AlphabetTooLarge otherwise).  Since
    phi(n) >= sqrt(n/2) for every n, that holds for all n >= 3200, so
    only smaller moduli are factorized to check it; a large public
    modulus is never factorized here.
    """
    n, f = (ring, None) if isinstance(ring, int) else (ring.n, ring.factorization)
    if n < 3200:  # 3200 = 2 * 40**2
        phi = euler_phi(f or factorize(n))
        if phi < len(ALPHABET):
            raise AlphabetTooLarge(
                f"phi({n}) = {phi} < {len(ALPHABET)}; no injective table exists"
            )
    rng = random.Random(seed)
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < len(ALPHABET):
        candidate = rng.randrange(1, n)
        if candidate in seen or math.gcd(candidate, n) != 1:
            continue
        seen.add(candidate)
        chosen.append(candidate)
    return UnitAssignment(modulus=n, values=tuple(chosen))


def apply_table(
    message: Union[str, Sequence[int]], table: UnitAssignment
) -> LambdaVector:
    """Symbol-wise translation of text (or codes) into unit values."""
    codes = text_to_codes(message) if isinstance(message, str) else message
    values = []
    for pos, code in enumerate(codes):
        if not 0 <= code < len(ALPHABET):
            raise CodeOutOfRange(code, pos)
        values.append(table.values[code])
    return LambdaVector(tuple(values), table.modulus)


def unapply_table(
    lambdas: Union[LambdaVector, Sequence[int]], table: UnitAssignment
) -> str:
    """Inverse of apply_table; UnknownUnit when a value is not in the table."""
    if isinstance(lambdas, LambdaVector):
        if lambdas.modulus != table.modulus:
            raise ModulusMismatch(
                f"spectrum mod {lambdas.modulus} against table mod {table.modulus}"
            )
        values: Sequence[int] = lambdas.values
    else:
        values = lambdas
    chars = list(map(table._symbol_by_value.get, values))
    if None in chars:
        pos = chars.index(None)
        raise UnknownUnit(values[pos], pos)
    return "".join(chars)


_TABLE_HEADER = "HGR-TABLE v1"
_TABLE_FIELDS = [(key, DECIMAL) for key in ("n", *_KEY_NAMES)]


def render_table(table: UnitAssignment) -> str:
    lines = [_TABLE_HEADER, f"n={table.modulus}"]
    lines += [
        f"{key}={value}" for key, value in zip(_KEY_NAMES, table.values)
    ]
    return "\n".join(lines) + "\n"


def write_table(table: UnitAssignment, path) -> None:
    Path(path).write_text(render_table(table), encoding="utf-8", newline="\n")


def read_table(path) -> UnitAssignment:
    """Strict parse: header, n=, then the 40 keys in code order.

    Values must be units mod n; duplicates are tolerated (defective
    tables still load for inspection) but flagged by is_injective.
    """
    _, values = read_fields(path, (_TABLE_HEADER,), _TABLE_FIELDS)
    n, *values = map(int, values)
    for line, value in enumerate(values, start=3):
        if value >= n:
            raise MalformedFile(path, line, f"value {value} is outside Z_{n}")
        if math.gcd(value, n) != 1:
            raise MalformedFile(path, line, f"value {value} is not a unit mod {n}")
    # every value is checked above, so the constructor's checks are not rerun
    return UnitAssignment._certified(n, tuple(values))
