"""Exception types shared across the package.

``exit_code`` is what the command-line front end returns when the error
escapes: 2 for validation/usage problems, 3 for mathematical failures
(non-units, invalid roots, exhausted searches, wrong-key evidence, root
lists over the cap).
"""


class HalidonError(Exception):
    exit_code = 2


class ModulusMismatch(HalidonError):
    """Arithmetic attempted between values reduced by different moduli."""


class NotAUnit(HalidonError):
    """gcd(value, modulus) > 1 where an invertible element was required."""

    exit_code = 3


class NonCoprimeModuli(HalidonError):
    """CRT combination over moduli that share a factor."""


class FactorizationTimeout(HalidonError):
    """The factoring work budget was exhausted before completion."""

    exit_code = 3

    def __init__(self, n: int, budget: int, used: int):
        self.n = n
        self.budget = budget
        self.used = used
        super().__init__(
            f"factoring {n} stopped after {used} Pollard-rho iterations "
            f"against a budget of {budget} (HALIDON_FACTOR_BUDGET sets it)"
        )


class BadPrime(HalidonError):
    """Key generation given a number that is even, repeated, or composite."""


class NotCoprime(HalidonError):
    """Public exponent shares a factor with phi(n)."""


class IndexNotSupported(HalidonError):
    """Requested index m does not divide psi(n)."""


class LengthMismatch(HalidonError):
    """Vector length disagrees with the ring index m."""


class UnsupportedSymbol(HalidonError):
    """Character outside the 40-symbol alphabet."""

    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(f"unsupported symbol {char!r} at position {position}")


class CodeOutOfRange(HalidonError):
    """Symbol code outside 0..39; during decryption this signals a wrong key.

    With `block` set, `position` counts within that block of a decrypted
    message.
    """

    exit_code = 3

    def __init__(self, code: int, position: int, block: int | None = None):
        self.code = code
        self.position = position
        self.block = block
        msg = f"code {code} at position {position} is outside 0..39"
        if block is not None:
            msg = f"block {block}: {msg} (wrong key?)"
        super().__init__(msg)


class AlphabetTooLarge(HalidonError):
    """The 40 symbols do not fit Z_n: phi(n) < 40 leaves no injective
    symbol-to-unit table, and n < 40 puts two RSA-DFT codes on one
    residue."""


class UnknownUnit(HalidonError):
    """Decrypted value not present in the unit table (wrong table or root)."""

    exit_code = 3

    def __init__(self, value: int, position: int, detail: str = ""):
        self.value = value
        self.position = position
        msg = f"value {value} at position {position} is not in the unit table"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class InvalidOmega(HalidonError):
    """A value that must be a primitive m-th root of unity is not one."""

    exit_code = 3


class SearchExhausted(HalidonError):
    """Random root search hit its attempt budget without success."""

    exit_code = 3


class TooManyRoots(HalidonError):
    """A root search would build a list longer than its fixed cap."""

    exit_code = 3

    def __init__(self, count: int, cap: int, n: int, m: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"primitive {m}th roots mod {n}: the search would build a list "
            f"of {count} roots, over the cap of {cap}"
        )


class MalformedFile(HalidonError):
    """A key, table, or ciphertext file failed strict validation."""

    def __init__(self, path, line: int, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")
