"""Multi-prime RSA keys and the scalar encrypt/decrypt primitives.

Keys remember the protocol block length m alongside (n, e, d).  The
private exponent is built from phi(n), not the Carmichael function, to
match the reference key material byte for byte.

Decryption inverts encryption for every unit of Z_n; for arbitrary
residues it inverts only when n is squarefree (a repeated prime p breaks
the round trip on multiples of p).  The enclosing protocols only ever
encrypt units.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence, Union

from ._files import DECIMAL, FACTORS, read_fields
from .analysis import halidon_function_psi, require_index
from .arith import (
    Factorization,
    Residue,
    _Value,
    euler_phi,
    is_probable_prime,
)
from .errors import (
    BadPrime,
    HalidonError,
    MalformedFile,
    ModulusMismatch,
    NotCoprime,
)


class RsaPublicKey(_Value):
    n: int
    e: int
    m: int


class RsaPrivateKey(_Value):
    n: int
    d: int
    phi: int
    factorization: Factorization
    m: int


def keygen(
    primes: Sequence[int],
    exponents: Sequence[int],
    e: int | None = None,
    m: int | None = None,
) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Build a key pair from chosen odd primes and their exponents.

    Without `e`, the smallest exponent >= 3 coprime to phi(n) is used;
    an explicit e must be >= 1 and coprime to phi(n).
    Without `m`, the block length defaults to psi(n); an explicit m must
    divide psi(n).
    """
    if len(primes) != len(exponents) or not primes:
        raise BadPrime("primes and exponents must pair up and be non-empty")
    if len(set(primes)) != len(primes):
        raise BadPrime(f"primes must be distinct, got {tuple(primes)}")
    for p in primes:
        if p % 2 == 0:
            raise BadPrime(f"{p} is even; only odd primes are supported")
        if not is_probable_prime(p):
            raise BadPrime(f"{p} failed the primality test")
    for k in exponents:
        if k < 1:
            raise BadPrime(f"exponent {k} must be >= 1")
    # the checks above certify every prime: no second Miller-Rabin run
    factorization = Factorization._certified(
        tuple(sorted(zip(primes, exponents)))
    )
    n = factorization.n
    phi = euler_phi(factorization)
    if m is None:
        m = halidon_function_psi(factorization)
    else:
        require_index(factorization, m)
    if e is None:
        e = 3
        while math.gcd(e, phi) != 1:
            e += 1
    elif e < 1:
        raise HalidonError(f"public exponent e = {e} must be >= 1")
    elif math.gcd(e, phi) != 1:
        raise NotCoprime(
            f"e = {e} shares factor {math.gcd(e, phi)} with phi = {phi}"
        )
    d = pow(e, -1, phi)
    return (
        RsaPublicKey(n=n, e=e, m=m),
        RsaPrivateKey(n=n, d=d, phi=phi, factorization=factorization, m=m),
    )


def _residue_in(key_n: int, x: Union[int, Residue]) -> int:
    if isinstance(x, Residue):
        if x.modulus != key_n:
            raise ModulusMismatch(
                f"residue mod {x.modulus} used with key modulus {key_n}"
            )
        return x.value
    if not 0 <= x < key_n:
        raise ValueError(f"{x} is not a residue mod {key_n}")
    return x


def rsa_encrypt(pub: RsaPublicKey, x: Union[int, Residue]) -> Residue:
    """x^e mod n."""
    return Residue(pow(_residue_in(pub.n, x), pub.e, pub.n), pub.n)


def rsa_decrypt(priv: RsaPrivateKey, c: Union[int, Residue]) -> Residue:
    """c^d mod n."""
    return Residue(pow(_residue_in(priv.n, c), priv.d, priv.n), priv.n)


_PUBLIC_HEADER = "HALIDON-RSA PUBLIC v1"
_PRIVATE_HEADER = "HALIDON-RSA PRIVATE v1"
_PUBLIC_FIELDS = [(name, DECIMAL) for name in ("n", "e", "m")]
_PRIVATE_FIELDS = [(name, DECIMAL) for name in ("n", "d", "phi", "m")]


def render_public_key(pub: RsaPublicKey) -> str:
    return f"{_PUBLIC_HEADER}\nn={pub.n}\ne={pub.e}\nm={pub.m}\n"


def render_private_key(priv: RsaPrivateKey) -> str:
    factors = ",".join(f"{p}^{e}" for p, e in priv.factorization.pairs)
    return (
        f"{_PRIVATE_HEADER}\nn={priv.n}\nd={priv.d}\nphi={priv.phi}\n"
        f"m={priv.m}\nfactors={factors}\n"
    )


def write_public_key(pub: RsaPublicKey, path) -> None:
    Path(path).write_text(render_public_key(pub), encoding="utf-8", newline="\n")


def write_private_key(priv: RsaPrivateKey, path) -> None:
    Path(path).write_text(render_private_key(priv), encoding="utf-8", newline="\n")


def read_public_key(path) -> RsaPublicKey:
    _, values = read_fields(path, (_PUBLIC_HEADER,), _PUBLIC_FIELDS)
    values = list(map(int, values))
    # refuse what keygen refuses: n < 2, e < 1, m < 1 (lines 2 to 4)
    for line, name, value, least in zip((2, 3, 4), "nem", values, (2, 1, 1)):
        if value < least:
            raise MalformedFile(
                path, line, f"{name} = {value} must be >= {least}"
            )
    return RsaPublicKey(*values)


def read_private_key(path) -> RsaPrivateKey:
    _, (*values, factors) = read_fields(
        path, (_PRIVATE_HEADER,), _PRIVATE_FIELDS + [("factors", FACTORS)]
    )
    n, d, phi, m = map(int, values)
    if m < 1:
        raise MalformedFile(path, 5, f"m = {m} must be >= 1")
    pairs = (map(int, part.split("^")) for part in factors.split(","))
    try:
        factorization = Factorization(tuple(map(tuple, pairs)))
    except ValueError as exc:
        raise MalformedFile(path, 6, str(exc)) from exc
    if factorization.n != n:
        raise MalformedFile(
            path, 6, f"factors reconstruct {factorization.n}, not n = {n}"
        )
    return RsaPrivateKey(n=n, d=d, phi=phi, factorization=factorization, m=m)
