"""Reference computations kept apart from the program: nothing here imports halidon.

Everything is done the slow, literal way: transforms by the defining
sum with every power taken by ``pow``, primality by trial division, and
roots of unity by their definition (minimal order and vanishing power
sums).  ``validate_published`` proves the oracle against the paper's
published vectors before a run uses it to judge the program's output.
"""

from __future__ import annotations

import math
import re

import published as pub

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ :.-"
BLANK = ALPHABET.index(" ")

# The O(m^2) power-sum definition is only evaluated up to this index.
LITERAL_MAX_M = 256


class OracleError(AssertionError):
    """The oracle disagrees with a published vector."""


def codes(text: str) -> list[int]:
    return [ALPHABET.index(ch) for ch in text]


def padded_blocks(text: str, m: int) -> list[list[int]]:
    """Symbol codes in blocks of m, the tail padded with blanks."""
    c = codes(text)
    total = max(1, -(-len(c) // m)) * m
    c += [BLANK] * (total - len(c))
    return [c[i : i + m] for i in range(0, total, m)]


def is_prime(n: int) -> bool:
    """Trial division by every odd number up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def dft(n: int, m: int, w: int, vec) -> tuple[int, ...]:
    """sum_i vec_i * w^(i*j) mod n for j = 0..m-1, powers taken with pow.

    At the session root this is the RSA-DFT block map."""
    pw = [pow(w, k, n) for k in range(m)]
    return tuple(
        sum(v * pw[i * j % m] for i, v in enumerate(vec)) % n for j in range(m)
    )


def idft(n: int, m: int, w: int, spectrum) -> tuple[int, ...]:
    minv = pow(m, -1, n)
    return tuple(minv * v % n for v in dft(n, m, pow(w, -1, n), spectrum))


def spectrum(n: int, m: int, w: int, coeffs) -> tuple[int, ...]:
    """lambda_r = sum_i a_i * w^(-i*r): the group-ring spectrum of coeffs."""
    return dft(n, m, pow(w, -1, n), coeffs)


def synthesis(n: int, m: int, w: int, lambdas) -> tuple[int, ...]:
    """Coefficients whose spectrum is lambdas: m^-1 * sum_j lambda_j * w^(j*r)."""
    minv = pow(m, -1, n)
    return tuple(minv * v % n for v in dft(n, m, w, lambdas))


def is_root_literal(n: int, m: int, w: int) -> bool:
    """w is a primitive m-th root of unity in Z_n by the definition itself.

    m is a unit, w^m = 1, no proper divisor d of m has w^d = 1, and the
    power sum sum_k w^(r*k) vanishes for every 0 < r < m.
    """
    if math.gcd(m, n) != 1 or pow(w, m, n) != 1:
        return False
    if any(pow(w, d, n) == 1 for d in range(1, m) if m % d == 0):
        return False
    pw = [pow(w, k, n) for k in range(m)]
    return all(sum(pw[r * k % m] for k in range(m)) % n == 0 for r in range(1, m))


def is_root_by_primes(primes, m: int, w: int) -> bool:
    """The literal definition for squarefree n = prod(primes), one field at a time.

    In the field Z_p with m a unit, sum_k x^(r*k) = (x^(r*m) - 1)/(x^r - 1)
    vanishes exactly when x^r != 1, so the power sums vanish for every
    0 < r < m iff x = w mod p has order exactly m; by the CRT the
    definition holds mod n iff it holds mod every p.  Callers must have
    checked each p prime (trial division) and the primes distinct.
    """
    return _has_order(primes, m, prime_factors(m), w)


def _has_order(primes, m: int, qs, w: int) -> bool:
    """w has order exactly m modulo every p; qs are the primes dividing m."""
    for p in primes:
        if m % p == 0:
            return False
        x = w % p
        if pow(x, m, p) != 1 or any(pow(x, m // q, p) == 1 for q in qs):
            return False
    return True


def is_root(primes, m: int, w: int) -> bool:
    """The literal definition, by power sums when m is small, else per field."""
    n = math.prod(primes)
    if m <= LITERAL_MAX_M:
        return is_root_literal(n, m, w)
    return is_root_by_primes(primes, m, w)


def smallest_root(primes, m: int) -> int:
    """The least w >= 2 that is a primitive m-th root mod prod(primes), by scanning."""
    n = math.prod(primes)
    qs = prime_factors(m)
    for w in range(2, n):
        if _has_order(primes, m, qs, w):
            return w
    raise ValueError(f"no primitive {m}th root mod {n}")


def private_exponent(primes, e: int) -> int:
    """d = e^-1 mod phi(n) for squarefree n = prod(primes)."""
    return pow(e, -1, math.prod(p - 1 for p in primes))


def check_factors(n: int, factors) -> list[str]:
    """Problems with a reported list of (p, k) pairs for n; empty when none."""
    problems = []
    if math.prod(p**k for p, k in factors) != n:
        problems.append(f"factors of {n} multiply to something else")
    if len({p for p, _ in factors}) != len(factors):
        problems.append(f"factors of {n} repeat a prime")
    problems += [f"factor {p} of {n} is not prime" for p, _ in factors if not is_prime(p)]
    return problems


_FACTOR = re.compile(r"(\d+)(?:\^(\d+))?")


def parse_analysis(text: str) -> dict:
    """Fields of an ``analyze`` report: factors, phi, psi, first root, roots."""
    lines = text.splitlines()
    head = lines[0].split(" = ")
    factors = [
        (int(p), int(k or 1))
        for p, k in (_FACTOR.fullmatch(part).groups() for part in head[2].split(" * "))
    ]
    first = re.fullmatch(r"Z\((\d+)\) is a halidon ring with index m = (\d+) and w = (\d+)", lines[3])
    roots_head, _, roots = lines[4].partition(": ")
    count = re.fullmatch(r"primitive (\d+)th roots of unity \((\d+)\)", roots_head)
    return {
        "n": int(head[1]),
        "factors": factors,
        "phi": int(lines[1].removeprefix("phi(n) = ")),
        "psi": int(lines[2].removeprefix("psi(n) = ")),
        "index": int(first.group(2)),
        "first": int(first.group(3)),
        "count_m": int(count.group(1)),
        "count": int(count.group(2)),
        "roots": [int(v) for v in roots.split()],
        "lines": len(lines),
    }


def check_analysis(n: int, text: str, rng) -> tuple[list[str], dict]:
    """Judge an ``analyze n`` report completely.

    Every listed root passes the definition, the list is strictly
    ascending and holds phi(psi)^k roots, which is every root there is
    (each of the k prime components holds phi(psi) of them); a seeded
    sample of roots also passes the power-sum form when psi is small.
    """
    try:
        rep = parse_analysis(text)
    except (AttributeError, IndexError, ValueError) as exc:
        return [f"analyze {n}: unreadable report ({exc!r})"], {}
    problems = check_factors(n, rep["factors"])
    primes = [p for p, _ in rep["factors"]]
    if problems or any(k != 1 for _, k in rep["factors"]):
        return problems or [f"{n} is not squarefree"], rep
    psi = math.gcd(*(p - 1 for p in primes))
    roots = rep["roots"]
    expected = phi(psi) ** len(primes)
    qs = prime_factors(psi)
    checks = {
        "n": rep["n"] == n,
        "phi": rep["phi"] == math.prod(p - 1 for p in primes),
        "psi": rep["psi"] == rep["index"] == rep["count_m"] == psi,
        "count": rep["count"] == len(roots) == expected,
        "ascending": all(a < b for a, b in zip(roots, roots[1:])),
        "first": bool(roots) and rep["first"] == roots[0],
        "lines": rep["lines"] == 5,
        "every root": all(_has_order(primes, psi, qs, w) for w in roots),
    }
    if psi <= LITERAL_MAX_M:
        checks["sampled roots"] = all(
            is_root_literal(n, psi, w) for w in rng.sample(roots, min(3, len(roots)))
        )
    problems += [f"analyze {n}: {name} wrong" for name, ok in checks.items() if not ok]
    rep["primes"] = primes
    return problems, rep


def read_ciphertext(path) -> tuple[str, int, int, int, list[str]]:
    """(header, n, m, c, raw block lines) of a ciphertext file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    n, m, c = (int(line.split("=", 1)[1]) for line in lines[1:4])
    return lines[0], n, m, c, lines[4:]


def block(line: str) -> list[int]:
    return [int(v) for v in line.removeprefix("block=").split()]


def read_table(path) -> list[int]:
    """The 40 unit values of a table file, in symbol order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [int(line.split("=", 1)[1]) for line in lines[2:]]


def validate_published() -> None:
    """Raise OracleError unless the oracle reproduces every published vector."""

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise OracleError(f"oracle disagrees with the published {what}")

    for name, (n, m, w, vec, spec) in (
        ("six-point transform", pub.SIX_POINT),
        ("corrected ten-point spectrum", pub.TEN_POINT_CORRECTED),
    ):
        need(is_root_literal(n, m, w), f"{name} root")
        need(dft(n, m, w, vec) == spec, name)
        need(idft(n, m, w, spec) == vec, f"{name} inverse")

    n, m, w = pub.SESSION_N, pub.SESSION_M, pub.SESSION_OMEGA
    primes = pub.SESSION_PRIMES
    need(math.prod(primes) == n and all(map(is_prime, primes)), "session modulus")
    need(private_exponent(primes, pub.SESSION_E) == pub.SESSION_D, "private exponent")
    need(pow(w, pub.SESSION_E, n) == pub.SESSION_C, "RSA transport value")
    need(pow(pub.SESSION_C, pub.SESSION_D, n) == w, "RSA decryption")
    need(is_root_literal(n, m, w) and is_root_by_primes(primes, m, w), "session root")

    (dft_block,) = padded_blocks(pub.DFT_MESSAGE, m)
    spec = dft(n, m, w, dft_block)
    need(spec[:30] == pub.DFT_CIPHER_PREFIX, "RSA-DFT ciphertext prefix")
    need(spec[-15:] == pub.DFT_CIPHER_SUFFIX, "RSA-DFT ciphertext suffix")

    (hgr_block,) = padded_blocks(pub.HGR_MESSAGE, m)
    need(
        tuple(pub.UNIT_TABLE_VALUES[c] for c in hgr_block) == pub.HGR_LAMBDAS,
        "RSA-HGR spectrum of the message",
    )
    need(spectrum(n, m, w, pub.HGR_CIPHER) == pub.HGR_LAMBDAS, "RSA-HGR spectrum")
    need(synthesis(n, m, w, pub.HGR_LAMBDAS) == pub.HGR_CIPHER, "RSA-HGR coefficients")
