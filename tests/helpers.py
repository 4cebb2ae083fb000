"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: scans, schoolbook products, and
the orthogonality definition taken literally, so that oracle failures
and implementation failures cannot share a cause.
"""

from itertools import product
from math import gcd

from halidon import Residue, crt_combine


def is_definition_primitive(n: int, m: int, w: int) -> bool:
    """Literal definition: invertible index, minimal order m, power sums.

    w must satisfy w^m = 1 with m minimal, and for every r the sum
    1 + w^r + ... + w^((m-1)r) must be m for r = 0 and 0 otherwise;
    the index m itself must be a unit so the structure is usable.
    """
    if gcd(m, n) != 1:
        return False
    power = w % n
    order = None
    for k in range(1, m + 1):
        if power == 1:
            order = k
            break
        power = power * w % n
    if order != m:
        return False
    for r in range(m):
        total = sum(pow(w, r * i, n) for i in range(m)) % n
        if total != (m % n if r == 0 else 0):
            return False
    return True


def is_divisor_criterion_primitive(n: int, m: int, w: int) -> bool:
    """The unit criterion over every proper divisor d of m, found by scan.

    gcd(m, n) = 1, w^m = 1, and w^d - 1 a unit for each d < m dividing
    m: the long form of the criterion that the library tests only at
    d = m/q for the primes q of m.
    """
    if gcd(m, n) != 1 or pow(w, m, n) != 1:
        return False
    return all(
        gcd(pow(w, d, n) - 1, n) == 1 for d in range(1, m) if m % d == 0
    )


def definition_roots(n: int, m: int) -> list[int]:
    """All w < n passing the literal definition, ascending."""
    return [w for w in range(n) if is_definition_primitive(n, m, w)]


def schoolbook_cyclic(a, b, n: int) -> tuple[int, ...]:
    """Full 2m-1 coefficient product, then folded mod x^m - 1."""
    m = len(a)
    assert len(b) == m
    full = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            full[i + j] += a[i] * b[j]
    folded = full[:m]
    for k in range(m, 2 * m - 1):
        folded[k - m] += full[k]
    return tuple(v % n for v in folded)


def naive_dft(values, n: int, root: int, scale: int = 1) -> tuple[int, ...]:
    """scale * sum_i values[i] * root^(i*j) mod n for each j, every power by pow."""
    m = len(values)
    return tuple(
        scale * sum(v * pow(root, i * j, n) for i, v in enumerate(values)) % n
        for j in range(m)
    )


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Factorization by undiluted trial division."""
    out = []
    d = 2
    while d * d <= n:
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        if count:
            out.append((d, count))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_lambda(coeffs, n: int, m: int, omega: int) -> list[int]:
    """Spectrum via the reversed-index formula taken verbatim.

    lambda_r = sum over i of a[(m - i + 2) mod m, with 0 meaning m] times
    omega^((i-1)(r-1)), indices 1-based.  Used to pin the index-wrapping
    convention of the cleaner evaluation form.
    """
    a = {i + 1: coeffs[i] for i in range(m)}
    out = []
    for r in range(1, m + 1):
        total = 0
        for i in range(1, m + 1):
            idx = (m - i + 2) % m
            if idx == 0:
                idx = m
            total += a[idx] * pow(omega, (i - 1) * (r - 1), n)
        out.append(total % n)
    return out


def crt_product_roots(n: int, m: int) -> list[int]:
    """Primitive m-th roots of Z_n by the product of the component lists.

    Per prime power p^e, the powers z^j (gcd(j, m) = 1) of z = g^((p-1)/m)
    lifted by p^(e-1), with g the least generator mod p; then one
    crt_combine per tuple of the product.  Assumes m > 1 divides p - 1
    for every prime p of n.
    """
    components = []
    for p, e in trial_factor(n):
        order_primes = [q for q, _ in trial_factor(p - 1)]
        g = next(
            g for g in range(2, p)
            if all(pow(g, (p - 1) // q, p) != 1 for q in order_primes)
        )
        pe = p**e
        z = pow(pow(g, (p - 1) // m, p), p ** (e - 1), pe)
        roots = [pow(z, j, pe) for j in range(1, m + 1) if gcd(j, m) == 1]
        components.append([Residue(r, pe) for r in roots])
    return sorted(crt_combine(list(combo)).value for combo in product(*components))


SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ :.-"


def per_character_codes(text: str):
    """Symbol codes by the one-character-at-a-time rule of the format.

    Each character is uppercased; it is accepted when that gives exactly
    one character of the alphabet.  Returns (codes, None), or (None,
    (char, position)) for the first character rejected.
    """
    codes = []
    for pos, char in enumerate(text):
        folded = char.upper()
        if len(folded) != 1 or folded not in SYMBOLS:
            return None, (char, pos)
        codes.append(SYMBOLS.index(folded))
    return tuple(codes), None
