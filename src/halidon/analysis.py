"""Halidon structure of Z_n: the psi function and primitive roots of unity.

A primitive m-th root of unity here is ring-theoretic: w^m = 1 and
w^d - 1 invertible for every proper divisor d of m, with m itself
invertible.  Root search works one prime-power component at a time
(generator powering, then a lift, then CRT) instead of scanning all of
Z_n; the full scan survives only as a test oracle because it is
hopeless at protocol sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .arith import (
    Factorization,
    Residue,
    crt_combine,
    divisors,
    euler_phi,
    factorize,
    mod_inverse,
)
from .errors import (
    IndexNotSupported,
    InvalidOmega,
    ModulusMismatch,
    NotADivisor,
)


def halidon_function_psi(f: Factorization) -> int:
    """Maximal index of Z_n: gcd of p-1 over the odd primes, or 1 if n even."""
    if f.is_even:
        return 1
    return math.gcd(*(p - 1 for p in f.primes))


def is_primitive_root_of_unity(n: int, m: int, w: int) -> bool:
    """Unit-criterion test for a primitive m-th root of unity in Z_n.

    True iff gcd(m, n) = 1, w^m = 1, and gcd(w^d - 1, n) = 1 for every
    proper divisor d of m.  Equivalent to the orthogonality definition
    (the power sums over w^r vanish for r not divisible by m) together
    with minimality of m.
    """
    if n < 2 or m < 1 or not 0 <= w < n:
        raise ValueError(f"bad arguments n={n}, m={m}, w={w}")
    if math.gcd(m, n) != 1:
        return False
    if pow(w, m, n) != 1:
        return False
    for d in divisors(m)[:-1]:
        if math.gcd(pow(w, d, n) - 1, n) != 1:
            return False
    return True


@dataclass(frozen=True)
class HalidonRing:
    """Z_n together with a certified index m and primitive root omega.

    `factorization` is optional: a party that only knows the public n can
    still certify (n, m, omega), since the criterion needs no factors.
    """

    n: int
    m: int
    omega: int
    factorization: Factorization | None = None

    @classmethod
    def create(
        cls,
        n: int,
        m: int,
        omega: int | Residue,
        factorization: Factorization | None = None,
    ) -> "HalidonRing":
        """Validate the halidon criterion and build the ring.

        omega may be a Residue, such as the one recover_omega returns; its
        modulus must be n (ModulusMismatch otherwise).
        """
        if isinstance(omega, Residue):
            if omega.modulus != n:
                raise ModulusMismatch(
                    f"root mod {omega.modulus} used in a ring mod {n}"
                )
            omega = omega.value
        if not 0 <= omega < n:
            omega %= n
        if not is_primitive_root_of_unity(n, m, omega):
            raise InvalidOmega(
                f"{omega} is not a primitive {m}th root of unity mod {n}"
            )
        return cls(n, m, omega, factorization)

    @cached_property
    def omega_powers(self) -> tuple[int, ...]:
        """omega^0 .. omega^(m-1) mod n."""
        powers = [1]
        for _ in range(self.m - 1):
            powers.append(powers[-1] * self.omega % self.n)
        return tuple(powers)

    @cached_property
    def omega_inverse(self) -> int:
        return mod_inverse(Residue(self.omega, self.n)).value

    @cached_property
    def omega_inverse_powers(self) -> tuple[int, ...]:
        powers = [1]
        for _ in range(self.m - 1):
            powers.append(powers[-1] * self.omega_inverse % self.n)
        return tuple(powers)

    @cached_property
    def m_inverse(self) -> int:
        return mod_inverse(Residue(self.m, self.n)).value

    @cached_property
    def chirp(self) -> tuple:
        """The transform tables at omega, built on first use."""
        from .dft import chirp_tables

        return chirp_tables(self, inverse=False)

    @cached_property
    def inverse_chirp(self) -> tuple:
        """The transform tables at omega^-1, built on first use."""
        from .dft import chirp_tables

        return chirp_tables(self, inverse=True)


@dataclass(frozen=True)
class RootSearchReport:
    """Result of enumerating primitive m-th roots of unity in Z_n."""

    m_max: int
    roots_found: tuple[int, ...]
    exhaustive: bool
    count_expected: int | None


def lift_prime_power_root(p: int, k: int, w_mod_p: int) -> Residue:
    """Lift a root mod p to mod p^k by raising to p^(k-1).

    Raising to p^(k-1) kills the p-part of the multiplicative order while
    fixing the part dividing p-1, so the lift has the same order mod p^k
    as w had mod p.
    """
    pk = p**k
    return Residue(pow(w_mod_p, p ** (k - 1), pk), pk)


def _generator_mod_p(p: int) -> int:
    """Smallest generator of the unit group of Z_p (ascending trial)."""
    if p == 2:
        return 1
    f = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in f.primes):
            return g
    raise AssertionError(f"no generator found mod {p}")


def _component_roots(p: int, e: int, m: int) -> list[int]:
    """All primitive m-th roots of unity mod p^e, ascending.

    The m-torsion of the unit group mod p^e is cyclic of order m (m
    divides p-1), so the primitive roots are exactly the powers z^j of
    one order-m element z with gcd(j, m) = 1.
    """
    g = _generator_mod_p(p)
    z = lift_prime_power_root(p, e, pow(g, (p - 1) // m, p))
    pe = p**e
    return sorted(
        pow(z.value, j, pe) for j in range(1, m + 1) if math.gcd(j, m) == 1
    )


def _component_root_sets(
    f: Factorization, m: int
) -> list[tuple[int, list[int]]]:
    """(prime power, ascending roots) per component, or raise."""
    psi = halidon_function_psi(f)
    if m < 1 or psi % m != 0:
        raise IndexNotSupported(
            f"index {m} does not divide psi({f.n}) = {psi}"
        )
    return [(p**e, _component_roots(p, e, m)) for p, e in f.pairs]


def find_primitive_root(
    f: Factorization, m: int, rng: random.Random | None = None
) -> Residue:
    """A primitive m-th root of unity mod n, built per prime component.

    Without `rng` the numerically smallest root is returned; with it the
    root is drawn uniformly from the full qualifying set.  Requires m to
    divide psi(n) (IndexNotSupported otherwise; even n only supports
    m = 1).
    """
    n = f.n
    if m == 1:
        return Residue(1, n)
    components = _component_root_sets(f, m)
    if rng is not None:
        picks = [
            Residue(rng.choice(roots), pe) for pe, roots in components
        ]
        return crt_combine(picks)
    best = None
    for combo in product(*(comp for _, comp in components)):
        value = crt_combine(
            [Residue(v, pe) for v, (pe, _) in zip(combo, components)]
        ).value
        if best is None or value < best:
            best = value
    return Residue(best, n)


def enumerate_primitive_roots(
    n: int, m: int, limit: int | None = None
) -> RootSearchReport:
    """All primitive m-th roots of unity in Z_n, ascending.

    `limit` truncates the list (the report is then non-exhaustive when
    more roots exist).  count_expected is phi(m)^k whenever every prime
    divides into p = m*t + 1 with the t's pairwise coprime; otherwise it
    is left unset.
    """
    f = factorize(n)
    if m == 1:
        roots: tuple[int, ...] = (1 % n,)
    elif f.is_even or halidon_function_psi(f) % m != 0:
        roots = ()
    else:
        components = _component_root_sets(f, m)
        found = sorted(
            crt_combine(
                [Residue(v, pe) for v, (pe, _) in zip(combo, components)]
            ).value
            for combo in product(*(comp for _, comp in components))
        )
        roots = tuple(found)
    exhaustive = limit is None or len(roots) <= limit
    if limit is not None:
        roots = roots[:limit]
    return RootSearchReport(
        m_max=halidon_function_psi(f),
        roots_found=roots,
        exhaustive=exhaustive,
        count_expected=_count_law_expected(f, m),
    )


def _count_law_expected(f: Factorization, m: int) -> int | None:
    """phi(m)^k when each p = m*t + 1 with the t's pairwise coprime."""
    if f.is_even or m < 2:
        return None
    ts = []
    for p in f.primes:
        if (p - 1) % m != 0:
            return None
        ts.append((p - 1) // m)
    for i, a in enumerate(ts):
        for b in ts[i + 1 :]:
            if math.gcd(a, b) != 1:
                return None
    return euler_phi(factorize(m)) ** len(ts)


def divisor_index_root(ring: HalidonRing, k: int) -> HalidonRing:
    """The same Z_n as a halidon ring with index k | m, via omega^(m/k)."""
    if k < 1 or ring.m % k != 0:
        raise NotADivisor(f"{k} does not divide the ring index {ring.m}")
    if k == ring.m:
        return ring
    return HalidonRing.create(
        ring.n,
        k,
        pow(ring.omega, ring.m // k, ring.n),
        ring.factorization,
    )


def max_index_and_witness(n: int) -> tuple[int, Residue]:
    """(psi(n), smallest primitive psi(n)-th root); (1, 1) for even n."""
    f = factorize(n)
    psi = halidon_function_psi(f)
    if psi == 1:
        return 1, Residue(1, n)
    return psi, find_primitive_root(f, psi)
