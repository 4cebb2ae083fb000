"""Arbitrary-precision modular arithmetic and number-theory primitives.

Every residue carries its modulus.  All functions are pure.
"""

from __future__ import annotations

import math
import os
import random
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import FactorizationTimeout, HalidonError, NonCoprimeModuli

_TRIAL_DIVISION_LIMIT = 10**6
_FIRST_TRIAL_CHUNK = 600  # numbers spanned by the first chunk; each doubles
# the residues mod 30 prime to 2, 3 and 5: the trial candidates past 5
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)
_DEFAULT_RHO_BUDGET = 10**7

# These twelve bases make Miller-Rabin deterministic below 2^64.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def default_factor_budget() -> int:
    """Pollard-rho iteration cap; HALIDON_FACTOR_BUDGET overrides it.

    The variable takes ASCII decimals only ([0-9]+, as file fields do);
    unset or empty keeps the default, and 0 allows trial division only.
    """
    raw = os.environ.get("HALIDON_FACTOR_BUDGET")
    if not raw:
        return _DEFAULT_RHO_BUDGET
    if not (raw.isascii() and raw.isdigit()):
        raise HalidonError(
            f"HALIDON_FACTOR_BUDGET must be a decimal integer [0-9]+,"
            f" got {raw!r}"
        )
    return int(raw)


class _Value:
    """Base of the frozen value classes; a light stand-in for dataclasses.

    A subclass's annotations append fields, in order, to its parent's;
    class-level values are their defaults.  Instances take fields by
    position or keyword, run __post_init__, refuse assignment and
    deletion, compare equal only to the same class with equal fields,
    hash by field values and repr like a dataclass.  __post_init__ may
    normalise a field with object.__setattr__; cached_property works too.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # without annotations of its own a subclass keeps its parent's fields
        own = [k for k in cls.__annotations__ if k not in cls._fields]
        cls._fields = cls.__match_args__ = (*cls._fields, *own)
        cls._key = attrgetter(*cls._fields)  # what __eq__ and __hash__ use
        cls._defaults = {
            k: getattr(cls, k) for k in cls._fields if hasattr(cls, k)
        }

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one setattr per field keeps the instance's attributes in the
        # interpreter's fast per-class layout; updating __dict__ would not
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """A value for every field, bound as a def would bind them."""
        fields = cls._fields
        given = {**cls._defaults, **kwargs, **dict(zip(fields, args))}
        if (
            len(args) > len(fields)
            or not kwargs.keys() <= set(fields[len(args):])
            or len(given) < len(fields)
        ):
            raise TypeError(
                f"{cls.__qualname__}() takes the fields {', '.join(fields)};"
                f" got {len(args)} by position and {sorted(kwargs)} by keyword"
            )
        return [given[k] for k in fields]

    def __post_init__(self) -> None:
        pass

    @classmethod
    def _certified(cls, *values):
        """The value of `values`, one per field in order, without the
        checks of __post_init__: for values the caller has checked."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        inner = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class Residue(_Value):
    """An element of Z_n that remembers n.

    The stored value is always reduced to 0 <= value < modulus.
    """

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin: deterministic below 2^64, 40 bases above.

    Above 2^64 the bases are drawn from a generator seeded with n, so a
    check gives the same answer every time and leaves the global random
    state alone.
    """
    if n < 2:
        return False
    for p in _MR_BASES_64:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < 1 << 64:
        bases: Iterable[int] = _MR_BASES_64
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(40))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(_Value):
    """Canonical form of n: ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("empty factorization")
        prev = 1
        for p, e in self.pairs:
            if p <= prev:
                raise ValueError(f"primes not strictly increasing at {p}")
            if e < 1:
                raise ValueError(f"exponent {e} for prime {p} must be >= 1")
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    @property
    def is_even(self) -> bool:
        return self.pairs[0][0] == 2

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)

    def __str__(self) -> str:
        return " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.pairs
        )


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """(factor, iterations used): one nontrivial factor of odd composite
    n, or None once `budget` iterations are exceeded.

    Brent's cycle variant with batched gcds; the polynomial offset is
    stepped deterministically so results are reproducible.
    """
    used = 0
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += batch
                if used > budget:
                    return None, used
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # gcd batch overshot; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, used
        # cycle degenerated for this offset; try the next one
    return None, used


def factorize(n: int, budget: int | None = None) -> Factorization:
    """Canonical factorization: trial division, then Pollard rho.

    Trial division takes out 2 and 3; a cofactor past the square of the
    limit that Miller-Rabin calls prime is counted at once.  Then come 5
    and the candidates on the wheel of 30 (_WHEEL) up to
    _TRIAL_DIVISION_LIMIT a chunk at a time: one comprehension finds the
    candidates of a chunk that divide n, a residue at a time, and they
    are divided out in ascending order, so a composite candidate never
    counts (its primes are gone by then).  Each chunk is bounded by the
    limit and by isqrt of what is left of n, and chunks double in width.
    A cofactor with no divisor up to its square root is 1 or a prime and
    is counted as it is; any other cofactor goes to Pollard rho.
    `budget` caps the total rho iterations (FactorizationTimeout beyond,
    naming n, the budget and the iterations used); it defaults to
    default_factor_budget().
    """
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    if budget is None:
        budget = default_factor_budget()
    whole = n
    counts: dict[int, int] = {}
    for d in (2, 3):
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
    if n > _TRIAL_DIVISION_LIMIT**2 and is_probable_prime(n):
        counts[n] = 1  # a prime that the trial stage could not certify
        n = 1
    # each chunk runs from d up to the first 6k-1 past top, the next d
    d, width = 5, _FIRST_TRIAL_CHUNK
    while d * d <= n and d <= _TRIAL_DIVISION_LIMIT:
        top = min(_TRIAL_DIVISION_LIMIT, math.isqrt(n), d + width)
        end = top + 1 + (4 - top) % 6
        hits = [
            c for r in (_WHEEL if d > 5 else (5, *_WHEEL))
            for c in range(d + (r - d) % 30, end, 30) if n % c == 0
        ]
        for c in sorted(hits):
            while n % c == 0:
                counts[c] = counts.get(c, 0) + 1
                n //= c
        d, width = end, 2 * width
    spent = 0
    stack = []
    if d * d > n:
        # no divisor up to its square root: n is 1 or a prime
        if n > 1:
            counts[n] = 1
    else:
        stack.append(n)
    while stack:
        n = stack.pop()
        if is_probable_prime(n):
            counts[n] = counts.get(n, 0) + 1
            continue
        factor, used = _brent_rho(n, budget - spent)
        spent += used
        if factor is None:
            raise FactorizationTimeout(whole, budget, spent)
        stack.append(factor)
        stack.append(n // factor)
    # every prime above was found by trial division or certified by
    # Miller-Rabin, so the strict constructor would only test them again
    return Factorization._certified(tuple(sorted(counts.items())))


def euler_phi(f: Factorization) -> int:
    """Euler totient from the factorization: prod p^(e-1) * (p-1)."""
    out = 1
    for p, e in f.pairs:
        out *= p ** (e - 1) * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    if n == 1:
        return [1]
    out = [1]
    for p, e in factorize(n).pairs:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def crt_combine(parts: Sequence[Residue]) -> Residue:
    """Unique residue mod prod(moduli) matching every part.

    Moduli must be pairwise coprime (NonCoprimeModuli otherwise).
    """
    if not parts:
        raise ValueError("crt_combine needs at least one residue")
    acc = parts[0]
    for part in parts[1:]:
        g = math.gcd(acc.modulus, part.modulus)
        if g != 1:
            raise NonCoprimeModuli(
                f"moduli {acc.modulus} and {part.modulus} share factor {g}"
            )
        diff = (part.value - acc.value) % part.modulus
        lift = diff * pow(acc.modulus, -1, part.modulus) % part.modulus
        acc = Residue(
            acc.value + acc.modulus * lift, acc.modulus * part.modulus
        )
    return acc
