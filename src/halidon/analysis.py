"""Halidon structure of Z_n: the psi function and primitive roots of unity.

A primitive m-th root of unity here is ring-theoretic: w^m = 1 and
w^d - 1 invertible for every proper divisor d of m, with m itself
invertible; d = m/q for each prime q of m suffices.  Root search needs
only m's primes, never those of p - 1, and works one prime-power
component q = p^e at a time: z = x^((p-1)/m) mod p for the first x of
order m, lifted to p^e, and one baby-step/giant-step comprehension walks
only the powers z^j whose j is coprime to gcd(m, 6) (a wheel over 2 and
3), then a sieve over m's other primes keeps the phi(m) roots mod q.
The CRT idempotent e_q (1 mod q, 0 mod the other components) scales
them, so every root of Z_n is a plain integer sum of one scaled root per
component, mod n.  Enumeration lists all those sums, level by level in
sorted runs, and puts them in ascending order once (_ordered): by a
scatter over a byte mask of n bytes when they are dense in Z_n (one
component's walk-ordered list), else by a sort.  _ints reads ints off
either; root_row renders a mask as text with no int per root.  The
least root is found by meet-in-the-middle over two halves of the
components, whose lists hold L values (phi(m) for one component),
unless the phi(m)^k roots are dense, n <= L * phi(m)^k: then _trial
tests x = 2, 3, ... by the criterion in ascending order, and the first
root is the least; after L tests with none the lists are built after
all.  A listing's first K roots are found by the same trial where its
expected tests, K * n / phi(m)^k, weigh no more than the listing, a
test counting as 1 + omega(m) powers of m.bit_length() squarings and a
listed root as one product.  No list longer than MAX_ROOTS is ever
built (TooManyRoots instead).  The full scan of Z_n survives only as a
test oracle because it is hopeless at protocol sizes.  HalidonRing
keeps omega's powers, m^-1 and an empty dict for dft's kernel tables:
nothing here imports dft.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import deque
from functools import cached_property
from itertools import compress, islice, repeat
from operator import add, setitem

from ._files import decimal_row, mask_row
from .arith import Factorization, Residue, _Value, factorize
from .errors import (
    IndexNotSupported,
    InvalidOmega,
    ModulusMismatch,
    TooManyRoots,
)

# Longest root list a search may build: a component's roots, a half of
# the meet-in-the-middle split, or the full enumeration.
MAX_ROOTS = 1_000_000

# Sparsest list of values below `bound` that _ordered marks in a byte
# mask rather than sorts: bound <= DENSE * len(values) for the ints
# of _ints, DENSE_ROW * len(values) for root_row's text (_files.mask_row).
# On walk-ordered lists of 10^4 to 10^6 values the mask wins up to
# bound/len of about 4.5 for the shortest and 9 for the longest as ints,
# 12 and past 32 as text; 7 and 20 keep the path taken within about 1.5
# times the faster one on all.  A mask has <= DENSE_ROW * MAX_ROOTS bytes.
DENSE = 7
DENSE_ROW = 20


def halidon_function_psi(f: Factorization) -> int:
    """Maximal index of Z_n: gcd of p-1 over the odd primes, or 1 if n even."""
    if f.is_even:
        return 1
    return math.gcd(*(p - 1 for p in f.primes))


def is_primitive_root_of_unity(n: int, m: int, w: int) -> bool:
    """Unit-criterion test for a primitive m-th root of unity in Z_n.

    True iff gcd(m, n) = 1, w^m = 1, and gcd(w^d - 1, n) = 1 for every
    proper divisor d of m, tested at d = m/q for each prime q of m.
    Equivalent to the orthogonality definition (the power sums over w^r
    vanish for r not divisible by m) together with minimality of m.
    """
    if n < 2 or m < 1 or not 0 <= w < n:
        raise ValueError(f"bad arguments n={n}, m={m}, w={w}")
    return _is_root(n, m, _index_primes(m), w)


def _index_primes(m: int) -> tuple[int, ...]:
    """The primes of m: none for m = 1, ValueError for m < 1."""
    return factorize(m).primes if m != 1 else ()


def _is_root(n: int, m: int, primes: tuple[int, ...], w: int) -> bool:
    """is_primitive_root_of_unity's criterion with m's `primes` given,
    so that a caller testing many w factors m once."""
    if math.gcd(m, n) != 1 or pow(w, m, n) != 1:
        return False
    # a proper d | m divides some m/q, so w^d - 1 | w^(m/q) - 1, a unit
    return all(math.gcd(pow(w, m // q, n) - 1, n) == 1 for q in primes)


def _trial(n: int, m: int, primes: tuple[int, ...], tests: int):
    """The primitive m-th roots among x = 2 .. tests + 1, ascending, each
    x tested by the criterion: the least roots without listing any."""
    return (x for x in range(2, tests + 2) if _is_root(n, m, primes, x))


class HalidonRing(_Value):
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
        if n != 0 and not 0 <= omega < n:
            omega %= n  # n = 0 goes on to the criterion, which refuses it
        if not is_primitive_root_of_unity(n, m, omega):
            raise InvalidOmega(
                f"{omega} is not a primitive {m}th root of unity mod {n}"
            )
        return cls(n, m, omega, factorization)

    @cached_property
    def omega_powers(self) -> tuple[int, ...]:
        """omega^0 .. omega^(m-1) mod n."""
        n, omega, power = self.n, self.omega, 1
        powers = [1]
        for _ in range(self.m - 1):
            power = power * omega % n
            powers.append(power)
        return tuple(powers)

    @cached_property
    def omega_inverse_powers(self) -> tuple[int, ...]:
        """omega^-k mod n for k < m, read off omega^-k = omega^(m-k)."""
        powers = self.omega_powers
        return powers[:1] + powers[:0:-1]

    @cached_property
    def m_inverse(self) -> int:
        return pow(self.m, -1, self.n)

    @cached_property
    def kernel_tables(self) -> dict:
        """The transform kernel's tables, which dft builds on first use and
        keys by builder and direction; empty until a transform runs."""
        return {}


class RootSearchReport(_Value):
    """Result of enumerating primitive m-th roots of unity in Z_n."""

    m_max: int
    roots_found: tuple[int, ...]
    exhaustive: bool
    count_expected: int | None


def _component_roots(
    p: int, e: int, m: int, primes: tuple[int, ...]
) -> list[int]:
    """All primitive m-th roots of unity mod p^e, in walk order, given
    m's `primes`.

    The m-torsion of the unit group mod p^e is cyclic of order m (m
    divides p-1), so the primitive roots are exactly the powers z^j of
    one order-m element z with gcd(j, m) = 1; the list follows j, not
    the values.  z is x^((p-1)/m) mod p for the first x = 1, 2, ... of
    order m (z^(m/q) != 1 for every prime q of m), lifted to p^e by
    raising it to p^(e-1): that kills the p-part of the order while
    fixing the part dividing p-1, so the lift keeps order m.  Only m is
    factored, never p - 1.  The walk is a wheel over the primes 2 and
    3 of m: with w = gcd(m, 6), every j coprime to m is w*k + r with r
    = 1 or w - 1 (just 1 when w <= 2), so only those m/w * phi(w)
    powers are computed.  It is one comprehension in baby-step/giant-step
    form (Shanks): with b = isqrt(m/w), baby steps z^(w*k + r) for k < b
    times giant steps z^(w*b*i), in ascending j.  One compress over a
    sieve of m's primes from 5 up, read through coprime[r::w], drops the
    j that share one of them with m.
    """
    for x in range(1, p):
        z = pow(x, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in primes):
            break
    else:
        raise AssertionError(f"no element of order {m} mod {p}")
    pe = p**e
    z = pow(z, p ** (e - 1), pe)
    coprime = bytearray([1]) * (m + 1)
    for q in primes:
        if q > 3:  # the wheel below already skips multiples of 2 and 3
            coprime[q::q] = bytes(len(range(q, m + 1, q)))
    w = math.gcd(m, 6)
    count = m // w
    b = math.isqrt(count)
    step = pow(z, w, pe)
    baby = [z] * b  # z^(w*k + 1) for k < b
    for k in range(1, b):
        baby[k] = baby[k - 1] * step % pe
    keep = coprime[1::w]
    if w > 2:  # z^(w*k + w - 1) too, interleaved in ascending j
        shift = pow(z, w - 2, pe)
        baby = [v for u in baby for v in (u, u * shift % pe)]
        keep = bytearray(2 * count)
        keep[::2], keep[1::2] = coprime[1::w], coprime[w - 1 :: w]
    giant, stride = 1, pow(step, b, pe)  # z^0, z^(w*b)
    giants = []
    for _ in range(-(-count // b)):
        giants.append(giant)
        giant = giant * stride % pe
    # the walk runs past the wheel's end by less than one giant step;
    # compress stops where keep does
    walk = [u * v % pe for u in giants for v in baby]
    return list(compress(walk, keep))


def require_index(f: Factorization, m: int) -> None:
    """Raise IndexNotSupported unless m >= 1 divides psi(n)."""
    psi = halidon_function_psi(f)
    if m < 1 or psi % m != 0:
        raise IndexNotSupported(
            f"index {m} does not divide psi({f.n}) = {psi}"
        )


def _require_list_size(f: Factorization, m: int, count: int) -> int:
    """`count`, the length of a list of roots to be built; TooManyRoots
    if it is over MAX_ROOTS."""
    if count > MAX_ROOTS:
        raise TooManyRoots(count, MAX_ROOTS, f.n, m)
    return count


def _phi(m: int, primes: tuple[int, ...]) -> int:
    """phi(m) from m's primes: the roots of one component."""
    for q in primes:
        m = m // q * (q - 1)
    return m


def _component_root_sets(
    f: Factorization, m: int, primes: tuple[int, ...]
) -> list[tuple[int, list[int]]]:
    """(CRT idempotent, roots in walk order) per prime-power component q.

    The idempotent e_q = (n/q) * ((n/q)^-1 mod q) mod n is 1 mod q and 0
    mod the other components, so the root of Z_n with component roots
    r_q is sum(r_q * e_q) mod n.
    """
    n = f.n
    out = []
    for p, e in f.pairs:
        q = p**e
        rest = n // q
        out.append((rest * pow(rest, -1, q) % n, _component_roots(p, e, m, primes)))
    return out


def _ordered(values: list[int], bound: int, dense: int = DENSE):
    """The distinct `values`, each in 0 .. bound - 1, in ascending order:
    for a dense list (bound <= dense * len(values)) a bytearray of
    `bound` bytes holding 1 at each value, else `values` sorted in place.

    The scatter maps operator.setitem over repeat(mask), which reaches
    the mask's item slot directly where mask.__setitem__ goes through a
    method wrapper per value.  _root_sums hands over the sums of two or
    more components already ascending, so their sort is one linear pass.
    """
    if bound <= dense * len(values):
        mask = bytearray(bound)
        deque(map(setitem, repeat(mask), values, repeat(1)), 0)
        return mask
    values.sort()
    return values


def _ints(order: bytearray | list[int], limit: int | None) -> tuple[int, ...]:
    """The first `limit` values (all without a limit) of _ordered's
    `order`.  A mask is read back by compress(range(bound), mask),
    stopped after `limit` values, so its ints are allocated in ascending
    order."""
    if isinstance(order, bytearray):
        return tuple(islice(compress(range(len(order)), order), limit))
    return tuple(order if limit is None else order[:limit])


def _root_sums(components: list[tuple[int, list[int]]], n: int) -> list[int]:
    """Every sum mod n of one scaled root per component: ascending for
    two or more components, in walk order for one.

    An idempotent of 1 (n a prime power) scales nothing, and the roots
    themselves are the sums.  A single component is returned as walked,
    so that a dense list still reaches the byte mask.  Otherwise the
    first scaled component is sorted, and each level is
    sorted([(s + t) % n for t in scaled for s in sums]): the slice of
    one t over ascending sums wraps past n at most once, so it is at
    most two ascending runs, and Timsort merges runs rather than sorting
    scattered values.
    """
    (idempotent, sums), *rest = components
    if idempotent != 1:
        sums = [r * idempotent % n for r in sums]
    if rest:
        sums = sorted(sums)
    for idempotent, roots in rest:
        scaled = [r * idempotent % n for r in roots]
        sums = sorted([(s + t) % n for t in scaled for s in sums])
    return sums


def find_primitive_root(
    f: Factorization, m: int, rng: random.Random | None = None
) -> Residue:
    """A primitive m-th root of unity mod n, built per prime component.

    With `rng` the root is drawn uniformly from the full qualifying set:
    per component, in prime order, the index k that `rng.choice` would
    draw over its ascending roots, and the roots ordered only up to the
    k-th.  Without it the numerically smallest root is returned.  Its
    search by lists builds L values: the phi(m) roots of the one
    component when n is a prime power, whose minimum is the least root,
    else phi(m)^(k-h) + phi(m)^h sums for k components split at
    h = k // 2.  Where the roots are dense, n <= L * phi(m)^k, so that
    the phi(m)^k roots average at least one per L residues, x = 2, 3, ...
    are tested by the criterion in ascending order instead, and the
    first root is the least; after L tests with none the lists are built
    after all, so the trial never tests more values than the lists would
    hold.  The lists search by meet-in-the-middle: the components split
    into a low half A and a high half B, each listed as sums of
    idempotent-scaled roots mod n, B ascending.  The least root is then
    a + b - n for the least b >= n - a (one bisection), or a + B[0] when
    no b is that large, minimised over a in A; the work is about the
    square root of the number of roots.  Requires m to divide psi(n)
    (IndexNotSupported otherwise; even n only supports m = 1).
    TooManyRoots is raised before any test or list if one component
    (with `rng`) or the larger half (without) would hold more than
    MAX_ROOTS values.
    """
    n = f.n
    if m == 1:
        return Residue(1, n)
    require_index(f, m)
    primes = _index_primes(m)
    phi = _phi(m, primes)
    k = len(f.pairs)
    half = k // 2
    _require_list_size(f, m, phi ** (1 if rng is not None else k - half))
    if rng is None:
        listed = phi ** (k - half) + (phi**half if half else 0)
        if n <= listed * phi**k:
            least = next(_trial(n, m, primes, listed), None)
            if least is not None:
                return Residue(least, n)
    components = _component_root_sets(f, m, primes)
    if rng is not None:
        # k is the index rng.choice would draw over the ascending roots,
        # so the ordering can stop at the k-th
        value = 0
        for (p, e), (idempotent, roots) in zip(f.pairs, components):
            k = rng.randrange(len(roots))
            value += _ints(_ordered(roots, p**e), k + 1)[k] * idempotent
        return Residue(value % n, n)
    if k == 1:
        # n is a prime power: half A is just the sum 0, and its one
        # component's roots are already the roots of Z_n
        return Residue(min(components[0][1]), n)
    low = _root_sums(components[:half], n)
    high = _root_sums(components[half:], n)
    if k - half == 1:
        high.sort()  # one component comes in walk order
    # n + high[0] past the end stands for a + high[0], the sum of an a
    # with no b >= n - a to wrap with
    high.append(n + high[0])
    places = map(bisect_left, repeat(high), [n - a for a in low])
    return Residue(min(map(add, low, map(high.__getitem__, places))) - n, n)


def enumerate_primitive_roots(
    n: int | Factorization, m: int, limit: int | None = None
) -> RootSearchReport:
    """All primitive m-th roots of unity in Z_n, ascending.

    `n` may be given as its Factorization to skip factoring it again.
    The roots are the sums mod n of one idempotent-scaled root per prime
    component, built as one integer list (in sorted runs when there are
    two or more components) and put in ascending order once by
    _ordered: by a byte mask of n bytes when they number at least
    n/DENSE (a prime n at m = psi(n), say), else by a sort.  There are
    phi(m)^k of them for k components whenever m divides psi(n); if that
    exceeds MAX_ROOTS, TooManyRoots is raised before any list or mask is
    built.  An m not dividing psi(n) yields no roots.  `limit` keeps the
    least `limit` roots (the report is then non-exhaustive when more
    exist): on a dense list the mask is read only that far, and where
    the roots are dense enough (_listing) they are found by trial with
    no list.  count_expected is phi(m)^k whenever every prime divides
    into p = m*t + 1 with the t's pairwise coprime; otherwise it is left
    unset.  A negative `limit` raises ValueError.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"root limit {limit} must be >= 0")
    f = n if isinstance(n, Factorization) else factorize(n)
    count, order = _listing(f, m, limit, DENSE)
    return RootSearchReport(
        m_max=halidon_function_psi(f),
        roots_found=_ints(order, limit),
        exhaustive=limit is None or count <= limit,
        count_expected=count if _count_law_holds(f, m) else None,
    )


def _listing(
    f: Factorization, m: int, limit: int | None, dense: int
) -> tuple[int, bytearray | list[int]]:
    """(count, order): the number of primitive m-th roots of Z_n, and
    the least `limit` of them (all without a limit) in ascending order,
    as _ordered(roots, n, dense) gives them.  None unless m divides
    psi(n), and TooManyRoots before any test or list past MAX_ROOTS.

    A test by the criterion takes up to 1 + omega(m) powers of about
    m.bit_length() squarings each, where a listed root takes about one
    product, so the listing weighs as much as `tests` = count //
    ((1 + omega(m)) * m.bit_length()) tests.  Where limit * n <= tests *
    count, those tests hold `limit` roots on average, and the least
    `limit` are found by _trial as a list; only when they find fewer is
    every root listed after all, so the trial never weighs more than the
    listing it would spare.
    """
    n = f.n
    if m == 1:
        return 1, [1]
    if m < 1 or halidon_function_psi(f) % m != 0:
        return 0, []
    primes = _index_primes(m)
    count = _require_list_size(f, m, _phi(m, primes) ** len(f.pairs))
    tests = count // ((1 + len(primes)) * m.bit_length())
    if limit is not None and limit * n <= tests * count:
        least = list(islice(_trial(n, m, primes, tests), limit))
        if len(least) == limit:
            return count, least
    roots = _root_sums(_component_root_sets(f, m, primes), n)
    return count, _ordered(roots, n, dense)


def root_row(
    f: Factorization, m: int, limit: int | None = None
) -> tuple[int, str]:
    """(count, decimal row of the first `limit`) of the roots that
    enumerate_primitive_roots lists: rendered straight from the mask,
    with no int per root, when n <= DENSE_ROW * count, and found by
    trial where _listing takes it."""
    count, order = _listing(f, m, limit, DENSE_ROW)
    if isinstance(order, bytearray):
        return count, mask_row(order, limit)
    return count, decimal_row(order[:limit])


def _count_law_holds(f: Factorization, m: int) -> bool:
    """Whether each p = m*t + 1 with the t's pairwise coprime, where
    Z_n has phi(m)^k roots by the count law."""
    if f.is_even or m < 2:
        return False
    ts = []
    for p in f.primes:
        if (p - 1) % m != 0:
            return False
        ts.append((p - 1) // m)
    for i, a in enumerate(ts):
        for b in ts[i + 1 :]:
            if math.gcd(a, b) != 1:
                return False
    return True
