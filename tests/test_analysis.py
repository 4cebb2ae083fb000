import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halidon import (
    Factorization,
    HalidonRing,
    Residue,
    crt_combine,
    enumerate_primitive_roots,
    euler_phi,
    factorize,
    find_primitive_root,
    halidon_function_psi,
    is_primitive_root_of_unity,
)
from halidon import analysis
from halidon.errors import (
    IndexNotSupported,
    InvalidOmega,
    ModulusMismatch,
    TooManyRoots,
)

from conftest import SMALL_RINGS
from helpers import (
    crt_product_roots,
    definition_roots,
    is_definition_primitive,
    is_divisor_criterion_primitive,
)
from kat_vectors import N257, P202_A, P202_B

FIVE_PRIME = 31 * 61 * 151 * 181 * 211
SIX_PRIME = FIVE_PRIME * 241
SMALL_PRIMES = [p for p in range(3, 200) if all(p % d for d in range(2, p))]
primes_of = analysis._index_primes


@st.composite
def indexed_moduli(draw):
    """(n, m) with 1 to 6 prime-power components, each prime = 1 mod m."""
    m = draw(st.sampled_from([2, 3, 4, 5, 6, 10, 12]))
    pool = [p for p in SMALL_PRIMES if (p - 1) % m == 0]
    k = draw(st.integers(1, 6))
    primes = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
    squarefree = k > 1 and draw(st.booleans())
    n = 1
    for p in primes:
        n *= p ** (1 if squarefree else draw(st.integers(1, 2)))
    return n, m


def split_sums(n: int, w: int) -> tuple[int, int]:
    """(a, b): w restricted to the low half of n's components (the first
    k // 2) and to the high half, each as a residue mod n that is 0 on
    the other half, so that w = a + b mod n."""
    moduli = [p**e for p, e in factorize(n).pairs]
    half = len(moduli) // 2

    def part(keep):
        return crt_combine(
            [Residue(w % q if keep(i) else 0, q) for i, q in enumerate(moduli)]
        ).value

    return part(lambda i: i < half), part(lambda i: i >= half)


class TestPsi:
    def test_session_modulus(self):
        assert halidon_function_psi(factorize(491063)) == 202

    @pytest.mark.parametrize("n", [2, 10, 12, 100, 2048])
    def test_even_is_one(self, n):
        assert halidon_function_psi(factorize(n)) == 1

    def test_prime_square(self):
        assert halidon_function_psi(factorize(49)) == 6

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (7, 13)])
    def test_independent_of_exponents(self, p, q):
        values = {
            halidon_function_psi(factorize(p**a * q**b))
            for a in (1, 2, 3)
            for b in (1, 2, 3)
        }
        assert len(values) == 1
        assert values.pop() == math.gcd(p - 1, q - 1)


class TestCriterion:
    def test_small_ring_root(self):
        assert is_primitive_root_of_unity(49, 6, 19)

    def test_one_is_not_primitive_for_m_above_one(self):
        assert not is_primitive_root_of_unity(49, 6, 1)

    def test_minus_one_mod_15(self):
        assert is_primitive_root_of_unity(15, 2, 14)

    def test_agrees_with_definition_exhaustively(self):
        # every (n, m, w) in a dense small box
        for n in range(2, 122):
            for m in range(1, 11):
                for w in range(n):
                    assert is_primitive_root_of_unity(n, m, w) == \
                        is_definition_primitive(n, m, w), (n, m, w)

    def test_prime_form_agrees_with_every_proper_divisor(self):
        # even n included: gcd(m, n) and the w^(m/q) - 1 units decide
        for n in range(2, 150):
            for m in range(1, 13):
                for w in range(n):
                    assert is_primitive_root_of_unity(n, m, w) == \
                        is_divisor_criterion_primitive(n, m, w), (n, m, w)

    @settings(max_examples=300)
    @given(st.integers(2, 2000), st.integers(1, 20), st.data())
    def test_agrees_with_definition_sampled(self, n, m, data):
        w = data.draw(st.integers(0, n - 1))
        assert is_primitive_root_of_unity(n, m, w) == \
            is_definition_primitive(n, m, w)

    def test_componentwise_characterization(self):
        # for squarefree odd n, primitivity mod n is primitivity mod
        # every prime factor
        for n in (15, 35, 91, 105, 341, 793, 1155, 1891):
            f = factorize(n)
            psi = halidon_function_psi(f)
            for m in (d for d in range(2, psi + 1) if psi % d == 0):
                for w in range(n):
                    left = is_primitive_root_of_unity(n, m, w)
                    right = all(
                        is_primitive_root_of_unity(p, m, w % p)
                        for p in f.primes
                    )
                    assert left == right, (n, m, w)

    def test_homomorphic_image(self):
        for n, m, omega in SMALL_RINGS:
            for d in range(2, n + 1):
                if n % d:
                    continue
                assert is_primitive_root_of_unity(d, m, omega % d), (n, d)

    def test_inverse_root_is_primitive(self, small_ring):
        assert is_primitive_root_of_unity(
            small_ring.n, small_ring.m, small_ring.omega_powers[-1]
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            is_primitive_root_of_unity(49, 6, 49)
        with pytest.raises(ValueError):
            is_primitive_root_of_unity(1, 1, 0)


class TestFindPrimitiveRoot:
    def test_deterministic_is_smallest(self):
        found = find_primitive_root(factorize(49), 6)
        assert found == Residue(19, 49)
        assert definition_roots(49, 6)[0] == 19

    def test_trivial_index(self):
        assert find_primitive_root(factorize(10), 1) == Residue(1, 10)
        assert find_primitive_root(factorize(491063), 1).value == 1

    def test_session_sized_random_draw(self):
        rng = random.Random(7)
        root = find_primitive_root(factorize(491063), 202, rng)
        assert is_primitive_root_of_unity(491063, 202, root.value)

    def test_random_draws_cover_the_set(self):
        f = factorize(49)
        seen = {
            find_primitive_root(f, 6, random.Random(seed)).value
            for seed in range(40)
        }
        assert seen == {19, 31}

    def test_unsupported_index_rejected(self):
        with pytest.raises(IndexNotSupported):
            find_primitive_root(factorize(49), 4)
        with pytest.raises(IndexNotSupported):
            find_primitive_root(factorize(10), 2)

    def test_smallest_matches_scan_on_small_rings(self):
        for n, m, omega in SMALL_RINGS:
            if n > 400:
                continue
            assert find_primitive_root(factorize(n), m).value == \
                definition_roots(n, m)[0] == omega

    @pytest.mark.parametrize("n,m,least", [(91, 3, 9), (FIVE_PRIME, 30, 234549)])
    def test_least_root_from_a_wrapped_sum(self, n, m, least):
        # the two halves of the least root add up past n
        a, b = split_sums(n, least)
        assert a + b >= n
        assert find_primitive_root(factorize(n), m).value == least
        assert enumerate_primitive_roots(n, m).roots_found[0] == least

    @pytest.mark.parametrize("n,m", [(101, 4), (197, 196), (1000003, 1000002)])
    def test_prime_least_root_is_the_least_enumerated(self, n, m):
        # one component: its list's minimum, not a meet-in-the-middle
        least = find_primitive_root(factorize(n), m).value
        assert least == enumerate_primitive_roots(n, m).roots_found[0]

    def test_rsa_sized_roots_factor_only_m(self, monkeypatch):
        # budget 0 stops at the first Pollard-rho step, which factoring
        # either p - 1 would need
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "0")
        f = Factorization(((P202_B, 1), (P202_A, 1)))
        assert N257.bit_length() >= 256
        roots = [
            find_primitive_root(f, 202, random.Random(s)).value
            for s in range(3)
        ]
        roots.append(find_primitive_root(f, 202).value)
        for w in roots:
            assert is_primitive_root_of_unity(N257, 202, w)

    @pytest.mark.parametrize("n,m,draws", [
        (491063, 202, [
            200592, 69293, 60745, 334670, 182313, 351310, 108471, 163544,
            410521, 67714, 11351, 471355, 190346, 153183, 212525, 134304,
            456736, 7679, 386788, 288839,
        ]),
        (FIVE_PRIME, 30, [
            458266450, 2672462892, 10044513704, 4124749808, 6049843887,
            3101633190, 2017559433, 52429763, 3908670632, 6038578901,
            2849482493, 4963729076, 4621610627, 5809316007, 190368531,
            4207018724, 7864033490, 4827052771, 3700266776, 7517328356,
        ]),
    ])
    def test_seeded_draws_are_pinned(self, n, m, draws):
        f = factorize(n)
        assert [
            find_primitive_root(f, m, random.Random(s)).value for s in range(20)
        ] == draws


@st.composite
def prime_power_products(draw):
    """A product of 1 to 3 powers of distinct odd primes below 200, at
    most 2 * 10^5."""
    n, pairs = 1, []
    for p in draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=3, unique=True)):
        e = draw(st.integers(1, 3))
        while e and n * p**e > 2 * 10**5:
            e -= 1
        if e:
            n *= p**e
            pairs.append((p, e))
    return Factorization(tuple(sorted(pairs)))


def counted_tests(monkeypatch) -> list:
    """One entry per root criterion test that analysis makes from now."""
    calls, is_root = [], analysis._is_root

    def counted(*args):
        calls.append(args[-1])
        return is_root(*args)

    monkeypatch.setattr(analysis, "_is_root", counted)
    return calls


def count_trial_tests(m: int, count: int) -> int:
    """The most tests a listing's trial makes: the listing of `count`
    roots over the weight of one test, 1 + omega(m) powers of
    m.bit_length() squarings."""
    return count // ((1 + len(factorize(m).primes)) * m.bit_length())


def no_trial(*args):
    """A _trial that finds nothing, so the lists run after it."""
    return iter(())


class TestLeastRootByTrial:
    """Where roots are dense the least root, and the first K of a
    listing, come from ascending tests of x = 2, 3, ..., at most as many
    as the lists they spare would hold."""

    @settings(max_examples=150, deadline=None)
    @given(prime_power_products())
    @example(factorize(13333))  # least roots past the trial's cap
    @example(factorize(1301))
    def test_either_method_gives_the_first_enumerated_root(self, f):
        n, psi = f.n, analysis.halidon_function_psi(f)
        for m in [d for d in range(2, psi + 1) if psi % d == 0]:
            roots = enumerate_primitive_roots(f, m).roots_found
            assert find_primitive_root(f, m).value == roots[0]
            with mock.patch.object(analysis, "_trial", no_trial):
                assert find_primitive_root(f, m).value == roots[0]
            dense = count_trial_tests(m, len(roots)) * len(roots) // n
            for k in {1, 2, 3, dense, dense + 1, len(roots)} - {0}:
                row = " ".join(map(str, roots[:k]))
                assert analysis.root_row(f, m, k) == (len(roots), row)
                with mock.patch.object(analysis, "_trial", no_trial):
                    assert analysis.root_row(f, m, k) == (len(roots), row)
                cut = enumerate_primitive_roots(f, m, limit=k)
                assert cut.roots_found == roots[:k]
                assert cut.exhaustive == (k >= len(roots))

    @pytest.mark.parametrize("n,m,tests,least", [
        (1000003, 1000002, 1, 2),  # 2 is a root: one test
        (491063, 202, 9, 10),  # 10,000 roots, one per 49 residues
        (FIVE_PRIME, 30, 0, 234549),  # sparse: meet-in-the-middle
        (601 * 811, 10, 0, 27815),
        (13333, 33, 40, 90),  # L = 20 + 20 tests find none: the lists
        (1301, 65, 48, 121),  # L = phi(65) = 48 tests, then the list
    ])
    def test_the_trial_takes_at_most_l_tests(self, monkeypatch, n, m, tests, least):
        f = factorize(n)
        calls = counted_tests(monkeypatch)
        assert find_primitive_root(f, m).value == least
        assert calls == list(range(2, tests + 2))
        assert enumerate_primitive_roots(f, m).roots_found[0] == least

    @pytest.mark.parametrize("n,m,k,tests", [
        (1000003, 1000002, 3, 6),  # 2, 5 and 7 are the least roots
        (1000003, 1000002, 1000, 2966),  # under the cap of 4166 tests
        (1000003, 1000002, 100000, 0),  # 10^5 * n > 4166 * 333332
        (491063, 202, 3, 44),  # 10, 33 and 45
        (491063, 202, 8, 230),  # the most under the cap of 416 tests
        (491063, 202, 9, 0),  # 9 * n > 416 * 10000: the list at once
        (491063, 202, 203, 0),
        (167, 166, 1, 3),  # 2, 3 and 4 are no roots: the list after all
        (FIVE_PRIME, 30, 3, 0),
    ])
    def test_a_count_weighs_no_more_than_its_listing(self, monkeypatch, n, m, k, tests):
        f = factorize(n)
        roots = enumerate_primitive_roots(f, m).roots_found
        calls = counted_tests(monkeypatch)
        assert analysis.root_row(f, m, k) == (len(roots), " ".join(map(str, roots[:k])))
        assert len(calls) == tests <= count_trial_tests(m, len(roots))
        assert calls == list(range(2, tests + 2))

    def test_the_cap_is_checked_before_any_test(self, monkeypatch):
        # 333,332 roots of 1000003 under a cap of 1000: no test is made
        f = factorize(1000003)
        calls = counted_tests(monkeypatch)
        monkeypatch.setattr(analysis, "MAX_ROOTS", 1000)
        for search in (
            lambda: find_primitive_root(f, 1000002),
            lambda: analysis.root_row(f, 1000002, 3),
        ):
            with pytest.raises(TooManyRoots):
                search()
        assert calls == []

    def test_m_is_factored_once_per_query(self, monkeypatch):
        factored, real = [], analysis.factorize
        monkeypatch.setattr(analysis, "factorize", lambda n: factored.append(n) or real(n))
        for n, m in ((FIVE_PRIME, 30), (601 * 811, 10), (491063, 202), (13333, 33)):
            find_primitive_root(real(n), m)
            analysis.root_row(real(n), m, 3)
            assert factored == [m, m]
            factored.clear()


class TestEnumerate:
    def test_small_ring_census(self):
        report = enumerate_primitive_roots(49, 6)
        assert report.roots_found == (19, 31)
        assert report.exhaustive
        assert report.count_expected == 2
        assert report.m_max == 6

    def test_matches_definition_scan(self):
        for n, m, _ in SMALL_RINGS:
            if n > 400:
                continue
            report = enumerate_primitive_roots(n, m)
            assert list(report.roots_found) == definition_roots(n, m)

    def test_trivial_index(self):
        report = enumerate_primitive_roots(10, 1)
        assert report.roots_found == (1,)
        assert report.m_max == 1

    def test_even_modulus_above_one_is_empty(self):
        report = enumerate_primitive_roots(10, 2)
        assert report.roots_found == ()
        assert report.exhaustive

    def test_limit_truncates_ascending(self):
        full = enumerate_primitive_roots(341, 10)
        cut = enumerate_primitive_roots(341, 10, limit=3)
        assert cut.roots_found == full.roots_found[:3]
        assert not cut.exhaustive
        assert full.exhaustive

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="root limit -3 must be >= 0"):
            enumerate_primitive_roots(341, 10, limit=-3)
        assert enumerate_primitive_roots(341, 10, limit=0).roots_found == ()

    def test_count_law_when_offsets_coprime(self):
        # 91 = 7 * 13, index 6, offsets (1, 2): expected phi(6)^2 = 4
        report = enumerate_primitive_roots(91, 6)
        assert report.count_expected == 4
        assert len(report.roots_found) == 4

    def test_count_unset_when_offsets_share_a_factor(self):
        # 793 = 13 * 61, index 6, offsets (2, 10) share the factor 2
        report = enumerate_primitive_roots(793, 6)
        assert report.count_expected is None
        assert list(report.roots_found) == definition_roots(793, 6)

    def test_session_census(self):
        report = enumerate_primitive_roots(491063, 202)
        assert len(report.roots_found) == 10000
        assert report.count_expected == 10000
        assert 239823 in report.roots_found
        assert report.exhaustive

    def test_accepts_a_factorization(self):
        assert enumerate_primitive_roots(factorize(1891), 30) == \
            enumerate_primitive_roots(1891, 30)

    @settings(max_examples=80, deadline=None)
    @given(indexed_moduli())
    @example((7**2, 6))
    @example((91, 3))
    @example((11 * 31 * 41, 10))
    @example((3 * 5 * 7 * 11 * 13 * 17, 2))
    def test_matches_product_oracle(self, case):
        n, m = case
        f = factorize(n)
        roots = list(enumerate_primitive_roots(f, m).roots_found)
        assert len(roots) == euler_phi(factorize(m)) ** len(f.pairs)
        assert roots == crt_product_roots(n, m)
        if n <= 5000:
            assert roots == definition_roots(n, m)
        assert find_primitive_root(f, m).value == roots[0]

    def test_six_prime_product(self):
        f = factorize(SIX_PRIME)
        roots = enumerate_primitive_roots(f, 30).roots_found
        assert len(roots) == 8**6
        assert all(a < b for a, b in zip(roots, roots[1:]))
        assert find_primitive_root(f, 30).value == roots[0]
        for w in roots[::4099]:
            assert is_primitive_root_of_unity(SIX_PRIME, 30, w)


def sorted_roots(f: Factorization, m: int) -> list[int]:
    """Every primitive m-th root of Z_n by the sort that _ordered
    replaces for dense lists."""
    return sorted(analysis._root_sums(analysis._component_root_sets(f, m, primes_of(m)), f.n))


def sorted_draw(f: Factorization, m: int, seed: int) -> int:
    """find_primitive_root(f, m, Random(seed)) by the per-component sort
    that _ordered replaces for dense lists."""
    rng = random.Random(seed)
    components = analysis._component_root_sets(f, m, primes_of(m))
    return sum(rng.choice(sorted(roots)) * e for e, roots in components) % f.n


class TestAscending:
    """The ordering helper against sorted() on both sides of DENSE, and
    every root listing through it against the sort path."""

    DENSE_CASES = [
        (101, 100), (101, 50), (197, 196), (10007, 10006), (1000003, 1000002),
    ]
    SPARSE_CASES = [
        (7**2, 6), (13**2, 12), (11**3, 10), (91, 6), (491063, 202),
        (601 * 811, 30), (FIVE_PRIME, 30),
    ]

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["dense", "boundary", "past-boundary", "sparse"]),
        st.integers(0, 400),
        st.randoms(use_true_random=False),
        st.data(),
    )
    def test_equals_the_sort(self, side, count, rng, data):
        dense = analysis.DENSE * count
        bound = {
            "dense": lambda: data.draw(st.integers(count, dense)),
            "boundary": lambda: dense,
            "past-boundary": lambda: dense + 1,
            "sparse": lambda: data.draw(st.integers(dense + 1, 4 * dense + 2)),
        }[side]()
        assert (bound <= dense) == (side in ("dense", "boundary"))
        values = rng.sample(range(bound), count)
        limit = data.draw(st.none() | st.integers(0, count + 1))
        got = analysis._ints(analysis._ordered(list(values), bound), limit)
        assert got == tuple(sorted(values)[:limit])

    @pytest.mark.parametrize("n,m", DENSE_CASES + SPARSE_CASES)
    def test_listings_match_the_sort_path(self, n, m):
        f = factorize(n)
        expected = sorted_roots(f, m)
        assert (n <= analysis.DENSE * len(expected)) == ((n, m) in self.DENSE_CASES)
        full = enumerate_primitive_roots(f, m)
        assert full.roots_found == tuple(expected) and full.exhaustive
        for k in {0, 1, 3, len(expected) - 1} & set(range(len(expected))):
            cut = enumerate_primitive_roots(f, m, limit=k)
            assert cut.roots_found == tuple(expected[:k])
            assert not cut.exhaustive
        for k in (len(expected), len(expected) + 5):
            assert enumerate_primitive_roots(f, m, limit=k) == full

    @pytest.mark.parametrize("n,m", DENSE_CASES + SPARSE_CASES)
    def test_seeded_draws_match_the_sort_path(self, n, m):
        f = factorize(n)
        seeds = range(3) if n > 10**5 else range(12)
        assert [
            find_primitive_root(f, m, random.Random(s)).value for s in seeds
        ] == [sorted_draw(f, m, s) for s in seeds]


class TestPrimePowerComponents:
    """The wheel walk at e > 1, for m = 2 mod 4, 4 | m and odd m: wheels
    w = gcd(m, 6) of 1, 2, 3 and 6."""

    CASES = [
        (3, 4, 2), (7, 3, 6), (11, 2, 10), (19, 2, 18),  # m = 2 mod 4
        (5, 3, 4), (13, 2, 12), (17, 2, 8), (17, 2, 16),  # 4 | m
        (7, 2, 3), (11, 3, 5), (31, 2, 15), (19, 2, 9),  # m odd
    ]

    @pytest.mark.parametrize("p,e,m", CASES)
    def test_component_is_the_coprime_powers_in_walk_order(self, p, e, m):
        roots = analysis._component_roots(p, e, m, primes_of(m))
        z, pe = roots[0], p**e  # j = 1 is always kept
        assert roots == [
            pow(z, j, pe) for j in range(1, m + 1) if math.gcd(j, m) == 1
        ]
        assert sorted(roots) == crt_product_roots(pe, m)

    @pytest.mark.parametrize("p,e,m", CASES)
    def test_prime_power_matches_product_oracle(self, p, e, m):
        n = p**e
        roots = list(enumerate_primitive_roots(n, m).roots_found)
        assert roots == crt_product_roots(n, m)
        assert find_primitive_root(factorize(n), m).value == roots[0]
        draws = {
            find_primitive_root(factorize(n), m, random.Random(s)).value
            for s in range(10)
        }
        assert draws <= set(roots)

    @pytest.mark.parametrize("n,m", [
        (7**2 * 13**2, 6), (5**2 * 13 * 17**2, 4), (7**2 * 13 * 19**2, 3),
    ])
    def test_products_of_prime_powers_match_product_oracle(self, n, m):
        roots = list(enumerate_primitive_roots(n, m).roots_found)
        assert roots == crt_product_roots(n, m)
        assert find_primitive_root(factorize(n), m).value == roots[0]


class TestComponentWalk:
    """The baby-step/giant-step walk against plain powering, every index."""

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_every_index_of_every_prime_below_200(self, e):
        halves = set()
        counts = {1: set(), 2: set(), 3: set(), 6: set()}
        for p in [2, *SMALL_PRIMES]:
            pe = p**e
            for m in range(1, p):
                if (p - 1) % m:
                    continue
                roots = analysis._component_roots(p, e, m, primes_of(m))
                z = roots[0]
                assert roots == [
                    pow(z, j, pe) for j in range(1, m + 1)
                    if math.gcd(j, m) == 1
                ], (p, e, m)
                assert pow(z, m, pe) == 1
                assert all(pow(z, d, pe) != 1 for d in range(1, m))
                halves.add(m // 2 if m % 2 == 0 else m)
                counts[math.gcd(m, 6)].add(m // math.gcd(m, 6))
        # the edges of the giant steps, which take isqrt of the count
        # m/w of exponents on the wheel w = gcd(m, 6): a count of 1, a
        # square and one past a square, on every wheel; and the halves
        # of m that the walk took before the wheel
        assert {1, 4, 5, 9, 10, 49, 50} <= halves
        for w, seen in counts.items():
            assert 1 in seen, w
            assert any(c > 1 and c == math.isqrt(c) ** 2 for c in seen), w
            assert any(
                c > 2 and c - 1 == math.isqrt(c - 1) ** 2 for c in seen
            ), w

    def test_dense_prime_samples_plain_powers(self):
        # 1000002 = 2 * 3 * 166667: wheel 6, 166,667 exponents on it, and
        # 2 the least element of order 1000002
        p, m = 1000003, 1000002
        roots = analysis._component_roots(p, 1, m, primes_of(m))
        z = next(
            x for x in range(2, p)
            if all(pow(x, m // q, p) != 1 for q in (2, 3, 166667))
        )
        assert len(roots) == 333332 == euler_phi(factorize(m))
        assert roots[0] == z
        kept = [j for j in range(1, m + 1) if math.gcd(j, m) == 1]
        for i in range(0, len(kept), 1009):
            assert roots[i] == pow(z, kept[i], p), kept[i]


class TestRootSums:
    """Sums of two or more components come out ascending; a single
    component comes out as walked."""

    @pytest.mark.parametrize("n,m", [
        (FIVE_PRIME, 30), (491063, 202), (601 * 811, 30), (7**2 * 13**2, 6),
    ])
    def test_many_components_are_ascending(self, n, m):
        f = factorize(n)
        components = analysis._component_root_sets(f, m, primes_of(m))
        assert len(components) >= 2
        assert analysis._root_sums(components, n) == crt_product_roots(n, m)

    @pytest.mark.parametrize("n,m", [(1000003, 1000002), (13**2, 12), (91, 6)])
    def test_one_component_keeps_walk_order(self, n, m):
        f = factorize(n)
        components = analysis._component_root_sets(f, m, primes_of(m))
        for (p, e), component in zip(f.pairs, components):
            idempotent, roots = component
            assert roots == analysis._component_roots(p, e, m, primes_of(m))
            assert analysis._root_sums([component], n) == [
                r * idempotent % n for r in roots
            ]
        if len(f.pairs) == 1:
            roots = analysis._component_roots(*f.pairs[0], m, primes_of(m))
            assert roots != sorted(roots)


class TestRootCap:
    def test_default_cap_admits_a_million_roots(self):
        assert analysis.MAX_ROOTS >= 10**6

    def test_large_prime_fails_before_building(self):
        with pytest.raises(TooManyRoots) as info:
            enumerate_primitive_roots(1000000007, 1000000006)
        assert info.value.count == 500000002
        assert info.value.cap == analysis.MAX_ROOTS
        with pytest.raises(TooManyRoots):
            find_primitive_root(factorize(1000000007), 1000000006)

    def test_each_list_is_checked(self, monkeypatch):
        # FIVE_PRIME at m = 30: 8 roots per component, halves of 64 and
        # 512 sums, 32768 roots in all
        f = factorize(FIVE_PRIME)
        monkeypatch.setattr(analysis, "MAX_ROOTS", 512)
        with pytest.raises(TooManyRoots) as info:
            enumerate_primitive_roots(f, 30)
        assert info.value.count == 8**5
        assert find_primitive_root(f, 30).value == 234549
        monkeypatch.setattr(analysis, "MAX_ROOTS", 511)
        with pytest.raises(TooManyRoots) as info:
            find_primitive_root(f, 30)
        assert info.value.count == 512
        monkeypatch.setattr(analysis, "MAX_ROOTS", 8)
        assert find_primitive_root(f, 30, random.Random(0)).value == 458266450


class TestDivisorIndex:
    # omega^(m/k) is a primitive k-th root for every k | m
    def test_cube_root_from_sixth(self, z49):
        assert pow(z49.omega, 2, 49) == 18
        assert is_primitive_root_of_unity(49, 3, 18)

    def test_square_root_from_sixth(self, z49):
        assert pow(z49.omega, 3, 49) == 48
        assert is_primitive_root_of_unity(49, 2, 48)

    def test_every_divisor_on_small_rings(self, small_ring):
        n, m, omega = small_ring.n, small_ring.m, small_ring.omega
        for k in range(1, m + 1):
            if m % k == 0:
                assert is_primitive_root_of_unity(n, k, pow(omega, m // k, n))


class TestMaxIndex:
    # analyze's maximal index psi(n) and its least primitive root
    def test_small_ring(self):
        f = factorize(49)
        assert halidon_function_psi(f) == 6
        assert find_primitive_root(f, 6) == Residue(19, 49)

    def test_even(self):
        f = factorize(10)
        assert halidon_function_psi(f) == 1
        assert find_primitive_root(f, 1) == Residue(1, 10)

    def test_session_modulus(self):
        f = factorize(491063)
        assert halidon_function_psi(f) == 202
        report = enumerate_primitive_roots(491063, 202)
        assert find_primitive_root(f, 202).value == report.roots_found[0]


class TestHalidonRing:
    def test_create_rejects_non_roots(self):
        with pytest.raises(InvalidOmega):
            HalidonRing.create(49, 6, 20)

    def test_create_accepts_a_residue_of_its_modulus(self):
        ring = HalidonRing.create(49, 6, Residue(19, 49))
        assert ring == HalidonRing.create(49, 6, 19)
        assert ring.omega == 19

    def test_create_rejects_a_residue_of_another_modulus(self):
        with pytest.raises(ModulusMismatch):
            HalidonRing.create(49, 6, Residue(19, 91))

    def test_power_tables(self, z49):
        assert z49.omega_powers == (1, 19, 18, 48, 30, 31)
        assert z49.omega_powers[-1] == 31
        assert z49.m_inverse == 41

    def test_inverse_powers_read_off_the_powers(self, small_ring):
        # omega^-k = omega^(m-k): no inverse is computed
        n, m, w = small_ring.n, small_ring.m, small_ring.omega
        assert small_ring.omega_powers[-1] == pow(w, -1, n)
        assert small_ring.omega_inverse_powers == tuple(
            pow(w, -k, n) for k in range(m)
        )

    def test_index_one_tables(self):
        ring = HalidonRing.create(7, 1, 8)
        assert ring.omega_powers == ring.omega_inverse_powers == (1,)

    @pytest.mark.parametrize("n", [0, 1, -5])
    def test_create_refuses_a_modulus_below_two(self, n):
        with pytest.raises(ValueError, match=f"bad arguments n={n}, m=6"):
            HalidonRing.create(n, 6, 19)

    def test_orthogonality_sums(self, small_ring):
        # sum over r of omega^(r k) is m at k = 0 mod m and 0 otherwise
        n, m, w = small_ring.n, small_ring.m, small_ring.omega
        for k in range(2 * m):
            total = sum(pow(w, r * k, n) for r in range(m)) % n
            assert total == (m % n if k % m == 0 else 0)
