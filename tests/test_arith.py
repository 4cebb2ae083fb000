import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halidon import (
    Factorization,
    Residue,
    crt_combine,
    divisors,
    euler_phi,
    factorize,
    is_probable_prime,
)
from halidon import arith
from halidon.errors import FactorizationTimeout, NonCoprimeModuli

from helpers import trial_factor


def _primes_around_chunk_ends() -> list[tuple[int, int]]:
    """(largest prime <= end, least prime > end) for every chunk end of
    trial division while the chunk widths, not isqrt(n), bound them."""
    ends, d, width = [], 5, arith._FIRST_TRIAL_CHUNK
    while d <= arith._TRIAL_DIVISION_LIMIT:
        top = min(arith._TRIAL_DIVISION_LIMIT, d + width)
        ends.append(top)
        d, width = top + 1 + (4 - top) % 6, 2 * width
    out = []
    for end in ends:
        low = next(p for p in range(end, 1, -1) if is_probable_prime(p))
        high = next(
            p for p in range(end + 1, 2 * end) if is_probable_prime(p)
        )
        out.append((low, high))
    return out


class TestResidue:
    def test_normalizes_on_construction(self):
        assert Residue(100, 49).value == 2
        assert Residue(-1, 49).value == 48

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            Residue(0, 1)


class TestFactorize:
    def test_session_modulus(self):
        assert factorize(491063).pairs == ((607, 1), (809, 1))

    def test_prime_power(self):
        assert factorize(49).pairs == ((7, 2),)

    def test_ten_point_modulus_matches_trial_division(self):
        assert factorize(100001).pairs == tuple(trial_factor(100001))
        assert factorize(100001).pairs == ((11, 1), (9091, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 360, 2**20, 3 * 5 * 7 * 11 * 13])
    def test_matches_trial_division(self, n):
        assert factorize(n).pairs == tuple(trial_factor(n))

    def test_reconstructs_and_certifies(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            f = factorize(n)
            assert f.n == n
            assert all(is_probable_prime(p) for p in f.primes)
            assert list(f.primes) == sorted(set(f.primes))

    def test_large_semiprime_via_rho(self):
        p, q = 1000000007, 1000000009
        assert factorize(p * q).pairs == ((p, 1), (q, 1))

    def test_budget_exhaustion(self):
        p, q = 1000000007, 1000000009
        with pytest.raises(FactorizationTimeout):
            factorize(p * q, budget=5)

    def test_timeout_reports_n_budget_and_iterations_used(self):
        # two rho calls split off factors, the third runs out on a
        # cofactor: the report names the caller's n and the whole budget
        n = 1000000007 * 998244353 * 1000000009 * 999999937
        with pytest.raises(FactorizationTimeout) as info:
            factorize(n, budget=30000)
        err = info.value
        assert (err.n, err.budget, err.exit_code) == (n, 30000, 3)
        assert 30000 < err.used <= 30000 + 128
        assert str(err) == (
            f"factoring {n} stopped after {err.used} Pollard-rho iterations "
            "against a budget of 30000 (HALIDON_FACTOR_BUDGET sets it)"
        )

    def test_matches_trial_division_at_the_chunk_boundaries(self):
        cases = []
        for low, high in _primes_around_chunk_ends():
            cases += [low * high, low**2, high**2, low**3, high**3]
            # a prime cofactor past the limit keeps isqrt(n) from
            # bounding the chunks, so the widths decide where they end
            cases += [low * high * 1000003, low**2 * 1000003]
        for n in cases:
            assert factorize(n).pairs == tuple(trial_factor(n)), n

    @pytest.mark.parametrize("n", [
        999983 * 1000003,  # one prime on either side of the trial limit
        5**20,
        25 * 49 * 121,
        999983**2,
        7 * 999983 * 1000003,
    ])
    def test_matches_trial_division_at_the_limit(self, n):
        assert factorize(n).pairs == tuple(trial_factor(n))

    def test_matches_trial_division_on_random_n(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randrange(2, 10**12 + 1)
            assert factorize(n).pairs == tuple(trial_factor(n)), n

    def test_primes_below_the_limit_need_no_rho_step(self, monkeypatch):
        # one rho step would exceed this budget
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "1")
        ends = _primes_around_chunk_ends()
        primes = [p for pair in ends for p in pair if p < 10**6]
        rng = random.Random(4)
        for _ in range(60):
            chosen = rng.sample(primes, rng.randrange(1, 4))
            n = math.prod(p ** rng.randrange(1, 3) for p in chosen)
            assert factorize(n).pairs == tuple(trial_factor(n)), n
        assert factorize(999983 * 999979).pairs == ((999979, 1), (999983, 1))
        with pytest.raises(FactorizationTimeout):
            factorize(1000003 * 1000033)  # both past the limit

    @pytest.mark.parametrize("p", [10**12 + 39, 10**18 + 3, 2**89 - 1])
    def test_a_prime_past_the_limit_squared_runs_no_trial_chunk(
        self, monkeypatch, p
    ):
        # every trial chunk bounds itself by isqrt of what is left of n
        isqrt, calls = math.isqrt, []
        monkeypatch.setattr(math, "isqrt", lambda x: calls.append(x) or isqrt(x))
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "0")
        assert factorize(p).pairs == ((p, 1),)
        assert factorize(12 * p).pairs == ((2, 2), (3, 1), (p, 1))
        assert calls == []
        assert factorize(5 * p).pairs == ((5, 1), (p, 1))
        assert calls  # a composite cofactor still goes to the trial stage

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            factorize(1)


class TestFactorizationType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Factorization(((4, 1),))  # not prime
        with pytest.raises(ValueError):
            Factorization(((5, 1), (3, 1)))  # not ascending
        with pytest.raises(ValueError):
            Factorization(((3, 0),))  # bad exponent

    def test_factorize_certifies_each_prime_once(self, monkeypatch):
        # trial division certifies 2 and 101, so building the result
        # runs no Miller-Rabin round; the public constructor still checks
        calls = []
        real = arith.is_probable_prime

        def counted(n, *args):
            calls.append(n)
            return real(n, *args)

        monkeypatch.setattr(arith, "is_probable_prime", counted)
        f = factorize(202)
        assert calls == []
        assert f == Factorization(((2, 1), (101, 1)))
        assert calls == [2, 101]
        with pytest.raises(ValueError, match="4 is not prime"):
            Factorization(((2, 1), (4, 1)))

    def test_str_form(self):
        assert str(factorize(49)) == "7^2"
        assert str(factorize(10)) == "2 * 5"


class TestEulerPhi:
    def test_session_modulus(self):
        assert euler_phi(factorize(491063)) == 489648

    def test_prime(self):
        assert euler_phi(factorize(809)) == 808

    def test_prime_square(self):
        assert euler_phi(factorize(49)) == 42

    def test_matches_count(self):
        for n in [2, 3, 12, 49, 100, 341, 1891]:
            count = sum(1 for x in range(n) if math.gcd(x, n) == 1)
            assert euler_phi(factorize(n)) == count


class TestCrtCombine:
    def test_exhaustive_small(self):
        combined = crt_combine([Residue(2, 3), Residue(3, 5)])
        expected = [x for x in range(15) if x % 3 == 2 and x % 5 == 3]
        assert [combined.value] == expected
        assert combined.modulus == 15

    def test_single_pair(self):
        r = Residue(7, 11)
        assert crt_combine([r]) == r

    def test_session_round_trip(self):
        parts = [Residue(239823 % 607, 607), Residue(239823 % 809, 809)]
        assert crt_combine(parts) == Residue(239823, 491063)

    def test_non_coprime_rejected(self):
        with pytest.raises(NonCoprimeModuli, match="^moduli 6 and 9 share factor 3$"):
            crt_combine([Residue(1, 6), Residue(1, 9)])

    @given(st.integers(0, 10**9), st.lists(st.sampled_from([3, 5, 7, 11, 13, 16]), min_size=1, unique=True))
    def test_reduce_then_recombine(self, x, mods):
        total = math.prod(mods)
        x %= total
        parts = [Residue(x % m, m) for m in mods]
        assert crt_combine(parts).value == x


class TestIsProbablePrime:
    def test_session_primes(self):
        assert is_probable_prime(607)
        assert is_probable_prime(809)

    def test_one_is_not_prime(self):
        assert not is_probable_prime(1)

    def test_cofactor_prime(self):
        assert is_probable_prime(9091)

    def test_matches_trial_division_below_10k(self):
        def naive(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(10000):
            assert is_probable_prime(n) == naive(n), n

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 6601, 8911, 62745])
    def test_carmichael_numbers_rejected(self, n):
        assert not is_probable_prime(n)

    def test_large_known_prime(self):
        assert is_probable_prime(2**89 - 1)
        assert not is_probable_prime((2**89 - 1) * (2**61 - 1))

    def test_large_check_is_repeatable_and_leaves_global_random_alone(self):
        state = random.getstate()
        answers = {is_probable_prime(2**89 - 1) for _ in range(2)}
        composite = (2**89 - 1) * (2**61 - 1)
        answers |= {not is_probable_prime(composite) for _ in range(2)}
        assert answers == {True}
        assert random.getstate() == state


class TestDivisors:
    def test_basic(self):
        assert divisors(1) == [1]
        assert divisors(6) == [1, 2, 3, 6]
        assert divisors(202) == [1, 2, 101, 202]

    @settings(max_examples=50)
    @given(st.integers(1, 20000))
    def test_matches_scan(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
