import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halidon import (
    Residue,
    euler_phi,
    factorize,
    keygen,
    read_private_key,
    read_public_key,
    rsa_decrypt,
    rsa_encrypt,
    write_private_key,
    write_public_key,
)
from halidon import arith, rsa
from halidon.errors import (
    BadPrime,
    HalidonError,
    IndexNotSupported,
    MalformedFile,
    ModulusMismatch,
    NotCoprime,
)

import kat_vectors as kat


@pytest.fixture(scope="module")
def session_keys():
    return keygen(
        kat.SESSION_PRIMES, (1, 1), e=kat.SESSION_E, m=kat.SESSION_M
    )


class TestKeygen:
    def test_session_key_material(self, session_keys):
        pub, priv = session_keys
        assert pub.n == priv.n == kat.SESSION_N
        assert priv.phi == kat.SESSION_PHI
        assert priv.d == kat.SESSION_D
        assert pub.m == priv.m == kat.SESSION_M

    def test_tiny_pair(self):
        pub, priv = keygen((3, 5), (1, 1), e=3)
        assert pub.n == 15
        assert priv.phi == 8
        assert priv.d == 3
        assert pub.m == 2  # psi(15)

    def test_default_exponent_is_smallest_coprime(self):
        pub, _ = keygen((3, 5), (1, 1))
        assert pub.e == 3
        pub, _ = keygen((7, 13), (1, 1))  # phi = 72
        assert pub.e == 5

    def test_default_m_is_psi(self):
        pub, _ = keygen((607, 809), (1, 1), e=361123)
        assert pub.m == 202

    def test_index_must_divide_psi(self):
        with pytest.raises(IndexNotSupported):
            keygen((607, 809), (1, 1), e=361123, m=100)

    @pytest.mark.parametrize("m", [5, 0, -1])
    def test_index_refusal_is_require_index(self, m):
        # the rule and the message of analysis.require_index
        with pytest.raises(
            IndexNotSupported,
            match=rf"^index {m} does not divide psi\(91\) = 6$",
        ):
            keygen((7, 13), (1, 1), m=m)

    def test_bad_primes_rejected(self):
        with pytest.raises(BadPrime):
            keygen((2, 5), (1, 1))  # even
        with pytest.raises(BadPrime):
            keygen((9, 5), (1, 1))  # composite
        with pytest.raises(BadPrime):
            keygen((5, 5), (1, 1))  # repeated
        with pytest.raises(BadPrime):
            keygen((5,), (0,))  # bad exponent

    @pytest.mark.parametrize(
        "primes, exps",
        [((3, 5), (1,)), ((3,), (1, 1)), ((), ())],
        ids=["fewer-exps", "fewer-primes", "empty"],
    )
    def test_primes_and_exponents_must_pair_up(self, primes, exps):
        with pytest.raises(
            BadPrime,
            match=r"^primes and exponents must pair up and be non-empty$",
        ):
            keygen(primes, exps)

    def test_non_coprime_exponent_rejected(self):
        with pytest.raises(NotCoprime):
            keygen((3, 5), (1, 1), e=4)  # gcd(4, 8) = 2

    @pytest.mark.parametrize("e", [0, -1, -361123])
    def test_exponent_below_one_rejected(self, e):
        # a key with e = -1 was written, and its own reader refused it
        with pytest.raises(HalidonError) as info:
            keygen((607, 809), (1, 1), e=e)
        assert info.value.exit_code == 2
        assert str(info.value) == f"public exponent e = {e} must be >= 1"

    def test_each_prime_is_certified_once(self, monkeypatch):
        # keygen's own check certifies the primes, so building the
        # factorization runs no second Miller-Rabin test
        calls = []
        real = arith.is_probable_prime

        def counted(n, *args):
            calls.append(n)
            return real(n, *args)

        monkeypatch.setattr(arith, "is_probable_prime", counted)
        monkeypatch.setattr(rsa, "is_probable_prime", counted)
        pub, priv = keygen((809, 607, 101), (1, 2, 1), e=kat.SESSION_E)
        assert sorted(calls) == [101, 607, 809]
        assert priv.factorization.pairs == ((101, 1), (607, 2), (809, 1))
        assert pub.n == 101 * 607**2 * 809

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.sampled_from([3, 5, 7, 11, 13, 31, 61, 101, 151, 211]),
                st.integers(1, 3),
            ),
            min_size=1, max_size=3, unique_by=lambda pair: pair[0],
        ),
        e=st.none() | st.integers(-5, 20),
        m=st.none() | st.integers(-1, 12),
    )
    @example(pairs=[(3, 1), (5, 1)], e=-1, m=None)
    def test_every_accepted_key_reads_back(self, tmp_path_factory, pairs, e, m):
        primes, exps = zip(*pairs)
        try:
            pub, priv = keygen(primes, exps, e=e, m=m)
        except HalidonError:
            return
        folder = tmp_path_factory.mktemp("keys")
        write_public_key(pub, folder / "public.key")
        write_private_key(priv, folder / "private.key")
        assert read_public_key(folder / "public.key") == pub
        assert read_private_key(folder / "private.key") == priv

    def test_ed_congruence_random(self):
        rng = random.Random(2)
        primes = [p for p in range(3, 500) if factorize(p).pairs == ((p, 1),)]
        for _ in range(25):
            p, q = rng.sample(primes, 2)
            exps = (rng.randrange(1, 3), rng.randrange(1, 3))
            pub, priv = keygen((p, q), exps)
            assert pub.e * priv.d % priv.phi == 1
            assert priv.factorization.n == pub.n
            assert euler_phi(priv.factorization) == priv.phi


class TestScalarRoundTrip:
    def test_session_values(self, session_keys):
        pub, priv = session_keys
        assert rsa_encrypt(pub, kat.SESSION_OMEGA).value == kat.SESSION_C
        assert rsa_decrypt(priv, kat.SESSION_C).value == kat.SESSION_OMEGA

    def test_fixed_points(self, session_keys):
        pub, priv = session_keys
        assert rsa_encrypt(pub, 1).value == 1
        assert rsa_encrypt(pub, 0).value == 0
        assert rsa_decrypt(priv, 1).value == 1

    def test_squarefree_all_residues(self):
        # squarefree modulus: x^(ed) = x for every x, unit or not
        for primes in ((3, 5), (5, 7), (3, 11, 17)):
            pub, priv = keygen(primes, (1,) * len(primes))
            for x in range(pub.n):
                assert rsa_decrypt(priv, rsa_encrypt(pub, x)).value == x

    def test_squarefree_sample_below_10k(self):
        rng = random.Random(8)
        for primes in ((59, 61), (83, 89), (97, 101)):
            pub, priv = keygen(primes, (1, 1))
            assert pub.n <= 10**4
            for _ in range(300):
                x = rng.randrange(pub.n)
                assert rsa_decrypt(priv, rsa_encrypt(pub, x)).value == x

    @pytest.mark.parametrize("primes,exps", [((3,), (2,)), ((3,), (3,)), ((7,), (2,))])
    def test_repeated_prime_units_only(self, primes, exps):
        # n in {9, 27, 49}: the round trip is guaranteed on units only
        pub, priv = keygen(primes, exps, m=1)
        n = pub.n
        for x in range(n):
            round_tripped = rsa_decrypt(priv, rsa_encrypt(pub, x)).value
            if math.gcd(x, n) == 1:
                assert round_tripped == x
        # and it genuinely fails off the units: the classic case
        if n == 9:
            assert rsa_decrypt(priv, rsa_encrypt(pub, 3)).value != 3

    def test_nine_counterexample_documented(self):
        # x = 3, n = 9: x^(ed) = 0 because ed > 2 makes x^(ed) a
        # multiple of 9; the all-residues claim needs squarefree n
        pub, priv = keygen((3,), (2,), e=5, m=1)
        assert rsa_decrypt(priv, rsa_encrypt(pub, 3)).value == 0

    def test_residue_inputs_checked(self, session_keys):
        pub, priv = session_keys
        assert rsa_encrypt(pub, Residue(kat.SESSION_OMEGA, pub.n)).value == kat.SESSION_C
        with pytest.raises(ModulusMismatch):
            rsa_encrypt(pub, Residue(1, 15))
        with pytest.raises(ValueError):
            rsa_encrypt(pub, pub.n)


class TestKeyFiles:
    def test_public_bytes_exact(self, session_keys, tmp_path):
        pub, _ = session_keys
        path = tmp_path / "public.key"
        write_public_key(pub, path)
        assert path.read_bytes() == (
            b"HALIDON-RSA PUBLIC v1\nn=491063\ne=361123\nm=202\n"
        )

    def test_private_bytes_exact(self, session_keys, tmp_path):
        _, priv = session_keys
        path = tmp_path / "private.key"
        write_private_key(priv, path)
        assert path.read_bytes() == (
            b"HALIDON-RSA PRIVATE v1\nn=491063\nd=18523\nphi=489648\n"
            b"m=202\nfactors=607^1,809^1\n"
        )

    def test_round_trip(self, session_keys, tmp_path):
        pub, priv = session_keys
        write_public_key(pub, tmp_path / "p.key")
        write_private_key(priv, tmp_path / "s.key")
        assert read_public_key(tmp_path / "p.key") == pub
        assert read_private_key(tmp_path / "s.key") == priv

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "x.key"
        path.write_text("NOT A KEY\nn=5\ne=3\nm=1\n")
        with pytest.raises(MalformedFile) as info:
            read_public_key(path)
        assert info.value.line == 1

    def test_wrong_field_order_rejected(self, tmp_path):
        path = tmp_path / "x.key"
        path.write_text("HALIDON-RSA PUBLIC v1\ne=3\nn=5\nm=1\n")
        with pytest.raises(MalformedFile) as info:
            read_public_key(path)
        assert info.value.line == 2

    # "²" passes str.isdigit() but not int(); "٣" passes both, as 3.
    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["sup2", "arabic3"])
    def test_public_fields_are_ascii_decimals(self, tmp_path, digit):
        path = tmp_path / "x.key"
        path.write_text(
            f"HALIDON-RSA PUBLIC v1\nn=91\ne=5\nm={digit}\n", encoding="utf-8"
        )
        with pytest.raises(MalformedFile) as info:
            read_public_key(path)
        assert info.value.line == 4

    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["sup2", "arabic3"])
    @pytest.mark.parametrize(
        "line, d, exponent",
        [(3, "5{}", "3"), (6, "5", "{}")],
        ids=["d", "factors"],
    )
    def test_private_fields_are_ascii_decimals(
        self, tmp_path, digit, line, d, exponent
    ):
        path = tmp_path / "x.key"
        path.write_text(
            f"HALIDON-RSA PRIVATE v1\nn=1715\nd={d.format(digit)}\nphi=1176\n"
            f"m=2\nfactors=5^1,7^{exponent.format(digit)}\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedFile) as info:
            read_private_key(path)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "factors, reason",
        [
            ("35^1", "35 is not prime"),
            ("7^1,5^1", "primes not strictly increasing at 5"),
        ],
        ids=["composite", "out-of-order"],
    )
    def test_factors_must_be_increasing_primes(
        self, tmp_path, factors, reason
    ):
        # both reconstruct n = 35, so only the Factorization refuses them
        path = tmp_path / "x.key"
        path.write_text(
            f"HALIDON-RSA PRIVATE v1\nn=35\nd=5\nphi=24\nm=2\n"
            f"factors={factors}\n"
        )
        with pytest.raises(MalformedFile) as info:
            read_private_key(path)
        assert (info.value.line, info.value.reason) == (6, reason)

    # keygen refuses n < 2 (no odd prime), e < 1 and m < 1; so do the
    # readers, naming the line
    @pytest.mark.parametrize(
        "fields, line, reason",
        [
            ("n=0\ne=5\nm=6", 2, "n = 0 must be >= 2"),
            ("n=1\ne=5\nm=6", 2, "n = 1 must be >= 2"),
            ("n=491063\ne=0\nm=202", 3, "e = 0 must be >= 1"),
            ("n=491063\ne=361123\nm=0", 4, "m = 0 must be >= 1"),
        ],
        ids=["n0", "n1", "e0", "m0"],
    )
    def test_public_key_refuses_what_keygen_refuses(
        self, tmp_path, fields, line, reason
    ):
        path = tmp_path / "x.key"
        path.write_text(f"HALIDON-RSA PUBLIC v1\n{fields}\n")
        with pytest.raises(MalformedFile) as info:
            read_public_key(path)
        assert (info.value.line, info.value.reason) == (line, reason)

    def test_private_key_refuses_index_zero(self, tmp_path):
        path = tmp_path / "x.key"
        path.write_text(
            "HALIDON-RSA PRIVATE v1\nn=491063\nd=18523\nphi=489648\nm=0\n"
            "factors=607^1,809^1\n"
        )
        with pytest.raises(MalformedFile) as info:
            read_private_key(path)
        assert (info.value.line, info.value.reason) == (5, "m = 0 must be >= 1")

    def test_least_keys_keygen_writes_still_load(self, tmp_path):
        # n = 3, e = 1 and m = 1 are the least values keygen accepts
        pub, priv = keygen((3,), (1,), e=1, m=1)
        assert (pub.n, pub.e, pub.m) == (3, 1, 1)
        write_public_key(pub, tmp_path / "p.key")
        write_private_key(priv, tmp_path / "s.key")
        assert read_public_key(tmp_path / "p.key") == pub
        assert read_private_key(tmp_path / "s.key") == priv

    def test_inconsistent_factors_rejected(self, tmp_path):
        path = tmp_path / "x.key"
        path.write_text(
            "HALIDON-RSA PRIVATE v1\nn=35\nd=3\nphi=24\nm=2\nfactors=3^1,5^1\n"
        )
        with pytest.raises(MalformedFile) as info:
            read_private_key(path)
        assert info.value.line == 6
