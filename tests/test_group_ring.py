import math
import random
from itertools import product

import pytest

from halidon import (
    GroupRingElement,
    HalidonRing,
    LambdaVector,
    coeffs_of_lambda,
    factorize,
    invert_unit,
    is_unit,
    lambda_of,
    multiply,
)
from halidon.errors import LengthMismatch, ModulusMismatch, NotAUnit
from halidon.group_ring import first_non_unit

import kat_vectors as kat
from helpers import naive_lambda, schoolbook_cyclic


@pytest.fixture(scope="module")
def z7():
    return HalidonRing.create(7, 3, 2)


@pytest.fixture(scope="module")
def session_ring():
    return HalidonRing.create(
        kat.SESSION_N, kat.SESSION_M, kat.SESSION_OMEGA
    )


class TestLambdaOf:
    def test_identity_has_constant_spectrum(self, small_ring):
        e = GroupRingElement.identity(small_ring)
        assert lambda_of(e).values == (1,) * small_ring.m

    def test_scalar(self, z7):
        u = GroupRingElement((2, 0, 0), z7)
        assert lambda_of(u).values == (2, 2, 2)

    def test_matches_reversed_index_formula(self, small_ring):
        # the clean evaluation form equals the 1-indexed wrap-around
        # formula with a[0] aliased to a[m]
        rng = random.Random(5)
        for _ in range(25):
            coeffs = [
                rng.randrange(small_ring.n) for _ in range(small_ring.m)
            ]
            u = GroupRingElement(tuple(coeffs), small_ring)
            assert list(lambda_of(u).values) == naive_lambda(
                coeffs, small_ring.n, small_ring.m, small_ring.omega
            )


class TestCoeffsOfLambda:
    def test_constant_one_spectrum_is_identity(self, small_ring):
        u = coeffs_of_lambda((1,) * small_ring.m, small_ring)
        assert u.coeffs == (1,) + (0,) * (small_ring.m - 1)

    def test_hand_evaluated_scalar(self, z7):
        # m^(-1) = 5 mod 7; constant spectrum (2,2,2) synthesizes to 2
        u = coeffs_of_lambda((2, 2, 2), z7)
        assert u.coeffs == (2, 0, 0)

    def test_round_trip_both_ways(self, small_ring):
        rng = random.Random(11)
        for _ in range(100):
            coeffs = tuple(
                rng.randrange(small_ring.n) for _ in range(small_ring.m)
            )
            u = GroupRingElement(coeffs, small_ring)
            assert coeffs_of_lambda(lambda_of(u), small_ring).coeffs == coeffs
            lam = tuple(
                rng.randrange(small_ring.n) for _ in range(small_ring.m)
            )
            assert lambda_of(coeffs_of_lambda(lam, small_ring)).values == lam

    def test_session_coefficients(self, session_ring):
        # the published 202-value session: spectrum -> coefficients
        u = coeffs_of_lambda(kat.HGR_LAMBDAS, session_ring)
        assert u.coeffs == kat.HGR_CIPHER

    def test_session_spectrum_recovered(self, session_ring):
        u = GroupRingElement(kat.HGR_CIPHER, session_ring)
        assert lambda_of(u).values == kat.HGR_LAMBDAS

    def test_modulus_mismatch(self, z7):
        with pytest.raises(ModulusMismatch):
            coeffs_of_lambda(LambdaVector((1, 1, 1), 5), z7)

    def test_length_mismatch(self, z7):
        with pytest.raises(LengthMismatch):
            coeffs_of_lambda((1, 1), z7)


class TestIsUnit:
    def test_identity(self, small_ring):
        assert is_unit(GroupRingElement.identity(small_ring))

    def test_spectrum_with_shared_factor(self, z49):
        u = coeffs_of_lambda((7, 1, 1, 1, 1, 1), z49)
        assert not is_unit(u)

    def test_session_ciphertext_is_a_unit(self, session_ring):
        assert is_unit(GroupRingElement(kat.HGR_CIPHER, session_ring))

    def test_matches_exhaustive_invertibility(self):
        # ground truth by searching for an inverse elementwise
        ring = HalidonRing.create(5, 2, 4)
        elements = list(product(range(5), repeat=2))
        for coeffs in elements:
            u = GroupRingElement(coeffs, ring)
            has_inverse = any(
                schoolbook_cyclic(coeffs, v, 5) == (1, 0) for v in elements
            )
            assert is_unit(u) == has_inverse, coeffs


class TestInvertUnit:
    def test_identity(self, small_ring):
        e = GroupRingElement.identity(small_ring)
        assert invert_unit(e).coeffs == e.coeffs

    def test_scalar(self, z7):
        u = GroupRingElement((2, 0, 0), z7)
        assert invert_unit(u).coeffs == (4, 0, 0)

    def test_multiply_back_random_units(self, small_ring):
        rng = random.Random(13)
        e = GroupRingElement.identity(small_ring)
        found = 0
        while found < 100:
            coeffs = tuple(
                rng.randrange(small_ring.n) for _ in range(small_ring.m)
            )
            u = GroupRingElement(coeffs, small_ring)
            if not is_unit(u):
                continue
            found += 1
            assert multiply(u, invert_unit(u)).coeffs == e.coeffs

    def test_reports_first_bad_position(self, z49):
        u = coeffs_of_lambda((1, 1, 7, 1, 14, 1), z49)
        with pytest.raises(NotAUnit, match=r"lambda\[3\]") as info:
            invert_unit(u)
        assert str(info.value) == "lambda[3] = 7 is not a unit mod 49 (gcd = 7)"


class TestFirstNonUnit:
    def test_names_position_value_and_factor(self):
        lam = LambdaVector((1, 48, 14, 7, 0, 1), 49)
        assert first_non_unit(lam) == (3, 14, 7)

    def test_none_exactly_for_units(self, small_ring):
        # one finder serves is_unit, invert_unit and the CLI's unit check
        n, m = small_ring.n, small_ring.m
        rng = random.Random(n)
        for _ in range(50):
            u = GroupRingElement([rng.randrange(n) for _ in range(m)], small_ring)
            lam = lambda_of(u)
            bad = first_non_unit(lam)
            assert is_unit(u) is (bad is None)
            gcds = [math.gcd(v, n) for v in lam.values]
            if bad is None:
                assert set(gcds) == {1}
            else:
                r, value, g = bad
                assert (lam.values[r - 1], gcds[r - 1]) == (value, g) != (value, 1)
                assert set(gcds[: r - 1]) <= {1}


class TestMultiply:
    def test_identity_neutral(self, small_ring):
        rng = random.Random(19)
        coeffs = tuple(
            rng.randrange(small_ring.n) for _ in range(small_ring.m)
        )
        u = GroupRingElement(coeffs, small_ring)
        e = GroupRingElement.identity(small_ring)
        assert multiply(u, e).coeffs == coeffs

    def test_group_law_wraps(self, small_ring):
        m = small_ring.m
        g = GroupRingElement((0, 1) + (0,) * (m - 2), small_ring)
        g_last = GroupRingElement((0,) * (m - 1) + (1,), small_ring)
        assert multiply(g, g_last).coeffs == \
            GroupRingElement.identity(small_ring).coeffs

    def test_spectral_homomorphism(self, small_ring):
        rng = random.Random(23)
        n, m = small_ring.n, small_ring.m
        for _ in range(100):
            u = GroupRingElement(
                tuple(rng.randrange(n) for _ in range(m)), small_ring
            )
            v = GroupRingElement(
                tuple(rng.randrange(n) for _ in range(m)), small_ring
            )
            lhs = lambda_of(multiply(u, v)).values
            rhs = tuple(
                a * b % n
                for a, b in zip(lambda_of(u).values, lambda_of(v).values)
            )
            assert lhs == rhs

    def test_mixed_rings_rejected(self, z7, z49):
        with pytest.raises(ModulusMismatch):
            multiply(
                GroupRingElement((1, 2, 3), z7),
                GroupRingElement((1,) * 6, z49),
            )


class TestIsIdempotent:
    # the spectrum is a ring isomorphism, so u^2 = u iff every lambda_r
    # is idempotent mod n
    def test_zero_and_identity(self, small_ring):
        zero = GroupRingElement((0,) * small_ring.m, small_ring)
        one = GroupRingElement.identity(small_ring)
        assert lambda_of(zero).values == (0,) * small_ring.m
        assert lambda_of(one).values == (1,) * small_ring.m
        assert multiply(zero, zero) == zero and multiply(one, one) == one

    def test_synthesized_idempotent_spectrum(self):
        ring = HalidonRing.create(15, 2, 14)
        u = coeffs_of_lambda((6, 10), ring)
        assert multiply(u, u) == u

    def test_agrees_with_squaring_exhaustively(self):
        ring = HalidonRing.create(7, 3, 2)
        for coeffs in product(range(7), repeat=3):
            lam = lambda_of(GroupRingElement(coeffs, ring))
            squared = schoolbook_cyclic(coeffs, coeffs, 7)
            assert all(v * v % 7 == v for v in lam) == (
                squared == tuple(coeffs)
            ), coeffs


class TestStructureCounts:
    # |U(RG)| = phi(n)^m and |E(RG)| = |E(Z_n)|^m, checked by brute
    # force over all n^m elements
    @pytest.mark.parametrize(
        "n,m,omega", [(5, 2, 4), (7, 3, 2), (13, 3, 3)]
    )
    def test_unit_and_idempotent_census(self, n, m, omega):
        ring = HalidonRing.create(n, m, omega, factorize(n))
        phi = sum(1 for x in range(n) if math.gcd(x, n) == 1)
        idem_scalars = sum(1 for x in range(n) if x * x % n == x)
        units = 0
        idems = 0
        for coeffs in product(range(n), repeat=m):
            u = GroupRingElement(coeffs, ring)
            if is_unit(u):
                units += 1
            # squaring directly keeps this count independent of the
            # spectral shortcut
            if schoolbook_cyclic(coeffs, coeffs, n) == coeffs:
                idems += 1
        assert units == phi**m
        assert idems == idem_scalars**m
