import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halidon import (
    Factorization,
    GroupRingElement,
    HalidonRing,
    ResidueVector,
    coeffs_of_lambda,
    convolve,
    cyclic_convolve,
    dft_forward,
    dft_inverse,
    factorize,
    lambda_of,
    pointwise_mul,
)
from halidon.dft import _slot_width, _transform
from halidon.errors import LengthMismatch, ModulusMismatch

import kat_vectors as kat
from conftest import SMALL_RINGS
from helpers import naive_dft, schoolbook_cyclic

# A 135-bit modulus, so that a slot of the transform kernel spans more
# than 64 bits; Pollard rho cannot split it, so its factors are given.
BIG_P, BIG_Q = 36472996377170786401, 1180591620717411303529
BIG_RING = (BIG_P * BIG_Q, 12, 537305539162134160603770637995575602167)
# Primes at the boundary of the kernel's word-sized slots: the largest
# slot fits 8 bytes in the first ring, and needs 9 in the second.
WORD_RING = (876706513, 12, 92699828)
WIDE_RING = (876706561, 12, 382345421)
KERNEL_RINGS = SMALL_RINGS + [
    (7, 1, 1), (5, 2, 4), (7, 3, 2), WORD_RING, WIDE_RING, BIG_RING
]


@pytest.fixture(
    scope="module", params=KERNEL_RINGS, ids=lambda r: f"Z{r[0]}m{r[1]}"
)
def kernel_ring(request):
    n, m, omega = request.param
    if n == BIG_RING[0]:
        f = Factorization(((BIG_P, 1), (BIG_Q, 1)))
    else:
        f = factorize(n)
    return HalidonRing.create(n, m, omega, f)


@pytest.fixture(scope="module")
def z100001():
    return HalidonRing.create(
        kat.TEN_POINT_N, kat.TEN_POINT_M, kat.TEN_POINT_OMEGA
    )


class TestForward:
    def test_six_point_reference(self, z49):
        out = dft_forward(z49, kat.SMALL_DFT_INPUT)
        assert out.entries == kat.SMALL_DFT_SPECTRUM

    def test_constant_polynomial(self, z49):
        out = dft_forward(z49, (5, 0, 0, 0, 0, 0))
        assert out.entries == (5,) * 6

    def test_ten_point_reference(self, z100001):
        out = dft_forward(z100001, kat.TEN_POINT_INPUT)
        assert out.entries == kat.TEN_POINT_SPECTRUM_CORRECTED

    def test_ten_point_published_copy_has_two_bad_digits(self, z100001):
        # the circulating tuple differs in exactly two entries and does
        # not round-trip, so the corrected one is authoritative
        out = dft_forward(z100001, kat.TEN_POINT_INPUT)
        diff = [
            j
            for j, (a, b) in enumerate(
                zip(out.entries, kat.TEN_POINT_SPECTRUM_PUBLISHED)
            )
            if a != b
        ]
        assert diff == [1, 6]
        back = dft_inverse(z100001, kat.TEN_POINT_SPECTRUM_PUBLISHED)
        assert back.entries != kat.TEN_POINT_INPUT

    def test_spectrum_head_is_entry_sum(self, small_ring):
        rng = random.Random(3)
        vec = [rng.randrange(small_ring.n) for _ in range(small_ring.m)]
        out = dft_forward(small_ring, vec)
        assert out.entries[0] == sum(vec) % small_ring.n

    def test_length_mismatch(self, z49):
        with pytest.raises(LengthMismatch):
            dft_forward(z49, (1, 2, 3))


class TestInverse:
    def test_six_point_reference(self, z49):
        out = dft_inverse(z49, kat.SMALL_DFT_SPECTRUM)
        assert out.entries == kat.SMALL_DFT_INPUT

    def test_all_zero(self, z49):
        assert dft_inverse(z49, (0,) * 6).entries == (0,) * 6

    def test_ten_point_reference(self, z100001):
        out = dft_inverse(z100001, kat.TEN_POINT_SPECTRUM_CORRECTED)
        assert out.entries == kat.TEN_POINT_INPUT

    def test_round_trip_random(self, small_ring):
        rng = random.Random(small_ring.n)
        for _ in range(100):
            vec = tuple(
                rng.randrange(small_ring.n) for _ in range(small_ring.m)
            )
            assert dft_inverse(small_ring, dft_forward(small_ring, vec)).entries == vec

    @settings(max_examples=60)
    @given(st.data())
    def test_round_trip_hypothesis(self, z49, data):
        vec = data.draw(
            st.lists(st.integers(0, 48), min_size=6, max_size=6)
        )
        assert list(dft_inverse(z49, dft_forward(z49, vec)).entries) == vec


class TestConvolve:
    def test_identity_element(self, small_ring):
        rng = random.Random(1)
        vec = [rng.randrange(small_ring.n) for _ in range(small_ring.m)]
        e = [1] + [0] * (small_ring.m - 1)
        assert convolve(small_ring, vec, e).entries == tuple(vec)

    def test_binomial_square(self, z49):
        out = convolve(z49, (1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0))
        assert out.entries == (1, 2, 1, 0, 0, 0)

    def test_matches_schoolbook(self, small_ring):
        rng = random.Random(17)
        for _ in range(100):
            a = [rng.randrange(small_ring.n) for _ in range(small_ring.m)]
            b = [rng.randrange(small_ring.n) for _ in range(small_ring.m)]
            assert convolve(small_ring, a, b).entries == \
                schoolbook_cyclic(a, b, small_ring.n)

    def test_wraparound(self):
        ring = HalidonRing.create(7, 3, 2)
        # x^2 * x^2 = x^4 = x
        assert convolve(ring, (0, 0, 1), (0, 0, 1)).entries == (0, 1, 0)

    def test_tiny_prime_field_schoolbook(self):
        ring = HalidonRing.create(7, 3, 2)
        rng = random.Random(7)
        for _ in range(100):
            a = [rng.randrange(7) for _ in range(3)]
            b = [rng.randrange(7) for _ in range(3)]
            assert convolve(ring, a, b).entries == schoolbook_cyclic(a, b, 7)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cyclic_convolve((1, 2), (1, 2, 3), 7)


class TestKernel:
    def test_every_transform_matches_the_naive_sums(self, kernel_ring):
        ring = kernel_ring
        n, m, w = ring.n, ring.m, ring.omega
        w_inv, m_inv = pow(w, -1, n), pow(m, -1, n)
        rng = random.Random(n)
        # all-(n-1) vectors fill every slot to its bound
        vectors = [[n - 1] * m] + [
            [rng.randrange(n) for _ in range(m)] for _ in range(20)
        ]
        for f, g in zip(vectors, vectors[1:] + vectors[:1]):
            u = GroupRingElement(f, ring)
            assert dft_forward(ring, f).entries == naive_dft(f, n, w)
            assert dft_inverse(ring, f).entries == naive_dft(
                f, n, w_inv, m_inv
            )
            assert lambda_of(u).values == naive_dft(f, n, w_inv)
            assert coeffs_of_lambda(f, ring).coeffs == naive_dft(
                f, n, w, m_inv
            )
            assert cyclic_convolve(f, g, n) == schoolbook_cyclic(f, g, n)

    def test_one_call_for_many_blocks_equals_one_per_block(self, kernel_ring):
        n, m = kernel_ring.n, kernel_ring.m
        rng = random.Random(m)
        blocks = [[rng.randrange(n) for _ in range(m)] for _ in range(5)]
        blocks[1:1] = [[n - 1] * m, [n - 1] * m]
        for inverse in (False, True):
            for scaled in (False, True):
                batched = _transform(kernel_ring, blocks, inverse, scaled)
                assert batched == [
                    _transform(kernel_ring, [b], inverse, scaled)[0]
                    for b in blocks
                ]

    def test_boundary_rings_straddle_the_word(self):
        assert _slot_width(*WORD_RING[:2]) == 8
        assert _slot_width(*WIDE_RING[:2]) == 9

    def test_no_blocks_give_no_transforms(self, kernel_ring):
        for inverse in (False, True):
            for scaled in (False, True):
                assert _transform(kernel_ring, [], inverse, scaled) == []

    @pytest.mark.parametrize("n", [7, WORD_RING[0], WIDE_RING[0], BIG_RING[0]])
    def test_index_one_is_the_identity_on_every_block(self, n):
        f = Factorization(((BIG_P, 1), (BIG_Q, 1))) if n == BIG_RING[0] else None
        ring = HalidonRing.create(n, 1, 1, f)
        rng = random.Random(n)
        values = [n - 1, 0] + [rng.randrange(n) for _ in range(30)]
        for inverse in (False, True):
            for scaled in (False, True):
                assert _transform(
                    ring, [[v] for v in values], inverse, scaled
                ) == [(v,) for v in values]

    def test_block_of_wrong_length_is_named(self, z49):
        with pytest.raises(LengthMismatch, match="block 1 has length 5"):
            _transform(z49, [(1,) * 6, (1,) * 5], False, False)

    def test_tables_are_built_on_first_use(self, z49):
        ring = HalidonRing.create(z49.n, z49.m, z49.omega)
        assert "chirp" not in vars(ring)
        dft_forward(ring, kat.SMALL_DFT_INPUT)
        assert "chirp" in vars(ring) and "inverse_chirp" not in vars(ring)


class TestPointwise:
    def test_ones_is_identity(self, z49):
        f = dft_forward(z49, kat.SMALL_DFT_INPUT)
        ones = ResidueVector((1,) * 6, z49)
        assert pointwise_mul(f, ones).entries == f.entries

    def test_zeros_annihilate(self, z49):
        f = dft_forward(z49, kat.SMALL_DFT_INPUT)
        zeros = ResidueVector((0,) * 6, z49)
        assert pointwise_mul(f, zeros).entries == (0,) * 6

    def test_modulus_mismatch(self, z49):
        other = HalidonRing.create(91, 6, 10)
        with pytest.raises(ModulusMismatch):
            pointwise_mul(
                ResidueVector((1,) * 6, z49), ResidueVector((1,) * 6, other)
            )


class TestConvolutionTheorem:
    def test_reference_vectors(self, z49):
        f = (2, 1, 2, 3, 5, 10)
        g = (1, 1, 0, 0, 0, 0)
        lhs = dft_forward(z49, convolve(z49, f, g))
        rhs = pointwise_mul(dft_forward(z49, f), dft_forward(z49, g))
        assert lhs.entries == rhs.entries

    def test_random(self, small_ring):
        rng = random.Random(29)
        for _ in range(100):
            f = [rng.randrange(small_ring.n) for _ in range(small_ring.m)]
            g = [rng.randrange(small_ring.n) for _ in range(small_ring.m)]
            lhs = dft_forward(small_ring, convolve(small_ring, f, g))
            rhs = pointwise_mul(
                dft_forward(small_ring, f), dft_forward(small_ring, g)
            )
            assert lhs.entries == rhs.entries


class TestLinearity:
    def test_random(self, small_ring):
        n, m = small_ring.n, small_ring.m
        rng = random.Random(31)
        for _ in range(50):
            f = [rng.randrange(n) for _ in range(m)]
            g = [rng.randrange(n) for _ in range(m)]
            a, b = rng.randrange(n), rng.randrange(n)
            combo = [(a * x + b * y) % n for x, y in zip(f, g)]
            lhs = dft_forward(small_ring, combo).entries
            ff = dft_forward(small_ring, f).entries
            gg = dft_forward(small_ring, g).entries
            rhs = tuple((a * x + b * y) % n for x, y in zip(ff, gg))
            assert lhs == rhs


class TestResidueVector:
    def test_entries_reduced(self, z49):
        vec = ResidueVector((50, -1, 0, 0, 0, 0), z49)
        assert vec.entries == (1, 48, 0, 0, 0, 0)

    def test_length_enforced(self, z49):
        with pytest.raises(LengthMismatch):
            ResidueVector((1, 2, 3), z49)
