import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halidon import (
    Factorization,
    GroupRingElement,
    HalidonRing,
    LambdaVector,
    ResidueVector,
    coeffs_of_lambda,
    convolve,
    cyclic_convolve,
    dft_forward,
    dft_inverse,
    factorize,
    lambda_of,
    multiply,
    pointwise_mul,
)
from halidon import dft
from halidon.arith import is_probable_prime
from halidon.dft import (
    COLUMNS_MAX_M,
    RADER_MIN_M,
    _by_chirp,
    _by_columns,
    _by_rader,
    _slot_width,
    _tables,
    _takes_columns,
    _takes_rader,
    _transform,
    _unpack,
    as_entries,
    chirp_tables,
    matrix_tables,
    rader_tables,
)
from halidon.errors import LengthMismatch, ModulusMismatch

import kat_vectors as kat
from conftest import SMALL_RINGS
from helpers import cut, flat, naive_dft, schoolbook_cyclic

# A 135-bit modulus, so that a slot of the transform kernel spans more
# than 64 bits; Pollard rho cannot split it, so its factors are given.
BIG_P, BIG_Q = 36472996377170786401, 1180591620717411303529
BIG_RING = (BIG_P * BIG_Q, 12, 537305539162134160603770637995575602167)
# Primes at the boundary of the kernel's word-sized slots: the largest
# slot fits 8 bytes in the first ring, and needs 9 in the second.
WORD_RING = (876706513, 12, 92699828)
WIDE_RING = (876706561, 12, 382345421)
# Odd m folds the correlation with an addition, even m with a
# subtraction over a bias; these odd-m rings take the word path with
# 6-byte slots and the wide path with 9-byte slots.
ODD_WORD_RING = (1000081, 15, 373252)
ODD_WIDE_RING = (2147484061, 15, 2113227248)
# An odd-m ring whose chirp slots fit a word, 8 bytes, where room for an
# even-m bias would take 9
ODD_PAST_WORD_RING = (950000071, 15, 25717637)
# An odd-m ring whose chirp slots take 9 bytes, m(n-1)^2 being just
# under 2^65, where room for half of that would take 8; at this root
# (n-1) times the sum of one period of the chirp, at omega or omega^-1,
# is above 2^64
ODD_FULL_SLOT_RING = (1568283001, 15, 754120958)
# Primes at the boundary of the column method's words, m(n-1)^2 < 2^64:
# the largest n = 1 mod 12 under it, and the least one over it.
COLUMN_WORD_RING = (1239850081, 12, 1040429092)
COLUMN_WIDE_RING = (1239850357, 12, 1095862930)
# Rings on both sides of the column method's longest block: m = 32 goes
# by columns from 32 blocks on, m = 33 never does.
COLUMNS_LONGEST_RING = (97, 32, 19)
CHIRP_SHORTEST_RING = (67, 33, 4)
# Even m folds the chirp's product negacyclically over a bias; at m = 8
# here with slots of 11 bytes
EVEN_WIDE_RING = (1099511627873, 8, 173652341105)
# m past the column method's longest block that is not 2p, at both even
# residues mod 4: m = 50 = 2 mod 4 and m = 100 = 0 mod 4
EVEN_CHIRP_RINGS = [(1000151, 50, 4112), (1001401, 100, 1866)]
# m = p and m = 2p for odd primes p: below the Rader rule (m = 29, 26)
# and above it (m = 37, 38); at m = 38 a slot needs 11 bytes for full
# residues and 7 for codes
RADER_BELOW_RINGS = [(100109, 29, 2974), (100049, 26, 3908)]
RADER_ODD_RING = (1000037, 37, 18668)
RADER_WIDE_RING = (1099511628331, 38, 48955937363)
KERNEL_RINGS = SMALL_RINGS + [
    (7, 1, 1), (5, 2, 4), (7, 3, 2), WORD_RING, WIDE_RING, BIG_RING,
    ODD_WORD_RING, ODD_WIDE_RING, ODD_PAST_WORD_RING, RADER_ODD_RING,
    RADER_WIDE_RING,
]


def moduli_of_width(m, width):
    """(least, greatest) n >= 2 whose cyclic_convolve slots at length m
    take `width` bytes, by bisection, since the slot width grows with n."""

    def least(w):  # the least n >= 2 whose slots take at least w bytes
        lo, hi = 2, 1 << 8 * w
        while lo < hi:
            mid = (lo + hi) // 2
            wide = _slot_width(mid, m, mid - 1) >= w
            lo, hi = (lo, mid) if wide else (mid + 1, hi)
        return lo

    return least(width), least(width + 1) - 1


def rader_shaped(m):
    """Whether m = p or 2p for an odd prime p, which _by_rader takes."""
    p = m if m % 2 else m // 2
    return p > 2 and is_probable_prime(p)


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

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_modulus_below_two_refused(self, n):
        # as Residue refuses it: 0 divided by zero, and a negative n
        # overflowed the slot words
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {n}"):
            cyclic_convolve((1, 2), (3, 4), n)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 17])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_schoolbook_at_every_slot_width(self, width, data):
        # slots of 1, 2, 4 and 8 bytes go through their own array type,
        # 3 and 5 to 7 through strided copies of 8-byte words, 9 and up
        # through to_bytes; entries come unreduced, negative ones too
        m = data.draw(st.integers(1, 40), label="m")
        n = data.draw(st.integers(*moduli_of_width(m, width)), label="n")
        assert _slot_width(n, m, n - 1) == width
        entry = st.integers(-3 * n, 3 * n) | st.just(n - 1)
        vector = st.lists(entry, min_size=m, max_size=m)
        a, b = data.draw(vector, label="a"), data.draw(vector, label="b")
        assert cyclic_convolve(a, b, n) == schoolbook_cyclic(a, b, n)

    def test_slots_are_sized_for_the_cyclic_product(self, monkeypatch):
        # a slot holds at most m(n-1)^2 = 48,600 at n = 91, m = 6: two
        # bytes, through array("H"), where room for the chirp's bias
        # would take three
        widths = []
        real = dft._pack

        def pack(values, width):
            widths.append(width)
            return real(values, width)

        monkeypatch.setattr(dft, "_pack", pack)
        full, example = [90] * 6, ([2, 1, 2, 3, 5, 10], [1, 1, 0, 0, 0, 0])
        for a, b in ((full, full), example):
            assert cyclic_convolve(a, b, 91) == schoolbook_cyclic(a, b, 91)
        assert widths == [2, 2]


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
        # all-zero and all-(n-1) blocks at both ends: the fullest slots
        # next to the emptiest, where a missed bias would borrow and a
        # fold would carry into the next block
        ends = [[0] * m, [n - 1] * m]
        blocks = ends + blocks + ends[::-1] + ends
        for inverse in (False, True):
            for scaled in (False, True):
                batched = _transform(kernel_ring, flat(blocks), inverse, scaled)
                assert cut(batched, m) == [
                    cut(_transform(kernel_ring, b, inverse, scaled), m)[0]
                    for b in blocks
                ]

    @pytest.mark.parametrize(
        "n, m, omega, count",
        [(487411, 10, 27815, 1000), (kat.SESSION_N, 202, kat.SESSION_OMEGA, 10)],
        ids=["m10x1000", "m202x10"],
    )
    def test_benchmark_shaped_batches_match_the_naive_sums(
        self, n, m, omega, count
    ):
        # the shapes the sessions run: many short blocks, or a few long
        # ones, in one call, with the fullest block first and last
        ring = HalidonRing.create(n, m, omega)
        w_inv, m_inv = pow(omega, -1, n), pow(m, -1, n)
        rng = random.Random(count)
        blocks = [[rng.randrange(n) for _ in range(m)] for _ in range(count)]
        blocks[0] = blocks[-1] = [n - 1] * m
        for inverse in (False, True):
            root = w_inv if inverse else omega
            for scaled in (False, True):
                scale = m_inv if scaled else 1
                out = _transform(ring, flat(blocks), inverse, scaled)
                assert cut(out, m) == [
                    naive_dft(b, n, root, scale) for b in blocks
                ]

    def test_chirp_repeats_with_period_m_up_to_sign(self, kernel_ring):
        # r^T(k+m) = (-1)^(m-1) r^T(k): r^T(k) for odd m and -r^T(k) for
        # even m, which is what lets the kernel pack one period, reversed,
        # and fold the wrap cyclically or negacyclically
        n, m = kernel_ring.n, kernel_ring.m
        sign = 1 if m % 2 else -1
        for r, inverse in (
            (kernel_ring.omega, False), (kernel_ring.omega_powers[-1], True)
        ):
            width, _, _, packed, _ = _tables(kernel_ring, chirp_tables, inverse)
            chirp = [pow(r, k * (k - 1) // 2, n) for k in range(2 * m)]
            assert [c * sign % n for c in chirp[:m]] == chirp[m:]
            raw = packed.to_bytes((m + 1) * width, "little")
            assert _unpack(raw, width) == chirp[m - 1 :: -1] + [0]

    def test_even_twists_split_by_index_parity(self, kernel_ring):
        # at every m, entries of even and of odd index take their twist
        # from one table r^-T(k), which also serves as the post-twist
        # (times m^-1 when scaled), since -T(i) + T(i+j) - T(j) = i*j
        n, m = kernel_ring.n, kernel_ring.m
        m_inv = pow(m, -1, n)
        rng = random.Random(m)
        f = [rng.randrange(n) for _ in range(m)]
        for r, inverse in (
            (kernel_ring.omega, False), (kernel_ring.omega_powers[-1], True)
        ):
            tables = _tables(kernel_ring, chirp_tables, inverse)
            twist, twist_scaled = tables[1:3]
            r_inv = pow(r, -1, n)
            assert twist == tuple(
                pow(r_inv, k * (k - 1) // 2, n) for k in range(m)
            )
            assert twist_scaled == tuple(t * m_inv % n for t in twist)
            chirp = [pow(r, k * (k - 1) // 2, n) for k in range(2 * m)]
            twisted = [a * t % n for a, t in zip(f, twist)]
            spectrum = tuple(
                twist[j] * sum(twisted[i] * chirp[i + j] for i in range(m)) % n
                for j in range(m)
            )
            assert spectrum == naive_dft(f, n, r)

    def test_bias_is_the_least_multiple_of_n_over_a_full_slot(
        self, kernel_ring
    ):
        # a negacyclic fold subtracts the wrapped terms, so a slot can
        # fall to -m(n-1)^2; a bias below that could borrow, one that is
        # no multiple of n would survive the reduction mod n
        n, m = kernel_ring.n, kernel_ring.m
        for inverse in (False, True):
            tables = _tables(kernel_ring, chirp_tables, inverse)
            width, packed = tables[0], tables[4]
            slots = _unpack(packed.to_bytes(m * width, "little"), width)
            bias = slots[0]
            assert slots == [bias] * m
            if m % 2:
                assert bias == 0
                continue
            # one slot holds it on top of the fullest raw slot
            assert m * (n - 1) ** 2 + bias < 1 << (8 * width)
            assert bias % n == 0
            assert m * (n - 1) ** 2 <= bias < m * (n - 1) ** 2 + n

    def test_odd_slots_hold_a_block_twisted_to_n_minus_one(self):
        # f_k = -r^T(k) twists to n-1 at every k, so every folded slot
        # is n-1 times the sum of one period of the chirp: past 2^64 here
        n, m, omega = ODD_FULL_SLOT_RING
        ring = HalidonRing.create(n, m, omega)
        assert _slot_width(n, m, n - 1) == 9
        for r, inverse in ((omega, False), (ring.omega_powers[-1], True)):
            f = [-pow(r, k * (k - 1) // 2, n) % n for k in range(m)]
            out = _transform(ring, f, inverse, False)
            assert tuple(out) == naive_dft(f, n, r)

    def test_boundary_rings_straddle_the_word(self):
        for (n, m, _), width in ((WORD_RING, 8), (WIDE_RING, 9)):
            assert _slot_width(n, m, 2 * (n - 1)) == width

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
                out = _transform(ring, flat([v] for v in values), inverse, scaled)
                assert cut(out, 1) == [(v,) for v in values]

    def test_tables_are_built_on_first_use(self, z49):
        ring = HalidonRing.create(z49.n, z49.m, z49.omega)
        assert ring.kernel_tables == {}
        dft_forward(ring, kat.SMALL_DFT_INPUT)
        assert list(ring.kernel_tables) == [(chirp_tables, False)]


class TestKernelMethods:
    """The kernel's three methods, columns, Rader and chirp, and the rules
    between them."""

    RINGS = [
        (7, 1, 1), (7, 3, 2), (49, 6, 19), (341, 10, 29), (29341, 12, 162),
        (1891, 30, 65), COLUMNS_LONGEST_RING, CHIRP_SHORTEST_RING,
        COLUMN_WORD_RING, COLUMN_WIDE_RING, (5, 2, 4), (13, 4, 5),
        (kat.SESSION_N, 202, kat.SESSION_OMEGA), EVEN_WIDE_RING,
        *EVEN_CHIRP_RINGS, *RADER_BELOW_RINGS, RADER_ODD_RING,
        RADER_WIDE_RING,
    ]

    @pytest.fixture(scope="class")
    def rings(self):
        return [HalidonRing.create(*ring) for ring in self.RINGS]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_both_methods_match_the_naive_sums(self, rings, data):
        ring = data.draw(st.sampled_from(rings), label="ring")
        n, m = ring.n, ring.m
        # the counts around m straddle the column rule; past twice its
        # longest block, where no count goes by columns, a few blocks
        # keep the naive sums fast
        counts = [0, 1, max(m - 1, 0), m, 2 * m + 1]
        if m > 2 * COLUMNS_MAX_M:
            counts = [0, 1, 2]
        count = data.draw(st.sampled_from(counts), label="count")
        # all-(n-1) blocks fill every word or slot to its bound; next to
        # all-zero ones, a carry or a borrow would show in a neighbour.
        # Code-sized blocks (every entry below 40) take narrower Rader
        # slots than a call with a full block among them
        kinds = data.draw(
            st.lists(
                st.sampled_from(["zero", "full", "code", "random"]),
                min_size=count, max_size=count,
            ),
            label="kinds",
        )
        entries = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
        codes = st.lists(
            st.integers(0, min(39, n - 1)), min_size=m, max_size=m
        )
        blocks = [
            [0] * m if kind == "zero"
            else [n - 1] * m if kind == "full"
            else data.draw(codes if kind == "code" else entries)
            for kind in kinds
        ]
        methods = [_transform]
        if blocks:
            methods.append(_by_chirp)
            if m * (n - 1) ** 2 < 1 << 64:
                methods.append(_by_columns)
            if rader_shaped(m):
                methods.append(_by_rader)
        w_inv, m_inv = pow(ring.omega, -1, n), pow(m, -1, n)
        for inverse in (False, True):
            root = w_inv if inverse else ring.omega
            for scaled in (False, True):
                scale = m_inv if scaled else 1
                expected = [naive_dft(b, n, root, scale) for b in blocks]
                for method in methods:
                    out = method(ring, flat(blocks), inverse, scaled)
                    assert cut(out, m) == expected

    def test_boundary_rings_straddle_the_column_word(self):
        below, above = COLUMN_WORD_RING[0], COLUMN_WIDE_RING[0]
        assert 12 * (below - 1) ** 2 < 1 << 64 <= 12 * (above - 1) ** 2
        assert _takes_columns(below, 12, 12)
        assert not _takes_columns(above, 12, 12)

    def test_longest_column_blocks(self):
        assert COLUMNS_MAX_M == COLUMNS_LONGEST_RING[1]
        n, m = COLUMNS_LONGEST_RING[:2]
        assert _takes_columns(n, m, m) and not _takes_columns(n, m, m - 1)
        n, m = CHIRP_SHORTEST_RING[:2]
        assert not _takes_columns(n, m, 1000)

    def test_shortest_rader_blocks(self):
        # m = p and 2p for odd primes p from RADER_MIN_M on; every other
        # m, and the shorter p and 2p, keep the chirp
        assert RADER_MIN_M == 34
        assert _takes_rader(34) and _takes_rader(37) and _takes_rader(202)
        assert not _takes_rader(26) and not _takes_rader(29)
        for m in (33, 35, 36, 39, 40, 44, 49, 51, 68, 200, 256):
            assert not _takes_rader(m)
        for _, m, _ in RADER_BELOW_RINGS:
            assert rader_shaped(m) and not _takes_rader(m)

    def test_slot_width_follows_the_calls_largest_entry(self, monkeypatch):
        # at the reference key, codes 0 .. 39 fit 4-byte Rader slots, and
        # one entry of n-1 in the call widens every slot to 6 bytes, the
        # chirp's width
        n, m = kat.SESSION_N, 202
        ring = HalidonRing.create(n, m, kat.SESSION_OMEGA)
        rng = random.Random(m)
        codes = [rng.randrange(40) for _ in range(3 * m)]
        codes[1] = 39
        widths = []
        real = dft._pack

        def pack(values, width):
            widths.append(width)
            return real(values, width)

        monkeypatch.setattr(dft, "_pack", pack)
        for entries, width in ((codes, 4), (codes[:-1] + [n - 1], 6)):
            widths.clear()
            out = _transform(ring, entries, False, False)
            assert set(widths) == {width}
            assert cut(out, m) == [
                naive_dft(b, n, ring.omega) for b in cut(entries, m)
            ]
        assert _slot_width(n, m, 2 * (n - 1)) == 6

    def test_each_product_packs_only_what_it_multiplies(self, monkeypatch):
        # Rader packs p-1 slots per row and then the kernel, no head: one
        # block at m = 38 is two rows and a kernel of 18 slots.  A chirp
        # slot holds m(n-1)^2 at odd m, 8 bytes at n = 950000071, m = 15,
        # and the bias on top of that at even m: 9 bytes at WIDE_RING,
        # where 8 would hold the slot without it
        packed = []
        real = dft._pack

        def pack(values, width):
            packed.append((len(values), width))
            return real(values, width)

        monkeypatch.setattr(dft, "_pack", pack)
        # (slots, width) of each _pack call: the chirp packs its table on
        # first use, then the twisted block
        for (n, m, omega), calls in (
            (RADER_WIDE_RING, [(2 * 18 + 18, 11)]),
            (ODD_PAST_WORD_RING, [(15, 8)] * 2),
            (WIDE_RING, [(12, 9)] * 2),
        ):
            packed.clear()
            ring = HalidonRing.create(n, m, omega)
            f = [n - 1] * m
            assert dft_forward(ring, f).entries == naive_dft(f, n, omega)
            assert packed == calls
        assert _slot_width(WIDE_RING[0], 12, WIDE_RING[0] - 1) == 8

    @pytest.mark.parametrize(
        "n, m, omega, count, method",
        [
            (487411, 10, 27815, 1000, "columns"),
            (kat.SESSION_N, 202, kat.SESSION_OMEGA, 10, "rader"),
            (487411, 10, 27815, 1, "chirp"),
            (*CHIRP_SHORTEST_RING, 33, "chirp"),
            (*RADER_ODD_RING, 3, "rader"),
            (*RADER_BELOW_RINGS[1], 3, "chirp"),
        ],
        ids=["m10x1000", "m202x10", "m10-vector", "m33x33", "m37x3", "m26x3"],
    )
    def test_the_sessions_shapes_take_their_method(
        self, monkeypatch, n, m, omega, count, method
    ):
        # the benchmark's bulk-m10 sessions must go by columns, the long
        # blocks of m = p and 2p by Rader's convolution, and the other
        # blocks and the one-vector calls by one chirp of length m
        assert _takes_columns(n, m, count) == (method == "columns")
        taken = []

        def spy(name):
            real = getattr(dft, name)

            def method(*args):
                taken.append(name)
                return real(*args)

            return method

        for name in ("_by_columns", "_by_rader", "_by_chirp"):
            monkeypatch.setattr(dft, name, spy(name))
        ring = HalidonRing.create(n, m, omega)
        rng = random.Random(count)
        blocks = [[rng.randrange(n) for _ in range(m)] for _ in range(count)]
        if count == 1:
            dft_forward(ring, blocks[0])
        else:
            _transform(ring, flat(blocks), False, False)
        assert taken == ["_by_" + method]

    def test_rader_tables_follow_the_generator(self):
        # entry g^a of a row goes to slot a, and the row's head x_0 is
        # not gathered; the kernel is beta^(g^-t) at beta = r^(m/p), and
        # the scatter finds F_0 in slot 0 and F_(g^-k) in slot 1 + k of
        # SUM's row (even j) or DIFF's (odd j)
        for n, m, omega in (RADER_ODD_RING, RADER_WIDE_RING):
            ring = HalidonRing.create(n, m, omega)
            p = m if m % 2 else m // 2
            step = m // p
            assert ring.kernel_tables == {}
            for r, tables in (
                (omega, _tables(ring, rader_tables, False)),
                (pow(omega, -1, n), _tables(ring, rader_tables, True)),
            ):
                gather, scatter, (kernel, scaled) = tables
                g = 2  # the least generator mod 37, and mod 19
                order = [pow(g, a, p) for a in range(p - 1)]
                rows = gather(list(range(m)))
                evens = tuple(step * i for i in order)
                odds = tuple((p + 2 * i) % m for i in order)
                assert rows == (evens + odds if step == 2 else evens)
                assert kernel == [
                    pow(r, step * pow(g, -t, p), n) for t in range(p - 1)
                ]
                m_inv = pow(m, -1, n)
                assert scaled == [w * m_inv % n for w in kernel]
                slots = scatter(list(range(m)))
                for j, where in enumerate(slots):
                    row, slot = divmod(where, p)
                    assert row == j % step
                    c = j % p
                    assert (c, slot) == (0, 0) or (
                        slot > 0 and pow(g, -(slot - 1), p) == c
                    )
            assert list(ring.kernel_tables) == [
                (rader_tables, False), (rader_tables, True)
            ]

    def test_matrix_is_built_on_first_use(self):
        ring = HalidonRing.create(49, 6, 19)
        assert ring.kernel_tables == {}
        _transform(ring, flat([[1] * 6] * 6), False, True)
        assert list(ring.kernel_tables) == [(matrix_tables, False)]


class TestTableCache:
    """Each method's tables, at omega and at omega^-1, are built on
    first use and kept in the ring's kernel_tables."""

    BUILDERS = ("matrix_tables", "rader_tables", "chirp_tables")

    @pytest.fixture
    def builds(self, monkeypatch):
        """(builder, inverse) for every call of a table builder."""
        calls = []

        def spy(name):
            real = getattr(dft, name)

            def build(ring, inverse):
                calls.append((name, inverse))
                return real(ring, inverse)

            return build

        for name in self.BUILDERS:
            monkeypatch.setattr(dft, name, spy(name))
        return calls

    def test_nothing_is_built_before_a_transform(self, builds):
        ring = HalidonRing.create(*RADER_ODD_RING)
        assert ring.omega_inverse_powers and ring.m_inverse
        as_entries(ring, range(ring.m))
        for inverse in (False, True):
            assert _transform(ring, [], inverse, False) == []
        assert builds == [] and ring.kernel_tables == {}

    @pytest.mark.parametrize(
        "ring, count, builder",
        [
            ((49, 6, 19), 6, "matrix_tables"),
            (RADER_ODD_RING, 1, "rader_tables"),
            ((49, 6, 19), 1, "chirp_tables"),
        ],
        ids=["columns", "rader", "chirp"],
    )
    def test_each_method_and_root_is_built_once(
        self, builds, ring, count, builder
    ):
        # four transforms, each twice, take two roots: the method's
        # builder runs once for each, and no other builder runs
        ring = HalidonRing.create(*ring)
        entries = list(range(count * ring.m))
        for _ in range(2):
            for inverse in (False, True):
                for scaled in (False, True):
                    _transform(ring, entries, inverse, scaled)
        assert builds == [(builder, False), (builder, True)]
        assert len(ring.kernel_tables) == 2

    def test_a_method_not_taken_builds_nothing(self, builds):
        # one vector at m = 6 takes the chirp, six blocks the columns
        ring = HalidonRing.create(49, 6, 19)
        dft_forward(ring, kat.SMALL_DFT_INPUT)
        dft_forward(ring, kat.SMALL_DFT_INPUT)
        assert builds == [("chirp_tables", False)]
        _transform(ring, kat.SMALL_DFT_INPUT * 6, False, False)
        assert builds == [("chirp_tables", False), ("matrix_tables", False)]


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


class TestVectorBoundary:
    """as_entries is the one check of a vector against a ring."""

    @pytest.fixture(scope="class")
    def z91(self):
        return HalidonRing.create(91, 6, 10)

    @pytest.fixture(scope="class")
    def z49_index3(self):
        return HalidonRing.create(49, 3, 18)

    def test_every_tied_vector_has_its_modulus_checked(self, z49, z91):
        for vec in (
            ResidueVector((1,) * 6, z91),
            GroupRingElement((1,) * 6, z91),
            LambdaVector((1,) * 6, 91),
        ):
            with pytest.raises(
                ModulusMismatch, match=r"^vector mod 91 used in ring mod 49$"
            ):
                as_entries(z49, vec)

    def test_every_tied_vector_has_its_length_checked(self, z49, z49_index3):
        message = r"^vector of length 3 in a ring of index 6$"
        for vec in (
            ResidueVector((1, 2, 3), z49_index3),
            GroupRingElement((1, 2, 3), z49_index3),
            LambdaVector((1, 2, 3), 49),
            (1, 2, 3),
        ):
            with pytest.raises(LengthMismatch, match=message):
                as_entries(z49, vec)

    def test_every_entry_point_says_the_same(self, z49, z49_index3):
        short = (1, 2, 3)
        full = ResidueVector((1,) * 6, z49)
        unit = GroupRingElement.identity(z49)
        element3 = GroupRingElement(short, z49_index3)
        for call in (
            lambda: ResidueVector(short, z49),
            lambda: GroupRingElement(short, z49),
            lambda: dft_forward(z49, short),
            lambda: dft_inverse(z49, short),
            lambda: convolve(z49, full, short),
            lambda: pointwise_mul(full, short),
            lambda: coeffs_of_lambda(short, z49),
            lambda: multiply(unit, element3),
        ):
            with pytest.raises(
                LengthMismatch,
                match=r"^vector of length 3 in a ring of index 6$",
            ):
                call()

    def test_a_vector_of_the_same_n_and_m_crosses_rings(self, z49):
        # only n and m are checked: omega = 31 is the other root mod 49
        other = HalidonRing.create(49, 6, 31)
        f = ResidueVector(kat.SMALL_DFT_INPUT, other)
        assert dft_forward(z49, f).entries == kat.SMALL_DFT_SPECTRUM
        g = GroupRingElement(kat.SMALL_DFT_INPUT, other)
        assert multiply(GroupRingElement.identity(z49), g).coeffs == g.coeffs
