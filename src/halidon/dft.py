"""Discrete Fourier transform and cyclic convolution over a halidon ring.

All four transforms of the package (forward and inverse DFT here, the
lambda spectrum and its synthesis in group_ring) are one kernel,
`_transform`: F_j = s * sum_i f_i * r^(i*j) mod n with root r = omega or
omega^-1 and scale s = 1 or m^-1, for every block of m entries of one
flat list, into one flat list, in one call; no block is cut from it.  It
has two methods, which give the same list, and picks one from the shape
of its input alone (_takes_columns): n, the block length m and the
number of blocks.

By columns, for many short blocks.  Column i, every m-th entry from
entry i, is one integer X_i with block t's entry in word t.  Output
column j is sum_i W[j][i] X_i over the DFT matrix W[j][i] = s r^(i*j)
mod n, built once per ring and root with the scale folded in: m^2
products of a long integer by a residue, all in C.  A word of the sum
is at most m(n-1)^2, so while that is below 2^64 no word carries into
the next.  The output columns are scattered back into every m-th word
of one array("Q") and reduced mod n in one pass, the only Python code
that runs per entry.  The method needs at least m blocks, below which
m^2 short products cost more than the chirp, and m <= COLUMNS_MAX_M;
its work grows by m per entry, so at m = 202 with 10 blocks it is about
8 times slower than the chirp.

By the chirp, for everything else.  It is Bluestein's chirp transform
in the square-root-free form: with T(k) = k(k-1)/2,
i*j = T(i+j) - T(i) - T(j), so

    F_j = s r^-T(j) sum_i (f_i r^-T(i)) r^T(i+j),

a correlation of the twisted input with the chirp r^T(k).  Only powers
of r appear, so it holds for every n.  For odd m the chirp has period
m, T(k+m) = T(k) + km + m(m-1)/2, and the correlation is cyclic.

Even m takes one radix-2 step first (decimation in time).  With h = m/2,
e_i = f_2i and o_i = f_2i+1, F_k = E_k + r^k O_k and F_(k+h) = E_k -
r^k O_k for k < h, E and O being length-h transforms at r^2, since
r^h = -1 (r^h - 1 is a unit and (r^h - 1)(r^h + 1) = 0).  Both are
chirp correlations behind the post-twist r^-k(k-1).  From
2ik = (i+k)(i+k-1) - i(i-1) - k(k-1), E has the pre-twist r^-i(i-1) and
the chirp r^j(j-1); from 2ik + k = (i+k)^2 - i^2 - k(k-1), O takes the
twiddle r^k inside, with the pre-twist r^-i^2 and the chirp r^(j^2).
Past j = h, E's chirp repeats times (-1)^(h-1) and O's times (-1)^h:
for odd h (m = 2 mod 4) E is cyclic and O negacyclic, for even h the
other way round.

Every block's correlation is one big-integer product (Kronecker
substitution): a block's L entries (L = m, or h for each half) go into
byte-aligned slots of one integer, then L zero slots, and that integer
is multiplied by the packed chirp.  A block's product fills the 2L-1
slots of its own stride, its wrapped terms L slots above the rest, and
one shift folds them down, P + (P >> L slots) or P - (P >> L slots) for
a cyclic or negacyclic correlation.  A raw product slot is at most
L(n-1)^2.  Even m combines the folds into SUM = E + O and
DIFF = sigma (E - O), sigma being E's wrap sign, so that each subtracts
one raw slot, and adds a bias K*n >= h(n-1)^2 to every slot of both: no
slot borrows, and the bias vanishes mod n in the post-twist, whose
second half carries sigma back.  A slot holds at most three raw slots
and the bias, below 2m(n-1)^2 + n, which fixes the slot width.

Slot I/O stays in C builtins, and only the live slots of a block pass
through it.  While a slot fits one 8-byte word, values go in and out
through array("Q") words, byte-swapped on big-endian hosts; a slot of
w < 8 bytes is narrowed to and widened from a word by w strided slice
copies, byte b of every slot at once.  Wider slots take one to_bytes or
from_bytes each.  The twist and the post-twist are one comprehension
each over every entry of the message, and the halves of even m are the
slices [0::2] and [1::2] of the twisted entries.  These are packed
densely and the gaps are made as bytes: one join puts L zero slots
after each block's L slots.  After the fold, one join takes the low L
slots of each 2L-slot stride, DIFF's then SUM's at even m, last block
first; read in reverse, the unpacked slots are every entry in order.
Slices by map cut the blocks: no Python loop runs per block or entry.

Vectors are 0-indexed: entry i is the coefficient of x^i, spectrum entry
j is the value at omega^j.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, cycle
from operator import mul
from typing import Iterable, Sequence

from .analysis import HalidonRing
from .arith import _Value
from .errors import LengthMismatch, ModulusMismatch

VectorLike = Iterable[int]  # a raw sequence or any vector class

# Slots of up to one machine word move through array("Q") words.
_WORD = array("Q").itemsize
_BIG_ENDIAN = sys.byteorder == "big"
_WORD_LIMIT = 1 << 8 * _WORD
# The longest blocks that go by columns (_takes_columns): up to here m
# multiply-adds per entry beat the chirp once there are m blocks.
COLUMNS_MAX_M = 32


class ResidueVector(_Value):
    """Length-m vector over Z_n, tied to its halidon ring."""

    entries: tuple[int, ...]
    ring: HalidonRing

    def __post_init__(self):
        object.__setattr__(self, "entries", as_entries(self.ring, self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def as_entries(ring: HalidonRing, vec: VectorLike) -> tuple[int, ...]:
    """Entries of `vec` reduced mod n and checked against `ring`.

    This is the one place a vector meets a ring: ResidueVector and
    GroupRingElement are built through it, and every vector argument of
    this module and of group_ring passes it.  A vector tied to a ring
    (ResidueVector, GroupRingElement) or to a modulus (LambdaVector)
    must have the ring's n, and every vector must have length m.
    """
    n = ring.n
    tied = vec.ring.n if hasattr(vec, "ring") else getattr(vec, "modulus", n)
    if tied != n:
        raise ModulusMismatch(f"vector mod {tied} used in ring mod {n}")
    entries = tuple([int(v) % n for v in vec])
    if len(entries) != ring.m:
        raise LengthMismatch(
            f"vector of length {len(entries)} in a ring of index {ring.m}"
        )
    return entries


def _slot_width(n: int, m: int) -> int:
    """Bytes per slot: room for two sums of m products of residues, plus n."""
    return ((2 * m * (n - 1) ** 2 + n).bit_length() + 7) // 8


def _pack(values: Sequence[int], width: int) -> bytes:
    """`values` as consecutive little-endian slots of `width` bytes."""
    if width > _WORD:
        return b"".join([v.to_bytes(width, "little") for v in values])
    words = array("Q", values)
    if _BIG_ENDIAN:
        words.byteswap()
    raw = words.tobytes()
    if width < _WORD:
        narrow = bytearray(len(values) * width)
        for b in range(width):
            narrow[b::width] = raw[b::_WORD]
        raw = narrow
    return raw


def _unpack(raw: bytes, width: int) -> list[int]:
    """The little-endian slots of `width` bytes in `raw`, low slot first."""
    if width > _WORD:
        from_bytes = int.from_bytes
        return [
            from_bytes(raw[i : i + width], "little")
            for i in range(0, len(raw), width)
        ]
    if width < _WORD:
        wide = bytearray(len(raw) // width * _WORD)
        for b in range(width):
            wide[b::_WORD] = raw[b::width]
        raw = wide
    words = array("Q", raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _heads(raw: bytes, take: int, starts: range) -> Iterable[bytes]:
    """The `take` bytes of `raw` from each of `starts`, in its order."""
    stops = range(starts.start + take, starts.stop + take, starts.step)
    return map(raw.__getitem__, map(slice, starts, stops))


def matrix_tables(ring: HalidonRing, inverse: bool) -> tuple:
    """The DFT matrix at root r = omega^-1 if `inverse` else omega, as
    (rows, rows times m^-1): row j holds r^(ij) mod n for i < m.

    Row j > 0 is every j-th entry of row 1 repeated m times, since
    r^(ij) = r^(ij mod m); the scaled rows scale row 1 first.
    """
    n, m = ring.n, ring.m
    powers = ring.omega_inverse_powers if inverse else ring.omega_powers
    scale = ring.m_inverse

    def rows(row_1: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        repeated = row_1 * m
        return (row_1[:1] * m,) + tuple(
            repeated[: j * m : j] for j in range(1, m)
        )

    return rows(powers), rows(tuple([p * scale % n for p in powers]))


def chirp_tables(ring: HalidonRing, inverse: bool) -> tuple:
    """The tables of `_by_chirp` at root r = omega^-1 if `inverse` else omega:
    (slot width, pre-twist, post-twist, post-twist times m^-1, chirps,
    bias), as the module docstring derives them, each chirp one period
    packed in reverse so that the correlation becomes a product.  The
    bias is the least multiple K*n of n that is at least h(n-1)^2, or 0.
    """
    n, m = ring.n, ring.m
    up, down = ring.omega_powers, ring.omega_inverse_powers
    if inverse:
        up, down = down, up
    if m % 2:
        tri = [k * (k - 1) // 2 % m for k in range(m)]
        pre = post = [down[t] for t in tri]
        chirps, bias = [[up[t] for t in tri]], 0
    else:
        h = m // 2
        even = [i * (i - 1) % m for i in range(h)]  # E's exponents
        odd = [i * i % m for i in range(h)]  # O's exponents
        pre = [0] * m
        pre[0::2], pre[1::2] = [down[t] for t in even], [down[t] for t in odd]
        post = [down[t] for t in even]
        post += [p if h % 2 else -p % n for p in post]  # times E's wrap sign
        chirps = [[up[t] for t in even], [up[t] for t in odd]]
        bias = -(-h * (n - 1) ** 2 // n) * n
    width = _slot_width(n, m)
    packed = [int.from_bytes(_pack(c[::-1], width), "little") for c in chirps]
    post_scaled = [p * ring.m_inverse % n for p in post]
    return width, tuple(pre), tuple(post), tuple(post_scaled), tuple(packed), bias


def _transform(
    ring: HalidonRing, entries: Sequence[int], inverse: bool, scaled: bool
) -> list[int]:
    """The transforms of the blocks of m of the flat `entries`, in one
    flat list, at omega^-1 if `inverse` else omega, times m^-1 if
    `scaled`: by columns where _takes_columns says so, else by the chirp.

    The length of `entries` must be a multiple of m, and every entry must
    lie in 0 .. n-1, so that a word of a column sum stays below m(n-1)^2.
    The kernel checks nothing: as_entries reduces every vector, the
    encryptor's codes and units are residues, and the ciphertext type and
    its reader check every block's length and range before it gets here.
    """
    if not entries:
        return []
    if _takes_columns(ring.n, ring.m, len(entries) // ring.m):
        return _by_columns(ring, entries, inverse, scaled)
    return _by_chirp(ring, entries, inverse, scaled)


def _takes_columns(n: int, m: int, count: int) -> bool:
    """Whether `count` blocks of length m mod n go by columns.

    Every column sum must fit a word, m(n-1)^2 < 2^64; there must be at
    least m blocks, so that the m^2 products are long enough to beat the
    chirp's twists; and m must be at most COLUMNS_MAX_M, past which m
    multiply-adds per entry cost more than the chirp's one multiply.
    """
    return m <= COLUMNS_MAX_M and count >= m and m * (n - 1) ** 2 < _WORD_LIMIT


def _by_columns(
    ring: HalidonRing, entries: Sequence[int], inverse: bool, scaled: bool
) -> list[int]:
    """Every block's transform as m column sums over the DFT matrix.

    Column i, entry i of every block (every m-th entry from entry i), is
    one integer X_i with block t's entry in word t.  Output column j is
    Y_j = sum_i W[j][i] X_i, whose word t is sum_i W[j][i] f_(t,i) <
    m(n-1)^2, so no word carries into the next.  Each Y_j is scattered
    back into every m-th word, and one pass reduces every word mod n.
    """
    n, m = ring.n, ring.m
    rows = (ring.inverse_matrix if inverse else ring.matrix)[scaled]
    words = array("Q", entries)
    if _BIG_ENDIAN:
        words.byteswap()
    from_bytes = int.from_bytes
    columns = [from_bytes(words[i::m], "little") for i in range(m)]
    size = len(entries) // m * _WORD
    for j, row in enumerate(rows):
        column = sum(map(mul, row, columns)).to_bytes(size, "little")
        words[j::m] = array("Q", column)
    if _BIG_ENDIAN:
        words.byteswap()
    return [v % n for v in words]


def _by_chirp(
    ring: HalidonRing, entries: Sequence[int], inverse: bool, scaled: bool
) -> list[int]:
    """Every block's transform by the chirp: one big-integer multiply for
    all the blocks at odd m, two of half the length at even m.

    Even m: the even and the odd entries make the correlations E and O,
    of length h = m/2, whose wraps have opposite signs, E's being
    sigma = (-1)^(h-1); O's pre-twist and chirp carry the twiddle r^k.
    SUM = E + O and DIFF = sigma (E - O) each subtract one raw slot of
    at most h(n-1)^2, which the bias K*n >= h(n-1)^2 lifts, so a slot
    stays below 2m(n-1)^2 + n.  Per block, DIFF's live slots read
    F_(m-1) .. F_h and SUM's F_(h-1) .. F_0 (the one fold's F_(m-1) ..
    F_0 at odd m).  The strides are taken last block first, so the slots
    read in reverse give every entry in order to one post-twist pass.
    """
    n, m = ring.n, ring.m
    width, pre, post, post_scaled, chirps, bias = (
        ring.inverse_chirp if inverse else ring.chirp
    )
    entries = [a * t % n for a, t in zip(entries, cycle(pre))]
    if m % 2:
        folds = [_correlate(entries, m, width, chirps[0], 1)]
    else:
        sign = 1 if m % 4 else -1  # E's wrap: cyclic for odd h
        even = _correlate(entries[0::2], m // 2, width, chirps[0], sign)
        odd = _correlate(entries[1::2], m // 2, width, chirps[1], -sign)
        bias = int.from_bytes(
            bias.to_bytes(width, "little") * len(entries), "little"
        )
        folds = [sign * (even - odd) + bias, even + odd + bias]
    live = m // len(folds) * width  # bytes of a block's live slots
    size = 2 * live * (len(entries) // m)  # bytes of all the blocks' strides
    starts = range(size - 2 * live, -1, -2 * live)  # the last stride first
    heads = [_heads(f.to_bytes(size, "little"), live, starts) for f in folds]
    slots = _unpack(b"".join(chain.from_iterable(zip(*heads))), width)
    post = post_scaled if scaled else post
    return [s * p % n for s, p in zip(reversed(slots), cycle(post))]


def _correlate(
    entries: list[int], length: int, width: int, chirp: int, wrap: int
) -> int:
    """The folded correlation of every block of L = `length` twisted
    entries with the packed `chirp`, whose terms past the period wrap
    with sign `wrap`.  Block t takes slots 2Lt .. 2Lt+L-1, with zeros up
    to 2Lt+2L-1, so its product fills only its own stride, the wrapped
    terms L slots above the rest; after the fold, correlation j is slot
    2Lt+L-1-j.  A subtracting fold can leave a slot below zero.
    """
    live = length * width
    dense = _pack(entries, width)
    blocks = _heads(dense, live, range(0, len(dense), live))
    product = int.from_bytes(bytes(live).join(blocks), "little") * chirp
    wrapped = product >> (8 * live)
    return product + wrapped if wrap > 0 else product - wrapped


def transform_vector(
    ring: HalidonRing, vec: VectorLike, inverse: bool, scaled: bool
) -> tuple[int, ...]:
    """`_transform` of the one vector `vec`, checked by as_entries."""
    return tuple(_transform(ring, as_entries(ring, vec), inverse, scaled))


def dft_forward(ring: HalidonRing, f: VectorLike) -> ResidueVector:
    """Spectrum F with F_j = sum_i f_i * omega^(i*j) mod n."""
    return ResidueVector(transform_vector(ring, f, False, False), ring)


def dft_inverse(ring: HalidonRing, spectrum: VectorLike) -> ResidueVector:
    """Coefficients f with f_i = m^(-1) * sum_j F_j * omega^(-i*j) mod n."""
    return ResidueVector(transform_vector(ring, spectrum, True, True), ring)


def cyclic_convolve(
    a: Sequence[int], b: Sequence[int], n: int
) -> tuple[int, ...]:
    """Coefficients of a*b mod (x^m - 1) over Z_n, m = len(a) = len(b)."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if len(a) != len(b):
        raise LengthMismatch(
            f"convolution of lengths {len(a)} and {len(b)}"
        )
    m = len(a)
    width = _slot_width(n, m)
    x, y = (
        int.from_bytes(_pack([v % n for v in vec], width), "little")
        for vec in (a, b)
    )
    slots = _unpack((x * y).to_bytes(2 * m * width, "little"), width)
    return tuple([(low + high) % n for low, high in zip(slots, slots[m:])])


def convolve(ring: HalidonRing, f: VectorLike, g: VectorLike) -> ResidueVector:
    """Cyclic convolution of two vectors in the ring."""
    a = as_entries(ring, f)
    b = as_entries(ring, g)
    return ResidueVector(cyclic_convolve(a, b, ring.n), ring)


def pointwise_mul(f: ResidueVector, g: VectorLike) -> ResidueVector:
    """Entrywise product mod n; g is checked against f's ring."""
    return ResidueVector(map(mul, f.entries, as_entries(f.ring, g)), f.ring)
