"""Discrete Fourier transform and cyclic convolution over a halidon ring.

All four transforms of the package (forward and inverse DFT here, the
lambda spectrum and its synthesis in group_ring) are one kernel,
`_transform`: F_j = s * sum_i f_i * r^(i*j) mod n with root r = omega or
omega^-1 and scale s = 1 or m^-1, for every block of a message in one
call.  It has two methods, which give the same tuples, and picks one
from the shape of its input alone (_takes_columns): n, the block length
m and the number of blocks.

By columns, for many short blocks.  Column i of the message, entry i of
every block, is one integer with block t's entry in its word t.  Output
column j is sum_i W[j][i] X_i over the DFT matrix W[j][i] = s r^(i*j)
mod n, built once per ring and root with the scale folded in: m^2
products of a long integer by a residue, all in C.  A word of the sum
is at most m(n-1)^2, so while that is below 2^64 no word carries into
the next.  The output columns are scattered back into every m-th word
of one array("Q") and reduced mod n in one pass, the only Python code
that runs per entry.  The method needs at least m blocks, below which m^2
short products cost more than the chirp, and m <= COLUMNS_MAX_M; its
work grows by m per entry, so at m = 202 with 10 blocks it is about 8
times slower than the chirp.

By the chirp, for everything else.  It is Bluestein's chirp transform
in the square-root-free form: with T(k) = k(k-1)/2,
i*j = T(i+j) - T(i) - T(j), so

    F_j = s r^-T(j) sum_i (f_i r^-T(i)) r^T(i+j),

a correlation of the twisted input with the chirp r^T(k).  Only powers
of r appear, so it holds for every n.  The chirp has period m up to
sign: T(k+m) = T(k) + km + m(m-1)/2, so r^T(k+m) = r^T(k) for odd m and
-r^T(k) for even m, where r^(m/2) = -1 (r^(m/2) - 1 is a unit and
(r^(m/2) - 1)(r^(m/2) + 1) = 0).  One period, k < m, is enough: the
correlation is cyclic of length m for odd m and negacyclic for even m.

The correlation of every block of a message is one big-integer product
(Kronecker substitution).  Entries go into byte-aligned slots of one
integer, m entries of a block and then m zero slots, and that integer
is multiplied by the packed one-period chirp.  A block's product fills
the 2m-1 slots of its own stride, its wrapped terms m slots above the
rest.  One shift folds them down: P + (P >> m slots) for odd m, and
P - (P >> m slots) + bias for even m, where the bias puts K*n >= the
largest product slot in every slot, so no slot borrows, and vanishes
under the post-twist's reduction mod n.  A slot then holds at most
2m(n-1)^2 + n, which fixes the slot width.

Slot I/O stays in C builtins, and only the m live slots of a block pass
through it.  While a slot fits one 8-byte word, values go in and out
through array("Q") words, byte-swapped on big-endian hosts; a slot of
w < 8 bytes is narrowed to and widened from a word by w strided slice
copies, byte b of every slot at once.  Wider slots take one to_bytes or
from_bytes each.  The twist and the post-twist are one comprehension
each over every entry of the message.  The twisted entries are packed
densely and the gaps are made as bytes: one join puts m zero slots
after each block's m slots.  After the fold, one join takes the low m
slots of each 2m-slot stride, and only those are unpacked.  The block
slices come from map over slice objects, so no Python loop runs per
block or per entry.

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


def _heads(raw: bytes, take: int, stride: int) -> Iterable[bytes]:
    """The first `take` bytes of every `stride` bytes of `raw`."""
    size = len(raw)
    cuts = map(slice, range(0, size, stride), range(take, size + take, stride))
    return map(raw.__getitem__, cuts)


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
    """The tables of `_transform` at root r = omega^-1 if `inverse` else omega.

    (slot width, twist, twist times m^-1, packed chirp, bias):
    twist[i] is r^-T(i); the chirp is one period, r^T(k) for k < m,
    packed in reverse so that the correlation becomes a product.  The
    bias is the least multiple K*n of n that is at least m(n-1)^2, for
    even m; odd m folds without one and gets 0.
    """
    n, m = ring.n, ring.m
    up, down = ring.omega_powers, ring.omega_inverse_powers
    if inverse:
        up, down = down, up
    tri = [k * (k - 1) // 2 % m for k in range(m)]
    width = _slot_width(n, m)
    twist = tuple(down[t] for t in tri)
    chirp = _pack([up[t] for t in reversed(tri)], width)
    return (
        width,
        twist,
        tuple(t * ring.m_inverse % n for t in twist),
        int.from_bytes(chirp, "little"),
        0 if m % 2 else -(-m * (n - 1) ** 2 // n) * n,
    )


def _transform(
    ring: HalidonRing,
    blocks: Sequence[Sequence[int]],
    inverse: bool,
    scaled: bool,
) -> list[tuple[int, ...]]:
    """Every block's transform at omega^-1 if `inverse` else omega, times
    m^-1 if `scaled`: by columns where _takes_columns says so, else by
    the chirp.  Both give the same tuples.

    Every entry must lie in 0 .. n-1, so that a word of a column sum
    stays below m(n-1)^2.  The kernel checks nothing: as_entries reduces
    every vector, the encryptor's codes and units are residues, and the
    ciphertext type and its reader check every block's length and range
    before it gets here.
    """
    if not blocks:
        return []
    if _takes_columns(ring.n, ring.m, len(blocks)):
        return _by_columns(ring, blocks, inverse, scaled)
    return _by_chirp(ring, blocks, inverse, scaled)


def _takes_columns(n: int, m: int, count: int) -> bool:
    """Whether `count` blocks of length m mod n go by columns.

    Every column sum must fit a word, m(n-1)^2 < 2^64; there must be at
    least m blocks, so that the m^2 products are long enough to beat the
    chirp's twists; and m must be at most COLUMNS_MAX_M, past which m
    multiply-adds per entry cost more than the chirp's one multiply.
    """
    return m <= COLUMNS_MAX_M and count >= m and m * (n - 1) ** 2 < _WORD_LIMIT


def _by_columns(
    ring: HalidonRing,
    blocks: Sequence[Sequence[int]],
    inverse: bool,
    scaled: bool,
) -> list[tuple[int, ...]]:
    """Every block's transform as m column sums over the DFT matrix.

    Column i, entry i of every block, is one integer X_i with block t's
    entry in word t.  Output column j is Y_j = sum_i W[j][i] X_i, whose
    word t is sum_i W[j][i] f_(t,i) < m(n-1)^2, so no word carries into
    the next.  Each Y_j is scattered back into every m-th word, and one
    pass reduces every word mod n.
    """
    n, m = ring.n, ring.m
    rows = (ring.inverse_matrix if inverse else ring.matrix)[scaled]
    words = array("Q", chain.from_iterable(blocks))
    if _BIG_ENDIAN:
        words.byteswap()
    from_bytes = int.from_bytes
    columns = [from_bytes(words[i::m], "little") for i in range(m)]
    size = len(blocks) * _WORD
    for j, row in enumerate(rows):
        column = sum(map(mul, row, columns)).to_bytes(size, "little")
        words[j::m] = array("Q", column)
    if _BIG_ENDIAN:
        words.byteswap()
    out = [v % n for v in words]
    # zip over m references to one iterator cuts `out` into blocks
    return list(zip(*[iter(out)] * m))


def _by_chirp(
    ring: HalidonRing,
    blocks: Sequence[Sequence[int]],
    inverse: bool,
    scaled: bool,
) -> list[tuple[int, ...]]:
    """Every block's transform by the chirp, with one big-integer
    multiply for all the blocks.

    Block t occupies slots 2mt .. 2mt+m-1, and slots up to 2mt+2m-1 stay
    zero.  Its product with the reversed chirp fills slots 2mt ..
    2mt+2m-2 and no other block's: the terms with i+j < m land in slot
    2mt+m-1-j, and those with i+j >= m, which wrap to r^T(i+j-m), land
    m slots higher.  The fold adds (odd m) or subtracts (even m, over
    the bias) the product shifted down by m slots, so F_j is read from
    slot 2mt+m-1-j.

    Only the m live slots of a block move through Python: the twisted
    entries are packed densely and the zero gaps joined in as bytes, and
    after the fold only the low m slots of each 2m-slot stride are
    unpacked.  Those read F_(m-1) .. F_0 per block, so reversing the
    slot list puts every block in order F_0 .. F_(m-1), last block first.
    """
    n, m = ring.n, ring.m
    width, twist, twist_scaled, chirp, bias = (
        ring.inverse_chirp if inverse else ring.chirp
    )
    post = twist_scaled if scaled else twist
    live = m * width  # bytes of one block's m slots
    entries = [
        a * t % n for a, t in zip(chain.from_iterable(blocks), cycle(twist))
    ]
    dense = _pack(entries, width)
    # a block's m slots, then m zero slots for the rest of its product
    product = int.from_bytes(
        bytes(live).join(_heads(dense, live, live)), "little"
    ) * chirp
    size = 2 * len(dense)  # bytes of all the blocks' 2m-slot strides
    wrapped = product >> (8 * live)
    if bias:
        # K*n in every slot, so that no slot borrows in the fold, built
        # by doubling; the last shift overlaps slots that hold it already
        bits, have, count = 8 * width, 1, size // width
        while have < count:
            step = min(have, count - have)
            bias |= bias << (bits * step)
            have += step
        product += bias - wrapped
    else:
        product += wrapped
    raw = product.to_bytes(size, "little")
    slots = _unpack(b"".join(_heads(raw, live, 2 * live)), width)
    slots.reverse()
    out = [s * p % n for s, p in zip(slots, cycle(post))]
    # zip over m references to one iterator cuts `out` into blocks
    transforms = list(zip(*[iter(out)] * m))
    transforms.reverse()
    return transforms


def transform_vector(
    ring: HalidonRing, vec: VectorLike, inverse: bool, scaled: bool
) -> tuple[int, ...]:
    """`_transform` of the one vector `vec`, checked by as_entries."""
    (out,) = _transform(ring, [as_entries(ring, vec)], inverse, scaled)
    return out


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
