"""Discrete Fourier transform and cyclic convolution over a halidon ring.

All four transforms of the package (forward and inverse DFT here, the
lambda spectrum and its synthesis in group_ring) are one kernel,
`_transform`: F_j = s * sum_i f_i * r^(i*j) mod n with root r = omega or
omega^-1 and scale s = 1 or m^-1.  It is Bluestein's chirp transform in
the square-root-free form: with T(k) = k(k-1)/2, i*j = T(i+j) - T(i) - T(j),
so

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

Slot I/O stays in C builtins.  While a slot fits one 8-byte word, values
go in and out through array("Q") words, byte-swapped on big-endian
hosts; a slot of w < 8 bytes is narrowed to and widened from a word by w
strided slice copies, byte b of every slot at once.  Wider slots take
one to_bytes or from_bytes each.  The twist and the post-twist are one
comprehension each over every entry of the message, and the gaps
between blocks are made and removed by column: one strided slice
places entry i of every block, one reads spectrum entry j of every
block.  So the slot loops run m times per call, not once per block or
per entry.

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


def _pack(values: Sequence[int], width: int) -> int:
    """The integer with `values` in consecutive slots of `width` bytes."""
    if width > _WORD:
        raw = b"".join([v.to_bytes(width, "little") for v in values])
        return int.from_bytes(raw, "little")
    words = array("Q", values)
    if _BIG_ENDIAN:
        words.byteswap()
    raw = words.tobytes()
    if width < _WORD:
        narrow = bytearray(len(values) * width)
        for b in range(width):
            narrow[b::width] = raw[b::_WORD]
        raw = narrow
    return int.from_bytes(raw, "little")


def _unpack(number: int, count: int, width: int) -> list[int]:
    """The first `count` slots of `width` bytes of `number`, low slot first.

    Slots past the top of `number` read as zero.
    """
    size = count * width
    raw = number.to_bytes(
        max(size, (number.bit_length() + 7) // 8), "little"
    )[:size]
    if width > _WORD:
        from_bytes = int.from_bytes
        return [
            from_bytes(raw[i : i + width], "little")
            for i in range(0, size, width)
        ]
    if width < _WORD:
        wide = bytearray(count * _WORD)
        for b in range(width):
            wide[b::_WORD] = raw[b::width]
        raw = wide
    words = array("Q", raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def chirp_tables(ring: HalidonRing, inverse: bool) -> tuple:
    """The tables of `_transform` at root r = omega^-1 if `inverse` else omega.

    (slot width, twist, twist times m^-1, packed chirp, bias slot):
    twist[i] is r^-T(i); the chirp is one period, r^T(k) for k < m,
    packed in reverse so that the correlation becomes a product.  The
    bias slot is K*n in slot bytes, K*n the least multiple of n that is
    at least m(n-1)^2, for even m; odd m folds without one and gets b"".
    """
    n, m = ring.n, ring.m
    up, down = ring.omega_powers, ring.omega_inverse_powers
    if inverse:
        up, down = down, up
    tri = [k * (k - 1) // 2 % m for k in range(m)]
    width = _slot_width(n, m)
    twist = tuple(down[t] for t in tri)
    bias = b""
    if m % 2 == 0:
        bias = (-(-m * (n - 1) ** 2 // n) * n).to_bytes(width, "little")
    return (
        width,
        twist,
        tuple(t * ring.m_inverse % n for t in twist),
        _pack([up[t] for t in reversed(tri)], width),
        bias,
    )


def _transform(
    ring: HalidonRing,
    blocks: Sequence[Sequence[int]],
    inverse: bool,
    scaled: bool,
) -> list[tuple[int, ...]]:
    """Every block's transform at omega^-1 if `inverse` else omega, times
    m^-1 if `scaled`, with one big-integer multiply for all the blocks.

    Block t occupies slots 2mt .. 2mt+m-1, and slots up to 2mt+2m-1 stay
    zero.  Its product with the reversed chirp fills slots 2mt ..
    2mt+2m-2 and no other block's: the terms with i+j < m land in slot
    2mt+m-1-j, and those with i+j >= m, which wrap to r^T(i+j-m), land
    m slots higher.  The fold adds (odd m) or subtracts (even m, over
    the bias) the product shifted down by m slots, so F_j is read from
    slot 2mt+m-1-j.

    The kernel checks nothing: as_entries and the ciphertext type check
    every block's length before it gets here.
    """
    n, m = ring.n, ring.m
    width, twist, twist_scaled, chirp, bias = (
        ring.inverse_chirp if inverse else ring.chirp
    )
    post = twist_scaled if scaled else twist
    stride = 2 * m
    entries = [
        a * t % n for a, t in zip(chain.from_iterable(blocks), cycle(twist))
    ]
    flat = [0] * (len(blocks) * stride)
    for i in range(m):
        flat[i::stride] = entries[i::m]
    product = _pack(flat, width) * chirp
    wrapped = product >> (8 * width * m)
    if bias:
        product += int.from_bytes(bias * len(flat), "little") - wrapped
    else:
        product += wrapped
    slots = _unpack(product, len(flat), width)
    for j in range(m):
        entries[j::m] = slots[m - 1 - j :: stride]
    out = [s * p % n for s, p in zip(entries, cycle(post))]
    # zip over m references to one iterator cuts `out` into blocks
    return list(zip(*[iter(out)] * m))


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
    product = _pack([v % n for v in a], width) * _pack([v % n for v in b], width)
    slots = _unpack(product, 2 * m, width)
    return tuple([(low + high) % n for low, high in zip(slots, slots[m:])])


def convolve(ring: HalidonRing, f: VectorLike, g: VectorLike) -> ResidueVector:
    """Cyclic convolution of two vectors in the ring."""
    a = as_entries(ring, f)
    b = as_entries(ring, g)
    return ResidueVector(cyclic_convolve(a, b, ring.n), ring)


def pointwise_mul(f: ResidueVector, g: VectorLike) -> ResidueVector:
    """Entrywise product mod n; g is checked against f's ring."""
    return ResidueVector(map(mul, f.entries, as_entries(f.ring, g)), f.ring)
