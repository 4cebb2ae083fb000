"""Discrete Fourier transform and cyclic convolution over a halidon ring.

All four transforms of the package (forward and inverse DFT here, the
lambda spectrum and its synthesis in group_ring) are one kernel,
`_transform`: F_j = s * sum_i f_i * r^(i*j) mod n with root r = omega or
omega^-1 and scale s = 1 or m^-1, for every block of m entries of one
flat list, into one flat list, in one call; no block is cut from it.  It
has three methods, which give the same list, and picks one from the
shape of its input alone (_takes_columns, _takes_rader): n, the block
length m and the number of blocks.  Each method's tables, at omega or
omega^-1, are built on first use (matrix_tables, rader_tables,
chirp_tables) and kept by _tables in the ring's kernel_tables dict, once
per ring, builder and root: the ring itself knows no method.

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

By Rader's convolution, for m = p and m = 2p, p an odd prime, from
m = RADER_MIN_M on.  At m = 2p, Good's prime-factor map splits a block
with no twiddle factor: every index is 2i or p+2i mod m for one i < p
(Z_2p = Z_2 x Z_p), so with e_i = f_2i, o_i = f_(p+2i mod m) and
beta = r^2, r^((p+2i)k) = r^(pk) beta^(ik) gives

    F_k = E_(k mod p) + (-1)^k O_(k mod p),

E and O being length-p transforms at beta, since r^p = -1 (r^p - 1 is
a unit and (r^p - 1)(r^p + 1) = 0).  Even k read SUM = E + O, odd k
DIFF = E - O.  At m = p there is one row, the block itself, at
beta = r.  Rader turns a length-p transform into a cyclic convolution
of length p-1 by index maps alone: with g a generator of (Z/p)^*, row
entry g^a taken to slot a (generator order) and j = g^-k,
i*j = g^(a-k), so

    X_0 = s (x_0 + sum_a x_(g^a)),
    X_(g^-k) = s x_0 + sum_a x_(g^a) w_(k-a),  w_t = s beta^(g^-t),

indices of w taken mod p-1.  Each row's convolution is one product
with the packed kernel w, folded once, P + (P >> p-1 slots); the head
s x_0 is added to every slot, which moves up one slot, and the row's
sum times s takes slot 0.  At m = 2p, DIFF subtracts a row of at most
p*top*(n-1) per slot, top being the call's largest entry, so it takes
the bias K*n >= p*top*(n-1), which vanishes mod n.  Since no entry is
twisted, a slot holds at most SUM's m*top*(n-1) or DIFF's
p*top*(n-1) + K*n < m*top*(n-1) + n, and the slot width follows the
call's largest entry: at n = 491063, m = 202 the codes 0 .. 39 of DFT
encryption take 4-byte slots, where full residues (and the chirp) take
6.  Every other per-entry step is a gather: an itemgetter per block
takes only what the kernel multiplies, each row's p-1 entries x_(g^a)
in generator order (the heads x_0 are every p-th entry of the input),
and another puts each block's slots (F_0, then F_(g^-k), SUM's row then
DIFF's) back in index order for the one pass mod n.  There is no twist.
In a sweep of m = p and 2p against the chirp, at 1 to 496 blocks on a
shared 2-vCPU host, it took 0.59-0.83 of the chirp's time on codes and
0.75-0.99 on full residues from m = 34 to 2018, but for a few blocks
of full residues at odd m = 37 to 53 (up to 1.13 times at one block).
Below m = 34 it lost on full residues, up to 1.2 times at m = 22 to 31
and up to 1.66 times at m <= 19: there the gathers, the row sums and
the call's fixed work cost more than the twists they save.

By the chirp, for everything else.  It is Bluestein's chirp transform
in the square-root-free form: with T(k) = k(k-1)/2,
i*j = T(i+j) - T(i) - T(j), so

    F_j = s r^-T(j) sum_i (f_i r^-T(i)) r^T(i+j),

a correlation of the twisted input with the chirp r^T(k), behind the
same twist r^-T(j).  Only powers of r appear, so it holds for every n.
The chirp has period m up to sign: T(k+m) = T(k) + km + m(m-1)/2, and
r^(m(m-1)/2) is 1 for odd m and r^(m/2) = -1 for even m, where
m(m-1)/2 = m/2 mod m.  So the correlation is cyclic for odd m and
negacyclic for even m.

Every block's correlation is one big-integer product (Kronecker
substitution): a block's m twisted entries fill byte-aligned slots of
one integer, which is multiplied by one period of the chirp, packed in
reverse.  The product's 2m-1 slots hold the wrapped terms m slots above
the rest, and one shift folds them down, P + (P >> m slots) for odd m
or P - (P >> m slots) for even m.  A raw product slot is at most
m(n-1)^2, so a negacyclic fold can leave a slot as low as -m(n-1)^2:
even m adds a bias K*n >= m(n-1)^2 to every slot, so that no slot
borrows, and the bias vanishes mod n in the post-twist.  A slot holds
at most m(n-1)^2, plus the bias at even m, which fixes the slot width.

Both product methods share their slot I/O, which stays in C builtins.
While a slot fits one 8-byte word, values go in and out through an
array of words, byte-swapped on big-endian hosts: of the slot's own
width when there is one (1, 2, 4 or 8 bytes), else of 8-byte words,
narrowed to and widened from the slot by w strided slice copies, byte b
of every slot at once.  Wider slots take one to_bytes or from_bytes
each.  The rows of the whole call are packed densely into one bytes
object and cut into one integer per row; each row's product is folded
(_fold), and only the low, exact slots of each result are joined and
unpacked (_slots).  The chirp's twist and post-twist are one
comprehension each over every entry of the message, and its results
are joined last block first, so that read in reverse the unpacked
slots are every entry in order.  Slices by map cut the blocks: no
Python loop runs per block or entry.
cyclic_convolve is one such product too: both vectors packed at once,
the second as the kernel, one cyclic fold at m slots and one pass mod n.

Vectors are 0-indexed: entry i is the coefficient of x^i, spectrum entry
j is the value at omega^j.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, cycle, repeat
from operator import add, and_, itemgetter, lshift, mul, rshift, sub
from typing import Iterable, Sequence

from .analysis import HalidonRing
from .arith import _Value
from .errors import LengthMismatch, ModulusMismatch

VectorLike = Iterable[int]  # a raw sequence or any vector class

# Slots of up to one machine word move through array("Q") words, or
# through the array type of their own width where there is one.
_WORD = array("Q").itemsize
_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}
_BIG_ENDIAN = sys.byteorder == "big"
_WORD_LIMIT = 1 << 8 * _WORD
# The longest blocks that go by columns (_takes_columns): up to here m
# multiply-adds per entry beat the chirp once there are m blocks.
COLUMNS_MAX_M = 32
# The shortest blocks that go by Rader's convolution (_takes_rader): a
# sweep of m = p and 2p (module docstring) found it no slower than the
# chirp from here on, save for a few full blocks at odd m up to 53.
RADER_MIN_M = 34


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


def _slot_width(n: int, m: int, top: int) -> int:
    """Bytes per slot: room for m products of a residue and an entry of at
    most `top`, plus n."""
    return ((m * top * (n - 1) + n).bit_length() + 7) // 8


def _pack(values: Sequence[int], width: int) -> bytes:
    """`values` as consecutive little-endian slots of `width` bytes."""
    if width > _WORD:
        return b"".join([v.to_bytes(width, "little") for v in values])
    code = _TYPECODES.get(width)
    words = array(code or "Q", values)
    if _BIG_ENDIAN:
        words.byteswap()
    raw = words.tobytes()
    if code is None:
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
    code = _TYPECODES.get(width)
    if code is None:
        wide = bytearray(len(raw) // width * _WORD)
        for b in range(width):
            wide[b::_WORD] = raw[b::width]
        raw, code = wide, "Q"
    words = array(code, raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _blocks(seq: Sequence, size: int) -> Iterable:
    """The consecutive slices of `size` items that make up `seq`."""
    stops = range(size, len(seq) + size, size)
    return map(seq.__getitem__, map(slice, range(0, len(seq), size), stops))


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
    (slot width, twist, twist times m^-1, chirp, bias), as the module
    docstring derives them.  The twist r^-T(k) serves before the product
    and after it.  The chirp r^T(k) is one period packed in reverse, so
    that the correlation becomes a product.  The bias is the least
    multiple K*n of n that is at least m(n-1)^2 in each of m slots at
    even m, and 0 at odd m, where slots need room for m(n-1)^2 alone.
    """
    n, m = ring.n, ring.m
    up, down = ring.omega_powers, ring.omega_inverse_powers
    if inverse:
        up, down = down, up
    tri = [k * (k - 1) // 2 % m for k in range(m)]
    width = _slot_width(n, m, n - 1 if m % 2 else 2 * (n - 1))  # and bias
    chirp = int.from_bytes(_pack([up[t] for t in tri[::-1]], width), "little")
    twist = tuple([down[t] for t in tri])
    scale = ring.m_inverse
    bias = 0 if m % 2 else -(-m * (n - 1) ** 2 // n) * n
    bias = int.from_bytes(bias.to_bytes(width, "little") * m, "little")
    return width, twist, tuple([t * scale % n for t in twist]), chirp, bias


def rader_tables(ring: HalidonRing, inverse: bool) -> tuple:
    """The tables of `_by_rader` at root r = omega^-1 if `inverse` else
    omega, as the module docstring derives them: (gather, scatter,
    kernels).  With g the least generator of (Z/p)^*, the gather takes
    each length-p row but its head in generator order, entry g^a to slot
    a; the scatter puts a block's row results, F_0 then F_(g^-k) for
    k < p-1 (SUM's row, then DIFF's at m = 2p), back in index order; the
    kernels are w_t = beta^(g^-t), beta = r^(m/p), and w_t times m^-1,
    which each call packs after its rows, at its own slot width.
    """
    n, m = ring.n, ring.m
    up = ring.omega_inverse_powers if inverse else ring.omega_powers
    p = m if m % 2 else m // 2
    step = m // p  # beta = r^step
    for g in range(2, p):  # order holds g^0 .. g^(p-2) mod p
        order = [1]
        while (power := order[-1] * g % p) != 1:
            order.append(power)
        if len(order) == p - 1:
            break
    gather = [step * i for i in order]
    if step == 2:  # the odd row starts at entry p: o_i = f_(p+2i mod m)
        gather += [(p + 2 * i) % m for i in order]
    slot = dict(zip(order, [1, *range(p - 1, 1, -1)]))  # g^a: 1 + (-a mod p-1)
    slot[0] = 0
    scatter = [p * (j % step) + slot[j % p] for j in range(m)]
    kernel = [up[step * i] for i in order[:1] + order[:0:-1]]  # g^-t
    scale = ring.m_inverse
    kernels = kernel, [w * scale % n for w in kernel]
    return itemgetter(*gather), itemgetter(*scatter), kernels


def _tables(ring: HalidonRing, build, inverse: bool) -> tuple:
    """`build`(ring, inverse), built on first use and kept in the ring's
    kernel_tables under (build, inverse): once per ring, method and root."""
    cache, key = ring.kernel_tables, (build, inverse)
    if key not in cache:
        cache[key] = build(ring, inverse)
    return cache[key]


def _transform(
    ring: HalidonRing, entries: Sequence[int], inverse: bool, scaled: bool
) -> list[int]:
    """The transforms of the blocks of m of the flat `entries`, in one
    flat list, at omega^-1 if `inverse` else omega, times m^-1 if
    `scaled`: by columns where _takes_columns says so, by Rader's
    convolution where _takes_rader does, else by the chirp.

    The length of `entries` must be a multiple of m, and every entry must
    lie in 0 .. n-1, so that a word of a column sum stays below m(n-1)^2.
    The kernel checks nothing: as_entries reduces every vector, the
    encryptor's codes and units are residues, and the ciphertext type and
    its reader check every block's length and range before it gets here.
    """
    if not entries:
        return []
    n, m = ring.n, ring.m
    if _takes_columns(n, m, len(entries) // m):
        return _by_columns(ring, entries, inverse, scaled)
    if _takes_rader(m):
        return _by_rader(ring, entries, inverse, scaled)
    return _by_chirp(ring, entries, inverse, scaled)


def _takes_columns(n: int, m: int, count: int) -> bool:
    """Whether `count` blocks of length m mod n go by columns.

    Every column sum must fit a word, m(n-1)^2 < 2^64; there must be at
    least m blocks, so that the m^2 products are long enough to beat the
    chirp's twists; and m must be at most COLUMNS_MAX_M, past which m
    multiply-adds per entry cost more than the chirp's one multiply.
    """
    return m <= COLUMNS_MAX_M and count >= m and m * (n - 1) ** 2 < _WORD_LIMIT


def _takes_rader(m: int) -> bool:
    """Whether blocks of length m go by Rader's convolution: m = p or
    m = 2p for an odd prime p, and m at least RADER_MIN_M, below which
    the gathers and the row sums cost more than the chirp's twists.
    Trial division by odd d up to sqrt(p) costs far less than the
    transform of one block."""
    p = m if m % 2 else m // 2
    return (
        m >= RADER_MIN_M and p % 2 == 1
        and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
    )


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
    rows = _tables(ring, matrix_tables, inverse)[scaled]
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


def _by_rader(
    ring: HalidonRing, entries: Sequence[int], inverse: bool, scaled: bool
) -> list[int]:
    """Every block's transform by Rader's convolution, m = p or m = 2p.

    Each block gives one row of p entries at m = p, two at m = 2p (its
    even entries, and its odd ones from entry p), packed in generator
    order without the head x_0, which is every p-th entry.  Per row, the
    folded product with the kernel, plus s x_0 in every slot, fills
    slots 1 .. p-1, and s times the row sum fills slot 0.  At m = 2p the
    rows of a block give SUM and DIFF + K*n, K*n >= p*top*(n-1) for the
    call's largest entry top, so no slot borrows.  The scatter puts each
    block in index order for the one pass mod n.
    """
    n, m = ring.n, ring.m
    gather, scatter, kernels = _tables(ring, rader_tables, inverse)
    p = m if m % 2 else m // 2
    top = max(entries)
    width = _slot_width(n, m, top)
    live = (p - 1) * width
    s = ring.m_inverse if scaled else 1
    rows = list(chain.from_iterable(map(gather, _blocks(entries, m))))
    *packed, kernel = _blocks(_pack(rows + kernels[scaled], width), live)
    folds = _fold(packed, int.from_bytes(kernel, "little"), live)
    heads = entries[::p]  # f_0, and at m = 2p f_p, of every block
    s_slots = int.from_bytes(s.to_bytes(width, "little") * (p - 1), "little")
    spread = map(mul, heads, repeat(s_slots))
    sums = map(mul, map(add, map(sum, _blocks(rows, p - 1)), heads), repeat(s))
    shifted = map(lshift, map(add, folds, spread), repeat(8 * width))
    values = list(map(add, shifted, sums))
    if m > p:
        bias = -(-p * top * (n - 1) // n) * n
        bias = int.from_bytes(bias.to_bytes(width, "little") * p, "little")
        even, odd = values[0::2], values[1::2]
        diffs = map(add, map(sub, even, odd), repeat(bias))
        values = chain.from_iterable(zip(map(add, even, odd), diffs))
    slots = _slots(values, p * width, width)
    ordered = chain.from_iterable(map(scatter, _blocks(slots, m)))
    return [v % n for v in ordered]


def _by_chirp(
    ring: HalidonRing, entries: Sequence[int], inverse: bool, scaled: bool
) -> list[int]:
    """Every block's transform by the chirp: one big-integer product of m
    slots per block.

    Each block of twisted entries times the chirp is folded, added at
    odd m and subtracted at even m, where the bias K*n >= m(n-1)^2 keeps
    every slot from borrowing; slot m-1-j of the fold is correlation j.
    The blocks are taken last first, so the slots read in reverse give
    every entry in order to one post-twist pass.
    """
    n, m = ring.n, ring.m
    width, twist, twist_scaled, chirp, bias = _tables(
        ring, chirp_tables, inverse
    )
    live = m * width
    twisted = _pack([a * t % n for a, t in zip(entries, cycle(twist))], width)
    folds = _fold(_blocks(twisted, live), chirp, live, 1 if m % 2 else -1)
    slots = _slots(map(add, reversed(folds), repeat(bias)), live, width)
    post = twist_scaled if scaled else twist
    return [s * p % n for s, p in zip(reversed(slots), cycle(post))]


def _fold(
    rows: Iterable[bytes], kernel: int, live: int, wrap: int = 1
) -> list[int]:
    """Each little-endian row of `rows` times `kernel`, the product's
    slots from byte `live` on folded onto the low ones: added for a
    cyclic product (wrap 1), subtracted for a negacyclic one (wrap -1).
    Only the low `live` bytes of each result hold the fold.
    """
    rows = map(int.from_bytes, rows, repeat("little"))
    products = list(map(mul, rows, repeat(kernel)))
    wrapped = map(rshift, products, repeat(8 * live))
    return list(map(add if wrap > 0 else sub, products, wrapped))


def _slots(values: Iterable[int], size: int, width: int) -> list[int]:
    """The low `size` bytes of each of `values`, one after the other, as
    slots of `width` bytes: the only bytes of each that are exact."""
    mask = (1 << 8 * size) - 1
    values = map(and_, values, repeat(mask))
    low = map(int.to_bytes, values, repeat(size), repeat("little"))
    return _unpack(b"".join(low), width)


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
    """Coefficients of a*b mod (x^m - 1) over Z_n, m = len(a) = len(b):
    one product of the packed vectors, folded at m slots by _fold."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if len(a) != len(b):
        raise LengthMismatch(f"convolution of lengths {len(a)} and {len(b)}")
    width = _slot_width(n, len(a), n - 1)
    live = len(a) * width
    dense = _pack([v % n for v in chain(a, b)], width)  # b is the kernel
    folds = _fold([dense[:live]], int.from_bytes(dense[live:], "little"), live)
    return tuple([v % n for v in _slots(folds, live, width)])


def convolve(ring: HalidonRing, f: VectorLike, g: VectorLike) -> ResidueVector:
    """Cyclic convolution of two vectors in the ring."""
    a = as_entries(ring, f)
    b = as_entries(ring, g)
    return ResidueVector(cyclic_convolve(a, b, ring.n), ring)


def pointwise_mul(f: ResidueVector, g: VectorLike) -> ResidueVector:
    """Entrywise product mod n; g is checked against f's ring."""
    return ResidueVector(map(mul, f.entries, as_entries(f.ring, g)), f.ring)
