"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: scans, schoolbook products, and
the orthogonality definition taken literally, so that oracle failures
and implementation failures cannot share a cause.
"""

import sys
from itertools import product
from math import gcd

from hypothesis import strategies as st

from halidon import CiphertextDFT, CiphertextHGR, Residue, crt_combine
from halidon.protocol import render_ciphertext


def is_definition_primitive(n: int, m: int, w: int) -> bool:
    """Literal definition: invertible index, minimal order m, power sums.

    w must satisfy w^m = 1 with m minimal, and for every r the sum
    1 + w^r + ... + w^((m-1)r) must be m for r = 0 and 0 otherwise;
    the index m itself must be a unit so the structure is usable.
    """
    if gcd(m, n) != 1:
        return False
    power = w % n
    order = None
    for k in range(1, m + 1):
        if power == 1:
            order = k
            break
        power = power * w % n
    if order != m:
        return False
    for r in range(m):
        total = sum(pow(w, r * i, n) for i in range(m)) % n
        if total != (m % n if r == 0 else 0):
            return False
    return True


def is_divisor_criterion_primitive(n: int, m: int, w: int) -> bool:
    """The unit criterion over every proper divisor d of m, found by scan.

    gcd(m, n) = 1, w^m = 1, and w^d - 1 a unit for each d < m dividing
    m: the long form of the criterion that the library tests only at
    d = m/q for the primes q of m.
    """
    if gcd(m, n) != 1 or pow(w, m, n) != 1:
        return False
    return all(
        gcd(pow(w, d, n) - 1, n) == 1 for d in range(1, m) if m % d == 0
    )


def definition_roots(n: int, m: int) -> list[int]:
    """All w < n passing the literal definition, ascending."""
    return [w for w in range(n) if is_definition_primitive(n, m, w)]


def schoolbook_cyclic(a, b, n: int) -> tuple[int, ...]:
    """Full 2m-1 coefficient product, then folded mod x^m - 1."""
    m = len(a)
    assert len(b) == m
    full = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            full[i + j] += a[i] * b[j]
    folded = full[:m]
    for k in range(m, 2 * m - 1):
        folded[k - m] += full[k]
    return tuple(v % n for v in folded)


def naive_dft(values, n: int, root: int, scale: int = 1) -> tuple[int, ...]:
    """scale * sum_i values[i] * root^(i*j) mod n for each j, every power by pow."""
    m = len(values)
    return tuple(
        scale * sum(v * pow(root, i * j, n) for i, v in enumerate(values)) % n
        for j in range(m)
    )


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Factorization by undiluted trial division."""
    out = []
    d = 2
    while d * d <= n:
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        if count:
            out.append((d, count))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_lambda(coeffs, n: int, m: int, omega: int) -> list[int]:
    """Spectrum via the reversed-index formula taken verbatim.

    lambda_r = sum over i of a[(m - i + 2) mod m, with 0 meaning m] times
    omega^((i-1)(r-1)), indices 1-based.  Used to pin the index-wrapping
    convention of the cleaner evaluation form.
    """
    a = {i + 1: coeffs[i] for i in range(m)}
    out = []
    for r in range(1, m + 1):
        total = 0
        for i in range(1, m + 1):
            idx = (m - i + 2) % m
            if idx == 0:
                idx = m
            total += a[idx] * pow(omega, (i - 1) * (r - 1), n)
        out.append(total % n)
    return out


def crt_product_roots(n: int, m: int) -> list[int]:
    """Primitive m-th roots of Z_n by the product of the component lists.

    Per prime power p^e, the powers z^j (gcd(j, m) = 1) of z = g^((p-1)/m)
    lifted by p^(e-1), with g the least generator mod p; then one
    crt_combine per tuple of the product.  Assumes m > 1 divides p - 1
    for every prime p of n.
    """
    components = []
    for p, e in trial_factor(n):
        order_primes = [q for q, _ in trial_factor(p - 1)]
        g = next(
            g for g in range(2, p)
            if all(pow(g, (p - 1) // q, p) != 1 for q in order_primes)
        )
        pe = p**e
        z = pow(pow(g, (p - 1) // m, p), p ** (e - 1), pe)
        roots = [pow(z, j, pe) for j in range(1, m + 1) if gcd(j, m) == 1]
        components.append([Residue(r, pe) for r in roots])
    return sorted(crt_combine(list(combo)).value for combo in product(*components))


SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ :.-"


def per_character_codes(text: str):
    """Symbol codes by the one-character-at-a-time rule of the format.

    Each character is uppercased; it is accepted when that gives exactly
    one character of the alphabet.  Returns (codes, None), or (None,
    (char, position)) for the first character rejected.
    """
    codes = []
    for pos, char in enumerate(text):
        folded = char.upper()
        if len(folded) != 1 or folded not in SYMBOLS:
            return None, (char, pos)
        codes.append(SYMBOLS.index(folded))
    return tuple(codes), None


CIPHERTEXT_HEADERS = ("RSA-DFT v1", "RSA-HGR v1")


def reference_read_ciphertext(data: bytes):
    """A ciphertext file's bytes read by its rules one at a time, every
    line in turn: ("ok", header, n, m, c, blocks), or ("fault", line,
    reason) for the first rule that fails, with the reason the reader
    gives.  No regex and no bulk pass: str.isdigit on ASCII text is the
    [0-9]+ rule.
    """
    if b"\r" in data:
        line = data[: data.index(b"\r")].count(b"\n") + 1
        return "fault", line, "carriage return: lines end in LF"
    lines = data.decode("utf-8", "backslashreplace").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] not in CIPHERTEXT_HEADERS:
        return "fault", 1, "expected header 'RSA-DFT v1' or 'RSA-HGR v1'"
    if len(lines) < 5:
        return "fault", len(lines), "expected at least 5 lines"
    tokens_by_line = []
    for number, line in enumerate(lines[1:], start=2):
        name = ("n", "m", "c")[number - 2] if number <= 4 else "block"
        if not line.startswith(name + "="):
            return "fault", number, f"expected line {name}=..."
        value = line[len(name) + 1 :]
        tokens = value.split(" ") if name == "block" else [value]
        if not all(t.isascii() and t.isdigit() for t in tokens):
            if name == "block":
                return "fault", number, (
                    "non-integer block entry (block entries are [0-9]+"
                    " separated by single spaces)"
                )
            return "fault", number, f"not a decimal integer: {value!r}"
        tokens_by_line.append(tokens)
    # the digit limit, once every line's syntax holds
    limit = sys.get_int_max_str_digits()
    for number, tokens in enumerate(tokens_by_line, start=2):
        longest = max(len(t) for t in tokens)
        if limit and longest > limit:
            return "fault", number, (
                f"decimal of {longest} digits is over the limit of {limit}"
                " digits for integer conversion"
            )
    values = [[int(t) for t in tokens] for tokens in tokens_by_line]
    (n,), (m,), (c,), *rows = values
    if c >= n:
        return "fault", 4, f"c = {c} is not a residue mod {n}"
    for number, row in enumerate(rows, start=5):
        if len(row) != m:
            reason = f"block has {len(row)} entries, expected {m}"
            return "fault", number, reason
        if max(row) >= n:
            return "fault", number, f"block entry outside Z_{n}"
    return "ok", lines[0], n, m, c, tuple(map(tuple, rows))


# bytes a mutation may write over any byte of a ciphertext file
MUTATION_BYTES = b"0123456789 \n=blockx\t+_-\xff"


def _set_entry(draw, line: bytes, entry: bytes) -> bytes:
    """`line` with one of its space-separated entries (after the `=`, if
    any) replaced by `entry`."""
    head, sep, rest = line.partition(b"=")
    if not sep:
        head, rest = b"", head
    tokens = rest.split(b" ")
    tokens[draw(st.integers(0, len(tokens) - 1))] = entry
    return head + sep + b" ".join(tokens)


def _mutate(draw, kind: str, lines: list, n: int) -> None:
    """Apply one mutation of `kind` to the lines of a ciphertext file,
    in place; rows are the lines from index 4 on, when any are left."""
    first = 4 if len(lines) > 4 else 0
    at = draw(st.integers(first, len(lines) - 1))
    line = lines[at]
    below_n, small = st.integers(0, n - 1), st.integers(0, 2)
    if kind == "substitute":
        i = draw(st.integers(0, max(len(line) - 1, 0)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        lines[at] = line[:i] + bytes([byte]) + line[i + 1 :]
    elif kind == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif kind == "duplicate":
        lines.insert(at, line)
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], line
    elif kind == "leading-zeros":
        zeros = b"0" * draw(st.integers(1, 3))
        lines[at] = _set_entry(draw, line, b"%s%d" % (zeros, draw(below_n)))
    elif kind == "drop-prefix":
        lines[at] = line.partition(b"=")[2]
    elif kind == "mid-line-block":
        i = draw(st.integers(0, len(line)))
        lines[at] = line[:i] + b"block=" + line[i:]
    elif kind == "one-more-entry":
        lines[at] = b"%s %d" % (line, draw(below_n))
    elif kind == "one-less-entry":
        lines[at] = line.rpartition(b" ")[0] or b"block="
    elif kind == "entry-at-least-n":
        lines[at] = _set_entry(draw, line, b"%d" % (n + draw(small)))
    elif kind == "empty-entry":  # a double, leading or trailing space
        lines[at] = _set_entry(draw, line, b"")
    elif kind == "entry-int-would-take":
        lines[at] = _set_entry(draw, line, draw(st.sampled_from(INT_TAKES)))
    elif kind == "c-at-least-n":
        lines[3 if len(lines) > 4 else at] = b"c=%d" % (n + draw(small))
    elif kind == "c-at-least-n-and-a-bad-row":
        if len(lines) > 4:
            lines[3] = b"c=%d" % (n + draw(small))
        _mutate(draw, draw(st.sampled_from(ROW_FAULTS)), lines, n)
    elif kind == "5000-digit-entry":
        lines[at] = _set_entry(draw, line, draw(st.sampled_from(HUGE)))
    elif kind == "5000-digit-n-m-or-c" and len(lines) > 1:
        at = draw(st.integers(1, min(3, len(lines) - 1)))
        lines[at] = _set_entry(draw, lines[at], draw(st.sampled_from(HUGE)))


# decimals past CPython's default int-string limit of 4300 digits
HUGE = (b"9" * 5000, b"0" * 4999 + b"1")
# entries int() takes that the format does not: a sign, an underscore,
# surrounding whitespace, a non-ASCII digit
INT_TAKES = (b"+1", b"1_0", b"\t1", b"1\x0b", "\u0663".encode("utf-8"))
ROW_FAULTS = (
    "substitute",
    "drop-prefix",
    "empty-entry",
    "entry-int-would-take",
    "leading-zeros",
    "mid-line-block",
    "one-more-entry",
    "one-less-entry",
    "entry-at-least-n",
    "5000-digit-entry",
)
MUTATIONS = ROW_FAULTS + (
    "drop",
    "duplicate",
    "swap",
    "missing-final-lf",
    "doubled-final-lf",
    "c-at-least-n",
    "c-at-least-n-and-a-bad-row",
    "5000-digit-n-m-or-c",
)


@st.composite
def mutated_ciphertexts(draw) -> bytes:
    """render_ciphertext's bytes for a small random ciphertext (the file
    write_ciphertext writes), after one to three drawn MUTATIONS."""
    n = draw(st.sampled_from((2, 91, 487411, 2**61 - 1)))
    m = draw(st.integers(1, 6))
    entry = st.integers(0, n - 1)
    blocks = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=6))
    cls = draw(st.sampled_from((CiphertextDFT, CiphertextHGR)))
    text = render_ciphertext(cls(n, m, draw(entry), tuple(blocks)))
    lines = text.encode("ascii").split(b"\n")[:-1]
    end = b"\n"
    kinds = st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)
    for kind in draw(kinds):
        if kind == "missing-final-lf":
            end = b""
        elif kind == "doubled-final-lf":
            end = b"\n\n"
        elif lines:
            _mutate(draw, kind, lines, n)
    return b"\n".join(lines) + end
