"""The one strict line reader behind key, table and ciphertext files."""

import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mutated_ciphertexts, reference_read_ciphertext

from halidon import (
    CiphertextDFT,
    CiphertextHGR,
    Factorization,
    RsaPrivateKey,
    RsaPublicKey,
    UnitAssignment,
    read_ciphertext,
    read_private_key,
    read_public_key,
    read_table,
)
from halidon import protocol
from halidon._files import MAX_FILE_BYTES, decimal_row, decimal_rows
from halidon.codec import render_table
from halidon.errors import MalformedFile
from halidon.protocol import render_ciphertext
from halidon.rsa import render_private_key, render_public_key

READERS = {
    "public": read_public_key,
    "private": read_private_key,
    "table": read_table,
    "ciphertext": read_ciphertext,
}
VALID = {
    "public": "HALIDON-RSA PUBLIC v1\nn=91\ne=5\nm=6\n",
    "private": (
        "HALIDON-RSA PRIVATE v1\nn=91\nd=29\nphi=72\nm=6\nfactors=7^1,13^1\n"
    ),
    "table": render_table(UnitAssignment(101, tuple(range(1, 41)))),
    "ciphertext": "RSA-DFT v1\nn=91\nm=6\nc=82\nblock=34 0 0 0 0 0\n",
}
CT_LINES = ["RSA-DFT v1", "n=91", "m=6", "c=82", "block=34 0 0 0 0 0"]

PRIMES = (3, 5, 7, 11, 13, 101, 607, 809, 2**61 - 1)
naturals = st.integers(0, 2**80)


@st.composite
def private_keys(draw):
    primes = sorted(draw(st.sets(st.sampled_from(PRIMES), min_size=1, max_size=4)))
    f = Factorization(tuple((p, draw(st.integers(1, 3))) for p in primes))
    return RsaPrivateKey(f.n, draw(naturals), draw(naturals), f, draw(naturals))


@st.composite
def tables(draw):
    n = draw(st.sampled_from((41, 43, 491059, 2**61 - 1)))
    units = st.lists(st.integers(1, n - 1), min_size=40, max_size=40)
    return UnitAssignment(n, tuple(draw(units)))


@st.composite
def ciphertexts(draw):
    n = draw(st.integers(2, 2**80))
    m = draw(st.integers(1, 12))
    entry = st.integers(0, n - 1)
    block = st.tuples(*[entry] * m)
    blocks = draw(st.lists(block, min_size=1, max_size=5))
    cls = draw(st.sampled_from((CiphertextDFT, CiphertextHGR)))
    return cls(n, m, draw(entry), tuple(blocks))


values = st.one_of(
    st.builds(RsaPublicKey, naturals, naturals, naturals),
    private_keys(),
    tables(),
    ciphertexts(),
)
# (read, render) per value type
FORMATS = {
    RsaPublicKey: (read_public_key, render_public_key),
    RsaPrivateKey: (read_private_key, render_private_key),
    UnitAssignment: (read_table, render_table),
    CiphertextDFT: (read_ciphertext, render_ciphertext),
    CiphertextHGR: (read_ciphertext, render_ciphertext),
}


def write(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("files") / "x"
    path.write_text(text, encoding="utf-8")
    return path


@settings(max_examples=150, deadline=None)
@given(values, st.data())
def test_read_inverts_render_and_any_bad_digit_fails_its_line(
    tmp_path_factory, value, data
):
    read, render = FORMATS[type(value)]
    text = render(value)
    assert read(write(tmp_path_factory, text)) == value

    lines = text.split("\n")
    digits = [
        (number, i)
        for number, line in enumerate(lines, start=1)
        for i, char in enumerate(line)
        if number > 1 and i > line.index("=") and char.isdigit()
    ]
    number, i = data.draw(st.sampled_from(digits))
    bad = data.draw(st.sampled_from(["+", "_", "-", ".", "\t", "٣", "²"]))
    line = lines[number - 1]
    lines[number - 1] = line[:i] + bad + line[i + 1 :]
    with pytest.raises(MalformedFile) as info:
        read(write(tmp_path_factory, "\n".join(lines)))
    assert info.value.line == number


@pytest.mark.parametrize(
    "block",
    [
        "block=+34 0_0 ٣ 0 0 0",
        "block=34\t0 0 0 0 0",
        "block=34　0 0 0 0 0",
        "block=34  0 0 0 0 0",
        "block= 34 0 0 0 0 0",
        "block=34 0 0 0 0 0 ",
    ],
    ids=["signs-underscores-arabic", "tab", "ideographic-space",
         "double-space", "leading-space", "trailing-space"],
)
def test_block_entries_are_ascii_digits_one_space_apart(tmp_path, block):
    path = tmp_path / "x.ct"
    path.write_text("\n".join(CT_LINES[:4] + [block]) + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as info:
        read_ciphertext(path)
    assert info.value.line == 5
    assert "block entries are [0-9]+ separated by single spaces" in str(
        info.value
    )


@pytest.mark.parametrize("kind", READERS)
def test_crlf_line_endings_are_refused(tmp_path, kind):
    path = tmp_path / "x"
    path.write_bytes(VALID[kind].replace("\n", "\r\n").encode("ascii"))
    with pytest.raises(MalformedFile) as info:
        READERS[kind](path)
    assert info.value.line == 1
    assert "carriage return" in info.value.reason


@pytest.mark.parametrize("kind", READERS)
def test_valid_files_load_with_or_without_a_final_lf(tmp_path, kind):
    read = READERS[kind]
    path = tmp_path / "x"
    path.write_bytes(VALID[kind].encode("ascii"))
    value = read(path)
    path.write_bytes(VALID[kind].rstrip("\n").encode("ascii"))
    assert read(path) == value


def test_a_byte_outside_utf8_names_file_and_line(tmp_path):
    lines = list(CT_LINES)
    lines.append("block=1 2 3 \xff 5 6")
    path = tmp_path / "x.ct"
    path.write_bytes("\n".join(lines).encode("latin-1"))
    with pytest.raises(MalformedFile) as info:
        read_ciphertext(path)
    assert (info.value.path, info.value.line) == (path, 6)


def test_a_file_over_the_cap_is_refused_by_size(tmp_path):
    path = tmp_path / "x.ct"
    path.write_text("\n".join(CT_LINES) + "\n")
    os.truncate(path, MAX_FILE_BYTES)  # sparse: the tail reads as NULs
    with pytest.raises(MalformedFile) as info:
        read_ciphertext(path)
    assert "size cap" not in info.value.reason

    os.truncate(path, MAX_FILE_BYTES + 1)
    with pytest.raises(MalformedFile) as info:
        read_ciphertext(path)
    assert info.value.line == len(CT_LINES) + 1
    assert info.value.reason == (
        f"file is over the size cap of {MAX_FILE_BYTES} bytes"
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers() | st.integers(min_value=2**64)))
@example([])
@example([0])
@example([2**64, 2**64 - 1, 2**200 + 1])
def test_decimal_row_is_the_joined_str_of_each_value(values):
    expected = " ".join(map(str, values))
    assert decimal_row(values) == expected
    assert decimal_row(tuple(values)) == expected


ROW_VALUES = st.integers() | st.integers(min_value=2**64)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda width: st.lists(st.lists(ROW_VALUES, min_size=width, max_size=width))
    ),
    st.lists(st.lists(ROW_VALUES, max_size=6), max_size=6),
)
@example([], [])
@example([[]], [[1, 2], [3]])
@example([[0, 1, 2], [3, 4, 5]], [[], [7]])
def test_decimal_rows_are_prefixed_decimal_rows(even, ragged):
    # rows of one length take the shared format, rows of mixed lengths
    # one decimal_row each; both give decimal_row's line for every row
    for rows in (even, ragged):
        expected = "".join(f"block={decimal_row(row)}\n" for row in rows)
        assert decimal_rows("block=", rows) == expected
        assert decimal_rows("block=", tuple(map(tuple, rows))) == expected


# Past CPython's default int-string limit of 4300 digits.
HUGE = "9" * 5000
OVER_THE_LIMIT = (
    "decimal of 5000 digits is over the limit of 4300 digits for integer"
    " conversion"
)


HUGE_FIELDS = {
    "public-n": ("public", 2, "n=91", f"n={HUGE}"),
    "public-e": ("public", 3, "e=5", f"e={HUGE}"),
    "private-exponent": ("private", 6, "13^1", f"13^{HUGE}"),
    "private-prime": ("private", 6, "7^1", f"{HUGE}^1"),
    "table-n": ("table", 2, "n=101", f"n={HUGE}"),
    "table-value": ("table", 5, "2=3\n", f"2={HUGE}\n"),
    "ciphertext-n": ("ciphertext", 2, "n=91", f"n={HUGE}"),
    "ciphertext-m": ("ciphertext", 3, "m=6", f"m={HUGE}"),
    "ciphertext-c": ("ciphertext", 4, "c=82", f"c={HUGE}"),
    "ciphertext-entry": ("ciphertext", 5, "34 0", f"34 {HUGE}"),
    # the digit limit is checked before any row's width
    "ciphertext-entry-of-a-long-row": (
        "ciphertext", 5, "34 0", f"34 {HUGE} 0 0 0 0 0 0 0 0"
    ),
}


@pytest.mark.parametrize("case", HUGE_FIELDS)
def test_a_decimal_past_the_digit_limit_names_its_line(tmp_path, case):
    # int() would refuse it with a ValueError naming no file and no line
    kind, line, old, new = HUGE_FIELDS[case]
    path = tmp_path / "x"
    path.write_text(VALID[kind].replace(old, new, 1), encoding="ascii")
    with pytest.raises(MalformedFile) as info:
        READERS[kind](path)
    assert str(info.value) == f"{path}:{line}: {OVER_THE_LIMIT}"


@pytest.mark.parametrize("kind", ["public", "private"])
def test_the_digit_limit_is_checked_once_every_line_matches(tmp_path, kind):
    # as int() met the decimals only after the syntax of every line
    path = tmp_path / "x"
    text = VALID[kind].replace("n=91", f"n={HUGE}").replace("m=6", "m=x")
    path.write_text(text, encoding="ascii")
    line = text.splitlines().index("m=x") + 1
    with pytest.raises(MalformedFile) as info:
        READERS[kind](path)
    assert str(info.value) == f"{path}:{line}: not a decimal integer: 'x'"


def test_a_decimal_at_the_digit_limit_reads(tmp_path):
    path = tmp_path / "x.ct"
    n = "9" * 4300
    rows = f"block={'0' * 4300} {n[:-1]}8\n"
    path.write_text(f"RSA-DFT v1\nn={n}\nm=2\nc=0\n{rows}")
    assert read_ciphertext(path).blocks == ((0, int(n) - 1),)


# The reader's first fault for each of these ciphertexts, as (line,
# reason); the rows below the header lines go through the bulk pass,
# which refuses every one of them, so the line walk names the fault.
CT_HEAD = "RSA-DFT v1\nn=91\nm=6\nc=82\n"
ROW = "block=1 2 3 4 5 6\n"
MALFORMED_CIPHERTEXTS = {
    "empty-file": (b"", 1, "expected header 'RSA-DFT v1' or 'RSA-HGR v1'"),
    "wrong-header": (
        b"RSA-DFT v2\n" + ROW.encode() * 4, 1,
        "expected header 'RSA-DFT v1' or 'RSA-HGR v1'",
    ),
    "no-rows": (CT_HEAD.encode(), 4, "expected at least 5 lines"),
    "cr-in-a-row": (
        (CT_HEAD + ROW + "block=1 2 3 4 5 6\r\n").encode(), 6,
        "carriage return: lines end in LF",
    ),
    "empty-row-line": (
        (CT_HEAD + ROW + "\n" + ROW).encode(), 6, "expected line block=...",
    ),
    "doubled-final-lf": (
        (CT_HEAD + ROW + ROW + "\n").encode(), 7, "expected line block=...",
    ),
    "row-without-prefix": (
        (CT_HEAD + ROW + "1 2 3 4 5 6\n").encode(), 6,
        "expected line block=...",
    ),
    "prefix-in-mid-line": (
        (CT_HEAD + "block=1 2 3block=4 5 6\n").encode(), 5, None,
    ),
    "doubled-prefix": (
        (CT_HEAD + "block=block=1 2 3 4 5 6\n").encode(), 5, None,
    ),
    "double-space-with-m-1-spaces": (
        (CT_HEAD + "block=1  2 3 4 5\n").encode(), 5, None,
    ),
    "trailing-space-with-m-1-spaces": (
        (CT_HEAD + ROW + "block=1 2 3 4 5 \n").encode(), 6, None,
    ),
    "leading-space-with-m-1-spaces": (
        (CT_HEAD + "block= 1 2 3 4 5\n").encode(), 5, None,
    ),
    "tab": ((CT_HEAD + "block=1\t2 3 4 5 6\n").encode(), 5, None),
    "sign": ((CT_HEAD + "block=1 +2 3 4 5 6\n").encode(), 5, None),
    "byte-0xff": ((CT_HEAD + "block=1 2 3 4 5 6").encode() + b"\xff", 5, None),
    "short-row": (
        (CT_HEAD + ROW + "block=1 2 3\n" + ROW).encode(), 6,
        "block has 3 entries, expected 6",
    ),
    "long-row": (
        (CT_HEAD + ROW + ROW + "block=1 2 3 4 5 6 7").encode(), 7,
        "block has 7 entries, expected 6",
    ),
    "entry-equal-to-n": (
        (CT_HEAD + "block=1 2 3 4 5 91\n").encode(), 5,
        "block entry outside Z_91",
    ),
    "c-at-n-and-a-short-row": (
        (CT_HEAD.replace("c=82", "c=91") + "block=1 2\n").encode(), 4,
        "c = 91 is not a residue mod 91",
    ),
    "c-at-n-and-a-bad-entry": (
        (CT_HEAD.replace("c=82", "c=91") + ROW + "block=1 x\n").encode(), 6,
        None,
    ),
    "m-zero": (
        (CT_HEAD.replace("m=6", "m=0") + ROW).encode(), 5,
        "block has 6 entries, expected 0",
    ),
    "5000-digit-entry": (
        (CT_HEAD + f"block=1 2 3 4 5 {HUGE}\n").encode(), 5, OVER_THE_LIMIT,
    ),
    # the digit limit is checked once every line's syntax holds
    "5000-digit-entry-then-a-bad-row": (
        (CT_HEAD + f"block=1 2 3 4 5 {HUGE}\nblock=1 x\n").encode(), 6, None,
    ),
    "5000-digit-n-and-a-bad-row": (
        (CT_HEAD.replace("n=91", f"n={HUGE}") + "block=1 x\n").encode(), 5,
        None,
    ),
    "5000-digit-c-and-a-short-row": (
        (CT_HEAD.replace("c=82", f"c={HUGE}") + "block=1\n").encode(), 4,
        OVER_THE_LIMIT,
    ),
    "5000-digit-entry-of-leading-zeros": (
        (CT_HEAD + ROW + f"block={'0' * 4999}1 2 3 4 5 6\n").encode(), 6,
        OVER_THE_LIMIT,
    ),
}


@pytest.mark.parametrize("case", MALFORMED_CIPHERTEXTS)
def test_malformed_ciphertexts_name_their_first_fault(tmp_path, case):
    data, line, reason = MALFORMED_CIPHERTEXTS[case]
    reason = reason or (
        "non-integer block entry (block entries are [0-9]+ separated by"
        " single spaces)"
    )
    path = tmp_path / "x.ct"
    path.write_bytes(data)
    with pytest.raises(MalformedFile) as info:
        read_ciphertext(path)
    assert str(info.value) == f"{path}:{line}: {reason}"
    assert reference_read_ciphertext(data) == ("fault", line, reason)


def test_leading_zeros_are_read_as_ever(tmp_path):
    path = tmp_path / "x.ct"
    path.write_text(CT_HEAD + "block=0034 000 0 0 0 01\n")
    assert read_ciphertext(path).blocks == ((34, 0, 0, 0, 0, 1),)


def _outcome(read, path):
    try:
        ct = read(path)
    except MalformedFile as exc:
        return "fault", exc.line, exc.reason
    return "ok", ct._header, ct.n, ct.m, ct.c, ct.blocks


@settings(max_examples=500, deadline=None)
@given(mutated_ciphertexts())
def test_the_bulk_pass_accepts_exactly_what_the_walk_accepts(
    tmp_path_factory, data
):
    path = tmp_path_factory.mktemp("ct") / "x.ct"
    path.write_bytes(data)
    walk = protocol._walk_blocks
    with mock.patch.object(protocol, "_walk_blocks", wraps=walk) as walked:
        result = _outcome(read_ciphertext, path)
    # with the bulk pass refusing everything, every file is walked
    with mock.patch.object(protocol, "entry_rows", return_value=None):
        assert _outcome(read_ciphertext, path) == result
    assert result == reference_read_ciphertext(data)
    # a file the walk accepts never reached it: the bulk pass took it
    assert not (result[0] == "ok" and walked.called)
