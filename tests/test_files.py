"""The one strict line reader behind key, table and ciphertext files."""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
