"""The one strict line reader of key, unit-table and ciphertext files,
the capped read it shares with message files, and the decimal rows.

A file has at most MAX_FILE_BYTES, lines that end in LF, a header, then
`name=value` lines in a fixed order, each value a full match of an ASCII
pattern.  Once every line matches, no decimal may be longer than int()'s
digit limit.  Every failure is a MalformedFile naming the path, the line
and the rule or limit that failed.

A ciphertext's `block=` rows, one per block, run from its fixed lines to
the end of the file.  read_fields hands them on as one bytes section,
and entry_rows checks and parses all of them in a fixed handful of
C-level passes, with no Python code per row or per entry.  It raises
nothing: a file it refuses is walked line by line, by walk_rows for the
rows' syntax, fit_digits for the digit limit and then the caller's own
checks, and that walk is the one path that raises.  So a fault is named
as a reader that walked every file would name it, and the bulk pass
accepts exactly the files the walk accepts.
"""

import os
import re
import sys
from itertools import chain, repeat

from .errors import MalformedFile

# 16 MiB; a 100,000-symbol ciphertext under the reference key is 0.7 MB.
MAX_FILE_BYTES = 1 << 24

# The value patterns, and what a value that misses one is called.
DECIMAL = "[0-9]+"
FACTORS = r"[0-9]+\^[0-9]+(?:,[0-9]+\^[0-9]+)*"
ENTRIES = "[0-9]+(?: [0-9]+)*"
_MISSES = {
    DECIMAL: "not a decimal integer: {!r}",
    FACTORS: "not a factor list <p>^<e>,... of decimal integers: {!r}",
    ENTRIES: "non-integer block entry (block entries are [0-9]+"
    " separated by single spaces)",
}


def read_fields(path, headers, fields, rows=False) -> tuple[str, list]:
    """(header, values): line 1, one of `headers`, and the text after
    `name=` on each later line, one per (name, pattern) in `fields`, in
    order.  With `rows`, more lines follow to the end, at least one, and
    their bytes come last in `values`, unchecked: entry_rows reads them
    in bulk and walk_rows line by line."""
    data = read_capped(path)
    if b"\r" in data:
        line = data.count(b"\n", 0, data.index(b"\r")) + 1
        raise MalformedFile(path, line, "carriage return: lines end in LF")
    head, section = data, b""
    if rows:  # the fixed lines are split off; the rows stay one section
        *fixed, tail = data.split(b"\n", 1 + len(fields))
        if len(fixed) == 1 + len(fields) and tail:
            head, section = data[: -len(tail)], tail
    lines = _lines(head)
    if not lines or lines[0] not in headers:
        expected = " or ".join(map(repr, headers))
        raise MalformedFile(path, 1, f"expected header {expected}")
    if len(lines) != 1 + len(fields) or rows and not section:
        count = f"{'at least' if rows else 'exactly'} {1 + len(fields) + rows}"
        raise MalformedFile(path, len(lines), f"expected {count} lines")
    values = [
        _value(path, number, lines[number - 1], *field)
        for number, field in enumerate(fields, start=2)
    ]
    if rows:  # the caller checks the digit limit after the rows' syntax
        return lines[0], values + [section]
    fit_digits(path, 2, values)
    return lines[0], values


def entry_rows(section: bytes, name: str, width: int) -> list[int] | None:
    """Every entry of the `name=` lines of `section`, in one flat list,
    when each line is `width` decimals one space apart (ENTRIES) that
    int() takes; None, and nothing raised, for any other section."""
    prefix = f"\n{name}=".encode("ascii")
    body = b"\n" + section.removesuffix(b"\n")
    digits = body.replace(prefix, b"\n")
    if digits.translate(None, b"0123456789 \n"):
        return None
    text = digits[1:].decode("ascii")  # int() reads str faster than bytes
    lines = text.split("\n")
    # the prefix started every line once: no `name=` is left mid-line,
    # as translate would have found its letters
    if len(body) - len(digits) != (len(prefix) - 1) * len(lines):
        return None
    if set(map(str.count, lines, repeat(" "))) != {width - 1}:
        return None
    try:
        # an empty entry (two spaces, one at either end of a line, or an
        # empty line) or one past the digit limit is a ValueError
        return list(map(int, text.replace("\n", " ").split(" ")))
    except ValueError:
        return None


def walk_rows(path, section: bytes, number: int, name: str) -> list[str]:
    """The text after `name=` on each line of `section`, whose first
    line is line `number`; MalformedFile at the first that is not
    ENTRIES."""
    return [
        _value(path, line_number, line, name, ENTRIES)
        for line_number, line in enumerate(_lines(section), start=number)
    ]


def fit_digits(path, number: int, values) -> None:
    """MalformedFile at the first of `values`, the texts of lines
    `number` on, that holds a decimal past int()'s digit limit (0 for
    none, as on an interpreter too old to have one)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for line, raw in enumerate(values, start=number):
        if limit and len(raw) > limit:
            digits = max(map(len, re.findall("[0-9]+", raw)))
            if digits > limit:
                reason = f"decimal of {digits} digits is over the limit of"
                reason += f" {limit} digits for integer conversion"
                raise MalformedFile(path, line, reason)


def decimal_row(values) -> str:
    """The integers as decimals separated by single spaces: one %-format
    over the whole row, not one str per value."""
    return ("%d " * len(values))[:-1] % tuple(values)


def decimal_rows(prefix: str, rows) -> str:
    """One LF-ended line per row: `prefix`, then the row as decimal_row
    gives it.  Rows of one length share one %-format over every value."""
    widths = set(map(len, rows))
    if len(widths) != 1:  # no rows, or rows of mixed lengths
        return "".join([f"{prefix}{decimal_row(row)}\n" for row in rows])
    line = prefix + ("%d " * widths.pop())[:-1] + "\n"
    return (line * len(rows)) % tuple(chain.from_iterable(rows))


def read_capped(path) -> bytes:
    """The file's bytes; MalformedFile past MAX_FILE_BYTES."""
    with open(path, "rb") as file:
        # a first read sized by the file spares it a buffer of the cap
        size = min(os.fstat(file.fileno()).st_size, MAX_FILE_BYTES) + 1
        data = file.read(size)
        if len(data) == size:
            data += file.read(MAX_FILE_BYTES + 1 - size)
    if len(data) > MAX_FILE_BYTES:
        line = data.count(b"\n", 0, MAX_FILE_BYTES) + 1
        reason = f"file is over the size cap of {MAX_FILE_BYTES} bytes"
        raise MalformedFile(path, line, reason)
    return data


def read_text(path) -> str:
    """A capped file as strict UTF-8 text, line ends as Python's text
    mode gives them (CRLF and CR read as LF)."""
    data = read_capped(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        reason = f"not UTF-8 at byte 0x{data[exc.start]:02x} ({exc.reason})"
        raise MalformedFile(path, line, reason) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(data: bytes) -> list[str]:
    # a byte that is not UTF-8 shows as \xNN, and fails its line as any
    # other character outside the patterns does
    lines = data.decode("utf-8", "backslashreplace").split("\n")
    if lines[-1] == "":  # the final LF ends the last line
        lines.pop()
    return lines


def _value(path, number: int, line: str, name: str, pattern: str) -> str:
    if not line.startswith(name + "="):
        raise MalformedFile(path, number, f"expected line {name}=...")
    raw = line[len(name) + 1 :]
    if not re.fullmatch(pattern, raw):
        raise MalformedFile(path, number, _MISSES[pattern].format(raw))
    return raw
