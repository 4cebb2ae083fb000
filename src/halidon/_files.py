"""The one strict line reader of key, unit-table and ciphertext files,
the capped read it shares with message files, and the decimal rows.

A file has at most MAX_FILE_BYTES, lines that end in LF, a header, then
`name=value` lines in a fixed order, each value a full match of an ASCII
pattern.  Every failure is a MalformedFile naming the path, the line and
the rule or limit that failed.
"""

import os
import re
from itertools import chain

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


def read_fields(path, headers, fields, repeat=False) -> tuple[str, list]:
    """(header, values): line 1, one of `headers`, and the text after
    `name=` on each later line.  A line follows per (name, pattern) in
    `fields`, in order; with `repeat`, the last recurs to the end."""
    lines = _lines(path)
    if not lines or lines[0] not in headers:
        expected = " or ".join(map(repr, headers))
        raise MalformedFile(path, 1, f"expected header {expected}")
    extra = len(lines) - 1 - len(fields)
    if extra < 0 or extra and not repeat:
        count = f"{'at least' if repeat else 'exactly'} {1 + len(fields)}"
        raise MalformedFile(path, len(lines), f"expected {count} lines")
    *fixed, (name, pattern) = fields
    values = [
        _value(path, number, lines[number - 1], *field)
        for number, field in enumerate(fixed, start=2)
    ]
    # one pass in C checks the last field's lines; only a file that
    # fails it is walked line by line, to name the first bad one
    rows = lines[len(fields) :]
    if not all(map(re.compile(f"{name}={pattern}").fullmatch, rows)):
        for number, line in enumerate(rows, start=len(fields) + 1):
            _value(path, number, line, name, pattern)
    return lines[0], values + [line[len(name) + 1 :] for line in rows]


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


def _lines(path) -> list[str]:
    data = read_capped(path)
    if b"\r" in data:
        line = data.count(b"\n", 0, data.index(b"\r")) + 1
        raise MalformedFile(path, line, "carriage return: lines end in LF")
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
