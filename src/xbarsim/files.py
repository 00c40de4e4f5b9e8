"""The file boundary: every JSON document and CSV table is read and written here.

JSON is written as `json.dumps(doc, sort_keys=True, separators=(",", ":"),
allow_nan=False)` and a newline: compact, on one line, encoded by json's C
encoder before the file is opened. `python -m json.tool` lays it out for
reading. JSON is read by the C scanner. Neither takes NaN or Infinity. CSV
is written in the csv module's default dialect (CRLF line ends). A numeric
table is parsed whole by numpy's C text reader, and read again by the checked
reader if numpy refuses anything in it, so that it gives the checked reader's
values and errors. The checked reader, read_table, reads any table row by row.

Undecodable input (bad JSON or CSV, non-UTF-8 bytes, an integer literal
beyond Python's digit limit, a wrong header or row width, a bad value) raises
ParseError; a table's message names the line. A JSON NaN or Infinity token is
a ValidationError, as any other non-finite number a document holds is.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import warnings

import numpy as np

from .errors import ParseError, ValidationError

_FLOAT_MAX = sys.float_info.max


def _refuse_constant(token: str):
    raise ValidationError(f"non-finite number {token}")


def read_json(path):
    """The document in `path`. JSON that does not decode, or that holds an
    integer literal longer than sys.get_int_max_str_digits() allows, is a
    ParseError; a NaN, Infinity or -Infinity token, which json reads but JSON
    does not have, is a ValidationError, as a non-finite value is in every
    document."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError and the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_json(doc, path) -> None:
    """`doc` as compact JSON with sorted keys, on one line; a NaN or infinity is json's ValueError.
    The text is encoded before `path` is opened, so a document json refuses leaves the file as it was."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _brief(value) -> str:
    """repr(value) for a message, cut to its first 20 characters and its length if over 24."""
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:20]}... ({len(text)} characters)"


def json_ints(values, name: str, indexed: bool = False) -> list[int]:
    """A JSON list of numbers as ints: each an int or a float of integral
    value (128.0). Anything but a list is a ValueError naming `name`; so is
    a bool, a fraction, a non-finite number or any other value in it, named
    with its index if `indexed`: "pre[3]: expected an integer, got 0.9"."""
    if not isinstance(values, list):
        raise ValueError(f"{name}: expected a list, got {_brief(values)}")
    if set(map(type, values)) <= {int}:
        return values
    bad = next((i for i, v in enumerate(values) if not (type(v) is int or type(v) is float and v.is_integer())), None)
    if bad is not None:
        raise ValueError(f"{name}{f'[{bad}]' if indexed else ''}: expected an integer, got {_brief(values[bad])}")
    return list(map(int, values))


def json_floats(values, name: str) -> list[float]:
    """A column of JSON numbers as floats: each an int or a float that a float
    holds finitely. A bool, a string, None, a non-finite or too large number
    or anything else is a ValueError naming `name` and the first such value."""
    values = list(values)
    bad = [v for v in values if not (type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX)]
    if bad:
        raise ValueError(f"{name}: expected a finite number, got {_brief(bad[0])}")
    return list(map(float, values))


def _header_matches(row, names) -> bool:
    return row is not None and [h.strip() for h in row] == names


def read_table(path, header: dict, what: str, earlier: dict | None = None):
    """Yield the rows of a CSV table one at a time, each a list of parsed values.

    `header` maps each column name, in order, to the function that parses
    that column's cells; the file's header must name exactly these columns.
    A header that is a key of `earlier` (a retired layout) is refused with
    the key's value, which names that layout, in the message. Blank lines
    are skipped. A row of the wrong width, a cell its function refuses, or
    text the csv module cannot read is a ParseError naming the line the csv
    reader stopped at.
    """
    names, parse = list(header), list(header.values())
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if not _header_matches(got, names):
                layout = (earlier or {}).get(",".join(h.strip() for h in got or ()))
                raise ParseError(f"{path}: not a {what} table: expected header {','.join(names)!r}, got {got}"
                                 + (f" ({layout})" if layout else ""))
            for row in reader:
                if not row:
                    continue
                if len(row) != len(names):
                    raise ParseError(f"{path}:{reader.line_num}: expected {len(names)} values, got {row}")
                yield [f(cell) for f, cell in zip(parse, row)]
        except (csv.Error, ValueError) as exc:  # ValueError covers UnicodeDecodeError
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


# The numpy path takes ASCII text only: outside ASCII, numpy's int parser reads
# some letters as digits (U+01FE as 462). These ASCII separators are white
# space to numpy's number parser but not to int() and float().
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_numeric_columns(path, header: dict, what: str, earlier: dict | None = None) -> list[np.ndarray]:
    """A whole CSV table of integers, one numpy array per column.

    `header` maps each column name, in order, to the integer numpy dtype of
    its cells, parsed as int() parses and refused outside the dtype's range.
    `earlier` is read_table's.

    numpy.loadtxt's C reader parses an ASCII table. On such text it refuses
    every cell that int() refuses and reads the same value where both
    accept one; it warns on a table with no rows. Any error or warning
    from it hands the file to read_table, which reads it again from the start,
    row by row: it raises the ParseError that names the bad line, or returns
    what only Python accepts (1_000, digits outside ASCII). Both paths thus
    give read_table's values and errors.
    """
    names, dtypes = list(header), list(header.values())
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii() and not any(map(data.__contains__, _NUMPY_ONLY_SPACE)):
        lines = io.BytesIO(data)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if _header_matches(next(csv.reader([lines.readline().decode()]), None), names):
                    return np.loadtxt(lines, delimiter=",", dtype=list(zip(names, dtypes)), comments=None,
                                      quotechar='"', ndmin=1, unpack=True, encoding="ascii")
        except (csv.Error, ValueError, Warning):
            pass
    rows = list(read_table(path, {name: _cell_parser(name, dtype) for name, dtype in header.items()}, what, earlier))
    columns = zip(*rows) if rows else [()] * len(names)
    return [np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)]


def _cell_parser(name: str, dtype):
    """The checked parse of a cell of column `name`: int() within the range of the integer `dtype`."""
    low, high = np.iinfo(dtype).min, np.iinfo(dtype).max

    def parse(cell: str) -> int:
        value = int(cell)
        if not low <= value <= high:
            raise ValueError(f"{name} {_brief(value)} does not fit {np.dtype(dtype)}")
        return value

    return parse


def write_table(path, header, rows) -> None:
    """Header row, then the rows, in the csv module's default dialect (CRLF line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_grouped_table(path, header, groups) -> None:
    """Header row, then one `key,str(value)` row per value of each (key, values) group.

    The same bytes as write_table with those rows, for integer keys and
    values (their text needs no quoting), joined into one string per group.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for key, values in groups:
            if values:
                fh.write(f"{key}," + f"\r\n{key},".join(map(str, values)) + "\r\n")
