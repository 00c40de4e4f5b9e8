"""The file boundary: every JSON document and CSV table is read and written here.

JSON is written with exactly the bytes of `json.dumps(doc, indent=2,
sort_keys=True) + "\\n"`, streamed container by container: each container
whose values are all scalars (and each list of such dicts) goes through the C
encoder in one call. CSV is written in the csv module's default dialect (CRLF
line ends). A numeric table is parsed whole by numpy's C text reader, and
read again by the checked reader if numpy refuses anything in it, so that it
gives the checked reader's values and errors. The checked reader reads any
table in chunks of rows and parses each column of a chunk in one pass.

Undecodable input (bad JSON or CSV, non-UTF-8 bytes, a wrong header or row
width, a bad value) raises ParseError; a table's message names the line.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import ParseError

# Rows a table reader parses at a time: enough to amortize the per-chunk
# work, few enough that a chunk's cells stay small next to the file.
_CHUNK_ROWS = 4096

_SCALARS = frozenset({str, int, float, bool, type(None)})

# Records encoded per C encoder call: the encoder holds every piece of its
# output until it returns, about 50 bytes for each key and value.
_RECORDS_PER_CALL = 256

# The C encoder, sorting keys, with "\0" as the item separator: ensure_ascii
# escapes a NUL inside a string, so every raw "\0" in its output is a separator.
_encode = json.JSONEncoder(sort_keys=True, separators=("\0", ": ")).encode


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh.write, doc, "\n")
        fh.write("\n")


def json_ints(values, name: str) -> list[int]:
    """A column of JSON numbers as ints: each an int or a float of integral
    value (128.0). A bool, a fraction, a non-finite number or anything else is
    a ValueError naming `name` and the first such value."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    bad = [v for v in values if not (type(v) is int or type(v) is float and v.is_integer())]
    if bad:
        raise ValueError(f"{name}: expected an integer, got {bad[0]!r}")
    return list(map(int, values))


def _key_text(key) -> str:
    """A dict key as json writes it: strings as they are, numbers, bools and None as their JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_value(write, value, newline) -> None:
    """Write `value` as json.dumps(indent=2, sort_keys=True) lays it out at the
    indent that `newline` ("\\n" and the indent) carries."""
    if isinstance(value, dict):
        if _SCALARS.issuperset(map(type, value.values())):
            _write_spread(write, _encode(value), newline)
            return
        inner = newline + "  "
        write("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            write(("," if i else "") + inner + encode_basestring_ascii(_key_text(key)) + ": ")
            _write_value(write, item, inner)
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if _SCALARS.issuperset(kinds):
            _write_spread(write, _encode(value), newline)
        elif kinds == {dict} and all(value) and _SCALARS.issuperset(
                map(type, chain.from_iterable(map(dict.values, value)))):
            _write_records(write, value, newline)
        else:
            inner = newline + "  "
            write("[")
            for i, item in enumerate(value):
                write(("," if i else "") + inner)
                _write_value(write, item, inner)
            write(newline + "]")
    else:
        write(_encode(value))


def _write_spread(write, text: str, newline: str) -> None:
    """Write the compact encoding of a container of scalars one value per line."""
    if len(text) == 2:  # [] or {}
        write(text)
        return
    inner = newline + "  "
    write(text[0] + inner)
    write(text[1:-1].replace("\0", "," + inner))
    write(newline + text[-1])


def _write_records(write, records, newline: str) -> None:
    """Write a list of non-empty dicts of scalars one value per line, from
    one C encoder call per block of _RECORDS_PER_CALL records.

    In the compact encoding a raw "\\0{" can only sit between two records:
    inside a record a separator is followed by a key's quote.
    """
    record, field = newline + "  ", newline + "    "
    between = record + "}," + record + "{" + field
    write("[" + record + "{" + field)
    for start in range(0, len(records), _RECORDS_PER_CALL):
        text = _encode(records[start:start + _RECORDS_PER_CALL])
        write((between if start else "") + text[2:-2].replace("}\0{", between).replace("\0", "," + field))
    write(record + "}" + newline + "]")


def _header_matches(row, names) -> bool:
    return row is not None and [h.strip() for h in row] == names


def read_columns(path, header: dict, what: str):
    """Yield a CSV table in chunks of rows, each chunk as one list of parsed values per column.

    `header` maps each column name, in order, to the function that parses
    that column's cells; the file's header must name exactly these columns.
    Blank lines are skipped. Each column is parsed with one map() call; when a
    chunk holds a bad row, the chunk is walked row by row to name the first
    one and its line.
    """
    names, parse = list(header), list(header.values())
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
        except (csv.Error, ValueError) as exc:  # ValueError covers UnicodeDecodeError
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
        if not _header_matches(got, names):
            raise ParseError(f"{path}: not a {what} table: expected header {','.join(names)!r}, got {got}")
        while True:
            line, rows, failure = reader.line_num, [], None
            try:
                rows.extend(islice(reader, _CHUNK_ROWS))  # keeps the rows read before a failure
            except (csv.Error, ValueError) as exc:
                failure = reader.line_num, exc
            end = reader.line_num
            cells = list(filter(None, rows))
            if not {len(names)}.issuperset(map(len, cells)):
                _raise_first_bad_row(path, rows, line, end, parse)
            if cells:
                try:
                    columns = [list(map(f, map(itemgetter(j), cells))) for j, f in enumerate(parse)]
                except ValueError:
                    _raise_first_bad_row(path, rows, line, end, parse)
                yield columns
            if failure is not None:
                raise ParseError(f"{path}:{failure[0]}: {failure[1]}") from failure[1]
            if len(rows) < _CHUNK_ROWS:
                return


def _raise_first_bad_row(path, rows, line, end, parse):
    """Raise the ParseError for the first row of `rows` with a wrong width or a bad value.

    The rows were read from the line after `line` up to line `end`. A row
    spans one line plus one per line break inside its quoted fields, except
    that a quote left open at the end of the file also takes in the last
    line's own break.
    """
    for row in rows:
        line = min(end, line + 1 + sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in row))
        if not row:
            continue
        if len(row) != len(parse):
            raise ParseError(f"{path}:{line}: expected {len(parse)} values, got {row}")
        try:
            for f, cell in zip(parse, row):
                f(cell)
        except ValueError as exc:
            raise ParseError(f"{path}:{line}: {exc}") from exc
    raise AssertionError("no bad row in a chunk that failed to parse")


# The numpy path takes ASCII text only: outside ASCII, numpy's int parser reads
# some letters as digits (U+01FE as 462). These ASCII separators are white
# space to numpy's number parser but not to int() and float().
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_numeric_columns(path, header: dict, what: str) -> list[np.ndarray]:
    """A whole CSV table of numbers, one numpy array per column.

    `header` maps each column name, in order, to the numpy dtype of its
    cells: a float dtype, parsed as float() parses, or an integer dtype,
    parsed as int() parses and refused outside the dtype's range.

    numpy.loadtxt's C reader parses an ASCII table. On such text it refuses
    every cell that int() or float() refuses and reads the same value where
    both accept one; it warns on a table with no rows. Any error or warning
    from it hands the file to read_columns, which reads it from the start:
    it raises the ParseError that names the bad line, or returns what only
    Python accepts (1_000, digits outside ASCII). Both paths thus give
    read_columns' values and errors.
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
    columns = [[] for _ in names]
    for chunk in read_columns(path, {name: _cell_parser(name, dtype) for name, dtype in header.items()}, what):
        for column, values in zip(columns, chunk):
            column.extend(values)
    return [np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)]


def _cell_parser(name: str, dtype):
    """The checked parse of a cell of column `name`: float(), or int() within the range of the integer `dtype`."""
    if np.issubdtype(dtype, np.floating):
        return float
    low, high = np.iinfo(dtype).min, np.iinfo(dtype).max

    def parse(cell: str) -> int:
        value = int(cell)
        if not low <= value <= high:
            raise ValueError(f"{name} {value} does not fit {np.dtype(dtype)}")
        return value

    return parse


def read_table(path, header: dict, what: str):
    """Yield the rows of a CSV table one at a time, each a list of parsed values (see read_columns)."""
    for columns in read_columns(path, header, what):
        yield from map(list, zip(*columns))


def write_table(path, header, rows) -> None:
    """Header row, then the rows, in the csv module's default dialect (CRLF line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_grouped_table(path, header, groups) -> None:
    """Header row, then one `key,repr(value)` row per value of each (key, values) group.

    The same bytes as write_table with those rows, for numeric keys and
    values (their text needs no quoting), joined into one string per group.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for key, values in groups:
            if values:
                fh.write(f"{key}," + f"\r\n{key},".join(map(repr, values)) + "\r\n")
