"""The file boundary: every JSON document and CSV table is read and written here.

Undecodable input (bad JSON or CSV, non-UTF-8 bytes, a wrong header or row
width, a bad value) raises ParseError."""

from __future__ import annotations

import csv
import json

from .errors import ParseError


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_table(path, header: dict, what: str):
    """Yield the rows of a CSV table one at a time, skipping blank lines.

    `header` maps each column name, in order, to the function that parses
    that column's cells; the file's header must name exactly these columns.
    """
    names, parse = list(header), list(header.values())
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got is None or [h.strip() for h in got] != names:
                raise ParseError(f"{path}: not a {what} table: expected header {','.join(names)!r}, got {got}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(names):
                    raise ParseError(f"{path}:{reader.line_num}: expected {len(names)} values, got {row}")
                yield [f(cell) for f, cell in zip(parse, row)]
        except (csv.Error, ValueError) as exc:  # ValueError covers UnicodeDecodeError and bad values
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def write_table(path, header, rows) -> None:
    """Header row, then the rows, in the csv module's default dialect (CRLF line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
