"""CSV dataset exchange and report emission.

Dataset format: UTF-8, optional ``#`` comment lines, header
``f_<name>,...,class``, one observation per row. Floats are written with
``repr`` so a round-trip reproduces the exact same doubles.
"""
from __future__ import annotations

import csv
from array import array
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..core import Dataset, FeatureSchema, ValidationError
from ..learners.io import atomic_open


class CsvParseError(ValidationError):
    """Malformed CSV content; carries the offending location."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[str] = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


def atomic_write_text(path: str, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_lines(path: str, header: Sequence[str], lines: Iterable[str],
                 meta: Optional[Dict[str, str]]) -> None:
    out = [f"# {k}={v}" for k, v in (meta or {}).items()]
    out.append(",".join(header))
    out.extend(lines)
    atomic_write_text(path, "\n".join(out) + "\n")


def write_report_csv(
    path: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    meta: Optional[Dict[str, str]] = None,
) -> None:
    """Report CSV with ``# key=value`` comment lines up top."""
    _write_lines(path, header, (",".join(_fmt(v) for v in row) for row in rows), meta)


def dataset_to_csv(ds: Dataset, path: str, meta: Optional[Dict[str, str]] = None) -> None:
    header = [f"f_{n}" for n in ds.schema.names] + ["class"]
    labels = [_fmt(lab) for lab in ds.class_labels]
    lines = (",".join(map(repr, x)) + "," + labels[c]
             for x, c in zip(ds.X.tolist(), ds.y.tolist()))
    _write_lines(path, header, lines, meta)


def _range_error(X: np.ndarray, linenos: Sequence[int],
                 schema: FeatureSchema) -> Optional[CsvParseError]:
    """The first cell of ``X`` outside (or NaN against) its range, in file order.

    Row ``r`` of ``X`` came from line ``linenos[r]`` and holds the first
    ``X.shape[1]`` features of ``schema``.
    """
    k = X.shape[1]
    lows, highs = schema.lows[:k], schema.highs[:k]
    bad = ~((X >= lows) & (X <= highs))
    if not bad.any():
        return None
    r, i = divmod(int(np.argmax(bad)), k)
    return CsvParseError(
        f"value {float(X[r, i])} out of range [{schema.lows[i]}, {schema.highs[i]}]",
        line=linenos[r], column=schema.names[i],
    )


def _row_error(cells: Sequence[str], lineno: int, schema: FeatureSchema) -> CsvParseError:
    """The error of a data row that does not parse: its field count, or its
    first cell that is not a number, unless a cell before that one is out
    of range.
    """
    if len(cells) != len(schema) + 1:
        return CsvParseError(f"expected {len(schema) + 1} fields, got {len(cells)}",
                             line=lineno)
    vals: List[float] = []
    for cell in cells[:-1]:
        try:
            vals.append(float(cell))
        except ValueError:
            break
    j = len(vals)
    return _range_error(np.array([vals]).reshape(1, j), [lineno], schema) or CsvParseError(
        f"value {cells[j]!r} is not a number", line=lineno, column=schema.names[j]
    )


def ingest_csv(path: str, schema: FeatureSchema) -> Dataset:
    """Load and validate a dataset CSV against a schema.

    The label set is the file's own, in sorted order. Of the cells that
    fail to parse or lie out of range, the first in file order is reported.
    """
    expected = [f"f_{n}" for n in schema.names] + ["class"]
    k = len(schema)
    values = array("d")  # every feature cell, row after row
    linenos = array("q")
    rows_label: List[str] = []
    header_seen = False
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            text = line.lstrip()
            if not text or text[0] == "#":
                continue
            # Without quotes the csv module splits on commas and nothing else.
            cells = next(csv.reader([line])) if '"' in line else line.split(",")
            if not header_seen:
                if cells != expected:
                    raise CsvParseError(
                        f"bad header: expected {','.join(expected)!r}", line=lineno
                    )
                header_seen = True
                continue
            start = len(values)
            try:
                if len(cells) != k + 1:
                    raise ValueError  # _row_error reports the field count
                values.extend(map(float, cells[:-1]))
            except ValueError:
                del values[start:]
                earlier = np.frombuffer(values).reshape(-1, k)
                raise (_range_error(earlier, linenos, schema)
                       or _row_error(cells, lineno, schema)) from None
            rows_label.append(cells[-1])
            linenos.append(lineno)
    X = np.array(values, dtype=float).reshape(-1, k)
    error = _range_error(X, linenos, schema)
    if error:
        raise error
    if not header_seen:
        raise CsvParseError(f"{path}: no header row found")
    labels = tuple(sorted(set(rows_label)))
    index = {lab: i for i, lab in enumerate(labels)}
    y = np.array([index[lab] for lab in rows_label], dtype=int)
    return Dataset(schema, X, y, labels)

