"""CSV dataset exchange and report emission.

Dataset format: UTF-8, optional ``#`` comment lines, header
``f_<name>,...,class``, one observation per row. Floats are written with
``repr`` so a round-trip reproduces the exact same doubles.
"""
from __future__ import annotations

import csv
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


def write_report_csv(
    path: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    meta: Optional[Dict[str, str]] = None,
) -> None:
    """Report CSV with ``# key=value`` comment lines up top."""
    lines = [f"# {k}={v}" for k, v in (meta or {}).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def dataset_to_csv(ds: Dataset, path: str, meta: Optional[Dict[str, str]] = None) -> None:
    header = [f"f_{n}" for n in ds.schema.names] + ["class"]
    rows = (
        list(ds.X[i]) + [ds.class_labels[ds.y[i]]] for i in range(len(ds))
    )
    write_report_csv(path, header, rows, meta)


def ingest_csv(
    path: str,
    schema: FeatureSchema,
    class_labels: Optional[Sequence[str]] = None,
) -> Dataset:
    """Load and validate a dataset CSV against a schema.

    With ``class_labels`` given, unseen labels are rejected; otherwise the
    label set is inferred from the file (sorted order).
    """
    expected = [f"f_{n}" for n in schema.names] + ["class"]
    rows_x: List[List[float]] = []
    rows_label: List[str] = []
    header_seen = False
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if not header_seen:
                if cells != expected:
                    raise CsvParseError(
                        f"bad header: expected {','.join(expected)!r}", line=lineno
                    )
                header_seen = True
                continue
            if len(cells) != len(expected):
                raise CsvParseError(
                    f"expected {len(expected)} fields, got {len(cells)}", line=lineno
                )
            vals = []
            for i, cell in enumerate(cells[:-1]):
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"value {cell!r} is not a number", line=lineno,
                        column=schema.names[i],
                    ) from None
                if not schema.lows[i] <= v <= schema.highs[i]:
                    raise CsvParseError(
                        f"value {v} out of range [{schema.lows[i]}, {schema.highs[i]}]",
                        line=lineno, column=schema.names[i],
                    )
                vals.append(v)
            rows_x.append(vals)
            rows_label.append(cells[-1])
    if not header_seen:
        raise CsvParseError(f"{path}: no header row found")
    if class_labels is None:
        class_labels = sorted(set(rows_label))
    labels = tuple(class_labels)
    index = {lab: i for i, lab in enumerate(labels)}
    y = []
    for i, lab in enumerate(rows_label):
        if lab not in index:
            raise ValidationError(f"unknown class label {lab!r} in {path}")
        y.append(index[lab])
    X = np.asarray(rows_x, dtype=float) if rows_x else np.zeros((0, len(schema)))
    return Dataset(schema, X, np.asarray(y, dtype=int), labels)

