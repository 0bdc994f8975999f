"""Machine-readable result datasets with a bit-exact file contract.

CSV files carry one provenance comment line (compact JSON), a header row,
then data rows.  Floats are written with ``repr`` (shortest round-trip
form: '.' decimal, lowercase 'e', no separators) and files use LF line
endings, so writing and re-reading a dataset reproduces it exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import DomainError

Cell = float | int | str


def _format_cell(v: Cell) -> str:
    if isinstance(v, bool):
        raise DomainError("datasets store flags as 0/1 integers, not booleans")
    if isinstance(v, (int, float)):
        return repr(v)
    return str(v)


def _parse_cell(text: str) -> Cell:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class Dataset:
    """Named table with column schema and full provenance."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if not self.rows:
            raise DomainError(f"dataset {self.name!r} has no rows")
        for r in self.rows:
            if len(r) != len(self.columns):
                raise DomainError(f"dataset {self.name!r}: row width {len(r)} != {len(self.columns)}")
            if not all(math.isfinite(v) for v in r if isinstance(v, float)):  # JSON holds no inf or nan
                raise DomainError(f"dataset {self.name!r}: a value is out of float range in row {r!r}")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        header = {"name": self.name, "provenance": self.provenance}
        buf.write("# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(v) for v in row])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_json_text(self) -> str:
        doc = {
            "name": self.name,
            "provenance": self.provenance,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_json_text())

    def column(self, name: str) -> list[Cell]:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise DomainError(f"dataset {self.name!r} has no column {name!r}") from None
        return [r[i] for r in self.rows]


def read_csv(path) -> Dataset:
    """Inverse of :meth:`Dataset.write_csv`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise DomainError(f"{path}: missing provenance line")
        meta = json.loads(first[2:])
        reader = csv.reader(fh)
        columns = tuple(next(reader))
        rows = tuple(tuple(_parse_cell(c) for c in row) for row in reader if row)
    return Dataset(name=meta["name"], columns=columns, rows=rows, provenance=meta["provenance"])


def read_json(path) -> Dataset:
    """Inverse of :meth:`Dataset.write_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return Dataset(
        name=doc["name"],
        columns=tuple(doc["columns"]),
        rows=tuple(tuple(r) for r in doc["rows"]),
        provenance=doc["provenance"],
    )
