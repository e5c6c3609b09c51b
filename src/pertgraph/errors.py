"""Exception hierarchy shared across the package, the range rule for every
numeric setting and argument, the first repeated name of a list, the UTF-8
opener for input files that reports undecodable bytes and line-numbered
errors with the file's path, and the atomic writers for output files.

The CLI maps these onto process exit codes: usage/config problems exit 1,
data problems exit 2, numerical failures exit 3. Any other exception is a
defect and exits 4 as an internal error.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, TextIO


class UsageError(ValueError):
    """Caller violated a precondition (bad argument, bad config)."""


class ShapeError(UsageError):
    """Operands have incompatible dimensions."""


class DataError(ValueError):
    """Input data violates the documented file or content contract; `line`,
    when given, is the 1-based line of the input file that does."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ParseError(DataError):
    """Malformed input file."""


class DegenerateError(DataError):
    """Input is structurally valid but degenerate for the requested statistic."""


class NumericalError(RuntimeError):
    """Computation produced non-finite values (training divergence etc.)."""


def check_range(name: str, value, low, high=math.inf, *, low_open: bool = False, high_open: bool = True) -> None:
    """Raise a UsageError naming `name`, its range and `value` unless `value`
    lies between `low` and `high`, each bound excluded when open. NaN fails
    every range and inf fails a range open at infinity."""
    if (value > low if low_open else value >= low) and (value < high if high_open else value <= high):
        return
    if high == math.inf and high_open:
        rule = f"be {'finite and ' if isinstance(value, float) else ''}{'>' if low_open else '>='} {low}"
    else:
        rule = f"lie in {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
    raise UsageError(f"{name} must {rule}, got {value}")


def first_repeat(names: Iterable[str]) -> str | None:
    """The first name that `names` lists a second time, or None."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


@contextmanager
def input_errors(path) -> Iterator[None]:
    """Name the input file in errors raised in the block: a byte that does not
    decode as UTF-8 raises a DataError naming the file, and a line-numbered
    DataError gets the file's path in front."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except DataError as exc:
        if exc.line is not None:
            exc.args = (f"{path}: {exc}",)
        raise


@contextmanager
def open_utf8(path) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text, its errors named as `input_errors` names them."""
    with input_errors(path), open(path, "r", encoding="utf-8") as fh:
        yield fh


def temporary_path(path) -> Path:
    """The temporary file beside `path` that `atomic_write` writes first."""
    path = Path(path)
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextmanager
def atomic_write(path, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside `path` that replaces `path` only once the
    block completes, so a write that fails midway leaves the old file intact.
    Text is UTF-8 and line ends are written as given (csv's are \\r\\n)."""
    tmp = temporary_path(path)
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None, newline="" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(obj, path) -> None:
    """Indented JSON and a trailing newline, written atomically. A NaN or inf,
    which JSON cannot hold, raises ValueError and leaves `path` as it was."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    """A header and one line per row by `csv.writer`, written atomically: fields
    are quoted where needed, lines end in \\r\\n, and a float is written as its
    repr, so a reload is bit-exact."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
