"""Shared on-disk formats and checks: the failure rules for files, binary matrices, JSON helpers and value checks.

Binary matrix format: two little-endian uint64 (rows, cols) followed by
row-major little-endian float64 data.  Used by the kernel cache, persisted
models, and per-sequence encoding matrices.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import DataError

_HEADER_DTYPE = np.dtype("<u8")
_DATA_DTYPE = np.dtype("<f8")


def show_path(path: str | Path) -> str:
    """``path`` as a message names it: as it is, or as its repr when it is not printable (say, it holds a
    newline), so that every message stays one printable line."""
    return str(path) if str(path).isprintable() else repr(str(path))


@contextmanager
def file_op(path: str | Path, action: str):
    """Run a file operation on ``path``; a failure is a one-line DataError ``path: cannot ACTION (reason)``.

    A failure is an OSError, or the ValueError of a path that holds a NUL
    byte.  Two reads name the cause instead: a missing file read as text
    (``action`` "read") is "file not found", and text that is not UTF-8 is
    "not UTF-8 text".  The path is shown by ``show_path``.
    """
    try:
        yield
    except (OSError, ValueError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        elif isinstance(exc, FileNotFoundError) and action == "read":
            reason = "file not found"
        else:
            reason = f"cannot {action} ({getattr(exc, 'strerror', None) or exc})"
        raise DataError(f"{show_path(path)}: {reason}") from None


@contextmanager
def malformed(what: str):
    """Take a persisted document apart; an AttributeError, LookupError, TypeError or ValueError raised in
    the block (a missing key, a value of the wrong type or out of range) is a DataError ``what (exception)``."""
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{what} ({exc!r})") from None


def make_dir(path: str | Path) -> Path:
    """Create ``path`` and its parents; a path that cannot be a directory is a DataError."""
    path = Path(path)
    with file_op(path, "create directory"):
        path.mkdir(parents=True, exist_ok=True)
    return path


def remove_file(path: str | Path) -> None:
    """Delete ``path`` if it exists; a path that cannot be removed is a DataError."""
    with file_op(path, "remove"):
        Path(path).unlink(missing_ok=True)


def _write_bytes(path: str | Path, *chunks: bytes) -> None:
    with file_op(path, "write"), open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def write_text(path: str | Path, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def write_matrix(path: str | Path, m: np.ndarray) -> None:
    m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    _write_bytes(path, np.asarray(m.shape, dtype=_HEADER_DTYPE).tobytes(), m.astype(_DATA_DTYPE, copy=False).tobytes())


def read_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    with file_op(path, "read matrix"):
        raw = path.read_bytes()
    if len(raw) < 16:
        raise DataError(f"{show_path(path)}: truncated matrix file")
    rows, cols = np.frombuffer(raw[:16], dtype=_HEADER_DTYPE)
    expected = 16 + 8 * int(rows) * int(cols)
    if len(raw) != expected:
        raise DataError(f"{show_path(path)}: expected {expected} bytes, found {len(raw)}")
    data = np.frombuffer(raw[16:], dtype=_DATA_DTYPE)
    if not np.isfinite(data).all():
        raise DataError(f"{show_path(path)}: non-finite matrix values")
    return data.reshape(int(rows), int(cols)).copy()


def write_json(path: str | Path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read or decoded is a DataError."""
    with file_op(path, "read"):
        return Path(path).read_text(encoding="utf-8")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; bools and integral floats are not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int, error: type[Exception] = ValueError):
    """``value``; raise ``error`` unless it is an integer (``is_integer``) of at least ``minimum``."""
    if not is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be at least {minimum}")
    return value


def check_number(name: str, value, high: float = np.inf, *, positive: bool = True,
                 error: type[Exception] = ValueError) -> float:
    """``value`` as a float; raise ``error`` unless it is a finite real number, not a bool, that is
    positive (non-negative with ``positive=False``) and at most ``high``."""
    if not (isinstance(value, Real) and not isinstance(value, bool) and np.isfinite(value)
            and (value > 0 if positive else value >= 0) and value <= high):
        raise error(f"{name} must be in {'(' if positive else '['}0, {high:g}{']' if high < np.inf else ')'}, got {value!r}")
    return float(value)


def read_json(path: str | Path):
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting deeper than the parser's limit
        raise DataError(f"{show_path(path)}: invalid JSON ({exc})") from None


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place."""
    a.flags.writeable = False
    return a

