"""Shared on-disk formats: binary matrices, JSON helpers, content hashing.

Binary matrix format: two little-endian uint64 (rows, cols) followed by
row-major little-endian float64 data.  Used by the kernel cache, persisted
models, and per-sequence encoding matrices.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError

_HEADER_DTYPE = np.dtype("<u8")
_DATA_DTYPE = np.dtype("<f8")


def write_matrix(path: str | Path, m: np.ndarray) -> None:
    m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    with open(path, "wb") as fh:
        fh.write(np.asarray(m.shape, dtype=_HEADER_DTYPE).tobytes())
        fh.write(m.astype(_DATA_DTYPE, copy=False).tobytes())


def read_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read matrix ({exc.strerror or exc})") from None
    if len(raw) < 16:
        raise DataError(f"{path}: truncated matrix file")
    rows, cols = np.frombuffer(raw[:16], dtype=_HEADER_DTYPE)
    expected = 16 + 8 * int(rows) * int(cols)
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
    data = np.frombuffer(raw[16:], dtype=_DATA_DTYPE)
    return data.reshape(int(rows), int(cols)).copy()


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def content_hash(chunks) -> str:
    """sha256 hex digest over an iterable of bytes chunks."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
