"""Encoding and dimension-level description of unseen sequences.

An unseen sequence is sparse-coded against the trained dictionary through
its cross-kernel values alone.  Its reconstruction can be scored on any
subset of dimensions (relative feature-space residual), summarized as the
fraction of dimensions reconstructed below an error threshold, and
expanded into an N x f encoding matrix attributing each dimension to the
training samples (and hence classes) that rebuilt it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ioutil import check_number, keep_last, read_only
from .kernels import CrossKernel, KernelSet
from .mkd import Dictionary, clamp_residual, residuals, sparse_codes

DEFAULT_THRESHOLD = 0.1
_NEED_MEMO: dict = {}  # the need mask of _columns for the last A and B (keep_last)
_CLASS_MEMO: dict = {}  # _partition of the last label vector, keyed on its values (keep_last)


def check_threshold(threshold) -> float:
    """The error threshold as a float, which must be a non-negative, finite number (``check_number``)."""
    return check_number("threshold", threshold, positive=False, error=DataError)


@dataclass(frozen=True)
class EncodingMatrix:
    """N x f non-negative descriptor; column l weights each training
    sample's contribution to reconstructing dimension l."""

    values: np.ndarray
    source_id: str


@dataclass(frozen=True)
class ReconstructionReport:
    """Per-dimension relative errors plus the derived accuracy summary.

    ``attribution[l]`` is the seen class contributing most to dimension l,
    present exactly for dimensions whose error meets the threshold.
    """

    per_dim_error: np.ndarray
    dra: float
    attribution: list[int | None]
    threshold: float


def _check_provenance(d: Dictionary, ck: CrossKernel) -> None:
    if d.dataset_hash != ck.dataset_hash:
        raise DataError("cross-kernel and dictionary come from different seen datasets")


def _columns(d: Dictionary, ck: CrossKernel) -> list[np.ndarray]:
    """The cross-kernel as one N x 1 column per dimension, on the rows the dictionary reads.

    Dimension l is read only at the samples that some atom with B[l,t] > 0
    draws on; every other entry is 0, and the code, residuals and encoding
    multiply it by an exact zero, so they equal the full kernel's bit for bit.
    That ``need`` mask is kept for the last A and B, by content.
    """
    a, b = d.sample_weights, d.dim_weights
    need = keep_last(_NEED_MEMO, (a.shape, a.tobytes(), b.tobytes()), lambda: read_only((b > 0) @ (a > 0).T))
    return [c[:, None] for c in ck.values(need)]


def encode(d: Dictionary, ks: KernelSet, ck: CrossKernel, t_x: int) -> np.ndarray:
    """Sparse non-negative code of one unseen sequence."""
    _check_provenance(d, ck)
    if ck.dims != d.dims:
        raise DataError("cross-kernel dimension count does not match the dictionary")
    return sparse_codes(d, ks, _columns(d, ck), t_x)[:, 0]


def _dim_residuals(d: Dictionary, ks: KernelSet, ck: CrossKernel, x: np.ndarray) -> np.ndarray:
    """Per-dimension residuals (length f) of one coded unseen sequence, unclamped."""
    _check_provenance(d, ck)
    codes = np.asarray(x, dtype=np.float64)[:, None]
    return residuals(d, ks.kernels, _columns(d, ck), ck.self_k[:, None], codes)[:, 0]


def partial_error(d: Dictionary, ks: KernelSet, ck: CrossKernel, x: np.ndarray, dims) -> float:
    """Relative reconstruction error restricted to a dimension subset.

    The per-dimension residuals of ``mkd.residuals`` are summed over the
    subset, clamped at zero against round-off, and divided by the subset's
    self-kernel mass (1 per dimension).
    """
    dims = sorted(set(int(l) for l in dims))
    if not dims:
        raise ValueError("dimension subset must be non-empty")
    if dims[0] < 0 or dims[-1] >= d.dims:
        raise ValueError(f"dimension subset out of range 0..{d.dims - 1}")
    numer = clamp_residual(np.sum(_dim_residuals(d, ks, ck, x)[dims]), "partial error")
    return float(numer) / float(np.sum(ck.self_k[dims]))


def encoding_matrix(d: Dictionary, x: np.ndarray, source_id: str = "") -> EncodingMatrix:
    """R = A diag(x) B', the sample-by-dimension contribution weights."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d.k,):
        raise ValueError(f"code has shape {x.shape}, expected ({d.k},)")
    values = (d.sample_weights * x[None, :]) @ d.dim_weights.T
    return EncodingMatrix(values=values, source_id=source_id)


def _partition(labels: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The classes of ``labels`` in increasing order, and the indices of each class's samples."""
    classes = np.unique(labels)
    return classes, [np.flatnonzero(labels == cls) for cls in classes]


def reconstruction_report(
    d: Dictionary,
    ks: KernelSet,
    ck: CrossKernel,
    x: np.ndarray,
    seen_labels: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
) -> ReconstructionReport:
    """Score every dimension and attribute the well-reconstructed ones.

    A dimension passing the error threshold is attributed to the seen
    class whose samples carry the largest total weight in that dimension's
    encoding column; ties go to the lowest class id.  The threshold must
    pass ``check_threshold``.
    """
    threshold = check_threshold(threshold)
    seen_labels = np.asarray(seen_labels)
    if seen_labels.shape != (d.n,):
        raise DataError(f"need one label per training sample ({d.n}), got {seen_labels.shape}")
    errors = clamp_residual(_dim_residuals(d, ks, ck, x), "partial error") / ck.self_k
    r = encoding_matrix(d, x).values
    classes, rows = keep_last(_CLASS_MEMO, seen_labels.tolist(), lambda: _partition(seen_labels))
    attribution: list[int | None] = []
    for l in range(d.dims):
        if errors[l] <= threshold:
            totals = np.array([r[idx, l].sum() for idx in rows])
            attribution.append(int(classes[int(np.argmax(totals))]))
        else:
            attribution.append(None)
    dra = float(np.mean(errors <= threshold))
    return ReconstructionReport(
        per_dim_error=errors, dra=dra, attribution=attribution, threshold=threshold
    )
