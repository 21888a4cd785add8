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
from .ioutil import check_number
from .kernels import CrossKernel, KernelSet
from .mkd import Dictionary, clamp_residual, residuals, sparse_codes

DEFAULT_THRESHOLD = 0.1


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


def _columns(ck: CrossKernel) -> list[np.ndarray]:
    """The cross-kernel as one N x 1 column per dimension."""
    return [c[:, None] for c in ck.cross]


def encode(d: Dictionary, ks: KernelSet, ck: CrossKernel, t_x: int) -> np.ndarray:
    """Sparse non-negative code of one unseen sequence."""
    _check_provenance(d, ck)
    if ck.dims != d.dims:
        raise DataError("cross-kernel dimension count does not match the dictionary")
    return sparse_codes(d, ks, _columns(ck), t_x)[:, 0]


def _dim_residuals(d: Dictionary, ks: KernelSet, ck: CrossKernel, x: np.ndarray) -> np.ndarray:
    """Per-dimension residuals (length f) of one coded unseen sequence, unclamped."""
    _check_provenance(d, ck)
    codes = np.asarray(x, dtype=np.float64)[:, None]
    return residuals(d, ks.kernels, _columns(ck), ck.self_k[:, None], codes)[:, 0]


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
    classes = np.unique(seen_labels)
    attribution: list[int | None] = []
    for l in range(d.dims):
        if errors[l] <= threshold:
            totals = np.array([r[seen_labels == cls, l].sum() for cls in classes])
            attribution.append(int(classes[int(np.argmax(totals))]))
        else:
            attribution.append(None)
    dra = float(np.mean(errors <= threshold))
    return ReconstructionReport(
        per_dim_error=errors, dra=dra, attribution=attribution, threshold=threshold
    )
