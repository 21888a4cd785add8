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
from .ioutil import check_number, is_integer, read_only
from .kernels import CrossKernel, KernelSet
from .mkd import Dictionary, clamp_residual, code_solver, residuals, sparse_codes

DEFAULT_THRESHOLD = 0.1
_DICTIONARY_SIDE: dict = {}  # the describe memo: its one entry, under "last" (_dictionary_side)


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


def _check_provenance(d: Dictionary, ks: KernelSet, ck: CrossKernel) -> None:
    """A DataError unless the kernel set and the cross kernel come from the seen set that trained the
    dictionary, and all three share its dimension count, and the kernel set its sample count.

    Every describe passes this rule, first, before the describe memo is read.
    """
    if d.dataset_hash != ks.dataset_hash:
        raise DataError("model and kernel cache were built on different datasets")
    if d.dataset_hash != ck.dataset_hash:
        raise DataError("cross-kernel and dictionary come from different seen datasets")
    if ck.dims != d.dims:
        raise DataError("cross-kernel dimension count does not match the dictionary")
    if (ks.dims, ks.n) != (d.dims, d.n):
        raise DataError(f"kernel set of {ks.dims} dimensions x {ks.n} samples does not match "
                        f"the dictionary's {d.dims} x {d.n}")


def _dictionary_side(d: Dictionary, ks: KernelSet) -> dict:
    """The describe memo's entry for (``ks``, A, B): the ``need`` mask and the ``solver``, ((type of t_x, t_x),
    code solver).

    Dimension l of a cross-kernel is read only at the samples that some
    atom with B[l,t] > 0 draws on (``need``); every other entry is 0, and
    the code, residuals and encoding multiply it by an exact zero, so they
    equal the full kernel's bit for bit.  Every query of one dictionary
    shares the mask and the solver, so a pass of describes builds them
    once.  The memo holds one entry, replaced when the key changes: the
    kernel set by identity, its Grams being read-only, and A's and B's
    bytes, since training updates them in place.  Callers pass
    ``_check_provenance`` first, so the kernel set fixes N and f, and with
    them the byte counts fix A's and B's shapes.  A caller that holds
    an entry keeps a consistent one, whatever another thread stores.
    Training codes with ``mkd.code_solver`` directly and never reads the memo.
    """
    a, b = d.sample_weights, d.dim_weights
    key = (ks, a.tobytes(), b.tobytes())
    entry = _DICTIONARY_SIDE.get("last")
    if entry is None or entry["key"] != key:
        entry = _DICTIONARY_SIDE["last"] = {"key": key, "need": read_only((b > 0) @ (a > 0).T)}
    return entry


def encode(d: Dictionary, ks: KernelSet, ck: CrossKernel, t_x: int) -> np.ndarray:
    """Sparse non-negative code of one unseen sequence.

    The code solver is kept in the describe memo for the last t_x; one that
    raises is not kept, so a non-finite atom Gram or a t_x that ``code_solver``
    rejects raises at every call.  The key holds t_x's type, as True and 2.0
    equal the valid 1 and 2.
    """
    _check_provenance(d, ks, ck)
    entry = _dictionary_side(d, ks)
    key = (type(t_x), t_x)
    kept = entry.get("solver")
    if kept is None or kept[0] != key:
        kept = entry["solver"] = (key, code_solver(d, ks, t_x))
    return sparse_codes(d, kept[1], [c[:, None] for c in ck.values(entry["need"])])[:, 0]


def _code(d: Dictionary, x) -> np.ndarray:
    """``x`` as a float array; a ValueError unless it is a code of the k atoms."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d.k,):
        raise ValueError(f"code has shape {x.shape}, expected ({d.k},)")
    return x


def _dim_residuals(d: Dictionary, ks: KernelSet, ck: CrossKernel, x) -> np.ndarray:
    """Per-dimension residuals (length f) of one coded unseen sequence, unclamped."""
    codes = _code(d, x)[:, None]
    _check_provenance(d, ks, ck)
    cross = [c[:, None] for c in ck.values(_dictionary_side(d, ks)["need"])]
    return residuals(d, ks.kernels, cross, ck.self_k[:, None], codes)[:, 0]


def partial_error(d: Dictionary, ks: KernelSet, ck: CrossKernel, x: np.ndarray, dims) -> float:
    """Relative reconstruction error restricted to a dimension subset.

    The per-dimension residuals of ``mkd.residuals`` are summed over the
    subset, clamped at zero against round-off, and divided by the subset's
    self-kernel mass (1 per dimension).
    """
    dims = list(dims)
    if not dims:
        raise ValueError("dimension subset must be non-empty")
    if not all(is_integer(l) and 0 <= l < d.dims for l in dims):
        raise ValueError(f"dimension subset must hold integers in 0..{d.dims - 1}, got {dims!r}")
    dims = sorted(set(dims))
    numer = clamp_residual(np.sum(_dim_residuals(d, ks, ck, x)[dims]), "partial error")
    return float(numer) / float(np.sum(ck.self_k[dims]))


def encoding_matrix(d: Dictionary, x: np.ndarray, source_id: str = "") -> EncodingMatrix:
    """R = A diag(x) B', the sample-by-dimension contribution weights."""
    x = _code(d, x)
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
    pass ``check_threshold``, and ``seen_labels`` must hold one integer
    label per training sample, as ``Dataset.labels()`` returns them.
    """
    threshold = check_threshold(threshold)
    seen_labels = np.asarray(seen_labels)
    if seen_labels.shape != (d.n,) or not np.issubdtype(seen_labels.dtype, np.integer):
        raise DataError(f"need one integer label per training sample ({d.n}), "
                        f"got {seen_labels.dtype} labels of shape {seen_labels.shape}")
    errors = clamp_residual(_dim_residuals(d, ks, ck, x), "partial error") / ck.self_k
    r = encoding_matrix(d, x).values
    members: dict = {}
    for i, label in enumerate(seen_labels.tolist()):
        members.setdefault(label, []).append(i)
    classes = sorted(members)  # one pass, where np.unique and a mask per class take twice as long
    rows = [np.array(members[cls]) for cls in classes]
    passed = errors <= threshold
    attribution: list[int | None] = [None] * d.dims
    for l in np.flatnonzero(passed):
        col = r[:, l]
        attribution[l] = int(classes[int(np.argmax([col[idx].sum() for idx in rows]))])
    return ReconstructionReport(per_dim_error=errors, dra=float(np.mean(passed)), attribution=attribution, threshold=threshold)
