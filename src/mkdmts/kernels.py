"""Per-dimension DTW distances and Gaussian kernel matrices.

For each dimension l the seen-vs-seen Gram is K_l(i, j) =
exp(-dtw(dim l of Y_i, dim l of Y_j) / delta_l).  DTW of warped curves is
not a metric, so the exponentiated matrix can be indefinite; it is
repaired by clipping negative eigenvalues to zero.  Cross-kernel vectors
against single unseen sequences are left unrepaired.  ``pairwise_dtw``
and ``CrossKernel`` read a ``Dataset``'s packed block, ``dtw`` packs its
pair, and every bandwidth vector passes ``check_bandwidths``.
"""

from __future__ import annotations

import logging
import warnings
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .ioutil import check_int, check_number, make_dir, malformed, read_json, read_matrix, read_only, remove_file, show_path, write_json, write_matrix
from .mtsdata import Dataset, TimeSeries, pack

log = logging.getLogger(__name__)

CACHE_FORMAT = "kernel-cache-v1"
DEFAULT_BANDWIDTH = "median"
_DIAG_SLACK = 1e-9  # rounding allowance on a loaded Gram's diagonal


@dataclass(frozen=True, eq=False)
class KernelSet:
    """Per-dimension repaired Gram matrices over the seen set.

    ``bandwidth_request`` is what they were built with: "median", a fixed
    bandwidth, or None when unknown.  ``kernels`` is a tuple of the set's
    own read-only copies of the given Grams, so one ``KernelSet`` always
    holds the same values; it compares and hashes by identity, and values
    computed from it are kept by identity (a ``Dictionary``'s describe state).
    """

    kernels: tuple[np.ndarray, ...]
    bandwidths: np.ndarray
    repair_shift: np.ndarray
    dataset_hash: str
    bandwidth_request: float | str | None = None

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(read_only(np.array(k, dtype=np.float64)) for k in self.kernels))

    @property
    def dims(self) -> int:
        return len(self.kernels)

    @property
    def n(self) -> int:
        return self.kernels[0].shape[0]

    def subset(self, indices, dataset_hash: str) -> "KernelSet":
        idx = np.asarray(indices)
        return replace(self, kernels=[k[np.ix_(idx, idx)] for k in self.kernels], dataset_hash=dataset_hash)


class CrossKernel:
    """Kernel values between every seen sequence and one unseen sequence, per dimension, computed on demand.

    ``values(need)`` runs DTW only on the (dimension, row) pairs that the
    f x N mask ``need`` asks for and that are not known yet, all in one
    wavefront run on the query's rows and the seen set's packed block
    (``Dataset.packed``), and keeps them.  Every value is the one the full
    computation gives, bit for bit.  The unseen sequence's self-kernel is
    1 in every dimension, since its DTW cost against itself is 0.
    """

    def __init__(self, seen: Dataset, z: TimeSeries, bandwidths: np.ndarray):
        self._pairs = (seen, z, bandwidths)
        self._values = np.zeros((seen.dims, len(seen)))
        self._known = np.zeros(self._values.shape, dtype=bool)
        self.self_k = np.ones(seen.dims)
        self.dataset_hash = seen.hash()

    @property
    def dims(self) -> int:
        return len(self._values)

    def values(self, need: np.ndarray) -> np.ndarray:
        """f x N values at the entries where the f x N mask ``need`` is True, and 0 elsewhere."""
        need = np.asarray(need, dtype=bool)
        if need.shape != self._values.shape:
            raise ValueError(f"need mask has shape {need.shape}, expected {self._values.shape}")
        missing = need & ~self._known
        if missing.any():
            seen, z, bandwidths = self._pairs
            dims, rows = missing.nonzero()
            dists = _dtw_columns(z.values.T, np.full(z.dims, z.length), dims, *seen.packed(), dims * len(seen) + rows)
            self._values[dims, rows] = np.exp(-dists / bandwidths[dims])
            self._known |= missing
        return np.where(need, self._values, 0.0)


# Pairs per wavefront are capped so that the gathered query and reference
# blocks together hold at most this many float64 values (512 KiB); larger
# pair sets run in consecutive chunks, with identical per-pair results.
# The cap counts only the gathered blocks: the three diagonal buffers and the
# cost scratch add about 4 * rows + 3 values per pair, about three times the
# cap in all when queries and references are of one length.  Counting them
# would cut the chunks to a third, which made the Gram slower.
_WAVEFRONT_ELEMENTS = 1 << 16


def _wavefront(q: np.ndarray, n: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """DTW end cells of every column pair (q[:n[k], k], r_k[:m[k]]).

    ``q`` is the ``rows x pairs`` query block and ``e`` the ``cols x pairs``
    reference block read flipped, each series reversed with its zero
    padding on top: e[cols - 1 - j, k] = r_k[j], so diagonal d reads the
    contiguous row slices q[lo:hi] and e[cols - 1 - d + lo: cols - 1 - d + hi].
    Cell (i, j) lies on diagonal d = i + j and depends only on
    diagonals d-1 and d-2, so each diagonal is five array operations over
    its band of valid rows, i in [lo, hi) with lo = max(0, d - cols + 1) and
    hi = min(d + 1, rows), which keeps j = d - i in [0, cols), for all
    pairs at once: subtract and square give
    the local costs, two minimums the best neighbour, and an add the cells,
    each D[i,j] = fl(c[i,j] + min(up, left, diag)).  Around them a diagonal
    does only two compares for the band and one list lookup for the pairs
    ending on it: on a describe's band (about 45 rows by 24 pairs) each
    array call takes under half a microsecond, so any Python work between
    the calls is a visible share of the diagonal.  Rounding is monotone, so this
    equals the minimum over all monotone alignment paths of their
    left-to-right accumulated costs, bit for bit.  Padded cells
    (i >= n[k] or j >= m[k]) lie past a pair's own end cell, which depends
    only on smaller indices, so their values never matter.

    The three diagonal buffers rotate and are never re-filled.  Both band
    edges only move up, by at most one row per diagonal, so a row above
    the band (j < 0) has never been written and still holds its initial
    +inf, which is what the off-grid neighbour must be; a row below the band
    (j >= cols) may hold a value from three diagonals back, but the band of
    the next two diagonals reads no row below the current band.  No band
    holds row -1 (index 0), so it stays +inf except for the 0.0 seed of
    D[0,0] on diagonal -2, which only diagonal 0 reads.  The rotation after
    diagonal 0 turns that buffer into ``cur``, which diagonal 1 writes from
    index 1 on and diagonal 2 first reads at index 0, so the seed is cleared
    as ``cur[0]`` right after the rotation.  All inputs stay finite, so no
    NaN arises.
    """
    rows, pairs = q.shape
    cols = e.shape[0]
    ends = n + m - 2
    last = int(ends.max())
    finishing, groups = [None] * (last + 1), {}
    for k, d in enumerate(ends.tolist()):
        groups.setdefault(d, []).append(k)
    for d, done in groups.items():
        finishing[d] = np.array(done)
    out = np.empty(pairs)
    # D on diagonals d-2, d-1 and d by row i at index i + 1; index 0 is row -1.
    prevprev, prev, cur = (np.full((rows + 1, pairs), np.inf) for _ in range(3))
    prevprev[0] = 0.0
    scratch = np.empty((rows, pairs))
    subtract, multiply, minimum, add = np.subtract, np.multiply, np.minimum, np.add
    skew = cols - 1
    for d in range(last + 1):
        lo = d - cols + 1 if d >= cols else 0
        hi = d + 1 if d < rows else rows
        cost = scratch[: hi - lo]
        band = cur[lo + 1: hi + 1]
        subtract(q[lo:hi], e[skew - d + lo: skew - d + hi], cost)
        multiply(cost, cost, cost)
        minimum(prev[lo + 1: hi + 1], prev[lo:hi], out=band)
        minimum(band, prevprev[lo:hi], out=band)
        add(cost, band, band)
        done = finishing[d]
        if done is not None:
            out[done] = cur[n[done], done]
        prevprev, prev, cur = prev, cur, prevprev
        if d == 0:
            cur[0] = np.inf
    return out


def _dtw_columns(queries, query_lengths, qi, references, reference_lengths, ri) -> np.ndarray:
    """DTW cost of each pair (column qi[k] of ``queries``, column ri[k] of ``references``), as ``dtw`` defines it.

    Both blocks are zero-padded ``steps x series`` blocks with their
    series' lengths, as ``pack`` builds them.  Every DTW of the package
    runs here: ``pairwise_dtw``'s pairs within a dataset's block,
    ``CrossKernel.values``' query rows against the seen block, and
    ``dtw``'s one pair.  Each chunk of pairs gathers its query columns
    from the rows up to the longest query and its reference columns from
    the rows up to the longest reference, read flipped, and runs one
    ``_wavefront`` on them.  Entry k does not depend on the other pairs,
    their order, or how they are chunked.
    """
    n, m = query_lengths[qi], reference_lengths[ri]
    if not n.size:
        return np.empty(0)
    rows, cols = int(n.max()), int(m.max())
    queries, flipped = queries[:rows], references[cols - 1::-1]
    step = max(1, _WAVEFRONT_ELEMENTS // (rows + cols))
    return np.concatenate([
        _wavefront(queries.take(qi[lo: lo + step], axis=1), n[lo: lo + step],
                   flipped.take(ri[lo: lo + step], axis=1), m[lo: lo + step])
        for lo in range(0, n.size, step)
    ])


def dtw(a, b) -> float:
    """DTW cost of the 1-d series ``a`` and ``b``; a ValueError unless both are non-empty, finite and 1-d.

    Squared-difference local cost, full window, steps (1,0), (0,1), (1,1):
    the accumulated cost of the optimal monotone alignment (no square
    root).  It is bit-identical to a scalar double-loop DP with
    D[i,j] = fl((a_i - b_j)^2 + min(neighbours)), and so is every cost
    ``_dtw_columns`` returns, however its pairs are chunked: the pair is
    packed into one block (``pack``) and run there, and ``_wavefront`` is
    the package's only DTW dynamic program.
    """
    series = [np.asarray(s, dtype=np.float64) for s in (a, b)]
    for s in series:
        if s.ndim != 1 or not s.size:
            raise ValueError(f"dtw: need a non-empty 1-d series, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("dtw: non-finite input")
    block, lengths = pack(series)
    return float(_dtw_columns(block, lengths, np.array([0]), block, lengths, np.array([1]))[0])


def pairwise_dtw(data: Dataset) -> np.ndarray:
    """f x N x N DTW costs between every two sequences of ``data`` in each dimension, symmetric with a zero
    diagonal: the upper-triangle pairs of every dimension, gathered from ``data.packed()``, run in one
    ``_dtw_columns`` call; see ``dtw``."""
    block, lengths = data.packed()
    n = len(data)
    iu, ju = np.triu_indices(n, k=1)
    starts = n * np.arange(data.dims)[:, None]
    upper = _dtw_columns(block, lengths, (starts + iu).ravel(), block, lengths, (starts + ju).ravel())
    d = np.zeros((data.dims, n, n))
    d[:, iu, ju] = d[:, ju, iu] = upper.reshape(data.dims, -1)
    return d


def psd_repair(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip negative eigenvalues to zero; returns (repaired, clip magnitude).

    The clip magnitude is the absolute value of the most negative
    eigenvalue removed (0.0 when the input was already PSD).
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.isfinite(m).all():
        raise NumericalError("psd_repair: non-finite input matrix")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"psd_repair: eigendecomposition failed ({exc})") from exc
    shift = float(max(0.0, -vals.min()))
    clipped = np.clip(vals, 0.0, None)
    repaired = (vecs * clipped) @ vecs.T
    return (repaired + repaired.T) / 2.0, shift


def check_bandwidth(bandwidth, error: type[Exception] = DataError) -> float | str:
    """"median", or the fixed bandwidth as a float, which must be a positive, finite number
    (``check_number``); a string other than "median", such as the command line's, is parsed first.
    Anything else raises ``error``."""
    if isinstance(bandwidth, str) and bandwidth == "median":
        return bandwidth
    try:
        return check_number("bandwidth", float(bandwidth) if isinstance(bandwidth, str) else bandwidth)
    except ValueError:
        raise error(f"bandwidth must be 'median' or positive and finite, got {bandwidth!r}") from None


def check_bandwidths(bandwidths, dims: int, error: type[Exception] = DataError) -> np.ndarray:
    """``bandwidths`` as a float vector of ``dims`` entries, each a positive, finite number, not a bool or a
    string, as a fixed bandwidth must be (``check_number``); else ``error``."""
    if np.shape(bandwidths) != (dims,):
        raise error("bandwidth vector does not match the dimension count")
    with suppress(ValueError):
        return np.array([check_number("bandwidth", b) for b in bandwidths])
    raise error(f"bandwidths must be positive and finite, got {np.asarray(bandwidths, dtype=object).tolist()}")


def _median_bandwidth(distances: np.ndarray, dim: int) -> float:
    n = distances.shape[0]
    off = distances[np.triu_indices(n, k=1)]
    med = float(np.median(off)) if off.size else 0.0
    if med <= 0.0:
        warnings.warn(
            f"dimension {dim}: all pairwise DTW distances are zero, falling back to bandwidth 1.0"
        )
        return 1.0
    return med


def build_kernelset(seen: Dataset, bandwidth=DEFAULT_BANDWIDTH) -> KernelSet:
    """Compute per-dimension Gaussian-of-DTW Grams over the seen set.

    ``bandwidth`` is either "median" (median off-diagonal DTW distance per
    dimension) or a fixed positive number applied to every dimension.  The
    seen set must be labeled, as training will read its labels; that is
    checked before any DTW runs.
    """
    request = check_bandwidth(bandwidth)
    if len(seen) < 2:
        raise DataError("kernel construction needs at least 2 sequences")
    seen.labels()
    kernels, deltas, shifts = [], [], []
    for l, d in enumerate(pairwise_dtw(seen)):
        delta = request if isinstance(request, float) else _median_bandwidth(d, l)
        k = np.exp(-d / delta)
        k, shift = psd_repair(k)
        kernels.append(k)
        deltas.append(delta)
        shifts.append(shift)
        if shift > 0:
            log.info("dimension %d: clipped eigenvalues down to -%.3e", l, shift)
    return KernelSet(
        kernels=kernels,
        bandwidths=np.asarray(deltas),
        repair_shift=np.asarray(shifts),
        dataset_hash=seen.hash(),
        bandwidth_request=request,
    )


def cross_kernel(seen: Dataset, z: TimeSeries, bandwidths) -> CrossKernel:
    """Kernel values of one unseen sequence against every seen sequence, computed on demand.

    The dimension count and the bandwidths (one per dimension, each
    positive and finite) are checked here, but DTW runs only for the values
    a caller asks for (``CrossKernel.values``).  Every sequence is finite
    and read-only from its construction on, and the seen set hashes and
    packs itself once, so no per-query scan, hash or padding is needed.
    """
    if z.dims != seen.dims:
        raise DataError(
            f"sequence {z.id!r} has {z.dims} dimensions, seen set has {seen.dims}"
        )
    return CrossKernel(seen, z, check_bandwidths(bandwidths, seen.dims))


def save_kernelset(ks: KernelSet, cache_dir: str | Path) -> None:
    """Write the cache; ``meta.json`` goes last, so an interrupted write leaves none."""
    cache_dir = make_dir(cache_dir)
    remove_file(cache_dir / "meta.json")
    for l, k in enumerate(ks.kernels):
        write_matrix(cache_dir / f"dim{l:03d}.bin", k)
    write_json(
        cache_dir / "meta.json",
        {
            "format": CACHE_FORMAT,
            "n": ks.n,
            "f": ks.dims,
            "bandwidths": [float(x) for x in ks.bandwidths],
            "repair_shift": [float(x) for x in ks.repair_shift],
            "dataset_hash": ks.dataset_hash,
            "bandwidth_request": ks.bandwidth_request,
        },
    )


def _finite_list(values, key: str, dims: int) -> np.ndarray:
    """A metadata entry as a vector; it must be a JSON list of ``dims`` non-negative, finite numbers
    (``check_number``)."""
    if isinstance(values, list) and len(values) == dims:
        with suppress(ValueError):
            return np.array([check_number(key, v, positive=False) for v in values])
    raise ValueError(f"{key} must be a list of {dims} finite numbers, got {values!r}")


def load_kernelset(cache_dir: str | Path) -> KernelSet:
    """The kernel set that ``save_kernelset`` wrote to ``cache_dir``; a DataError unless it is whole.

    Every metadata key must be present, and each entry passes one check: the
    bandwidths ``check_bandwidths``, the repair shifts ``_finite_list``, and
    the bandwidth request is None (a set built in memory) or passes ``check_bandwidth``.
    """
    cache_dir, where = Path(cache_dir), show_path(cache_dir)
    meta = read_json(cache_dir / "meta.json")
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != CACHE_FORMAT:
        raise DataError(f"{where}: unknown kernel cache format {fmt!r}")
    with malformed(f"{where}: malformed kernel cache metadata"):
        n, dims = (check_int(key, meta[key], 1) for key in ("n", "f"))
        bandwidths = check_bandwidths(meta["bandwidths"], dims, ValueError)
        repair_shift = _finite_list(meta["repair_shift"], "repair_shift", dims)
        dataset_hash = str(meta["dataset_hash"])
        request = meta["bandwidth_request"]
        request = None if request is None else check_bandwidth(request, ValueError)
    kernels = [read_matrix(cache_dir / f"dim{l:03d}.bin") for l in range(dims)]
    for l, k in enumerate(kernels):
        if k.shape != (n, n):
            raise DataError(f"{where}: dimension {l} matrix has shape {k.shape}")
        # psd_repair returns exactly symmetric Grams, and clipping adds at most
        # repair_shift to a diagonal that is 1 before it
        if not np.array_equal(k, k.T):
            raise DataError(f"{where}: dimension {l} Gram is not symmetric")
        diag = np.diagonal(k)
        if not ((diag >= 1.0 - _DIAG_SLACK) & (diag <= 1.0 + repair_shift[l] + _DIAG_SLACK)).all():
            raise DataError(f"{where}: dimension {l} Gram diagonal is outside "
                            f"[1, 1 + repair_shift] (range {diag.min():.6g} to {diag.max():.6g})")
    return KernelSet(
        kernels=kernels,
        bandwidths=bandwidths,
        repair_shift=repair_shift,
        dataset_hash=dataset_hash,
        bandwidth_request=request,
    )


def build_or_load_kernelset(seen: Dataset, cache_dir: str | Path, bandwidth=DEFAULT_BANDWIDTH) -> KernelSet:
    """Load the cached kernels when the dataset hash and requested bandwidth match, else rebuild."""
    request = check_bandwidth(bandwidth)
    cache_dir = Path(cache_dir)
    meta_path = cache_dir / "meta.json"
    if meta_path.exists():
        try:
            ks = load_kernelset(cache_dir)
            if (ks.dataset_hash, ks.bandwidth_request) == (seen.hash(), request):
                return ks
            log.info("kernel cache %s is stale (dataset or bandwidth changed)", show_path(cache_dir))
        except DataError as exc:
            log.warning("ignoring unreadable kernel cache %s: %s", show_path(cache_dir), exc)
    ks = build_kernelset(seen, bandwidth=bandwidth)
    save_kernelset(ks, cache_dir)
    return ks
