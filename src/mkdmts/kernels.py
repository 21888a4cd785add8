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
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError
from .ioutil import check_int, check_number, make_dir, malformed, median_of_sorted, read_json, read_matrix, read_only, remove_file, show_path, write_json, write_matrix
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

    ``values(need, kept)`` runs DTW only on the (dimension, row) pairs that
    the f x N mask ``need`` asks for and that are not known yet, all in one
    wavefront run on the query's rows and the seen set's packed block
    (``Dataset.packed``), and keeps them.  ``kept`` is the one-entry
    wavefront slot of the describe state whose mask ``need`` is
    (``zeroshot._dictionary_side``): every query of one dictionary reads
    the same seen columns, so a describe's first call, which computes every
    needed pair, only copies its rows into the wavefront kept there and
    sweeps (``_dtw_columns``).  Every value is the one the full computation
    gives, bit for bit.  The unseen sequence's self-kernel is 1 in every
    dimension, since its DTW cost against itself is 0.
    """

    def __init__(self, seen: Dataset, z: TimeSeries, bandwidths: np.ndarray):
        self._pairs = (seen, z, bandwidths)
        self._values = np.zeros((seen.dims, len(seen)))
        self._known = np.zeros(self._values.shape, dtype=bool)
        self._swept = False
        self.self_k = np.ones(seen.dims)
        self.dataset_hash = seen.hash()

    @property
    def dims(self) -> int:
        return len(self._values)

    def values(self, need: np.ndarray, kept=None) -> np.ndarray:
        """f x N values at the entries where the f x N mask ``need`` is True, and 0 elsewhere; the slot
        ``kept`` of ``need``'s describe state is swept only by the first call that computes anything, whose
        missing pairs are all of ``need``'s."""
        need = np.asarray(need, dtype=bool)
        if need.shape != self._values.shape:
            raise ValueError(f"need mask has shape {need.shape}, expected {self._values.shape}")
        missing = need & ~self._known
        if missing.any():
            seen, z, bandwidths = self._pairs
            dims, rows = missing.nonzero()
            dists = _dtw_columns(z.values.T, np.full(z.dims, z.length), dims, *seen.packed(), dims * len(seen) + rows,
                                 None if self._swept else kept)
            self._values[dims, rows] = np.exp(-dists / bandwidths[dims])
            self._known |= missing
            self._swept = True
        return np.where(need, self._values, 0.0)


# The working set of one ``_wavefront`` call, in float64 values: per pair it
# holds the gathered query column (rows), the flipped reference column (cols),
# three diagonal buffers (3 * (rows + 1)), the cost scratch (rows) and its
# output entry, 5 * rows + cols + 4 values in all.  ``_dtw_columns`` splits its
# pairs evenly over the fewest chunks that stay within this cap (1 MiB), or
# runs one pair per chunk when a single pair exceeds it.  A sweep of cold
# Grams (2-vCPU Xeon, one BLAS thread) set the value.  On 24 series of 2 dims
# and lengths 61-88 (552 pairs), 1 << 17 runs 3 chunks of 765 KiB in about
# the time that chunks of 1.5 and 0.7 MiB took; 3 << 16 runs 2 chunks of
# 1.1 MiB, faster there but not on 24 series of 3 dims (828 pairs), and
# 1 << 16 runs 5 chunks, slower on both.  The bytes are the same at every value.
_WAVEFRONT_ELEMENTS = 1 << 17
# A describe keeps its wavefront in its dictionary's describe state (``_kept_wavefront``)
# only while the kept entry holds at most 512 KiB, counted as 8 bytes per working
# set value, ``_STEP_BYTES`` per diagonal for its step, seven array views and a
# tuple (0.9-1.0 KB by tracemalloc, numpy 2.4 on 64-bit CPython), and its
# end-diagonal schedules (``_schedule``), each counted as 8 bytes per diagonal and
# ``_GROUP_BYTES`` per pair, the most a group of pairs that end on one diagonal
# holds per pair (a tuple of two array views, 0.25 KB, when every pair ends alone).
# Measured the same way, a describe of 24 pairs at 89 rows by 87 columns keeps
# 0.26 MB, and one of 48 pairs at 89 by 88 keeps 0.39 MB, before their schedules.
_KEPT_BYTES = 1 << 19
_STEP_BYTES = 1100
_GROUP_BYTES = 300


def _wavefront(q: np.ndarray, e: np.ndarray) -> tuple:
    """The ``(steps, buffers)`` of one wavefront over the ``rows x pairs`` query block ``q`` and the
    ``cols x pairs`` reference block ``e``, read flipped (``_steps``): its three diagonal buffers, one
    ``3 x (rows + 1) x pairs`` array left unset for ``_sweep`` to fill, and the lazy generator of its
    steps over them and one cost scratch.  The Gram and ``dtw`` run the steps as they are made; a
    describe keeps them (``_kept_wavefront``)."""
    rows, pairs = q.shape
    buffers = np.empty((3, rows + 1, pairs))
    return _steps(q, e, np.empty((rows, pairs)), tuple(buffers)), buffers


def _steps(q, e, scratch, buffers):
    """For each diagonal d = 0, 1, ... of the DTW grids of the column pairs (q[:, k], r_k), the views
    that its five array calls read and write, as one tuple: the query band, the reference band, the
    cost scratch, the band of the current diagonal's buffer, the two views of the previous one (rows
    i and i - 1) and the view of the one before (row i - 1), and the current buffer, from which
    ``_sweep`` reads the pairs that end on d.

    ``e`` holds each reference reversed with its zero padding on top: e[cols - 1 - j, k] = r_k[j],
    so diagonal d reads the contiguous row slices q[lo:hi] and e[cols - 1 - d + lo: cols - 1 - d + hi].
    Cell (i, j) lies on diagonal d = i + j and depends only on diagonals d-1 and d-2, so diagonal d
    covers its band of valid rows, i in [lo, hi) with lo = max(0, d - cols + 1) and
    hi = min(d + 1, rows), which keeps j = d - i in [0, cols), for all pairs at once.  The buffers
    hold D on diagonals d-2, d-1 and d by row i at index i + 1 (index 0 is row -1) and rotate: on
    diagonal d they are ``buffers[d % 3]``, ``buffers[(d + 1) % 3]`` and ``buffers[(d + 2) % 3]``.
    Diagonal 0 reads D[-1,-1] = 0 from a row of zeros of its own, so the buffers need no seed.  The
    steps depend only on the blocks' shapes and these arrays, not on their values, so a kept list of
    them runs again on new values written into ``q``.
    """
    rows, cols = len(q), len(e)
    skew = cols - 1
    origin = np.zeros((1, q.shape[1]))
    for d in range(rows + cols - 1):
        lo = d - cols + 1 if d >= cols else 0
        hi = d + 1 if d < rows else rows
        prevprev, prev, cur = buffers[d % 3], buffers[(d + 1) % 3], buffers[(d + 2) % 3]
        yield (q[lo:hi], e[skew - d + lo: skew - d + hi], scratch[: hi - lo], cur[lo + 1: hi + 1],
               prev[lo + 1: hi + 1], prev[lo:hi], prevprev[lo:hi] if d else origin, cur)


def _schedule(n: np.ndarray, m: np.ndarray) -> tuple:
    """The end-diagonal schedule of the column pairs (q[:n[k], k], r_k[:m[k]]) that ``_sweep`` runs: for
    each diagonal up to the last pair's end, None or the flat indices in the current buffer of the pairs
    that end on it and their slots in one output array; the pairs in that order; and that output array.

    Pairs are grouped by end diagonal stably; sorted, not np.argsort, whose first call in a process raised
    a cold Gram's peak RSS by about 0.5 MB (the sort code it pages in).  The schedule depends only on the
    lengths, so a describe keeps it per query length (``_dtw_columns``)."""
    pairs = n.size
    ends = (n + m - 2).tolist()
    order = sorted(range(pairs), key=ends.__getitem__)
    flat, ended = n[order] * pairs + order, np.empty(pairs)
    finishing, a = [None] * (ends[order[-1]] + 1), 0
    for b in range(1, pairs + 1):
        if b == pairs or ends[order[b]] != ends[order[a]]:
            finishing[ends[order[a]]] = flat[a:b], ended[a:b]
            a = b
    return finishing, np.array(order, dtype=np.intp), ended


def _sweep(steps, buffers, schedule) -> np.ndarray:
    """DTW end cells of every column pair of the blocks that ``steps`` and ``buffers`` came from
    (``_wavefront``), in the pairs' order, running the steps up to the last pair's end along
    ``schedule`` (``_schedule`` of the pairs' lengths).

    Each diagonal is five array operations: subtract and square give the local costs, two minimums
    the best neighbour, and an add the cells, each D[i,j] = fl(c[i,j] + min(up, left, diag)).  Around
    them a diagonal does one list lookup for the pairs ending on it, and one ``take`` of their end
    cells when there are any: on a describe's band (about 45 rows by 24 pairs) each array call takes
    about half a microsecond, so any Python work between the calls is a visible share of the
    diagonal.  Rounding is monotone, so this equals the minimum over all monotone alignment paths of
    their left-to-right accumulated costs, bit for bit.  Padded cells (i >= n[k] or j >= m[k]) lie
    past a pair's own end cell, which depends only on smaller indices, so their values never matter,
    whatever the padding holds.

    The sweep fills the buffers with +inf once; they rotate and are not filled again.  Both band
    edges only move up, by at most one row per diagonal, so a row above the band (j < 0) has never
    been written and still holds +inf, which is what the off-grid neighbour must be; a row below the
    band (j >= cols) may hold a value from three diagonals back, but the band of the next two
    diagonals reads no row below the current band.  No band holds row -1 (index 0), so it stays +inf; diagonal 0 reads its
    diagonal neighbour D[-1,-1] = 0 from a row of zeros of its own (``_steps``), not from a buffer.
    A cost that overflows float64 is +inf (its kernel value exactly 0) without a warning, and since
    every cost is non-negative no NaN arises.
    """
    finishing, order, ended = schedule
    buffers.fill(np.inf)
    subtract, multiply, minimum, add = np.subtract, np.multiply, np.minimum, np.add
    with np.errstate(over="ignore"):
        for (q, e, cost, band, left, up, diag, cur), at in zip(steps, finishing):
            subtract(q, e, cost)
            multiply(cost, cost, cost)
            minimum(left, up, out=band)
            minimum(band, diag, out=band)
            add(cost, band, band)
            if at is not None:
                cur.take(at[0], None, at[1], "clip")
    out = np.empty(order.size)
    out[order] = ended
    return out


class _Kept(NamedTuple):
    """A describe's kept wavefront (``_kept_wavefront``)."""

    capacity: int  # query rows its steps cover
    q: np.ndarray  # its query block, capacity x pairs
    steps: list  # its steps (``_steps``)
    buffers: np.ndarray  # its diagonal buffers
    schedules: dict  # query length -> ``_schedule`` of the describe's pairs at that length
    room: int  # most schedules kept within ``_KEPT_BYTES``


def _kept_wavefront(kept, rows, references, reference_lengths, ri):
    """The wavefront of a describe's pairs (its query column k against column ri[k] of the packed
    ``references``), checked out of its describe state's one-entry slot ``kept`` when the entry there
    covers ``rows`` query rows, else built for ``rows`` rows; None, leaving the slot as it was, when it
    would need more than one chunk or hold more than ``_KEPT_BYTES``.

    The entry is a ``_Kept``.  The slot lives beside the mask that fixes ``ri``, so the entry is not
    keyed by it; a longer query replaces it with one of its own length.  The query block starts as
    zeros, and a shorter query leaves stale, finite values in the rows past its end, which only padded
    cells read.  Its ``schedules`` (``_kept_schedule``) stay within ``_KEPT_BYTES``.  While a describe
    runs the entry, it is out of the slot, so a concurrent describe finds the slot empty and builds its
    own; the caller puts it back with ``kept.append``, and the slot holds one entry at most.
    """
    entry = None
    with suppress(IndexError):
        entry = kept.pop()
        if entry.capacity >= rows:
            return entry
    pairs, cols = ri.size, int(reference_lengths[ri].max())
    work = 5 * rows + cols + 4
    held = 8 * work * pairs + (rows + cols) * _STEP_BYTES
    if pairs > max(1, _WAVEFRONT_ELEMENTS // work) or held > _KEPT_BYTES:
        if entry is not None:
            kept.append(entry)
        return None
    q = np.zeros((rows, pairs))
    steps, buffers = _wavefront(q, references[cols - 1::-1].take(ri, axis=1))
    return _Kept(rows, q, list(steps), buffers, {}, (_KEPT_BYTES - held) // (8 * (rows + cols) + _GROUP_BYTES * pairs))


def _kept_schedule(entry, rows: int, n: np.ndarray, m: np.ndarray) -> tuple:
    """The ``_schedule`` of a describe's pairs, whose query lengths ``n`` all equal ``rows``, kept in the
    wavefront entry (``_kept_wavefront``) per query length: at most ``room`` of them, the oldest dropped
    first."""
    schedules = entry.schedules
    schedule = schedules.get(rows)
    if schedule is None:
        schedule = _schedule(n, m)
        if entry.room:
            if len(schedules) >= entry.room:
                del schedules[next(iter(schedules))]
            schedules[rows] = schedule
    return schedule


def keep_wavefront(seen: Dataset, need: np.ndarray, kept, lengths) -> None:
    """Make ready, in the describe slot ``kept`` of the f x N mask ``need``, what describes of queries of
    the given ``lengths`` against ``seen`` sweep (``CrossKernel.values``): the wavefront, kept there when
    it covers the longest, else built for it (``_kept_wavefront``), unless it is too large to keep, and
    the schedules of the lengths in order of first appearance, as many as it keeps.  It runs no DTW."""
    dims, cols = np.nonzero(need)
    if dims.size:
        references, reference_lengths = seen.packed()
        ri = dims * len(seen) + cols
        entry = _kept_wavefront(kept, max(lengths), references, reference_lengths, ri)
        if entry is not None:
            for rows in list(dict.fromkeys(lengths))[:entry.room]:
                _kept_schedule(entry, rows, np.full(ri.size, rows), reference_lengths[ri])
            kept.append(entry)


def _dtw_columns(queries, query_lengths, qi, references, reference_lengths, ri, kept=None) -> np.ndarray:
    """DTW cost of each pair (column qi[k] of ``queries``, column ri[k] of ``references``), as ``dtw`` defines it.

    Both blocks are zero-padded ``steps x series`` blocks with their
    series' lengths, as ``pack`` builds them.  Every DTW of the package
    runs here: ``pairwise_dtw``'s pairs within a dataset's block,
    ``CrossKernel.values``' query rows against the seen block, and
    ``dtw``'s one pair.  The pairs are split evenly over the fewest chunks
    whose whole working set stays within ``_WAVEFRONT_ELEMENTS``, so chunk
    sizes differ by at most one and no short tail chunk pays for a full
    diagonal sweep.  Each chunk gathers its query columns from the rows up
    to the longest query and its reference columns from the rows up to the
    longest reference, read flipped, and sweeps its wavefront as its steps
    are made (``_wavefront``, ``_sweep``).  A describe of one query passes
    its describe state's one-entry slot ``kept`` (a
    ``collections.deque(maxlen=1)``): its wavefront is then built once, or
    before the first query (``keep_wavefront``), and kept there, and each
    later describe only copies its query in and sweeps the kept steps
    (``_kept_wavefront``), while its pairs fit one chunk and the entry
    holds at most ``_KEPT_BYTES``.  Its pairs share the query's length, so
    the entry also keeps their schedule per query length.  Entry k does
    not depend on the other pairs, their order, how they are chunked or
    whether the steps were kept.
    """
    n = query_lengths[qi]
    if not n.size:
        return np.empty(0)
    rows = int(n.max())
    entry = None if kept is None else _kept_wavefront(kept, rows, references, reference_lengths, ri)
    if entry is not None:
        entry.q[:rows] = queries[:rows, qi]
        out = _sweep(entry.steps, entry.buffers, _kept_schedule(entry, rows, n, reference_lengths[ri]))
        kept.append(entry)
        return out
    m = reference_lengths[ri]
    cols = int(m.max())
    queries, flipped = queries[:rows], references[cols - 1::-1]
    chunks = -(-n.size // max(1, _WAVEFRONT_ELEMENTS // (5 * rows + cols + 4)))
    return np.concatenate([
        _sweep(*_wavefront(queries.take(q, axis=1), flipped.take(r, axis=1)),
               _schedule(query_lengths[q], reference_lengths[r]))
        for q, r in zip(np.array_split(qi, chunks), np.array_split(ri, chunks))
    ])


def dtw(a, b) -> float:
    """DTW cost of the 1-d series ``a`` and ``b``; a ValueError unless both are non-empty, finite and 1-d.

    Squared-difference local cost, full window, steps (1,0), (0,1), (1,1):
    the accumulated cost of the optimal monotone alignment (no square
    root).  It is bit-identical to a scalar double-loop DP with
    D[i,j] = fl((a_i - b_j)^2 + min(neighbours)), and so is every cost
    ``_dtw_columns`` returns, however its pairs are chunked: the pair is
    packed into one block (``pack``) and run there, and ``_sweep`` is
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
    string, as a fixed bandwidth must be (``check_number``); else ``error``.  A float64 vector, as a kernel
    set holds, is tested in one pass; any other input, or one that fails that test, entry by entry."""
    if np.shape(bandwidths) != (dims,):
        raise error("bandwidth vector does not match the dimension count")
    if isinstance(bandwidths, np.ndarray) and bandwidths.dtype == np.float64 and (
            (bandwidths > 0.0) & (bandwidths < np.inf)).all():
        return bandwidths.copy()
    with suppress(ValueError):
        return np.array([check_number("bandwidth", b) for b in bandwidths])
    raise error(f"bandwidths must be positive and finite, got {np.asarray(bandwidths, dtype=object).tolist()}")


def _median_bandwidth(distances: np.ndarray, dim: int) -> float:
    """The median off-diagonal DTW cost of one dimension of at least 2 sequences (``median_of_sorted`` of
    the sorted upper triangle); 1.0, with a warning, when it is not positive, and a DataError when it is
    +inf, as it is when the costs of at least half the pairs overflow."""
    with np.errstate(over="ignore"):  # the two middle costs may be finite and sum past float64
        med = median_of_sorted(np.sort(distances[np.triu_indices(distances.shape[0], k=1)]))
    if not np.isfinite(med):
        raise DataError(f"dimension {dim}: the median DTW cost overflows float64; rescale the data "
                        f"or pass a fixed bandwidth")
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
