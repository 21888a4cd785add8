import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import PINNED_ON, cpu_path

from mkdmts import kernels
from mkdmts.errors import DataError
from mkdmts.ioutil import read_json, write_json, write_matrix
from mkdmts.kernels import (
    KernelSet,
    build_kernelset,
    build_or_load_kernelset,
    cross_kernel,
    dtw,
    load_kernelset,
    pairwise_dtw,
    psd_repair,
    save_kernelset,
)
from mkdmts.mtsdata import Dataset, SynthConfig, TimeSeries, pack, synth_dataset


def dtw_enumerate(a, b):
    """Independent oracle: explicit DFS over every monotone alignment path."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    best = [np.inf]

    def walk(i, j, acc):
        step = a[i] - b[j]
        acc += step * step
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def dtw_loop(a, b):
    """Reference: plain double-loop DP with the package's per-cell rounding."""
    a = [float(x) for x in np.asarray(a, dtype=float).ravel()]
    b = [float(x) for x in np.asarray(b, dtype=float).ravel()]
    inf = float("inf")
    d = [[inf] * len(b) for _ in a]
    for i in range(len(a)):
        for j in range(len(b)):
            diff = a[i] - b[j]
            if i == 0 and j == 0:
                d[i][j] = diff * diff
                continue
            up = d[i - 1][j] if i else inf
            left = d[i][j - 1] if j else inf
            diag = d[i - 1][j - 1] if i and j else inf
            d[i][j] = diff * diff + min(up, left, diag)
    return d[-1][-1]


def _all_values(ck, seen):
    """Every value of a cross kernel against ``seen``, one length-N row per dimension."""
    return ck.values(np.ones((seen.dims, len(seen)), dtype=bool))

def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def dtw_many(queries, refs):
    """DTW cost of each pair (queries[k], refs[k]) of 1-d arrays: ``kernels._dtw_columns`` on one ``pack``
    block per list, as the package runs its own pairs."""
    q, n = pack(queries)
    r, m = pack(refs)
    pairs = np.arange(len(queries))
    return kernels._dtw_columns(q, n, pairs, r, m, pairs)


def _ragged_pairs(rng, count, max_len=40):
    queries, refs = [], []
    for _ in range(count):
        queries.append(rng.normal(size=int(rng.integers(1, max_len + 1))) * rng.choice([1e-3, 1.0, 1e3]))
        refs.append(rng.normal(size=int(rng.integers(1, max_len + 1))))
    # degenerate shapes: single-row, single-column and single-cell grids
    queries += [rng.normal(size=1), rng.normal(size=17), rng.normal(size=1), np.zeros(6)]
    refs += [rng.normal(size=23), rng.normal(size=1), rng.normal(size=1), np.zeros(9)]
    return queries, refs


def test_dtw_many_bit_identical_to_double_loop(rng):
    queries, refs = _ragged_pairs(rng, 150)
    got = dtw_many(queries, refs)
    expected = [dtw_loop(a, b) for a, b in zip(queries, refs)]
    assert _bits(got) == _bits(expected)


def test_dtw_many_band_edges_and_short_pairs_in_a_long_block(rng):
    # 90x90 sets a 90-row, 90-column block: the others put lo > 0 and hi < d
    # into the same call, and short pairs finish long before the block does
    shapes = [(90, 90), (1, 90), (90, 1), (5, 90), (90, 5), (1, 1), (90, 90)]
    queries = [rng.normal(size=n) for n, _ in shapes]
    refs = [rng.normal(size=m) for _, m in shapes]
    got = dtw_many(queries, refs)
    assert _bits(got) == _bits([dtw_loop(a, b) for a, b in zip(queries, refs)])


def test_dtw_many_independent_of_pair_order_and_chunks(rng, monkeypatch):
    queries, refs = _ragged_pairs(rng, 60)
    whole = dtw_many(queries, refs)
    perm = rng.permutation(len(queries))
    shuffled = dtw_many([queries[i] for i in perm], [refs[i] for i in perm])
    assert _bits(shuffled) == _bits(whole[perm])
    per_pair = 5 * 40 + 40 + 4  # a chunk's working set per pair; the longest query and reference hold 40 steps
    for budget in (1, 3 * per_pair, 62 * per_pair, 1 << 17):  # 64, 22, 2 and 1 chunks (the default)
        monkeypatch.setattr("mkdmts.kernels._WAVEFRONT_ELEMENTS", budget)
        assert _bits(dtw_many(queries, refs)) == _bits(whole)


@pytest.mark.parametrize(
    "shapes",
    [
        # every pair 1x1: only diagonal 0 runs, so only the D[0,0] seed and its clearing are exercised
        [(1, 1)] * 7,
        # rows >> cols: past diagonal cols - 1 the band starts below row 0 (lo > 0) while it ends at the last row
        [(80, 4), (80, 1), (57, 3), (1, 4), (80, 4), (2, 2), (33, 1)],
        # cols >> rows: the band spans every row (lo == 0, hi == rows) for most of the block
        [(4, 80), (1, 80), (3, 57), (4, 1), (4, 80), (2, 2), (1, 33)],
    ],
    ids=["all-1x1", "rows-much-longer", "cols-much-longer"],
)
@pytest.mark.parametrize("split", [False, True], ids=["default-budget", "split-block"])
def test_dtw_many_lopsided_and_single_cell_blocks(rng, monkeypatch, shapes, split):
    queries = [rng.normal(size=n) for n, _ in shapes]
    refs = [rng.normal(size=m) for _, m in shapes]
    if split:  # at most three pairs per chunk: the seven pairs run in chunks of 3, 2 and 2
        rows, cols = max(n for n, _ in shapes), max(m for _, m in shapes)
        monkeypatch.setattr("mkdmts.kernels._WAVEFRONT_ELEMENTS", 3 * (5 * rows + cols + 4))
    got = dtw_many(queries, refs)
    assert _bits(got) == _bits([dtw_loop(a, b) for a, b in zip(queries, refs)])


def test_dtw_many_of_no_pairs_is_empty():
    assert dtw_many([], []).shape == (0,)


def test_dtw_known_small_cases():
    assert dtw([0, 1, 2], [0, 2]) == pytest.approx(1.0, abs=1e-12)
    assert dtw([5.0], [3.0]) == pytest.approx(4.0, abs=1e-12)


def test_dtw_identity_and_symmetry(rng):
    for _ in range(20):
        x = rng.normal(size=rng.integers(1, 10))
        y = rng.normal(size=rng.integers(1, 10))
        assert dtw(x, x) == 0.0
        assert dtw(x, y) == pytest.approx(dtw(y, x), abs=1e-12)
        assert dtw(x, y) >= 0.0


def test_dtw_matches_exhaustive_enumeration(rng):
    for _ in range(300):
        a = rng.normal(size=rng.integers(1, 7))
        b = rng.normal(size=rng.integers(1, 7))
        assert dtw(a, b) == pytest.approx(dtw_enumerate(a, b), abs=1e-12)


def test_dtw_rejects_empty():
    with pytest.raises(ValueError, match=r"non-empty 1-d series, got shape \(0,\)"):
        dtw([], [1.0])


@pytest.mark.parametrize(
    "queries, refs",
    [
        ([[1.0, 2.0], []], [[1.0], [2.0]]),
        ([[1.0]], [[]]),
    ],
)
def test_dtw_many_rejects_empty_nonfinite_and_unpaired(queries, refs):
    # an empty query or reference among many pairs is rejected by dtw, the entry that checks its input;
    # the non-finite cases are in test_dtw_rejects_what_is_not_a_finite_series
    with pytest.raises(ValueError, match=r"non-empty 1-d series, got shape \(0,\)"):
        for a, b in zip(queries, refs):
            dtw(a, b)


@pytest.mark.parametrize(
    "a, b, message",
    [
        ([1.0, np.nan], [1.0], "non-finite"),
        ([1.0], [np.inf, 0.0], "non-finite"),
        ([-np.inf], [1.0], "non-finite"),
        # a 2-d block is not flattened into one series, nor a number taken as a length-1 series
        (np.ones((2, 3)), np.arange(6.0), r"got shape \(2, 3\)"),
        (3.0, 4.0, r"got shape \(\)"),
    ],
    ids=["nan", "inf", "-inf", "2-d", "0-d"],
)
def test_dtw_rejects_what_is_not_a_finite_series(a, b, message):
    with pytest.raises(ValueError, match=message):
        dtw(a, b)


def _dataset(values_list, labels=None):
    seqs = []
    for i, vals in enumerate(values_list):
        label = labels[i] if labels else 0
        seqs.append(TimeSeries(id=f"s{i}", values=np.asarray(vals, dtype=float), label=label))
    return Dataset(seqs)


def test_kernelset_identical_sequences_all_ones():
    vals = [[0.0, 1.0, 2.0], [3.0, 1.0, 0.5]]
    ds = _dataset([vals, vals])
    with pytest.warns(UserWarning, match="falling back"):
        ks = build_kernelset(ds)
    for k in ks.kernels:
        np.testing.assert_allclose(k, np.ones((2, 2)), atol=1e-10)


def test_kernelset_degenerate_dimension_warns():
    vals = [[1.0, 1.0], [0.0, 1.0]]
    other = [[1.0, 1.0], [5.0, 2.0]]  # dim 0 identical across sequences
    ds = _dataset([vals, other])
    with pytest.warns(UserWarning, match="falling back"):
        ks = build_kernelset(ds)
    assert ks.bandwidths[0] == 1.0


def test_kernelset_matches_direct_recomputation(rng):
    seqs = [rng.normal(size=(2, rng.integers(4, 8))) for _ in range(3)]
    ds = _dataset(seqs)
    ks = build_kernelset(ds)
    for l in range(2):
        d = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                d[i, j] = dtw(seqs[i][l], seqs[j][l])
        off = d[np.triu_indices(3, k=1)]
        delta = np.median(off)
        expected, _ = psd_repair(np.exp(-d / delta))
        np.testing.assert_allclose(ks.kernels[l], expected, atol=1e-10)
        assert ks.bandwidths[l] == pytest.approx(delta)


def test_kernel_bytes_pinned():
    """Grams and cross kernels at benchmark lengths, pinned by one digest of their bytes."""
    seen, unseen, _ = synth_dataset(SynthConfig(seed=21, dims=3, samples_per_class=4, length_range=(60, 90)))
    ks = build_kernelset(seen, bandwidth=40.0)
    digest = hashlib.sha256()
    for k in ks.kernels:
        digest.update(k.tobytes())
    for z in unseen.sequences[:4]:
        for c in _all_values(cross_kernel(seen, z, ks.bandwidths), seen):
            digest.update(c.tobytes())
    assert digest.hexdigest() == "826fc6628a2b0ed92322d4d5a68023417f74d140d4dcf73c2dd15a64a48179a0", \
        f"recorded on [{PINNED_ON}], running on [{cpu_path()}]"


def test_dtw_bytes_pinned_on_portable_inputs():
    """DTW costs of 8 generator-made 2-d sequences (lengths 5-35), the Gram path's and one ``dtw`` pair's,
    pinned by one digest that holds on every CPU path: numpy's generators give these inputs on every
    platform, and only correctly rounded subtract, multiply, min and add touch them."""
    gen = np.random.default_rng(34)
    seqs = [TimeSeries(id=f"s{i}", values=gen.random((2, int(gen.integers(5, 40))))) for i in range(8)]
    digest = hashlib.sha256(pairwise_dtw(Dataset(seqs)).tobytes())
    digest.update(np.float64(dtw(seqs[0].dim(0), seqs[1].dim(1))).tobytes())
    assert digest.hexdigest() == "5929508d39208236699884d412d4ea400233e20bf90331145a31a914697701ab", \
        f"running on [{cpu_path()}]"


def test_median_bandwidth_is_np_median_of_the_off_diagonal_costs():
    # 1, 3, 6 and 10 off-diagonal costs; half the matrices draw from a few values, so ties and zeros occur
    gen = np.random.default_rng(34)
    for n in range(2, 6):
        for trial in range(40):
            upper = np.triu(gen.choice([0.0, 0.5, 2.0, 3.25], (n, n)) if trial % 2 else gen.uniform(0, 50, (n, n)), 1)
            costs = upper + upper.T
            expected = float(np.median(costs[np.triu_indices(n, k=1)]))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = kernels._median_bandwidth(costs, 0)
            assert len(caught) == (expected <= 0.0)
            assert np.float64(got).tobytes() == np.float64(expected if expected > 0.0 else 1.0).tobytes()


def test_overflowing_dtw_costs_are_inf_and_their_kernel_values_zero():
    """A finite value of 1e200 squares past float64: its DTW costs are +inf, with no warning (tier-1 makes
    a RuntimeWarning an error), and its kernel values exactly 0; under "median", a dimension whose median
    cost is +inf is a DataError that names it."""
    ramp = np.linspace(0.0, 1.0, 8)
    seqs = [np.vstack([ramp * scale + i, ramp[::-1] + i]) for i, scale in enumerate([1.0, 1.0, 1e200])]
    ds = _dataset(seqs, labels=[0, 1, 1])
    assert dtw([1e200], [-1e200]) == np.inf
    d = pairwise_dtw(ds)
    assert d[0, 2, :2].tolist() == d[0, :2, 2].tolist() == [np.inf, np.inf] and np.isfinite(d[1]).all()
    ks = build_kernelset(ds, bandwidth=40.0)
    assert all(np.isfinite(k).all() for k in ks.kernels)
    z = TimeSeries(id="z", values=seqs[2])
    cross = _all_values(cross_kernel(ds, z, ks.bandwidths), ds)
    assert cross[0].tolist() == [0.0, 0.0, 1.0] and (cross[1] > 0).all()
    with pytest.raises(DataError, match="^dimension 0: the median DTW cost overflows float64"):
        build_kernelset(ds)
    assert kernels._median_bandwidth(np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 5.0], [1e308, 5.0, 0.0]]), 1) \
        == 1e308
    with pytest.raises(DataError, match="^dimension 3: "):  # two finite middle costs whose sum overflows
        kernels._median_bandwidth(np.array([[0.0, 1e308, 0.0, 0.0], [1e308, 0.0, 1e308, 1e308],
                                            [0.0, 1e308, 0.0, 1e308], [0.0, 1e308, 1e308, 0.0]]), 3)


@pytest.mark.parametrize("bandwidth", [-5.0, 0.0, np.nan, np.inf])
def test_bad_fixed_bandwidth_is_data_error(tmp_path, rng, bandwidth):
    ds = _dataset([rng.normal(size=(2, 6)) for _ in range(3)])
    with pytest.raises(DataError, match="bandwidth"):
        build_kernelset(ds, bandwidth=bandwidth)
    with pytest.raises(DataError, match="bandwidth"):
        build_or_load_kernelset(ds, tmp_path / "cache", bandwidth=bandwidth)
    assert not (tmp_path / "cache").exists()


def test_kernel_monotonicity():
    # larger DTW distance gives strictly smaller kernel value at fixed bandwidth
    d1, d2, delta = 1.0, 2.5, 3.0
    assert np.exp(-d2 / delta) < np.exp(-d1 / delta)


def test_cross_kernel_self_match(rng):
    seqs = [rng.normal(size=(2, 6)) for _ in range(4)]
    ds = _dataset(seqs)
    ks = build_kernelset(ds)
    z = TimeSeries(id="z", values=seqs[2].copy())
    ck = cross_kernel(ds, z, ks.bandwidths)
    cross = _all_values(ck, ds)
    for l in range(2):
        assert cross[l][2] == pytest.approx(1.0, abs=1e-12)
        assert ((cross[l] > 0) & (cross[l] <= 1.0)).all()
        assert ck.self_k[l] == 1.0
    # spot check one entry against direct recomputation
    expect = np.exp(-dtw(z.values[1], seqs[0][1]) / ks.bandwidths[1])
    assert cross[1][0] == pytest.approx(expect, rel=1e-12)


def test_cross_kernel_dimension_mismatch(rng):
    ds = _dataset([rng.normal(size=(2, 5)) for _ in range(2)])
    z = TimeSeries(id="z", values=rng.normal(size=(3, 5)))
    with pytest.raises(DataError, match="dimensions"):
        cross_kernel(ds, z, np.ones(2))


@pytest.mark.parametrize("bad", [-40.0, np.nan, 0.0, np.inf], ids=["negative", "nan", "zero", "inf"])
def test_cross_kernel_rejects_a_bandwidth_that_is_not_positive_and_finite(bad):
    seen, unseen, _ = synth_dataset(SynthConfig(num_seen_classes=3, samples_per_class=3, length_range=(10, 14), seed=7))
    with pytest.raises(DataError, match=r"^bandwidths must be positive and finite, got \[40\.0, "):
        cross_kernel(seen, unseen.sequences[0], np.array([40.0, bad]))


@pytest.mark.parametrize("bad", [[True, True], ["40", "40"], np.array([True, True])],
                         ids=["bool", "string", "bool_array"])
def test_cross_kernel_takes_only_numbers_as_bandwidths(bad):
    """Each bandwidth passes the scalar rule: np.asarray would read True as 1.0 and "40" as 40.0."""
    seen, unseen, _ = synth_dataset(SynthConfig(num_seen_classes=3, samples_per_class=3, length_range=(10, 14), seed=7))
    with pytest.raises(DataError, match=r"^bandwidths must be positive and finite, got \["):
        cross_kernel(seen, unseen.sequences[0], bad)


@pytest.mark.parametrize("damage", [{"bandwidths": [True, True]}, {"bandwidths": ["40", "40"]},
                                    {"repair_shift": [False, False]}, {"repair_shift": [-1e-10, -1e-10]}],
                         ids=["bandwidths_bool", "bandwidths_string", "repair_shift_bool", "repair_shift_negative"])
def test_cache_metadata_entries_are_numbers(tmp_path, damage):
    """Each metadata entry passes the scalar rule.  np.asarray read true as 1.0 and "40" as 40.0, so a cache
    built at bandwidth 40 whose meta.json says [true, true] was served with bandwidths [1, 1] for Grams built
    at 40; and a shift below zero, which clipping never gives, this small passes the diagonal check."""
    seen, _, _ = synth_dataset(SynthConfig(num_seen_classes=2, samples_per_class=3, dims=2, seed=7))
    ks = build_or_load_kernelset(seen, tmp_path, 40.0)
    write_json(tmp_path / "meta.json", read_json(tmp_path / "meta.json") | damage)
    with pytest.raises(DataError, match="malformed kernel cache metadata"):
        load_kernelset(tmp_path)
    served = build_or_load_kernelset(seen, tmp_path, 40.0)
    assert served.bandwidths.tolist() == ks.bandwidths.tolist() == [40.0, 40.0]
    assert served.repair_shift.tolist() == ks.repair_shift.tolist() == [0.0, 0.0]
    assert all(_bits(a) == _bits(b) for a, b in zip(served.kernels, ks.kernels))


def test_cross_kernel_values_reject_a_mask_that_is_not_f_by_n(rng):
    ds = _dataset([rng.normal(size=(2, 5)) for _ in range(3)])
    ck = cross_kernel(ds, TimeSeries(id="z", values=rng.normal(size=(2, 4))), np.ones(2))
    for shape in [(3,), (1, 3), (2, 1), (3, 3), (2, 3, 1)]:
        with pytest.raises(ValueError, match=rf"need mask has shape \({shape[0]},"):
            ck.values(np.ones(shape, dtype=bool))
    assert not ck.values(np.zeros((2, 3), dtype=bool)).any()


def test_psd_repair_two_by_two_by_hand():
    repaired, shift = psd_repair(np.array([[1.0, 2.0], [2.0, 1.0]]))
    np.testing.assert_allclose(repaired, [[1.5, 1.5], [1.5, 1.5]], atol=1e-12)
    assert shift == pytest.approx(1.0)


def test_psd_repair_leaves_psd_untouched(rng):
    w = rng.normal(size=(4, 6))
    m = w @ w.T
    repaired, shift = psd_repair(m)
    np.testing.assert_allclose(repaired, m, atol=1e-10)
    assert shift == 0.0


def test_psd_repair_idempotent(rng):
    m = rng.normal(size=(5, 5))
    m = (m + m.T) / 2
    once, _ = psd_repair(m)
    twice, shift2 = psd_repair(once)
    np.testing.assert_allclose(once, twice, atol=1e-10)
    assert shift2 <= 1e-10
    assert np.linalg.eigvalsh(once).min() >= -1e-10


def test_cache_round_trip_and_invalidation(tmp_path, rng):
    seen, _, _ = synth_dataset(SynthConfig(seed=3, samples_per_class=2, length_range=(16, 20)))
    ks = build_kernelset(seen)
    save_kernelset(ks, tmp_path / "cache")
    back = load_kernelset(tmp_path / "cache")
    assert back.dataset_hash == ks.dataset_hash
    np.testing.assert_array_equal(back.bandwidths, ks.bandwidths)
    for a, b in zip(back.kernels, ks.kernels):
        np.testing.assert_array_equal(a, b)

    # same hash: loads without rebuilding (bit-identical)
    again = build_or_load_kernelset(seen, tmp_path / "cache")
    for a, b in zip(again.kernels, ks.kernels):
        np.testing.assert_array_equal(a, b)

    # different dataset: hash mismatch forces a rebuild
    other, _, _ = synth_dataset(SynthConfig(seed=4, samples_per_class=2, length_range=(16, 20)))
    rebuilt = build_or_load_kernelset(other, tmp_path / "cache")
    assert rebuilt.dataset_hash == other.hash() != ks.dataset_hash


def test_kernelset_grams_are_read_only_copies(tmp_path):
    """One KernelSet always holds the same values: built, loaded or cut out, its Grams cannot be written."""
    seen, _, _ = synth_dataset(SynthConfig(seed=3, samples_per_class=2, length_range=(16, 20)))
    built = build_kernelset(seen)
    save_kernelset(built, tmp_path / "cache")
    loaded = load_kernelset(tmp_path / "cache")
    cut = built.subset([0, 2, 3], "cut")
    for ks in (built, loaded, cut):
        assert isinstance(ks.kernels, tuple)
        for l in range(ks.dims):
            before = ks.kernels[l].copy()
            with pytest.raises(ValueError, match="read-only"):
                ks.kernels[l][0, 1] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                ks.kernels[l] += 1.0
            with pytest.raises(TypeError):
                ks.kernels[l] = before
            assert ks.kernels[l].tobytes() == before.tobytes()
    given = [np.eye(3), np.ones((3, 3))]
    ks = KernelSet(kernels=given, bandwidths=np.ones(2), repair_shift=np.zeros(2), dataset_hash="x")
    given[0][0, 1] = 7.0  # the set keeps its own copies
    assert ks.kernels[0][0, 1] == 0.0 and given[0].flags.writeable
    assert ks == ks and ks != KernelSet(kernels=given, bandwidths=np.ones(2), repair_shift=np.zeros(2), dataset_hash="x")


def test_pairwise_dtw_symmetric(rng):
    d = pairwise_dtw(_dataset([rng.normal(size=(2, rng.integers(3, 7))) for _ in range(4)]))
    assert d.shape == (2, 4, 4)
    np.testing.assert_array_equal(d, d.transpose(0, 2, 1))
    assert (np.diagonal(d, axis1=1, axis2=2) == 0).all()


def _reference_pairwise(series):
    n = len(series)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = dtw_loop(series[i], series[j])
    return d


def test_pairwise_and_cross_kernel_equal_per_pair_reference(rng):
    seqs = [rng.normal(size=(3, int(rng.integers(5, 30)))) for _ in range(7)]
    ds = _dataset(seqs)
    d = pairwise_dtw(ds)
    for l in range(3):
        assert _bits(d[l]) == _bits(_reference_pairwise([s[l] for s in seqs]))
    bandwidths = np.array([0.7, 3.0, 11.0])
    z = TimeSeries(id="z", values=rng.normal(size=(3, 12)))
    cross = _all_values(cross_kernel(ds, z, bandwidths), ds)
    for l in range(3):
        dists = np.array([dtw_loop(z.values[l], s[l]) for s in seqs])
        assert _bits(cross[l]) == _bits(np.exp(-dists / bandwidths[l]))


@pytest.mark.parametrize("step", [4, 13])
def test_pairwise_dtw_chunks_across_dimensions_equal_per_pair_reference(rng, monkeypatch, step):
    # 21 pairs per dimension, 63 in all: chunks of 4 or 13 pairs hold pairs of two dimensions
    seqs = [rng.normal(size=(3, int(rng.integers(5, 30)))) for _ in range(7)]
    rows, cols = max(s.shape[1] for s in seqs[:-1]), max(s.shape[1] for s in seqs[1:])
    monkeypatch.setattr("mkdmts.kernels._WAVEFRONT_ELEMENTS", step * (5 * rows + cols + 4))
    chunks = []
    wavefront = kernels._wavefront
    monkeypatch.setattr(kernels, "_wavefront", lambda q, *rest: chunks.append(q.shape[1]) or wavefront(q, *rest))
    d = pairwise_dtw(_dataset(seqs))
    # the fewest chunks of at most step pairs, split evenly: 15 of 4 and one of 3, or 3 of 13 and 2 of 12
    assert chunks == [len(c) for c in np.array_split(np.arange(63), -(-63 // step))]
    for l in range(3):
        assert _bits(d[l]) == _bits(_reference_pairwise([s[l] for s in seqs]))


@pytest.mark.parametrize("budget", [None, 100], ids=["default-budget", "pair-over-budget"])
def test_wavefront_working_set_stays_within_the_cap(monkeypatch, budget):
    # 4 x 6 seen sequences of 2 dims, lengths 60-90: 552 pairs, more than one chunk holds at the default
    seen, unseen, _ = synth_dataset(SynthConfig(seed=7, num_seen_classes=4, num_unseen_classes=2, dims=2,
                                                length_range=(60, 90), samples_per_class=6))
    if budget is not None:  # below one pair's working set: every chunk holds one pair
        monkeypatch.setattr("mkdmts.kernels._WAVEFRONT_ELEMENTS", budget)
    calls = []  # (rows, pairs, cols) of every wavefront built
    wavefront = kernels._wavefront

    def spy(q, e):
        calls.append((*q.shape, e.shape[0]))
        return wavefront(q, e)

    monkeypatch.setattr(kernels, "_wavefront", spy)
    d = pairwise_dtw(seen)
    sizes = [pairs for _, pairs, _ in calls]
    assert len(calls) > 1 and sum(sizes) == 552
    assert max(sizes) - min(sizes) <= 1
    for rows, pairs, cols in calls:
        assert pairs == 1 or (5 * rows + cols + 4) * pairs <= kernels._WAVEFRONT_ELEMENTS
    # the kept wavefront: describes of all 48 pairs keep one entry, and only while it fits one chunk
    calls.clear()
    for z in unseen.sequences:
        _all_values(cross_kernel(seen, z, np.full(2, 40.0)), seen)
    assert len(seen._wavefront) == (budget is None)
    for rows, pairs, cols in calls:
        assert pairs == 1 or (5 * rows + cols + 4) * pairs <= kernels._WAVEFRONT_ELEMENTS
    if budget is None:  # one build per query longer than every query before it
        longest = np.maximum.accumulate([z.length for z in unseen.sequences])
        assert len(calls) == 1 + np.count_nonzero(np.diff(longest))
    monkeypatch.setattr("mkdmts.kernels._WAVEFRONT_ELEMENTS", 1 << 30)  # one chunk
    assert _bits(pairwise_dtw(Dataset(seen.sequences))) == _bits(d)


@pytest.mark.parametrize("seen_classes", [4, 14], ids=["kept", "too-large-to-keep"])
def test_kept_wavefront_holds_at_most_half_a_megabyte(seen_classes):
    """A describe keeps one wavefront entry on its seen set, of at most 512 KiB as tracemalloc counts it
    (2 dims x 6 samples per class, lengths 60-90: 48 pairs are kept, 168 pairs are not), and its
    values equal those of a describe that keeps nothing."""
    seen, unseen, _ = synth_dataset(SynthConfig(seed=7, num_seen_classes=seen_classes, num_unseen_classes=2,
                                                dims=2, length_range=(60, 90), samples_per_class=6))
    z, bandwidths = max(unseen.sequences, key=lambda s: s.length), np.full(2, 40.0)
    expected = [np.exp(-np.array([dtw(z.dim(l), s.dim(l)) for s in seen.sequences]) / 40.0) for l in range(2)]
    _all_values(cross_kernel(Dataset(seen.sequences), z, bandwidths), seen)  # numpy's first-call state
    fresh = Dataset(seen.sequences)
    fresh.packed()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = _all_values(cross_kernel(fresh, z, bandwidths), fresh)
        kept = tracemalloc.get_traced_memory()[0] - before - got.nbytes
    finally:
        tracemalloc.stop()
    assert _bits(got) == _bits(expected)
    assert len(fresh._wavefront) == (seen_classes == 4)
    assert kept <= (kernels._KEPT_BYTES if seen_classes == 4 else 4096)
    _all_values(cross_kernel(fresh, z, bandwidths), fresh)
    assert len(fresh._wavefront) <= 1


def test_spectral_baseline_affinity_uses_per_pair_reference(rng, monkeypatch):
    from mkdmts import evalx

    _, unseen, _ = synth_dataset(SynthConfig(seed=5, samples_per_class=3, length_range=(8, 14)))
    calls = []

    def spy(data):
        d = pairwise_dtw(data)
        calls.append((data, d))
        return d

    monkeypatch.setattr(evalx, "pairwise_dtw", spy)
    evalx.spectral_baseline(unseen, np.ones(unseen.dims), num_clusters=2)
    [(data, d)] = calls
    assert data is unseen and d.shape == (unseen.dims, len(unseen), len(unseen))
    for l in range(unseen.dims):
        assert _bits(d[l]) == _bits(_reference_pairwise([s.dim(l) for s in unseen.sequences]))


_META_DAMAGE = {
    "f_zero": {"f": 0}, "f_negative": {"f": -1}, "bandwidths_null": {"bandwidths": None},
    "bandwidths_scalar": {"bandwidths": 40.0}, "bandwidths_short": {"bandwidths": [40.0]},
    "bandwidths_zero": {"bandwidths": [0.0, 40.0]}, "repair_shift_null": {"repair_shift": None},
    "repair_shift_long": {"repair_shift": [0.0, 0.0, 0.0]},
    # n and f that are not JSON integers, though int() reads them as counts of this 8 x 2 cache (f = true, with
    # one-entry lists, as 1 dimension)
    "f_float": {"f": 2.9}, "f_bool": {"f": True, "bandwidths": [1.0], "repair_shift": [10.0]},
    "n_string": {"n": "8"}, "n_float": {"n": 8.5},
}


@pytest.mark.parametrize("damage", ["delete", "truncate", "meta", "meta_not_object", "nan", "negative", "asymmetric",
                                    *_META_DAMAGE])
def test_damaged_cache_rebuilds(tmp_path, damage):
    seen, _, _ = synth_dataset(SynthConfig(seed=3, samples_per_class=2, length_range=(10, 14)))
    cache = tmp_path / "cache"
    ks = build_or_load_kernelset(seen, cache)
    victim = cache / "dim001.bin"
    if damage == "delete":
        victim.unlink()
    elif damage == "truncate":
        victim.write_bytes(victim.read_bytes()[:40])
    elif damage == "meta":
        meta = read_json(cache / "meta.json")
        del meta["f"]
        write_json(cache / "meta.json", meta)
    elif damage == "nan":
        damaged = ks.kernels[1].copy()
        damaged[0, 1] = np.nan
        write_matrix(victim, damaged)
    elif damage == "negative":
        write_matrix(victim, np.full_like(ks.kernels[1], -1.0))
    elif damage == "asymmetric":
        damaged = ks.kernels[1].copy()
        damaged[0, 1] += 1e-3
        write_matrix(victim, damaged)
    elif damage in _META_DAMAGE:
        write_json(cache / "meta.json", read_json(cache / "meta.json") | _META_DAMAGE[damage])
    else:
        write_json(cache / "meta.json", [read_json(cache / "meta.json")])
    with pytest.raises(DataError):
        load_kernelset(cache)
    rebuilt = build_or_load_kernelset(seen, cache)
    for a, b in zip(rebuilt.kernels, ks.kernels):
        assert _bits(a) == _bits(b)
    assert _bits(load_kernelset(cache).kernels[1]) == _bits(ks.kernels[1])


@pytest.mark.parametrize("next_run", ["new", "old"])
def test_interrupted_cache_rewrite_never_serves_stale_kernels(tmp_path, monkeypatch, next_run):
    # two same-shaped datasets: a half-rewritten cache would load without a shape error
    old, _, _ = synth_dataset(SynthConfig(seed=3, samples_per_class=2, length_range=(10, 14)))
    new, _, _ = synth_dataset(SynthConfig(seed=4, samples_per_class=2, length_range=(10, 14)))
    cache = tmp_path / "cache"
    build_or_load_kernelset(old, cache)
    written = []

    def fail_second(path, m):
        if written:
            raise OSError("disk full")
        written.append(path)
        write_matrix(path, m)

    with monkeypatch.context() as patch:
        patch.setattr("mkdmts.kernels.write_matrix", fail_second)
        with pytest.raises(OSError):
            build_or_load_kernelset(new, cache)
    wanted = new if next_run == "new" else old
    served = build_or_load_kernelset(wanted, cache)
    assert served.dataset_hash == wanted.hash()
    for a, b in zip(served.kernels, build_kernelset(wanted).kernels):
        assert _bits(a) == _bits(b)


def test_cache_serves_only_the_requested_bandwidth(tmp_path):
    seen, _, _ = synth_dataset(SynthConfig(seed=3, samples_per_class=2, length_range=(10, 14)))
    cache = tmp_path / "cache"
    assert build_or_load_kernelset(seen, cache, 5.0).bandwidths.tolist() == [5.0, 5.0]
    assert read_json(cache / "meta.json")["bandwidth_request"] == 5.0
    assert build_or_load_kernelset(seen, cache, 50.0).bandwidths.tolist() == [50.0, 50.0]
    median = build_kernelset(seen)
    served = build_or_load_kernelset(seen, cache, "median")
    assert served.bandwidths.tolist() == median.bandwidths.tolist()
    assert read_json(cache / "meta.json")["bandwidth_request"] == "median"
    for a, b in zip(served.kernels, median.kernels):
        assert _bits(a) == _bits(b)


def test_cache_without_bandwidth_record_is_rebuilt(tmp_path, monkeypatch):
    seen, _, _ = synth_dataset(SynthConfig(seed=3, samples_per_class=2, length_range=(10, 14)))
    cache = tmp_path / "cache"
    build_or_load_kernelset(seen, cache, 5.0)
    meta = read_json(cache / "meta.json")
    del meta["bandwidth_request"]
    write_json(cache / "meta.json", meta)
    with pytest.raises(DataError, match="malformed kernel cache metadata"):
        load_kernelset(cache)
    builds = []

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build_kernelset(*args, **kwargs)

    monkeypatch.setattr("mkdmts.kernels.build_kernelset", counted_build)
    assert build_or_load_kernelset(seen, cache, 5.0).bandwidth_request == 5.0
    assert len(builds) == 1 and read_json(cache / "meta.json")["bandwidth_request"] == 5.0
    build_or_load_kernelset(seen, cache, 5.0)
    assert len(builds) == 1


@pytest.mark.parametrize("value", [True, False, np.True_])
def test_check_bandwidth_rejects_bools(value):
    from mkdmts.kernels import check_bandwidth

    with pytest.raises(DataError, match="bandwidth must be"):
        check_bandwidth(value)
    assert check_bandwidth(1) == 1.0 and check_bandwidth("median") == "median"


@pytest.mark.parametrize("request_value", ["wide", -1.0, True, [5.0]], ids=["string", "negative", "bool", "list"])
def test_cache_with_a_bad_bandwidth_request_is_malformed_metadata(tmp_path, request_value):
    seen, _, _ = synth_dataset(SynthConfig(seed=3, samples_per_class=2, length_range=(10, 14)))
    cache = tmp_path / "cache"
    build_or_load_kernelset(seen, cache, 5.0)
    write_json(cache / "meta.json", read_json(cache / "meta.json") | {"bandwidth_request": request_value})
    with pytest.raises(DataError, match="malformed kernel cache metadata .*bandwidth must be 'median' or positive"):
        load_kernelset(cache)
