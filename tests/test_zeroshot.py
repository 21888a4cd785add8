import ast
import dataclasses
import hashlib
import inspect
import re
import sys
import threading

import numpy as np
import pytest

from conftest import (
    explicit_atoms,
    explicit_data,
    make_explicit_kernelset,
    random_dictionary,
)
from oracles import ExplicitCrossKernel, explicit_unseen

from mkdmts.errors import DataError
from mkdmts import ioutil, kernels, mkd, mtsdata, nqp, zeroshot
from mkdmts.evalx import describe
from mkdmts.kernels import build_kernelset, cross_kernel, dtw
from mkdmts.mkd import Dictionary, TrainConfig, train
from mkdmts.mtsdata import SynthConfig, TimeSeries, synth_dataset
from mkdmts.zeroshot import (
    encode,
    encoding_matrix,
    partial_error,
    reconstruction_report,
)


def test_encode_rejects_hash_mismatch(rng):
    ks, vs = make_explicit_kernelset(rng, 5, 2)
    d = random_dictionary(rng, ks, 3)
    ck, _ = explicit_unseen(rng, vs, dataset_hash="other")
    with pytest.raises(DataError, match="different seen datasets"):
        encode(d, ks, ck, 2)


@pytest.fixture(scope="module")
def seed_7_and_8():
    """A model trained on synth seed 7 (4 x 6 seen, 2 dims, bandwidth 40), its kernel set, unseen sequence 0's
    cross kernel and code, and the kernel set of synth seed 8 of the same shape."""
    shape = dict(num_seen_classes=4, num_unseen_classes=2, dims=2, samples_per_class=6)
    seen, unseen, _ = synth_dataset(SynthConfig(**shape, seed=7))
    ks = build_kernelset(seen, bandwidth=40.0)
    d = train(seen, ks, TrainConfig(k=8, t_x=2, t_a=4, t_beta=1, seed=7)).dictionary
    ck = cross_kernel(seen, unseen.sequences[0], ks.bandwidths)
    other = build_kernelset(synth_dataset(SynthConfig(**shape, seed=8))[0], bandwidth=40.0)
    return seen, unseen, d, ks, ck, encode(d, ks, ck, 2), other


@pytest.mark.parametrize("call", ["encode", "partial_error", "reconstruction_report"])
def test_a_kernel_set_of_another_seen_set_fails_before_the_memo(seed_7_and_8, call):
    """Same shape, so only the provenance rule tells: a describe against it gave plausible codes and errors."""
    seen, _, d, _, ck, x, other = seed_7_and_8
    run = {
        "encode": lambda: encode(d, other, ck, 2),
        "partial_error": lambda: partial_error(d, other, ck, x, [0, 1]),
        "reconstruction_report": lambda: reconstruction_report(d, other, ck, x, seen.labels()),
    }[call]
    d._describe.clear()
    with pytest.raises(DataError, match="^model and kernel cache were built on different datasets$"):
        run()
    assert d._describe == {}


@pytest.mark.parametrize("t_x", [2.5, True, 0, 2.0], ids=["float", "bool", "zero", "integral_float"])
def test_encode_and_describe_check_t_x(seed_7_and_8, t_x):
    seen, unseen, d, ks, ck, _, _ = seed_7_and_8
    d._describe.clear()
    message = "^t_x must be at least 1$" if t_x == 0 else f"^t_x must be an integer, got {t_x!r}$"
    with pytest.raises(ValueError, match=message):
        encode(d, ks, ck, t_x)
    with pytest.raises(ValueError, match=message):
        describe(seen, ks, d, unseen, t_x, 0.1)
    if t_x >= 1:  # a solver kept for the equal integer is not reused
        encode(d, ks, ck, int(t_x))
        with pytest.raises(ValueError, match=message):
            encode(d, ks, ck, t_x)


def test_encode_residual_matches_explicit_embedding(rng):
    for _ in range(25):
        n, f, k = int(rng.integers(4, 10)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        ck, zs = explicit_unseen(rng, vs)
        x = encode(d, ks, ck, t_x=2)
        atoms = explicit_atoms(d, vs)
        z = np.concatenate(zs)
        explicit_resid = np.linalg.norm(z - atoms @ x) ** 2
        err = partial_error(d, ks, ck, x, range(f))
        assert err * f == pytest.approx(explicit_resid, abs=1e-8)


def test_partial_error_matches_explicit_embedding_per_subset(rng):
    for _ in range(25):
        n, f, k = int(rng.integers(4, 10)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        ck, zs = explicit_unseen(rng, vs)
        x = rng.uniform(0, 1, size=k)
        subset = sorted(rng.choice(f, size=int(rng.integers(1, f + 1)), replace=False))
        atoms = explicit_atoms(d, vs)
        # explicit projector onto the selected dimension blocks
        offsets = np.cumsum([0] + [v.shape[0] for v in vs])
        mask = np.zeros(offsets[-1], dtype=bool)
        for l in subset:
            mask[offsets[l]:offsets[l + 1]] = True
        z = np.concatenate(zs)
        num = np.linalg.norm((z - atoms @ x)[mask]) ** 2
        den = np.linalg.norm(z[mask]) ** 2
        assert partial_error(d, ks, ck, x, subset) == pytest.approx(num / den, abs=1e-8)


def test_partial_error_zero_code_is_one(rng):
    ks, vs = make_explicit_kernelset(rng, 5, 3)
    d = random_dictionary(rng, ks, 3)
    ck, _ = explicit_unseen(rng, vs)
    for subset in ([0], [1, 2], [0, 1, 2]):
        assert partial_error(d, ks, ck, np.zeros(3), subset) == pytest.approx(1.0, abs=1e-12)


def test_partial_error_rejects_empty_subset(rng):
    ks, vs = make_explicit_kernelset(rng, 5, 2)
    d = random_dictionary(rng, ks, 2)
    ck, _ = explicit_unseen(rng, vs)
    with pytest.raises(ValueError, match="non-empty"):
        partial_error(d, ks, ck, np.zeros(2), [])


@pytest.mark.parametrize("dims", [[0.9], [True], [2.5], [0, 1.0]])
def test_partial_error_rejects_non_integer_dimensions(rng, dims):
    ks, vs = make_explicit_kernelset(rng, 5, 3)
    d = random_dictionary(rng, ks, 2)
    ck, _ = explicit_unseen(rng, vs)
    with pytest.raises(ValueError, match="dimension subset must hold integers in 0..2"):
        partial_error(d, ks, ck, np.zeros(2), dims)


def test_a_code_of_the_wrong_length_fails_before_any_residual(rng, monkeypatch):
    ks, vs = make_explicit_kernelset(rng, 5, 2)
    d = random_dictionary(rng, ks, 3)
    ck, _ = explicit_unseen(rng, vs)

    def no_residuals(*args):
        raise AssertionError("residuals of a code of the wrong length")

    monkeypatch.setattr(zeroshot, "residuals", no_residuals)
    for x in (np.array([0.5]), np.zeros(4), np.zeros((3, 1))):
        expected = re.escape(f"code has shape {x.shape}, expected (3,)")
        with pytest.raises(ValueError, match=expected):
            partial_error(d, ks, ck, x, [0, 1])
        with pytest.raises(ValueError, match=expected):
            reconstruction_report(d, ks, ck, x, np.zeros(5, dtype=int))


def test_encoding_matrix_matches_triple_sum(rng):
    ks, _ = make_explicit_kernelset(rng, 6, 3)
    d = random_dictionary(rng, ks, 4)
    x = rng.uniform(0, 1, size=4)
    r = encoding_matrix(d, x, "z").values
    expected = np.zeros((6, 3))
    for j in range(6):
        for l in range(3):
            expected[j, l] = sum(
                d.dim_weights[l, t] * d.sample_weights[j, t] * x[t] for t in range(4)
            )
    np.testing.assert_allclose(r, expected, atol=1e-12)
    assert (r >= 0).all()


def test_encoding_matrix_linearity_and_zero(rng):
    ks, _ = make_explicit_kernelset(rng, 5, 2)
    d = random_dictionary(rng, ks, 3)
    x1, x2 = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
    r1 = encoding_matrix(d, x1).values
    r2 = encoding_matrix(d, x2).values
    r12 = encoding_matrix(d, x1 + x2).values
    np.testing.assert_allclose(r12, r1 + r2, atol=1e-12)
    assert not encoding_matrix(d, np.zeros(3)).values.any()


def test_encoding_matrix_single_atom_structure():
    # one atom on sample j with uniform dimension weight w and code s:
    # row j equals s * w, all other rows vanish
    a = np.zeros((4, 1))
    a[2, 0] = 1.0
    b = np.full((3, 1), 0.6)
    d = Dictionary(sample_weights=a, dim_weights=b, dataset_hash="x")
    r = encoding_matrix(d, np.array([2.0])).values
    np.testing.assert_allclose(r[2], 1.2)
    assert not r[[0, 1, 3]].any()


def _trained_synth(noise, seed=7):
    cfg = SynthConfig(
        num_seen_classes=3, num_unseen_classes=2, dims=2,
        length_range=(20, 30), samples_per_class=5, noise_std=noise, seed=seed,
    )
    seen, unseen, prov = synth_dataset(cfg)
    ks = build_kernelset(seen, bandwidth=15.0)
    result = train(seen, ks, TrainConfig(k=6, t_x=2, t_a=2, t_beta=1, max_iters=10, tol=1e-7, seed=seed))
    return seen, unseen, prov, ks, result


def test_report_zero_noise_attribution_matches_provenance():
    seen, unseen, prov, ks, result = _trained_synth(noise=0.0)
    labels = seen.labels()
    for z in unseen.sequences:
        ck = cross_kernel(seen, z, ks.bandwidths)
        x = encode(result.dictionary, ks, ck, 2)
        rep = reconstruction_report(result.dictionary, ks, ck, x, labels)
        assert rep.dra == 1.0
        sources = prov[str(z.label)]["sources"]
        for dim, attr in enumerate(rep.attribution):
            assert attr == sources[str(dim)]


def test_report_dra_counts_threshold_passes(rng):
    ks, vs = make_explicit_kernelset(rng, 5, 4)
    d = random_dictionary(rng, ks, 3)
    ck, _ = explicit_unseen(rng, vs)
    labels = np.array([0, 0, 1, 1, 2])
    rep = reconstruction_report(d, ks, ck, np.zeros(3), labels, threshold=0.5)
    # zero code: every dimension at error 1.0, nothing attributed
    assert rep.dra == 0.0
    assert all(a is None for a in rep.attribution)
    rep2 = reconstruction_report(d, ks, ck, np.zeros(3), labels, threshold=1.0)
    assert rep2.dra == 1.0


@pytest.mark.parametrize("threshold", [np.nan, -1.0, np.inf])
def test_report_rejects_bad_threshold(rng, threshold):
    ks, vs = make_explicit_kernelset(rng, 5, 4)
    d = random_dictionary(rng, ks, 3)
    ck, _ = explicit_unseen(rng, vs)
    with pytest.raises(DataError, match="threshold"):
        reconstruction_report(d, ks, ck, np.zeros(3), np.array([0, 0, 1, 1, 2]), threshold=threshold)


def test_dra_monotone_in_threshold(rng):
    seen, unseen, prov, ks, result = _trained_synth(noise=0.1)
    labels = seen.labels()
    z = unseen.sequences[0]
    ck = cross_kernel(seen, z, ks.bandwidths)
    x = encode(result.dictionary, ks, ck, 2)
    dras = [
        reconstruction_report(result.dictionary, ks, ck, x, labels, threshold=t).dra
        for t in (0.02, 0.05, 0.1, 0.3, 1.0)
    ]
    assert all(b >= a for a, b in zip(dras, dras[1:]))


def test_full_subset_error_equals_per_sequence_loss_term(rng):
    # scoring a training sample over all dimensions reproduces its share
    # of the training loss, divided by the sample's self-kernel mass
    from mkdmts.mkd import compute_loss, update_codes

    ks, vs = make_explicit_kernelset(rng, 6, 3)
    d = random_dictionary(rng, ks, 4)
    codes = update_codes(d, ks, t_x=2)
    n = 2
    ck = ExplicitCrossKernel(
        cross=[k[:, n].copy() for k in ks.kernels],
        self_k=np.array([k[n, n] for k in ks.kernels]),
        dataset_hash=ks.dataset_hash,
    )
    x = codes[:, n]
    only_n = np.zeros_like(codes)
    only_n[:, n] = x
    term = compute_loss(d, ks, only_n) - (sum(np.trace(k) for k in ks.kernels) - float(ck.self_k.sum()))
    err = partial_error(d, ks, ck, x, range(3))
    assert err == pytest.approx(term / float(ck.self_k.sum()), abs=1e-10)


@pytest.mark.parametrize("value", [True, False, np.False_])
def test_check_threshold_rejects_bools(value):
    from mkdmts.zeroshot import check_threshold

    with pytest.raises(DataError, match="threshold must be"):
        check_threshold(value)
    assert check_threshold(0) == 0.0


def _support(d):
    """Per dimension, the training samples that some atom using the dimension draws on."""
    a, b = d.sample_weights, d.dim_weights
    return [(a[:, b[l] > 0] > 0).any(axis=1) for l in range(d.dims)]


def _count_dtw_pairs(monkeypatch):
    """The pair count of every DTW run a cross kernel makes (``kernels._dtw_columns``, one list entry per call)."""
    calls = []
    dtw_columns = kernels._dtw_columns

    def counting(queries, query_lengths, qi, *references):
        calls.append(len(qi))
        return dtw_columns(queries, query_lengths, qi, *references)

    monkeypatch.setattr(kernels, "_dtw_columns", counting)
    return calls


def test_describe_through_the_lazy_kernel_equals_the_full_kernel():
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    d, labels = result.dictionary, seen.labels()
    assert sum(s.sum() for s in _support(d)) < d.dims * d.n  # some values go unread
    for z in unseen.sequences:
        full = ExplicitCrossKernel(
            cross=[np.exp(-np.array([dtw(z.dim(l), s.dim(l)) for s in seen.sequences]) / ks.bandwidths[l])
                   for l in range(seen.dims)],
            self_k=np.ones(seen.dims),
            dataset_hash=seen.hash(),
        )
        lazy = cross_kernel(seen, z, ks.bandwidths)
        x = encode(d, ks, lazy, 2)
        assert x.tobytes() == encode(d, ks, full, 2).tobytes()
        rep, ref = (reconstruction_report(d, ks, ck, x, labels) for ck in (lazy, full))
        assert rep.per_dim_error.tobytes() == ref.per_dim_error.tobytes()
        assert (rep.dra, rep.attribution) == (ref.dra, ref.attribution)
        assert partial_error(d, ks, lazy, x, [0]) == partial_error(d, ks, full, x, [0])
        # asking for every value computes the remaining ones, equal to the explicit ones
        assert lazy.values(np.ones((d.dims, d.n), dtype=bool)).tobytes() == full.cross.tobytes()


def test_describe_runs_dtw_once_on_the_support_only(monkeypatch):
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    d, labels = result.dictionary, seen.labels()
    expected = sum(int(s.sum()) for s in _support(d))
    calls = _count_dtw_pairs(monkeypatch)
    for z in unseen.sequences:
        calls.clear()
        ck = cross_kernel(seen, z, ks.bandwidths)
        x = encode(d, ks, ck, 2)
        encoding_matrix(d, x, z.id)
        reconstruction_report(d, ks, ck, x, labels)
        assert calls == [expected]  # one DTW run; the report reuses the encode's values
        ck.values(np.ones((d.dims, d.n), dtype=bool))
        assert calls == [expected, d.dims * d.n - expected]


@pytest.mark.parametrize("where", ["query", "seen"])
def test_non_finite_input_fails_in_cross_kernel(monkeypatch, where):
    """No sequence reaches ``cross_kernel`` non-finite, so it scans none.

    A sequence is finite when it is built, and then neither an in-place
    write into its values nor replacing a sequence of a dataset goes
    through; all of it runs no DTW.
    """
    seen, unseen, _, ks, _ = _trained_synth(noise=0.1)
    z = unseen.sequences[0]
    target = z if where == "query" else seen.sequences[3]
    before = target.values.copy()
    calls = _count_dtw_pairs(monkeypatch)
    for l in range(seen.dims):  # whether or not an atom uses the dimension
        with pytest.raises(ValueError, match="read-only"):
            target.values[l, 5] = np.nan
        bad = before.copy()
        bad[l, 5] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            TimeSeries(id="bad", values=bad, label=0)
    fresh = TimeSeries(id="fresh", values=before, label=0)
    before[0, 0] = np.nan  # the sequence keeps its own copy
    assert np.isfinite(fresh.values).all()
    if where == "seen":
        with pytest.raises(TypeError):
            seen.sequences[3] = fresh
        with pytest.raises(dataclasses.FrozenInstanceError):
            seen.sequences = seen.sequences[:3] + (fresh,) + seen.sequences[4:]
    assert calls == []
    assert np.isfinite(target.values).all() and seen.sequences[3].id != "fresh"


def test_a_pass_of_describes_computes_no_dataset_hash(monkeypatch):
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    # build_kernelset and train hashed the seen set once; every cross kernel reuses that hash
    sha256, hashes = hashlib.sha256, []

    def counting(*args, **kwargs):
        hashes.append(args)
        return sha256(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    described = describe(seen, ks, result.dictionary, unseen, 2, 0.1)
    assert [row.id for row in described] == unseen.ids()
    assert hashes == []


def _described(d, ks, seen, z, labels, fresh):
    """Every output byte of one describe, optionally from an empty describe state."""
    if fresh:
        d._describe.clear()
    ck = cross_kernel(seen, z, ks.bandwidths)
    x = encode(d, ks, ck, 2)
    rep = reconstruction_report(d, ks, ck, x, labels)
    r = encoding_matrix(d, x, z.id).values
    return x.tobytes(), r.tobytes(), rep.per_dim_error.tobytes(), rep.dra, rep.attribution


def test_describes_equal_describes_from_a_fresh_memo(monkeypatch):
    """A pass of describes builds the atom Gram once, and every output byte equals a describe from an
    empty describe state, whatever the order of the queries."""
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    d, labels, n = result.dictionary, seen.labels(), len(unseen)
    fresh = [_described(d, ks, seen, z, labels, fresh=True) for z in unseen.sequences]
    assert any(attr is not None for row in fresh for attr in row[4])  # the class partition is read
    builds = []
    atom_gram = mkd.atom_gram

    def counting(*args):
        builds.append(args)
        return atom_gram(*args)

    monkeypatch.setattr(mkd, "atom_gram", counting)
    for order in (range(n), range(n - 1, -1, -1)):
        d._describe.clear()
        builds.clear()
        for i in order:
            assert _described(d, ks, seen, unseen.sequences[i], labels, fresh=False) == fresh[i]
        assert len(builds) == 1


def test_a_pass_of_describes_partitions_the_labels_once(monkeypatch):
    """A pass of describes over one dictionary builds the class partition of the seen labels once; labels of
    the same shape and dtype but other content rebuild it, and every output byte equals a describe from an
    empty describe state."""
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    d, labels = result.dictionary, seen.labels()
    relabeled = (labels + 1) % 3
    assert relabeled.dtype == labels.dtype and relabeled.shape == labels.shape
    fresh = [[_described(d, ks, seen, z, lab, fresh=True) for z in unseen.sequences] for lab in (labels, relabeled)]
    assert [row[4] for row in fresh[0]] != [row[4] for row in fresh[1]]  # the partition decides attributions
    calls = []
    class_rows = zeroshot.class_rows
    monkeypatch.setattr(zeroshot, "class_rows", lambda lab: calls.append(lab) or class_rows(lab))
    d._describe.clear()
    for lab, expected, built in ((labels, fresh[0], 1), (relabeled, fresh[1], 2)):
        for z, row in zip(unseen.sequences, expected):
            assert _described(d, ks, seen, z, lab, fresh=False) == row
        assert len(calls) == built


def test_two_dictionaries_described_in_turn_keep_their_own_state(monkeypatch):
    """Describes that alternate two dictionaries build one code solver each, and every output byte equals a
    describe from an empty describe state.  A copy made by ``dataclasses.replace`` starts empty."""
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    other = train(seen, ks, TrainConfig(k=4, t_x=2, t_a=3, t_beta=1, max_iters=10, tol=1e-7, seed=8)).dictionary
    models, labels = (result.dictionary, other), seen.labels()
    fresh = [[_described(d, ks, seen, z, labels, fresh=True) for z in unseen.sequences] for d in models]
    built = []
    code_solver = zeroshot.code_solver

    def counting(d, *args):
        built.append(d)
        return code_solver(d, *args)

    monkeypatch.setattr(zeroshot, "code_solver", counting)
    for d in models:
        d._describe.clear()
    for i, z in enumerate(unseen.sequences):
        for d, expected in zip(models, fresh):
            assert _described(d, ks, seen, z, labels, fresh=False) == expected[i]
    assert len(built) == 2 and all(b is d for b, d in zip(built, models))
    assert dataclasses.replace(other)._describe == {} != other._describe


def _wavefronts_built(monkeypatch):
    """The (rows, pairs) of every DTW wavefront built (``kernels._wavefront``), one list entry per build."""
    built, wavefront = [], kernels._wavefront
    monkeypatch.setattr(kernels, "_wavefront", lambda q, e: built.append(q.shape) or wavefront(q, e))
    return built


def test_describes_reuse_the_kept_wavefront_and_equal_describes_on_a_fresh_seen_set(monkeypatch):
    """Describes against one seen set keep one wavefront on it: in order of rising query length each longer
    query grows it, the shorter queries after the longest reuse it, and two dictionaries described in turn,
    whose reference columns differ, rebuild it at each switch.  Every output byte equals a describe against
    a fresh seen set of the same sequences, which keeps nothing yet."""
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    other = train(seen, ks, TrainConfig(k=4, t_x=2, t_a=3, t_beta=1, max_iters=10, tol=1e-7, seed=8)).dictionary
    models, labels = (result.dictionary, other), seen.labels()
    assert np.array(_support(models[0])).tobytes() != np.array(_support(models[1])).tobytes()  # other seen columns
    fresh = [[_described(d, ks, mtsdata.Dataset(seen.sequences), z, labels, fresh=True) for z in unseen.sequences]
             for d in models]
    lengths = [z.length for z in unseen.sequences]
    rising = sorted(range(len(unseen)), key=lengths.__getitem__)
    built = _wavefronts_built(monkeypatch)
    for i in rising + rising[::-1]:
        assert _described(result.dictionary, ks, seen, unseen.sequences[i], labels, fresh=False) == fresh[0][i]
    assert [rows for rows, _ in built] == sorted(set(lengths))
    built.clear()
    for i in rising[::-1]:
        for d, expected in zip(models, fresh):
            assert _described(d, ks, seen, unseen.sequences[i], labels, fresh=False) == expected[i]
    assert len(built) == 2 * len(unseen) - 1 and len(seen._wavefront) == 1


def test_concurrent_describes_against_one_seen_set_equal_serial_describes(monkeypatch):
    """Four threads describing different queries against one seen set give the bytes of serial describes.  A
    describe checks the kept wavefront out of its slot while it sweeps: thread 0 holds it in its first sweep
    until thread 1 has described once, which so builds its own, and then all run on, switching every
    microsecond.  The slot keeps one entry at most."""
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    d, labels = result.dictionary, seen.labels()
    serial = [_described(d, ks, seen, z, labels, fresh=False) for z in unseen.sequences]
    built = _wavefronts_built(monkeypatch)
    workers = 4
    got, errors, holding, described = [[] for _ in range(workers)], [], threading.Event(), threading.Event()
    sweep = kernels._sweep

    def sweep_after_thread_1(*args):
        if threading.current_thread() is threads[0] and not holding.is_set():
            holding.set()
            described.wait(60)
        return sweep(*args)

    def describe_every_fourth(t):
        try:
            if t == 1:
                holding.wait(60)
            for _ in range(5):
                for z in unseen.sequences[t::workers]:
                    got[t].append(_described(d, ks, seen, z, labels, fresh=False))
                    if t == 1:
                        described.set()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    monkeypatch.setattr(kernels, "_sweep", sweep_after_thread_1)
    threads = [threading.Thread(target=describe_every_fourth, args=(t,)) for t in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and described.is_set()
    for t in range(workers):
        assert got[t] == serial[t::workers] * 5
    assert built and len(seen._wavefront) == 1


def test_codes_follow_in_place_weight_updates_and_the_kernel_set(rng, monkeypatch):
    """An in-place update of A or B, as training makes, and another kernel set each replace the dictionary's
    describe state, need mask and code solver, once; the codes, at this t_x and another, equal those from an
    empty state."""
    ks, vs = make_explicit_kernelset(rng, 8, 3)
    other, _ = make_explicit_kernelset(rng, 8, 3)
    d = random_dictionary(rng, ks, 5, t_a=3, t_beta=2)
    cks = [explicit_unseen(rng, vs)[0] for _ in range(16)]
    grams = []

    def solver(d, kset, t_x):
        grams.append(mkd.atom_gram(d, kset).tobytes())
        return mkd.code_solver(d, kset, t_x)

    monkeypatch.setattr(zeroshot, "code_solver", solver)

    def update_a():
        d.sample_weights[tuple(np.argwhere(d.sample_weights > 0)[0])] *= 1.5

    def update_b():
        d.dim_weights[tuple(np.argwhere(d.dim_weights > 0)[-1])] *= 0.5

    def codes(kset, t_x=2):
        return b"".join(encode(d, kset, ck, t_x).tobytes() for ck in cks)

    previous = (codes(ks), grams[-1], d._describe)
    for kset, update in ((ks, update_a), (ks, update_b), (other, None), (ks, update_a), (ks, update_b)):
        if update is not None:
            update()
        grams.clear()
        warm = [codes(kset) for _ in range(2)]
        entry = d._describe
        assert grams == [mkd.atom_gram(d, kset).tobytes()] and entry is not previous[2]
        assert (entry["need"] == ((d.dim_weights > 0) @ (d.sample_weights > 0).T)).all()
        d._describe.clear()
        assert warm == [codes(kset)] * 2
        assert warm[0] != previous[0] and grams[0] != previous[1]
        previous = (warm[0], grams[0], d._describe)
    fewer = codes(ks, 1)  # the describe state held the solver of t_x 2
    d._describe.clear()
    assert fewer == codes(ks, 1) != codes(ks, 2)


def test_need_mask_follows_in_place_weight_updates(monkeypatch):
    """Training updates A and B in place; a describe after either reads exactly the new dictionary's support."""
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    d, labels, z = result.dictionary, seen.labels(), unseen.sequences[0]
    calls = _count_dtw_pairs(monkeypatch)

    def grow_a():  # dimension l now reads a sample that no atom using it drew on
        l, t = np.argwhere(d.dim_weights > 0)[0]
        d.sample_weights[int(np.flatnonzero(~_support(d)[l])[0]), t] = 0.01

    def grow_b():  # an atom starts using a dimension that does not read all of its samples yet
        for l, t in np.argwhere(d.dim_weights == 0):
            if not _support(d)[l][d.sample_weights[:, t] > 0].all():
                d.dim_weights[l, t] = 0.01
                return

    for grow in (grow_a, grow_b):
        _described(d, ks, seen, z, labels, fresh=False)
        before = sum(int(s.sum()) for s in _support(d))
        grow()
        after = sum(int(s.sum()) for s in _support(d))
        assert after > before
        calls.clear()
        described = _described(d, ks, seen, z, labels, fresh=False)
        assert calls == [after]
        assert described == _described(d, ks, seen, z, labels, fresh=True)


def test_need_mask_is_kept_by_kernel_set_and_content(rng):
    """Two dictionaries whose weights share their bytes but not their shapes, each coded against its own
    kernel set, have their own need masks, even when the second starts from the first one's describe state."""
    ks1, vs1 = make_explicit_kernelset(rng, 4, 2)
    ks2, vs2 = make_explicit_kernelset(rng, 2, 1)
    d1 = random_dictionary(rng, ks1, 2, t_a=2, t_beta=2)
    d2 = Dictionary(d1.sample_weights.reshape(2, 4), d1.dim_weights.reshape(1, 4), ks2.dataset_hash)
    ck1, ck2 = explicit_unseen(rng, vs1)[0], explicit_unseen(rng, vs2)[0]
    encode(d1, ks1, ck1, 2)
    d2._describe = d1._describe  # only the key can tell the two apart
    shared = encode(d2, ks2, ck2, 2).tobytes()
    d2._describe = {}
    assert encode(d2, ks2, ck2, 2).tobytes() == shared


def test_a_kernel_set_of_another_shape_fails_before_the_memo(rng):
    """A dictionary whose sample or dimension count differs from the kernel set's is a DataError, and leaves
    its describe state as it was, so the kernel set and the weight bytes fix A's and B's shapes."""
    ks, vs = make_explicit_kernelset(rng, 4, 2)
    d = random_dictionary(rng, ks, 2, t_a=2, t_beta=2)
    ck = explicit_unseen(rng, vs)[0]
    flat = ExplicitCrossKernel(ck.cross.reshape(1, 8), np.ones(1), ks.dataset_hash)
    reshaped = Dictionary(d.sample_weights.reshape(2, 4), d.dim_weights.reshape(1, 4), ks.dataset_hash)
    with pytest.raises(DataError, match=r"kernel set of 2 dimensions x 4 samples does not match the dictionary's 1 x 2"):
        encode(reshaped, ks, flat, 2)
    assert reshaped._describe == {}


@pytest.mark.parametrize("call", ["encode", "partial_error", "reconstruction_report"])
def test_a_cross_kernel_of_another_dimension_count_is_a_data_error(rng, call):
    ks, vs = make_explicit_kernelset(rng, 6, 3)
    d = random_dictionary(rng, ks, 3)
    ck = explicit_unseen(rng, vs)[0]
    x = encode(d, ks, ck, 2)
    run = {
        "encode": lambda other: encode(d, ks, other, 2),
        "partial_error": lambda other: partial_error(d, ks, other, x, range(d.dims)),
        "reconstruction_report": lambda other: reconstruction_report(d, ks, other, x, np.arange(d.n)),
    }[call]
    for dims in (2, 4):  # fewer dimensions than the dictionary, and more
        other = ExplicitCrossKernel(np.resize(ck.cross, (dims, d.n)), np.ones(dims), ck.dataset_hash)
        with pytest.raises(DataError, match="^cross-kernel dimension count does not match the dictionary$"):
            run(other)


@pytest.mark.parametrize("relabel", [lambda y: y * 0.1, lambda y: np.array([f"class {c}" for c in y])],
                         ids=["float", "string"])
def test_report_takes_integer_labels_only(seed_7_and_8, relabel):
    """Class ids are integers: labels scaled by 0.1 would be attributed by truncation, as [0, 0] where the
    classes give [3, 1], and string labels cannot be class ids at all."""
    seen, _, d, ks, ck, x, _ = seed_7_and_8
    assert reconstruction_report(d, ks, ck, x, seen.labels()).attribution == [3, 1]
    with pytest.raises(DataError, match="need one integer label per training sample"):
        reconstruction_report(d, ks, ck, x, relabel(seen.labels()))


def test_report_follows_the_label_vector():
    seen, unseen, _, ks, result = _trained_synth(noise=0.1)
    d, z = result.dictionary, unseen.sequences[0]
    ck = cross_kernel(seen, z, ks.bandwidths)
    x = encode(d, ks, ck, 2)
    cases = []
    for labels in (seen.labels(), 10 - seen.labels()):  # the same partition, its classes in the reverse order
        cases.append((labels, reconstruction_report(d, ks, ck, x, labels).attribution))
    assert cases[0][1] != cases[1][1]
    for labels, expected in cases + cases:
        assert reconstruction_report(d, ks, ck, x, labels).attribution == expected


def test_attribution_ties_go_to_the_lowest_class(rng):
    ks, vs = make_explicit_kernelset(rng, 4, 1)
    d = Dictionary(np.array([[1.0], [0.0], [1.0], [0.0]]), np.ones((1, 1)), ks.dataset_hash)
    ck, _ = explicit_unseen(rng, vs)
    # classes 5 and 3 each carry one of the atom's two equal samples; 5 comes first in the labels
    report = reconstruction_report(d, ks, ck, np.array([0.5]), np.array([5, 5, 3, 3]), threshold=1e6)
    assert report.attribution == [3]


def test_training_never_reads_the_describe_memo(monkeypatch):
    """Training builds its own code solvers: with the describe state unreadable it gives the same bytes, and
    leaves the trained dictionary's describe state empty."""
    seen, _, _, ks, result = _trained_synth(noise=0.1)

    def fail(*args):
        raise AssertionError("training read the describe state")

    monkeypatch.setattr(zeroshot, "_dictionary_side", fail)
    again = train(seen, ks, TrainConfig(k=6, t_x=2, t_a=2, t_beta=1, max_iters=10, tol=1e-7, seed=7))
    d = again.dictionary
    assert (d.sample_weights.tobytes(), d.dim_weights.tobytes(), again.codes.tobytes()) == (
        result.dictionary.sample_weights.tobytes(), result.dictionary.dim_weights.tobytes(), result.codes.tobytes())
    assert d._describe == {}


def test_no_stage_module_binds_a_module_level_container():
    """nqp, mkd, ioutil, kernels, mtsdata and zeroshot bind no module-level dict, list or set.  A seen set's
    packed block and kept DTW wavefront live on its ``Dataset``, and a describe's dictionary-side terms on the
    ``Dictionary``, freed with them."""

    def containers(module):
        literals = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        names = []
        for node in ast.parse(inspect.getsource(module)).body:
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                    isinstance(value, literals)
                    or isinstance(value, ast.Call) and ast.unparse(value.func) in ("dict", "list", "set")):
                names += [ast.unparse(t) for t in getattr(node, "targets", [node.target])]
        return names

    modules = (nqp, mkd, ioutil, kernels, mtsdata, zeroshot)
    assert [containers(m) for m in modules] == [[], [], [], [], [], []]
