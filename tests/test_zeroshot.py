import numpy as np
import pytest

from conftest import (
    explicit_atoms,
    explicit_data,
    explicit_unseen,
    make_explicit_kernelset,
    random_dictionary,
)

from mkdmts.errors import DataError
from mkdmts.kernels import CrossKernel, build_kernelset, cross_kernel
from mkdmts.mkd import Dictionary, TrainConfig, train
from mkdmts.mtsdata import SynthConfig, synth_dataset
from mkdmts.zeroshot import (
    encode,
    encoding_matrix,
    partial_error,
    reconstruction_report,
)


def test_encode_rejects_hash_mismatch(rng):
    ks, vs = make_explicit_kernelset(rng, 5, 2)
    d = random_dictionary(rng, ks, 3)
    ck, _ = explicit_unseen(rng, vs)
    ck = CrossKernel(cross=ck.cross, self_k=ck.self_k, dataset_hash="other")
    with pytest.raises(DataError, match="different seen datasets"):
        encode(d, ks, ck, 2)


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
    ck = CrossKernel(
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
