import hashlib

import numpy as np
import pytest

from conftest import explicit_atoms, explicit_data, make_explicit_kernelset, random_dictionary
from oracles import explicit_unseen

from mkdmts.errors import DataError, NumericalError
from mkdmts.ioutil import write_matrix
from mkdmts.kernels import build_kernelset
from mkdmts.mkd import (
    _N_FOLDS,
    Dictionary,
    TrainConfig,
    _atom_targets,
    _holdout_error,
    _stratified_folds,
    atom_data_cross,
    atom_gram,
    compute_loss,
    init_dictionary,
    load_model,
    residuals,
    save_model,
    train,
    tune,
    update_atom_dims,
    update_atom_samples,
    update_codes,
)
from mkdmts.mtsdata import SynthConfig, synth_dataset
from mkdmts.nqp import QuadProgram, nqp_solve
from mkdmts.zeroshot import encode


# ---------------------------------------------------------------- oracle

def test_atom_gram_matches_explicit_embedding(rng):
    for _ in range(25):
        n, f, k = int(rng.integers(4, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        atoms = explicit_atoms(d, vs)
        np.testing.assert_allclose(atom_gram(d, ks), atoms.T @ atoms, atol=1e-8)


def test_atom_data_cross_matches_explicit_embedding(rng):
    for _ in range(25):
        n, f, k = int(rng.integers(4, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        expected = explicit_atoms(d, vs).T @ explicit_data(vs)
        np.testing.assert_allclose(atom_data_cross(d, ks.kernels), expected, atol=1e-8)


def test_compute_loss_matches_explicit_embedding(rng):
    for _ in range(25):
        n, f, k = int(rng.integers(4, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        x = rng.uniform(0, 1, size=(k, n))
        explicit = np.linalg.norm(explicit_data(vs) - explicit_atoms(d, vs) @ x, "fro") ** 2
        assert compute_loss(d, ks, x) == pytest.approx(explicit, abs=1e-8 * max(1, explicit))


def test_residuals_match_explicit_embedding_per_dimension(rng):
    for _ in range(25):
        n, f, k, m = int(rng.integers(4, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        zs = [rng.normal(size=(v.shape[0], m)) for v in vs]
        x = rng.uniform(0, 1, size=(k, m))
        got = residuals(d, ks.kernels, [v.T @ z for v, z in zip(vs, zs)],
                        np.stack([np.sum(z * z, axis=0) for z in zs]), x)
        for l, (v, z) in enumerate(zip(vs, zs)):
            atoms = np.sqrt(d.dim_weights[l])[None, :] * (v @ d.sample_weights)
            np.testing.assert_allclose(got[l], np.sum((z - atoms @ x) ** 2, axis=0), atol=1e-8)


def test_atom_targets_match_explicit_embedding(rng):
    # g_l = V_l' R_l x, R_l the explicit dimension-l residual of the data without atom i
    for _ in range(25):
        n, f, k = int(rng.integers(4, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        codes = rng.uniform(0, 1, size=(k, n)) * (rng.uniform(size=(k, n)) < 0.6)
        i = int(rng.integers(k))
        others = [t for t in range(k) if t != i]
        got = _atom_targets(d, ks, codes, i)
        for l, v in enumerate(vs):
            atoms = np.sqrt(d.dim_weights[l])[None, :] * (v @ d.sample_weights)
            r = v - atoms[:, others] @ codes[others]
            np.testing.assert_allclose(got[l], v.T @ r @ codes[i], atol=1e-8)


def test_holdout_error_matches_explicit_embedding(rng):
    for _ in range(25):
        n, f, k, t_x = int(rng.integers(6, 12)), int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
        ks, vs = make_explicit_kernelset(rng, n, f)
        held = np.sort(rng.choice(n, size=3, replace=False))
        train_idx = np.setdiff1d(np.arange(n), held)
        sub_ks = ks.subset(train_idx, ks.dataset_hash)
        d = random_dictionary(rng, sub_ks, k)
        atoms = explicit_atoms(d, [v[:, train_idx] for v in vs])
        data = explicit_data(vs)
        errors = []
        for j in held:
            z = data[:, j]
            x = nqp_solve(QuadProgram(atoms.T @ atoms, -(atoms.T @ z), min(t_x, k)))
            errors.append(np.sum((z - atoms @ x) ** 2) / np.sum(z * z))
        assert _holdout_error(d, sub_ks, ks, train_idx, held, t_x) == pytest.approx(np.mean(errors), abs=1e-8)


# ---------------------------------------------------------------- examples

def test_atom_gram_single_normalized_atom_is_one(rng):
    ks, _ = make_explicit_kernelset(rng, 5, 2)
    d = random_dictionary(rng, ks, 1)
    np.testing.assert_allclose(atom_gram(d, ks), [[1.0]], atol=1e-8)


def test_atom_gram_disjoint_dim_supports_zero_offdiag(rng):
    ks, _ = make_explicit_kernelset(rng, 5, 2)
    a = np.zeros((5, 2))
    a[0, 0] = a[1, 1] = 1.0
    b = np.array([[1.0, 0.0], [0.0, 1.0]])  # atom 0 on dim 0 only, atom 1 on dim 1 only
    d = Dictionary(sample_weights=a, dim_weights=b, dataset_hash="explicit")
    norms = np.sqrt(np.diag(atom_gram(d, ks)))
    d.sample_weights /= norms[None, :]
    g = atom_gram(d, ks)
    assert g[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_loss_with_zero_codes_is_kernel_diagonal_mass():
    seen, _, _ = synth_dataset(SynthConfig(seed=2, samples_per_class=2, length_range=(16, 20)))
    ks = build_kernelset(seen)
    cfg = TrainConfig(k=3, t_x=1, seed=0)
    d = init_dictionary(ks, cfg, labels=seen.labels())
    loss0 = compute_loss(d, ks, np.zeros((3, len(seen))))
    assert loss0 == pytest.approx(sum(np.trace(k) for k in ks.kernels), rel=1e-12)


def test_update_codes_exact_atom_reconstructs(rng):
    # dictionary holding a sample's own full embedding gives a zero residual
    ks, vs = make_explicit_kernelset(rng, 6, 2)
    a = np.zeros((6, 1))
    a[3, 0] = 1.0
    b = np.ones((2, 1))
    d = Dictionary(sample_weights=a, dim_weights=b, dataset_hash="explicit")
    norm = np.sqrt(np.diag(atom_gram(d, ks)))
    d.sample_weights /= norm[None, :]
    codes = update_codes(d, ks, t_x=1)
    data = explicit_data(vs)
    atom = explicit_atoms(d, vs)[:, 0]
    resid = np.linalg.norm(data[:, 3] - codes[0, 3] * atom) ** 2
    assert resid == pytest.approx(0.0, abs=1e-9)
    assert codes[0, 3] == pytest.approx(np.linalg.norm(data[:, 3]), rel=1e-8)


def test_update_codes_respects_sparsity(rng):
    ks, _ = make_explicit_kernelset(rng, 8, 2)
    d = random_dictionary(rng, ks, 5)
    codes = update_codes(d, ks, t_x=1)
    assert (np.count_nonzero(codes, axis=0) <= 1).all()
    assert compute_loss(d, ks, codes) <= compute_loss(d, ks, np.zeros_like(codes)) + 1e-12


def test_non_finite_atom_gram_raises_at_every_call(rng):
    """In training and in describes, whose memo keeps no solver that failed to build."""
    ks, vs = make_explicit_kernelset(rng, 6, 2)
    d = random_dictionary(rng, ks, 3)
    ck, _ = explicit_unseen(rng, vs)
    d.sample_weights *= 1e160  # the atom Gram overflows; the cross values stay finite
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(atom_gram(d, ks)).all() and np.isfinite(atom_data_cross(d, ks.kernels)).all()
    for _ in range(3):
        with pytest.raises(NumericalError, match="not finite"):
            update_codes(d, ks, 2)
        with pytest.raises(NumericalError, match="not finite"):
            encode(d, ks, ck, 2)


# ---------------------------------------------------------------- updates

def _random_state(rng, n=7, f=3, k=4):
    ks, vs = make_explicit_kernelset(rng, n, f)
    d = random_dictionary(rng, ks, k, t_a=3, t_beta=2)
    codes = update_codes(d, ks, t_x=2)
    return ks, d, codes


def test_atom_updates_never_increase_loss(rng):
    for _ in range(30):
        ks, d, codes = _random_state(rng)
        loss = compute_loss(d, ks, codes)
        for i in range(d.k):
            update_atom_samples(d, ks, codes, i, t_a=3)
            after = compute_loss(d, ks, codes)
            assert after <= loss + 1e-9
            loss = after
            update_atom_dims(d, ks, codes, i, t_beta=2)
            after = compute_loss(d, ks, codes)
            assert after <= loss + 1e-9
            loss = after


def test_updates_preserve_invariants(rng):
    ks, d, codes = _random_state(rng)
    for i in range(d.k):
        update_atom_samples(d, ks, codes, i, t_a=3)
        update_atom_dims(d, ks, codes, i, t_beta=2)
    assert (d.sample_weights >= 0).all() and (d.dim_weights >= 0).all()
    np.testing.assert_allclose(np.diag(atom_gram(d, ks)), 1.0, atol=1e-8)
    assert (np.count_nonzero(d.sample_weights, axis=0) <= 3).all()
    assert (np.count_nonzero(d.dim_weights, axis=0) <= 2).all()
    assert (codes >= 0).all()


def test_scale_compensation_identity(rng):
    # scaling an atom down and its code row up leaves the loss unchanged
    ks, d, codes = _random_state(rng)
    loss = compute_loss(d, ks, codes)
    for i, s in enumerate((2.0, 0.5, 3.0, 0.25)):
        d.sample_weights[:, i] *= s
        codes[i, :] /= s
    assert compute_loss(d, ks, codes) == pytest.approx(loss, abs=1e-10 * max(1, loss))


def test_dead_atom_reseeded_on_zero_row(rng):
    ks, d, codes = _random_state(rng)
    codes[1, :] = 0.0
    before = compute_loss(d, ks, codes)
    update_atom_samples(d, ks, codes, 1, t_a=3)
    assert (codes[1, :] == 0).all()
    assert np.count_nonzero(d.sample_weights[:, 1]) == 1
    assert compute_loss(d, ks, codes) == pytest.approx(before, rel=1e-10)


def test_single_dimension_beta_absorbed_by_normalization(rng):
    ks, vs = make_explicit_kernelset(rng, 6, 1)
    d = random_dictionary(rng, ks, 2, t_a=2, t_beta=1)
    codes = update_codes(d, ks, t_x=1)
    direction_before = d.sample_weights / np.linalg.norm(d.sample_weights, axis=0)
    update_atom_dims(d, ks, codes, 0, t_beta=1)
    direction_after = d.sample_weights / np.linalg.norm(d.sample_weights, axis=0)
    np.testing.assert_allclose(direction_before, direction_after, atol=1e-12)
    np.testing.assert_allclose(np.diag(atom_gram(d, ks)), 1.0, atol=1e-8)


# ---------------------------------------------------------------- train

def _small_synth(noise=0.0, seed=3):
    seen, _, _ = synth_dataset(SynthConfig(
        num_seen_classes=2, num_unseen_classes=1, dims=2,
        length_range=(16, 24), samples_per_class=4, noise_std=noise, seed=seed,
    ))
    return seen


def test_train_self_dictionary_reaches_zero_loss():
    seen = _small_synth(noise=0.02)
    ks = build_kernelset(seen, bandwidth=10.0)
    n = len(seen)
    cfg = TrainConfig(k=n, t_x=1, t_a=1, t_beta=2, max_iters=4, tol=1e-9, seed=0)
    result = train(seen, ks, cfg)
    assert result.loss_trace[-1] <= 1e-6 * result.loss_trace[0]


def test_train_deterministic():
    seen = _small_synth(noise=0.05)
    ks = build_kernelset(seen, bandwidth=10.0)
    cfg = TrainConfig(k=4, t_x=2, t_a=2, t_beta=1, max_iters=5, tol=1e-8, seed=11)
    t1 = train(seen, ks, cfg)
    t2 = train(seen, ks, cfg)
    assert t1.loss_trace == t2.loss_trace
    np.testing.assert_array_equal(t1.dictionary.sample_weights, t2.dictionary.sample_weights)
    np.testing.assert_array_equal(t1.codes, t2.codes)


@pytest.mark.parametrize("synth,bandwidth,cfg,expected", [
    (SynthConfig(seed=13, dims=3, samples_per_class=6, length_range=(60, 90)), 40.0,
     TrainConfig(k=8, t_x=2, t_a=4, t_beta=1, seed=13),
     "3f449139226984a8f4896ac977f6c0cbe17acac54327c9e80dbbedc4d787d29b"),
    # many_short's shape: the 5-coordinate sample-block rows
    (SynthConfig(seed=5, num_seen_classes=6, num_unseen_classes=2, dims=2, samples_per_class=6,
                 length_range=(10, 14)), 4.0,
     TrainConfig(k=10, t_x=2, t_a=5, t_beta=1, seed=5),
     "b1c9ff2329c37f277b00516eb5593f65584a0058e32a6b05a83871ba908bce70"),
    # t_x=4 of k=16 atoms: 2516 supports, above the 1200 nqp_solve_columns enumerates, so the codes run nqp_solve
    # with swap refinement
    (SynthConfig(seed=13, dims=3, samples_per_class=6, length_range=(20, 30)), 10.0,
     TrainConfig(k=16, t_x=4, t_a=3, t_beta=2, seed=13, max_iters=10),
     "675cbc6a49e42baddcf8766649aeee18f32dc5e116cd71bfbce45eae1538420e"),
], ids=["long", "short", "swap"])
def test_trainer_bytes_pinned(synth, bandwidth, cfg, expected):
    """A seeded train at benchmark shapes, pinned by one digest of its loss trace, A, B and codes."""
    seen, _, _ = synth_dataset(synth)
    ks = build_kernelset(seen, bandwidth=bandwidth)
    result = train(seen, ks, cfg)
    digest = hashlib.sha256(np.array(result.loss_trace).tobytes())
    for part in (result.dictionary.sample_weights, result.dictionary.dim_weights, result.codes):
        digest.update(part.tobytes())
    assert digest.hexdigest() == expected


def test_train_halves_initial_loss():
    seen, _, _ = synth_dataset(SynthConfig(
        num_seen_classes=4, num_unseen_classes=2, dims=2,
        length_range=(20, 30), samples_per_class=5, noise_std=0.05, seed=9,
    ))
    ks = build_kernelset(seen, bandwidth=20.0)
    result = train(seen, ks, TrainConfig(k=8, t_x=2, t_a=2, t_beta=1, max_iters=10, tol=1e-6, seed=9))
    assert result.loss_trace[-1] <= 0.5 * result.loss_trace[0]
    # trace is the per-outer-iteration record, starting from the zero-code loss
    assert len(result.loss_trace) >= 2


def test_train_rejects_mismatched_kernels():
    seen = _small_synth()
    other = _small_synth(seed=4)
    ks = build_kernelset(other, bandwidth=10.0)
    with pytest.raises(DataError, match="different dataset"):
        train(seen, ks, TrainConfig(k=2, t_x=1))


def test_model_save_load_round_trip(tmp_path, monkeypatch):
    seen = _small_synth(noise=0.05)
    ks = build_kernelset(seen, bandwidth=10.0)
    cfg = TrainConfig(k=3, t_x=2, t_a=2, t_beta=1, max_iters=3, tol=1e-6, seed=1).resolve(len(seen), 2)
    result = train(seen, ks, cfg)
    save_model(result, tmp_path / "model", cfg, ks.bandwidths)
    loaded, meta = load_model(tmp_path / "model")
    np.testing.assert_array_equal(loaded.sample_weights, result.dictionary.sample_weights)
    np.testing.assert_array_equal(loaded.dim_weights, result.dictionary.dim_weights)
    assert meta["t_x"] == cfg.t_x
    assert meta["dataset_hash"] == ks.dataset_hash

    # a rewrite interrupted after its first matrix leaves no model to load
    written = []

    def fail_second(path, m):
        if written:
            raise OSError("disk full")
        written.append(path)
        write_matrix(path, m)

    monkeypatch.setattr("mkdmts.mkd.write_matrix", fail_second)
    with pytest.raises(OSError):
        save_model(result, tmp_path / "model", cfg, ks.bandwidths)
    with pytest.raises(DataError):
        load_model(tmp_path / "model")


# ---------------------------------------------------------------- tune

def test_tune_single_point_grid():
    seen, _, _ = synth_dataset(SynthConfig(
        num_seen_classes=2, num_unseen_classes=1, dims=2,
        length_range=(16, 24), samples_per_class=6, noise_std=0.05, seed=3,
    ))
    ks = build_kernelset(seen, bandwidth=10.0)
    base = TrainConfig(k=2, t_x=1, t_a=2, t_beta=1, max_iters=3, tol=1e-6, seed=5)
    picked = tune(seen, ks, [(3, 2)], base)
    assert (picked.k, picked.t_x) == (3, 2)


def test_tune_deterministic_and_prefers_spanning_k():
    # zero noise: held-out error collapses only once atoms cover every
    # (class, dimension) template, i.e. k >= 4 here
    seen, _, _ = synth_dataset(SynthConfig(
        num_seen_classes=2, num_unseen_classes=1, dims=2,
        length_range=(16, 24), samples_per_class=10, noise_std=0.0, seed=6,
    ))
    ks = build_kernelset(seen, bandwidth=10.0)
    base = TrainConfig(k=2, t_x=2, t_a=2, t_beta=1, max_iters=4, tol=1e-8, seed=6)
    grid = [(2, 2), (4, 2)]
    first = tune(seen, ks, grid, base)
    second = tune(seen, ks, grid, base)
    assert (first.k, first.t_x) == (second.k, second.t_x)
    assert first.k >= 4


def test_tune_folds_balance_sizes_and_spread_small_classes():
    # class 0 has fewer samples than folds: dealing carries on from class to class, so no fallback is needed
    full, _, _ = synth_dataset(SynthConfig(
        num_seen_classes=2, num_unseen_classes=1, dims=2,
        length_range=(16, 20), samples_per_class=8, noise_std=0.05, seed=6,
    ))
    labels = full.labels()
    keep = list(np.flatnonzero(labels == 0)[:4]) + list(np.flatnonzero(labels == 1))
    seen = full.subset(sorted(keep))
    labels = seen.labels()
    for seed in range(10):
        folds = _stratified_folds(labels, np.random.default_rng(seed))
        assert len(folds) == _N_FOLDS
        assert sorted(np.concatenate(folds).tolist()) == list(range(len(seen)))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for cls in (0, 1):
            per_fold = [int((labels[f] == cls).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1
    ks = build_kernelset(seen, bandwidth=10.0)
    base = TrainConfig(k=2, t_x=1, t_a=1, t_beta=1, max_iters=2, tol=1e-6, seed=0)
    picked = tune(seen, ks, [(2, 1)], base)  # a UserWarning here fails the test
    assert (picked.k, picked.t_x) == (2, 1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(t_x=0)
    with pytest.raises(ValueError):
        TrainConfig(tol=0.0)
    with pytest.raises(ValueError):
        TrainConfig(tol=float("nan"))
    with pytest.raises(ValueError):
        TrainConfig(max_iters=0)


@pytest.mark.parametrize("field, value", [("k", 2.5), ("k", True), ("t_x", 2.5), ("t_a", 1.5), ("t_beta", 1.0),
                                          ("max_iters", 3.0), ("seed", False), ("seed", -1)])
def test_train_config_rejects_bad_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [True, "0.5"])
def test_train_config_rejects_a_tol_that_is_not_a_number(value):
    with pytest.raises(ValueError, match="tol must be"):
        TrainConfig(tol=value)


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(k=np.int64(3), t_x=np.int32(2), t_a=np.int64(2), seed=np.uint8(4))
    assert (cfg.k, cfg.t_x, cfg.t_a, cfg.seed) == (3, 2, 2, 4)
