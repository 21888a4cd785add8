"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Budgets are generous on desk hardware; the heaviest criterion (the
end-to-end zero-shot analogue) takes well under its five-minute budget.
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    explicit_atoms,
    explicit_data,
    explicit_unseen,
    make_explicit_kernelset,
    random_dictionary,
)

from mkdmts.cli import main as cli_main
from mkdmts.evalx import clustering_error, nmi, run_experiment, score_clustering, spectral_baseline
from mkdmts.inclust import ClusterConfig, Dendrogram
from mkdmts.ioutil import read_json
from mkdmts.kernels import build_kernelset, cross_kernel, dtw
from mkdmts.mkd import (
    TrainConfig,
    compute_loss,
    train,
    update_atom_dims,
    update_atom_samples,
    update_codes,
)
from mkdmts.mtsdata import SynthConfig, synth_dataset
from mkdmts.nqp import QuadProgram, nqp_oracle, nqp_solve, objective
from mkdmts.zeroshot import encode, encoding_matrix, partial_error, reconstruction_report

from test_evalx import ce_bruteforce
from test_kernels import dtw_enumerate


def _report(n, label, elapsed, budget):
    print(f"\nACCEPTANCE {n}: PASS - {label} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget


# ------------------------------------------------------------------ 1

def test_criterion_1_kernel_algebra_master_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        ks, vs = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k)
        atoms = explicit_atoms(d, vs)
        data = explicit_data(vs)

        from mkdmts.mkd import atom_data_cross, atom_gram

        np.testing.assert_allclose(atom_gram(d, ks), atoms.T @ atoms, atol=1e-8)
        np.testing.assert_allclose(atom_data_cross(d, ks.kernels), atoms.T @ data, atol=1e-8)

        x_mat = rng.uniform(0, 1, size=(k, n))
        explicit_loss = np.linalg.norm(data - atoms @ x_mat, "fro") ** 2
        assert compute_loss(d, ks, x_mat) == pytest.approx(explicit_loss, abs=1e-8 * max(1.0, explicit_loss))

        ck, zs = explicit_unseen(rng, vs)
        z = np.concatenate(zs)
        x = encode(d, ks, ck, t_x=min(2, k))
        resid_explicit = np.linalg.norm(z - atoms @ x) ** 2
        err_all = partial_error(d, ks, ck, x, range(f))
        assert err_all * f == pytest.approx(resid_explicit, abs=1e-8)

        subset = sorted(rng.choice(f, size=int(rng.integers(1, f + 1)), replace=False))
        offsets = np.cumsum([0] + [v.shape[0] for v in vs])
        mask = np.zeros(offsets[-1], dtype=bool)
        for l in subset:
            mask[offsets[l]:offsets[l + 1]] = True
        xq = rng.uniform(0, 1, size=k)
        num = np.linalg.norm((z - atoms @ xq)[mask]) ** 2
        den = np.linalg.norm(z[mask]) ** 2
        assert partial_error(d, ks, ck, xq, subset) == pytest.approx(num / den, abs=1e-8)
    _report(1, "kernel algebra matches explicit embeddings on 100 instances", time.time() - t0, 60)


# ------------------------------------------------------------------ 2

def test_criterion_2_dtw_exactness():
    t0 = time.time()
    rng = np.random.default_rng(202)
    for _ in range(500):
        a = rng.normal(size=int(rng.integers(1, 7)))
        b = rng.normal(size=int(rng.integers(1, 7)))
        assert dtw(a, b) == pytest.approx(dtw_enumerate(a, b), abs=0.0)
    _report(2, "dtw equals exhaustive path enumeration on 500 pairs", time.time() - t0, 60)


# ------------------------------------------------------------------ 3

def _random_nqp(rng):
    n = int(rng.integers(2, 9))
    t = int(min(rng.integers(1, 4), n))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        h = np.diag(rng.uniform(0.1, 2.0, n))
    elif kind == 1:
        w = rng.normal(size=(n, n + 2))
        h = w @ w.T / (n + 2)
    elif kind == 2:
        x = rng.normal(size=(n, 3))
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        h = np.exp(-d2 / np.median(d2[d2 > 0]))
    else:
        w = rng.normal(size=(n, n))
        h = w @ w.T / n + 0.5 * np.eye(n)
    return QuadProgram(h, rng.normal(size=n), t)


def test_criterion_3_nqp_feasibility_and_gap():
    t0 = time.time()
    rng = np.random.default_rng(777)
    for i in range(1000):
        p = _random_nqp(rng)
        y = nqp_solve(p)
        assert (y >= 0).all() and np.count_nonzero(y) <= p.limit
        yo = nqp_oracle(p)
        obj_s, obj_o = objective(p.h, p.c, y), objective(p.h, p.c, yo)
        gap = max(0.0, obj_s - obj_o)
        if np.count_nonzero(p.h - np.diag(np.diag(p.h))) == 0:
            assert gap <= 1e-9, f"diagonal instance {i} not exact"
        if obj_o < -1e-12:
            assert gap <= 0.10 * abs(obj_o), f"instance {i}: gap {gap} vs optimum {obj_o}"
        else:
            assert gap <= 1e-9
    _report(3, "nqp feasible on 1000 instances, diagonal exact, gap <= 10%", time.time() - t0, 120)


# ------------------------------------------------------------------ 4

def test_criterion_4_training_monotonicity_and_compensation():
    t0 = time.time()
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(5, 9))
        f = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        ks, _ = make_explicit_kernelset(rng, n, f)
        d = random_dictionary(rng, ks, k, t_a=3, t_beta=max(1, f - 1))
        codes = update_codes(d, ks, t_x=2)
        loss = compute_loss(d, ks, codes)
        for i in range(k):
            update_atom_samples(d, ks, codes, i, t_a=3)
            after = compute_loss(d, ks, codes)
            assert after <= loss + 1e-9
            loss = after
            update_atom_dims(d, ks, codes, i, t_beta=max(1, f - 1))
            after = compute_loss(d, ks, codes)
            assert after <= loss + 1e-9
            loss = after
        # scale compensation identity
        before = compute_loss(d, ks, codes)
        for i in range(k):
            s = float(rng.uniform(0.5, 2.0))
            d.sample_weights[:, i] *= s
            codes[i, :] /= s
        assert compute_loss(d, ks, codes) == pytest.approx(before, abs=1e-10 * max(1.0, before))
    _report(4, "atom updates monotone within 1e-9, compensation exact within 1e-10", time.time() - t0, 120)


# ------------------------------------------------------------------ 5 & 6 share pipelines

SYNTH_BASE = dict(num_seen_classes=4, num_unseen_classes=2, dims=2,
                  length_range=(60, 90), samples_per_class=20, seed=7)
TRAIN_BASE = dict(k=8, t_x=2, t_a=4, t_beta=1, max_iters=20, tol=1e-5, seed=7)
BANDWIDTH = 40.0


def _pipeline(noise):
    t0 = time.time()
    seen, unseen, prov = synth_dataset(SynthConfig(noise_std=noise, **SYNTH_BASE))
    ks = build_kernelset(seen, bandwidth=BANDWIDTH)
    result = train(seen, ks, TrainConfig(**TRAIN_BASE))
    labels = seen.labels()
    per_seq = []
    for seq in unseen.sequences:
        ck = cross_kernel(seen, seq, ks.bandwidths)
        x = encode(result.dictionary, ks, ck, TRAIN_BASE["t_x"])
        rep = reconstruction_report(result.dictionary, ks, ck, x, labels)
        enc = encoding_matrix(result.dictionary, x, seq.id)
        per_seq.append((seq, rep, enc))
    return seen, unseen, prov, ks, result, per_seq, time.time() - t0


@pytest.fixture(scope="module")
def pipeline_zero():
    return _pipeline(0.0)


@pytest.fixture(scope="module")
def pipeline_noisy():
    return _pipeline(0.05)


@pytest.fixture(scope="module")
def pipeline_noisier():
    return _pipeline(0.1)


def test_criterion_5_zero_shot_clustering_analogue(pipeline_noisy):
    t0 = time.time()
    seen, unseen, prov, ks, result, per_seq, build_time = pipeline_noisy
    tree = Dendrogram(ClusterConfig())
    order = np.random.default_rng(7).permutation(len(per_seq))
    for idx in order:
        seq, _, enc = per_seq[idx]
        tree.insert(seq.id, enc.values)
    truth = {seq.id: int(seq.label) for seq, _, _ in per_seq}
    ours = score_clustering(tree.flat_clusters(), truth)
    spectral_pred = spectral_baseline(unseen, ks.bandwidths, num_clusters=2, seed=7)
    spectral_ce = clustering_error(spectral_pred, truth)
    assert ours.ce <= 0.10, f"incremental CE {ours.ce}"
    assert ours.nmi >= 0.90, f"incremental NMI {ours.nmi}"
    assert ours.ce < spectral_ce or (ours.ce == 0.0 and spectral_ce == 0.0), (
        f"incremental CE {ours.ce} vs spectral {spectral_ce}"
    )
    _report(5, f"incremental CE {100 * ours.ce:.1f}% NMI {ours.nmi:.2f}, spectral CE {100 * spectral_ce:.1f}%",
            time.time() - t0 + build_time, 300)


def test_criterion_6_dra_analogue(pipeline_zero, pipeline_noisier):
    t0 = time.time()
    seen, unseen, prov, ks, result, per_seq, build0 = pipeline_zero
    for seq, rep, _ in per_seq:
        assert rep.dra == 1.0, f"{seq.id}: DRA {rep.dra}"
        sources = prov[str(seq.label)]["sources"]
        for dim, attr in enumerate(rep.attribution):
            assert attr is not None and attr == sources[str(dim)], (
                f"{seq.id} dim {dim}: attributed {attr}, provenance {sources[str(dim)]}"
            )
    dra0 = float(np.mean([rep.dra for _, rep, _ in per_seq]))

    *_, per_seq_noisy, build1 = pipeline_noisier
    dra_noisy = float(np.mean([rep.dra for _, rep, _ in per_seq_noisy]))
    assert dra_noisy >= 0.60, f"noisy DRA {dra_noisy}"
    _report(6, f"zero-noise DRA {100 * dra0:.0f}% with exact attribution; noise-0.1 DRA {100 * dra_noisy:.0f}%",
            time.time() - t0 + build0 + build1, 180)


# ------------------------------------------------------------------ 7

def test_criterion_7_incremental_cache_exactness():
    t0 = time.time()
    rng = np.random.default_rng(707)
    tree = Dendrogram(ClusterConfig())
    centers = [rng.normal(size=(6, 3)) for _ in range(5)]
    for i in range(500):
        c = centers[int(rng.integers(5))]
        tree.insert(f"s{i}", c + rng.normal(0, 0.06, size=c.shape))
    worst = tree.validate_caches(tol=1e-10)
    assert tree.size() == 500
    flat = tree.flat_clusters()
    assert len(flat) == 500
    _report(7, f"caches within {worst:.1e} of recomputation after 500 inserts, membership conserved",
            time.time() - t0, 120)


# ------------------------------------------------------------------ 8

def test_criterion_8_metric_sanity():
    t0 = time.time()
    rng = np.random.default_rng(808)
    base_pred = rng.integers(0, 4, size=60).tolist()
    base_truth = rng.integers(0, 3, size=60).tolist()
    ids = [f"i{j}" for j in range(60)]
    pred = dict(zip(ids, base_pred))
    truth = dict(zip(ids, base_truth))
    ce0, nmi0 = clustering_error(pred, truth), nmi(pred, truth)
    for _ in range(100):
        perm_p = {c: int(v) for c, v in zip(set(base_pred), rng.permutation(100)[: len(set(base_pred))])}
        perm_t = {c: int(v) for c, v in zip(set(base_truth), rng.permutation(100)[: len(set(base_truth))])}
        p2 = {k: perm_p[v] for k, v in pred.items()}
        t2 = {k: perm_t[v] for k, v in truth.items()}
        assert clustering_error(p2, t2) == pytest.approx(ce0, abs=1e-12)
        assert nmi(p2, t2) == pytest.approx(nmi0, abs=1e-12)
    for _ in range(100):
        n = int(rng.integers(4, 25))
        p = dict(zip([f"x{j}" for j in range(n)], rng.integers(0, 5, size=n).tolist()))
        t = dict(zip([f"x{j}" for j in range(n)], rng.integers(0, 5, size=n).tolist()))
        assert clustering_error(p, t) == pytest.approx(ce_bruteforce(p, t), abs=1e-12)
    _report(8, "CE/NMI invariant under 100 relabelings; CE matches brute force", time.time() - t0, 60)


# ------------------------------------------------------------------ 9

def _run_cli_pipeline(base: Path) -> None:
    args = lambda xs: [str(x) for x in xs]
    assert cli_main(args(["synth", "--seed", 7, "--samples", 5, "--noise", 0.05,
                          "--length-min", 30, "--length-max", 40, "--out", base / "data"])) == 0
    assert cli_main(args(["kernels", "--manifest", base / "data" / "seen.jsonl",
                          "--out", base / "kern", "--bandwidth", 20])) == 0
    assert cli_main(args(["train", "--manifest", base / "data" / "seen.jsonl", "--kernels", base / "kern",
                          "--k", 8, "--tx", 2, "--ta", 2, "--tbeta", 1, "--iters", 6,
                          "--tol", "1e-6", "--seed", 7, "--out", base / "model"])) == 0
    assert cli_main(args(["encode", "--model", base / "model", "--kernels", base / "kern",
                          "--seen-manifest", base / "data" / "seen.jsonl",
                          "--manifest", base / "data" / "unseen.jsonl", "--out", base / "enc"])) == 0
    assert cli_main(args(["cluster", "--enc", base / "enc", "--order", "shuffle:7",
                          "--out", base / "tree.json"])) == 0
    assert cli_main(args(["eval", "--tree", base / "tree.json", "--truth", base / "data" / "unseen.jsonl",
                          "--out", base / "score.json"])) == 0


def test_criterion_9_end_to_end_determinism(tmp_path):
    t0 = time.time()
    a, b = tmp_path / "a", tmp_path / "b"
    _run_cli_pipeline(a)
    _run_cli_pipeline(b)

    def compare(dir_a: Path, dir_b: Path):
        cmp = filecmp.dircmp(dir_a, dir_b)
        diffs = [f for f in cmp.diff_files if f != "run_info.json"]
        assert not diffs, f"{dir_a}: differing files {diffs}"
        assert not cmp.left_only and not cmp.right_only
        for name, sub in cmp.subdirs.items():
            compare(dir_a / name, dir_b / name)

    compare(a, b)
    # numeric artifacts byte-identical
    for rel in ("tree.json", "score.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()

    # run_experiment, configured like the CLI run, agrees with it
    report = run_experiment({
        "synth": {"seed": 7, "samples_per_class": 5, "length_range": (30, 40), "noise_std": 0.05},
        "bandwidth": 20.0,
        "train": {"k": 8, "t_x": 2, "t_a": 2, "t_beta": 1, "max_iters": 6, "tol": 1e-6, "seed": 7},
        "cluster": {"order_seed": 7},
    }, tmp_path / "in_process")
    assert (tmp_path / "in_process" / "tree.json").read_bytes() == (a / "tree.json").read_bytes()
    cli_score = read_json(a / "score.json")
    assert report["clustering"]["incremental"]["ce"] == cli_score["ce"]
    assert report["clustering"]["incremental"]["nmi"] == cli_score["nmi"]
    assert report["loss_trace"] == read_json(a / "model" / "meta.json")["loss_trace"]
    _report(9, "bit-identical outputs across two CLI runs and run_experiment", time.time() - t0, 300)
