import math
import os
import subprocess
import sys
import warnings
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import mkdmts
from mkdmts.errors import DataError
from mkdmts.evalx import (
    _max_matching,
    clustering_error,
    contingency_table,
    nmi,
    render_report,
    score_clustering,
    spectral_baseline,
)
from mkdmts.mtsdata import Dataset, SynthConfig, TimeSeries, synth_dataset


def _as_dicts(pred, truth):
    ids = [f"i{j}" for j in range(len(pred))]
    return dict(zip(ids, pred)), dict(zip(ids, truth))


def _brute_max_matching(table):
    """Independent oracle: the largest total over every injective matching of the shorter side."""
    if table.shape[0] > table.shape[1]:
        table = table.T
    r, c = table.shape
    return max(sum(int(table[i, p[i]]) for i in range(r)) for p in permutations(range(c), r))


def ce_bruteforce(pred, truth):
    table = contingency_table(pred, truth)
    return 1.0 - _brute_max_matching(table) / table.sum()


def test_ce_zero_for_relabeled_partition():
    pred, truth = _as_dicts([0, 0, 1, 1, 2, 2], [5, 5, 9, 9, 7, 7])
    assert clustering_error(pred, truth) == 0.0


def test_ce_single_cluster_two_classes():
    pred, truth = _as_dicts([0, 0, 0, 0], [1, 1, 2, 2])
    assert clustering_error(pred, truth) == pytest.approx(0.5)


def test_ce_matches_bruteforce(rng):
    for _ in range(60):
        n = int(rng.integers(4, 30))
        pred = rng.integers(0, int(rng.integers(1, 6)), size=n).tolist()
        truth = rng.integers(0, int(rng.integers(1, 6)), size=n).tolist()
        p, t = _as_dicts(pred, truth)
        assert clustering_error(p, t) == pytest.approx(ce_bruteforce(p, t), abs=1e-12)


def test_max_matching_equals_brute_force():
    # 15 tables of each shape from 1x1 to 6x6, some rows and columns all zero: 540 tables
    rng = np.random.default_rng(17)
    for r in range(1, 7):
        for c in range(1, 7):
            for _ in range(15):
                table = rng.integers(0, int(rng.choice([2, 5, 50])), size=(r, c))
                table[rng.random(r) < 0.25] = 0
                table[:, rng.random(c) < 0.25] = 0
                got = _max_matching(table)
                assert type(got) is int and got == _brute_max_matching(table), table


def test_max_matching_beats_the_greedy_row_maximum():
    # greedy takes row 0's maximum (3, column 0) and leaves row 1 only its 0: total 3
    table = np.array([[3, 2], [3, 0]])
    assert _max_matching(table) == 5 and _max_matching(table.T) == 5


def test_ce_with_more_clusters_than_classes():
    # contingency [[2, 0], [1, 0], [0, 3]]: clusters 0 and 2 match the two classes, cluster 1 is unmatched
    pred, truth = _as_dicts([0, 0, 1, 2, 2, 2], [0, 0, 0, 1, 1, 1])
    assert clustering_error(pred, truth) == 1.0 - 5 / 6


def test_no_mkdmts_module_imports_scipy():
    """A fresh interpreter that imports every mkdmts module loads no scipy module."""
    code = ("import pkgutil, sys, mkdmts, mkdmts.cli, mkdmts.evalx\n"
            "for module in pkgutil.iter_modules(mkdmts.__path__): __import__('mkdmts.' + module.name)\n"
            "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(mkdmts.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_run_experiment_and_tune_load_no_numpy_ma(tmp_path):
    """A fresh interpreter that runs a tiny run_experiment at the default "median" bandwidth and then a
    two-point tune loads no numpy.ma, which np.median, a plain np.unique and np.setdiff1d import."""
    code = ("import sys\n"
            "from mkdmts.evalx import run_experiment\n"
            "from mkdmts.kernels import build_kernelset\n"
            "from mkdmts.mkd import TrainConfig, tune\n"
            "from mkdmts.mtsdata import SynthConfig, synth_dataset\n"
            "synth = {'seed': 3, 'num_seen_classes': 2, 'samples_per_class': 5, 'length_range': [8, 10]}\n"
            "run_experiment({'synth': synth, 'train': {'k': 3, 't_x': 1, 't_a': 2, 't_beta': 1}}, sys.argv[1])\n"
            "seen, _, _ = synth_dataset(SynthConfig(**synth))\n"
            "tune(seen, build_kernelset(seen), [(2, 1), (3, 1)], TrainConfig(k=2, t_x=1, t_a=2, t_beta=1))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(mkdmts.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_ce_relabel_invariance(rng):
    pred = rng.integers(0, 4, size=50).tolist()
    truth = rng.integers(0, 3, size=50).tolist()
    p, t = _as_dicts(pred, truth)
    base = clustering_error(p, t)
    remap_p = {c: 10 + c * 7 for c in set(pred)}
    remap_t = {c: 99 - c for c in set(truth)}
    p2 = {k: remap_p[v] for k, v in p.items()}
    t2 = {k: remap_t[v] for k, v in t.items()}
    assert clustering_error(p2, t2) == pytest.approx(base)
    assert nmi(p2, t2) == pytest.approx(nmi(p, t))


def test_ce_symmetry_when_counts_match(rng):
    pred = rng.integers(0, 3, size=40).tolist()
    truth = rng.integers(0, 3, size=40).tolist()
    p, t = _as_dicts(pred, truth)
    assert clustering_error(p, t) == pytest.approx(clustering_error(t, p))


def test_metrics_reject_id_mismatch():
    with pytest.raises(DataError, match="id sets"):
        clustering_error({"a": 0}, {"b": 0})


@pytest.mark.parametrize("metric", [clustering_error, nmi, score_clustering])
def test_metrics_reject_an_empty_id_set(metric):
    # an empty contingency table has no CE (0 / 0) and no NMI; both are a DataError, not nan or 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no ids"):
            metric({}, {})


def test_nmi_identical_partitions():
    p, t = _as_dicts([0, 1, 0, 1, 2], [4, 5, 4, 5, 6])
    assert nmi(p, t) == pytest.approx(1.0)


def test_nmi_single_cluster_conventions():
    # both single-cluster partitions are identical
    p, t = _as_dicts([0, 0, 0], [7, 7, 7])
    assert nmi(p, t) == 1.0
    # one side degenerate, the other informative
    p, t = _as_dicts([0, 0, 0, 0], [0, 0, 1, 1])
    assert nmi(p, t) == 0.0


def test_nmi_hand_computed_contingency():
    # pred (0,0,1,1) vs truth (0,0,0,1): contingency [[2,0],[1,1]]
    p, t = _as_dicts([0, 0, 1, 1], [0, 0, 0, 1])
    mi = (
        0.5 * math.log(0.5 / (0.5 * 0.75))
        + 0.25 * math.log(0.25 / (0.5 * 0.75))
        + 0.25 * math.log(0.25 / (0.5 * 0.25))
    )
    hp = math.log(2.0)
    ht = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert nmi(p, t) == pytest.approx(mi / math.sqrt(hp * ht), abs=1e-12)


def test_nmi_independent_labels_small(rng):
    pred = rng.integers(0, 4, size=200).tolist()
    truth = rng.integers(0, 4, size=200).tolist()
    p, t = _as_dicts(pred, truth)
    assert nmi(p, t) < 0.2


def test_spectral_recovers_separated_classes():
    _, unseen, _ = synth_dataset(SynthConfig(
        num_seen_classes=3, num_unseen_classes=2, dims=2,
        length_range=(20, 30), samples_per_class=6, noise_std=0.05, seed=4,
    ))
    truth = {s.id: int(s.label) for s in unseen.sequences}
    pred = spectral_baseline(unseen, np.array([15.0, 15.0]), num_clusters=2, seed=0)
    assert clustering_error(pred, truth) == 0.0


def test_spectral_deterministic():
    _, unseen, _ = synth_dataset(SynthConfig(
        num_seen_classes=2, num_unseen_classes=2, dims=2,
        length_range=(16, 22), samples_per_class=4, noise_std=0.05, seed=8,
    ))
    bw = np.array([10.0, 10.0])
    a = spectral_baseline(unseen, bw, 2, seed=3)
    b = spectral_baseline(unseen, bw, 2, seed=3)
    assert a == b


def test_spectral_order_invariant_up_to_relabeling():
    _, unseen, _ = synth_dataset(SynthConfig(
        num_seen_classes=2, num_unseen_classes=2, dims=2,
        length_range=(16, 22), samples_per_class=4, noise_std=0.05, seed=8,
    ))
    bw = np.array([10.0, 10.0])
    a = spectral_baseline(unseen, bw, 2, seed=3)
    flipped = Dataset(list(reversed(unseen.sequences)))
    b = spectral_baseline(flipped, bw, 2, seed=3)
    truth = {s.id: int(s.label) for s in unseen.sequences}
    assert clustering_error(a, truth) == pytest.approx(clustering_error(b, truth))


def test_spectral_validates_inputs(rng):
    seqs = [TimeSeries(id=f"s{i}", values=rng.normal(size=(2, 6))) for i in range(3)]
    ds = Dataset(seqs)
    with pytest.raises(ValueError, match="at least 2"):
        spectral_baseline(ds, np.ones(2), 1)
    with pytest.raises(DataError, match="bandwidth"):
        spectral_baseline(ds, np.ones(3), 2)
    _, unseen, _ = synth_dataset(SynthConfig(seed=5))
    for bad in (np.array([-1.0, 1.0]), np.array([np.inf, 1.0]), np.array([0.0, 1.0]), np.array([np.nan, 1.0]),
                [True, True], ["1", "1"]):  # np.asarray reads True and "1" as 1.0
        with pytest.raises(DataError, match=r"^bandwidths must be positive and finite, got \["):
            spectral_baseline(unseen, bad, 2)


def test_score_clustering_bundle(rng):
    p, t = _as_dicts([0, 0, 1, 1], [0, 0, 1, 1])
    score = score_clustering(p, t)
    assert score.ce == 0.0 and score.nmi == pytest.approx(1.0)
    assert score.contingency.sum() == 4


def test_score_clustering_builds_one_contingency_table(rng, monkeypatch):
    from mkdmts import evalx

    p, t = _as_dicts(rng.integers(0, 4, 60).tolist(), rng.integers(0, 3, 60).tolist())
    built = []
    table = evalx.contingency_table
    monkeypatch.setattr(evalx, "contingency_table", lambda *args: built.append(args) or table(*args))
    score = score_clustering(p, t)
    assert len(built) == 1
    assert (score.ce, score.nmi) == (clustering_error(p, t), nmi(p, t))
    assert np.array_equal(score.contingency, table(p, t))


def test_render_report_mentions_key_numbers():
    report = {
        "version": "0.1.0",
        "loss_trace": [10.0, 2.0],
        "dra_mean": 0.875,
        "clustering": {
            "incremental": {"ce": 0.05, "nmi": 0.91, "clusters": 2},
            "spectral_baseline": {"ce": 0.1, "nmi": 0.8},
        },
        "benchmark_reference": {
            "dra_percent": {"cricket": 76.4, "cmu": 84.5, "words": 80.2, "squat": 62.6},
            "ce_percent": {"words": 12.31, "squat": 0.0, "cmu": 9.28, "cricket": 0.0},
            "nmi": {"words": 0.89, "squat": 1.0, "cmu": 0.92, "cricket": 1.0},
        },
        "timings_sec": {"train": 1.0},
    }
    text = render_report(report)
    assert "87.5%" in text and "5.00%" in text and "0.910" in text


def test_run_experiment_end_to_end(tmp_path):
    from mkdmts.evalx import run_experiment
    from mkdmts.ioutil import read_json

    config = {
        "synth": {"num_seen_classes": 3, "num_unseen_classes": 2, "dims": 2,
                  "length_range": (24, 32), "samples_per_class": 5,
                  "noise_std": 0.05, "seed": 11},
        "bandwidth": 15.0,
        "train": {"k": 6, "t_x": 2, "t_a": 2, "t_beta": 1,
                  "max_iters": 8, "tol": 1e-6, "seed": 11},
        "cluster": {"order_seed": 11},
    }
    report = run_experiment(config, tmp_path / "run1")
    assert {"loss_trace", "dra_mean", "attribution", "clustering",
            "benchmark_reference", "timings_sec"} <= set(report)
    assert report["loss_trace"][-1] <= report["loss_trace"][0]
    assert 0.0 <= report["dra_mean"] <= 1.0
    inc = report["clustering"]["incremental"]
    assert 0.0 <= inc["ce"] <= 1.0 and 0.0 <= inc["nmi"] <= 1.0
    assert (tmp_path / "run1" / "score.json").exists()
    assert (tmp_path / "run1" / "report.txt").exists()
    assert (tmp_path / "run1" / "tree.json").exists()
    assert (tmp_path / "run1" / "data" / "provenance.json").exists()

    # fixed seeds reproduce the identical report, timings aside
    run_experiment(config, tmp_path / "run2")
    s1 = read_json(tmp_path / "run1" / "score.json")
    s2 = read_json(tmp_path / "run2" / "score.json")
    s1.pop("timings_sec")
    s2.pop("timings_sec")
    assert s1 == s2


def test_run_experiment_unwritable_report_is_data_error(tmp_path):
    from mkdmts.evalx import run_experiment

    config = {
        "synth": {"num_seen_classes": 2, "num_unseen_classes": 2, "length_range": (8, 10),
                  "samples_per_class": 3, "seed": 5},
        "bandwidth": 5.0,
        "train": {"k": 2, "t_beta": 1, "max_iters": 2},
    }
    (tmp_path / "report.txt").mkdir()
    with pytest.raises(DataError, match="report.txt: cannot write"):
        run_experiment(config, tmp_path)


@pytest.mark.parametrize("key, value", [("threshold", math.nan), ("threshold", -1.0),
                                        ("threshold", math.inf), ("bandwidth", -5.0)])
def test_run_experiment_rejects_bad_threshold_and_bandwidth(tmp_path, key, value):
    from mkdmts.evalx import run_experiment

    config = {
        "synth": {"num_seen_classes": 2, "num_unseen_classes": 2, "length_range": (8, 10),
                  "samples_per_class": 3, "seed": 5},
        "bandwidth": 5.0,
        "train": {"k": 2, "t_beta": 1, "max_iters": 2},
        key: value,
    }
    with pytest.raises(DataError, match=key):
        run_experiment(config, tmp_path / "run")
    assert not (tmp_path / "run").exists()  # rejected before anything is synthesized or written


def test_run_experiment_rejects_one_unseen_class_up_front(tmp_path):
    from mkdmts.evalx import run_experiment

    config = {
        "synth": {"num_seen_classes": 2, "num_unseen_classes": 1, "length_range": (8, 10),
                  "samples_per_class": 3, "seed": 5},
        "bandwidth": 5.0,
        "train": {"k": 2, "t_beta": 1, "max_iters": 2},
    }
    with pytest.raises(DataError, match="at least 2 unseen classes"):
        run_experiment(config, tmp_path / "run")
    assert not (tmp_path / "run").exists()  # rejected before anything is synthesized or written


@pytest.mark.parametrize("seed", [-1, 1.5, "2", True])
def test_run_experiment_rejects_bad_order_seed_up_front(tmp_path, seed):
    from mkdmts.evalx import run_experiment

    config = {
        "synth": {"num_seen_classes": 2, "num_unseen_classes": 2, "length_range": (8, 10),
                  "samples_per_class": 3, "seed": 5},
        "bandwidth": 5.0,
        "train": {"k": 2, "t_beta": 1, "max_iters": 2},
        "cluster": {"order_seed": seed},
    }
    with pytest.raises(ValueError, match="cluster.order_seed"):
        run_experiment(config, tmp_path / "run")
    assert not (tmp_path / "run").exists()  # rejected before anything is synthesized or written


@pytest.mark.parametrize("part, match", [
    ({"train": {"k": 0}}, "k must be at least 1"),
    ({"cluster": {"gamma": -1.0}}, "gamma"),
    ({"cluster": {"bogus": 1}}, "unknown cluster config keys \\['bogus'\\]"),
    ({"trian": {"k": 3}}, "unknown config keys \\['trian'\\]"),
], ids=["train-value", "cluster-value", "cluster-key", "top-level-key"])
def test_run_experiment_checks_the_whole_config_up_front(tmp_path, part, match):
    from mkdmts.evalx import run_experiment

    config = {
        "synth": {"num_seen_classes": 2, "num_unseen_classes": 2, "length_range": (8, 10),
                  "samples_per_class": 3, "seed": 5},
        "bandwidth": 5.0,
        "train": {"k": 2, "t_beta": 1, "max_iters": 2},
    } | part
    with pytest.raises(ValueError, match=match):
        run_experiment(config, tmp_path / "run")
    assert not (tmp_path / "run" / "data").exists()  # rejected before anything is synthesized or written


def _canonical_partition(pred):
    """Sorted groups of sorted ids: the partition, free of label numbering."""
    groups = {}
    for sid, label in pred.items():
        groups.setdefault(label, []).append(sid)
    return sorted(sorted(g) for g in groups.values())


def test_spectral_partitions_pinned():
    """Spectral baseline partitions, pinned by one digest recorded before k-means moved to scipy.

    Twenty noisy 4-class sets (median bandwidths of the seen kernels) plus
    the novel sets of the quickstart and many_short benchmark configs.
    """
    import hashlib
    import json

    from mkdmts.kernels import build_kernelset

    partitions = []
    for s in range(20):
        cfg = SynthConfig(seed=s, num_seen_classes=5, num_unseen_classes=4, dims=3,
                          samples_per_class=6, noise_std=1.5, length_range=(20, 30))
        seen, unseen, _ = synth_dataset(cfg)
        bandwidths = build_kernelset(seen).bandwidths
        partitions.append(_canonical_partition(spectral_baseline(unseen, bandwidths, num_clusters=4, seed=s)))
    for seed, seen_classes, lengths, bandwidth in ((7, 4, (60, 90), 40.0), (5, 6, (10, 14), 4.0)):
        cfg = SynthConfig(seed=seed, num_seen_classes=seen_classes, num_unseen_classes=2, dims=2,
                          length_range=lengths, samples_per_class=6)
        _, unseen, _ = synth_dataset(cfg)
        pred = spectral_baseline(unseen, np.full(2, bandwidth), num_clusters=2, seed=seed)
        partitions.append(_canonical_partition(pred))
    digest = hashlib.sha256(json.dumps(partitions).encode()).hexdigest()
    assert digest == "61aed0e393258e0e77fc6d05af4b44e46af7ed265b25c82b308799e5b028fc2c"


def test_spectral_on_identical_sequences_labels_every_id(rng):
    values = rng.normal(size=(2, 12))
    unseen = Dataset([TimeSeries(id=f"s{i}", values=values) for i in range(5)])
    pred = spectral_baseline(unseen, np.ones(2), num_clusters=3, seed=0)
    assert sorted(pred) == unseen.ids()
    assert all(0 <= label < 3 for label in pred.values())
