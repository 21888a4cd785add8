"""Pipeline stages, clustering metrics, the spectral baseline, experiment orchestration and the run report.

The CLI subcommands and ``run_experiment`` share the stages ``synthesize``,
``describe`` and ``cluster``, and one run report: ``run_report`` reads
either pipeline's run directory into one layout and ``render_report``
prints it.

Clustering error (CE) is one minus the accuracy of the best injective
cluster-to-class matching on the contingency table.  NMI normalizes
mutual information by the square root of the two partition entropies
(natural logarithm).  The spectral baseline clusters the unseen set
directly on its averaged per-dimension Gaussian-of-DTW affinities.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.cluster.vq import kmeans2
from scipy.optimize import linear_sum_assignment

from . import __version__
from .errors import DataError, NumericalError
from .inclust import ClusterConfig, Dendrogram
from .ioutil import make_dir, read_json, write_json, write_text
from .kernels import (
    DEFAULT_BANDWIDTH, KernelSet, build_or_load_kernelset, check_bandwidth, cross_kernel, pairwise_dtw,
)
from .mkd import Dictionary, TrainConfig, train
from .mtsdata import Dataset, SynthConfig, save_dataset, synth_dataset
from .zeroshot import (
    DEFAULT_THRESHOLD, EncodingMatrix, ReconstructionReport, check_threshold, encode, encoding_matrix,
    reconstruction_report,
)

# Published results for this method family on the four motion benchmarks
# (Cricket, CMU, Words, Squat); kept as report context only, the datasets
# themselves are not redistributable.
BENCHMARK_REFERENCE = {
    "dra_percent": {"cricket": 76.4, "cmu": 84.5, "words": 80.2, "squat": 62.6},
    "ce_percent": {"words": 12.31, "squat": 0.0, "cmu": 9.28, "cricket": 0.0},
    "nmi": {"words": 0.89, "squat": 1.0, "cmu": 0.92, "cricket": 1.0},
}

# What every run report holds besides its stages' outputs
_REPORT_BASE = {"version": __version__, "benchmark_reference": BENCHMARK_REFERENCE}


@dataclass(frozen=True)
class ClusterScore:
    ce: float
    nmi: float
    contingency: np.ndarray


def _aligned(pred: dict[str, int], truth: dict[str, int]):
    if set(pred) != set(truth):
        raise DataError("prediction and truth cover different id sets")
    ids = sorted(pred)
    p = np.array([pred[i] for i in ids])
    t = np.array([truth[i] for i in ids])
    return p, t


def contingency_table(pred: dict[str, int], truth: dict[str, int]) -> np.ndarray:
    p, t = _aligned(pred, truth)
    p_vals, p_inv = np.unique(p, return_inverse=True)
    t_vals, t_inv = np.unique(t, return_inverse=True)
    table = np.zeros((len(p_vals), len(t_vals)), dtype=np.int64)
    np.add.at(table, (p_inv, t_inv), 1)
    return table


def clustering_error(pred: dict[str, int], truth: dict[str, int]) -> float:
    """1 - accuracy of the optimal injective cluster-to-class matching."""
    table = contingency_table(pred, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return 1.0 - table[rows, cols].sum() / table.sum()


def nmi(pred: dict[str, int], truth: dict[str, int]) -> float:
    """Mutual information normalized by sqrt of the partition entropies."""
    table = contingency_table(pred, truth).astype(np.float64)
    n = table.sum()
    pij = table / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    nz = pij > 0
    mi = float(np.sum(pij[nz] * np.log(pij[nz] / np.outer(pi, pj)[nz])))
    hi = float(-np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
    hj = float(-np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    if hi == 0.0 and hj == 0.0:
        return 1.0  # both single-cluster partitions are identical
    if hi == 0.0 or hj == 0.0:
        return 0.0
    return float(min(1.0, max(0.0, mi / np.sqrt(hi * hj))))


def score_clustering(pred: dict[str, int], truth: dict[str, int]) -> ClusterScore:
    return ClusterScore(
        ce=clustering_error(pred, truth),
        nmi=nmi(pred, truth),
        contingency=contingency_table(pred, truth),
    )


def spectral_baseline(unseen: Dataset, bandwidths, num_clusters: int, seed: int = 0) -> dict[str, int]:
    """Normalized spectral clustering on the unseen set's own affinities.

    Affinity between two unseen sequences averages the per-dimension
    Gaussian-of-DTW kernels (same bandwidths as the seen-side kernels).
    """
    if num_clusters < 2:
        raise ValueError("spectral baseline needs at least 2 clusters")
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    if bandwidths.shape != (unseen.dims,):
        raise DataError("bandwidth vector does not match the dimension count")
    n = len(unseen)
    sim = np.zeros((n, n))
    for l in range(unseen.dims):
        d = pairwise_dtw([s.dim(l) for s in unseen.sequences])
        sim += np.exp(-d / bandwidths[l])
    sim /= unseen.dims

    deg = sim.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-300))
    lap = np.eye(n) - inv_sqrt[:, None] * sim * inv_sqrt[None, :]
    try:
        vals, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"spectral baseline eigensolver failed ({exc})") from exc
    basis = vecs[:, :num_clusters]
    norms = np.linalg.norm(basis, axis=1, keepdims=True)
    basis = basis / np.maximum(norms, 1e-300)
    # k-means++ from 8 seeded starts; the lowest inertia wins, ties to the first start
    rng = np.random.default_rng(seed)
    best_inertia = np.inf
    for _ in range(8):
        centers, found = kmeans2(basis, num_clusters, minit="++", seed=rng)
        inertia = float(((basis - centers[found]) ** 2).sum())
        if inertia < best_inertia - 1e-12:
            best_inertia, labels = inertia, found
    return {seq.id: int(labels[i]) for i, seq in enumerate(unseen.sequences)}


def synthesize(cfg: SynthConfig, out_dir: Path) -> tuple[Dataset, Dataset]:
    """Synthesize a seen/unseen pair and save both plus ``provenance.json`` in ``out_dir``."""
    seen, unseen, provenance = synth_dataset(cfg)
    save_dataset(seen, out_dir, "seen")
    save_dataset(unseen, out_dir, "unseen")
    write_json(out_dir / "provenance.json", provenance)
    return seen, unseen


class Description(NamedTuple):
    """One described unseen sequence."""

    id: str
    code: np.ndarray
    encoding: EncodingMatrix
    report: ReconstructionReport

    def row(self) -> dict:
        """The report as JSON: id, DRA, per-dimension errors and attribution."""
        errors = [float(e) for e in self.report.per_dim_error]
        return {"id": self.id, "dra": self.report.dra, "per_dim_error": errors, "attribution": self.report.attribution}


def describe(seen: Dataset, ks: KernelSet, d: Dictionary, unseen: Dataset, t_x: int, threshold: float) -> list[Description]:
    """Code, encode and score every unseen sequence against a trained dictionary.

    Per sequence, in order: ``cross_kernel``, ``encode``, ``encoding_matrix``
    and ``reconstruction_report``, called through this module's names so
    that instrumentation rebinding them (perfbench) sees every call.
    """
    if d.dataset_hash != ks.dataset_hash:
        raise DataError("model and kernel cache were built on different datasets")
    labels = seen.labels()
    out = []
    for seq in unseen.sequences:
        ck = cross_kernel(seen, seq, ks.bandwidths)
        x = encode(d, ks, ck, t_x)
        enc = encoding_matrix(d, x, seq.id)
        out.append(Description(seq.id, x, enc, reconstruction_report(d, ks, ck, x, labels, threshold)))
    return out


def cluster(encodings: list[tuple[str, np.ndarray]], cfg: ClusterConfig, order_seed: int | None) -> Dendrogram:
    """Insert (id, encoding matrix) pairs into a new dendrogram.

    With an ``order_seed``, pair ``order[i]`` arrives i-th, where ``order =
    default_rng(order_seed).permutation(len(encodings))``; without one the
    pairs arrive as given.
    """
    tree = Dendrogram(cfg)
    n = len(encodings)
    for i in range(n) if order_seed is None else np.random.default_rng(order_seed).permutation(n):
        tree.insert(*encodings[i])
    return tree


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Time one stage of ``run_experiment``; an exception raised in it names the stage."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        try:
            wrapped = type(exc)(f"[stage {name}] {exc}")
        except Exception:
            wrapped = RuntimeError(f"[stage {name}] {exc}")
        raise wrapped from exc
    timings[name] = time.perf_counter() - t0


def run_experiment(config: dict, out_dir) -> dict:
    """Synthesize, train, encode, cluster, and score one end-to-end run.

    ``config`` holds field dicts for ``SynthConfig`` (``synth``),
    ``TrainConfig`` (``train``) and ``ClusterConfig`` plus ``order_seed``
    (``cluster``), and optional ``bandwidth`` and ``threshold``; what it
    leaves out takes the library defaults.  The spectral baseline needs at
    least 2 unseen classes, so a config with one is rejected up front.
    Every stage runs with seeds derived from the global seed so reruns are
    bit-identical.  Artifacts and the report land in ``out_dir``; the
    report dict is returned.
    """
    threshold = check_threshold(config.get("threshold", DEFAULT_THRESHOLD))
    bandwidth = check_bandwidth(config.get("bandwidth", DEFAULT_BANDWIDTH))
    synth_cfg = SynthConfig(**config.get("synth", {}))
    if synth_cfg.num_unseen_classes < 2:
        raise DataError("run_experiment needs at least 2 unseen classes, for the spectral baseline's clusters")
    out_dir = make_dir(out_dir)
    timings: dict[str, float] = {}
    with _stage("synth", timings):
        seen, unseen = synthesize(synth_cfg, out_dir / "data")
    with _stage("kernels", timings):
        ks = build_or_load_kernelset(seen, out_dir / "kernels", bandwidth)
    with _stage("train", timings):
        train_cfg = TrainConfig(**config.get("train", {}))
        result = train(seen, ks, train_cfg)
    with _stage("encode", timings):
        described = describe(seen, ks, result.dictionary, unseen, train_cfg.t_x, threshold)
    with _stage("cluster", timings):
        cl_conf = dict(config.get("cluster", {}))
        order_seed = cl_conf.pop("order_seed", synth_cfg.seed)
        tree = cluster([(r.id, r.encoding.values) for r in described], ClusterConfig(**cl_conf), order_seed)
        tree.save(out_dir / "tree.json")
    with _stage("score", timings):
        truth = dict(zip(unseen.ids(), unseen.labels().tolist()))
        pred = tree.flat_clusters()
        ours = score_clustering(pred, truth)
        spectral_pred = spectral_baseline(
            unseen, ks.bandwidths, num_clusters=synth_cfg.num_unseen_classes, seed=synth_cfg.seed
        )
        spectral = score_clustering(spectral_pred, truth)

    report = _REPORT_BASE | {
        "config": config,
        "loss_trace": [float(x) for x in result.loss_trace],
        "dra_mean": float(np.mean([r.report.dra for r in described])),
        "attribution": [r.row() for r in described],
        "clustering": {
            "incremental": {"ce": ours.ce, "nmi": ours.nmi, "clusters": len(set(pred.values()))},
            "spectral_baseline": {"ce": spectral.ce, "nmi": spectral.nmi},
        },
        "timings_sec": {k: round(v, 3) for k, v in timings.items()},
    }
    write_json(out_dir / "score.json", report)
    write_text(out_dir / "report.txt", render_report(report))
    return report


def render_report(report: dict) -> str:
    """Plain-text rendering of a run report (``run_report``'s layout); a stage without output reads "not run"."""

    def stage(label: str, part, text) -> str:
        return f"{label.rstrip()} not run" if part is None else label + text(part)

    lines = [
        f"mkdmts run report (version {report['version']})",
        stage("training loss: ", report.get("loss_trace"),
              lambda t: f"{t[0]:.4f} -> {t[-1]:.4f} over {len(t) - 1} iterations"),
        stage("mean DRA over unseen sequences: ", report.get("dra_mean"), lambda dra: f"{100 * dra:.1f}%"),
        stage("incremental clustering: ", report.get("clustering", {}).get("incremental"),
              lambda c: f"CE {100 * c['ce']:.2f}%  NMI {c['nmi']:.3f}  ({c['clusters']} clusters)"),
        stage("spectral baseline:      ", report.get("clustering", {}).get("spectral_baseline"),
              lambda c: f"CE {100 * c['ce']:.2f}%  NMI {c['nmi']:.3f}"),
        "",
        "published benchmark context (not reproduced here):",
    ]
    ref = report["benchmark_reference"]
    lines += [f"  {name:8s} DRA {ref['dra_percent'][name]:5.1f}%  CE {ref['ce_percent'][name]:5.2f}%  "
              f"NMI {ref['nmi'][name]:.2f}" for name in ("cricket", "cmu", "words", "squat")]
    if "timings_sec" in report:
        lines += ["", "timings (s): " + ", ".join(f"{k}={v}" for k, v in report["timings_sec"].items())]
    return "\n".join(lines) + "\n"


def _part(path: Path, extract) -> dict:
    """The report entries that ``extract`` takes from the JSON in ``path``.

    They are checked by rendering them, so content that cannot be taken or
    rendered is a DataError that names ``path``.
    """
    try:
        part = extract(read_json(path))
        render_report(_REPORT_BASE | part)
        return part
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: cannot render ({type(exc).__name__}: {exc})") from None


def _score_part(score) -> dict:
    """A ``run_experiment`` report as it is, else the clustering entries of ``eval``'s score."""
    return score if "version" in score else {
        "clustering": {"incremental": {"ce": score["ce"], "nmi": score["nmi"], "clusters": score["num_clusters"]}}}


def _dra_part(enc_dir: Path, index) -> dict:
    """The mean DRA over the sequences that ``encode``'s index lists."""
    dras = [_part(enc_dir / f"{sid}.report.json", lambda r: {"dra_mean": r["dra"]})["dra_mean"] for sid in index["ids"]]
    if not dras:
        raise ValueError("lists no encoded sequences")
    return {"dra_mean": float(np.mean(dras))}


def run_report(run_dir) -> dict:
    """The run report of ``run_dir``, in ``run_experiment``'s layout.

    Each part is found by its content in ``run_dir`` or one of its
    subdirectories, and taken from the first that holds it (``run_dir``
    first, then the subdirectories by name).  A ``score.json`` that is a
    ``run_experiment`` report (it has a ``version``) holds every part, so
    the report of such a run is its ``score.json``.  For a CLI run, the
    loss trace comes from the ``meta.json`` that carries one (the model's,
    not the kernel cache's), the mean DRA from the directory with an
    ``index.json`` (``encode``'s), and CE, NMI and the cluster count from
    ``eval``'s ``score.json``.  A stage with no output is left out, and
    ``render_report`` prints it as not run.  A directory that cannot be
    listed or holds no part, and a part that cannot be rendered, is a
    DataError.
    """
    run_dir, report = Path(run_dir), {}
    try:
        dirs = [run_dir, *sorted(p for p in run_dir.iterdir() if p.is_dir())]
    except OSError as exc:
        raise DataError(f"{run_dir}: cannot list run directory ({exc.strerror or exc})") from None
    for d in dirs:
        for name, extract in (("score.json", _score_part), ("index.json", lambda index: _dra_part(d, index)),
                              ("meta.json", lambda meta: {"loss_trace": meta["loss_trace"]} if "loss_trace" in meta else {})):
            if (d / name).is_file():
                report = _part(d / name, extract) | report
    if not report:
        raise DataError(f"{run_dir}: holds no run output")
    return _REPORT_BASE | report
