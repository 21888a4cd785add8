"""Pipeline stages, clustering metrics, the spectral baseline, experiment orchestration and the run report.

The CLI subcommands and ``run_experiment`` share the stages ``synthesize``,
``describe`` and ``cluster``, and one run report: ``run_report`` reads
either pipeline's run directory into one layout and ``render_report``
prints it.  The encode directory has one writer, ``save_descriptions``,
and one reader of its ``index.json``, which ``load_encodings`` and
``run_report`` share.

Clustering error (CE) is one minus the accuracy of the best injective
cluster-to-class matching on the contingency table, found exactly by the
Hungarian method (Kuhn 1955) with integer potentials.  NMI normalizes
mutual information by the square root of the two partition entropies
(natural logarithm).  The spectral baseline runs a seeded k-means++ on
the unseen set's averaged per-dimension Gaussian-of-DTW affinities.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import DataError, NumericalError
from .inclust import ClusterConfig, Dendrogram
from .ioutil import (
    check_int, file_op, make_dir, malformed, read_json, read_matrix, remove_file, show_path, write_json, write_matrix,
    write_text,
)
from .kernels import (
    DEFAULT_BANDWIDTH, KernelSet, build_or_load_kernelset, check_bandwidth, check_bandwidths, cross_kernel, pairwise_dtw,
)
from .mkd import Dictionary, TrainConfig, train
from .mtsdata import Dataset, SynthConfig, check_ids, save_dataset, synth_dataset
from .zeroshot import (
    DEFAULT_THRESHOLD, EncodingMatrix, ReconstructionReport, check_threshold, encode, encoding_matrix, prepare,
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

# run_experiment's stages in the order they run, which is the order of a report's timings
_STAGES = ("synth", "kernels", "train", "encode", "cluster", "score")

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
    if not pred:
        raise DataError("prediction and truth cover no ids")
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


def _max_matching(table: np.ndarray) -> int:
    """Largest total of an injective row-to-column matching: the Hungarian method with integer potentials.

    It minimizes the negated table, transposed if needed so that rows <= columns and every row is matched.
    """
    cost = (table if table.shape[0] <= table.shape[1] else table.T).tolist()
    n, m = sorted(table.shape)
    u, v = [0] * (n + 1), [0] * (m + 1)
    owner = [0] * (m + 1)  # owner[j]: the 1-based row matched to column j (0: none); column 0 is the root
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        slack, way, done = [np.inf] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while owner[j0]:  # grow a shortest augmenting path from row i until it reaches a free column
            done[j0], i0, delta, j1 = True, owner[j0], np.inf, 0
            for j in range(1, m + 1):
                if not done[j]:
                    reduced = -cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the path's matched and unmatched edges
            owner[j0], j0 = owner[way[j0]], way[j0]
    return sum(cost[owner[j] - 1][j - 1] for j in range(1, m + 1) if owner[j])


def clustering_error(pred: dict[str, int], truth: dict[str, int]) -> float:
    """1 - accuracy of the optimal injective cluster-to-class matching."""
    return _error_of(contingency_table(pred, truth))


def _error_of(table: np.ndarray) -> float:
    return 1.0 - _max_matching(table) / table.sum()


def nmi(pred: dict[str, int], truth: dict[str, int]) -> float:
    """Mutual information normalized by sqrt of the partition entropies."""
    return _nmi_of(contingency_table(pred, truth))


def _nmi_of(table: np.ndarray) -> float:
    table = table.astype(np.float64)
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
    """CE, NMI and the contingency table they are both computed from, built once."""
    table = contingency_table(pred, truth)
    return ClusterScore(ce=_error_of(table), nmi=_nmi_of(table), contingency=table)


def _kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means++ (Arthur and Vassilvitskii 2007): of 8 starts from one generator, the lowest inertia wins."""
    rng, n = np.random.default_rng(seed), len(points)
    best_labels, best_inertia = None, np.inf
    for _ in range(8):
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[int(rng.integers(n))]
        closest = ((points - centers[0]) ** 2).sum(1)
        for j in range(1, k):
            total = closest.sum()
            if total <= 0:
                centers[j] = points[int(rng.integers(n))]
                continue
            centers[j] = points[int(rng.choice(n, p=closest / total))]
            closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(1))
        labels = None
        for _ in range(100):
            new_labels = np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1), axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(k):
                mask = labels == j
                if mask.any():
                    centers[j] = points[mask].mean(0)
        inertia = float(((points - centers[labels]) ** 2).sum())
        if inertia < best_inertia - 1e-12:
            best_inertia, best_labels = inertia, labels
    return best_labels


def spectral_baseline(unseen: Dataset, bandwidths, num_clusters: int, seed: int = 0) -> dict[str, int]:
    """Normalized spectral clustering on the unseen set's own affinities.

    Affinity between two unseen sequences averages the per-dimension
    Gaussian-of-DTW kernels (same bandwidths as the seen-side kernels).
    """
    if num_clusters < 2:
        raise ValueError("spectral baseline needs at least 2 clusters")
    bandwidths = check_bandwidths(bandwidths, unseen.dims)
    n = len(unseen)
    sim = np.zeros((n, n))
    for d, delta in zip(pairwise_dtw(unseen), bandwidths):
        sim += np.exp(-d / delta)
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
    labels = _kmeans(basis, num_clusters, seed)
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

    First ``zeroshot.prepare`` checks the inputs and builds the dictionary's
    describe state for the longest unseen sequence, so no describe pays
    for set-up.  Then per sequence, in order: ``cross_kernel``, ``encode``,
    ``encoding_matrix`` and ``reconstruction_report`` (given the R just
    built), called through this module's names so that instrumentation
    rebinding them (perfbench) sees every call.  The seen set must be
    labeled; the model, ``ks`` and the cross kernels must come from one
    seen set, and ``mkd.code_solver`` checks ``t_x``.
    """
    labels = seen.labels()
    prepare(d, ks, seen, labels, t_x, threshold, max(seq.length for seq in unseen.sequences))
    out = []
    for seq in unseen.sequences:
        ck = cross_kernel(seen, seq, ks.bandwidths)
        x = encode(d, ks, ck, t_x)
        enc = encoding_matrix(d, x, seq.id)
        out.append(Description(seq.id, x, enc, reconstruction_report(d, ks, ck, x, labels, threshold, r=enc.values)))
    return out


def save_descriptions(described: list[Description], out_dir) -> None:
    """Write the encode directory: per id ``ID.code.json``, ``ID.R.bin`` and ``ID.report.json``, then ``index.json``.

    The old ``index.json`` is removed first and the new one written last,
    so an interrupted rewrite leaves no index beside a mix of old and new files.
    """
    out = make_dir(out_dir)
    remove_file(out / "index.json")
    for r in described:
        write_json(out / f"{r.id}.code.json", {"id": r.id, "code": [float(v) for v in r.code]})
        write_matrix(out / f"{r.id}.R.bin", r.encoding.values)
        write_json(out / f"{r.id}.report.json", r.row() | {"threshold": r.report.threshold})
    write_json(out / "index.json", {"ids": [r.id for r in described]})


def _index_ids(index, path: Path) -> list[str]:
    """The sequence ids of ``index``, the JSON read from the ``index.json`` at ``path``.

    They must be a non-empty list of ids that pass ``check_ids``; anything else is a DataError.
    """
    ids = index.get("ids") if isinstance(index, dict) else None
    where = show_path(path)
    if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
        raise DataError(f'{where}: expected {{"ids": [sequence ids]}}')
    if not ids:
        raise DataError(f"{where} lists no encoded sequences")
    check_ids(ids, f"{where}: ")
    return ids


def load_encodings(enc_dir) -> list[tuple[str, np.ndarray]]:
    """(id, encoding matrix) of every sequence that the encode directory's ``index.json`` lists, in its order."""
    path = Path(enc_dir) / "index.json"
    return [(sid, read_matrix(path.parent / f"{sid}.R.bin")) for sid in _index_ids(read_json(path), path)]


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


def _build(cls, section: str, values: dict):
    """``cls(**values)``; a field that ``cls`` does not have is a ValueError that names it."""
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} config keys {sorted(unknown)}")
    return cls(**values)


def run_experiment(config: dict, out_dir) -> dict:
    """Synthesize, train, encode, cluster, and score one end-to-end run.

    ``config`` holds field dicts for ``SynthConfig`` (``synth``),
    ``TrainConfig`` (``train``) and ``ClusterConfig`` plus ``order_seed``
    (``cluster``; an integer >= 0 seeds ``cluster``'s arrival order, None
    keeps the given order, and it defaults to the synth seed), and optional
    ``bandwidth`` and ``threshold``; what it leaves out takes the library
    defaults.  The whole config is checked before anything is written: an
    unknown key at either level is a ValueError that names it, and so is
    a bad field value.  The spectral baseline needs at least 2 unseen
    classes, so a config with one is rejected up front too.
    Every stage runs with seeds derived from the global seed so reruns are
    bit-identical.  Artifacts and the report land in ``out_dir``; the
    report dict is returned.
    """
    unknown = set(config) - {"synth", "train", "cluster", "bandwidth", "threshold"}
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    threshold = check_threshold(config.get("threshold", DEFAULT_THRESHOLD))
    bandwidth = check_bandwidth(config.get("bandwidth", DEFAULT_BANDWIDTH))
    synth_cfg = _build(SynthConfig, "synth", config.get("synth", {}))
    if synth_cfg.num_unseen_classes < 2:
        raise DataError("run_experiment needs at least 2 unseen classes, for the spectral baseline's clusters")
    cl_conf = dict(config.get("cluster", {}))
    order_seed = cl_conf.pop("order_seed", synth_cfg.seed)
    if order_seed is not None:
        check_int("cluster.order_seed", order_seed, 0)
    train_cfg = _build(TrainConfig, "train", config.get("train", {}))
    cluster_cfg = _build(ClusterConfig, "cluster", cl_conf)
    out_dir = make_dir(out_dir)
    timings: dict[str, float] = {}
    with _stage("synth", timings):
        seen, unseen = synthesize(synth_cfg, out_dir / "data")
    with _stage("kernels", timings):
        ks = build_or_load_kernelset(seen, out_dir / "kernels", bandwidth)
    with _stage("train", timings):
        result = train(seen, ks, train_cfg)
    with _stage("encode", timings):
        described = describe(seen, ks, result.dictionary, unseen, train_cfg.t_x, threshold)
    with _stage("cluster", timings):
        tree = cluster([(r.id, r.encoding.values) for r in described], cluster_cfg, order_seed)
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
        timings = sorted(report["timings_sec"].items(), key=lambda item: _STAGES.index(item[0]))
        lines += ["", "timings (s): " + ", ".join(f"{k}={v}" for k, v in timings)]
    return "\n".join(lines) + "\n"


def _part(path: Path, extract) -> dict:
    """The report entries that ``extract`` takes from the JSON in ``path``.

    They are checked by rendering them, so content that cannot be taken or
    rendered is a DataError that names ``path``.
    """
    with malformed(f"{show_path(path)}: cannot render"):
        part = extract(read_json(path))
        render_report(_REPORT_BASE | part)
        return part


def _score_part(score) -> dict:
    """A ``run_experiment`` report as it is, else the clustering entries of ``eval``'s score."""
    return score if "version" in score else {
        "clustering": {"incremental": {"ce": score["ce"], "nmi": score["nmi"], "clusters": score["num_clusters"]}}}


def _dra_part(enc_dir: Path, index) -> dict:
    """The mean DRA over the sequences that ``encode``'s index lists."""
    dras = [_part(enc_dir / f"{sid}.report.json", lambda r: {"dra_mean": r["dra"]})["dra_mean"]
            for sid in _index_ids(index, enc_dir / "index.json")]
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
    with file_op(run_dir, "list run directory"):
        dirs = [run_dir, *sorted(p for p in run_dir.iterdir() if p.is_dir())]
    for d in dirs:
        for name, extract in (("score.json", _score_part), ("index.json", lambda index: _dra_part(d, index)),
                              ("meta.json", lambda meta: {"loss_trace": meta["loss_trace"]} if "loss_trace" in meta else {})):
            if (d / name).is_file():
                report = _part(d / name, extract) | report
    if not report:
        raise DataError(f"{show_path(run_dir)}: holds no run output")
    return _REPORT_BASE | report
