"""Multiple-kernel dictionary model and its alternating-optimization trainer.

A dictionary atom is a non-negative combination of training samples
(column of the sample-weight matrix A, shape N x k) on a non-negative
combination of dimensions (column of the dimension-weight matrix B, shape
f x k), living in the stacked per-dimension kernel feature space.  All
quantities are computed purely from the per-dimension Gram matrices; no
explicit feature vectors are ever formed.

Conventions:
  - atom t embeds as sum_l sqrt(B[l,t]) * (feature map of dim l) @ A[:,t]
  - data sample n embeds with all-ones dimension weights
  - codes X have shape k x N, column n coding sample n
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .ioutil import check_int, check_number, is_integer, make_dir, malformed, read_json, read_matrix, remove_file, show_path, write_json, write_matrix
from .kernels import KernelSet, check_bandwidths
from .mtsdata import Dataset
from .nqp import QuadProgram, column_solver, diagonal_solve, nqp_solve, objective

log = logging.getLogger(__name__)

MODEL_FORMAT = "mkd-model-v1"
_NORM_FLOOR = 1e-12
_N_FOLDS = 5  # cross-validation folds in tune


@dataclass
class Dictionary:
    """Sample weights A (N x k) and dimension weights B (f x k) of k atoms.

    ``_describe`` is ``zeroshot``'s: the dictionary-side terms of a describe
    (``zeroshot._dictionary_side``).  It is outside ``__init__``, ``repr`` and
    equality, so ``load_model`` and ``dataclasses.replace`` give an empty one,
    and training never reads it.
    """

    sample_weights: np.ndarray
    dim_weights: np.ndarray
    dataset_hash: str
    _describe: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.sample_weights, dtype=np.float64)
        b = np.asarray(self.dim_weights, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ValueError(f"inconsistent shapes A{a.shape} B{b.shape}")
        if (a < 0).any() or (b < 0).any():
            raise ValueError("dictionary weights must be non-negative")
        self.sample_weights = a
        self.dim_weights = b

    @property
    def k(self) -> int:
        return self.sample_weights.shape[1]

    @property
    def n(self) -> int:
        return self.sample_weights.shape[0]

    @property
    def dims(self) -> int:
        return self.dim_weights.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the alternating trainer.

    Sparsity limits are maximum nonzero counts: t_x for codes, t_a for an
    atom's sample weights, t_beta for its dimension weights.  ``t_a=None``
    defaults to max(1, ceil(N/10)); ``t_beta=None`` defaults to f.
    """

    k: int = 8
    t_x: int = 2
    t_a: int | None = None
    t_beta: int | None = None
    max_iters: int = 30
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "t_x", "t_a", "t_beta", "max_iters", "seed"):
            if getattr(self, name) is not None or name not in ("t_a", "t_beta"):
                check_int(name, getattr(self, name), 0 if name == "seed" else 1)
        check_number("tol", self.tol)

    def resolve(self, n: int, dims: int) -> "TrainConfig":
        t_a = self.t_a if self.t_a is not None else max(1, math.ceil(n / 10))
        t_beta = self.t_beta if self.t_beta is not None else dims
        return replace(self, t_a=min(t_a, n), t_beta=min(t_beta, dims))


@dataclass
class TrainResult:
    dictionary: Dictionary
    codes: np.ndarray
    loss_trace: list[float]


def atom_gram(d: Dictionary, ks: KernelSet) -> np.ndarray:
    """k x k Gram of the atoms: G[t,u] = sum_l sqrt(B[l,t] B[l,u]) A[:,t]' K_l A[:,u]."""
    a, b = d.sample_weights, d.dim_weights
    g = np.zeros((d.k, d.k))
    for l, kl in enumerate(ks.kernels):
        s = np.sqrt(b[l])
        m = a.T @ kl @ a
        g += np.outer(s, s) * m
    return (g + g.T) / 2.0


def atom_data_cross(d: Dictionary, cross) -> np.ndarray:
    """k x M inner products between the atoms and M all-ones-weighted embeddings.

    ``cross[l]`` holds dimension l's kernel values between the N training
    samples and the embeddings (N x M; ``K_l`` itself for the training
    data), so entry (t, m) is sum_l sqrt(B[l,t]) * A[:,t]' cross[l][:,m].
    """
    a, b = d.sample_weights, d.dim_weights
    c = np.zeros((d.k, cross[0].shape[1]))
    for l, cl in enumerate(cross):
        c += np.sqrt(b[l])[:, None] * (a.T @ cl)
    return c


def residuals(d: Dictionary, kernels, cross, self_k, codes) -> np.ndarray:
    """f x M squared feature-space residuals of M coded embeddings, per dimension.

    Codes (k x M) rebuild dimension l of embedding m as w = A diag(sqrt(B[l,:])) x_m,
    leaving self_k[l,m] - 2 w' cross[l][:,m] + w' K_l w.  ``kernels`` are the
    training Grams K_l, ``cross`` and ``self_k`` (f x M) the embeddings' kernel
    values against the training samples and themselves.  Round-off can leave
    values slightly below zero; callers clamp what they report.
    """
    a, b = d.sample_weights, d.dim_weights
    out = np.empty((d.dims, codes.shape[1]))
    for l, (kl, cl) in enumerate(zip(kernels, cross)):
        w = a @ (np.sqrt(b[l])[:, None] * codes)
        out[l] = self_k[l] - 2.0 * np.sum(w * cl, axis=0) + np.sum(w * (kl @ w), axis=0)
    return out


def clamp_residual(values, what: str) -> np.ndarray:
    """Residuals with round-off below zero clamped to zero; the only place one is clamped."""
    values = np.asarray(values, dtype=np.float64)
    if (values < -1e-8).any():
        log.debug("%s clamped to 0 from %.3e", what, values.min())
    return np.maximum(values, 0.0)


def _data_residuals(d: Dictionary, ks: KernelSet, codes: np.ndarray) -> np.ndarray:
    """Per-dimension residuals of the coded training samples (f x N)."""
    self_k = np.stack([np.diag(kl) for kl in ks.kernels])
    return residuals(d, ks.kernels, ks.kernels, self_k, codes)


def compute_loss(d: Dictionary, ks: KernelSet, codes: np.ndarray) -> float:
    """Frobenius reconstruction loss of the coded data, clamped at zero."""
    return float(clamp_residual(np.sum(_data_residuals(d, ks, codes)), "loss"))


def _finite(make, *args) -> np.ndarray:
    """``make(*args)``, computed with overflow ignored; a NumericalError unless every value is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = make(*args)
    if not np.isfinite(values).all():
        raise NumericalError("atom Gram or atom-data cross values are not finite: dictionary weights too large")
    return values


def code_solver(d: Dictionary, ks: KernelSet, t_x: int):
    """The solver of codes of at most t_x atoms against ``d`` on the Grams of ``ks``: ``column_solver``
    of the atom Gram, which ``sparse_codes`` runs.

    While the supports of at most t_x atoms are few, each code is the exact
    optimum over all of them, from one batched inverse of the Gram blocks
    built here.  Weights so large that the atom Gram overflows are a
    NumericalError.  Every path that codes reads t_x here, and it must
    pass ``check_int`` (at least 1), else a ValueError.
    """
    return column_solver(_finite(atom_gram, d, ks), min(check_int("t_x", t_x, 1), d.k))


def sparse_codes(d: Dictionary, solve, cross) -> np.ndarray:
    """k x M sparse non-negative codes of M embeddings, from ``solve`` (``code_solver``) on their cross terms.

    ``cross`` is as in ``atom_data_cross``.  A column's code does not
    depend on the other columns or their order.  Cross terms that overflow
    are a NumericalError.
    """
    return solve(-_finite(atom_data_cross, d, cross))


def update_codes(d: Dictionary, ks: KernelSet, t_x: int) -> np.ndarray:
    """Re-solve every sample's sparse code against the current dictionary."""
    return sparse_codes(d, code_solver(d, ks, t_x), ks.kernels)


def _weighted_gram(d: Dictionary, ks: KernelSet, i: int) -> np.ndarray:
    """K weighted by atom i's dimension weights: sum_l B[l,i] K_l."""
    b = d.dim_weights[:, i]
    out = np.zeros((d.n, d.n))
    for l, kl in enumerate(ks.kernels):
        if b[l] != 0.0:
            out += b[l] * kl
    return out


def _atom_targets(d: Dictionary, ks: KernelSet, codes: np.ndarray, i: int) -> np.ndarray:
    """f x N targets g_l = K_l (x - sum_{t != i} rho_t sqrt(B[l,t]) a_t) of atom i.

    With x = X[i,:] and rho = X x, g_l is what the rest of the dictionary
    leaves for atom i to fit in dimension l; the linear terms of both atom
    blocks are linear in these vectors.
    """
    x = codes[i, :]
    rho = codes @ x
    rho[i] = 0.0
    rest = d.sample_weights @ (np.sqrt(d.dim_weights) * rho).T
    return np.stack([kl @ (x - rest[:, l]) for l, kl in enumerate(ks.kernels)])


def _one_hot_column(ks: KernelSet, j: int, b: np.ndarray) -> np.ndarray:
    """Sample weights of an atom on sample j alone, unit feature norm under dimension weights b."""
    norm_sq = float(sum(b[l] * kl[j, j] for l, kl in enumerate(ks.kernels)))
    a = np.zeros(ks.n)
    a[j] = 1.0 / math.sqrt(max(norm_sq, _NORM_FLOOR))
    return a


def _reinit_dead_atom(d: Dictionary, ks: KernelSet, codes: np.ndarray, i: int) -> None:
    """Re-seed a dead atom on the worst-reconstructed training sample.

    The atom's code row is zeroed first, so the swap itself leaves the
    loss untouched; zeroing the row never increases it (the dead paths
    fire only when the row contributes non-negatively).
    """
    codes[i, :] = 0.0
    errors = _data_residuals(d, ks, codes).sum(axis=0)
    worst = int(np.argmax(errors))
    d.dim_weights[:, i] = 1.0
    d.sample_weights[:, i] = _one_hot_column(ks, worst, d.dim_weights[:, i])
    log.debug("atom %d re-seeded on sample %d", i, worst)


def update_atom_samples(d: Dictionary, ks: KernelSet, codes: np.ndarray, i: int, t_a: int) -> None:
    """Block update of atom i's sample weights, in place.

    Solves the induced non-negative sparse quadratic in a_i, keeps the
    better of {old, new} so the loss never increases, renormalizes the
    atom to unit feature norm, and rescales code row i to compensate.
    """
    xrow = codes[i, :]
    weight = float(xrow @ xrow)
    if weight <= 0.0:
        _reinit_dead_atom(d, ks, codes, i)
        return

    k_beta = _weighted_gram(d, ks, i)
    h = weight * k_beta
    c = -np.sqrt(d.dim_weights[:, i]) @ _atom_targets(d, ks, codes, i)

    limit = min(t_a, d.n)
    # plain greedy here: the keep-better guard below already enforces
    # monotonicity, and swap polishing is too slow at n = N
    new = nqp_solve(QuadProgram(h, c, limit), refine_swaps=False)
    if not new.any():
        _reinit_dead_atom(d, ks, codes, i)
        return
    old = d.sample_weights[:, i]
    if np.count_nonzero(old) <= limit and objective(h, c, new) > objective(h, c, old):
        new = old.copy()

    norm_sq = float(new @ k_beta @ new)
    if norm_sq <= _NORM_FLOOR:
        _reinit_dead_atom(d, ks, codes, i)
        return
    scale = math.sqrt(norm_sq)
    d.sample_weights[:, i] = new / scale
    codes[i, :] = xrow * scale


def update_atom_dims(d: Dictionary, ks: KernelSet, codes: np.ndarray, i: int, t_beta: int) -> None:
    """Block update of atom i's dimension weights, in place.

    Substituting u_l = sqrt(beta_l) turns the block into a diagonal
    non-negative sparse quadratic, whose exact optimum has a closed form;
    beta = u^2 afterwards, scaled to give the atom unit feature norm, with
    code row i rescaled to compensate.
    """
    xrow = codes[i, :]
    weight = float(xrow @ xrow)
    if weight <= 0.0:
        _reinit_dead_atom(d, ks, codes, i)
        return

    ai = d.sample_weights[:, i]
    m = np.array([float(ai @ (kl @ ai)) for kl in ks.kernels])
    c = -2.0 * (_atom_targets(d, ks, codes, i) @ ai)
    u = diagonal_solve(2.0 * weight * m, c, min(t_beta, d.dims))
    if not u.any():
        _reinit_dead_atom(d, ks, codes, i)
        return

    beta = u * u
    norm_sq = float(beta @ m)
    if norm_sq <= _NORM_FLOOR:
        _reinit_dead_atom(d, ks, codes, i)
        return
    d.dim_weights[:, i] = beta / norm_sq
    codes[i, :] = xrow * math.sqrt(norm_sq)


def init_dictionary(ks: KernelSet, cfg: TrainConfig, labels: np.ndarray) -> Dictionary:
    """Atoms seeded on distinct training samples.

    The seeded draw is stratified by ``labels`` (classes visited
    round-robin, seeded shuffle within each class): a uniform draw can
    leave a class with too few atoms to cover its dimensions, a hole the
    alternating updates never escape because under-used twin atoms keep
    sharing codes instead of dying.

    Dimension weights start all-ones when the sparsity bound allows it;
    under a tighter bound the initial columns must already satisfy it, so
    they start one-hot, rotating through the dimensions per class.  A dense
    start under a tight bound would force the first sweep to collapse every
    atom onto its first dimension.
    """
    n = ks.n
    if cfg.k > n:
        raise DataError(f"k={cfg.k} atoms exceed the {n} training samples")
    cfg = cfg.resolve(n, ks.dims)
    rng = np.random.default_rng(cfg.seed)
    pools = {int(c): list(rng.permutation(np.flatnonzero(labels == c))) for c in np.unique(labels)}
    picks, atom_class = [], []
    while len(picks) < cfg.k:
        for cls, pool in pools.items():
            if pool and len(picks) < cfg.k:
                atom_class.append(cls)
                picks.append(int(pool.pop()))
    a = np.zeros((n, cfg.k))
    if cfg.t_beta >= ks.dims:
        b = np.ones((ks.dims, cfg.k))
    else:
        b = np.zeros((ks.dims, cfg.k))
        rotation: dict[int, int] = {}
        for i in range(cfg.k):
            slot = rotation.get(atom_class[i], 0)
            b[slot % ks.dims, i] = 1.0
            rotation[atom_class[i]] = slot + 1
    for i, j in enumerate(picks):
        a[:, i] = _one_hot_column(ks, j, b[:, i])
    return Dictionary(sample_weights=a, dim_weights=b, dataset_hash=ks.dataset_hash)


def train(seen: Dataset, ks: KernelSet, cfg: TrainConfig) -> TrainResult:
    """Alternating optimization: codes, then a samples-and-dimensions sweep per atom.

    The loss trace starts with the zero-code loss of the initial
    dictionary and appends one value per outer iteration; training stops
    at ``max_iters`` or when the relative loss change drops below ``tol``.
    """
    labels = seen.labels()
    if ks.dataset_hash != seen.hash():
        raise DataError("kernel set was built on a different dataset")
    cfg = cfg.resolve(ks.n, ks.dims)
    d = init_dictionary(ks, cfg, labels=labels)
    codes = np.zeros((cfg.k, ks.n))
    trace = [compute_loss(d, ks, codes)]
    for it in range(cfg.max_iters):
        codes = update_codes(d, ks, cfg.t_x)
        for i in range(cfg.k):
            update_atom_samples(d, ks, codes, i, cfg.t_a)
            update_atom_dims(d, ks, codes, i, cfg.t_beta)
        loss = compute_loss(d, ks, codes)
        trace.append(loss)
        prev = trace[-2]
        if abs(prev - loss) / max(prev, _NORM_FLOOR) < cfg.tol:
            break
    log.info("trained k=%d atoms, loss %.4f -> %.4f in %d iterations", cfg.k, trace[0], trace[-1], len(trace) - 1)
    return TrainResult(dictionary=d, codes=codes, loss_trace=trace)


def _stratified_folds(labels: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Deal the samples round-robin into ``_N_FOLDS`` folds, class by class, each class after a seeded shuffle.

    The dealing position carries over from one class to the next, so fold
    sizes differ by at most 1 and each class's counts across the folds
    differ by at most 1, however small the class.
    """
    order = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        order.append(idx[rng.permutation(len(idx))])
    order = np.concatenate(order).astype(np.int64)
    return [np.sort(order[f::_N_FOLDS]) for f in range(_N_FOLDS)]


def _holdout_error(d: Dictionary, sub_ks: KernelSet, full_ks: KernelSet, train_idx, held_idx, t_x: int) -> float:
    """Mean relative reconstruction error of held-out samples (all dimensions)."""
    cols = np.ix_(np.asarray(train_idx), np.asarray(held_idx))
    cross = [kl[cols] for kl in full_ks.kernels]
    self_k = np.stack([np.diag(kl)[held_idx] for kl in full_ks.kernels])
    codes = sparse_codes(d, code_solver(d, sub_ks, t_x), cross)
    resid = clamp_residual(residuals(d, sub_ks.kernels, cross, self_k, codes).sum(axis=0), "held-out error")
    return float(np.mean(resid / np.maximum(self_k.sum(axis=0), _NORM_FLOOR)))


def tune(seen: Dataset, ks: KernelSet, grid: list[tuple[int, int]], base: TrainConfig) -> TrainConfig:
    """Pick (k, t_x) from ``grid`` by stratified ``_N_FOLDS``-fold cross-validated held-out error.

    Ties prefer smaller k, then smaller t_x.  Fold assignment and training
    are fully determined by ``base.seed``.
    """
    if len(seen) < 2 * _N_FOLDS:
        raise DataError(f"cross-validation needs at least {2 * _N_FOLDS} samples")
    labels = seen.labels()
    rng = np.random.default_rng(base.seed)
    folds = _stratified_folds(labels, rng)
    all_idx = np.arange(len(seen))
    scores: dict[tuple[int, int], float] = {}
    for k, t_x in sorted(set(grid)):
        fold_errors = []
        for held in folds:
            train_idx = np.setdiff1d(all_idx, held)
            sub = seen.subset(train_idx)
            sub_ks = ks.subset(train_idx, sub.hash())
            cfg = replace(base, k=min(k, len(train_idx)), t_x=t_x)
            result = train(sub, sub_ks, cfg)
            fold_errors.append(_holdout_error(result.dictionary, sub_ks, ks, train_idx, held, t_x))
        scores[(k, t_x)] = float(np.mean(fold_errors))
        log.info("tune k=%d t_x=%d -> held-out error %.4f", k, t_x, scores[(k, t_x)])
    best = min(sorted(scores), key=lambda kt: (scores[kt], kt))
    return replace(base, k=best[0], t_x=best[1])


def save_model(result: TrainResult, model_dir, cfg: TrainConfig, bandwidths) -> None:
    """Write the model; ``meta.json`` goes last, so an interrupted write leaves none."""
    model_dir = make_dir(model_dir)
    remove_file(model_dir / "meta.json")
    d = result.dictionary
    write_matrix(model_dir / "sample_weights.bin", d.sample_weights)
    write_matrix(model_dir / "dim_weights.bin", d.dim_weights)
    write_matrix(model_dir / "codes.bin", result.codes)
    write_json(
        model_dir / "meta.json",
        {
            "format": MODEL_FORMAT,
            "k": d.k,
            "n": d.n,
            "f": d.dims,
            "t_x": cfg.t_x,
            "t_a": cfg.t_a,
            "t_beta": cfg.t_beta,
            "seed": cfg.seed,
            "dataset_hash": d.dataset_hash,
            "bandwidths": [float(x) for x in np.asarray(bandwidths)],
            "loss_trace": [float(x) for x in result.loss_trace],
        },
    )


def load_model(model_dir) -> tuple[Dictionary, dict]:
    """The dictionary and its ``meta.json``; missing or ill-typed metadata is a DataError, and the bandwidths
    pass ``check_bandwidths``."""
    model_dir, where = Path(model_dir), show_path(model_dir)
    meta = read_json(model_dir / "meta.json")
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != MODEL_FORMAT:
        raise DataError(f"{where}: unknown model format {fmt!r}")
    with malformed(f"{where}: malformed model metadata"):
        for key in ("k", "n", "f", "t_x"):
            if not is_integer(meta[key]) or meta[key] < 1:
                raise ValueError(f"{key} must be an integer of at least 1, got {meta[key]!r}")
        meta["bandwidths"] = check_bandwidths(meta["bandwidths"], meta["f"], ValueError).tolist()
        dataset_hash = str(meta["dataset_hash"])
    a, b = read_matrix(model_dir / "sample_weights.bin"), read_matrix(model_dir / "dim_weights.bin")
    with malformed(f"{where}: malformed model weights"):
        d = Dictionary(sample_weights=a, dim_weights=b, dataset_hash=dataset_hash)
    if (d.k, d.n, d.dims) != (meta["k"], meta["n"], meta["f"]):
        raise DataError(f"{where}: matrix shapes disagree with meta.json")
    return d, meta
