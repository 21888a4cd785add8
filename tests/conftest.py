"""Shared helpers: explicit-embedding oracles and small dataset builders.

The explicit-embedding oracle replaces each per-dimension Gram matrix with
V_l' V_l for a random finite-dimensional V_l, so every kernel-space
quantity can be recomputed with ordinary vectors and compared; an unseen
embedding's cross kernel is ``oracles.explicit_unseen``.
"""

from __future__ import annotations

import numpy as np
import pytest

from mkdmts.kernels import KernelSet
from mkdmts.mkd import Dictionary, atom_gram


def make_explicit_kernelset(rng, n, f, embed_dim_range=(3, 7), dataset_hash="explicit"):
    """KernelSet whose Grams come from explicit random feature vectors."""
    vs = []
    kernels = []
    for _ in range(f):
        d = int(rng.integers(*embed_dim_range))
        v = rng.normal(size=(d, n))
        vs.append(v)
        kernels.append(v.T @ v)
    ks = KernelSet(
        kernels=kernels,
        bandwidths=np.ones(f),
        repair_shift=np.zeros(f),
        dataset_hash=dataset_hash,
    )
    return ks, vs


def random_dictionary(rng, ks, k, t_a=None, t_beta=None, dataset_hash=None):
    """Random valid dictionary: non-negative, sparse, unit-norm atoms."""
    n, f = ks.n, ks.dims
    t_a = t_a or max(1, n // 2)
    t_beta = t_beta or f
    a = np.zeros((n, k))
    b = np.zeros((f, k))
    for i in range(k):
        rows = rng.choice(n, size=t_a, replace=False)
        a[rows, i] = rng.uniform(0.2, 1.0, size=t_a)
        dims = rng.choice(f, size=t_beta, replace=False)
        b[dims, i] = rng.uniform(0.2, 1.0, size=t_beta)
    d = Dictionary(
        sample_weights=a,
        dim_weights=b,
        dataset_hash=dataset_hash or ks.dataset_hash,
    )
    norms = np.sqrt(np.diag(atom_gram(d, ks)))
    d.sample_weights /= norms[None, :]
    return d


def explicit_atoms(d: Dictionary, vs) -> np.ndarray:
    """Stacked explicit feature vectors of every atom, one per column."""
    cols = []
    for t in range(d.k):
        parts = [np.sqrt(d.dim_weights[l, t]) * (vs[l] @ d.sample_weights[:, t]) for l in range(d.dims)]
        cols.append(np.concatenate(parts))
    return np.stack(cols, axis=1)


def explicit_data(vs) -> np.ndarray:
    """Stacked explicit embeddings of every training sample (all-ones weights)."""
    n = vs[0].shape[1]
    return np.stack([np.concatenate([v[:, j] for v in vs]) for j in range(n)], axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
