"""Shared helpers: explicit-embedding oracles, small dataset builders and the CPU path reader.

The explicit-embedding oracle replaces each per-dimension Gram matrix with
V_l' V_l for a random finite-dimensional V_l, so every kernel-space
quantity can be recomputed with ordinary vectors and compared; an unseen
embedding's cross kernel is ``oracles.explicit_unseen``.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pytest

from mkdmts.kernels import KernelSet
from mkdmts.mkd import Dictionary, atom_gram


# The CPU path, as ``cpu_path`` reads it, that the byte-pinned Gram and trainer digests
# (test_kernel_bytes_pinned, test_trainer_bytes_pinned) were recorded on: their bytes pass through numpy's
# SIMD loops and OpenBLAS kernels, whose rounding may differ on another path.
PINNED_ON = (
    "numpy SIMD: MMX SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42 X86_V2 AVX F16C FMA3 AVX2 LAHF CX16 MOVBE BMI BMI2 "
    "LZCNT GFNI VPCLMULQDQ VAES X86_V3 AVX512F AVX512CD AVX512VPOPCNTDQ AVX512VL AVX512BW AVX512DQ AVX512VNNI "
    "AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512BITALG AVX512FP16 AVX512BF16 AVX512_SKX X86_V4 AVX512_CLX "
    "AVX512_CNL AVX512_ICL AVX512_SPR; OpenBLAS core: SkylakeX; BLAS threads: 2"
)


def cpu_path() -> str:
    """The CPU path this process runs numpy on: numpy's enabled SIMD features, the core type of numpy's
    bundled OpenBLAS and its thread count (both "unknown" when that library is not found)."""
    from numpy._core._multiarray_umath import __cpu_features__

    simd = " ".join(name for name, on in __cpu_features__.items() if on)
    core = threads = "unknown"
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))
    if libs:
        blas = ctypes.CDLL(str(libs[0]))
        corename, num_threads = blas.scipy_openblas_get_corename64_, blas.scipy_openblas_get_num_threads64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        num_threads.argtypes, num_threads.restype = [], ctypes.c_int
        core, threads = corename().decode(), num_threads()
    return f"numpy SIMD: {simd}; OpenBLAS core: {core}; BLAS threads: {threads}"


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
