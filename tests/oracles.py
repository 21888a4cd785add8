"""Reference implementations that only the tests run.

``coordinate_descent`` is the scalar loop that ``nqp._finish_row``'s
generated kernels reproduce bit for bit, ``nqp_oracle`` the exact sparse
NQP solver by support enumeration, and ``ExplicitCrossKernel`` a cross
kernel given by explicit values, such as those of a random
finite-dimensional embedding (``explicit_unseen``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from mkdmts.nqp import _CD_TOL, _DIAG_FLOOR, _MAX_SWEEPS, QuadProgram, objective


def coordinate_descent(h, c, support, y0=None, tol=_CD_TOL, max_iters=_MAX_SWEEPS):
    """Solve the problem restricted to ``support`` by cyclic coordinate descent.

    Each coordinate takes its non-negative closed-form update
    y_j <- max(0, (-c_j - sum_{i != j} H_ji y_i) / H_jj); coordinates with
    a vanishing diagonal are skipped.
    """
    support = list(support)
    n = h.shape[0]
    y = np.zeros(n) if y0 is None else y0.copy()
    hy = h @ y
    for _ in range(max_iters):
        delta = 0.0
        for j in support:
            hjj = h[j, j]
            if hjj <= _DIAG_FLOOR:
                continue
            new = max(0.0, (-c[j] - (hy[j] - hjj * y[j])) / hjj)
            step = new - y[j]
            if step != 0.0:
                hy += h[:, j] * step
                y[j] = new
                delta = max(delta, abs(step))
        if delta <= tol:
            break
    return y


def nqp_oracle(p: QuadProgram) -> np.ndarray:
    """Exact reference solver: best restricted solution over all supports.

    The optimum is stationary on its own support S, H_SS y_S = -c_S, so
    one least-squares solve per support of size <= limit, keeping the best
    non-negative solution, finds it; an optimum whose block is singular is
    also reached on a smaller support, which is enumerated too.  Hence the
    tight size limits.
    """
    h, c, limit = p.h, p.c, p.limit
    n = h.shape[0]
    if n > 12 or limit > 4:
        raise ValueError("oracle limits exceeded (n <= 12, limit <= 4)")
    best_y = np.zeros(n)
    best_obj = 0.0
    for size in range(1, limit + 1):
        for support in map(list, combinations(range(n), size)):
            y = np.zeros(n)
            y[support] = np.linalg.lstsq(h[np.ix_(support, support)], -c[support], rcond=None)[0]
            obj = objective(h, c, y)
            if (y >= 0.0).all() and obj < best_obj - 1e-15:
                best_obj = obj
                best_y = y
    best_y[np.abs(best_y) < 1e-15] = 0.0
    return best_y


class ExplicitCrossKernel:
    """Explicit cross-kernel values: the members ``encode`` and ``reconstruction_report`` read.

    ``cross`` holds one length-N vector per dimension; ``values(need, kept)``
    returns them where ``need`` is True and 0 elsewhere, as
    ``kernels.CrossKernel.values`` does; it runs no DTW, so it keeps no
    wavefront in ``kept``.
    """

    def __init__(self, cross, self_k, dataset_hash: str):
        self.cross = np.array(cross, dtype=np.float64)
        self.self_k = np.asarray(self_k, dtype=np.float64)
        self.dataset_hash = dataset_hash

    @property
    def dims(self) -> int:
        return len(self.cross)

    def values(self, need: np.ndarray, kept=None) -> np.ndarray:
        return np.where(need, self.cross, 0.0)


def explicit_unseen(rng, vs, dataset_hash="explicit"):
    """A random unseen embedding with unit norm per dimension block.

    Returns (ExplicitCrossKernel, list of per-dimension explicit vectors).
    """
    zs = []
    cross = []
    for v in vs:
        z = rng.normal(size=v.shape[0])
        z /= np.linalg.norm(z)
        zs.append(z)
        cross.append(v.T @ z)
    return ExplicitCrossKernel(cross, np.ones(len(vs)), dataset_hash), zs
