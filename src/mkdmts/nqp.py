"""Greedy non-negative sparse quadratic pursuit.

Minimizes 0.5 * y'Hy + c'y over y >= 0 with at most ``limit`` nonzeros,
for symmetric PSD H.  Support indices are admitted greedily; each
candidate is scored by fully re-solving the restricted problem with
cyclic coordinate descent.  Diagonal H separates and has a closed-form
solver.  A brute-force oracle enumerating all supports is provided for
testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

_CD_TOL = 1e-10
_ORACLE_TOL = 1e-12
_MIN_DECREASE = 1e-12
_DIAG_FLOOR = 1e-14


@dataclass(frozen=True)
class QuadProgram:
    """0.5 * y'Hy + c'y subject to y >= 0, ||y||_0 <= limit."""

    h: np.ndarray
    c: np.ndarray
    limit: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        _check_symmetric(h)
        if c.shape != (h.shape[0],):
            raise ValueError(f"c has shape {c.shape}, expected ({h.shape[0]},)")
        if self.limit < 1:
            raise ValueError("sparsity limit must be at least 1")
        if self.limit > h.shape[0]:
            raise ValueError("sparsity limit exceeds problem size")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", c)


def _check_symmetric(h: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"H must be square, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max()) if h.size else 1.0)
    if float(np.abs(h - h.T).max()) > 1e-10 * scale:
        raise ValueError("H is not symmetric")


def objective(h: np.ndarray, c: np.ndarray, y: np.ndarray) -> float:
    return float(0.5 * y @ h @ y + c @ y)


def _coordinate_descent(h, c, support, y0=None, tol=_CD_TOL, max_iters=500):
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


def nqp_solve(p: QuadProgram, refine_swaps: bool = True) -> np.ndarray:
    """Greedy pursuit for the sparse non-negative quadratic program.

    Admits one support index per round, choosing the candidate whose fully
    re-solved restricted problem decreases the objective most (ties go to
    the lowest index); stops early once no candidate improves by more than
    1e-12.  A final swap-refinement pass exchanges one support index at a
    time while that strictly decreases the objective, repairing the rare
    instances where pure greedy admission locks in a poor support.  The
    result is non-negative with at most ``limit`` nonzeros.
    """
    h, c, limit = p.h, p.c, p.limit
    n = h.shape[0]
    y = np.zeros(n)
    best_obj = 0.0
    support: list[int] = []
    while len(support) < limit:
        best_j, best_y, best_candidate_obj = -1, None, best_obj - _MIN_DECREASE
        for j in range(n):
            if j in support:
                continue
            trial = _coordinate_descent(h, c, support + [j], y0=y)
            obj = objective(h, c, trial)
            if obj < best_candidate_obj:
                best_j, best_y, best_candidate_obj = j, trial, obj
        if best_j < 0:
            break
        support.append(best_j)
        y = best_y
        best_obj = best_candidate_obj
    if refine_swaps and 0 < len(support) < n:
        y, support, best_obj = _swap_refine(h, c, support, y, best_obj)
    y[np.abs(y) < 1e-15] = 0.0
    return y


def diagonal_solve(h_diag: np.ndarray, c: np.ndarray, limit: int) -> np.ndarray:
    """Exact optimum of the program for H = diag(h_diag).

    Coordinate j alone lowers the objective by c_j^2 / (2 h_jj) at
    y_j = -c_j / h_jj when c_j < 0, so the best support holds the ``limit``
    largest such decreases (ties to the lowest index).  As in ``nqp_solve``,
    a coordinate enters only when it decreases the objective by more than
    1e-12, and vanishing diagonal entries are skipped.
    """
    gain = np.zeros(c.shape[0])
    ok = (c < 0.0) & (h_diag > _DIAG_FLOOR)
    gain[ok] = c[ok] ** 2 / (2.0 * h_diag[ok])
    top = np.argsort(-gain, kind="stable")[:limit]
    top = top[gain[top] > _MIN_DECREASE]
    y = np.zeros(c.shape[0])
    y[top] = -c[top] / h_diag[top]
    return y


def _swap_refine(h, c, support, y, obj, max_rounds=20):
    """Exchange single support indices while the objective strictly drops.

    Deterministic: per round the best (out, in) pair wins, ties resolved by
    lowest indices.  Every accepted swap lowers the objective, so the
    monotone-improvement and feasibility contracts are preserved.
    """
    n = h.shape[0]
    for _ in range(max_rounds):
        best = None
        for out in support:
            reduced = [s for s in support if s != out]
            for j in range(n):
                if j in support:
                    continue
                trial = _coordinate_descent(h, c, reduced + [j], y0=None)
                trial_obj = objective(h, c, trial)
                if trial_obj < obj - _MIN_DECREASE and (best is None or trial_obj < best[0]):
                    best = (trial_obj, out, j, trial)
        if best is None:
            break
        obj, out, j, y = best[0], best[1], best[2], best[3]
        support = [s for s in support if s != out] + [j]
    return y, support, obj


def nqp_oracle(p: QuadProgram) -> np.ndarray:
    """Exhaustive reference solver: best restricted solution over all supports.

    Enumerates every support of size <= limit and polishes each from
    several starts; intended for tests, hence the tight size limits.
    """
    h, c, limit = p.h, p.c, p.limit
    n = h.shape[0]
    if n > 12 or limit > 4:
        raise ValueError("oracle limits exceeded (n <= 12, limit <= 4)")
    rng = np.random.default_rng(12345)
    best_y = np.zeros(n)
    best_obj = 0.0
    for size in range(1, limit + 1):
        for support in combinations(range(n), size):
            starts = [None]
            for _ in range(3):
                y0 = np.zeros(n)
                y0[list(support)] = rng.uniform(0.0, 2.0, size=size)
                starts.append(y0)
            for y0 in starts:
                y = _coordinate_descent(h, c, support, y0=y0, tol=_ORACLE_TOL, max_iters=50_000)
                obj = objective(h, c, y)
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_y = y
    best_y = best_y.copy()
    best_y[np.abs(best_y) < 1e-15] = 0.0
    return best_y
