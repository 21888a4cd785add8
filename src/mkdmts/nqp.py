"""Greedy non-negative sparse quadratic pursuit.

Minimizes 0.5 * y'Hy + c'y over y >= 0 with at most ``limit`` nonzeros,
for symmetric PSD H.  Support indices are admitted greedily; each
candidate is scored by fully re-solving the restricted problem with
cyclic coordinate descent, all candidates of a round in one lockstep
pass.  Diagonal H separates and has a closed-form solver.  An exact
oracle enumerating all supports is provided for testing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

import numpy as np

_CD_TOL = 1e-10
_MIN_DECREASE = 1e-12
_DIAG_FLOOR = 1e-14
_SWAP_ROUNDS = 20

log = logging.getLogger(__name__)


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


def _cd_rows(h, c, cols, y0, tol=_CD_TOL, max_iters=500):
    """Run ``_coordinate_descent`` on many restricted problems in lockstep.

    Row r of the integer array ``cols`` (rows x s) is one problem: cyclic
    coordinate descent over the coordinates ``cols[r]``, in that order,
    started from ``y0``.  Each row keeps its own restricted H block, y and
    Hy, and takes the scalar update with the same operations in the same
    order, so row r ends bit-identical to
    ``_coordinate_descent(h, c, cols[r], y0)[cols[r]]`` (up to the sign of
    zeros, which no later operation can turn into a different value).  A
    row drops out after its first sweep whose largest step is at most
    ``tol``; rows still moving after ``max_iters`` sweeps are logged.
    Coordinates with a vanishing diagonal are never updated, so ``y0`` must
    be zero on them, as every start ``nqp_solve`` uses is.  A step is eight
    ufunc calls into buffers bound once per live-row set; the new y[k] is
    built in a scratch vector that then swaps places with the old one.
    """
    rows, s = cols.shape
    idx = cols.T
    # hcol[k][a, r] = h[cols[r, a], cols[r, k]]: column cols[r, k] of H on row r's coordinates
    hcol = h[idx[None, :, :], idx[:, None, :]]
    hjj = np.diagonal(h)
    # dividing by inf turns the update of a vanishing-diagonal coordinate into a no-op
    hdiv = np.where(hjj > _DIAG_FLOOR, hjj, np.inf)
    state = np.array((y0, h @ y0, -c, hjj, hdiv)).take(idx, axis=1)
    ys, state = list(state[0]), state[1:]  # one vector per coordinate, so each can be swapped
    live = np.arange(rows)
    out = np.empty((s, rows))
    zero = np.zeros(())  # fmax converts a Python 0.0 on every call, a 0-d array it does not
    mul, sub, div, fmax, add = np.multiply, np.subtract, np.divide, np.fmax, np.add
    coords = None
    for _ in range(max_iters):
        if coords is None:
            hy = state[0]
            steps, prod, new = np.empty((s, live.size)), np.empty((s, live.size)), np.empty(live.size)
            coords = list(zip(range(s), *state, hcol, steps))
        for k, hy_k, neg_c_k, hjj_k, hdiv_k, hcol_k, step_k in coords:
            y_k = ys[k]
            mul(hjj_k, y_k, out=new)
            sub(hy_k, new, out=new)
            sub(neg_c_k, new, out=new)
            div(new, hdiv_k, out=new)
            fmax(new, zero, out=new)
            sub(new, y_k, out=step_k)
            ys[k], new = new, y_k
            mul(hcol_k, step_k, out=prod)
            add(hy, prod, out=hy)
        delta = np.maximum.reduce(np.abs(steps, out=prod))
        if np.minimum.reduce(delta) <= tol:
            y = np.array(ys)
            done = delta <= tol
            out[:, live[done]] = y[:, done]
            keep = np.flatnonzero(~done)  # take() keeps the compacted arrays C-contiguous, a mask would not
            live = live[keep]
            if not live.size:
                break
            ys, state, hcol = list(y.take(keep, axis=1)), state.take(keep, axis=2), hcol.take(keep, axis=2)
            coords = None
    if live.size:
        out[:, live] = ys
        log.debug("coordinate descent: %d of %d rows stopped at the %d-sweep cap",
                  live.size, rows, max_iters)
    return out.T


def _first_best(h, c, cols, vals, bar):
    """The lowest-objective candidate below ``bar``, ties to the first row.

    Row r of ``vals`` is a candidate solution on the coordinates ``cols[r]``
    (zero elsewhere).  Returns ``(objective, y, row)`` with y of full
    length, or None when no row goes below ``bar``.  A batched restricted
    objective shortlists the rows within a safe rounding margin of its
    minimum, far above the rounding error of either evaluation; only those
    rows are scored with ``objective`` itself, so the pick equals a
    row-by-row scan.
    """
    hv = np.matmul(h[cols[:, :, None], cols[:, None, :]], vals[:, :, None])[:, :, 0]
    approx = (vals * (0.5 * hv + c[cols])).sum(axis=1)
    total = vals.sum(axis=1).max()  # vals >= 0
    margin = 1e-9 * (1.0 + total * (0.5 * total * np.abs(h).max() + np.abs(c).max()))
    low = approx.min()
    if not low - margin < bar:
        return None
    best = None
    for r in np.flatnonzero(approx <= low + margin):
        y = np.zeros(h.shape[0])
        y[cols[r]] = vals[r]
        obj = objective(h, c, y)
        if obj < bar:
            best, bar = (obj, y, int(r)), obj
    return best


def nqp_solve(p: QuadProgram, refine_swaps: bool = True) -> np.ndarray:
    """Greedy pursuit for the sparse non-negative quadratic program.

    Admits one support index per round, choosing the candidate whose fully
    re-solved restricted problem decreases the objective most (ties go to
    the lowest index); stops early once no candidate improves by more than
    1e-12.  A final swap-refinement pass exchanges one support index at a
    time while that strictly decreases the objective, repairing the rare
    instances where pure greedy admission locks in a poor support: per
    round the best (out, in) pair wins, ties to the earliest support
    position and then the lowest index, for at most 20 rounds.  All
    candidates of a round are solved together by ``_cd_rows``, except in
    the first greedy round, whose one-coordinate problems have a closed
    form.  The result is non-negative with at most ``limit`` nonzeros.
    """
    h, c, limit = p.h, p.c, p.limit
    n = h.shape[0]
    y = np.zeros(n)
    best_obj = 0.0
    support: list[int] = []
    while len(support) < limit:
        outside = [j for j in range(n) if j not in support]
        cols = np.array([support + [j] for j in outside])
        if support:
            vals = _cd_rows(h, c, cols, y)
        else:
            # from zero, descent on one coordinate lands on its clipped closed
            # form in the first sweep and only confirms it in the second
            hjj = h[cols, cols]
            vals = np.fmax(-c[cols] / np.where(hjj > _DIAG_FLOOR, hjj, np.inf), 0.0)
        best = _first_best(h, c, cols, vals, best_obj - _MIN_DECREASE)
        if best is None:
            break
        best_obj, y, r = best
        support.append(outside[r])
    if refine_swaps and 0 < len(support) < n:
        zero = np.zeros(n)
        for _ in range(_SWAP_ROUNDS):
            outside = [j for j in range(n) if j not in support]
            cols = np.array([[s for s in support if s != out] + [j] for out in support for j in outside])
            best = _first_best(h, c, cols, _cd_rows(h, c, cols, zero), best_obj - _MIN_DECREASE)
            if best is None:
                break
            best_obj, y, r = best
            support = cols[r].tolist()
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


def nqp_oracle(p: QuadProgram) -> np.ndarray:
    """Exact reference solver: best restricted solution over all supports.

    The optimum is stationary on its own support S, H_SS y_S = -c_S, so
    one least-squares solve per support of size <= limit, keeping the best
    non-negative solution, finds it; an optimum whose block is singular is
    also reached on a smaller support, which is enumerated too.  Intended
    for tests, hence the tight size limits.
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
