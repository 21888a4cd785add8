"""Greedy non-negative sparse quadratic pursuit.

Minimizes 0.5 * y'Hy + c'y over y >= 0 with at most ``limit`` nonzeros,
for symmetric PSD H.  Support indices are admitted greedily; a round
picks the candidate whose restricted problem, re-solved by cyclic
coordinate descent, has the lowest objective.  A round is "bound, then
finish": all candidates first take a few coordinate-descent sweeps in
lockstep; a candidate still moving then gets a Wolfe-dual lower bound on
its restricted optimum, and is ruled out when that bound is above an
objective another candidate has already reached; the rest run on one at
a time in a scalar loop with the same arithmetic.  The pick and its
values are therefore those of solving every candidate to the end.
Diagonal H separates and has a closed-form solver.  An exact oracle
enumerating all supports is provided for testing.
"""

from __future__ import annotations

import logging
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations

import numpy as np

_CD_TOL = 1e-10
_MIN_DECREASE = 1e-12
_DIAG_FLOOR = 1e-14
_SWAP_ROUNDS = 20
_LOCKSTEP_SWEEPS = 8  # sweeps all candidates of a round run together before the certificate
_CERT_SHIFT = 1e-9  # tau in _dual_bounds, relative to the row's largest |c|
_ROUND_MARGIN = 1e-9  # relative slack on batched objectives and bounds, far above their rounding

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


def _lockstep(h, c, cols, y0, tol, sweeps):
    """Up to ``sweeps`` sweeps of coordinate descent on every row of ``cols`` together.

    Each row keeps its own restricted H block, y and Hy, and takes the
    scalar update with the same operations in the same order as
    ``_coordinate_descent``.  A row drops out after its first sweep whose
    largest step is at most ``tol``.  A step is eight ufunc calls into
    buffers bound once per live-row set; the new y[k] is built in a scratch
    vector that then swaps places with the old one.

    Returns ``(out, live, per_row)``: ``out`` (s x rows) holds every row's
    values, ``live`` the rows still moving, and ``per_row`` for each live
    row the Python-float lists ``_finish_row`` continues from: y, Hy, -c,
    diag(H), the divisors, and hcol with hcol[k][a] = H[cols[r, a], cols[r, k]].
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
    for _ in range(sweeps):
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
            keep = (~done).nonzero()[0]  # take() keeps the compacted arrays C-contiguous, a mask would not
            live = live[keep]
            if not live.size:
                return out, live, []
            ys, state, hcol = list(y.take(keep, axis=1)), state.take(keep, axis=2), hcol.take(keep, axis=2)
            coords = None
    y = np.array(ys)
    out[:, live] = y
    return out, live, list(zip(y.T.tolist(), *state.transpose(0, 2, 1).tolist(), hcol.transpose(2, 0, 1).tolist()))


def _finish_row(y, hy, neg_c, hjj, hdiv, hcol, tol, sweeps):
    """Continue one row of ``_lockstep`` alone, in Python floats, for at most ``sweeps`` sweeps.

    ``y`` and ``hy`` are updated in place.  Each step performs the
    lockstep's IEEE operations in the same order, so the row ends
    bit-identical to running on in lockstep, up to the sign of zeros; a
    zero step, which changes no value, is skipped.  At s = 3-5 a coordinate
    step costs 0.3-0.6 us against 7-13 us for a one-row lockstep step (on
    a 2-vCPU Xeon VM).  Returns whether the row converged.
    """
    coords = list(zip(range(len(y)), neg_c, hjj, hdiv, (list(enumerate(col)) for col in hcol)))
    for _ in range(sweeps):
        delta = 0.0
        for k, neg_c_k, hjj_k, hdiv_k, hcol_k in coords:
            y_k = y[k]
            new = (neg_c_k - (hy[k] - hjj_k * y_k)) / hdiv_k
            if not new > 0.0:  # the lockstep's fmax(new, 0)
                new = 0.0
            step = new - y_k
            if step != 0.0:
                y[k] = new
                for a, h_ak in hcol_k:
                    hy[a] += h_ak * step
                size = abs(step)  # plain compares: max() would cost a third of the step
                if size > delta:
                    delta = size
        if delta <= tol:
            return True
    return False


def _solve_rows(a, b):
    """Batched ``np.linalg.solve`` of a[r] u[r] = b[r]; a row whose matrix is singular comes back NaN."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        u = np.full(b.shape, np.nan)
        for r in range(len(b)):
            with suppress(np.linalg.LinAlgError):
                u[r] = np.linalg.solve(a[r], b[r])
        return u


def _dual_bounds(h, c, cols, vals):
    """Certified lower bounds on the rows' restricted optima; -inf where none is found.

    Row r is the problem on the coordinates C = cols[r], at the iterate
    vals[r] >= 0.  Let u solve H_SS u = tau - c_S on S, the positive
    coordinates of vals[r] (or, when that fails, all of C), with u = 0
    off S, and let lambda = H_CC u + c_C.  Expanding the square,
        f(y) = 0.5 (y-u)'H_CC(y-u) - 0.5 u'H_CC u + lambda'y,
    so if lambda >= 0 on C then f(y) >= -0.5 u'H_CC u for every y >= 0,
    because H is PSD.  The shift tau > 0 keeps lambda_S positive under
    rounding: the certificate needs lambda >= tau / 2 on every coordinate,
    and tau / 2 above the rounding bound of lambda.  The bound is lowered
    by a rounding margin.  A singular block costs only its own row's
    certificate.
    """
    rows, s = cols.shape
    hcc, cc = h[cols[:, :, None], cols[:, None, :]], c[cols]
    half_tau = 0.5 * _CERT_SHIFT * (1.0 + np.abs(cc).max(axis=1, keepdims=True))
    bounds = np.full(rows, -np.inf)
    for support in (vals > 0.0, np.ones(vals.shape, dtype=bool)):
        todo = np.flatnonzero(bounds == -np.inf)
        m, hm, cm, ht = support[todo], hcc[todo], cc[todo], half_tau[todo]
        u = _solve_rows(np.where(m[:, :, None] & m[:, None, :], hm, np.eye(s)), np.where(m, 2.0 * ht - cm, 0.0))
        ok = np.isfinite(u).all(axis=1)
        u[~ok] = 0.0
        hu = np.matmul(hm, u[:, :, None])[:, :, 0]
        abs_hu = np.matmul(np.abs(hm), np.abs(u)[:, :, None])[:, :, 0]
        rounding = 4.0 * (s + 2) * np.finfo(np.float64).eps * (abs_hu + np.abs(cm))  # bounds lambda's error
        ok &= ((hu + cm >= ht) & (rounding <= ht)).all(axis=1)
        bound = -0.5 * (u * hu).sum(axis=1) - _ROUND_MARGIN * (1.0 + (np.abs(u) * abs_hu).sum(axis=1))
        bounds[todo[ok]] = bound[ok]
    return bounds


def _cd_rows(h, c, cols, y0, bar=None, tol=_CD_TOL, max_iters=500):
    """Run ``_coordinate_descent`` on many restricted problems; with ``bar``, rule out losers.

    Row r of the integer array ``cols`` (rows x s) is one problem: cyclic
    coordinate descent over the coordinates ``cols[r]``, in that order,
    started from ``y0``.  Row r ends bit-identical to
    ``_coordinate_descent(h, c, cols[r], y0)[cols[r]]`` (up to the sign of
    zeros, which no later operation can turn into a different value), or,
    when ``bar`` is given, NaN if it provably is not the lowest restricted
    objective below ``bar``.  Coordinates with a vanishing diagonal are
    never updated, so ``y0`` must be zero on them, as every start
    ``nqp_solve`` uses is.  Rows still moving after ``max_iters`` sweeps
    are logged.  Three phases:

    1. Lockstep: ``_LOCKSTEP_SWEEPS`` sweeps of all rows together
       (``_lockstep``).  Code-solve rounds converge within them.
    2. Certificate, only with ``bar``: each row still moving gets a lower
       bound on its restricted optimum (``_dual_bounds``), which is also
       below its final objective, since every CD iterate is feasible.  A
       row whose bound exceeds the best objective reached so far, by a
       rounding margin, is ruled out.  "Reached so far" covers finished
       rows, the live rows' current iterates (CD never raises a row's
       objective) and ``bar``.
    3. Finish: the other rows run on one at a time (``_finish_row``),
       lowest bound first, and the best objective tightens after each, so
       a later row may still be ruled out.

    A ruled-out row ends above some other row's final objective or above
    ``bar``, so the lowest objective below ``bar``, ties to the first row,
    is the same row among the finished rows as among all of them.
    """
    rows, s = cols.shape
    out, live, per_row = _lockstep(h, c, cols, y0, tol, min(max_iters, _LOCKSTEP_SWEEPS))
    capped = 0
    if live.size and max_iters <= _LOCKSTEP_SWEEPS:
        capped = live.size
    elif live.size:
        bounds, best = np.full(live.size, -np.inf), np.inf
        if bar is not None:
            approx, margin = _objectives(h, c, cols, out.T)
            bounds, best = _dual_bounds(h, c, cols[live], out[:, live].T), min(bar, approx.min() + margin)
        ruled_out = 0
        for i in np.argsort(bounds, kind="stable"):
            r = live[i]
            if bounds[i] > best:
                out[:, r] = np.nan
                ruled_out += 1
                continue
            capped += not _finish_row(*per_row[i], tol, max_iters - _LOCKSTEP_SWEEPS)
            out[:, r] = per_row[i][0]
            obj, margin = _objectives(h, c, cols[r:r + 1], out[None, :, r])
            best = min(best, obj[0] + margin)
        if bar is not None:
            log.debug("%d of %d candidates certified out after %d sweeps", ruled_out, rows, _LOCKSTEP_SWEEPS)
    if capped:
        log.debug("coordinate descent: %d of %d rows stopped at the %d-sweep cap", capped, rows, max_iters)
    return out.T


def _objectives(h, c, cols, vals):
    """Batched restricted objectives of the rows, and a safe rounding margin for them.

    Row r of ``vals`` is a point on the coordinates ``cols[r]`` (zero
    elsewhere); a NaN row gets a NaN objective and leaves the margin alone.
    The batched sums round differently from ``objective``; the margin is
    far above the rounding error of either evaluation.
    """
    hv = np.matmul(h[cols[:, :, None], cols[:, None, :]], vals[:, :, None])[:, :, 0]
    approx = (vals * (0.5 * hv + c[cols])).sum(axis=1)
    total = np.fmax.reduce(vals.sum(axis=1))  # vals >= 0; NaN rows are passed over
    return approx, _ROUND_MARGIN * (1.0 + total * (0.5 * total * np.abs(h).max() + np.abs(c).max()))


def _first_best(h, c, cols, vals, bar):
    """The lowest-objective candidate below ``bar``, ties to the first row.

    Row r of ``vals`` is a candidate solution on the coordinates ``cols[r]``
    (zero elsewhere); NaN rows, ruled out by ``_cd_rows``, are skipped.
    Returns ``(objective, y, row)`` with y of full length, or None when no
    row goes below ``bar``.  ``_objectives`` shortlists the rows within its
    margin of the lowest; only those are scored with ``objective`` itself,
    so the pick equals a row-by-row scan.
    """
    approx, margin = _objectives(h, c, cols, vals)
    low = np.fmin.reduce(approx)  # NaN only when every row is
    if not low - margin < bar:
        return None
    best = None
    for r in (approx <= low + margin).nonzero()[0]:
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
    candidates of a round go to ``_cd_rows`` together, except in the first
    greedy round, whose one-coordinate problems have a closed form.
    ``_cd_rows`` sweeps them in lockstep, rules out with a dual bound the
    ones that cannot beat an objective already reached or the round's bar,
    and finishes the others; the pick among the finished ones is the pick
    among all.  The result is non-negative with at most ``limit`` nonzeros.
    """
    h, c, limit = p.h, p.c, p.limit
    n = h.shape[0]
    y = np.zeros(n)
    best_obj = 0.0
    support: list[int] = []
    while len(support) < limit:
        outside = [j for j in range(n) if j not in support]
        cols = np.array([support + [j] for j in outside])
        bar = best_obj - _MIN_DECREASE
        if support:
            vals = _cd_rows(h, c, cols, y, bar)
        else:
            # from zero, descent on one coordinate lands on its clipped closed
            # form in the first sweep and only confirms it in the second
            hjj = h[cols, cols]
            vals = np.fmax(-c[cols] / np.where(hjj > _DIAG_FLOOR, hjj, np.inf), 0.0)
        best = _first_best(h, c, cols, vals, bar)
        if best is None:
            break
        best_obj, y, r = best
        support.append(outside[r])
    if refine_swaps and 0 < len(support) < n:
        zero = np.zeros(n)
        for _ in range(_SWAP_ROUNDS):
            outside = [j for j in range(n) if j not in support]
            cols = np.array([[s for s in support if s != out] + [j] for out in support for j in outside])
            bar = best_obj - _MIN_DECREASE
            best = _first_best(h, c, cols, _cd_rows(h, c, cols, zero, bar), bar)
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
