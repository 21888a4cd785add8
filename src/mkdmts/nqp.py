"""Non-negative sparse quadratic programs: greedy pursuit and exact enumeration.

Minimizes 0.5 * y'Hy + c'y over y >= 0 with at most ``limit`` nonzeros,
for symmetric PSD H.  Many programs that share H and have few supports
(codes: t_x of k atoms) are solved exactly, all columns at once, by the
solver ``column_solver`` builds for H; the rest by greedy pursuit.

In greedy pursuit (``nqp_solve``), support indices are admitted
greedily; a round picks the candidate whose restricted problem, re-solved
by cyclic coordinate descent, has the lowest objective.  Certificate
first: every candidate gets a Wolfe-dual lower bound on its restricted
optimum, from one linear solve over its coordinates, before any sweep.
Candidates then run to the end lowest bound first, each scored once
with ``objective``, and the round stops at the first bound above the
lowest objective already reached (or the round's bar); that candidate
and the rest are ruled out unswept.  The pick and its values are
therefore those of solving every candidate to the end.  The first
greedy round is no exception: from zero, its one-coordinate rows reach
their closed form -c_j / H_jj in the first sweep and confirm it in the
second.

The sweeps run in Python floats, in a straight-line kernel generated for
each row size s (``_finish_row``): every value of the row lives in a
local variable and every coordinate step is written out, so the
interpreter does no indexing or inner looping.  Each step is the
scalar update y_j <- max(0, (-c_j - sum_{i != j} H_ji y_i) / H_jj), with
the IEEE operations of a plain loop over the coordinates in the same
order, so the kernel's results are bit for bit that loop's.  A kernel is compiled
once per size per process; its source has O(s^2) lines, and compiling it
costs about as much as 1000 sweeps at its size.

Diagonal H separates and has a closed-form solver.
"""

from __future__ import annotations

import logging
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .ioutil import check_int, read_only

_CD_TOL = 1e-10
_MAX_SWEEPS = 500  # coordinate-descent sweeps per candidate row; _pick reads it at each call
_MIN_DECREASE = 1e-12
_DIAG_FLOOR = 1e-14
_SWAP_ROUNDS = 20
_EXACT_SUPPORTS = 1200  # most supports column_solver enumerates: the one-column break-even with nqp_solve
_EXACT_ELEMENTS = 1 << 18  # most values per supports x slots x columns array in column_solver
_CERT_SHIFT = 1e-9  # tau in _dual_bounds, relative to the row's largest |c|
_ROUND_MARGIN = 1e-9  # relative slack on objectives and bounds, far above their rounding

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
        if not (np.isfinite(h).all() and np.isfinite(c).all()):
            raise ValueError("H and c must be finite")
        _check_symmetric(h)
        if c.shape != (h.shape[0],):
            raise ValueError(f"c has shape {c.shape}, expected ({h.shape[0]},)")
        check_int("sparsity limit", self.limit, 1)
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


@cache
def _finish_row(s):
    """The coordinate-descent kernel for rows of ``s`` coordinates, compiled on first use.

    The kernel is ``run(y, hy, neg_c, hjj, hdiv, hcol, tol, sweeps)``: it
    runs at most ``sweeps`` sweeps on one row of ``_pick`` and returns
    whether the row converged.  ``y`` and ``hy`` are the row's start and H
    times it on its coordinates; ``neg_c``, ``hjj`` and ``hdiv`` are -c,
    diag(H) and the divisors there, and hcol[k][a] = H[cols[a], cols[k]].
    All of them are lists of Python floats.  The row's final iterate is
    written back into ``y``.

    The source is straight-line: every value is unpacked into a local
    (y_k, g_k for Hy, n_k, d_k, v_k, and h_a_k for each matrix entry), and
    each coordinate's step is written out, with one ``g_a += h_a_k * step``
    line per a.  A step is the scalar update
    y_k <- max(0, (-c_k - (Hy_k - H_kk y_k)) / H_kk), with the IEEE
    operations of a plain loop in the same order, and a double held in a
    local rounds exactly as one held in a list cell, so the kernel's output
    is bit for bit that loop's.  A vanishing diagonal divides by inf, which
    leaves its coordinate at zero.

    The source has O(s^2) lines.  On a 2-vCPU Xeon VM under Python 3.11,
    compiling took 0.3 ms at s = 2, 0.7 ms at s = 5, 16 ms at s = 32 and
    40 ms at s = 64, and 140 ms for every size from 1 to 32; that is as
    much as 600-1400 sweeps at the size, one to three rows at the
    500-sweep cap, so no size needs a cap.  Each size is compiled once per
    process, under the filename ``<nqp._finish_row s=S>``, which keeps
    the sizes apart in profiles.
    """
    ks = range(s)

    def names(prefix, k=""):
        # "y0, y1," for prefix "y": the trailing comma makes s = 1 a tuple too
        return "".join(f"{prefix}{a}{k}, " for a in ks).rstrip()

    body = [
        "def run(y, hy, neg_c, hjj, hdiv, hcol, tol, sweeps):",
        f"    {names('y')} = y",
        f"    {names('g')} = hy",
        f"    {names('n')} = neg_c",
        f"    {names('d')} = hjj",
        f"    {names('v')} = hdiv",
        "    " + " ".join(f"({names('h', f'_{k}')})," for k in ks) + " = hcol",
        "    converged = False",
        "    for _ in range(sweeps):",
        "        delta = 0.0",
    ]
    for k in ks:
        body += [
            f"        new = (n{k} - (g{k} - d{k} * y{k})) / v{k}",
            "        if not new > 0.0:",  # max(0.0, new), NaN included
            "            new = 0.0",
            f"        step = new - y{k}",
            "        if step != 0.0:",
            f"            y{k} = new",
            *(f"            g{a} += h{a}_{k} * step" for a in ks),
            # max(delta, abs(step)) by plain compares, without the calls
            "            if step > delta:",
            "                delta = step",
            "            elif -step > delta:",
            "                delta = -step",
        ]
    body += [
        "        if delta <= tol:",
        "            converged = True",
        "            break",
        f"    y[:] = {names('y')}",
        "    return converged",
    ]
    namespace = {}
    exec(compile("\n".join(body), f"<nqp._finish_row s={s}>", "exec"), namespace)
    return namespace["run"]


def _blockwise(solve, a, *b):
    """``solve`` (``np.linalg.solve`` or ``inv``) on a stack of blocks a[r] at once; a singular a[r] gives NaN."""
    try:
        return solve(a, *b)
    except np.linalg.LinAlgError:
        u = np.full(b[0].shape if b else a.shape, np.nan)
        for r in range(len(a)):
            with suppress(np.linalg.LinAlgError):
                u[r] = solve(a[r], *(x[r] for x in b))
        return u


def _dual_bounds(h, c, cols):
    """Certified lower bounds on the rows' restricted optima; -inf where none is found.

    Row r is the problem on the coordinates C = cols[r].  Let u solve
    H_CC u = tau - c_C, one batched solve for all rows, and let
    lambda = H_CC u + c_C, which is tau up to rounding.  Expanding the
    square,
        f(y) = 0.5 (y-u)'H_CC(y-u) - 0.5 u'H_CC u + lambda'y,
    so if lambda >= 0 on C then f(y) >= -0.5 u'H_CC u for every y >= 0,
    because H is PSD.  The shift tau > 0 keeps lambda positive under
    rounding: the certificate needs lambda >= tau / 2 on every coordinate,
    and tau / 2 above the rounding bound of lambda.  The bound is lowered
    by a rounding margin.  A singular block costs only its own row's
    certificate.
    """
    s = cols.shape[1]
    hcc, cc = h[cols[:, :, None], cols[:, None, :]], c[cols]
    half_tau = 0.5 * _CERT_SHIFT * (1.0 + np.abs(cc).max(axis=1, keepdims=True))
    u = _blockwise(np.linalg.solve, hcc, (2.0 * half_tau - cc)[:, :, None])[:, :, 0]
    ok = np.isfinite(u).all(axis=1)
    u[~ok] = 0.0
    hu = np.matmul(hcc, u[:, :, None])[:, :, 0]
    abs_hu = np.matmul(np.abs(hcc), np.abs(u)[:, :, None])[:, :, 0]
    rounding = 4.0 * (s + 2) * np.finfo(np.float64).eps * (abs_hu + np.abs(cc))  # bounds lambda's error
    ok &= ((hu + cc >= half_tau) & (rounding <= half_tau)).all(axis=1)
    bound = -0.5 * (u * hu).sum(axis=1) - _ROUND_MARGIN * (1.0 + (np.abs(u) * abs_hu).sum(axis=1))
    return np.where(ok, bound, -np.inf)


def _pick(h, c, cols, y0, bar):
    """The round's pick: the candidate with the lowest objective below ``bar``, ties to the first row.

    Row r of the integer array ``cols`` (rows x s) is one candidate: cyclic
    coordinate descent over the coordinates ``cols[r]``, in that order,
    started from ``y0``, each coordinate taking its scalar update in turn
    until no step exceeds ``_CD_TOL`` or ``_MAX_SWEEPS`` sweeps.  Returns
    ``(objective, y, row)``, y the row's iterate on its coordinates and
    zero elsewhere, or None when no row goes below ``bar``.  Coordinates
    with a vanishing diagonal are never updated, so ``y0`` must be zero on
    them, as every start ``nqp_solve`` uses is.

    Certificate first: every row gets a lower bound on its restricted
    objective from one solve over all of its coordinates (``_dual_bounds``,
    which does not read the iterate); it holds at every feasible point, so
    also at the row's final iterate.  Rows then run lowest bound first,
    each to convergence or ``_MAX_SWEEPS`` sweeps in the kernel
    ``_finish_row(s)`` generated for its size, and each is scored once with
    ``objective``.  The cut starts at ``bar`` and becomes the pick's
    objective plus a rounding margin; the first row whose bound is above
    the cut ends the pass.  That row and the rest end above the pick, so
    the pick among the finished rows is the pick among all.  Rows still
    moving after ``_MAX_SWEEPS`` sweeps are logged.
    """
    bounds, cut, best = _dual_bounds(h, c, cols), bar, (bar, None, -1)
    hjj = np.diagonal(h)
    # dividing by inf turns the update of a vanishing-diagonal coordinate into a no-op
    state = np.array((y0, h @ y0, -c, hjj, np.where(hjj > _DIAG_FLOOR, hjj, np.inf)))
    finish = _finish_row(cols.shape[1])
    h_max, c_max = np.abs(h).max(), np.abs(c).max()
    ran = capped = 0
    for r in np.argsort(bounds, kind="stable"):
        if bounds[r] > cut:
            break
        idx = cols[r]
        vals, *rest = state[:, idx].tolist()
        # hcol[k][a] = H[idx[a], idx[k]]: column idx[k] of H on the row's coordinates
        capped += not finish(vals, *rest, h[idx[None, :], idx[:, None]].tolist(), _CD_TOL, _MAX_SWEEPS)
        ran += 1
        y = np.zeros(h.shape[0])
        y[idx] = vals
        obj = objective(h, c, y)
        if (obj, r) < best[::2]:  # below the pick so far (at first bar, with row -1), or a tie on an earlier row
            total = sum(vals)  # vals >= 0; the margin is far above the rounding error of any objective or bound
            best, cut = (obj, y, int(r)), obj + _ROUND_MARGIN * (1.0 + total * (0.5 * total * h_max + c_max))
    log.debug("%d of %d candidates certified out", len(cols) - ran, len(cols))
    if capped:
        log.debug("coordinate descent: %d of %d rows stopped at the %d-sweep cap", capped, len(cols), _MAX_SWEEPS)
    return best if best[1] is not None else None


def nqp_solve(p: QuadProgram, refine_swaps: bool = True) -> np.ndarray:
    """Greedy pursuit for the sparse non-negative quadratic program.

    Admits one support index per round, choosing the candidate whose fully
    re-solved restricted problem decreases the objective most (ties go to
    the lowest index); stops early once no candidate improves by more than
    1e-12.  A final swap-refinement pass exchanges one support index at a
    time while that strictly decreases the objective, repairing the rare
    instances where pure greedy admission locks in a poor support: per
    round the best (out, in) pair wins, ties to the earliest support
    position and then the lowest index, for at most 20 rounds.  Every
    round, greedy or swap, hands all of its candidates to ``_pick``, which
    bounds each from below, finishes them lowest bound first, scores each
    finished one once, and rules out unswept those whose bound is above
    the pick so far or the round's bar; the pick among the finished ones
    is the pick among all.  The result is non-negative with at most
    ``limit`` nonzeros.
    """
    h, c, limit = p.h, p.c, p.limit
    n = h.shape[0]
    y = np.zeros(n)
    best_obj = 0.0
    support: list[int] = []
    while len(support) < limit:
        cols = np.array([support + [j] for j in range(n) if j not in support])
        best = _pick(h, c, cols, y, best_obj - _MIN_DECREASE)
        if best is None:
            break
        best_obj, y, r = best
        support = cols[r].tolist()
    if refine_swaps and 0 < len(support) < n:
        zero = np.zeros(n)
        for _ in range(_SWAP_ROUNDS):
            outside = [j for j in range(n) if j not in support]
            cols = np.array([[s for s in support if s != out] + [j] for out in support for j in outside])
            best = _pick(h, c, cols, zero, best_obj - _MIN_DECREASE)
            if best is None:
                break
            best_obj, y, r = best
            support = cols[r].tolist()
    y[np.abs(y) < 1e-15] = 0.0
    return y


@cache
def _supports(n: int, limit: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Every support of 1 to ``limit`` of n indices as padded rows, and the row range of each size.

    Rows run in order of size, then lexicographically.  A support of size
    s fills its last limit - s slots with n + s, ..., n + limit - 1, which
    index an identity block padded onto H and zeros padded onto c, so every
    row is a limit x limit problem whose padded coordinates solve to zero
    and add exact zeros to the objective.
    """
    rows, ranges = [], []
    for size in range(1, min(limit, n) + 1):
        lo = len(rows)
        rows += [(*s, *range(n + size, n + limit)) for s in combinations(range(n), size)]
        ranges.append((lo, len(rows)))
    return read_only(np.array(rows, dtype=np.intp).reshape(-1, limit)), ranges


def column_solver(h: np.ndarray, limit: int):
    """The solver of the programs (H, c, limit) that share H: ``solve(c)`` takes C (n x M) and returns
    the M solutions, n x M.

    The H side is built here, once: the usable indices, the padded supports
    and, while the supports of at most ``limit`` indices number at most
    ``_EXACT_SUPPORTS``, the blocks H_SS of all supports S and their batched
    inverse, kept slot by slot (column j of every block, contiguous).
    ``solve`` then gives every column its exact optimum: each column solves
    H_SS y = -c_S on every support, and it keeps its lowest objective with
    y_S >= 0.  Ties go to the first support, in order of size and then
    lexicographically, and a larger support wins only if it lowers the
    objective by more than 1e-12, the bar ``nqp_solve`` sets for admitting
    an index.  A singular block costs only its own support: an optimum on
    it is also reached on a smaller support.
    Coordinates with a vanishing diagonal never enter, as in ``nqp_solve``.
    Past the inverse, a column's arithmetic is elementwise, the same
    operations in the same order for one column as for many, so its result
    does not depend on the other columns or on earlier calls; one column,
    as a describe codes, drops the column axis and picks its support size
    by scalar compares.  Above ``_EXACT_SUPPORTS`` each column runs
    ``nqp_solve``.
    """
    h = np.array(h, dtype=np.float64)  # the solver's own copy: later writes to the caller's H do not reach it
    n = h.shape[0] if h.ndim == 2 else -1
    check_int("sparsity limit", limit, -math.inf)  # its range is checked with H's shape, below
    if h.shape != (n, n) or not 1 <= limit <= n:
        raise ValueError(f"need a square H and a sparsity limit from 1 to its size, got {h.shape} and {limit}")
    usable = np.flatnonzero(np.diagonal(h) > _DIAG_FLOOR)
    u = usable.size
    exact = sum(math.comb(u, s) for s in range(1, limit + 1)) <= _EXACT_SUPPORTS
    if exact:
        sets, ranges = _supports(u, limit)
        h_pad = np.eye(u + limit)
        h_pad[:u, :u] = h[usable][:, usable]
        h_ss = h_pad[sets[:, :, None], sets[:, None, :]]
        # slot j of every support: column j of its block and of its inverse, contiguous
        h_slots = list(h_ss.transpose(2, 0, 1).copy())
        inv_slots = list(_blockwise(np.linalg.inv, h_ss).transpose(2, 0, 1).copy())
        step = max(1, _EXACT_ELEMENTS // (len(sets) * limit))

    def enumerate_supports(c_pad, at):
        """Every support's solution of H_SS y = -c_S and its objective, infinite unless y_S >= 0 (a NaN
        from a singular block included), for the padded columns ``c_pad`` (one column, or a column axis
        that ``at`` appends to the slot views)."""
        c_s = c_pad[sets]
        vals = -sum(inv_j[at] * c_s[:, j, None] for j, inv_j in enumerate(inv_slots))
        h_vals = sum(h_j[at] * vals[:, j, None] for j, h_j in enumerate(h_slots))
        terms = vals * (0.5 * h_vals + c_s)
        obj = sum(terms[:, j] for j in range(limit))
        obj[~(vals >= 0.0).all(axis=1)] = np.inf
        return vals, obj

    def solve(c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != n:
            raise ValueError(f"C has shape {c.shape}, expected ({n}, M)")
        m = c.shape[1]
        y = np.zeros((n, m))
        if not exact:
            for j in range(m):
                y[:, j] = nqp_solve(QuadProgram(h, c[:, j], limit))
            return y
        if u == 0:
            return y
        if m == 1:
            c_pad = np.zeros(u + limit)
            c_pad[:u] = c[usable, 0]
            vals, obj = enumerate_supports(c_pad, ())
            best, pick = 0.0, None
            for size, (first, end) in enumerate(ranges, 1):
                r = first + int(obj[first:end].argmin())
                if obj[r] < best - _MIN_DECREASE:
                    best, pick = obj[r], (r, size)
            if pick is not None:
                r, size = pick
                y[usable[sets[r, :size]], 0] = vals[r, :size]
        else:
            for lo in range(0, m, step):
                c_pad = np.zeros((u + limit, min(step, m - lo)))
                c_pad[:u] = c[usable, lo:lo + step]
                vals, obj = enumerate_supports(c_pad, (slice(None), slice(None), None))
                cols = np.arange(c_pad.shape[1])
                best, pick = np.zeros(cols.size), np.full(cols.size, -1)
                for first, end in ranges:
                    r = first + np.argmin(obj[first:end], axis=0)
                    low = obj[r, cols]
                    win = low < best - _MIN_DECREASE
                    best[win], pick[win] = low[win], r[win]
                won = np.flatnonzero(pick >= 0)
                y_pad = np.zeros(c_pad.shape)
                y_pad[sets[pick[won]], won[:, None]] = vals[pick[won], :, won]
                y[usable, lo:lo + step] = y_pad[:u]
        y[np.abs(y) < 1e-15] = 0.0
        return y

    return solve


def diagonal_solve(h_diag: np.ndarray, c: np.ndarray, limit: int) -> np.ndarray:
    """Exact optimum of the program for H = diag(h_diag).

    Coordinate j alone lowers the objective by c_j^2 / (2 h_jj) at
    y_j = -c_j / h_jj when c_j < 0, so the best support holds the ``limit``
    largest such decreases (ties to the lowest index).  As in ``nqp_solve``,
    a coordinate enters only when it decreases the objective by more than
    1e-12, and vanishing diagonal entries are skipped.
    """
    check_int("sparsity limit", limit, 1)
    gain = np.zeros(c.shape[0])
    ok = (c < 0.0) & (h_diag > _DIAG_FLOOR)
    gain[ok] = c[ok] ** 2 / (2.0 * h_diag[ok])
    top = np.argsort(-gain, kind="stable")[:limit]
    top = top[gain[top] > _MIN_DECREASE]
    y = np.zeros(c.shape[0])
    y[top] = -c[top] / h_diag[top]
    return y
