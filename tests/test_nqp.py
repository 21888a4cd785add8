import logging
import math
import warnings

import numpy as np
import pytest

from mkdmts import mkd, nqp
from mkdmts.kernels import build_kernelset
from mkdmts.mtsdata import SynthConfig, synth_dataset
from mkdmts.nqp import (
    QuadProgram,
    _CD_TOL,
    _DIAG_FLOOR,
    _EXACT_SUPPORTS,
    _dual_bounds,
    _finish_row,
    _MIN_DECREASE,
    _pick,
    _ROUND_MARGIN,
    column_solver,
    diagonal_solve,
    nqp_solve,
    objective,
)
from oracles import coordinate_descent, nqp_oracle


def random_program(rng, diag_only=False, n_max=8, t_max=3):
    n = int(rng.integers(2, n_max + 1))
    t = int(min(rng.integers(1, t_max + 1), n))
    if diag_only:
        h = np.diag(rng.uniform(0.1, 2.0, n))
    else:
        w = rng.normal(size=(n, n + 2))
        h = w @ w.T / (n + 2)
    return QuadProgram(h, rng.normal(size=n), t)


def test_single_coordinate_closed_form():
    p = QuadProgram(np.eye(3), np.array([-1.0, 0.0, 0.0]), 1)
    y = nqp_solve(p)
    np.testing.assert_allclose(y, [1.0, 0.0, 0.0], atol=1e-12)
    assert objective(p.h, p.c, y) == pytest.approx(-0.5, abs=1e-12)


def test_nonnegative_c_gives_zero():
    p = QuadProgram(np.eye(4), np.array([0.0, 1.0, 2.0, 0.5]), 2)
    assert not nqp_solve(p).any()


def test_oracle_picks_better_single_support():
    p = QuadProgram(np.eye(2), np.array([-1.0, -2.0]), 1)
    np.testing.assert_allclose(nqp_oracle(p), [0.0, 2.0], atol=1e-10)


def test_oracle_recovers_feasible_unconstrained_optimum(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        w = rng.normal(size=(n, n + 2))
        h = w @ w.T / (n + 2) + 0.2 * np.eye(n)
        y_star = rng.uniform(0.1, 1.5, size=n)
        p = QuadProgram(h, -h @ y_star, n if n <= 4 else 4)
        if p.limit < n:
            continue
        y = nqp_oracle(p)
        assert objective(h, p.c, y) == pytest.approx(-0.5 * y_star @ h @ y_star, rel=1e-8)


def test_feasibility_properties(rng):
    for _ in range(200):
        p = random_program(rng)
        y = nqp_solve(p)
        assert (y >= 0).all()
        assert np.count_nonzero(y) <= p.limit
        assert objective(p.h, p.c, y) <= 1e-15  # zero is always feasible


def test_diagonal_h_matches_oracle_exactly(rng):
    for _ in range(100):
        p = random_program(rng, diag_only=True)
        yo = nqp_oracle(p)
        for y in (nqp_solve(p), diagonal_solve(np.diag(p.h), p.c, p.limit)):
            assert (y >= 0).all() and np.count_nonzero(y) <= p.limit
            assert objective(p.h, p.c, y) == pytest.approx(objective(p.h, p.c, yo), abs=1e-10)


def test_solver_never_beats_oracle(rng):
    for _ in range(50):
        p = random_program(rng)
        assert objective(p.h, p.c, nqp_oracle(p)) <= objective(p.h, p.c, nqp_solve(p)) + 1e-9


def test_deterministic(rng):
    p = random_program(rng)
    np.testing.assert_array_equal(nqp_solve(p), nqp_solve(p))


def test_validation_errors():
    with pytest.raises(ValueError, match="symmetric"):
        QuadProgram(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), 1)
    with pytest.raises(ValueError, match="at least 1"):
        QuadProgram(np.eye(2), np.zeros(2), 0)
    with pytest.raises(ValueError, match="exceeds"):
        QuadProgram(np.eye(2), np.zeros(2), 3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            QuadProgram(np.array([[1.0, bad], [bad, 1.0]]), np.zeros(2), 1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            QuadProgram(np.eye(2), np.array([bad, -1.0]), 1)
    with pytest.raises(ValueError, match="oracle limits"):
        nqp_oracle(QuadProgram(np.eye(13), np.zeros(13), 1))


@pytest.mark.parametrize("limit", [1.5, True, 0])
@pytest.mark.parametrize("entry", ["QuadProgram", "column_solver", "diagonal_solve"])
def test_sparsity_limit_is_a_positive_integer(entry, limit):
    # unchecked, a limit of 1.5 lets nqp_solve return 2 nonzeros, and column_solver and diagonal_solve fail on it
    # as an index
    h = np.array([[2.0, 0.1, 0.1], [0.1, 2.0, 0.1], [0.1, 0.1, 2.0]])
    run = {
        "QuadProgram": lambda: nqp_solve(QuadProgram(h, -np.ones(3), limit)),
        "column_solver": lambda: column_solver(h, limit)(-np.ones((3, 1))),
        "diagonal_solve": lambda: diagonal_solve(np.diagonal(h), -np.ones(3), limit),
    }[entry]
    with pytest.raises(ValueError, match="sparsity limit"):
        run()


def test_monotone_improvement_over_admissions(rng):
    # growing the sparsity budget never worsens the solution
    for _ in range(20):
        n = 6
        w = rng.normal(size=(n, n + 2))
        h = w @ w.T / (n + 2)
        c = rng.normal(size=n)
        objs = [objective(h, c, nqp_solve(QuadProgram(h, c, t))) for t in range(1, n + 1)]
        assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))


def reference_nqp_solve(p, refine_swaps=True):
    """Per-candidate greedy admission and swap refinement, one scalar CD each."""
    h, c, limit = p.h, p.c, p.limit
    n = h.shape[0]
    y, obj, support = np.zeros(n), 0.0, []
    while len(support) < limit:
        best_j, best_y, best_obj = -1, None, obj - _MIN_DECREASE
        for j in range(n):
            if j in support:
                continue
            trial = coordinate_descent(h, c, support + [j], y0=y)
            trial_obj = objective(h, c, trial)
            if trial_obj < best_obj:
                best_j, best_y, best_obj = j, trial, trial_obj
        if best_j < 0:
            break
        support.append(best_j)
        y, obj = best_y, best_obj
    if refine_swaps and 0 < len(support) < n:
        for _ in range(20):
            best = None
            for out in support:
                reduced = [s for s in support if s != out]
                for j in range(n):
                    if j in support:
                        continue
                    trial = coordinate_descent(h, c, reduced + [j])
                    trial_obj = objective(h, c, trial)
                    if trial_obj < obj - _MIN_DECREASE and (best is None or trial_obj < best[0]):
                        best = (trial_obj, reduced + [j], trial)
            if best is None:
                break
            obj, support, y = best
    y[np.abs(y) < 1e-15] = 0.0
    return y


def ill_conditioned_program(rng, n, limit):
    # equicorrelated coordinates: each sweep shrinks the error only by ~0.999**2,
    # so coordinate descent runs into its sweep cap
    h = 0.001 * np.eye(n) + 0.999 * np.ones((n, n))
    return QuadProgram(h, -1.0 - 1e-5 * rng.uniform(size=n), limit)


def reference_programs():
    rng = np.random.default_rng(20261018)
    programs = []
    for i in range(200):
        n = int(rng.integers(2, 41 if i % 10 == 0 else 13))
        limit = int(min(rng.integers(1, 7), n))
        w = rng.normal(size=(n, n + 2))
        h = w @ w.T / (n + 2)
        c = rng.normal(size=n)
        if i % 7 == 1:
            j = int(rng.integers(n))
            h[j, :] = h[:, j] = 0.0  # vanishing diagonal: the coordinate is skipped
        if i % 11 == 2:
            c = np.abs(c)  # no candidate improves: the greedy stops at once
        if i % 5 == 4:
            # the last coordinate duplicates the first: exact ties go to the lower index
            h[-1, :], c[-1] = h[0, :], c[0]
            h[:, -1] = h[:, 0]
        if i % 13 == 3:
            programs.append(ill_conditioned_program(rng, min(n, 8), min(limit, 3)))
        else:
            programs.append(QuadProgram(h, c, limit))
    return programs


@pytest.mark.parametrize("refine_swaps", [True, False])
def test_lockstep_solver_equals_per_candidate_reference(refine_swaps):
    for p in reference_programs():
        y = nqp_solve(p, refine_swaps=refine_swaps)
        ref = reference_nqp_solve(p, refine_swaps=refine_swaps)
        assert np.array_equal(y, ref)
        assert np.array_equal(np.signbit(y), np.signbit(ref))


def _no_certificate(monkeypatch):
    """Every bound -inf from here on, as for a singular block: ``_pick`` then runs every row."""
    monkeypatch.setattr(nqp, "_dual_bounds", lambda h, c, cols: np.full(len(cols), -np.inf))


def _assert_rows_equal_reference(p, cols, y0, max_iters, monkeypatch):
    """The kernel of each row's size equals ``coordinate_descent`` bit for bit, flag included, and so does the pick.

    ``_pick``, with ``_MAX_SWEEPS`` set to ``max_iters``, with its bounds
    and without a certificate (every row run), returns the row with the
    lowest objective of the reference's values on the row's coordinates,
    ties to the first row.
    """
    hjj = np.diagonal(p.h)
    hdiv = np.where(hjj > _DIAG_FLOOR, hjj, np.inf)
    expected = None
    for r, idx in enumerate(cols):
        ref = coordinate_descent(p.h, p.c, idx, y0=y0, max_iters=max_iters)[idx]
        full = np.zeros(len(p.c))
        full[idx] = ref
        obj = objective(p.h, p.c, full)
        if expected is None or obj < expected[0]:
            expected = (obj, full, r)
        y = y0[idx].tolist()
        converged = _finish_row(len(idx))(y, (p.h @ y0)[idx].tolist(), (-p.c[idx]).tolist(), hjj[idx].tolist(),
                                          hdiv[idx].tolist(), p.h[np.ix_(idx, idx)].T.tolist(), _CD_TOL, max_iters)
        assert np.array_equal(y, ref) and np.array_equal(np.signbit(y), np.signbit(ref))
        # a sweep's largest step is the largest change it makes, so the reference converged within
        # max_iters sweeps exactly when its last sweep changed no coordinate by more than the tolerance
        before = coordinate_descent(p.h, p.c, idx, y0=y0, max_iters=max_iters - 1)[idx]
        assert converged == (np.abs(ref - before).max() <= _CD_TOL)
    with monkeypatch.context() as patch:
        patch.setattr(nqp, "_MAX_SWEEPS", max_iters)
        for certificate in (True, False):
            if not certificate:
                _no_certificate(patch)
            obj, y, r = _pick(p.h, p.c, cols, y0, np.inf)
            assert (obj, r) == (expected[0], expected[2])
            assert np.array_equal(y, expected[1]) and np.array_equal(np.signbit(y), np.signbit(expected[1]))


def _vanishing_first(p, y0):
    """``p`` with a vanishing diagonal at coordinate 0, which ``y0`` is set to zero on, as in every start nqp_solve uses."""
    h = p.h.copy()
    h[0, :] = h[:, 0] = 0.0
    y0[0] = 0.0
    return QuadProgram(h, p.c, p.limit)


@pytest.mark.parametrize("max_iters", [1, 2, 3, 7, 8, 9, 500])
def test_lockstep_rows_equal_scalar_coordinate_descent(rng, monkeypatch, max_iters):
    # rows stop at different sweeps, some exactly at the cap
    for i, p in enumerate([random_program(rng, n_max=12, t_max=5) for _ in range(20)] + [
        ill_conditioned_program(rng, 5, 3)
    ]):
        n = p.h.shape[0]
        s = int(rng.integers(1, n + 1))
        cols = np.array([rng.permutation(n)[:s] for _ in range(int(rng.integers(1, 9)))])
        y0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
        if i % 4 == 0:
            p = _vanishing_first(p, y0)
        _assert_rows_equal_reference(p, cols, y0, max_iters, monkeypatch)
    # every row size up to 8, and 16, runs its own generated kernel
    for s in (*range(1, 9), 16):
        n = s + 2
        w = rng.normal(size=(n, n + 2))
        p = ill_conditioned_program(rng, n, 1) if s % 3 == 0 else QuadProgram(w @ w.T / (n + 2), rng.normal(size=n), 1)
        y0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
        if s % 2 == 0:
            p = _vanishing_first(p, y0)
        # the first row holds coordinate 0
        cols = np.array([rng.permutation(s)] + [rng.permutation(n)[:s] for _ in range(2)])
        _assert_rows_equal_reference(p, cols, y0, max_iters, monkeypatch)


def test_cap_hits_are_logged(caplog):
    p = ill_conditioned_program(np.random.default_rng(3), 6, 2)
    with caplog.at_level(logging.DEBUG, logger="mkdmts.nqp"):
        y = nqp_solve(p, refine_swaps=False)
    assert np.array_equal(y, reference_nqp_solve(p, refine_swaps=False))
    capped = [r.getMessage() for r in caplog.records if "sweep cap" in r.getMessage()]
    assert capped and all("stopped at the 500-sweep cap" in m for m in capped)


def sample_block_programs(monkeypatch):
    """The last sample-block program of a short train on each of four seeded seen sets, N 24-36.

    ``update_atom_samples`` builds them: h = weight * sum_l B[l,i] K_l over
    Grams from ``build_kernelset``, whose clipped eigenvalues and negative
    off-diagonals random programs do not have.
    """
    programs = []
    for seed, per_class, t_a, bandwidth in ((1, 6, 3, 40.0), (2, 9, 5, 4.0), (3, 7, 4, 40.0), (4, 8, 5, 10.0)):
        seen, _, _ = synth_dataset(SynthConfig(seed=seed, samples_per_class=per_class, length_range=(20, 30)))
        ks = build_kernelset(seen, bandwidth=bandwidth)
        captured = []
        solve = mkd.nqp_solve

        def capture(p, refine_swaps=True):
            if not refine_swaps:
                captured.append(p)
            return solve(p, refine_swaps)

        with monkeypatch.context() as patch:
            patch.setattr(mkd, "nqp_solve", capture)
            mkd.train(seen, ks, mkd.TrainConfig(k=4, t_x=2, t_a=t_a, t_beta=1, max_iters=2, seed=seed))
        programs.append(captured[-1])
    return programs


def test_sample_block_programs_equal_per_candidate_reference(monkeypatch, caplog):
    with caplog.at_level(logging.DEBUG, logger="mkdmts.nqp"):
        for p in sample_block_programs(monkeypatch):
            y = nqp_solve(p, refine_swaps=False)
            ref = reference_nqp_solve(p, refine_swaps=False)
            assert np.array_equal(y, ref)
            assert np.array_equal(np.signbit(y), np.signbit(ref))
    # the certificate did rule rows out, so the pick above was made among the survivors
    assert any("certified out" in r.getMessage() and not r.getMessage().startswith("0 ") for r in caplog.records)


def certificate_programs():
    """Seeded programs with n <= 12, with vanishing diagonals, duplicate columns and equicorrelation."""
    rng = np.random.default_rng(20261019)
    for i in range(60):
        n = int(rng.integers(3, 13))
        w = rng.normal(size=(n, n + 2))
        h, c = w @ w.T / (n + 2), rng.normal(size=n)
        if i % 4 == 1:
            h[0, :] = h[:, 0] = 0.0
        if i % 4 == 2:
            h[-1, :], c[-1] = h[0, :], c[0]
            h[:, -1] = h[:, 0]
        yield ill_conditioned_program(rng, n, 3) if i % 4 == 3 else QuadProgram(h, c, 1)


def test_certified_bounds_are_below_oracle_and_final_descent(rng):
    certified = 0
    for p in certificate_programs():
        n = p.h.shape[0]
        y0 = np.zeros(n)
        for _ in range(3):
            s = int(rng.integers(1, min(n, 4) + 1))
            cols = np.array([rng.permutation(n)[:s] for _ in range(6)])
            bounds = _dual_bounds(p.h, p.c, cols)
            for idx, bound in zip(cols, bounds):
                block = QuadProgram(p.h[np.ix_(idx, idx)], p.c[idx], s)
                assert bound <= objective(block.h, block.c, nqp_oracle(block))
                final = coordinate_descent(p.h, p.c, idx, y0=y0)
                assert bound <= objective(p.h, p.c, final)
                certified += bool(np.isfinite(bound))
    assert certified > 800


def test_certified_bounds_hold_on_sample_block_programs(monkeypatch):
    # kernel Grams, N 24-36: the last greedy round's candidates, each run to the end
    for p in sample_block_programs(monkeypatch):
        n = p.h.shape[0]
        y0 = nqp_solve(QuadProgram(p.h, p.c, p.limit - 1), refine_swaps=False)
        support = np.flatnonzero(y0).tolist()
        cols = np.array([support + [j] for j in range(n) if j not in support])
        bounds = _dual_bounds(p.h, p.c, cols)
        assert np.isfinite(bounds).all()
        for idx, bound in zip(cols, bounds):
            assert bound <= objective(p.h, p.c, coordinate_descent(p.h, p.c, idx, y0=y0))


def _record_kernel_runs(monkeypatch, record):
    """Wrap ``_finish_row`` so that each kernel run first passes ``record`` its row's -c, as a list."""
    finish_row = nqp._finish_row

    def spy(s):
        def run(y, hy, neg_c, *rest):
            record(list(neg_c))
            return finish_row(s)(y, hy, neg_c, *rest)
        return run

    monkeypatch.setattr(nqp, "_finish_row", spy)


def test_kernel_runs_only_on_rows_bounded_at_or_below_the_best_reached(monkeypatch):
    # each _pick call records its inputs, its bounds, the -c of each row the kernel runs and its pick
    calls = []
    pick, dual_bounds = nqp._pick, nqp._dual_bounds

    def spy_pick(h, c, cols, y0, bar):
        calls.append({"h": h, "c": c, "cols": cols, "y0": y0, "bar": bar, "runs": []})
        calls[-1]["pick"] = pick(h, c, cols, y0, bar)
        return calls[-1]["pick"]

    def spy_bounds(h, c, cols):
        calls[-1]["bounds"] = dual_bounds(h, c, cols)
        return calls[-1]["bounds"]

    blocks = sample_block_programs(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(nqp, "_pick", spy_pick)
        patch.setattr(nqp, "_dual_bounds", spy_bounds)
        _record_kernel_runs(patch, lambda neg_c: calls[-1]["runs"].append(neg_c))
        for p, swaps in [(p, False) for p in blocks] + [(p, True) for p in certificate_programs()]:
            y = nqp_solve(p, refine_swaps=swaps)
            ref = reference_nqp_solve(p, refine_swaps=swaps)
            assert np.array_equal(y, ref)
            assert np.array_equal(np.signbit(y), np.signbit(ref))
    for call in calls:
        h, c, cols, bounds = call["h"], call["c"], call["cols"], call["bounds"]
        ran = np.argsort(bounds, kind="stable")[:len(call["runs"])]
        # the kernel ran on the lowest bounds, in order
        assert call["runs"] == [(-c[cols[r]]).tolist() for r in ran]
        cut, best = call["bar"], (call["bar"], None, -1)
        for r in ran:
            assert bounds[r] <= cut
            vals = coordinate_descent(h, c, cols[r], y0=call["y0"])[cols[r]]
            y = np.zeros(len(c))
            y[cols[r]] = vals
            obj = objective(h, c, y)
            if obj < best[0] or obj == best[0] and r < best[2]:
                total = sum(vals.tolist())
                best = (obj, y, r)
                cut = obj + _ROUND_MARGIN * (1.0 + total * (0.5 * total * np.abs(h).max() + np.abs(c).max()))
        # the pick is the lowest objective below the bar among the rows run, ties to the first row, and every
        # row left out is bounded above the final cut
        if best[1] is None:
            assert call["pick"] is None
        else:
            assert call["pick"][::2] == best[::2] and np.array_equal(call["pick"][1], best[1])
        assert (np.delete(bounds, ran) > cut).all()
    # rows were left out, and a later row was run after the cut had tightened
    assert sum(len(call["runs"]) for call in calls) < sum(len(call["cols"]) for call in calls)
    assert any(len(call["runs"]) > 1 for call in calls)


def test_tie_goes_to_the_first_row_when_a_later_row_finishes_first(monkeypatch):
    # next to coordinate 0 (y = 3), coordinates 1 (h = 4, c = -2, y = 1/2) and 2 (h = 1, c = -1, y = 1) each reach
    # exactly -5, all in dyadic arithmetic, but row {0, 2} has the lower bound and runs first; the others
    # have c > 0 and are decoupled from 0-2, so they never enter
    rng = np.random.default_rng(20261020)
    w = rng.normal(size=(4, 6))
    h = np.zeros((7, 7))
    h[:3, :3] = np.diag([1.0, 4.0, 1.0])
    h[3:, 3:] = w @ w.T / 6
    p = QuadProgram(h, np.concatenate(([-3.0, -2.0, -1.0], 0.1 * np.abs(rng.normal(size=4)))), 2)
    bounds = _dual_bounds(p.h, p.c, np.array([[0, 1], [0, 2]]))
    assert bounds[1] < bounds[0] < -5.0
    runs = []
    _record_kernel_runs(monkeypatch, runs.append)
    y = nqp_solve(p)
    # the first round's certificate leaves only coordinate 0 to run; the second round's two rows follow
    assert runs[:3] == [[3.0], [3.0, 1.0], [3.0, 2.0]]
    ref = reference_nqp_solve(p)
    assert np.array_equal(y, ref) and np.array_equal(np.signbit(y), np.signbit(ref))
    assert y.tolist() == [3.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_singular_block_costs_only_its_own_certificate(rng):
    w = rng.normal(size=(6, 8))
    h = w @ w.T / 8
    h[5, :], h[:, 5] = h[0, :], h[:, 0]  # coordinate 5 duplicates 0: the block on {0, 5} is exactly singular
    c = -np.abs(rng.normal(size=6))
    cols = np.array([[1, 2, 3], [0, 1, 5], [2, 3, 4], [1, 3, 4]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(h[np.ix_(cols[1], cols[1])], -c[cols[1]])
    bounds = _dual_bounds(h, c, cols)
    assert bounds[1] == -np.inf
    alone = [_dual_bounds(h, c, cols[r:r + 1])[0] for r in (0, 2, 3)]
    assert np.isfinite(alone).all()
    np.testing.assert_array_equal(bounds[[0, 2, 3]], alone)


def column_programs(rng, count=60):
    """(H, C, limit) triples with n <= 12, limit <= 4 and 1-6 columns, some with vanishing or duplicate coordinates."""
    out = []
    for i in range(count):
        n = int(rng.integers(2, 13))
        limit = int(min(rng.integers(1, 5), n))
        w = rng.normal(size=(n, n + 2))
        h = w @ w.T / (n + 2)
        c = rng.normal(size=(n, int(rng.integers(1, 7))))
        if i % 5 == 1:
            j = int(rng.integers(n))
            h[j, :] = h[:, j] = 0.0
        if i % 5 == 2 and n > 2:
            h[-1, :], c[-1] = h[0, :], c[0]
            h[:, -1] = h[:, 0]
        out.append((h, c, limit))
    return out


def test_columns_reach_the_oracle_optimum(rng):
    for h, c, limit in column_programs(rng):
        y = column_solver(h, limit)(c)
        for j in range(c.shape[1]):
            p = QuadProgram(h, c[:, j], limit)
            best = objective(h, p.c, nqp_oracle(p))
            got = objective(h, p.c, y[:, j])
            assert (y[:, j] >= 0).all() and np.count_nonzero(y[:, j]) <= limit
            assert abs(got - best) <= 1e-12 * max(1.0, abs(best))
            assert got <= objective(h, p.c, nqp_solve(p)) + 1e-12 * max(1.0, abs(best))


def test_columns_with_duplicate_atoms_pick_the_lowest_support(rng):
    # coordinate 4 repeats coordinate 0, as two equal atoms do in an atom Gram: the block on {0, 4} is singular
    w = rng.normal(size=(4, 6))
    idx = [0, 1, 2, 3, 0]
    h = (w @ w.T / 6)[np.ix_(idx, idx)]
    c = -np.abs(rng.normal(size=(4, 5)))[idx]
    c[0] -= 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = column_solver(h, 2)(c)
    assert (y[0] > 0).all() and not y[4].any()
    for j in range(c.shape[1]):
        p = QuadProgram(h, c[:, j], 2)
        best = objective(h, p.c, nqp_oracle(p))
        assert objective(h, p.c, y[:, j]) == pytest.approx(best, rel=1e-12, abs=1e-15)


def test_columns_above_the_support_count_run_nqp_solve(rng):
    n, limit = 16, 4
    assert sum(math.comb(n, s) for s in range(1, limit + 1)) > _EXACT_SUPPORTS
    w = rng.normal(size=(n, n + 2))
    h = w @ w.T / (n + 2)
    c = rng.normal(size=(n, 3))
    y = column_solver(h, limit)(c)
    for j in range(3):
        expected = nqp_solve(QuadProgram(h, c[:, j], limit))
        assert y[:, j].tobytes() == expected.tobytes()


def test_columns_solved_together_equal_columns_solved_one_by_one(rng, monkeypatch):
    # a small element budget also splits the batch into chunks of a few columns
    monkeypatch.setattr("mkdmts.nqp._EXACT_ELEMENTS", 64)
    for h, c, limit in column_programs(rng, count=30):
        c = np.concatenate([c, rng.normal(size=(h.shape[0], 5))], axis=1)
        solve = column_solver(h, limit)
        y = solve(c)
        for j in range(c.shape[1]):
            assert y[:, j].tobytes() == solve(c[:, j:j + 1])[:, 0].tobytes()


def test_one_column_solver_equals_a_fresh_solver_per_call(rng):
    """A solver builds its H side once: its calls, in either order, give the bytes of a fresh solver per
    call, and a write to the caller's H after the build does not reach it (below and above the support count)."""
    w = rng.normal(size=(16, 18))
    programs = column_programs(rng, count=20) + [(w @ w.T / 18, rng.normal(size=(16, 2)), 4)]
    for h, c, limit in programs:
        calls = [c, -c, c[:, :1], rng.normal(size=c.shape)]
        fresh = [column_solver(h, limit)(ci).tobytes() for ci in calls]
        solve = column_solver(h, limit)
        h[...] = 0.0
        for order in (range(len(calls)), range(len(calls) - 1, -1, -1)):
            for i in order:
                assert solve(calls[i]).tobytes() == fresh[i]


@pytest.mark.parametrize("h,c,limit,expected", [
    # equal objectives: the first support wins
    (np.eye(3), [-1.0, -1.0, -1.0], 1, [1.0, 0.0, 0.0]),
    # {0, 1} lowers the objective by 5e-15 only, under the 1e-12 bar for a larger support
    (np.eye(2), [-1.0, -1e-7], 2, [1.0, 0.0]),
    # a vanishing diagonal never enters, however large its one-coordinate decrease would be
    (np.diag([1.0, 1e-15]), [-1.0, -1.0], 2, [1.0, 0.0]),
    # the optimum 5e-16 lowers the objective by 1.25e-12, but a value below 1e-15 is zeroed
    (np.array([[1e19]]), [-5e3], 1, [0.0]),
], ids=["tie", "bar", "vanishing", "tiny"])
def test_columns_keep_nqp_solves_conventions(h, c, limit, expected):
    c = np.array(c)
    assert column_solver(h, limit)(c[:, None])[:, 0].tolist() == expected
    assert nqp_solve(QuadProgram(h, c, limit)).tolist() == expected


def test_one_column_equals_that_column_among_many(rng):
    """On seeded programs with n <= 12 and limit <= 3, among them singular blocks (a repeated coordinate),
    vanishing diagonals and columns with no improving support (c >= 0), and on ``nqp_solve``'s conventions,
    ``solve`` of one column gives the bytes of that column solved inside a many-column C."""
    for i in range(60):
        n = int(rng.integers(2, 13))
        limit = int(min(rng.integers(1, 4), n))
        w = rng.normal(size=(n, n + 2))
        h = w @ w.T / (n + 2)
        c = rng.normal(size=(n, 7))
        c[:, 0] = np.abs(c[:, 0])  # no support lowers the objective
        if i % 3 == 1:
            j = int(rng.integers(n))
            h[j, :] = h[:, j] = 0.0
        if i % 3 == 2 and n > 2:
            h[-1, :], c[-1] = h[0, :], c[0]
            h[:, -1] = h[:, 0]
        solve = column_solver(h, limit)
        together = solve(c)
        assert not together[:, 0].any()
        for j in range(c.shape[1]):
            assert solve(c[:, j:j + 1]).tobytes() == together[:, j:j + 1].tobytes()
    # nqp_solve's conventions, each beside a random column: a tie, the 1e-12 bar, a vanishing diagonal
    for h, c, limit in ((np.eye(3), [-1.0, -1.0, -1.0], 1), (np.eye(2), [-1.0, -1e-7], 2),
                        (np.diag([1.0, 1e-15]), [-1.0, -1.0], 2)):
        c = np.stack([c, rng.normal(size=len(c))], axis=1)
        solve = column_solver(h, limit)
        together = solve(c)
        for j in range(2):
            assert solve(c[:, j:j + 1]).tobytes() == together[:, j:j + 1].tobytes()
