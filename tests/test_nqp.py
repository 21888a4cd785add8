import logging

import numpy as np
import pytest

from mkdmts import mkd
from mkdmts.kernels import build_kernelset
from mkdmts.mtsdata import SynthConfig, synth_dataset
from mkdmts.nqp import (
    QuadProgram,
    _cd_rows,
    _coordinate_descent,
    _dual_bounds,
    _LOCKSTEP_SWEEPS,
    _MIN_DECREASE,
    diagonal_solve,
    nqp_oracle,
    nqp_solve,
    objective,
)


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
    with pytest.raises(ValueError, match="oracle limits"):
        nqp_oracle(QuadProgram(np.eye(13), np.zeros(13), 1))


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
            trial = _coordinate_descent(h, c, support + [j], y0=y)
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
                    trial = _coordinate_descent(h, c, reduced + [j])
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


@pytest.mark.parametrize("max_iters", [1, 2, 3, 7, 500])
def test_lockstep_rows_equal_scalar_coordinate_descent(rng, max_iters):
    # rows stop at different sweeps, some exactly at the cap
    for i, p in enumerate([random_program(rng, n_max=12, t_max=5) for _ in range(20)] + [
        ill_conditioned_program(rng, 5, 3)
    ]):
        n = p.h.shape[0]
        s = int(rng.integers(1, n + 1))
        cols = np.array([rng.permutation(n)[:s] for _ in range(int(rng.integers(1, 9)))])
        y0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
        if i % 4 == 0:
            h = p.h.copy()
            h[0, :] = h[:, 0] = 0.0
            y0[0] = 0.0  # as in every start nqp_solve uses
            p = QuadProgram(h, p.c, p.limit)
        rows = _cd_rows(p.h, p.c, cols, y0, max_iters=max_iters)
        for r, idx in enumerate(cols):
            ref = _coordinate_descent(p.h, p.c, idx, y0=y0, max_iters=max_iters)[idx]
            assert np.array_equal(rows[r], ref)


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


def test_certificate_line_fires_only_when_rows_outlast_the_lockstep(monkeypatch, caplog):
    def messages(p):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="mkdmts.nqp"):
            nqp_solve(p, refine_swaps=False)
        return [r.getMessage() for r in caplog.records]

    certified = [m for m in messages(sample_block_programs(monkeypatch)[1]) if "certified out" in m]
    assert certified and all(m.endswith(f"after {_LOCKSTEP_SWEEPS} sweeps") for m in certified)
    # equicorrelated at 0.7: rows outlast the lockstep but converge long before the cap,
    # and only rows that reach the cap are counted
    n, rng = 6, np.random.default_rng(3)
    moderate = QuadProgram(0.3 * np.eye(n) + 0.7 * np.ones((n, n)), -1.0 - 0.1 * rng.uniform(size=n), 3)
    logged = messages(moderate)
    assert any("certified out" in m for m in logged) and not any("sweep cap" in m for m in logged)
    # well-conditioned: every candidate converges within the lockstep sweeps
    w = rng.normal(size=(8, 8))
    easy = QuadProgram(np.eye(8) + 0.01 * (w @ w.T), -rng.uniform(0.5, 1.0, 8), 3)
    assert not any("certified out" in m for m in messages(easy))


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
        s = int(rng.integers(1, min(n, 4) + 1))
        cols = np.array([rng.permutation(n)[:s] for _ in range(6)])
        y0 = np.zeros(n)
        for sweeps in (1, 3, _LOCKSTEP_SWEEPS):
            bounds = _dual_bounds(p.h, p.c, cols, _cd_rows(p.h, p.c, cols, y0, max_iters=sweeps))
            for idx, bound in zip(cols, bounds):
                block = QuadProgram(p.h[np.ix_(idx, idx)], p.c[idx], s)
                assert bound <= objective(block.h, block.c, nqp_oracle(block))
                final = _coordinate_descent(p.h, p.c, idx, y0=y0)
                assert bound <= objective(p.h, p.c, final)
                certified += bool(np.isfinite(bound))
    assert certified > 800


def test_singular_block_costs_only_its_own_certificate(rng):
    w = rng.normal(size=(6, 8))
    h = w @ w.T / 8
    h[5, :], h[:, 5] = h[0, :], h[:, 0]  # coordinate 5 duplicates 0: the block on {0, 5} is exactly singular
    c = -np.abs(rng.normal(size=6))
    cols = np.array([[1, 2, 3], [0, 1, 5], [2, 3, 4], [1, 3, 4]])
    vals = np.ones(cols.shape)  # every coordinate positive: S is the whole row
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(h[np.ix_(cols[1], cols[1])], -c[cols[1]])
    bounds = _dual_bounds(h, c, cols, vals)
    assert bounds[1] == -np.inf
    alone = [_dual_bounds(h, c, cols[r:r + 1], vals[r:r + 1])[0] for r in (0, 2, 3)]
    assert np.isfinite(alone).all()
    np.testing.assert_array_equal(bounds[[0, 2, 3]], alone)
