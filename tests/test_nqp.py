import numpy as np
import pytest

from mkdmts.nqp import QuadProgram, diagonal_solve, nqp_oracle, nqp_solve, objective


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
