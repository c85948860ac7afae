import numpy as np
import pytest
from scipy.optimize import linprog

from lp_reference import loop_lp_solve
from yuancert import InfeasibleError, InputError, UnboundedError, lp_solve


class TestBasics:
    def test_single_variable(self):
        opt, y = lp_solve([1.0], [[1.0]], [1.0])
        assert opt == pytest.approx(1.0)
        np.testing.assert_allclose(y, [1.0])

    def test_two_variable_simplex(self):
        opt, y = lp_solve([1.0, 1.0], [[1.0, 1.0]], [1.0])
        assert opt == pytest.approx(1.0)
        assert y.min() >= -1e-12
        assert y.sum() == pytest.approx(1.0)

    def test_free_variable(self):
        # maximize -y2 with y1 free, written as y1+ - y1-: y1 + y2 = 3, y2 >= 0
        # -> y2 = 0, y1 = 3
        opt, y = lp_solve([0.0, -0.0, -1.0], [[1.0, -1.0, 1.0]], [3.0])
        assert opt == pytest.approx(0.0)
        assert y[0] - y[1] == pytest.approx(3.0)
        assert y[2] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            lp_solve([1.0], [[0.0]], [1.0])

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            lp_solve([1.0, 0.0], [[0.0, 1.0]], [1.0])

    def test_negative_rhs_handled(self):
        opt, y = lp_solve([-1.0], [[-1.0]], [-2.0])
        assert opt == pytest.approx(-2.0)
        np.testing.assert_allclose(y, [2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            lp_solve([1.0, 2.0], [[1.0]], [1.0])

    def test_constraint_qualification_program(self):
        # vanishing nonnegative combination of gradients (0,0,-1), capped:
        # the last row forces every coefficient to zero, optimum 0
        a = [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [-1.0, -1.0, -1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
        opt, y = lp_solve([1.0, 1.0, 1.0, 0.0], a, [0.0, 0.0, 0.0, 1.0])
        assert opt == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_does_not_cycle(self):
        # redundant constraints with a degenerate vertex
        a = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 0.0, 0.0]]
        opt, y = lp_solve([1.0, 2.0, 3.0], a, [1.0, 2.0, 0.0])
        assert opt == pytest.approx(3.0)
        np.testing.assert_allclose(y, [0.0, 0.0, 1.0], atol=1e-9)


def split(c, a, mask):
    """The standard form of maximizing c.y over a @ y == b, y[j] >= 0 where masked:
    each free y_j as the adjacent columns y_j+ and y_j- (the order `check_mfcq`
    writes), as (c, a) of the split program and the map `back` with y = back.T @ y_split."""
    eye = np.eye(len(c))
    back = np.array([sign * eye[j] for j, keep in enumerate(mask)
                     for sign in ((1.0,) if keep else (1.0, -1.0))])
    return back @ c, a @ back.T, back


def random_program(rng):
    """(c, a_eq, b_eq, mask) of an LP with some free variables, feasible by
    construction (b = a @ y0 for a y0 that keeps the sign constraints)."""
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m, 8))
    a = rng.standard_normal((m, n))
    mask = rng.random(n) < 0.7
    y0 = rng.random(n)
    y0[~mask] = rng.standard_normal((~mask).sum())
    return rng.standard_normal(n), a, a @ y0, mask


class TestAgainstScipy:
    def test_random_instances(self):
        rng = np.random.default_rng(0)
        solved = 0
        for _ in range(60):
            c, a, b, mask = random_program(rng)
            bounds = [(0, None) if keep else (None, None) for keep in mask]
            ref = linprog(-c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
            c_split, a_split, back = split(c, a, mask)
            if ref.status == 3:
                with pytest.raises(UnboundedError):
                    lp_solve(c_split, a_split, b)
                continue
            assert ref.status == 0
            opt, y_split = lp_solve(c_split, a_split, b)
            y = back.T @ y_split
            assert opt == pytest.approx(-ref.fun, abs=1e-7 * (1.0 + abs(ref.fun)))
            assert np.abs(a @ y - b).max() <= 1e-7 * (1.0 + np.abs(b).max())
            assert mask.sum() == 0 or y[mask].min() >= -1e-9
            solved += 1
        assert solved >= 20


def mfcq_program(rng):
    """The LP `check_mfcq` solves, before it splits the p1 free multipliers, for random
    equality and active gradients; small
    integer entries and a cancelling pair make degenerate vertices and ties."""
    n, p1, na = int(rng.integers(2, 6)), int(rng.integers(0, 3)), int(rng.integers(1, 7))
    grads = rng.integers(-2, 3, (p1 + na, n)).astype(float)
    if rng.random() < 0.5:
        grads += 0.1 * rng.standard_normal((p1 + na, n))
    if na >= 2 and rng.random() < 0.5:
        grads[-1] = -grads[-2]
    a = np.vstack([np.hstack([grads.T, np.zeros((n, 1))]),
                   np.concatenate([np.zeros(p1), np.ones(na + 1)])[None]])
    b = np.concatenate([np.zeros(n), [1.0]])
    c = np.concatenate([np.zeros(p1), np.ones(na), [0.0]])
    return c, a, b, np.concatenate([np.zeros(p1, dtype=bool), np.ones(na + 1, dtype=bool)])


class TestAgainstRowByRowReference:
    """The array pivots do the reference's arithmetic, so the optimum and the
    solution compare equal (== ignores the sign of a zero), and failures match."""

    @staticmethod
    def outcome(solve, program):
        try:
            return solve(*program)
        except (InfeasibleError, UnboundedError) as exc:
            return type(exc)

    @pytest.mark.parametrize("draw", [mfcq_program, random_program])
    def test_equal_results(self, draw):
        rng = np.random.default_rng(1)
        for _ in range(100):
            c, a, b, mask = draw(rng)
            program = (*split(c, a, mask)[:2], b)
            got, want = self.outcome(lp_solve, program), self.outcome(loop_lp_solve, program)
            if isinstance(want, type):
                assert got is want
                continue
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
