"""The batched Newton driver gauss_newton."""

import numpy as np

from pencillab._num import gauss_newton, solve_rows, stream


def _cubic_system(A, b):
    """R(x) = A x^3 - b, cubes taken entry by entry, with its square
    Jacobian A diag(3 x^2); singular at x = 0."""
    def system(X):
        R = (X ** 3) @ A.T - b
        J = A * (3.0 * X ** 2)[:, None, :]
        return R, J
    return system


def test_square_linear_systems_converge_in_one_step():
    rng = stream(0, 0x7E57)
    A = rng.normal(size=(50, 3, 3)) + 4.0 * np.eye(3)
    b = rng.normal(size=(50, 3))
    calls = []

    def system(X):
        calls.append(len(X))
        return np.einsum("nij,nj->ni", A, X) - b, A

    X, ok = gauss_newton(system, np.zeros((50, 3)), np.ones(3))
    # one step, then one evaluation that verifies it
    assert calls == [50, 50]
    assert ok.all()
    np.testing.assert_array_equal(X, solve_rows(A, b))


def test_singular_and_non_finite_rows_stop_alone():
    rng = stream(1, 0x7E57)
    A = rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
    b = A @ rng.uniform(0.5, 2.0, size=3)
    x0 = rng.uniform(0.5, 1.5, size=(20, 3))
    system = _cubic_system(A, b)
    alone = gauss_newton(system, x0, np.ones(3))
    assert alone[1].all()
    # row 3 starts where J = 0, row 7 where the residual is NaN
    x02 = np.insert(x0, [3, 6], [np.zeros(3), [np.nan, 1.0, 1.0]], axis=0)
    X, ok = gauss_newton(system, x02, np.ones(3))
    bad = np.isin(np.arange(22), (3, 7))
    assert not ok[bad].any()
    np.testing.assert_array_equal(X[bad], x02[bad])
    np.testing.assert_array_equal(X[~bad], alone[0])
    np.testing.assert_array_equal(ok[~bad], alone[1])
