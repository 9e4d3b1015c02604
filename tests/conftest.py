import numpy as np
import pytest


class LinearKalman:
    """Closed-form linear Kalman filter (test oracle)."""

    def __init__(self, m, P, A, H, Q, R):
        self.m = np.asarray(m, dtype=float).copy()
        self.P = np.asarray(P, dtype=float).copy()
        self.A, self.H, self.Q, self.R = (np.asarray(x, dtype=float) for x in (A, H, Q, R))

    def predict(self):
        self.m = self.A @ self.m
        self.P = self.A @ self.P @ self.A.T + self.Q

    def update(self, y):
        S = self.H @ self.P @ self.H.T + self.R
        K = self.P @ self.H.T @ np.linalg.inv(S)
        self.m = self.m + K @ (np.asarray(y) - self.H @ self.m)
        self.P = self.P - K @ S @ K.T
        return self.H @ self.m, S


@pytest.fixture
def linear_kalman():
    return LinearKalman


def _assert_banks_equal(a, b):
    """Two banks hold the same rows, bit for bit, with the same trajectories."""
    for name in ("mean", "cov", "log_lik"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.s_index, a.cause) == (b.s_index, b.cause)
    for row in range(len(a)):
        trajectory_a, trajectory_b = a.trajectory(row), b.trajectory(row)
        assert len(trajectory_a) == len(trajectory_b)
        for (mean_a, var_a, score_a), (mean_b, var_b, score_b) in zip(trajectory_a, trajectory_b):
            assert np.array_equal(mean_a, mean_b) and np.array_equal(var_a, var_b)
            assert score_a == score_b


@pytest.fixture
def assert_banks_equal():
    return _assert_banks_equal
