import numpy as np
import pytest

from skfnav import kernels
from skfnav.constants import EARTH_RADIUS_FT, GRAV_PARAM
from skfnav.exceptions import GimbalLockError, PolarSingularityError
from skfnav.kernels import _numpy as pure

native = pytest.importorskip("skfnav.kernels._native") if kernels.BACKEND == "native" else None


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    states = np.empty((n, 15))
    states[:, 0] = 1.5e5 + 5e3 * rng.standard_normal(n)
    states[:, 1] = 0.9 + 0.05 * rng.standard_normal(n)
    states[:, 2] = 0.3 + 0.05 * rng.standard_normal(n)
    states[:, 3] = np.abs(1.4e4 + 500 * rng.standard_normal(n))
    states[:, 4] = 0.02 * rng.standard_normal(n)
    states[:, 5] = 0.8 + 0.1 * rng.standard_normal(n)
    states[:, 6:9] = 0.3 * rng.standard_normal((n, 3))
    states[:, 9:15] = 1e-3 * rng.standard_normal((n, 6))
    return states


def test_wrap_angle_half_open_interval():
    vals = np.array([0.0, np.pi, -np.pi, 3.5, -3.5, 10.0])
    wrapped = kernels.numpy_backend.wrap_angle(vals)
    assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
    assert wrapped[0] == 0.0
    assert wrapped[1] == np.pi
    assert wrapped[2] == np.pi  # -pi is the same angle as +pi


def test_batch_matches_scalar_composition():
    states = random_states(8, 0)
    f = np.array([-5.0, 2.0, -31.0])
    w = np.array([1e-3, -2e-3, 5e-4])
    batch = kernels.strapdown_batch(states, f, w, 1.4)
    for i in range(states.shape[0]):
        single = kernels.strapdown_batch(states[i:i + 1], f, w, 1.4)[0]
        assert np.array_equal(batch[i], single)


def columns_on_floats(row, f, w, dt):
    """The kernel body on one state's Python floats, as a 15-vector."""
    row = row.tolist()
    nav = pure.strapdown_columns(row[:9], row[9:12], row[12:], f.tolist(), w.tolist(), dt)
    return np.array([*nav, *row[9:]])


def edge_rows(f, w):
    """Rows whose gyro biases cancel the rates ``w`` exactly, so that each
    angle reaches ``wrap_angle`` unchanged: a level, motionless row whose
    accel biases leave only the specific force that cancels the kernel's
    gravity (``speed == 0``), then rows with yaws at +-pi, +-2pi and -0.0."""
    rows = random_states(6, 9)
    rows[:, 6:8] = 0.0
    rows[:, 8] = [0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, -0.0]
    rows[:, 12:15] = w
    rows[0, 3:6] = 0.0
    r = EARTH_RADIUS_FT + rows[0, 0]
    rows[0, 9:12] = f - [0.0, 0.0, -(GRAV_PARAM / (r * r))]
    return rows


@pytest.mark.parametrize("n", [1, 49, 490])
def test_columns_on_floats_match_batch_rows(n):
    states = random_states(n, 5)
    states[::7, 8] = np.pi - 1e-4  # some yaws wrap past pi
    f = np.array([-5.0, 2.0, -31.0])
    w = np.array([1e-3, -2e-3, 5e-4]) * 50
    states = np.vstack([states, edge_rows(f, w)])
    batch = pure.strapdown_batch(states, f, w, 1.4)
    assert batch[n, 3] == 0.0  # the motionless row stays motionless
    for i in range(len(states)):
        assert columns_on_floats(states[i], f, w, 1.4).tobytes() == batch[i].tobytes(), i


def test_flight_path_angle_is_plus_zero_where_speed_is_not_positive():
    # a motionless row (speed 0) and a NaN speed take the masked divide
    f = np.array([-5.0, 2.0, -31.0])
    w = np.array([1e-3, -2e-3, 5e-4]) * 50
    states = np.vstack([random_states(3, 8), edge_rows(f, w)[:1]])
    states[1, 3] = np.nan
    with np.errstate(invalid="ignore"):
        batch = pure.strapdown_batch(states, f, w, 1.4)
        floats = [columns_on_floats(row, f, w, 1.4) for row in states]
    assert np.isnan(batch[1, 3]) and batch[3, 3] == 0.0
    for i in (1, 3):
        for gamma in (batch[i, 4], floats[i][4]):
            assert gamma == 0.0 and not np.signbit(gamma)
    for i in (0, 2, 3):
        assert floats[i].tobytes() == batch[i].tobytes(), i


@pytest.mark.parametrize("column, value, pitch_rate, error", [
    (7, np.pi / 2, 0.0, GimbalLockError),            # pitch at the guard
    (7, np.pi / 2 - 2e-6, 1.0, GimbalLockError),     # pitch pushed onto it
    (1, np.pi / 2, 0.0, PolarSingularityError),      # position angle at the pole
])
def test_float_path_raises_like_batch(column, value, pitch_rate, error):
    states = random_states(3, 6)
    states[:, 6:8] = 0.0  # level roll and pitch, so the pitch rate is the gyro's
    states[1, column] = value
    f, w = np.zeros(3), np.array([0.0, pitch_rate, 0.0])
    with pytest.raises(error):
        pure.strapdown_batch(states, f, w, 1.0)
    with pytest.raises(error):
        columns_on_floats(states[1], f, w, 1.0)
    columns_on_floats(states[0], f, w, 1.0)  # the other rows step cleanly


@pytest.mark.skipif(kernels.BACKEND != "native", reason="compiled backend unavailable")
def test_native_matches_pure_backend():
    states = random_states(200, 1)
    f = np.array([-5.0, 2.0, -31.0])
    w = np.array([1e-3, -2e-3, 5e-4])
    a = pure.strapdown_batch(states, f, w, 1.4)
    b = native.strapdown_batch(states, f, w, 1.4)
    rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-12)
    assert rel.max() < 1e-13


@pytest.mark.skipif(kernels.BACKEND != "native", reason="compiled backend unavailable")
def test_native_raises_same_guards():
    states = random_states(4, 2)
    states[2, 7] = np.pi / 2
    f, w = np.zeros(3), np.zeros(3)
    with pytest.raises(GimbalLockError):
        native.strapdown_batch(states, f, w, 1.0)
    with pytest.raises(GimbalLockError):
        pure.strapdown_batch(states, f, w, 1.0)

    states = random_states(4, 3)
    states[1, 1] = np.pi / 2
    with pytest.raises(PolarSingularityError):
        native.strapdown_batch(states, f, w, 1.0)
    with pytest.raises(PolarSingularityError):
        pure.strapdown_batch(states, f, w, 1.0)


def test_bias_columns_pass_through():
    states = random_states(5, 4)
    out = kernels.strapdown_batch(states, np.zeros(3), np.zeros(3), 0.5)
    assert np.abs(out[:, 9:15] - states[:, 9:15]).max() == 0.0
