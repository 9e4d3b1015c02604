import hashlib

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


WRAP_EDGES = [0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 0), np.nextafter(-np.pi, 0),
              2 * np.pi, -2 * np.pi, 3 * np.pi, np.nan, np.inf, -np.inf]


def test_wrap_angle_matches_floored_remainder_bit_for_bit():
    # the shortcut that skips the remainder for in-range angles changes no bit
    rng = np.random.default_rng(3)
    angles = np.concatenate([WRAP_EDGES, rng.uniform(-10.0, 10.0, 200)])
    with np.errstate(invalid="ignore"):
        expect = np.pi - (np.pi - angles) % (2 * np.pi)
        assert pure.wrap_angle(angles).tobytes() == expect.tobytes()
        in_range = angles[np.abs(angles) < 3.0]  # every entry takes the shortcut
        assert pure.wrap_angle(in_range).tobytes() == expect[np.abs(angles) < 3.0].tobytes()
    for angle, want in zip(angles.tolist(), expect):
        got = pure.wrap_angle(angle)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes(), angle


def test_float_ufuncs_give_numpy_bits():
    # libm's tan, asin and atan2 differ from numpy's in the last bit on some
    # of these inputs, so an entry that calls ``math`` fails here
    rng = np.random.default_rng(4)
    angles, unit = rng.uniform(-1.5, 1.5, 5000), rng.uniform(-1.0, 1.0, 5000)
    y, x = rng.standard_normal((2, 5000))
    table = pure._FLOAT_UFUNCS
    for name, args in [("sin", [angles]), ("cos", [angles]), ("tan", [angles]),
                       ("sqrt", [np.abs(x)]), ("arcsin", [unit]), ("arctan2", [y, x])]:
        got = [getattr(table, name)(*a) for a in zip(*(v.tolist() for v in args))]
        assert all(type(g) is float for g in got), name
        assert np.array(got).tobytes() == getattr(np, name)(*args).tobytes(), name
    # the clip passes its value first and its bound second
    values = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1.0, 1.0 + 2**-52, -0.5]
    for bound in (-1.0, 1.0):
        for value in values:
            for name in ("minimum", "maximum"):
                got, want = getattr(table, name)(value, bound), getattr(np, name)(value, bound)
                assert np.float64(got).tobytes() == want.tobytes(), (name, value, bound)


def test_empty_batch_keeps_its_shape():
    out = pure.strapdown_batch(np.empty((0, 15)), np.zeros(3), np.zeros(3), 1.0)
    assert out.shape == (0, 15)


def test_float_path_returns_python_floats():
    row = random_states(1, 7)[0]
    f, w = [-5.0, 2.0, -31.0], [1e-3, -2e-3, 5e-4]
    floats = pure.strapdown_columns(row[:9].tolist(), row[9:12].tolist(), row[12:].tolist(),
                                    f, w, 1.4)
    assert all(type(x) is float for x in floats)
    trig = pure.angle_trig(*row[6:9].tolist())
    assert all(type(x) is float for x in (*trig, *pure.rotation_entries(*trig)))
    # numpy scalars in give floats out (no 0-d arrays), with the same bits
    scalars = pure.strapdown_columns(list(row[:9]), list(row[9:12]), list(row[12:]),
                                     list(np.array(f)), list(np.array(w)), 1.4)
    entries = pure.rotation_entries(*pure.angle_trig(*row[6:9]))
    assert all(isinstance(x, float) for x in (*scalars, *entries))
    assert np.array(scalars).tobytes() == np.array(floats).tobytes()


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


def halves_rows(n):
    """``test_columns_on_floats_match_batch_rows``'s rows at ``n`` random
    states, with its IMU sample."""
    states = random_states(n, 5)
    states[::7, 8] = np.pi - 1e-4  # some yaws wrap past pi
    f = np.array([-5.0, 2.0, -31.0])
    w = np.array([1e-3, -2e-3, 5e-4]) * 50
    return np.vstack([states, edge_rows(f, w)]), f, w


def bits(values):
    return np.array(values, dtype=float).tobytes()


def test_each_half_on_floats_matches_a_column_row():
    states, f, w = halves_rows(49)
    cols = states.T
    trig = pure.angle_trig(*cols[6:9])
    angles, trig_new = pure.attitude_half(cols[6:9], trig, cols[12:15], w, 1.4)
    c = [a + b for a, b in zip(pure.rotation_entries(*trig), pure.rotation_entries(*trig_new))]
    position, cos_L = pure.translation_half(cols[:6], c, np.cos(cols[1]), cols[9:12], f, 1.4)
    assert np.signbit(states[-1, 8])  # the -0.0 yaw, with +-pi and +-2pi before it
    for i, row in enumerate(states.tolist()):
        row_trig = pure.angle_trig(*row[6:9])
        assert bits(row_trig) == bits([x[i] for x in trig]), i
        row_angles, row_trig_new = pure.attitude_half(row[6:9], row_trig, row[12:15],
                                                      w.tolist(), 1.4)
        assert all(type(x) is float for x in (*row_angles, *row_trig_new))
        assert bits(row_angles) == bits([x[i] for x in angles]), i
        assert bits(row_trig_new) == bits([x[i] for x in trig_new]), i
        row_position, row_cos_L = pure.translation_half(
            row[:6], np.array(c)[:, i].tolist(), float(np.cos(row[1])), row[9:12], f.tolist(),
            1.4)
        assert all(type(x) is float for x in (*row_position, row_cos_L))
        assert bits(row_position) == bits([x[i] for x in position]), i
        assert bits([row_cos_L]) == bits([cos_L[i]]), i


def test_halves_in_a_row_keep_the_kernel_bits():
    # the digest of strapdown_batch on these rows when the body was one
    # function, before it was split into its halves
    states, f, w = halves_rows(490)
    batch = pure.strapdown_batch(states, f, w, 1.4)
    assert hashlib.sha256(batch.tobytes()).hexdigest()[:16] == "eeb059e855158846"
    for i, row in enumerate(states.tolist()):
        trig = pure.angle_trig(*row[6:9])
        angles, trig_new = pure.attitude_half(row[6:9], trig, row[12:15], w.tolist(), 1.4)
        c = [a + b for a, b in zip(pure.rotation_entries(*trig),
                                   pure.rotation_entries(*trig_new))]
        position, _ = pure.translation_half(row[:6], c, float(np.cos(row[1])), row[9:12],
                                            f.tolist(), 1.4)
        assert bits([*position, *angles]) == batch[i, :9].tobytes(), i


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


def test_float_path_takes_masked_divide_only_where_speed_is_not_positive(monkeypatch):
    f = np.array([-5.0, 2.0, -31.0])
    w = np.array([1e-3, -2e-3, 5e-4]) * 50
    states = np.vstack([random_states(1, 8), edge_rows(f, w)[:1], random_states(1, 8)])
    states[2, 3] = np.nan
    calls = []
    divide = np.divide

    def spy(*args, **kwargs):
        calls.append(args)
        return divide(*args, **kwargs)

    monkeypatch.setattr(np, "divide", spy)
    with np.errstate(invalid="ignore"):
        for row, masked in zip(states, (False, True, True)):
            calls.clear()
            gamma = columns_on_floats(row, f, w, 1.4)[4]
            assert len(calls) == int(masked)
            if masked:
                assert gamma == 0.0 and not np.signbit(gamma)


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
