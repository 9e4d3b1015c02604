"""Numpy implementation of the hot kernels (fallback backend).

``kernels`` is the only home of the strapdown navigation equations.  The
Earth frame is treated as inertial (no transport rate or Coriolis terms)
with axes North, East, down-positive; units are feet, seconds, radians.

The compiled backend in ``_native.pyx`` agrees with ``strapdown_batch`` to a
relative 1e-13; a parity test keeps the two in agreement.  The numpy kernel is
one column body, ``strapdown_columns``, that runs unchanged on 1-D columns
(one entry per state) and on Python floats (one state); it takes its ufuncs
from the argument's type (``_ufuncs``).  The body is two halves in a row,
``attitude_half`` and ``translation_half``, which a caller that steps one
state through many substeps runs apart: the attitude does not depend on the
translation, and each half hands on the sines and cosines it computed.
"""

from types import SimpleNamespace

import numpy as np

from ..constants import EARTH_RADIUS_FT, GRAV_PARAM, PITCH_GUARD, POLAR_COS_GUARD
from ..exceptions import GimbalLockError, PolarSingularityError

_TWO_PI = 2.0 * np.pi

# The ufuncs of the float path: each entry calls the column path's numpy ufunc
# and returns a Python float, so the arithmetic after it runs on Python floats
# (not numpy scalars) with the bits the columns compute.  Not ``math``: numpy's
# tan, arcsin and arctan2 differ from libm in the last bit on some inputs.  The
# clip's min and max only compare, and it passes the value first, so the
# builtins return numpy's result, a NaN value included.
_FLOAT_UFUNCS = SimpleNamespace(
    sin=lambda x: float(np.sin(x)),
    cos=lambda x: float(np.cos(x)),
    tan=lambda x: float(np.tan(x)),
    sqrt=lambda x: float(np.sqrt(x)),
    arcsin=lambda x: float(np.arcsin(x)),
    arctan2=lambda y, x: float(np.arctan2(y, x)),
    minimum=min,
    maximum=max,
)


def _ufuncs(x):
    """``np`` for columns, the float table for one state's floats."""
    return np if isinstance(x, np.ndarray) else _FLOAT_UFUNCS


def _anywhere(flag):
    """Whether a guard's comparison holds anywhere: the scalar itself on
    floats, where a numpy reduction would cost more than the comparison, and
    ``.any()`` on columns."""
    return flag.any() if isinstance(flag, np.ndarray) else flag


def _where(flag):
    """The indices at which a guard's comparison holds, which its error
    names: None on floats, one state's, whose error names no point."""
    return np.flatnonzero(flag) if isinstance(flag, np.ndarray) else None


def _everywhere(flag):
    """Whether a comparison holds everywhere, as ``_anywhere``.  Not
    ``_anywhere(~flag)``: on a Python bool ``~`` gives -1 or -2, both truthy."""
    return flag.all() if isinstance(flag, np.ndarray) else flag


def wrap_angle(angle):
    """Wrap to (-pi, pi]; ``angle`` is an array or a float.  ``%`` is
    ``np.mod`` on arrays and the same floored remainder on floats.  The
    remainder of ``d = pi - angle`` is ``d`` itself where ``d`` lies in
    [0, 2pi), so the ``%`` runs only when some entry lies outside."""
    d = np.pi - angle
    if _everywhere((d >= 0.0) & (d < _TWO_PI)):
        return np.pi - d
    return np.pi - d % _TWO_PI


def angle_trig(phi, theta, psi):
    """The sines and cosines ``(sin phi, cos phi, sin theta, cos theta,
    sin psi, cos psi)`` of roll, pitch and yaw, columns or floats."""
    xp = _ufuncs(theta)
    return xp.sin(phi), xp.cos(phi), xp.sin(theta), xp.cos(theta), xp.sin(psi), xp.cos(psi)


def rotation_entries(sp, cp, st, ct, sy, cy):
    """Body-to-inertial rotation entries, row-major with rows (N, E, D), from
    ``angle_trig``'s sines and cosines.  Each entry has their shape, and is a
    Python float on floats."""
    return (
        ct * cy, ct * sy, -st,
        sp * st * cy - cp * sy, sp * st * sy + cp * cy, sp * ct,
        cp * st * cy + sp * sy, cp * st * sy - sp * cy, cp * ct,
    )


def attitude_half(angles, trig, b_g, omega_meas, dt):
    """The attitude half of a strapdown step: forward Euler on the
    Euler-angle kinematics, on columns or on floats.

    ``angles`` is (roll, pitch, yaw) and ``trig`` their ``angle_trig``;
    ``b_g`` and ``omega_meas`` are the gyro bias and rate triples.  Returns
    the new angles and their ``angle_trig``.  Neither depends on position,
    speed or gravity.
    """
    phi, theta, psi = angles
    xp = _ufuncs(theta)
    # abs and % (in wrap_angle) dispatch to numpy on columns and stay Python
    # float operations on floats, with the same IEEE results either way
    locked = abs(theta) >= PITCH_GUARD
    if _anywhere(locked):
        raise GimbalLockError("pitch at Euler-rate singularity", points=_where(locked))
    sp, cp, st, ct, sy, cy = trig
    w0 = omega_meas[0] - b_g[0]
    w1 = omega_meas[1] - b_g[1]
    w2 = omega_meas[2] - b_g[2]
    tt = xp.tan(theta)
    phi_dot = w0 + sp * tt * w1 + cp * tt * w2
    theta_dot = cp * w1 - sp * w2
    psi_dot = (sp * w1 + cp * w2) / ct
    phi_new = wrap_angle(phi + phi_dot * dt)
    theta_new = wrap_angle(theta + theta_dot * dt)
    psi_new = wrap_angle(psi + psi_dot * dt)
    locked = abs(theta_new) >= PITCH_GUARD
    if _anywhere(locked):
        raise GimbalLockError("pitch at Euler-rate singularity after update",
                              points=_where(locked))
    return (phi_new, theta_new, psi_new), angle_trig(phi_new, theta_new, psi_new)


def translation_half(nav, c, cos_L, b_a, f_meas, dt):
    """The translation half of a strapdown step, on columns or on floats.

    ``nav`` holds altitude, two position angles, speed, flight-path angle and
    azimuth; ``c`` the nine sums of the old and the new attitude's
    ``rotation_entries``; ``cos_L`` the cosine of the first position angle;
    ``b_a`` and ``f_meas`` the accel bias and specific-force triples.
    Returns the six new components and the new ``cos_L``.
    """
    h, L, lam, v, gamma, alpha = nav
    xp = _ufuncs(h)

    # Specific force to the inertial frame, trapezoidal attitude average.  Each
    # row sums as (x0 + x2) + x1, the order of numpy's (n,3,3) einsum, so
    # floats and columns give the bits that batched outputs were recorded with.
    f0 = f_meas[0] - b_a[0]
    f1 = f_meas[1] - b_a[1]
    f2 = f_meas[2] - b_a[2]
    f_n = 0.5 * ((c[0] * f0 + c[2] * f2) + c[1] * f1)
    f_e = 0.5 * ((c[3] * f0 + c[5] * f2) + c[4] * f1)
    f_d = 0.5 * ((c[6] * f0 + c[8] * f2) + c[7] * f1)

    # Velocity update with gravity (down-positive).
    cg = xp.cos(gamma)
    v_n = v * cg * xp.cos(alpha)
    v_e = v * cg * xp.sin(alpha)
    v_d = -v * xp.sin(gamma)
    r_old = EARTH_RADIUS_FT + h
    g_d = GRAV_PARAM / (r_old * r_old)
    v_n_new = v_n + f_n * dt
    v_e_new = v_e + f_e * dt
    v_d_new = v_d + (f_d + g_d) * dt

    # Back to speed / flight-path angle / azimuth.
    speed = xp.sqrt(v_n_new * v_n_new + v_e_new * v_e_new + v_d_new * v_d_new)
    # +0.0 where the speed is not positive (zero, or NaN); the masked divide
    # allocates, so it runs only when some speed needs it
    if _everywhere(speed > 0.0):
        ratio = -v_d_new / speed
    else:
        ratio = np.divide(-v_d_new, speed, out=np.zeros_like(speed), where=speed > 0.0)
    gamma_new = xp.arcsin(xp.minimum(xp.maximum(ratio, -1.0), 1.0))
    alpha_new = xp.arctan2(v_e_new, v_n_new)

    # Trapezoidal position update.
    h_new = h - 0.5 * dt * (v_d + v_d_new)
    r_new = EARTH_RADIUS_FT + h_new
    L_new = L + 0.5 * dt * (v_n / r_old + v_n_new / r_new)
    cos_L_new = xp.cos(L_new)
    polar = (abs(cos_L) < POLAR_COS_GUARD) | (abs(cos_L_new) < POLAR_COS_GUARD)
    if _anywhere(polar):
        raise PolarSingularityError("position angle at polar singularity", points=_where(polar))
    lam_new = lam + 0.5 * dt * (v_e / (r_old * cos_L) + v_e_new / (r_new * cos_L_new))

    return (h_new, L_new, lam_new, speed, gamma_new, alpha_new), cos_L_new


def strapdown_columns(nav, b_a, b_g, f_meas, omega_meas, dt):
    """One inertial-navigation step on columns or on floats: the attitude
    half, then the translation half.

    ``nav`` holds the nine navigation components: altitude, two position
    angles, speed, flight-path angle, azimuth, roll, pitch, yaw.  ``b_a`` and
    ``b_g`` are the accel and gyro bias triples, and ``f_meas``/``omega_meas``
    the IMU triples, whose entries are floats or columns like those of
    ``nav``.  Returns the nine new components.
    """
    h, L, lam, v, gamma, alpha, phi, theta, psi = nav
    trig = angle_trig(phi, theta, psi)
    angles, trig_new = attitude_half((phi, theta, psi), trig, b_g, omega_meas, dt)
    c = [a + b for a, b in zip(rotation_entries(*trig), rotation_entries(*trig_new))]
    position, _ = translation_half((h, L, lam, v, gamma, alpha), c, _ufuncs(L).cos(L),
                                   b_a, f_meas, dt)
    return (*position, *angles)


def strapdown_batch(states, f_meas, omega_meas, dt):
    """One inertial-navigation step for a batch of 15-component states.

    ``states`` is (n, 15): the nine navigation components of
    ``strapdown_columns``, accel bias (3), gyro bias (3).  The IMU sample
    (``f_meas``, ``omega_meas``) is shared across the batch; each row
    subtracts its own bias estimates.  Bias components pass through unchanged.
    """
    states = np.asarray(states, dtype=float)
    cols = states.T
    out = states.copy()  # keeps the bias components
    out.T[:9] = strapdown_columns(
        cols[:9], cols[9:12], cols[12:15],
        np.asarray(f_meas, dtype=float), np.asarray(omega_meas, dtype=float), dt,
    )
    return out
