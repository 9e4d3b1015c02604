"""Numpy implementation of the hot kernels (fallback backend).

``kernels`` is the only home of the strapdown navigation equations.  The
Earth frame is treated as inertial (no transport rate or Coriolis terms)
with axes North, East, down-positive; units are feet, seconds, radians.

The compiled backend in ``_native.pyx`` agrees with ``strapdown_batch`` to a
relative 1e-13; a parity test keeps the two in agreement.  The numpy kernel is
one column body, ``strapdown_columns``, that runs unchanged on 1-D columns
(one entry per state) and on Python floats (one state).
"""

import numpy as np

from ..constants import EARTH_RADIUS_FT, GRAV_PARAM, PITCH_GUARD, POLAR_COS_GUARD
from ..exceptions import GimbalLockError, PolarSingularityError


def wrap_angle(angle):
    """Wrap to (-pi, pi]; ``angle`` is an array or a float.  ``%`` is
    ``np.mod`` on arrays and the same floored remainder on floats."""
    return np.pi - (np.pi - angle) % (2.0 * np.pi)


def attitude_entries(phi, theta, psi):
    """Body-to-inertial rotation entries, row-major with rows (N, E, D).

    The angles are columns or floats; each entry has their shape.
    """
    return _rotation(np.sin(phi), np.cos(phi), np.sin(theta), np.cos(theta),
                     np.sin(psi), np.cos(psi))


def _rotation(sp, cp, st, ct, sy, cy):
    """``attitude_entries`` from the sines and cosines of roll, pitch, yaw."""
    return (
        ct * cy, ct * sy, -st,
        sp * st * cy - cp * sy, sp * st * sy + cp * cy, sp * ct,
        cp * st * cy + sp * sy, cp * st * sy - sp * cy, cp * ct,
    )


def _anywhere(flag):
    """Whether a guard's comparison holds anywhere: the scalar itself on
    floats, where a numpy reduction would cost more than the comparison, and
    ``.any()`` on columns."""
    return flag.any() if isinstance(flag, np.ndarray) else flag


def strapdown_columns(nav, b_a, b_g, f_meas, omega_meas, dt):
    """One inertial-navigation step on columns or on floats.

    ``nav`` holds the nine navigation components: altitude, two position
    angles, speed, flight-path angle, azimuth, roll, pitch, yaw.  ``b_a`` and
    ``b_g`` are the accel and gyro bias triples, and ``f_meas``/``omega_meas``
    the IMU triples, whose entries are floats or columns like those of
    ``nav``.  Returns the nine new components.
    """
    h, L, lam, v, gamma, alpha, phi, theta, psi = nav

    # abs and % (in wrap_angle) dispatch to numpy on columns and stay Python
    # float operations on floats, with the same IEEE results either way
    if _anywhere(abs(theta) >= PITCH_GUARD):
        raise GimbalLockError("pitch at Euler-rate singularity")

    # Attitude update (forward Euler on the Euler-angle kinematics).
    w0 = omega_meas[0] - b_g[0]
    w1 = omega_meas[1] - b_g[1]
    w2 = omega_meas[2] - b_g[2]
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    sy, cy = np.sin(psi), np.cos(psi)
    tt = np.tan(theta)
    phi_dot = w0 + sp * tt * w1 + cp * tt * w2
    theta_dot = cp * w1 - sp * w2
    psi_dot = (sp * w1 + cp * w2) / ct
    phi_new = wrap_angle(phi + phi_dot * dt)
    theta_new = wrap_angle(theta + theta_dot * dt)
    psi_new = wrap_angle(psi + psi_dot * dt)
    if _anywhere(abs(theta_new) >= PITCH_GUARD):
        raise GimbalLockError("pitch at Euler-rate singularity after update")

    # Specific force to the inertial frame, trapezoidal attitude average.  Each
    # row sums as (x0 + x2) + x1, the order of numpy's (n,3,3) einsum, so
    # floats and columns give the bits that batched outputs were recorded with.
    c = [a + b for a, b in zip(_rotation(sp, cp, st, ct, sy, cy),
                               attitude_entries(phi_new, theta_new, psi_new))]
    f0 = f_meas[0] - b_a[0]
    f1 = f_meas[1] - b_a[1]
    f2 = f_meas[2] - b_a[2]
    f_n = 0.5 * ((c[0] * f0 + c[2] * f2) + c[1] * f1)
    f_e = 0.5 * ((c[3] * f0 + c[5] * f2) + c[4] * f1)
    f_d = 0.5 * ((c[6] * f0 + c[8] * f2) + c[7] * f1)

    # Velocity update with gravity (down-positive).
    cg = np.cos(gamma)
    v_n = v * cg * np.cos(alpha)
    v_e = v * cg * np.sin(alpha)
    v_d = -v * np.sin(gamma)
    r_old = EARTH_RADIUS_FT + h
    g_d = GRAV_PARAM / (r_old * r_old)
    v_n_new = v_n + f_n * dt
    v_e_new = v_e + f_e * dt
    v_d_new = v_d + (f_d + g_d) * dt

    # Back to speed / flight-path angle / azimuth.
    speed = np.sqrt(v_n_new * v_n_new + v_e_new * v_e_new + v_d_new * v_d_new)
    # +0.0 where the speed is not positive (zero, or NaN); the masked divide
    # allocates, so it runs only when some speed needs it
    if _anywhere(~(speed > 0.0)):
        ratio = np.divide(-v_d_new, speed, out=np.zeros_like(speed), where=speed > 0.0)
    else:
        ratio = -v_d_new / speed
    gamma_new = np.arcsin(np.minimum(np.maximum(ratio, -1.0), 1.0))
    alpha_new = np.arctan2(v_e_new, v_n_new)

    # Trapezoidal position update.
    h_new = h - 0.5 * dt * (v_d + v_d_new)
    r_new = EARTH_RADIUS_FT + h_new
    L_new = L + 0.5 * dt * (v_n / r_old + v_n_new / r_new)
    cos_L, cos_L_new = np.cos(L), np.cos(L_new)
    if _anywhere(abs(cos_L) < POLAR_COS_GUARD) or _anywhere(abs(cos_L_new) < POLAR_COS_GUARD):
        raise PolarSingularityError("position angle at polar singularity")
    lam_new = lam + 0.5 * dt * (v_e / (r_old * cos_L) + v_e_new / (r_new * cos_L_new))

    return (h_new, L_new, lam_new, speed, gamma_new, alpha_new, phi_new, theta_new, psi_new)


def strapdown_batch(states, f_meas, omega_meas, dt):
    """One inertial-navigation step for a batch of 15-component states.

    ``states`` is (n, 15): the nine navigation components of
    ``strapdown_columns``, accel bias (3), gyro bias (3).  The IMU sample
    (``f_meas``, ``omega_meas``) is shared across the batch; each row
    subtracts its own bias estimates.  Bias components pass through unchanged.
    """
    states = np.asarray(states, dtype=float)
    cols = states.T
    out = np.empty_like(states)
    out.T[:9] = strapdown_columns(
        cols[:9], cols[9:12], cols[12:15],
        np.asarray(f_meas, dtype=float), np.asarray(omega_meas, dtype=float), dt,
    )
    out[:, 9:] = states[:, 9:]
    return out
