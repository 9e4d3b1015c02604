# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled strapdown kernel; agrees to a relative 1e-13 with kernels._numpy.strapdown_batch."""

import numpy as np

cimport numpy as cnp
from libc.math cimport asin, atan2, cos, fmod, sin, sqrt, tan, fabs

from ..exceptions import GimbalLockError, PolarSingularityError

cnp.import_array()

cdef double GRAV_PARAM = 0.14076539e17
cdef double EARTH_RADIUS_FT = 20902900.0
cdef double PI = 3.141592653589793
cdef double PITCH_GUARD = PI / 2.0 - 1e-6
cdef double POLAR_COS_GUARD = 1e-9


cdef inline double _wrap(double angle) nogil:
    cdef double m = fmod(PI - angle, 2.0 * PI)
    if m < 0.0:
        m += 2.0 * PI
    return PI - m


def strapdown_batch(states, f_meas, omega_meas, double dt):
    """One navigation step for (n, 15) states; see the numpy backend."""
    cdef cnp.ndarray[cnp.float64_t, ndim=2] s = np.ascontiguousarray(states, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] f = np.ascontiguousarray(f_meas, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] w = np.ascontiguousarray(omega_meas, dtype=np.float64)
    if s.shape[1] != 15 or f.shape[0] != 3 or w.shape[0] != 3:
        raise ValueError("expected (n, 15) states and 3-vector IMU sample")
    cdef cnp.ndarray[cnp.float64_t, ndim=2] out = np.empty_like(s)
    cdef Py_ssize_t n = s.shape[0]
    cdef Py_ssize_t i, j
    cdef double h, L, lam, v, gamma, alpha, phi, theta, psi
    cdef double wx, wy, wz, fx, fy, fz
    cdef double sp, cp, tt, ct, phi_dot, theta_dot, psi_dot
    cdef double phi_n, theta_n, psi_n
    cdef double c_old[3][3]
    cdef double c_new[3][3]
    cdef double f_i[3]
    cdef double cg, v_n, v_e, v_d, g_d, v_n_new, v_e_new, v_d_new
    cdef double speed, ratio, gamma_n, alpha_n
    cdef double h_n, r_old, r_new, L_n, cos_L, cos_L_n, lam_n
    cdef int gimbal = 0, polar = 0

    with nogil:
        for i in range(n):
            h = s[i, 0]; L = s[i, 1]; lam = s[i, 2]
            v = s[i, 3]; gamma = s[i, 4]; alpha = s[i, 5]
            phi = s[i, 6]; theta = s[i, 7]; psi = s[i, 8]
            if fabs(theta) >= PITCH_GUARD:
                gimbal = 1
                break
            wx = w[0] - s[i, 12]; wy = w[1] - s[i, 13]; wz = w[2] - s[i, 14]
            fx = f[0] - s[i, 9]; fy = f[1] - s[i, 10]; fz = f[2] - s[i, 11]

            sp = sin(phi); cp = cos(phi)
            tt = tan(theta); ct = cos(theta)
            phi_dot = wx + sp * tt * wy + cp * tt * wz
            theta_dot = cp * wy - sp * wz
            psi_dot = (sp * wy + cp * wz) / ct
            phi_n = _wrap(phi + phi_dot * dt)
            theta_n = _wrap(theta + theta_dot * dt)
            psi_n = _wrap(psi + psi_dot * dt)
            if fabs(theta_n) >= PITCH_GUARD:
                gimbal = 1
                break

            _attitude(phi, theta, psi, c_old)
            _attitude(phi_n, theta_n, psi_n, c_new)
            for j in range(3):
                f_i[j] = 0.5 * (
                    (c_old[j][0] + c_new[j][0]) * fx
                    + (c_old[j][1] + c_new[j][1]) * fy
                    + (c_old[j][2] + c_new[j][2]) * fz
                )

            cg = cos(gamma)
            v_n = v * cg * cos(alpha)
            v_e = v * cg * sin(alpha)
            v_d = -v * sin(gamma)
            g_d = GRAV_PARAM / ((EARTH_RADIUS_FT + h) * (EARTH_RADIUS_FT + h))
            v_n_new = v_n + f_i[0] * dt
            v_e_new = v_e + f_i[1] * dt
            v_d_new = v_d + (f_i[2] + g_d) * dt

            speed = sqrt(v_n_new * v_n_new + v_e_new * v_e_new + v_d_new * v_d_new)
            if speed > 0.0:
                ratio = -v_d_new / speed
                if ratio > 1.0:
                    ratio = 1.0
                elif ratio < -1.0:
                    ratio = -1.0
            else:
                ratio = 0.0
            gamma_n = asin(ratio)
            alpha_n = atan2(v_e_new, v_n_new)

            h_n = h - 0.5 * dt * (v_d + v_d_new)
            r_old = EARTH_RADIUS_FT + h
            r_new = EARTH_RADIUS_FT + h_n
            L_n = L + 0.5 * dt * (v_n / r_old + v_n_new / r_new)
            cos_L = cos(L); cos_L_n = cos(L_n)
            if fabs(cos_L) < POLAR_COS_GUARD or fabs(cos_L_n) < POLAR_COS_GUARD:
                polar = 1
                break
            lam_n = lam + 0.5 * dt * (
                v_e / (r_old * cos_L) + v_e_new / (r_new * cos_L_n)
            )

            out[i, 0] = h_n; out[i, 1] = L_n; out[i, 2] = lam_n
            out[i, 3] = speed; out[i, 4] = gamma_n; out[i, 5] = alpha_n
            out[i, 6] = phi_n; out[i, 7] = theta_n; out[i, 8] = psi_n
            for j in range(9, 15):
                out[i, j] = s[i, j]

    if gimbal:
        raise GimbalLockError("pitch at Euler-rate singularity")
    if polar:
        raise PolarSingularityError("position angle at polar singularity")
    return out


cdef inline void _attitude(double phi, double theta, double psi, double C[3][3]) nogil:
    cdef double sp = sin(phi), cp = cos(phi)
    cdef double st = sin(theta), ct = cos(theta)
    cdef double sy = sin(psi), cy = cos(psi)
    C[0][0] = ct * cy
    C[0][1] = ct * sy
    C[0][2] = -st
    C[1][0] = sp * st * cy - cp * sy
    C[1][1] = sp * st * sy + cp * cy
    C[1][2] = sp * ct
    C[2][0] = cp * st * cy + sp * sy
    C[2][1] = cp * st * sy - sp * cy
    C[2][2] = cp * ct
