import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skfnav import kernels
from skfnav.biasmodels import offset_columns, write_offset_basis
from skfnav.constants import PITCH_GUARD
from skfnav.exceptions import (
    CovarianceError,
    DynamicsDivergedError,
    FieldDomainError,
    GimbalLockError,
    PolarSingularityError,
    SingularInnovationError,
    SkfnavError,
)
from skfnav.gaussfilt import (
    _sqrt_factor,
    linear_update,
    predict,
    sigma_points,
    symmetrize,
)
from skfnav.scenarios.fields import GriddedField


def belief(mean, cov):
    """A ``(mean, cov)`` pair of float arrays, as the filter functions take it."""
    return np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)


def reconstruct(points, wm, wc):
    mean = wm @ points
    dev = points - mean
    return mean, (dev.T * wc) @ dev


class TestSigmaPoints:
    def test_scalar_unit_gaussian_hand_values(self):
        # alpha=0.1, beta=2, kappa=0 at d=1: lambda = 0.01 - 1 = -0.99, points
        # at 0 and +-sqrt(d + lambda) = +-0.1, outer weights 1 / (2 (d + lambda))
        pts, wm, wc = sigma_points(*belief([0.0], [[1.0]]))
        assert pts.ravel() == pytest.approx([0.0, 0.1, -0.1], abs=1e-15)
        assert wm == pytest.approx([-99.0, 50.0, 50.0])
        assert wc == pytest.approx([-96.01, 50.0, 50.0])

    def test_zero_covariance_collapses_to_mean(self):
        mean, cov = belief([1.0, -2.0], np.zeros((2, 2)))
        pts, _, _ = sigma_points(mean, cov)
        assert np.abs(pts - mean).max() == 0.0

    def test_weights_are_shared_and_read_only(self):
        _, wm, wc = sigma_points(np.zeros(4), np.eye(4))
        assert sigma_points(np.ones(4), 2.0 * np.eye(4))[1] is wm
        assert not wm.flags.writeable and not wc.flags.writeable
        with pytest.raises(ValueError):
            wm[0] = 0.0

    def test_moment_matching_identity(self):
        mean, cov = reconstruct(*sigma_points(*belief([1.0, 2.0], np.eye(2))))
        assert np.abs(mean - [1.0, 2.0]).max() < 1e-12
        assert np.abs(cov - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("dim", [1, 3, 7, 12, 20])
    def test_moment_matching_random(self, dim):
        rng = np.random.default_rng(dim)
        root = rng.standard_normal((dim, dim))
        prior_mean, prior_cov = rng.standard_normal(dim), root @ root.T + dim * np.eye(dim)
        mean, cov = reconstruct(*sigma_points(prior_mean, prior_cov))
        assert np.abs(mean - prior_mean).max() < 1e-9
        assert np.abs(cov - prior_cov).max() < 1e-9

    # -1e-7 is small but far below rounding: it is reported, not repaired
    @pytest.mark.parametrize("low", [-1.0, -1e-7], ids=["eig-1", "eig-1e-7"])
    def test_not_psd_rejected(self, low):
        with pytest.raises(CovarianceError):
            sigma_points(*belief([0.0, 0.0], np.diag([1.0, low])))

    def test_small_negative_eigenvalue_tolerated(self):
        pts, wm, wc = sigma_points(*belief([0.0, 0.0], np.diag([1.0, -1e-10])))
        assert np.all(np.isfinite(pts))


class TestPredict:
    def test_identity_dynamics_zero_noise(self):
        prior = belief([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        mean, cov = predict(*prior, lambda pts: pts, np.zeros((2, 2)))
        assert np.abs(mean - prior[0]).max() < 1e-12
        assert np.abs(cov - prior[1]).max() < 1e-12

    def test_linear_dynamics_matches_closed_form(self, linear_kalman):
        dt = 0.1
        A = np.array([[1.0, dt], [0.0, 1.0]])
        Q = np.diag([1e-3, 1e-2])
        prior_mean, prior_cov = belief([1.0, -0.5], [[0.8, 0.1], [0.1, 0.5]])
        mean, cov = predict(prior_mean, prior_cov, lambda pts: pts @ A.T, Q)
        assert np.abs(mean - A @ prior_mean).max() < 1e-9
        assert np.abs(cov - (A @ prior_cov @ A.T + Q)).max() < 1e-9

    def test_constant_drift_map(self):
        # planar advection with a uniform unit field moves the mean by dt
        dt = 0.01

        def dyn(pts):
            out = pts.copy()
            out[:, 0] += dt * 1.0
            return out

        mean, _ = predict(*belief([-35.0, 25.0], np.eye(2)), dyn, np.zeros((2, 2)))
        assert mean == pytest.approx([-35.0 + dt, 25.0], abs=1e-12)

    def test_added_noise_dominates(self):
        Q = np.array([[0.5]])
        _, cov = predict(*belief([0.0], [[1.0]]), lambda pts: pts, Q)
        assert np.linalg.eigvalsh(cov - Q).min() > -1e-10

    def test_diverging_dynamics_raises(self):
        with pytest.raises(DynamicsDivergedError):
            predict(*belief([1.0], [[1.0]]), lambda pts: pts * np.nan, np.zeros((1, 1)))


class TestUpdate:
    def test_uninformative_measurement_keeps_prior(self):
        prior_mean, prior_cov = belief([1.0, 2.0], np.eye(2))
        mean, cov, _ = linear_update(prior_mean, prior_cov, np.eye(2), np.array([5.0, 5.0]),
                                     1e12 * np.eye(2))
        assert np.abs(mean - prior_mean).max() < 1e-3
        assert np.abs(cov - prior_cov).max() / np.abs(prior_cov).max() < 1e-3

    def test_scalar_linear_update_matches_closed_form(self, linear_kalman):
        kf = linear_kalman([0.5], [[2.0]], [[1.0]], [[1.0]], [[0.0]], [[0.3]])
        y = np.array([1.7])
        kf.predict()
        kf.update(y)
        mean, cov, log_lik = linear_update(*belief([0.5], [[2.0]]), np.eye(1), y,
                                           np.array([[0.3]]))
        assert np.abs(mean - kf.m).max() < 1e-9
        assert np.abs(cov - kf.P).max() < 1e-9
        # predicted observation N(0.5, 2.3)
        assert log_lik == pytest.approx(-np.log(2.3) - 1.2**2 / 2.3)

    def test_unobserved_block_untouched(self):
        mean, cov, _ = linear_update(*belief([1.0, 2.0, 3.0], np.diag([1.0, 1.0, 4.0])),
                                     np.eye(3)[:2], np.array([1.5, 1.5]), 0.01 * np.eye(2))
        assert abs(mean[2] - 3.0) < 1e-10
        assert np.abs(cov[2, :2]).max() < 1e-10

    def test_trace_never_grows_linear_case(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            root = rng.standard_normal((3, 3))
            prior_cov = root @ root.T + np.eye(3)
            _, cov, _ = linear_update(rng.standard_normal(3), prior_cov, np.eye(3)[:1],
                                      rng.standard_normal(1), np.array([[0.5]]))
            assert np.trace(cov) <= np.trace(prior_cov) + 1e-10

    def test_symmetry_after_operations(self):
        rng = np.random.default_rng(11)
        mean, cov = belief(rng.standard_normal(4), np.eye(4))
        for _ in range(50):
            mean, cov = predict(mean, cov, lambda pts: pts * 0.99, 0.01 * np.eye(4))
            mean, cov, _ = linear_update(mean, cov, np.eye(4)[:2], rng.standard_normal(2),
                                         0.1 * np.eye(2))
            asym = np.abs(cov - cov.T).max()
            assert asym < 1e-10

    def test_singular_innovation_rejected(self):
        with pytest.raises(SingularInnovationError):
            linear_update(*belief([0.0], np.zeros((1, 1))), np.eye(1), np.array([0.0]),
                          np.zeros((1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_covariance_rejected_not_scored(self, bad):
        # a NaN in D gives a NaN Cholesky factor without a LinAlgError; it
        # must not pass the guard and come back as a NaN score
        cov = np.eye(2)
        cov[0, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(SingularInnovationError):
            linear_update(np.zeros(2), cov, np.eye(2), np.zeros(2), np.eye(2))


def random_beliefs(rng, n, dim):
    roots = rng.standard_normal((n, dim, dim))
    return [(rng.standard_normal(dim), r @ r.T + np.eye(dim)) for r in roots]


def stack(beliefs):
    means, covs = zip(*beliefs)
    return np.stack(means), np.stack(covs)


class TestStacks:
    """A stack is processed in one call and gives each belief's own result
    bit for bit."""

    def test_predict_matches_each_belief(self):
        beliefs = random_beliefs(np.random.default_rng(5), 6, 5)
        dynamics = lambda pts: pts + 0.1 * np.sin(pts)  # noqa: E731
        Q = 0.01 * np.eye(5)
        mean, cov = predict(*stack(beliefs), dynamics, Q)
        for i, one in enumerate(beliefs):
            want_mean, want_cov = predict(*one, dynamics, Q)
            assert np.array_equal(mean[i], want_mean)
            assert np.array_equal(cov[i], want_cov)

    def test_predicted_covariance_exactly_symmetric(self):
        # the propagated moments are exactly symmetric, and so is Q
        rng = np.random.default_rng(4)
        beliefs = random_beliefs(rng, 6, 5)
        root = rng.standard_normal((5, 5))
        Q = 0.01 * (root @ root.T)
        dynamics = lambda pts: pts + 0.1 * np.sin(pts) * pts[:, ::-1]  # noqa: E731
        _, cov = predict(*stack(beliefs), dynamics, Q)
        assert np.array_equal(cov, np.swapaxes(cov, -1, -2))

    def test_dynamics_called_once_on_all_rows(self):
        beliefs = random_beliefs(np.random.default_rng(6), 4, 3)
        calls = []

        def dynamics(pts):
            calls.append(pts.shape)
            return pts

        predict(*stack(beliefs), dynamics, np.zeros((3, 3)))
        assert calls == [(4 * 7, 3)]

    def test_one_bad_member_fails_the_stack(self):
        beliefs = random_beliefs(np.random.default_rng(8), 3, 2)
        beliefs[1] = belief([0.0, 0.0], np.diag([1.0, -1.0]))
        with pytest.raises(CovarianceError):
            sigma_points(*stack(beliefs))


def observation_matrix(tau, d_theta, d_x=3, observed=(0, 2)):
    """Observed-column selector plus the offset matrix at ``tau`` (one tau
    per slice for an array), as the switching filter builds it."""
    m = len(observed)
    select = np.eye(d_x + d_theta)[list(observed)]
    H = np.broadcast_to(select, np.shape(tau) + select.shape).copy()
    write_offset_basis(H[..., d_x:], offset_columns(m, d_theta), tau)
    return H


def assert_rel_close(got, want, rtol=1e-9):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def closed_form(linear_kalman, mean, cov, H, y, R):
    """Posterior mean and covariance from the closed-form Kalman update, and
    the score ``-log|S| - r^T S^{-1} r`` of the innovation ``r`` under its
    covariance ``S``."""
    kf = linear_kalman(mean, cov, np.eye(mean.size), H, np.zeros_like(cov), R)
    _, S = kf.update(y)
    resid = y - H @ mean
    return kf.m, kf.P, -np.linalg.slogdet(S)[1] - resid @ np.linalg.solve(S, resid)


class TestLinearUpdate:
    """The exact update agrees with the closed-form Kalman filter to rounding
    on the switching filter's observation maps."""

    @pytest.mark.parametrize("d_theta", [3, 6])
    def test_single_belief_matches_closed_form(self, linear_kalman, d_theta):
        rng = np.random.default_rng(d_theta)
        ((prior_mean, prior_cov),) = random_beliefs(rng, 1, 3 + d_theta)
        H = observation_matrix(2.5, d_theta)
        y, R = rng.standard_normal(2), 0.1 * np.eye(2)
        mean, cov, log_lik = linear_update(prior_mean, prior_cov, H, y, R)
        want_mean, want_cov, want_log_lik = closed_form(
            linear_kalman, prior_mean, prior_cov, H, y, R)
        assert_rel_close(mean, want_mean)
        assert_rel_close(cov, want_cov)
        assert_rel_close(log_lik, want_log_lik)

    @pytest.mark.parametrize("d_theta", [3, 6])
    def test_stack_matches_closed_form(self, linear_kalman, d_theta):
        rng = np.random.default_rng(10 + d_theta)
        beliefs = random_beliefs(rng, 5, 3 + d_theta)
        H = observation_matrix(np.array([0.0, 0.3, 1.0, 2.0, 4.5]), d_theta)
        H[0, :, 3:] = 0.0  # a nominal branch: no parameter block
        y, R = rng.standard_normal(2), 0.1 * np.eye(2)
        mean, cov, log_lik = linear_update(*stack(beliefs), H, y, R)
        for i, (prior_mean, prior_cov) in enumerate(beliefs):
            want_mean, want_cov, want_log_lik = closed_form(
                linear_kalman, prior_mean, prior_cov, H[i], y, R)
            assert_rel_close(mean[i], want_mean)
            assert_rel_close(cov[i], want_cov)
            assert_rel_close(log_lik[i], want_log_lik)

    def test_stack_matches_each_belief(self):
        rng = np.random.default_rng(9)
        beliefs = random_beliefs(rng, 4, 9)
        H = observation_matrix(np.array([0.1, 0.2, 0.7, 3.0]), 6)
        y, R = rng.standard_normal(2), 0.1 * np.eye(2)
        mean, cov, log_lik = linear_update(*stack(beliefs), H, y, R)
        for i, one in enumerate(beliefs):
            want_mean, want_cov, want_log_lik = linear_update(*one, H[i], y, R)
            assert np.array_equal(mean[i], want_mean)
            assert np.array_equal(cov[i], want_cov)
            assert log_lik[i] == want_log_lik


# (state columns, parameter-block width, observed columns) of each scenario
SIZES = {"balloon": (2, 3, (0, 1)), "shuttle": (15, 9, (0, 1, 2))}


def bank_update_case(size: str, seed: int):
    """A ten-row bank's ``(mean, cov, H, y, R)`` at a scenario's sizes."""
    d_x, d_theta, observed = SIZES[size]
    rng = np.random.default_rng(seed)
    mean, cov = stack(random_beliefs(rng, 10, d_x + d_theta))
    H = observation_matrix(np.linspace(0.0, 4.5, 10), d_theta, d_x, observed)
    H[0, :, d_x:] = 0.0
    m = len(observed)
    return mean, cov, H, rng.standard_normal(m), 0.1 * np.eye(m)


def update_with_public_linalg(mean, cov, H, y, R):
    """``linear_update``'s arithmetic through ``np.linalg.cholesky`` and
    ``np.linalg.solve``."""
    Ht = np.swapaxes(H, -1, -2)
    mu = (H @ mean[..., None])[..., 0]
    cross = cov @ Ht
    D = symmetrize(H @ cross + R)
    chol = np.linalg.cholesky(D)
    cholT = np.swapaxes(chol, -1, -2)
    gain = np.swapaxes(np.linalg.solve(cholT, np.linalg.solve(chol, np.swapaxes(cross, -1, -2))),
                       -1, -2)
    resid = (y - mu)[..., None]
    mean = mean + (gain @ resid)[..., 0]
    cov = cov - gain @ D @ np.swapaxes(gain, -1, -2)
    white = np.linalg.solve(chol, resid)
    log_det = 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    return mean, symmetrize(cov), -log_det - (np.swapaxes(white, -1, -2) @ white)[..., 0, 0]


def update_with_innovation(D, failed=None):
    """``linear_update`` of a stack whose innovation covariances are exactly
    the symmetric stack ``D``: a zero prior observed directly with noise ``D``."""
    rows, m, _ = D.shape
    return linear_update(np.zeros((rows, m)), np.zeros_like(D),
                         np.broadcast_to(np.eye(m), D.shape), np.zeros(m), D, failed)


def with_member(covs, i, bad):
    covs = covs.copy()
    covs[i] = bad
    return covs


@pytest.mark.parametrize("size", SIZES)
class TestLapackGufuncs:
    """``gaussfilt`` calls the LAPACK gufuncs behind ``np.linalg.cholesky``
    and ``np.linalg.solve`` directly: the factors and solutions are the
    public functions' bits, and a stack fails where theirs fails."""

    def test_factors_match_public_cholesky(self, size):
        _, cov, *_ = bank_update_case(size, 1)
        assert _sqrt_factor(cov).tobytes() == np.linalg.cholesky(cov).tobytes()

    def test_update_matches_public_solves(self, size):
        case = bank_update_case(size, 2)
        for got, want in zip(linear_update(*case), update_with_public_linalg(*case)):
            assert got.tobytes() == want.tobytes()

    def test_non_pd_member_fails_where_public_fails(self, size):
        _, cov, *_ = bank_update_case(size, 3)
        d = cov.shape[-1]
        others = [i for i in range(10) if i != 4]
        bad = with_member(cov, 4, -np.eye(d))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(bad)
        with pytest.raises(SingularInnovationError):
            update_with_innovation(bad)
        failed = {}
        update_with_innovation(bad, failed)
        assert failed == {4: SingularInnovationError}
        with pytest.raises(CovarianceError):
            _sqrt_factor(bad)
        # the member is reported, and the others keep the public factors
        failed = {}
        factor = _sqrt_factor(bad, failed)
        assert failed == {4: CovarianceError}
        assert factor[others].tobytes() == np.linalg.cholesky(cov[others]).tobytes()
        # a semi-definite member alone goes on to eigh
        semi = with_member(cov, 4, np.diag([1.0, 0.0] + [1.0] * (d - 2)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(semi)
        failed = {}
        factor = _sqrt_factor(semi, failed)
        assert failed == {}
        assert factor[others].tobytes() == np.linalg.cholesky(semi[others]).tobytes()
        assert factor[4].tobytes() == _sqrt_factor(semi[4]).tobytes()
        assert np.array_equal(factor[4] @ factor[4].T, semi[4])

    def test_nan_member_gives_public_nan_factor(self, size):
        _, cov, *_ = bank_update_case(size, 4)
        nan = cov.copy()
        nan[4, 1, 1] = np.nan
        want = np.linalg.cholesky(nan)
        assert np.isnan(want[4]).any() and np.isfinite(np.delete(want, 4, axis=0)).all()
        assert _sqrt_factor(nan).tobytes() == want.tobytes()

    def test_inf_off_diagonal_member_fails_where_public_fails(self, size):
        _, cov, *_ = bank_update_case(size, 5)
        inf = cov.copy()
        inf[4, 0, 1] = inf[4, 1, 0] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(inf)
        with pytest.raises(SingularInnovationError):
            update_with_innovation(inf)
        with pytest.raises(CovarianceError):
            _sqrt_factor(inf)
        failed = {}
        _sqrt_factor(inf, failed)
        assert failed == {4: CovarianceError}


# A reentry state (altitude, two position angles, speed, flight-path angle,
# azimuth, roll, pitch, yaw, then six IMU biases), one IMU sample whose pitch
# rate turns the pitch by about 0.0096 rad a step, and the altitude at which
# the test dynamics turns a point non-finite.
NAV = np.array([1.5e5, 0.93, 0.32, 1.4e4, -0.006, 0.8, 0.3, 0.2, 0.65] + [0.0] * 6)
IMU_F, IMU_W, DT = np.array([10.0, 0.0, -30.0]), np.array([0.0, 0.1, 0.0]), 0.1
DIVERGE = 1.25e5


def strapdown(points):
    out = kernels.strapdown_batch(points, IMU_F, IMU_W, DT)
    out[points[:, 0] == DIVERGE] = np.nan
    return out


def reentry_stack(rows=5, seed=0):
    """``rows`` beliefs near ``NAV`` whose sigma points pass every guard."""
    rng = np.random.default_rng(seed)
    roots = rng.standard_normal((rows, 15, 15))
    means = NAV + 1e-4 * rng.standard_normal((rows, 15))
    return means, 1e-9 * (roots @ np.swapaxes(roots, -1, -2) + np.eye(15))


def fails_alone(stage, n, row, prior):
    """Run ``stage(select, failed=None)`` on the ``n`` rows of a stack whose
    row ``row`` fails, and check that the stack names that row, alone, with
    the error that a run of the row alone raises (``stage(row)``), leaves it
    as ``prior``, its means and covariances, had it, and gives the other rows
    the bytes of the stack without it.  Returns the error type."""
    with pytest.raises(SkfnavError) as alone:
        stage(row)
    failed, without = {}, {}
    got = stage(list(range(n)), failed)
    others = [i for i in range(n) if i != row]
    want = stage(others, without)
    assert failed == {row: type(alone.value)} and without == {}
    for got_part, want_part in zip(got, want):
        assert np.delete(got_part, row, axis=0).tobytes() == want_part.tobytes()
    assert got[0][row].tobytes() == prior[0][row].tobytes()
    assert got[1][row].tobytes() == prior[1][row].tobytes()
    if len(got) == 3:  # an update's failing row scores nothing
        assert got[2][row] == 0.0
    return type(alone.value)


def predict_stage(means, covs, dynamics, Q):
    return lambda select, failed=None: predict(means[select], covs[select], dynamics, Q,
                                               failed)


def set_row(means, covs, row, cov=None, **nav):
    """Copies of a stack with row ``row``'s mean components (by name) and
    covariance replaced."""
    names = ("h", "L", "lam", "v", "gamma", "alpha", "phi", "theta", "psi")
    means, covs = means.copy(), covs.copy()
    for name, value in nav.items():
        means[row, names.index(name)] = value
    if cov is not None:
        covs[row] = cov
    return means, covs


NOT_PD = np.diag([1e-9] * 14 + [-1.0])


class TestFailingRows:
    """Each check of a stage names the stack's rows that fail it, with the
    error that a run of each row alone raises; the other rows keep their
    bits, and a row that fails two checks takes the first."""

    @pytest.mark.parametrize("site, cause", [
        ({"cov": NOT_PD}, CovarianceError),
        ({"theta": np.pi / 2 - 1e-7}, GimbalLockError),
        ({"theta": PITCH_GUARD - 0.005}, GimbalLockError),  # crosses in the step
        ({"L": np.pi / 2}, PolarSingularityError),
        ({"h": DIVERGE}, DynamicsDivergedError),
        # two failing checks: the first in a run of the row alone
        ({"cov": NOT_PD, "theta": np.pi / 2 - 1e-7}, CovarianceError),
        ({"theta": np.pi / 2 - 1e-7, "L": np.pi / 2}, GimbalLockError),
        ({"theta": PITCH_GUARD - 0.005, "h": DIVERGE}, GimbalLockError),
        ({"L": np.pi / 2, "h": DIVERGE}, PolarSingularityError),
    ], ids=["not-pd", "pitch-before", "pitch-after", "polar", "diverged",
            "not-pd+pitch", "pitch+polar", "pitch-after+diverged", "polar+diverged"])
    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_predict_names_the_failing_row(self, site, cause, row):
        means, covs = set_row(*reentry_stack(), row, **site)
        stage = predict_stage(means, covs, strapdown, 1e-10 * np.eye(15))
        assert fails_alone(stage, 5, row, (means, covs)) is cause

    def test_the_dynamics_runs_again_without_the_rows_it_named(self):
        # row 1 fails its covariance and is never propagated; row 3 fails the
        # pitch guard, and the dynamics runs once more on rows 0, 2 and 4
        means, covs = set_row(*set_row(*reentry_stack(), 1, cov=NOT_PD), 3,
                              theta=np.pi / 2 - 1e-7)
        calls, failed = [], {}

        def dynamics(points):
            calls.append(len(points))
            return strapdown(points)

        predict(means, covs, dynamics, np.zeros((15, 15)), failed)
        assert failed == {1: CovarianceError, 3: GimbalLockError}
        assert calls == [4 * 31, 3 * 31]

    def test_every_row_failing_leaves_the_stack_as_it_was(self):
        means, covs = reentry_stack(3)
        means[:, 7] = np.pi / 2 - 1e-7
        failed = {}
        mean, cov = predict(means, covs, strapdown, np.zeros((15, 15)), failed)
        assert failed == dict.fromkeys(range(3), GimbalLockError)
        assert mean.tobytes() == means.tobytes() and cov.tobytes() == covs.tobytes()

    def test_a_field_query_outside_the_grid_names_its_rows(self):
        axis = np.array([-40.0, -30.0, -20.0])
        field = GriddedField(lons=axis, lats=axis + 60.0, times=np.array([0.0, 10.0]),
                             u=np.full((3, 3, 2), 0.1), v=np.full((3, 3, 2), 0.2))

        def advect(points):
            u, v = field.eval(points[:, 0], points[:, 1], 1.0)
            return points + 0.1 * np.stack([u, v], axis=1)

        beliefs = [(np.array([-30.0 + i, 30.0 - i]), 0.01 * np.eye(2)) for i in range(4)]
        means, covs = stack(beliefs)
        means[2, 1] = 45.0  # latitude beyond the grid
        stage = predict_stage(means, covs, advect, 1e-4 * np.eye(2))
        assert fails_alone(stage, 4, 2, (means, covs)) is FieldDomainError

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("row", [0, 4, 9])
    def test_update_names_a_singular_innovation(self, size, row):
        mean, cov, H, y, R = bank_update_case(size, 6)
        # one observed variance 1e16 times the others and the noise: the
        # factor's squared diagonal ratio passes 1e14
        cov[row] = np.diag(np.r_[1e16, np.full(cov.shape[-1] - 1, 1e-6)])

        def stage(select, failed=None):
            return linear_update(mean[select], cov[select], H[select], y, 1e-2 * R, failed)

        assert fails_alone(stage, 10, row, (mean, cov)) is SingularInnovationError

    def test_an_all_infinite_innovation_diagonal_is_singular(self):
        # its factor's diagonal is all infinite, whose ratio is inf / inf
        D = np.stack([np.eye(2) + 0.1 * i for i in range(3)])
        D[1] = [[np.inf, 1.0], [1.0, np.inf]]
        with pytest.raises(SingularInnovationError):
            update_with_innovation(D[1:2])
        failed = {}
        mean, cov, log_lik = update_with_innovation(D, failed)
        assert failed == {1: SingularInnovationError}
        assert np.isfinite(log_lik).all() and np.isfinite(cov).all()


def log_likelihood_increment(y, mu, D):
    """Score of ``y`` from an update whose prediction is exactly ``N(mu, D)``:
    a point-mass prior at ``mu`` observed directly with noise ``D``."""
    mu = np.asarray(mu, dtype=float)
    return linear_update(mu, np.zeros((mu.size, mu.size)), np.eye(mu.size),
                         np.asarray(y, dtype=float), D)[2]


class TestLogLikelihood:
    def test_perfect_fit_unit_covariance_is_zero(self):
        assert log_likelihood_increment([1.0], [1.0], np.eye(1)) == pytest.approx(0.0)

    def test_hand_computed_residual(self):
        assert log_likelihood_increment([2.0], [0.0], np.eye(1)) == pytest.approx(-4.0)

    def test_hand_computed_logdet(self):
        assert log_likelihood_increment([0.0, 0.0], np.zeros(2), np.e * np.eye(2)) == (
            pytest.approx(-2.0)
        )

    # keep |y| representable after squaring so ties are exact, not underflow
    _residuals = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=5),
        st.floats(min_value=-5, max_value=-1e-3),
    )

    @given(_residuals, _residuals)
    @example(0.001, -0.0010000000000000002)  # distinct residuals, equal squares
    @example(0.001, -0.0010000000000000005)  # distinct squares, equal scores
    @settings(max_examples=50, deadline=None)
    def test_ordering_follows_mahalanobis(self, y1, y2):
        """The score never rises as the residual grows in magnitude, and it
        falls once the squares that it reads differ by more than its own
        rounding: it adds the square to a log-determinant of order one."""
        l1 = log_likelihood_increment([y1], [0.0], np.array([[0.7]]))
        l2 = log_likelihood_increment([y2], [0.0], np.array([[0.7]]))
        if abs(y1) > abs(y2):
            y1, y2, l1, l2 = y2, y1, l2, l1
        assert l1 >= l2
        if y2 * y2 - y1 * y1 > 1e-12 * (1.0 + y2 * y2):
            assert l1 > l2
        else:
            assert l1 == pytest.approx(l2)


def test_linear_gaussian_equivalence_long_run(linear_kalman):
    rng = np.random.default_rng(42)
    dt = 0.5
    A = np.array([[1.0, dt], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q = np.diag([1e-4, 1e-3])
    R = np.array([[0.04]])
    kf = linear_kalman([0.0, 1.0], np.eye(2), A, H, Q, R)
    mean, cov = belief([0.0, 1.0], np.eye(2))
    x = np.array([0.0, 1.0])
    for _ in range(100):
        x = A @ x + np.linalg.cholesky(Q) @ rng.standard_normal(2)
        y = H @ x + 0.2 * rng.standard_normal(1)
        kf.predict()
        kf.update(y)
        # the switching filter's path: unscented predict, exact linear update
        mean, cov = predict(mean, cov, lambda pts: pts @ A.T, Q)
        mean, cov, _ = linear_update(mean, cov, H, y, R)
        assert np.abs(mean - kf.m).max() < 1e-8
        assert np.abs(cov - kf.P).max() < 1e-8
