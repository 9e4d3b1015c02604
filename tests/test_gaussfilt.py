import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skfnav.biasmodels import offset_columns, write_offset_basis
from skfnav.exceptions import (
    CovarianceError,
    DynamicsDivergedError,
    InvalidMeasurementError,
    SingularInnovationError,
)
from skfnav.gaussfilt import (
    _sqrt_factor,
    linear_update,
    predict,
    sigma_points,
    symmetrize,
)


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

    def test_nonfinite_measurement_rejected(self):
        with pytest.raises(InvalidMeasurementError):
            linear_update(*belief([0.0], [[1.0]]), np.eye(1), np.array([np.nan]), np.eye(1))

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

    def test_bad_measurements_rejected(self):
        prior = belief([0.0, 0.0], np.eye(2))
        H = np.eye(2)
        with pytest.raises(InvalidMeasurementError):
            linear_update(*prior, H, np.array([np.nan, 0.0]), np.eye(2))
        with pytest.raises(InvalidMeasurementError):
            linear_update(*prior, H, np.zeros(3), np.eye(2))


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


def update_with_innovation(D):
    """``linear_update`` of a stack whose innovation covariances are exactly
    the symmetric stack ``D``: a zero prior observed directly with noise ``D``."""
    rows, m, _ = D.shape
    return linear_update(np.zeros((rows, m)), np.zeros_like(D),
                         np.broadcast_to(np.eye(m), D.shape), np.zeros(m), D)


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
        bad = with_member(cov, 4, -np.eye(d))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(bad)
        with pytest.raises(SingularInnovationError):
            update_with_innovation(bad)
        with pytest.raises(CovarianceError):
            _sqrt_factor(bad)
        # a semi-definite member sends the stack one matrix at a time
        semi = with_member(cov, 4, np.diag([1.0, 0.0] + [1.0] * (d - 2)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(semi)
        factor = _sqrt_factor(semi)
        for i in set(range(10)) - {4}:
            assert factor[i].tobytes() == np.linalg.cholesky(semi[i]).tobytes()
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
        with np.errstate(invalid="ignore"), pytest.raises(CovarianceError):
            _sqrt_factor(inf)


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
