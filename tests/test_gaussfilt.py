import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skfnav.biasmodels import offset_columns, write_offset_basis
from skfnav.exceptions import (
    CovarianceError,
    DynamicsDivergedError,
    InvalidMeasurementError,
    SingularInnovationError,
)
from skfnav.gaussfilt import (
    GaussianBelief,
    SigmaPointParams,
    linear_update,
    predict,
    sigma_points,
    update,
)

PARAMS = SigmaPointParams()


def reconstruct(points, wm, wc):
    mean = wm @ points
    dev = points - mean
    return mean, (dev.T * wc) @ dev


class TestSigmaPoints:
    def test_scalar_unit_gaussian_hand_values(self):
        # alpha=1, kappa=2 gives points at 0 and +-sqrt(3)
        belief = GaussianBelief.create([0.0], [[1.0]])
        pts, _, _ = sigma_points(belief, SigmaPointParams(alpha=1.0, beta=0.0, kappa=2.0))
        assert sorted(pts.ravel()) == pytest.approx([-np.sqrt(3), 0.0, np.sqrt(3)])

    def test_zero_covariance_collapses_to_mean(self):
        belief = GaussianBelief.create([1.0, -2.0], np.zeros((2, 2)))
        pts, _, _ = sigma_points(belief, PARAMS)
        assert np.abs(pts - belief.mean).max() == 0.0

    def test_weights_are_shared_and_read_only(self):
        wm, wc = PARAMS.weights(4)
        assert PARAMS.weights(4)[0] is wm
        assert not wm.flags.writeable and not wc.flags.writeable
        with pytest.raises(ValueError):
            wm[0] = 0.0

    def test_moment_matching_identity(self):
        belief = GaussianBelief.create([1.0, 2.0], np.eye(2))
        mean, cov = reconstruct(*sigma_points(belief, PARAMS))
        assert np.abs(mean - [1.0, 2.0]).max() < 1e-12
        assert np.abs(cov - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("dim", [1, 3, 7, 12, 20])
    def test_moment_matching_random(self, dim):
        rng = np.random.default_rng(dim)
        root = rng.standard_normal((dim, dim))
        belief = GaussianBelief.create(rng.standard_normal(dim), root @ root.T + dim * np.eye(dim))
        mean, cov = reconstruct(*sigma_points(belief, PARAMS))
        assert np.abs(mean - belief.mean).max() < 1e-9
        assert np.abs(cov - belief.cov).max() < 1e-9

    def test_not_psd_rejected(self):
        belief = GaussianBelief.create([0.0, 0.0], np.diag([1.0, -1.0]))
        with pytest.raises(CovarianceError):
            sigma_points(belief, PARAMS)

    def test_small_negative_eigenvalue_tolerated(self):
        belief = GaussianBelief.create([0.0, 0.0], np.diag([1.0, -1e-10]))
        pts, wm, wc = sigma_points(belief, PARAMS)
        assert np.all(np.isfinite(pts))


class TestPredict:
    def test_identity_dynamics_zero_noise(self):
        belief = GaussianBelief.create([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        out = predict(belief, lambda pts: pts, np.zeros((2, 2)), PARAMS)
        assert np.abs(out.mean - belief.mean).max() < 1e-12
        assert np.abs(out.cov - belief.cov).max() < 1e-12

    def test_linear_dynamics_matches_closed_form(self, linear_kalman):
        dt = 0.1
        A = np.array([[1.0, dt], [0.0, 1.0]])
        Q = np.diag([1e-3, 1e-2])
        belief = GaussianBelief.create([1.0, -0.5], [[0.8, 0.1], [0.1, 0.5]])
        out = predict(belief, lambda pts: pts @ A.T, Q, PARAMS)
        expect_cov = A @ belief.cov @ A.T + Q
        assert np.abs(out.mean - A @ belief.mean).max() < 1e-9
        assert np.abs(out.cov - expect_cov).max() < 1e-9

    def test_constant_drift_map(self):
        # planar advection with a uniform unit field moves the mean by dt
        dt = 0.01
        belief = GaussianBelief.create([-35.0, 25.0], np.eye(2))

        def dyn(pts):
            out = pts.copy()
            out[:, 0] += dt * 1.0
            return out

        out = predict(belief, dyn, np.zeros((2, 2)), PARAMS)
        assert out.mean == pytest.approx([-35.0 + dt, 25.0], abs=1e-12)

    def test_added_noise_dominates(self):
        belief = GaussianBelief.create([0.0], [[1.0]])
        Q = np.array([[0.5]])
        out = predict(belief, lambda pts: pts, Q, PARAMS)
        assert np.linalg.eigvalsh(out.cov - Q).min() > -1e-10

    def test_diverging_dynamics_raises(self):
        belief = GaussianBelief.create([1.0], [[1.0]])
        with pytest.raises(DynamicsDivergedError):
            predict(belief, lambda pts: pts * np.nan, np.zeros((1, 1)), PARAMS)


class TestUpdate:
    def test_uninformative_measurement_keeps_prior(self):
        belief = GaussianBelief.create([1.0, 2.0], np.eye(2))
        post, _ = update(belief, lambda pts: pts, np.array([5.0, 5.0]), 1e12 * np.eye(2), PARAMS)
        assert np.abs(post.mean - belief.mean).max() < 1e-3
        assert np.abs(post.cov - belief.cov).max() / np.abs(belief.cov).max() < 1e-3

    def test_scalar_linear_update_matches_closed_form(self, linear_kalman):
        kf = linear_kalman([0.5], [[2.0]], [[1.0]], [[1.0]], [[0.0]], [[0.3]])
        belief = GaussianBelief.create([0.5], [[2.0]])
        y = np.array([1.7])
        kf.predict()
        kf.update(y)
        post, pred = update(belief, lambda pts: pts, y, np.array([[0.3]]), PARAMS)
        assert np.abs(post.mean - kf.m).max() < 1e-9
        assert np.abs(post.cov - kf.P).max() < 1e-9
        assert pred.mu == pytest.approx([0.5])
        assert pred.D.ravel() == pytest.approx([2.3])

    def test_unobserved_block_untouched(self):
        cov = np.diag([1.0, 1.0, 4.0])
        belief = GaussianBelief.create([1.0, 2.0, 3.0], cov)
        post, _ = update(belief, lambda pts: pts[:, :2], np.array([1.5, 1.5]),
                         0.01 * np.eye(2), PARAMS)
        assert abs(post.mean[2] - 3.0) < 1e-10
        assert np.abs(post.cov[2, :2]).max() < 1e-10

    def test_trace_never_grows_linear_case(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            root = rng.standard_normal((3, 3))
            belief = GaussianBelief.create(rng.standard_normal(3), root @ root.T + np.eye(3))
            post, _ = update(belief, lambda pts: pts[:, :1], rng.standard_normal(1),
                             np.array([[0.5]]), PARAMS)
            assert np.trace(post.cov) <= np.trace(belief.cov) + 1e-10

    def test_symmetry_after_operations(self):
        rng = np.random.default_rng(11)
        belief = GaussianBelief.create(rng.standard_normal(4), np.eye(4))
        for _ in range(50):
            belief = predict(belief, lambda pts: pts * 0.99, 0.01 * np.eye(4), PARAMS)
            belief, _ = update(belief, lambda pts: pts[:, :2], rng.standard_normal(2),
                               0.1 * np.eye(2), PARAMS)
            asym = np.abs(belief.cov - belief.cov.T).max()
            assert asym < 1e-10

    def test_nonfinite_measurement_rejected(self):
        belief = GaussianBelief.create([0.0], [[1.0]])
        with pytest.raises(InvalidMeasurementError):
            update(belief, lambda pts: pts, np.array([np.nan]), np.eye(1), PARAMS)

    def test_singular_innovation_rejected(self):
        belief = GaussianBelief.create([0.0], np.zeros((1, 1)))
        with pytest.raises(SingularInnovationError):
            update(belief, lambda pts: pts, np.array([0.0]), np.zeros((1, 1)), PARAMS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_covariance_rejected_not_scored(self, bad):
        # a NaN in D gives a NaN Cholesky factor without a LinAlgError; it
        # must not pass the guard and come back as a NaN score
        cov = np.eye(2)
        cov[0, 0] = bad
        belief = GaussianBelief(mean=np.zeros(2), cov=cov)
        with np.errstate(invalid="ignore"), pytest.raises(SingularInnovationError):
            linear_update(belief, np.eye(2), np.zeros(2), np.eye(2))


def random_beliefs(rng, n, dim):
    roots = rng.standard_normal((n, dim, dim))
    return [GaussianBelief.create(rng.standard_normal(dim), r @ r.T + np.eye(dim))
            for r in roots]


def stack(beliefs):
    return GaussianBelief(mean=np.stack([b.mean for b in beliefs]),
                          cov=np.stack([b.cov for b in beliefs]))


class TestStacks:
    """A stack is processed in one call and gives each belief's own result
    bit for bit."""

    def test_predict_matches_each_belief(self):
        beliefs = random_beliefs(np.random.default_rng(5), 6, 5)
        dynamics = lambda pts: pts + 0.1 * np.sin(pts)  # noqa: E731
        Q = 0.01 * np.eye(5)
        out = predict(stack(beliefs), dynamics, Q, PARAMS)
        for i, belief in enumerate(beliefs):
            want = predict(belief, dynamics, Q, PARAMS)
            assert np.array_equal(out.mean[i], want.mean)
            assert np.array_equal(out.cov[i], want.cov)

    def test_predicted_covariance_exactly_symmetric(self):
        # the propagated moments are exactly symmetric, and so is Q
        rng = np.random.default_rng(4)
        beliefs = random_beliefs(rng, 6, 5)
        root = rng.standard_normal((5, 5))
        Q = 0.01 * (root @ root.T)
        dynamics = lambda pts: pts + 0.1 * np.sin(pts) * pts[:, ::-1]  # noqa: E731
        out = predict(stack(beliefs), dynamics, Q, PARAMS)
        assert np.array_equal(out.cov, np.swapaxes(out.cov, -1, -2))

    def test_dynamics_called_once_on_all_rows(self):
        beliefs = random_beliefs(np.random.default_rng(6), 4, 3)
        calls = []

        def dynamics(pts):
            calls.append(pts.shape)
            return pts

        predict(stack(beliefs), dynamics, np.zeros((3, 3)), PARAMS)
        assert calls == [(4 * 7, 3)]

    def test_update_matches_each_belief(self):
        rng = np.random.default_rng(7)
        beliefs = random_beliefs(rng, 6, 5)
        observation = lambda pts: pts[..., :2] ** 2  # noqa: E731
        y, R = rng.standard_normal(2), 0.1 * np.eye(2)
        post, pred = update(stack(beliefs), observation, y, R, PARAMS)
        for i, belief in enumerate(beliefs):
            want, want_pred = update(belief, observation, y, R, PARAMS)
            assert np.array_equal(post.mean[i], want.mean)
            assert np.array_equal(post.cov[i], want.cov)
            assert pred.log_lik[i] == want_pred.log_lik

    def test_one_bad_member_fails_the_stack(self):
        beliefs = random_beliefs(np.random.default_rng(8), 3, 2)
        beliefs[1] = GaussianBelief.create([0.0, 0.0], np.diag([1.0, -1.0]))
        with pytest.raises(CovarianceError):
            sigma_points(stack(beliefs), PARAMS)


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


class TestLinearUpdate:
    """For a linear map the unscented update is exact, so the closed-form
    update must agree with it to rounding."""

    @pytest.mark.parametrize("d_theta", [3, 6])
    def test_single_belief_matches_unscented_update(self, d_theta):
        rng = np.random.default_rng(d_theta)
        (belief,) = random_beliefs(rng, 1, 3 + d_theta)
        H = observation_matrix(2.5, d_theta)
        y, R = rng.standard_normal(2), 0.1 * np.eye(2)
        post, pred = linear_update(belief, H, y, R)
        want, want_pred = update(belief, lambda pts: pts @ H.T, y, R, PARAMS)
        assert_rel_close(post.mean, want.mean)
        assert_rel_close(post.cov, want.cov)
        assert_rel_close(pred.mu, want_pred.mu)
        assert_rel_close(pred.D, want_pred.D)
        assert_rel_close(pred.log_lik, want_pred.log_lik)

    @pytest.mark.parametrize("d_theta", [3, 6])
    def test_stack_matches_unscented_update(self, d_theta):
        rng = np.random.default_rng(10 + d_theta)
        beliefs = stack(random_beliefs(rng, 5, 3 + d_theta))
        H = observation_matrix(np.array([0.0, 0.3, 1.0, 2.0, 4.5]), d_theta)
        H[0, :, 3:] = 0.0  # a nominal branch: no parameter block
        y, R = rng.standard_normal(2), 0.1 * np.eye(2)
        post, pred = linear_update(beliefs, H, y, R)
        want, want_pred = update(beliefs, lambda pts: pts @ np.swapaxes(H, -1, -2), y, R, PARAMS)
        for i in range(5):
            assert_rel_close(post.mean[i], want.mean[i])
            assert_rel_close(post.cov[i], want.cov[i])
            assert_rel_close(pred.log_lik[i], want_pred.log_lik[i])

    def test_stack_matches_each_belief(self):
        rng = np.random.default_rng(9)
        beliefs = random_beliefs(rng, 4, 9)
        H = observation_matrix(np.array([0.1, 0.2, 0.7, 3.0]), 6)
        y, R = rng.standard_normal(2), 0.1 * np.eye(2)
        post, pred = linear_update(stack(beliefs), H, y, R)
        for i, belief in enumerate(beliefs):
            want, want_pred = linear_update(belief, H[i], y, R)
            assert np.array_equal(post.mean[i], want.mean)
            assert np.array_equal(post.cov[i], want.cov)
            assert pred.log_lik[i] == want_pred.log_lik

    def test_bad_measurements_rejected(self):
        belief = GaussianBelief.create([0.0, 0.0], np.eye(2))
        H = np.eye(2)
        with pytest.raises(InvalidMeasurementError):
            linear_update(belief, H, np.array([np.nan, 0.0]), np.eye(2))
        with pytest.raises(InvalidMeasurementError):
            linear_update(belief, H, np.zeros(3), np.eye(2))


def log_likelihood_increment(y, mu, D):
    """Score of ``y`` from an update whose prediction is exactly ``N(mu, D)``:
    a point-mass prior at ``mu`` observed directly with noise ``D``."""
    mu = np.asarray(mu, dtype=float)
    belief = GaussianBelief.create(mu, np.zeros((mu.size, mu.size)))
    _, pred = update(belief, lambda pts: pts, np.asarray(y, dtype=float), D, PARAMS)
    return pred.log_lik


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
    @settings(max_examples=50, deadline=None)
    def test_ordering_follows_mahalanobis(self, y1, y2):
        l1 = log_likelihood_increment([y1], [0.0], np.array([[0.7]]))
        l2 = log_likelihood_increment([y2], [0.0], np.array([[0.7]]))
        if abs(y1) < abs(y2):
            assert l1 > l2
        elif abs(y1) == abs(y2):
            assert l1 == pytest.approx(l2)


def test_linear_gaussian_equivalence_long_run(linear_kalman):
    rng = np.random.default_rng(42)
    dt = 0.5
    A = np.array([[1.0, dt], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q = np.diag([1e-4, 1e-3])
    R = np.array([[0.04]])
    kf = linear_kalman([0.0, 1.0], np.eye(2), A, H, Q, R)
    belief = GaussianBelief.create([0.0, 1.0], np.eye(2))
    x = np.array([0.0, 1.0])
    for _ in range(100):
        x = A @ x + np.linalg.cholesky(Q) @ rng.standard_normal(2)
        y = H @ x + 0.2 * rng.standard_normal(1)
        kf.predict()
        kf.update(y)
        belief = predict(belief, lambda pts: pts @ A.T, Q, PARAMS)
        belief, _ = update(belief, lambda pts: pts @ H.T, y, R, PARAMS)
        assert np.abs(belief.mean - kf.m).max() < 1e-8
        assert np.abs(belief.cov - kf.P).max() < 1e-8
