import numpy as np
import pytest

from ldsmdl import (DegeneracyError, LdsParams, SequenceData,
                    complete_data_loglik, enforce_stability, kalman_filter,
                    rts_smooth, simulate)
from ldsmdl import _engine
from ldsmdl.datagen import RandomLdsConfig, random_stable_lds

from .oracles import joint_loglik, smoothed_moments, textbook_smoother


def random_model(d, d_out, seed):
    return random_stable_lds(RandomLdsConfig(d=d, d_out=d_out, seed=seed))


class TestKalmanFilter:
    def test_conjugate_scalar_update(self):
        p = LdsParams(A=[[0.0]], C=[[1.0]], R1=[[1.0]], R2=[[1.0]],
                      mu0=[0.0], R0=[[1.0]])
        fr = kalman_filter(p, SequenceData(Y=[1.0]))
        assert fr.filt_means[0, 0] == pytest.approx(0.5)
        assert fr.filt_covs[0, 0, 0] == pytest.approx(0.5)
        assert fr.loglik == pytest.approx(-0.5 * np.log(2 * np.pi * 2) - 0.25)

    def test_perfect_prediction(self):
        mu0 = np.array([1.5, -0.5])
        C = np.array([[1.0, 2.0], [0.0, 1.0]])
        p = LdsParams(A=0.5 * np.eye(2), C=C, R1=np.eye(2),
                      R2=1e-12 * np.eye(2), mu0=mu0, R0=np.zeros((2, 2)))
        fr = kalman_filter(p, SequenceData(Y=(C @ mu0)[None, :]))
        np.testing.assert_allclose(fr.filt_means[0], mu0, atol=1e-8)

    def test_scalar_loglik_matches_joint_oracle(self):
        p = random_model(1, 1, seed=2)
        data = simulate(p, T=3, seed=5)
        fr = kalman_filter(p, data)
        assert fr.loglik == pytest.approx(joint_loglik(p, data.Y), abs=1e-8)

    def test_multivariate_loglik_matches_joint_oracle(self):
        for seed in range(5):
            p = random_model(3, 2, seed=seed)
            data = simulate(p, T=5, seed=seed + 100)
            fr = kalman_filter(p, data)
            assert fr.loglik == pytest.approx(joint_loglik(p, data.Y), abs=1e-8)

    def test_degenerate_innovation_raises(self):
        p = LdsParams(A=np.zeros((2, 2)), C=np.eye(2),
                      R1=np.zeros((2, 2)), R2=np.diag([1.0, 0.0]),
                      mu0=np.zeros(2), R0=np.diag([1.0, 0.0]))
        with pytest.raises(DegeneracyError):
            kalman_filter(p, SequenceData(Y=np.ones((3, 2))))

    def test_orthogonal_similarity_invariance(self):
        p = random_model(3, 2, seed=9)
        data = simulate(p, T=20, seed=3)
        base = kalman_filter(p, data).loglik
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q = LdsParams(A=U @ p.A @ U.T, C=p.C @ U.T, R1=U @ p.R1 @ U.T,
                      R2=p.R2, mu0=U @ p.mu0, R0=U @ p.R0 @ U.T)
        assert kalman_filter(q, data).loglik == pytest.approx(base, abs=1e-8)


class TestRtsSmooth:
    def test_length_one_equals_filtered(self):
        p = random_model(2, 1, seed=4)
        data = simulate(p, T=1, seed=0)
        fr = kalman_filter(p, data)
        sm = rts_smooth(p, fr)
        np.testing.assert_allclose(sm.means, fr.filt_means, atol=1e-12)
        np.testing.assert_allclose(sm.covs, fr.filt_covs, atol=1e-12)

    def test_zero_transition_smoothing_is_filtering(self):
        p = LdsParams(A=np.zeros((2, 2)), C=np.eye(2), R1=np.eye(2),
                      R2=np.eye(2), mu0=np.zeros(2), R0=np.eye(2))
        data = SequenceData(Y=np.random.default_rng(1).standard_normal((6, 2)))
        fr = kalman_filter(p, data)
        sm = rts_smooth(p, fr)
        np.testing.assert_allclose(sm.means, fr.filt_means, atol=1e-12)

    def test_scalar_moments_match_conditioning_oracle(self):
        p = random_model(1, 1, seed=8)
        data = simulate(p, T=3, seed=2)
        sm = rts_smooth(p, kalman_filter(p, data))
        means, covs, cross = smoothed_moments(p, data.Y)
        np.testing.assert_allclose(sm.means, means, atol=1e-8)
        np.testing.assert_allclose(sm.covs, covs, atol=1e-8)
        np.testing.assert_allclose(sm.cross_covs, cross, atol=1e-8)

    def test_multivariate_moments_match_conditioning_oracle(self):
        for seed in range(5):
            p = random_model(3, 2, seed=seed + 20)
            data = simulate(p, T=5, seed=seed)
            sm = rts_smooth(p, kalman_filter(p, data))
            means, covs, cross = smoothed_moments(p, data.Y)
            np.testing.assert_allclose(sm.means, means, atol=1e-8)
            np.testing.assert_allclose(sm.covs, covs, atol=1e-8)
            np.testing.assert_allclose(sm.cross_covs, cross, atol=1e-8)

    def test_second_moments_assembled(self):
        p = random_model(2, 1, seed=6)
        data = simulate(p, T=4, seed=7)
        sm = rts_smooth(p, kalman_filter(p, data))
        np.testing.assert_allclose(
            sm.Z, sm.covs + np.einsum("td,te->tde", sm.means, sm.means))
        np.testing.assert_allclose(
            sm.Z_cross,
            sm.cross_covs + np.einsum("td,te->tde", sm.means[1:], sm.means[:-1]))

    def test_smoothing_never_increases_covariance(self):
        p = random_model(3, 1, seed=31)
        data = simulate(p, T=15, seed=4)
        fr = kalman_filter(p, data)
        sm = rts_smooth(p, fr)
        for t in range(data.T):
            gap = np.linalg.eigvalsh(fr.filt_covs[t] - sm.covs[t])
            assert np.min(gap) >= -1e-10


def switch_step(pred_covs):
    """First step from which every stored predicted covariance is bitwise
    equal to the last one: where the filter froze its covariance recursion.
    ``pred_covs`` is (T, d, d) or (B, T, d, d)."""
    steps = np.moveaxis(pred_covs, -3, 0)
    t = len(steps)
    while t > 0 and np.array_equal(steps[t - 1], steps[-1], equal_nan=True):
        t -= 1
    return t


class TestSteadyState:
    """The filter freezes S, K and the covariances once the predicted
    covariance settles; the smoother then reuses J and copies V."""

    def test_long_sequence_matches_textbook_recursion(self):
        for seed in range(3):
            p = random_model(3, 2, seed=seed + 40)
            data = simulate(p, T=1000, seed=seed)
            fr = kalman_filter(p, data)
            assert switch_step(fr.pred_covs) < data.T // 2
            sm = rts_smooth(p, fr)
            loglik, means, covs, cross = textbook_smoother(p, data.Y)
            assert fr.loglik == pytest.approx(loglik, rel=1e-9)
            np.testing.assert_allclose(sm.means, means, rtol=0, atol=1e-8)
            np.testing.assert_allclose(sm.covs, covs, rtol=0, atol=1e-8)
            np.testing.assert_allclose(sm.cross_covs, cross, rtol=0, atol=1e-8)

    def test_failed_element_does_not_block_the_switch(self):
        # S is singular from the first step, and the unobserved, unstable
        # second state makes this element's covariance grow without bound
        degenerate = LdsParams(A=1.5 * np.eye(2), C=[[1.0, 0.0], [0.0, 0.0]],
                               R1=np.eye(2), R2=np.diag([1.0, 0.0]),
                               mu0=np.zeros(2), R0=np.eye(2))
        models = [random_model(2, 2, seed=s) for s in (50, 51, 52)]
        models.insert(1, degenerate)
        Y = simulate(models[0], T=400, seed=1).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        np.testing.assert_array_equal(fr["ok"], [True, False, True, True])
        assert switch_step(fr["pred_covs"]) < 200
        sm = _engine.smooth_batch(batch, fr)
        for b in (0, 2, 3):
            pb = _engine.stack_params([models[b]])
            one = _engine.filter_batch(pb, Y)
            one_sm = _engine.smooth_batch(pb, one)
            assert fr["loglik"][b] == pytest.approx(one["loglik"][0], rel=1e-12)
            for key in ("filt_means", "filt_covs", "pred_means", "pred_covs"):
                np.testing.assert_allclose(fr[key][b], one[key][0],
                                           rtol=1e-12, atol=1e-12)
            for key in ("means", "covs", "cross"):
                np.testing.assert_allclose(sm[key][b], one_sm[key][0],
                                           rtol=1e-12, atol=1e-12)

    def test_short_sequences_never_switch(self, monkeypatch):
        # the acceptance-1 setting: T <= 5 ends inside the transient, so the
        # outputs are bit-identical to a run whose settle test never passes
        rng = np.random.default_rng(0)
        cases = []
        for seed in range(50):
            d, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            T = int(rng.integers(1, 6))
            p = random_stable_lds(RandomLdsConfig(d=d, d_out=d_out, seed=seed))
            cases.append((p, simulate(p, T=T, seed=seed)))

        def run_all():
            out = []
            for p, data in cases:
                fr = kalman_filter(p, data)
                out.append((fr, rts_smooth(p, fr)))
            return out

        fast = run_all()
        monkeypatch.setattr(_engine, "SETTLE_RTOL", -np.inf)
        full = run_all()
        for (fr, sm), (fr_full, sm_full) in zip(fast, full):
            assert fr.loglik == fr_full.loglik
            for a, b in ((fr.pred_covs, fr_full.pred_covs),
                         (fr.filt_means, fr_full.filt_means),
                         (fr.filt_covs, fr_full.filt_covs),
                         (sm.means, sm_full.means), (sm.covs, sm_full.covs),
                         (sm.cross_covs, sm_full.cross_covs)):
                np.testing.assert_array_equal(a, b)


class TestCompleteDataLoglik:
    def test_zero_residual(self):
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[1.0]],
                      mu0=[0.0], R0=[[1.0]])
        from ldsmdl.inference import SmoothedPosterior
        post = SmoothedPosterior(means=np.array([[0.7]]),
                                 covs=np.ones((1, 1, 1)),
                                 cross_covs=np.zeros((0, 1, 1)),
                                 Z=np.ones((1, 1, 1)),
                                 Z_cross=np.zeros((0, 1, 1)))
        val = complete_data_loglik(p, post, SequenceData(Y=[0.7]))
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_hand_evaluated_two_step(self):
        from ldsmdl.inference import SmoothedPosterior
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[0.5]],
                      mu0=[0.0], R0=[[1.0]])
        means = np.array([[0.0], [0.0]])
        post = SmoothedPosterior(means=means, covs=np.ones((2, 1, 1)),
                                 cross_covs=np.zeros((1, 1, 1)),
                                 Z=np.ones((2, 1, 1)),
                                 Z_cross=np.zeros((1, 1, 1)))
        data = SequenceData(Y=[0.1, -0.2])
        expected = 2 * (-0.5 * np.log(np.pi)) - (0.01 + 0.04) / 1.0
        assert complete_data_loglik(p, post, data) == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx(-1.1947, abs=1e-4)

    def test_residual_doubling_quadratic_scaling(self):
        from ldsmdl.inference import SmoothedPosterior
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[1.0]],
                      mu0=[0.0], R0=[[1.0]])
        r = np.array([0.3, -0.1, 0.2])
        post = SmoothedPosterior(means=np.zeros((3, 1)),
                                 covs=np.ones((3, 1, 1)),
                                 cross_covs=np.zeros((2, 1, 1)),
                                 Z=np.ones((3, 1, 1)),
                                 Z_cross=np.zeros((2, 1, 1)))
        base = complete_data_loglik(p, post, SequenceData(Y=r))
        doubled = complete_data_loglik(p, post, SequenceData(Y=2 * r))
        assert base - doubled == pytest.approx(np.sum(r ** 2) * 3 / 2)

    def test_singular_r2_raises(self):
        from ldsmdl.inference import SmoothedPosterior
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[0.0]],
                      mu0=[0.0], R0=[[1.0]])
        post = SmoothedPosterior(means=np.zeros((2, 1)), covs=np.ones((2, 1, 1)),
                                 cross_covs=np.zeros((1, 1, 1)),
                                 Z=np.ones((2, 1, 1)), Z_cross=np.zeros((1, 1, 1)))
        with pytest.raises(DegeneracyError):
            complete_data_loglik(p, post, SequenceData(Y=[0.0, 0.0]))
