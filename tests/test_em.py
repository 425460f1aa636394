import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ldsmdl import _engine
from ldsmdl import (DimensionError, EmConfig, LdsParams, RankDeficiencyError,
                    SequenceData, default_init, em_fit, enforce_stability,
                    kalman_filter, m_step, multi_restart_fit, rts_smooth,
                    simulate, spectral_radius)
from ldsmdl.datagen import RandomLdsConfig, random_stable_lds
from ldsmdl.em import multi_order_fit, restart_seed
from ldsmdl.inference import SmoothedPosterior


def scalar_posterior(means, covs, cross):
    means = np.asarray(means, float).reshape(-1, 1)
    covs = np.asarray(covs, float).reshape(-1, 1, 1)
    cross = np.asarray(cross, float).reshape(-1, 1, 1)
    return SmoothedPosterior(means=means, covs=covs, cross_covs=cross)


def expected_complete_objective(p, post, Y):
    """E[log p(Y, X | theta)] under the fixed posterior moments."""
    T = Y.shape[0]
    iR0 = np.linalg.inv(p.R0)
    iR1 = np.linalg.inv(p.R1)
    iR2 = np.linalg.inv(p.R2)
    m = post.means
    # E[x_t x_t^T] and E[x_t x_{t-1}^T] from the posterior's moments
    Z = post.covs + m[:, :, None] * m[:, None, :]
    Z_cross = post.cross_covs + m[1:, :, None] * m[:-1, None, :]
    val = -0.5 * (np.linalg.slogdet(2 * np.pi * p.R0)[1]
                  + np.trace(iR0 @ (Z[0] - np.outer(p.mu0, m[0])
                                    - np.outer(m[0], p.mu0)
                                    + np.outer(p.mu0, p.mu0))))
    for t in range(1, T):
        E = (Z[t] - Z_cross[t - 1] @ p.A.T
             - p.A @ Z_cross[t - 1].T + p.A @ Z[t - 1] @ p.A.T)
        val += -0.5 * (np.linalg.slogdet(2 * np.pi * p.R1)[1] + np.trace(iR1 @ E))
    for t in range(T):
        E = (np.outer(Y[t], Y[t]) - p.C @ np.outer(m[t], Y[t])
             - np.outer(Y[t], m[t]) @ p.C.T + p.C @ Z[t] @ p.C.T)
        val += -0.5 * (np.linalg.slogdet(2 * np.pi * p.R2)[1] + np.trace(iR2 @ E))
    return val


class TestEmConfig:
    def test_defaults(self):
        cfg = EmConfig()
        assert cfg.eps > 0 and cfg.max_iters >= 1 and cfg.n_restarts >= 1

    def test_validation(self):
        with pytest.raises(DimensionError):
            EmConfig(eps=0.0)
        with pytest.raises(DimensionError):
            EmConfig(max_iters=0)
        with pytest.raises(DimensionError):
            EmConfig(n_restarts=0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0])
    def test_eps_must_be_finite_and_positive(self, eps):
        # a NaN eps never converges and an infinite one stops after one M-step
        with pytest.raises(DimensionError, match="eps"):
            EmConfig(eps=eps)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(DimensionError, match="seed"):
            EmConfig(seed=-1)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    @pytest.mark.parametrize("name", ["max_iters", "n_restarts", "seed"])
    def test_counts_and_seed_must_be_integers(self, name, value):
        # a max_iters of 2.5 never meets em_loop's budget test, so EM runs
        # until every restart converges; a float n_restarts fails in range()
        with pytest.raises(DimensionError, match=name):
            EmConfig(**{name: value})

    def test_numpy_integers_are_integers(self):
        cfg = EmConfig(max_iters=np.int64(3), n_restarts=np.int32(2), seed=np.uint8(4))
        assert (cfg.max_iters, cfg.n_restarts, cfg.seed) == (3, 2, 4)

    def test_seeds_do_not_alias_modulo_2_31(self):
        data = simulate(random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=3)), T=60, seed=3)
        fits = [multi_restart_fit(data, 2, EmConfig(eps=1e-2, max_iters=5, n_restarts=2,
                                                    seed=seed))
                for seed in (0, 2 ** 31)]
        assert not np.array_equal(fits[0].params.A, fits[1].params.A)


class TestMStep:
    def test_perfect_scalar_observation(self):
        y = np.array([0.4, -1.2, 0.7])
        post = scalar_posterior(y, [1e-6] * 3, [0.0] * 2)
        p = m_step(post, SequenceData(Y=y))
        assert p.C[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_constant_state_then_rescale(self):
        post = scalar_posterior([1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 2)
        p = m_step(post, SequenceData(Y=[1.0, 1.0, 1.0]))
        assert p.A[0, 0] == pytest.approx(1.0)
        assert enforce_stability(p.A)[0, 0] == pytest.approx(1 / 1.1)

    def test_two_step_substitution(self):
        # Z_1 = Z_2 = 1, Z_{2,1} = 0.5 with zero means
        post = scalar_posterior([0.0, 0.0], [1.0, 1.0], [0.5])
        p = m_step(post, SequenceData(Y=[0.0, 0.0]))
        assert p.A[0, 0] == pytest.approx(0.5)
        assert p.R1[0, 0] == pytest.approx(0.75)

    def test_fix_observation_mode(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((5, 2))
        means = rng.standard_normal((5, 2))
        covs = np.tile(np.eye(2), (5, 1, 1))
        cross = np.tile(0.1 * np.eye(2), (4, 1, 1))
        post = SmoothedPosterior(means=means, covs=covs, cross_covs=cross)
        p = m_step(post, SequenceData(Y=Y), fix_observation=True)
        np.testing.assert_array_equal(p.C, np.eye(2))
        np.testing.assert_allclose(p.R2, 1e-6 * np.eye(2))

    def test_observable_width_mismatch_rejected(self):
        # a width-2 posterior pins C = I_2, which a 1-column sequence cannot take
        means = np.zeros((3, 2))
        post = SmoothedPosterior(means=means, covs=np.tile(np.eye(2), (3, 1, 1)),
                                 cross_covs=np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            m_step(post, SequenceData(Y=np.ones((3, 1))), fix_observation=True)

    def test_length_mismatch_rejected(self):
        post = scalar_posterior([0.0, 0.0], [1.0, 1.0], [0.5])
        with pytest.raises(DimensionError):
            m_step(post, SequenceData(Y=[0.0, 0.0, 0.0]))

    def test_constant_means_are_rank_deficient(self):
        # S00 = sum of m_t m_t^T over t < T-1 has rank 1
        post = SmoothedPosterior(means=np.tile([1.0, 2.0], (4, 1)),
                                 covs=np.zeros((4, 2, 2)), cross_covs=np.zeros((3, 2, 2)))
        with pytest.raises(RankDeficiencyError):
            m_step(post, SequenceData(Y=np.ones(4)))

    def test_rank_deficiency_is_judged_by_eigenvalues(self):
        # S00 = m_0 m_0^T + m_1 m_1^T with orthogonal m_0, m_1 of norms 1 and
        # 1e-7: its eigenvalue ratio is 1e-14, below DEGENERACY_RCOND, while the
        # diagonal of its Cholesky factor reads a ratio of 1.00
        e = 1e-7
        means = np.array([[np.sqrt(e), np.sqrt(1 - e)],
                          [e * np.sqrt(1 - e), -e * np.sqrt(e)],
                          [0.3, -0.2]])
        post = SmoothedPosterior(means=means, covs=np.zeros((3, 2, 2)),
                                 cross_covs=np.zeros((2, 2, 2)))
        S00 = means[:2].T @ means[:2]
        w = np.linalg.eigvalsh(S00)
        assert w[0] / w[1] < _engine.DEGENERACY_RCOND
        L = np.linalg.cholesky(S00)
        assert np.diag(L).min() / np.diag(L).max() > 0.99
        with pytest.raises(RankDeficiencyError):
            m_step(post, SequenceData(Y=[0.5, -1.0, 2.0]))

    def test_optimality_under_block_perturbation(self):
        rng = np.random.default_rng(17)
        gen = random_stable_lds(RandomLdsConfig(d=3, d_out=2, seed=5))
        data = simulate(gen, T=30, seed=5)
        post = rts_smooth(gen, kalman_filter(gen, data))
        p = m_step(post, data)
        base = expected_complete_objective(p, post, data.Y)
        for name in ("A", "C", "mu0"):
            for sign in (1.0, -1.0):
                delta = sign * 1e-3 * rng.standard_normal(getattr(p, name).shape)
                q = p.replace(**{name: getattr(p, name) + delta})
                assert expected_complete_objective(q, post, data.Y) <= base + 1e-12


class TestEmFit:
    def test_noiseless_fixed_point(self):
        gen = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[0.0]], R2=[[0.0]],
                        mu0=[1.0], R0=[[0.0]])
        data = simulate(gen, T=6, seed=0)
        init = gen.replace(R1=[[1e-10]], R2=[[1e-10]], R0=[[1e-10]])
        fit = em_fit(data, init, EmConfig(eps=1e-4, max_iters=50))
        assert fit.converged and fit.iterations <= 2
        for name in ("A", "C", "R1", "R2", "mu0", "R0"):
            np.testing.assert_allclose(getattr(fit.params, name),
                                       getattr(init, name), atol=1e-8)

    def test_trace_monotone_up_to_slack(self):
        for seed in range(5):
            gen = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=seed))
            data = simulate(gen, T=80, seed=seed)
            init = default_init(data, 2, seed=seed)
            fit = em_fit(data, init, EmConfig(eps=1e-6, max_iters=60))
            trace = np.asarray(fit.loglik_trace)
            diffs = np.diff(trace)
            for i, dv in enumerate(diffs):
                if i + 1 in fit.rescale_iters or i + 2 in fit.rescale_iters:
                    continue
                assert dv >= -1e-6
            assert trace[-1] >= trace[0] - 1e-6

    def test_close_to_generating_loglik(self):
        gen = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=12))
        data = simulate(gen, T=200, seed=12)
        ref = kalman_filter(gen, data).loglik
        fit = multi_restart_fit(data, 2, EmConfig(eps=1e-6, max_iters=300,
                                                  n_restarts=5, seed=0))
        assert fit.loglik >= ref - 2.0

    def test_dimension_checks(self):
        data = SequenceData(Y=np.zeros((1, 1)))
        init = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[1.0]],
                         mu0=[0.0], R0=[[1.0]])
        with pytest.raises(DimensionError):
            em_fit(data, init, EmConfig())

    def test_init_output_width_must_match_the_data(self):
        one = simulate(random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=0)), T=20, seed=0)
        two = simulate(random_stable_lds(RandomLdsConfig(d=2, d_out=2, seed=0)), T=20, seed=0)
        with pytest.raises(DimensionError):
            em_fit(two, default_init(one, 2, seed=0), EmConfig(max_iters=3))
        # observable mode pins C = I_d: the init's order must be the data's width
        with pytest.raises(DimensionError):
            em_fit(two, default_init(two, 3, seed=0), EmConfig(max_iters=3),
                   fix_observation=True)

    def test_unstable_init_is_rescaled_not_rejected(self):
        gen = random_stable_lds(RandomLdsConfig(d=1, d_out=1, seed=1))
        data = simulate(gen, T=40, seed=1)
        init = default_init(data, 1, seed=0).replace(A=[[1.5]])
        fit = em_fit(data, init, EmConfig(eps=1e-4, max_iters=40))
        assert np.isfinite(fit.loglik)

    def test_near_unit_init_is_rescaled_like_every_m_step(self):
        # within STABILITY_MARGIN of 1, where em_loop rescales an M-step's A
        gen = random_stable_lds(RandomLdsConfig(d=1, d_out=1, seed=1))
        data = simulate(gen, T=40, seed=1)
        init = default_init(data, 1, seed=0).replace(A=[[1.0 - 1e-10]])
        rescaled = init.replace(A=enforce_stability(init.A))
        assert spectral_radius(rescaled.A) < 0.95
        fit = em_fit(data, init, EmConfig(eps=1e-4, max_iters=5))
        assert fit.loglik_trace[0] == kalman_filter(rescaled, data).loglik


class TestMultiRestart:
    def test_single_restart_matches_em_fit(self):
        gen = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=21))
        data = simulate(gen, T=60, seed=21)
        cfg = EmConfig(eps=1e-5, max_iters=50, n_restarts=1, seed=77)
        multi = multi_restart_fit(data, 2, cfg)
        single = em_fit(data, default_init(data, 2, restart_seed(77, 0)), cfg)
        assert multi.loglik == pytest.approx(single.loglik, abs=1e-12)
        np.testing.assert_allclose(multi.params.A, single.params.A, atol=1e-12)

    def test_more_restarts_never_hurt(self):
        gen = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=30))
        data = simulate(gen, T=60, seed=30)
        one = multi_restart_fit(data, 2, EmConfig(eps=1e-5, max_iters=40,
                                                  n_restarts=1, seed=9))
        five = multi_restart_fit(data, 2, EmConfig(eps=1e-5, max_iters=40,
                                                   n_restarts=5, seed=9))
        assert five.loglik >= one.loglik - 1e-9

    def test_nesting_in_model_order(self):
        gen = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=40))
        data = simulate(gen, T=100, seed=40)
        logliks = []
        for d in (1, 2, 3):
            fit = multi_restart_fit(data, d, EmConfig(eps=1e-5, max_iters=80,
                                                      n_restarts=10, seed=4))
            logliks.append(fit.loglik)
        assert logliks[1] >= logliks[0] - 1e-3
        assert logliks[2] >= logliks[1] - 1e-3

    def test_recovers_reference_loglik_on_d4_protocol(self):
        gen = random_stable_lds(RandomLdsConfig(d=4, d_out=1, seed=0))
        data = simulate(gen, T=100, burn_in=20, seed=0)
        ref = kalman_filter(gen, data).loglik
        fit = multi_restart_fit(data, 4, EmConfig(eps=1e-5, max_iters=200,
                                                  n_restarts=10, seed=0))
        assert fit.loglik >= ref - 5.0


def assert_one_record(fit, data, config, alone):
    """The invariants that tie a FitResult to the one model it describes.

    A fit that ran ``alone`` (a one-element batch) has the loglik that the
    filter gives its params bit for bit; a restart of a larger batch shared
    its switch step with the others and agrees to roundoff.
    """
    assert fit.loglik == fit.loglik_trace[-1]
    refit = kalman_filter(fit.params, data).loglik
    if alone:
        assert refit == fit.loglik
    else:
        assert refit == pytest.approx(fit.loglik, rel=1e-9)
    assert 1 <= fit.iterations <= config.max_iters
    assert len(fit.loglik_trace) == fit.iterations + 1
    assert all(1 <= k <= fit.iterations for k in fit.rescale_iters)
    if fit.converged:
        assert abs(fit.loglik_trace[-1] - fit.loglik_trace[-2]) < config.eps
    else:
        assert fit.iterations == config.max_iters


class TestFitRecord:
    """A FitResult describes one filtered model, whether EM converged or ran
    out of M-steps."""

    STOPS = {"max_iters": dict(eps=1e-12, max_iters=5),
             "converged": dict(eps=1e-2, max_iters=200)}

    @staticmethod
    def data():
        gen = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=21))
        return simulate(gen, T=80, seed=21)

    @pytest.mark.parametrize("stop", sorted(STOPS))
    def test_em_fit(self, stop):
        data = self.data()
        cfg = EmConfig(**self.STOPS[stop])
        fit = em_fit(data, default_init(data, 2, seed=3), cfg)
        assert fit.converged == (stop == "converged")
        assert_one_record(fit, data, cfg, alone=True)

    @pytest.mark.parametrize("stop", sorted(STOPS))
    def test_multi_restart_fit(self, stop):
        data = self.data()
        cfg = EmConfig(n_restarts=4, seed=1, **self.STOPS[stop])
        fit = multi_restart_fit(data, 2, cfg)
        assert fit.converged == (stop == "converged")
        assert_one_record(fit, data, cfg, alone=False)
        # the kept restart has the highest loglik of the restarts' own records
        for r in range(cfg.n_restarts):
            one = em_fit(data, default_init(data, 2, restart_seed(cfg.seed, r)),
                         EmConfig(eps=cfg.eps, max_iters=cfg.max_iters))
            assert one.loglik <= fit.loglik + 1e-9

    @pytest.mark.parametrize("seed, first_rescaled", [(0, False), (1, True)])
    def test_rescale_iters_count_m_steps_from_one(self, seed, first_rescaled):
        # a doubly integrated walk pushes the M-step's A past the unit circle
        y = np.cumsum(np.cumsum(np.random.default_rng(4).standard_normal(60)))
        data = SequenceData(Y=y)
        init = default_init(data, 2, seed=seed)
        A1 = m_step(rts_smooth(init, kalman_filter(init, data)), data).A
        assert (spectral_radius(A1) > 1.0) == first_rescaled
        full = em_fit(data, init, EmConfig(eps=1e-8, max_iters=6)).rescale_iters
        assert full and (full[0] == 1) == first_rescaled
        for k in range(1, 7):
            fit = em_fit(data, init, EmConfig(eps=1e-8, max_iters=k))
            assert fit.rescale_iters == [i for i in full if i <= k]


class TestFloorRecord:
    """The M-steps at which the covariance floor fired are recorded per
    element, like the stability rescales."""

    @staticmethod
    def zero_data():
        # Y = 0 makes the M-step's C exactly 0 and its R2 estimate exactly 0
        return SequenceData(Y=np.zeros((50, 1)))

    def test_floor_iters_of_a_zero_sequence(self):
        data = self.zero_data()
        fit = em_fit(data, default_init(data, 2, seed=0), EmConfig(max_iters=5))
        assert fit.iterations >= 1
        assert fit.floor_iters == list(range(1, fit.iterations + 1))
        assert fit.params.R2[0, 0] == _engine.COV_FLOOR

    def test_ordinary_fit_is_not_floored(self):
        data = TestFitRecord.data()
        fit = em_fit(data, default_init(data, 2, seed=3), EmConfig(eps=1e-2, max_iters=200))
        assert fit.iterations > 1 and fit.floor_iters == []

    def test_floors_mask_is_per_m_step_and_element(self):
        data = self.zero_data()
        pb = _engine.stack_params([default_init(data, d, seed=s) for d, s in ((2, 0), (3, 1))])
        res = _engine.em_loop(pb, data.Y, eps=1e-2, max_iters=4)
        assert res["floors"].shape == res["rescales"].shape == (len(res["traces"]) - 1, 2)
        for b in range(2):
            np.testing.assert_array_equal(np.flatnonzero(res["floors"][:, b]) + 1,
                                          np.arange(1, res["iterations"][b] + 1))


class TestFailedElements:
    """An element that fails keeps its last parameters; the filter and the
    smoother mask it, so it disturbs neither the batch nor the numerics."""

    @staticmethod
    def failing(C, R2):
        return LdsParams(A=0.5 * np.eye(2), C=C, R1=np.eye(2), R2=R2,
                         mu0=np.zeros(2), R0=np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_failed_elements_leave_the_others_alone(self):
        gen = random_stable_lds(RandomLdsConfig(d=2, d_out=2, seed=31))
        data = simulate(gen, T=120, seed=31)
        good = [default_init(data, 2, seed=s) for s in range(3)]
        # S = C P C^T + R2 is singular from the first step: C = 0 with R2 = 0,
        # and an unobserved state seen through a noiseless channel
        mixed = [good[0], self.failing(np.zeros((2, 2)), np.zeros((2, 2))), good[1],
                 self.failing(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), good[2]]
        run = {name: _engine.em_loop(_engine.stack_params(inits), data.Y,
                                     eps=1e-6, max_iters=20)
               for name, inits in (("mixed", mixed), ("good", good))}
        keep = [0, 2, 4]
        np.testing.assert_array_equal(run["mixed"]["failed"], [False, True, False, True, False])
        assert not run["good"]["failed"].any()
        params = run["mixed"]["params"]
        for f in _engine.PARAM_FIELDS:
            # failed on the first pass, so their last parameters are the initial ones
            for b in (1, 3):
                np.testing.assert_array_equal(getattr(params, f)[b], getattr(mixed[b], f))
            np.testing.assert_allclose(getattr(params, f)[keep],
                                       getattr(run["good"]["params"], f), rtol=1e-12)
        np.testing.assert_array_equal(run["mixed"]["loglik"][[1, 3]], -np.inf)
        for key in ("loglik", "iterations", "converged"):
            np.testing.assert_allclose(run["mixed"][key][keep], run["good"][key], rtol=1e-12)
        np.testing.assert_allclose(run["mixed"]["traces"][:, keep], run["good"]["traces"],
                                   rtol=1e-12)

    # the start mean of 1e200 overflows the filter's quadratic forms and the
    # smoothed second moments by design
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_element_fails_alone(self):
        gen = random_stable_lds(RandomLdsConfig(d=3, d_out=1, seed=5))
        data = simulate(gen, T=100, seed=5)
        good = [default_init(data, 3, seed=s) for s in range(3)]
        mixed = good + [good[0].replace(mu0=np.full(3, 1e200))]
        run = {name: _engine.em_loop(_engine.stack_params(inits), data.Y,
                                     eps=1e-6, max_iters=20)
               for name, inits in (("mixed", mixed), ("good", good))}
        np.testing.assert_array_equal(run["mixed"]["failed"], [False, False, False, True])
        assert run["mixed"]["loglik"][3] == -np.inf
        for f in _engine.PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(run["mixed"]["params"], f)[:3],
                                          getattr(run["good"]["params"], f))
        for key in ("loglik", "iterations", "converged"):
            np.testing.assert_array_equal(run["mixed"][key][:3], run["good"][key])

    def test_failed_element_is_factored_on_the_first_pass_only(self, monkeypatch):
        # later passes start the failed element as failed, so the batched
        # Cholesky factors the identity in its place from step 0 and the
        # per-element fallback runs on the first pass only
        gen = random_stable_lds(RandomLdsConfig(d=2, d_out=2, seed=31))
        data = simulate(gen, T=120, seed=31)
        inits = [default_init(data, 2, seed=s) for s in range(3)]
        inits.insert(2, self.failing(np.zeros((2, 2)), np.zeros((2, 2))))
        real = np.linalg.cholesky
        single = 0

        def counting(a, *args, **kwargs):
            nonlocal single
            single += a.ndim == 2
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        # eps = 0 never converges: 20 M-steps and 21 filter passes
        res = _engine.em_loop(_engine.stack_params(inits), data.Y, eps=0.0, max_iters=20)
        np.testing.assert_array_equal(res["failed"], [False, False, True, False])
        np.testing.assert_array_equal(res["iterations"], [20, 20, 0, 20])
        assert single == len(inits)


class TestMultiOrderFit:
    """Several orders fitted through one EM loop, padded to the top order."""

    CFG = EmConfig(eps=1e-3, max_iters=15, n_restarts=4)

    @staticmethod
    def data(d_out=1):
        gen = random_stable_lds(RandomLdsConfig(d=3, d_out=d_out, seed=12))
        return simulate(gen, T=100, burn_in=20, seed=12)

    @pytest.mark.parametrize("d_out", [1, 2])
    def test_padding_block_is_carried_exactly(self, d_out):
        data = self.data(d_out)
        orders, D = (1, 2, 3, 5), 5
        inits = [default_init(data, d, restart_seed(d, r)) for d in orders for r in range(4)]
        pb = _engine.stack_params(inits)
        loglik = _engine.filter_batch(pb, data.Y)["loglik"]
        for b, init in enumerate(inits):
            # an order-d model nested in the order-D class keeps its loglik
            assert loglik[b] == pytest.approx(kalman_filter(init, data).loglik, rel=1e-12)
        res = _engine.em_loop(pb, data.Y, eps=0.0, max_iters=15)
        assert not res["failed"].any()
        out = res["params"]
        for b, init in enumerate(inits):
            d = init.d
            for M in (out.A[b], out.R1[b], out.R0[b]):
                assert not M[:d, d:].any() and not M[d:, :d].any()
            assert not out.C[b][:, d:].any()
            assert not out.A[b][d:, d:].any() and not out.mu0[b][d:].any()
            np.testing.assert_array_equal(out.R1[b][d:, d:], np.eye(D - d))
            np.testing.assert_array_equal(out.R0[b][d:, d:], np.eye(D - d))

    def test_each_order_matches_its_one_order_fit(self):
        data = self.data()
        seeds = {2: 7, 3: 8, 4: 9}
        fits = multi_order_fit(data, seeds, self.CFG)
        assert sorted(fits) == [2, 3, 4]
        for d, seed in seeds.items():
            alone = multi_restart_fit(data, d, replace(self.CFG, seed=seed))
            fit = fits[d]
            assert fit.params.d == d
            # the loglik of the start tells the restarts apart: the same one is kept
            assert fit.loglik_trace[0] == pytest.approx(alone.loglik_trace[0], rel=1e-12)
            assert fit.iterations == alone.iterations
            assert fit.loglik == pytest.approx(alone.loglik, rel=1e-10)
            assert_one_record(fit, data, self.CFG, alone=False)

    def test_observable_mode_fits_one_order(self):
        data = SequenceData(Y=np.random.default_rng(0).standard_normal((40, 2)))
        with pytest.raises(DimensionError):
            multi_order_fit(data, {1: 0, 2: 0}, self.CFG, fix_observation=True)


class TestEmLoopMemory:
    def test_one_filter_pass_and_one_posterior_are_alive(self):
        # every filter pass overwrites the trajectories of the pass before,
        # and the smoother returns sums, not (B, T, d, d) covariances: about
        # 3.4 (B, T, d, d) arrays at the peak (5.8 with a smoothed trajectory
        # and its cross-covariances, 7.9 with a fresh filter pass as well)
        data = simulate(random_stable_lds(RandomLdsConfig(d=3, d_out=1, seed=2)), T=100, seed=2)
        pb = _engine.stack_params([default_init(data, 12, seed=s) for s in range(10)])
        tracemalloc.start()
        try:
            _engine.em_loop(pb, data.Y, eps=1e-2, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * pb.B * data.T * 12 * 12 * 8


class TestDefaultInit:
    def test_deterministic(self):
        data = SequenceData(Y=np.random.default_rng(2).standard_normal((30, 1)))
        a = default_init(data, 3, seed=5)
        b = default_init(data, 3, seed=5)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.C, b.C)

    def test_shape_and_stability(self):
        data = SequenceData(Y=np.random.default_rng(2).standard_normal((30, 2)))
        p = default_init(data, 3, seed=0)
        assert p.d == 3 and p.d_out == 2
        from ldsmdl import spectral_radius
        assert spectral_radius(p.A) == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_array_equal(p.R1, np.eye(3))
