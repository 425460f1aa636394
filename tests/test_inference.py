import sys

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

    @staticmethod
    def long_batches():
        """Batches of B = 3 models on one sequence of T = 1000, p = 1..3."""
        for d, d_out in ((3, 1), (3, 2), (4, 3)):
            models = [random_model(d, d_out, seed=40 + 3 * d + b) for b in range(3)]
            Y = simulate(models[0], T=1000, seed=d_out).Y
            yield models, _engine.stack_params(models), Y

    def test_long_sequence_matches_textbook_recursion(self):
        # through the public B = 1 wrappers and through the batched engine
        for models, batch, Y in self.long_batches():
            fr = _engine.filter_batch(batch, Y)
            assert switch_step(fr["pred_covs"]) < len(Y) // 2
            sm = _engine.smooth_batch(batch, fr)
            one = kalman_filter(models[0], SequenceData(Y=Y))
            one_sm = rts_smooth(models[0], one)
            runs = [(fr["loglik"][b], sm["means"][b], sm["covs"][b], sm["cross"][b])
                    for b in range(3)]
            runs.append((one.loglik, one_sm.means, one_sm.covs, one_sm.cross_covs))
            for b, (loglik, means, covs, cross) in enumerate(runs):
                ref = textbook_smoother(models[b % 3], Y)
                assert loglik == pytest.approx(ref[0], rel=1e-9)
                for got, want in zip((means, covs, cross), ref[1:]):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    def test_switch_marks_the_frozen_steps(self):
        for _, batch, Y in self.long_batches():
            fr = _engine.filter_batch(batch, Y)
            s = fr["switch"]
            assert 0 < s < len(Y) // 2
            assert switch_step(fr["pred_covs"]) <= s
            for key in ("pred_covs", "filt_covs"):
                frozen = fr[key][:, s:]
                np.testing.assert_array_equal(frozen, np.broadcast_to(frozen[:, :1],
                                                                      frozen.shape))

    def test_smoother_without_switch_matches_handed_over_switch(self):
        # switch = T: every step gets its own J, solved and stepped one at a time
        for _, batch, Y in self.long_batches():
            fr = _engine.filter_batch(batch, Y)
            handed = _engine.smooth_batch(batch, fr)
            stepped = _engine.smooth_batch(batch, dict(fr, switch=len(Y)))
            for key in ("means", "covs", "cross"):
                np.testing.assert_allclose(stepped[key], handed[key],
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mu0, T", [pytest.param([0.0, 0.0], 400, id="zero-mean-T400"),
                                        pytest.param([0.0, 1.0], 1200, id="unit-mean-T1200")])
    def test_failed_element_does_not_block_the_switch(self, mu0, T):
        # S is singular from the first step, and the unobserved, unstable
        # second state would make this element's covariance grow without
        # bound, and from mu0 = [0, 1] its mean overflow by T = 1200
        degenerate = LdsParams(A=1.5 * np.eye(2), C=[[1.0, 0.0], [0.0, 0.0]],
                               R1=np.eye(2), R2=np.diag([1.0, 0.0]),
                               mu0=mu0, R0=np.eye(2))
        models = [random_model(2, 2, seed=s) for s in (50, 51, 52)]
        models.insert(1, degenerate)
        Y = simulate(models[0], T=T, seed=1).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        np.testing.assert_array_equal(fr["ok"], [True, False, True, True])
        assert switch_step(fr["pred_covs"]) <= fr["switch"] < 200
        # the failed element carries the identity instead of a growing
        # covariance, and its means are held at zero from the failing step on
        assert np.isfinite(fr["pred_covs"][1]).all() and np.isfinite(fr["filt_covs"][1]).all()
        assert not fr["filt_means"][1].any() and not fr["pred_means"][1, 1:].any()
        sm = _engine.smooth_batch(batch, fr)
        # with J = 0 its smoothed moments are its filtered ones
        assert not sm["means"][1].any() and not sm["cross"][1].any()
        np.testing.assert_array_equal(sm["covs"][1], fr["filt_covs"][1])
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
        for (fr, _), (_, data) in zip(fast, cases):
            assert fr.switch == data.T
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


class TestBlockedScan:
    """The steady-state mean recursions run as a blocked prefix scan over
    chunks of bounded size."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1000])
    @pytest.mark.parametrize("B", [1, 7])
    def test_affine_scan_matches_plain_loop(self, n, B):
        rng = np.random.default_rng(n + 10 * B)
        d = 3
        M = rng.standard_normal((B, d, d))
        M *= 0.95 / np.max(np.abs(np.linalg.eigvals(M)), axis=-1)[:, None, None]
        u = rng.standard_normal((B, n, d))
        x0 = rng.standard_normal((B, d))
        got = _engine._affine_scan(_engine._scan_powers(M, n), u, x0)
        want = np.empty((B, n + 1, d))
        want[:, 0] = x0
        for i in range(n):
            want[:, i + 1] = np.einsum("bd,bde->be", want[:, i], M) + u[:, i]
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_many_chunks_match_one_chunk(self, monkeypatch):
        models = [random_model(3, 2, seed=s) for s in (60, 61, 62)]
        Y = simulate(models[0], T=300, seed=2).Y
        batch = _engine.stack_params(models)

        def run():
            fr = _engine.filter_batch(batch, Y)
            return fr, _engine.smooth_batch(batch, fr)

        whole = run()
        assert _engine._chunk_len(3, 3) >= len(Y)
        # 7-step chunks: the frozen stretch spans dozens of them, the last one short
        monkeypatch.setattr(_engine, "SCAN_CHUNK", 7 * 3 * 3)
        assert _engine._chunk_len(3, 3) == 7
        chunked = run()
        assert switch_step(whole[0]["pred_covs"]) < 100
        for key in ("loglik", "step_loglik", "pred_means", "filt_means",
                    "pred_covs", "filt_covs"):
            np.testing.assert_allclose(chunked[0][key], whole[0][key],
                                       rtol=1e-12, atol=1e-12)
        for key in ("means", "covs", "cross"):
            np.testing.assert_allclose(chunked[1][key], whole[1][key],
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 17, 1000])
    @pytest.mark.parametrize("B", [1, 7])
    def test_congruence_scan_matches_plain_loop(self, n, B, monkeypatch):
        # with the settle test off the scan fills all n steps
        monkeypatch.setattr(_engine, "SETTLE_RTOL", -np.inf)
        rng = np.random.default_rng(n + 10 * B)
        d = 3
        J = rng.standard_normal((B, d, d))
        J *= 0.95 / np.max(np.abs(np.linalg.eigvals(J)), axis=-1)[:, None, None]
        F, G, W0 = (_engine.psd_floor_batch(rng.standard_normal((B, d, d)))[0]
                    for _ in range(3))
        powers, sums = _engine._congruence_powers(J, F, G, n)
        got = _engine._congruence_scan(powers, sums, G, W0, n, np.ones(B, bool))
        want = np.empty((B, n + 1, d, d))
        want[:, 0] = W0
        for i in range(n):
            want[:, i + 1] = F + J @ (want[:, i] - G) @ np.swapaxes(J, 1, 2)
        assert got.shape == (B, n, d, d)
        np.testing.assert_allclose(got, want[:, 1:], rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("d", [2, 7, 12])
    @pytest.mark.parametrize("B", [1, 7])
    def test_covariance_scan_matches_textbook_smoother(self, d, B):
        models = [random_model(d, 1 + d % 3, seed=80 + d + b) for b in range(B)]
        Y = simulate(models[0], T=1000, seed=d).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        assert switch_step(fr["pred_covs"]) < len(Y) // 2
        sm = _engine.smooth_batch(batch, fr)
        for b, model in enumerate(models):
            _, _, covs, cross = textbook_smoother(model, Y)
            np.testing.assert_allclose(sm["covs"][b], covs, rtol=0,
                                       atol=1e-8 * np.abs(covs).max())
            np.testing.assert_allclose(sm["cross"][b], cross, rtol=0,
                                       atol=1e-8 * np.abs(cross).max())

    def test_smoother_sizes_its_scans_by_the_switch(self, monkeypatch):
        models = [random_model(3, 2, seed=s) for s in (60, 61, 62)]
        Y = simulate(models[0], T=300, seed=2).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        whole = _engine.smooth_batch(batch, fr)
        real = _engine._congruence_powers
        sizes = []

        def spying(*args):
            sizes.append(args[3])
            return real(*args)

        # the smoother does not read SCAN_CHUNK: 7-step chunks of V leave it as it is
        monkeypatch.setattr(_engine, "SCAN_CHUNK", 7 * 3 * 9)
        monkeypatch.setattr(_engine, "_congruence_powers", spying)
        small = _engine.smooth_batch(batch, fr)
        s = fr["switch"]
        assert 1 <= s < len(Y) // 2
        assert sizes == [min(s, len(Y) - 1 - s)]
        for key in ("means", "covs", "cross", "ok"):
            np.testing.assert_array_equal(small[key], whole[key])

    def test_store_false_gives_the_same_step_logliks(self):
        models = [random_model(4, 2, seed=s) for s in (70, 71)]
        Y = simulate(models[0], T=500, seed=3).Y
        batch = _engine.stack_params(models)
        stored = _engine.filter_batch(batch, Y, store=True)
        bare = _engine.filter_batch(batch, Y, store=False)
        np.testing.assert_array_equal(bare["step_loglik"], stored["step_loglik"])
        np.testing.assert_array_equal(bare["loglik"], stored["loglik"])
        np.testing.assert_array_equal(bare["ok"], stored["ok"])
        assert "pred_means" not in bare


class TestGuardedFactorizations:
    def test_failed_element_costs_one_per_element_pass(self, monkeypatch):
        # the degenerate element fails at step 0; later steps factor the
        # identity in its place, so the batched Cholesky succeeds again and
        # the per-element fallback runs exactly once over the batch
        degenerate = LdsParams(A=1.5 * np.eye(2), C=[[1.0, 0.0], [0.0, 0.0]],
                               R1=np.eye(2), R2=np.diag([1.0, 0.0]),
                               mu0=np.zeros(2), R0=np.eye(2))
        models = [random_model(2, 2, seed=s) for s in (50, 51, 52)]
        models.insert(1, degenerate)
        Y = simulate(models[0], T=200, seed=1).Y
        batch = _engine.stack_params(models)
        real = np.linalg.cholesky
        calls = {"batched": 0, "single": 0}

        def counting(a, *args, **kwargs):
            calls["single" if a.ndim == 2 else "batched"] += 1
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        fr = _engine.filter_batch(batch, Y)
        pred_covs = fr["pred_covs"].copy()
        _engine.smooth_batch(batch, fr)
        np.testing.assert_array_equal(fr["ok"], [True, False, True, True])
        transient = switch_step(fr["pred_covs"])
        assert transient > 1
        assert calls["batched"] == transient + 1
        assert calls["single"] == len(models)
        # the guarded calls never write into the caller's arrays
        np.testing.assert_array_equal(fr["pred_covs"], pred_covs)


    def test_one_solve_per_smoother_pass(self, monkeypatch):
        # J of every stretch (the transient steps and the frozen stretch) in
        # one batched call
        models = [random_model(3, 2, seed=s) for s in (60, 61, 62)]
        Y = simulate(models[0], T=200, seed=2).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        assert fr["ok"].all() and switch_step(fr["pred_covs"]) > 1
        real = np.linalg.solve
        calls = []

        def counting(a, b):
            calls.append(a.shape)
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        _engine.smooth_batch(batch, fr)
        assert calls == [(3, switch_step(fr["pred_covs"]) + 1, 3, 3)]


def joseph_filter(params, Y):
    """Textbook filter with the Joseph-form update (Bucy & Joseph 1968),
    (I - K C) P (I - K C)^T + K R2 K^T, stepped at every step.  Returns the
    loglik, the (T, d, d) filtered covariances, whether every S was factored
    within the engine's conditioning limit, and the first step whose
    predicted covariance had settled by the engine's rule (T if none)."""
    A, C, R1, R2 = params.A, params.C, params.R1, params.R2
    x, P = params.mu0.copy(), params.R0.copy()
    T, p = Y.shape
    I = np.eye(P.shape[0])
    loglik, ok, switch, Pf = 0.0, True, T, []
    for t in range(T):
        S = C @ P @ C.T + R2
        L = np.linalg.cholesky(S)
        diag = np.diag(L)
        ok &= (diag.min() / diag.max()) ** 2 >= _engine.DEGENERACY_RCOND
        K = P @ C.T @ np.linalg.inv(S)
        r = Y[t] - C @ x
        loglik -= 0.5 * (p * _engine.LOG_2PI + 2 * np.sum(np.log(diag))
                         + r @ np.linalg.solve(S, r))
        x = A @ (x + K @ r)
        ImKC = I - K @ C
        Pf.append(ImKC @ P @ ImKC.T + K @ R2 @ K.T)
        P_next = A @ Pf[-1] @ A.T + R1
        if switch == T and _engine._settled(P_next[None], P[None], np.ones(1, bool)):
            switch = t + 1
        P = P_next
    return loglik, np.array(Pf), ok, switch


class TestStandardUpdate:
    """The filtered covariance is P - (C P)^T K^T, from the C P and K^T of
    the step's own solve."""

    @staticmethod
    def calls_per_step(pb, monkeypatch):
        """Calls made from ``_engine.py`` per transient step: the difference
        between runs of T = 12 and T = 6 that never switch, over 6."""
        monkeypatch.setattr(_engine, "SETTLE_RTOL", -np.inf)
        Y = np.random.default_rng(0).standard_normal((12, pb.p))
        engine_file = _engine.__file__

        def count(Y):
            n = 0

            def profile(frame, event, arg):
                nonlocal n
                if event == "c_call":
                    n += frame.f_code.co_filename == engine_file
                elif event == "call" and frame.f_back is not None:
                    n += frame.f_back.f_code.co_filename == engine_file

            sys.setprofile(profile)
            try:
                _engine.filter_batch(pb, Y)
            finally:
                sys.setprofile(None)
            return n

        return (count(Y) - count(Y[:6])) / 6

    @pytest.mark.parametrize("p", [1, 3])
    def test_transient_step_call_budget(self, p, monkeypatch):
        pb = _engine.stack_params([random_model(4, p, seed=70 + b) for b in range(10)])
        assert self.calls_per_step(pb, monkeypatch) <= 66

    @staticmethod
    def cancelling(case):
        rng = np.random.default_rng(7)
        if case == "observable":
            gen = random_model(6, 6, seed=71)
            return gen.replace(C=np.eye(6), R2=1e-6 * np.eye(6))
        gen = random_model(4, 1, seed=72)
        if case == "precise-R0-1e4":
            return gen.replace(R2=np.array([[1e-10]]), R0=1e4 * np.eye(4))
        M = rng.standard_normal((4, 4))
        return gen.replace(R2=np.array([[1e-10]]), R0=1e8 * np.eye(4),
                           R1=1e4 * (M @ M.T / 4 + np.eye(4)))

    @pytest.mark.parametrize("case", ["observable", "precise-R0-1e4", "precise-R0-1e8"])
    def test_cancellation_matches_joseph_form(self, case):
        # S is dominated by C P C^T, so the update removes almost all of P:
        # both forms cancel, and they must cancel to the same covariances
        params = self.cancelling(case)
        Y = simulate(params, T=300, seed=3).Y
        fr = _engine.filter_batch(_engine.stack_params([params]), Y)
        loglik, Pf, ok, switch = joseph_filter(params, Y)
        assert fr["ok"][0] == ok and fr["switch"] == switch
        assert fr["loglik"][0] == pytest.approx(loglik, rel=1e-12)
        # the standard form's roundoff scales with P, the Joseph form's with
        # P_f: in observable mode P_f ~ R2 = 1e-6 I while P_0 = R0 is of order 1
        got = fr["filt_covs"][0]
        tol = 1e-10 * np.abs(got).max() + 1e-14 * np.abs(fr["pred_covs"][0]).max()
        np.testing.assert_allclose(got, Pf, rtol=0, atol=tol)


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
