import sys
import tracemalloc

import numpy as np
import pytest

from ldsmdl import (DegeneracyError, DimensionError, LdsParams, SequenceData,
                    complete_data_loglik, enforce_stability, kalman_filter,
                    rts_smooth, simulate)
from ldsmdl import _engine
from ldsmdl.criteria import _directions, empirical_fisher_log_det
from ldsmdl.em import m_step
from ldsmdl.datagen import RandomLdsConfig, random_stable_lds
from ldsmdl.model import sym

from .oracles import guarded_solve, joint_loglik, smoothed_moments, textbook_smoother


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

    def test_ill_conditioned_innovation_raises(self):
        # S = R2 = m_0 m_0^T + m_1 m_1^T with orthogonal m_0, m_1 of norms 1
        # and 1e-7 has eigenvalues 1 and 1e-14, while the diagonal of its
        # Cholesky factor reads a ratio of 1.00; judged by that ratio, the
        # filter returned a loglik of -5.4e14 here
        e = 1e-7
        m = np.array([[np.sqrt(e), np.sqrt(1 - e)], [e * np.sqrt(1 - e), -e * np.sqrt(e)]])
        p = LdsParams(A=[[0.5]], C=np.zeros((2, 1)), R1=[[1.0]], R2=m.T @ m,
                      mu0=[0.0], R0=[[1.0]])
        Y = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DegeneracyError):
            kalman_filter(p, SequenceData(Y=Y))

    @pytest.mark.parametrize("score", [kalman_filter, empirical_fisher_log_det])
    def test_empty_sequence_rejected(self, score):
        # filter_batch failed on T = 0 with numpy's "need at least one array to stack"
        with pytest.raises(DimensionError, match="T >= 1, got T=0"):
            score(random_model(2, 1, seed=0), SequenceData(Y=np.zeros((0, 1))))

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


def stored(fr):
    """What a ``filter_batch`` pass defines: every step of its trajectories,
    F^T and S^{-1} C of the steps 0 .. s = min(switch, T - 1) (F^T before
    step T - 1), the logliks, ``ok`` and the switch."""
    T = fr["pred_means"].shape[1]
    s = min(fr["switch"], T - 1)
    return {"pred_means": fr["pred_means"], "pred_covs": fr["pred_covs"], "v": fr["v"],
            "FT": fr["FT"][:, :min(s + 1, T - 1)], "SinvC": fr["SinvC"][:, :s + 1],
            "loglik": fr["loglik"], "ok": fr["ok"], "switch": fr["switch"]}


STATS = ("cov_sum", "cross_sum", "cov_first", "cov_last")


def stats_of(covs, cross):
    """The M-step's statistics of per-step smoothed covariances: the sums of
    V_t and of the cross-covariances, V_0 and V_{T-1}."""
    return dict(zip(STATS, (covs.sum(axis=0), cross.sum(axis=0), covs[0], covs[-1])))


def assert_stats_match(sm, b, covs, cross, **tol):
    """Element b's statistics of the smoother result ``sm`` against those of
    the per-step ``covs`` and ``cross``, each to ``tol`` (atol scaled by the
    largest entry of the statistic when ``scaled``)."""
    scaled = tol.pop("scaled", False)
    for key, want in stats_of(covs, cross).items():
        atol = tol["atol"] * (np.abs(want).max() if scaled else 1.0)
        np.testing.assert_allclose(sm[key][b], want, rtol=tol["rtol"], atol=atol, err_msg=key)


class TestSteadyState:
    """The filter freezes S, K and the covariances once the predicted
    covariance settles; the smoother then reuses J and sums V in closed form."""

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
            for b in range(4):
                ref = textbook_smoother(models[b % 3], Y)
                if b < 3:
                    # the engine: the means and the M-step's statistics
                    loglik, moments = fr["loglik"][b], (sm["means"][b],)
                    assert_stats_match(sm, b, *ref[2:], rtol=0, atol=1e-8)
                else:
                    loglik, moments = one.loglik, (one_sm.means, one_sm.covs, one_sm.cross_covs)
                assert loglik == pytest.approx(ref[0], rel=1e-9)
                for got, want in zip(moments, ref[1:]):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    def test_switch_marks_the_frozen_steps(self):
        for _, batch, Y in self.long_batches():
            fr = _engine.filter_batch(batch, Y)
            s = fr["switch"]
            assert 0 < s < len(Y) // 2
            assert switch_step(fr["pred_covs"]) <= s
            for frozen in (fr["pred_covs"][:, s:],
                           _engine.filtered_moments(batch, fr)[1][:, s:]):
                np.testing.assert_array_equal(frozen, np.broadcast_to(frozen[:, :1],
                                                                      frozen.shape))

    def test_smoother_without_switch_matches_handed_over_switch(self):
        # switch = T: the frozen F^T and S^{-1} C copied to every later step,
        # every step is stepped backward one at a time
        for _, batch, Y in self.long_batches():
            fr = _engine.filter_batch(batch, Y)
            s = fr["switch"]
            handed = _engine.smooth_batch(batch, fr)
            every = dict(fr, switch=len(Y))
            for key in ("FT", "SinvC"):
                every[key] = fr[key].copy()
                every[key][:, s + 1:] = fr[key][:, s, None]
            stepped = _engine.smooth_batch(batch, every)
            assert stepped["transient"].shape[1] == len(Y)
            for key in ("means",) + STATS:
                np.testing.assert_allclose(stepped[key], handed[key],
                                           rtol=1e-12, atol=1e-12, err_msg=key)
            for got, want in zip(_engine.smoothed_covariances(batch, stepped, every),
                                 _engine.smoothed_covariances(batch, handed, fr)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

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
        filt_means, filt_covs = _engine.filtered_moments(batch, fr)
        assert np.isfinite(fr["pred_covs"][1]).all() and np.isfinite(filt_covs[1]).all()
        assert not filt_means[1, 1:].any() and not fr["pred_means"][1, 1:].any()
        sm = _engine.smooth_batch(batch, fr)
        covs, cross = _engine.smoothed_covariances(batch, sm, fr)
        # with F = 0 its smoothed moments are its filtered ones, and its
        # statistics the sums of its filtered covariances
        np.testing.assert_array_equal(sm["means"][1], filt_means[1])
        assert not sm["means"][1, 1:].any() and not sm["cross_sum"][1].any()
        assert not cross[1].any()
        np.testing.assert_array_equal(covs[1], filt_covs[1])
        np.testing.assert_array_equal(sm["cov_first"][1], filt_covs[1, 0])
        np.testing.assert_array_equal(sm["cov_last"][1], filt_covs[1, -1])
        np.testing.assert_allclose(sm["cov_sum"][1], filt_covs[1].sum(axis=0),
                                   rtol=1e-14, atol=0)
        for b in (0, 2, 3):
            pb = _engine.stack_params([models[b]])
            one = _engine.filter_batch(pb, Y)
            one_sm = _engine.smooth_batch(pb, one)
            assert fr["loglik"][b] == pytest.approx(one["loglik"][0], rel=1e-12)
            for got, want in zip((fr["pred_means"], fr["pred_covs"], filt_means, filt_covs),
                                 (one["pred_means"], one["pred_covs"])
                                 + _engine.filtered_moments(pb, one)):
                np.testing.assert_allclose(got[b], want[0], rtol=1e-12, atol=1e-12)
            for key in ("means",) + STATS:
                np.testing.assert_allclose(sm[key][b], one_sm[key][0],
                                           rtol=1e-12, atol=1e-12, err_msg=key)
            for got, want in zip((covs, cross),
                                 _engine.smoothed_covariances(pb, one_sm, one)):
                np.testing.assert_allclose(got[b], want[0], rtol=1e-12, atol=1e-12)

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


class TestDeferredSettle:
    """Handed an earlier pass as ``reuse``, ``filter_batch`` skips the settle
    test before that pass's switch, tests those steps after its loop and
    goes back to the first settled one: every output equals that of a pass
    without ``reuse``, bit for bit."""

    @staticmethod
    def late_failure(step):
        """A model whose S fails the conditioning bound at ``step``, after its
        predicted covariance has settled by the relative test: the unobserved
        first state holds 1e30, next to which the second state's variance,
        about x4 a step, moves too little to count.  S = diag(4e11 + P22, 1)
        passes 1e12 as P22 passes 6e11."""
        return LdsParams(A=np.diag([0.0, 2.0]), C=[[0.0, 1.0], [0.0, 0.0]],
                         R1=np.diag([1e30, 0.0]), R2=np.diag([4e11, 1.0]), mu0=[0.0, 0.0],
                         R0=np.diag([1e30, 6e11 * 4.0 ** -step]))

    @staticmethod
    def stale(batch, T, switch):
        """An earlier pass of the batch's shapes, NaN throughout, with ``switch``."""
        B, d, p = batch.B, batch.d, batch.p
        shapes = {"pred_means": (B, T, d), "pred_covs": (B, T, d, d), "FT": (B, T, d, d),
                  "SinvC": (B, T, p, d), "v": (B, T, p)}
        return {**{k: np.full(shape, np.nan) for k, shape in shapes.items()}, "switch": switch}

    @pytest.mark.parametrize("case, d_out", [
        (case, d_out) for case in ("none", "exact", "earlier", "later", "beyond-T", "T-in-stretch")
        for d_out in (1, 2)] + [("late-failure", 2)])
    def test_reuse_gives_the_same_pass(self, case, d_out, monkeypatch):
        models = [random_model(2, d_out, seed=80 + b) for b in range(3)]
        Y = simulate(models[0], T=200, seed=0).Y
        s = _engine.filter_batch(_engine.stack_params(models), Y)["switch"]
        assert 10 < s < 100
        if case == "late-failure":
            models.append(self.late_failure(s + 2))
        if case == "T-in-stretch":
            Y = Y[:s - 5]
        batch = _engine.stack_params(models)
        want = _engine.filter_batch(batch, Y)
        hint = {"none": None, "exact": s, "earlier": s - 5, "later": s + 5,
                "beyond-T": len(Y) + 7, "T-in-stretch": s, "late-failure": s + 7}[case]
        reuse = None if hint is None else self.stale(batch, len(Y), hint)
        got = _engine.filter_batch(batch, Y, reuse=reuse)
        for key, value in stored(want).items():
            assert np.array_equal(stored(got)[key], value), key
        assert want["switch"] == (len(Y) if case == "T-in-stretch" else s)
        if case == "late-failure":
            # the element fails inside the untested stretch, and its ok comes back
            assert want["ok"].all()
            monkeypatch.setattr(_engine, "SETTLE_RTOL", -np.inf)
            stepped = _engine.filter_batch(batch, Y)
            assert not stepped["ok"][-1]
            held = [np.array_equal(P, np.eye(2)) for P in stepped["pred_covs"][-1, s:s + 7]]
            assert not held[0] and held[-1]


class TestBlockedScan:
    """The steady-state mean recursions run as doubling scans; the tangent
    pass goes in blocks of bounded size."""

    @staticmethod
    def _check_affine_scan(M, n, rng):
        B, d, _ = M.shape
        u = rng.standard_normal((B, n, d))
        x0 = rng.standard_normal((B, d))
        got = _engine._affine_scan(M, u, x0)
        want = np.empty((B, n + 1, d))
        want[:, 0] = x0
        for i in range(n):
            want[:, i + 1] = np.einsum("bd,bde->be", want[:, i], M) + u[:, i]
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    # n = 4, 1023 and 1024 sit at the boundaries of the doubling passes
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 17, 1000, 1023, 1024])
    @pytest.mark.parametrize("B", [1, 7])
    def test_affine_scan_matches_plain_loop(self, n, B):
        rng = np.random.default_rng(n + 10 * B)
        d = 3
        M = rng.standard_normal((B, d, d))
        M *= 0.95 / np.max(np.abs(np.linalg.eigvals(M)), axis=-1)[:, None, None]
        self._check_affine_scan(M, n, rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 17, 1000, 1023, 1024])
    @pytest.mark.parametrize("B", [1, 7])
    def test_affine_scan_matches_plain_loop_at_radius_0999(self, n, B):
        # every eigenvalue on the circle of radius 0.999, the slowest decay.
        # M is normal: a scan that squares M errs by about n eps times the
        # conditioning of M's eigenvectors, which a random M near the unit
        # circle can make larger than roundoff
        rng = np.random.default_rng(n + 10 * B)
        self._check_affine_scan(0.999 * np.linalg.qr(rng.standard_normal((B, 3, 3)))[0], n, rng)

    def test_tangent_block_length_leaves_the_fisher_unchanged(self, monkeypatch):
        p = random_model(3, 2, seed=60)
        Y = simulate(p, T=300, seed=2).Y
        dirs = _directions(p, fix_observation=False)

        def run():
            fr = kalman_filter(p, SequenceData(Y=Y))
            return fr, _engine.tangent_fisher(p, fr, Y, dirs)

        fr, whole = run()
        assert _engine.SCAN_CHUNK // dirs.B >= len(Y)           # one panel
        # 7-row score panels: the transient and the frozen stretch span
        # several, the last one of each short; a frozen panel is two blocks
        monkeypatch.setattr(_engine, "SCAN_CHUNK", 7 * dirs.B)
        fr_small, blocked = run()
        s = fr.switch
        assert s > 7 and s % 7 and len(Y) - s > 7 and (len(Y) - s) % 7
        # the filter does not read SCAN_CHUNK: its frozen stretch is one scan
        for key in ("loglik", "pred_means", "filt_means", "pred_covs", "filt_covs"):
            np.testing.assert_array_equal(getattr(fr_small, key), getattr(fr, key))
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12 * np.abs(whole).max())

    @pytest.mark.parametrize("n", [1, 17, 1000])
    @pytest.mark.parametrize("B", [1, 7])
    def test_congruence_scan_matches_plain_loop(self, n, B):
        # the states of V -> J V J^T + Q, which expand the smoother's frozen
        # stretch for the public posterior
        rng = np.random.default_rng(n + 10 * B)
        d = 3
        J = rng.standard_normal((B, d, d))
        J *= 0.95 / np.max(np.abs(np.linalg.eigvals(J)), axis=-1)[:, None, None]
        Q, W0 = (_engine.psd_floor_batch(rng.standard_normal((B, d, d)))[0] for _ in range(2))
        got = _engine._congruence_states(np.swapaxes(J, 1, 2), Q, W0, n)
        want = np.empty((B, n + 1, d, d))
        want[:, 0] = W0
        for i in range(n):
            want[:, i + 1] = J @ want[:, i] @ np.swapaxes(J, 1, 2) + Q
        assert got.shape == (B, n + 1, d, d)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("d", [2, 7, 12])
    @pytest.mark.parametrize("B", [1, 7])
    def test_covariance_scan_matches_textbook_smoother(self, d, B):
        models = [random_model(d, 1 + d % 3, seed=80 + d + b) for b in range(B)]
        Y = simulate(models[0], T=1000, seed=d).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        assert switch_step(fr["pred_covs"]) < len(Y) // 2
        sm = _engine.smooth_batch(batch, fr)
        expanded = _engine.smoothed_covariances(batch, sm, fr)
        for b, model in enumerate(models):
            _, _, covs, cross = textbook_smoother(model, Y)
            assert_stats_match(sm, b, covs, cross, rtol=0, atol=1e-8, scaled=True)
            np.testing.assert_allclose(expanded[0][b], covs, rtol=0,
                                       atol=1e-8 * np.abs(covs).max())
            np.testing.assert_allclose(expanded[1][b], cross, rtol=0,
                                       atol=1e-8 * np.abs(cross).max())

    def test_smoother_sizes_its_scans_by_the_switch(self, monkeypatch):
        models = [random_model(3, 2, seed=s) for s in (60, 61, 62)]
        Y = simulate(models[0], T=300, seed=2).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        whole = _engine.smooth_batch(batch, fr)
        real = _engine._adjoint_sums
        sizes = []

        def spying(*args):
            sizes.append(args[3])
            return real(*args)

        # the smoother does not read SCAN_CHUNK: 7-step chunks leave it as it is
        monkeypatch.setattr(_engine, "SCAN_CHUNK", 7 * 3 * 9)
        monkeypatch.setattr(_engine, "_adjoint_sums", spying)
        small = _engine.smooth_batch(batch, fr)
        s = fr["switch"]
        assert 1 <= s < len(Y) // 2
        # one closed form over the frozen steps s .. T-1, and the transient's
        # I - Lambda_t P_t of the steps 0 .. s
        assert sizes == [len(Y) - s]
        assert small["transient"].shape == (3, s + 1, 3, 3)
        assert small.keys() == whole.keys()
        for key in small:
            np.testing.assert_array_equal(small[key], whole[key])

    def test_reused_arrays_are_overwritten_with_the_same_values(self):
        # em_loop hands each filter pass the arrays of the pass before; the
        # smoother of the reused pass is that of a fresh one
        models = [random_model(4, 2, seed=s) for s in (70, 71)]
        Y = simulate(models[0], T=300, seed=3).Y
        batch = _engine.stack_params(models)
        earlier = _engine.stack_params([random_model(4, 2, seed=s) for s in (72, 73)])
        old_f = _engine.filter_batch(earlier, Y)
        fresh_f = _engine.filter_batch(batch, Y)
        fresh_s = _engine.smooth_batch(batch, fresh_f)
        assert old_f["switch"] != fresh_f["switch"]
        f = _engine.filter_batch(batch, Y, reuse=old_f)
        s = _engine.smooth_batch(batch, f)
        for key in ("pred_means", "pred_covs", "FT", "SinvC", "v"):
            assert f[key] is old_f[key]
        assert f.keys() == fresh_f.keys()
        for new, fresh in ((stored(f), stored(fresh_f)), (s, fresh_s)):
            assert new.keys() == fresh.keys()
            for key in fresh:
                np.testing.assert_array_equal(new[key], fresh[key])


class TestFrozenSums:
    """The smoother's frozen stretch in closed form: the sums and the last
    state of the adjoint map L -> F^T L F + c from 0, by binary doubling on
    the number of steps."""

    @staticmethod
    def plain_loop(F, c, n):
        """sum_{1<=k<=n} Lambda^(k) and Lambda^(n) from Lambda^(0) = 0, one
        step at a time."""
        L, total = np.zeros_like(c), np.zeros_like(c)
        for _ in range(n):
            L = np.swapaxes(F, -1, -2) @ L @ F + c
            total = total + L
        return total, L

    @staticmethod
    def adjoint_sums(F, c, n):
        return _engine._adjoint_sums(np.ascontiguousarray(np.swapaxes(F, -1, -2)), F, c, n)

    @pytest.mark.parametrize("rho", [0.5, 0.95, 1.05])
    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    @pytest.mark.parametrize("n", list(range(10)) + [31, 32, 33, 64, 991])
    def test_matches_plain_loop(self, n, d, rho):
        rng = np.random.default_rng(1000 * n + 10 * d + int(100 * rho))
        B = 3
        F = rng.standard_normal((B, d, d))
        F *= rho / np.max(np.abs(np.linalg.eigvals(F)), axis=-1)[:, None, None]
        c = _engine.psd_floor_batch(rng.standard_normal((B, d, d)))[0]
        got = self.adjoint_sums(F, c, n)
        for g, want in zip(got, self.plain_loop(F, c, n)):
            scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
            assert np.all(np.abs(g - want) <= 1e-12 * scale)

    def test_failed_element_sums_its_filtered_covariance(self):
        # F = 0: every Lambda^(k) with k >= 1 is c, so every V = P - P c P of
        # the stretch is the filtered covariance
        rng = np.random.default_rng(4)
        c = _engine.psd_floor_batch(rng.standard_normal((1, 3, 3)))[0]
        for n in (1, 2, 7, 64):
            total, last = self.adjoint_sums(np.zeros((1, 3, 3)), c, n)
            np.testing.assert_array_equal(last, c)
            np.testing.assert_allclose(total, n * c, rtol=1e-15)

    def test_no_array_of_the_smoother_has_one_matrix_per_step(self):
        models = [random_model(4, 1, seed=s) for s in (90, 91, 92)]
        Y = simulate(models[0], T=200, seed=9).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        assert fr["switch"] < len(Y) // 2
        sm = _engine.smooth_batch(batch, fr)
        B, T, d = sm["means"].shape
        for key, value in sm.items():
            assert value.size < B * T * d * d, key

    @pytest.mark.parametrize("fix_observation", [False, True])
    def test_m_step_on_the_statistics_matches_m_step_on_the_posterior(self, fix_observation):
        d_out = 3 if fix_observation else 2
        models = [random_model(3, d_out, seed=s) for s in (93, 94)]
        Y = simulate(models[0], T=300, seed=5).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        assert 1 < fr["switch"] < len(Y) // 2
        got, _, ok = _engine.m_step_batch(_engine.smooth_batch(batch, fr), Y,
                                          fix_observation=fix_observation)
        assert ok.all()
        data = SequenceData(Y=Y)
        for b, model in enumerate(models):
            want = m_step(rts_smooth(model, kalman_filter(model, data)), data,
                          fix_observation=fix_observation)
            for f in _engine.PARAM_FIELDS:
                np.testing.assert_allclose(getattr(got, f)[b], getattr(want, f),
                                           rtol=1e-10, atol=1e-12, err_msg=f)


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
        # the filter's transient steps and its switch; the smoother factors nothing
        assert calls["batched"] == transient + 1
        assert calls["single"] == len(models)
        # the guarded calls never write into the caller's arrays
        np.testing.assert_array_equal(fr["pred_covs"], pred_covs)


    def test_one_solve_per_smoother_pass(self, monkeypatch):
        # the adjoint recursion reads the filter's F and S^{-1} C: the
        # backward pass calls no np.linalg routine at all
        models = [random_model(3, 2, seed=s) for s in (60, 61, 62)]
        Y = simulate(models[0], T=200, seed=2).Y
        batch = _engine.stack_params(models)
        fr = _engine.filter_batch(batch, Y)
        assert fr["ok"].all() and switch_step(fr["pred_covs"]) > 1
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in dir(np.linalg):
            if not name.startswith("_") and callable(getattr(np.linalg, name)) \
                    and not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, counting(name))
        sm = _engine.smooth_batch(batch, fr)
        _engine.smoothed_covariances(batch, sm, fr)
        assert calls == []
        # the counting wrappers see the calls of a filter pass
        _engine.filter_batch(batch, Y)
        assert "cholesky" in calls


class TestSpdSolve:
    """What the smoother's gain solve (the Cholesky solve of
    P^pred_{t+1} J_t^T = A P^f_t, with an LU fallback) guaranteed, asked of
    the adjoint recursion that replaced it: the textbook RTS posterior,
    each element alone as in the batch, a failed element's moments left
    finite, and an indefinite predicted covariance smoothed."""

    @staticmethod
    def cases(d):
        """(models, Y, rel) at order d: one and two outputs at T = 1, 2 and
        5, which never settle (T = 1 is the cut s = 0), and at T = 200, where
        the filter freezes; then observable mode (C = I, R2 = 1e-6 I), where
        V = P - P Lambda P cancels almost all of P.  ``rel`` is the
        tolerance against the textbook smoother: in observable mode its
        standard-form P - K S K^T cancels too, and they differ by up to
        2.5e-8 of V."""
        for d_out in (1, 2):
            models = [random_model(d, d_out, seed=100 * d + 10 * d_out + b) for b in range(3)]
            for T in (1, 2, 5, 200):
                yield models, simulate(models[0], T=T, seed=d + d_out).Y, 1e-12
        models = [random_model(d, d, seed=200 + d + b).replace(
            C=np.eye(d), R2=_engine.OBSERVABLE_MODE_NOISE * np.eye(d)) for b in range(2)]
        yield models, simulate(models[0], T=200, seed=d).Y, 1e-7

    @staticmethod
    def assert_close(got, want, rel):
        """|got - want| <= rel times the largest entry of ``want``, and never
        above TestSteadyState's 1e-8."""
        atol = min(1e-8, rel * np.abs(want).max(initial=0.0))
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    @pytest.mark.parametrize("d", [1, 3, 6, 12])
    def test_matches_lu_solve(self, d):
        # the engine's means and M-step statistics, and rts_smooth's per-step
        # covariances, against the textbook RTS smoother with J solved by LU
        for models, Y, rel in self.cases(d):
            batch = _engine.stack_params(models)
            fr = _engine.filter_batch(batch, Y)
            sm = _engine.smooth_batch(batch, fr)
            for b, model in enumerate(models):
                _, means, covs, cross = textbook_smoother(model, Y)
                self.assert_close(sm["means"][b], means, rel)
                for key, want in stats_of(covs, cross).items():
                    self.assert_close(sm[key][b], want, rel)
                post = rts_smooth(model, kalman_filter(model, SequenceData(Y=Y)))
                self.assert_close(post.means, means, rel)
                self.assert_close(post.covs, covs, rel)
                self.assert_close(post.cross_covs, cross, rel)

    @pytest.mark.parametrize("d", [1, 3, 6, 12])
    def test_each_element_alone_as_in_the_batch(self, d):
        # the smoother of one element's slice of a pass is that element's
        # share of the batch's, bit for bit
        for models, Y, _ in self.cases(d):
            batch = _engine.stack_params(models)
            fr = _engine.filter_batch(batch, Y)
            sm = _engine.smooth_batch(batch, fr)
            covs = _engine.smoothed_covariances(batch, sm, fr)
            for b in range(batch.B):
                pb = _engine.ParamsBatch(*(getattr(batch, f)[b:b + 1]
                                           for f in _engine.PARAM_FIELDS))
                one = {k: v if k == "switch" else v[b:b + 1] for k, v in fr.items()}
                alone = _engine.smooth_batch(pb, one)
                assert alone.keys() == sm.keys()
                for key in sm:
                    np.testing.assert_array_equal(alone[key][0], sm[key][b], err_msg=key)
                for got, want in zip(_engine.smoothed_covariances(pb, alone, one), covs):
                    np.testing.assert_array_equal(got[0], want[b])

    def test_indefinite_prediction_is_solved_by_lu(self):
        # LdsParams admits R1's eigenvalue -1e-11 (within -1e-10); with A = 0
        # every predicted covariance is R1, which does not factor: the gain
        # solve needed LU here, while the adjoint recursion solves nothing
        p = LdsParams(A=np.zeros((2, 2)), C=[[1.0, 1.0]], R1=np.diag([1.0, -1e-11]),
                      R2=[[1.0]], mu0=np.zeros(2), R0=np.eye(2))
        data = SequenceData(Y=np.random.default_rng(5).standard_normal(20))
        sm = rts_smooth(p, kalman_filter(p, data))
        for moment in (sm.means, sm.covs, sm.cross_covs):
            assert np.isfinite(moment).all()

    def test_failed_element_solves_against_the_identity(self):
        # an element whose S degenerates, at step 0 (C = 0, R2 = 0) or later
        # (P grows x4 a step until S fails the conditioning bound), carries
        # the identity as its predicted covariance and zero means after that
        # step, and its smoothed moments from that step on are its filtered
        # ones; the other elements match the textbook smoother
        models = [random_model(3, 2, seed=s) for s in (30, 31, 32)]
        Y = simulate(models[0], T=200, seed=3).Y
        for late in (False, True):
            batch = _engine.stack_params(models + [models[0]])
            if late:
                batch.A[3] = 2.0 * np.eye(3)
            else:
                batch.C[3], batch.R2[3] = 0.0, 0.0
            fr = _engine.filter_batch(batch, Y)
            np.testing.assert_array_equal(fr["ok"], [True, True, True, False])
            held = [np.array_equal(P, np.eye(3)) for P in fr["pred_covs"][3]]
            start = held.index(True)
            fail_at = start - 1
            assert (fail_at > 1 if late else fail_at == 0) and all(held[start:])
            sm = _engine.smooth_batch(batch, fr)
            covs, cross = _engine.smoothed_covariances(batch, sm, fr)
            means_f, covs_f = _engine.filtered_moments(batch, fr)
            np.testing.assert_array_equal(sm["means"][3, fail_at:], means_f[3, fail_at:])
            np.testing.assert_array_equal(covs[3, fail_at:], covs_f[3, fail_at:])
            np.testing.assert_array_equal(covs_f[3, fail_at:], fr["pred_covs"][3, fail_at:])
            assert not cross[3, fail_at:].any() and not sm["means"][3, start:].any()
            for key in ("means", "cov_sum", "cross_sum", "cov_first", "cov_last"):
                assert np.isfinite(sm[key][3]).all(), key
            for b, model in enumerate(models):
                _, means, want_covs, want_cross = textbook_smoother(model, Y)
                self.assert_close(sm["means"][b], means, 1e-12)
                for key, want in stats_of(want_covs, want_cross).items():
                    self.assert_close(sm[key][b], want, 1e-12)


class TestPsdFloor:
    """An element whose eigenvalues all lie above COV_FLOOR comes back as
    sym(M); only the others are floored through eigh."""

    @staticmethod
    def eigh_floor(M):
        """The eigendecomposition path, which every element took before the
        Cholesky test."""
        w, V = np.linalg.eigh(sym(M))
        fired = np.any(w < _engine.COV_FLOOR, axis=-1)
        w = np.maximum(w, _engine.COV_FLOOR)
        return np.einsum("...ij,...j,...kj->...ik", V, w, V), fired

    @staticmethod
    def batch(d, seed):
        """Eight (d, d) matrices, not symmetric: even ones well above the
        floor, odd ones with an eigenvalue below it (negative, or zero)."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, d, d))
        M = X @ np.swapaxes(X, 1, 2) + 0.5 * np.eye(d) + 1e-3 * rng.standard_normal((8, d, d))
        M[1::2] -= 2.0 * np.linalg.eigvalsh(sym(M[1::2]))[:, -1, None, None] * np.eye(d)
        M[3, 0] = M[3, :, 0] = 0.0                     # an eigenvalue 0
        return M

    @pytest.mark.parametrize("d", [1, 3, 12])
    def test_above_the_floor_is_returned_as_sym(self, d):
        M = self.batch(d, seed=d)[::2]
        out, fired = _engine.psd_floor_batch(M)
        np.testing.assert_array_equal(out, sym(M))
        assert not fired.any()

    @pytest.mark.parametrize("d", [1, 3, 12])
    def test_below_the_floor_takes_the_eigh_path(self, d):
        M = self.batch(d, seed=d)[1::2]
        out, fired = _engine.psd_floor_batch(M)
        want, want_fired = self.eigh_floor(M)
        assert want_fired.all()
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(fired, want_fired)

    @pytest.mark.parametrize("d", [1, 3, 12])
    def test_mixed_batch_takes_each_element_by_its_own_rule(self, d):
        M = self.batch(d, seed=d)
        out, fired = _engine.psd_floor_batch(M)
        np.testing.assert_array_equal(fired, [False, True] * 4)
        for b in range(8):
            want = sym(M[b]) if b % 2 == 0 else self.eigh_floor(M[b:b + 1])[0][0]
            np.testing.assert_array_equal(out[b], want)


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
        # trace(S^{-1}) = ||L^{-1}||_F^2, from an inverse taken apart from L
        ok &= np.linalg.norm(S) * np.trace(np.linalg.inv(S)) <= 1 / _engine.DEGENERACY_RCOND
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
    def calls_per_step(pb, monkeypatch, reuse=False):
        """Calls made from ``_engine.py`` per transient step: the difference
        between runs of T = 12 and T = 6 that never switch, over 6.  With
        ``reuse`` each run is handed an earlier pass of its shapes, whose
        switch (T) leaves every step to the test after the loop."""
        monkeypatch.setattr(_engine, "SETTLE_RTOL", -np.inf)
        Y = np.random.default_rng(0).standard_normal((12, pb.p))
        engine_file = _engine.__file__

        def count(Y):
            earlier = _engine.filter_batch(pb, Y) if reuse else None
            n = 0

            def profile(frame, event, arg):
                nonlocal n
                if event == "c_call":
                    n += frame.f_code.co_filename == engine_file
                elif event == "call" and frame.f_back is not None:
                    n += frame.f_back.f_code.co_filename == engine_file

            sys.setprofile(profile)
            try:
                _engine.filter_batch(pb, Y, reuse=earlier)
            finally:
                sys.setprofile(None)
            return n

        return (count(Y) - count(Y[:6])) / 6

    @pytest.mark.parametrize("p, reuse, budget", [pytest.param(1, False, 15, id="1"),
                                                   pytest.param(1, True, 8, id="1-reuse"),
                                                   pytest.param(3, False, 33, id="3")])
    def test_transient_step_call_budget(self, p, reuse, budget, monkeypatch):
        # a transient step steps the covariances alone, the means and the
        # innovations are taken after the loop; a 1x1 innovation covariance
        # is solved inline, without LAPACK; with an earlier pass handed
        # over, no step makes its own settle test
        pb = _engine.stack_params([random_model(4, p, seed=70 + b) for b in range(10)])
        assert self.calls_per_step(pb, monkeypatch, reuse) <= budget

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
        pb = _engine.stack_params([params])
        fr = _engine.filter_batch(pb, Y)
        loglik, Pf, ok, switch = joseph_filter(params, Y)
        assert fr["ok"][0] == ok and fr["switch"] == switch
        assert fr["loglik"][0] == pytest.approx(loglik, rel=1e-12)
        # the standard form's roundoff scales with P, the Joseph form's with
        # P_f: in observable mode P_f ~ R2 = 1e-6 I while P_0 = R0 is of order 1
        got = _engine.filtered_moments(pb, fr)[1][0]
        tol = 1e-10 * np.abs(got).max() + 1e-14 * np.abs(fr["pred_covs"][0]).max()
        np.testing.assert_allclose(got, Pf, rtol=0, atol=tol)


class TestFilterMemory:
    """A filter pass allocates its returned arrays and, beyond them, no array
    with one (d, d) or (p, p) matrix per step: its temporaries stay within a
    fixed margin, below one (B, T, d, d) array at either shape, also where
    the transient runs to the end (no switch) at p = d."""

    #: bytes a pass may hold beyond its returned arrays
    MARGIN = 640 * 1024

    @pytest.mark.parametrize("B, T, d, observable, never_settle", [
        pytest.param(30, 100, 6, False, False, id="p1-B30-T100-d6"),
        pytest.param(2, 1000, 10, True, False, id="observable-B2-T1000-d10"),
        pytest.param(2, 1000, 10, True, True, id="observable-B2-T1000-d10-no-switch")])
    def test_pass_allocates_its_outputs_and_a_margin(self, B, T, d, observable, never_settle,
                                                     monkeypatch):
        if never_settle:
            monkeypatch.setattr(_engine, "SETTLE_RTOL", -np.inf)
        if observable:
            models = [random_model(d, d, seed=200 + b).replace(
                C=np.eye(d), R2=_engine.OBSERVABLE_MODE_NOISE * np.eye(d)) for b in range(B)]
        else:
            models = [random_model(d, 1, seed=300 + b) for b in range(B)]
        Y = simulate(models[0], T=T, seed=0).Y
        batch = _engine.stack_params(models)
        tracemalloc.start()
        try:
            fr = _engine.filter_batch(batch, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fr["ok"].all() and (fr["switch"] == T or not never_settle)
        returned = sum(v.nbytes for v in fr.values() if isinstance(v, np.ndarray))
        assert self.MARGIN < B * T * d * d * 8
        assert peak <= returned + self.MARGIN

    @pytest.mark.parametrize("p, hinted", [pytest.param(1, False, id="p1"),
                                           pytest.param(3, False, id="p3"),
                                           pytest.param(3, True, id="p3-hinted")])
    def test_transient_taken_step_by_step_matches_one_run(self, p, hinted, monkeypatch):
        # with SCAN_CHUNK = 1 the pass takes the data-side quantities of its
        # transient one step at a time, inside the loop: it defines what one
        # run after the loop defines, the covariances bit for bit and the
        # rest to rounding, with a failed element zeroed from the same step.
        # The hint never settled, so the hinted pass goes back to its first
        # settled step after every step was taken
        models = [random_model(3, p, seed=90 + b) for b in range(4)]
        Y = simulate(models[0], T=300, seed=1).Y
        pb = _engine.stack_params(models)
        pb.R2[2], pb.R0[2] = -1e3 * np.eye(p), 1e6 * np.eye(3)

        def run():
            reuse = None
            if hinted:
                with monkeypatch.context() as m:
                    m.setattr(_engine, "SETTLE_RTOL", -np.inf)
                    reuse = _engine.filter_batch(pb, Y)
            return stored(_engine.filter_batch(pb, Y, reuse=reuse))

        one = run()
        monkeypatch.setattr(_engine, "SCAN_CHUNK", 1)
        steps = run()
        np.testing.assert_array_equal(steps["ok"], [True, True, False, True])
        assert steps["switch"] == one["switch"] < len(Y)
        for key in ("pred_covs", "FT"):
            np.testing.assert_array_equal(steps[key], one[key])
        for key in ("pred_means", "v", "SinvC", "loglik"):
            np.testing.assert_array_equal(steps[key] == 0, one[key] == 0)
            np.testing.assert_allclose(steps[key], one[key], rtol=1e-12,
                                       atol=1e-12 * np.abs(one[key]).max())


class TestFactorSolve:
    """At p = 1 ``_factor_solve`` calls no LAPACK routine and returns, bit
    for bit, what the guarded Cholesky, the test on the ratio of its
    diagonal and the guarded solve return."""

    @staticmethod
    def guarded(S, rhs, ok):
        L, ok = _engine._chol_guarded(S, ok)
        diag = np.abs(np.diagonal(L, axis1=-2, axis2=-1))
        with np.errstate(invalid="ignore"):            # inf / inf of an S = +inf
            ok &= (diag.min(axis=-1) / diag.max(axis=-1)) ** 2 >= _engine.DEGENERACY_RCOND
        sol, ok = guarded_solve(S, np.concatenate(rhs, axis=-1), ok)
        return diag, sol, ok

    @staticmethod
    def scalar_batch():
        rng = np.random.default_rng(11)
        special = [0.0, -0.0, -1.0, -np.inf, np.nan, np.inf, 5e-324, 1e-310, 1.7e308]
        good = np.exp(rng.uniform(-700, 700, 400))
        s = np.concatenate((good, special, good[:len(special)], special))
        ok = np.ones(s.size, dtype=bool)
        ok[-2 * len(special):] = False                 # already failed on arrival
        ok[:len(good):7] = False
        rhs = (rng.standard_normal((s.size, 1, 5)), rng.standard_normal((s.size, 1, 1)))
        return s[:, None, None], rhs, ok

    def test_scalar_batch_matches_lapack(self, monkeypatch):
        S, rhs, ok = self.scalar_batch()
        want_diag, want, want_ok = self.guarded(S, rhs, ok.copy())

        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "cholesky", no_lapack)
        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        # 1 / s overflows on the subnormal s, silently inside LAPACK
        with np.errstate(over="ignore", invalid="ignore"):
            diag, (a, b), got_ok = _engine._factor_solve(S, rhs, ok.copy())
        np.testing.assert_array_equal(got_ok, want_ok)
        np.testing.assert_array_equal(diag, want_diag)
        np.testing.assert_array_equal(np.concatenate((a, b), axis=-1), want)
        # dpotrf fails on s <= 0; NaN and +inf fail the ratio test
        np.testing.assert_array_equal(got_ok[400:409], [False] * 6 + [True] * 3)
        assert not got_ok[-18:].any() and got_ok[1:400:7].all()

    @pytest.mark.parametrize("kind, p", [
        pytest.param(kind, p, id=kind if p == 1 else f"p3-{kind}")
        for p in (1, 3) for kind in ("nonpositive", "inf", "nan")])
    def test_inline_filter_solve_matches_factor_solve(self, kind, p):
        # the filter solves a 1x1 S inline only while every element factors;
        # one element's S turns indefinite, +inf or NaN after step 0.  The
        # reference has one more element, failed from the start, so that
        # every step of it goes through _factor_solve.  At p = 3 every step
        # does: the failure is kept apart from the other elements by its own
        # masks, after the loop as in it
        models = [random_model(3, p, seed=90 + b) for b in range(5)]
        Y = simulate(models[0], T=300, seed=1).Y
        batch, ref_batch = _engine.stack_params(models[:4]), _engine.stack_params(models)
        for pb in (batch, ref_batch):
            if kind == "nonpositive":
                pb.R2[2], pb.R0[2] = -1e3 * np.eye(p), 1e6 * np.eye(3)
            elif kind == "inf":
                # P grows x4 a step until S overflows; at p = 3 every state is
                # seen and P settles near 3 R2, so S ~ 4 R2 must overflow
                r2 = 1e300 if p == 1 else 1e308
                pb.A[2], pb.R2[2], pb.R0[2] = 2.0 * np.eye(3), r2 * np.eye(p), 1e290 * np.eye(3)
            else:
                pb.R1[2, 0, 0] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            got = _engine.filter_batch(batch, Y)
            want = _engine.filter_batch(ref_batch, Y, ok=np.arange(5) < 4)
        np.testing.assert_array_equal(got["ok"], [True, True, False, True])
        assert got["switch"] == want["switch"] < len(Y)
        # failed after step 0, and from then on its P is I and its F^T,
        # S^{-1} C and S^{-1} r are zero
        held = [np.array_equal(P, np.eye(3)) for P in got["pred_covs"][2, :got["switch"]]]
        fail = held.index(True) - 1
        assert fail > 0 and all(held[fail + 1:])
        for key in ("FT", "SinvC", "v"):
            assert not got[key][2, fail:got["switch"]].any(), key
            assert got[key][2, :fail].all(), key
        for key, value in stored(got).items():
            if key != "switch":
                assert np.array_equal(value, stored(want)[key][:4], equal_nan=True), key

    def test_unguarded_scalar_matches_lapack(self):
        rng = np.random.default_rng(12)
        for s in np.exp(rng.uniform(-50, 50, 200)):
            S, CP = np.array([[s]]), rng.standard_normal((1, 4))
            diag, (KT, Sinv), ok = _engine._factor_solve(S, (CP, np.eye(1)))
            assert diag is None and ok is None
            np.testing.assert_array_equal(np.concatenate((KT, Sinv), axis=1),
                                          np.linalg.solve(S, np.concatenate((CP, np.eye(1)), axis=1)))


class TestConditioningBound:
    """``_factor_solve`` clears ``ok`` where ||S||_F trace(S^{-1}) exceeds
    1 / DEGENERACY_RCOND, a bound between kappa_2(S) and d^{3/2} kappa_2(S):
    never looser than the eigenvalue ratio test, at most d^{3/2} stricter."""

    @staticmethod
    def spd_batch(d, n, seed):
        """n matrices Q diag(w) Q^T with log10 w uniform on (-16, 0) and Q a
        random rotation."""
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
        w = 10.0 ** rng.uniform(-16, 0, (n, d))
        return (Q * w[:, None]) @ np.swapaxes(Q, -1, -2), rng.standard_normal((n, d, 2))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_bound_against_eigenvalue_ratio(self, d):
        S, R = self.spd_batch(d, 300, seed=d)
        _, (x,), ok = _engine._factor_solve(S, (R,), np.ones(len(S), dtype=bool))
        w = np.linalg.eigvalsh(S)
        ratio = w[:, 0] / w[:, -1]
        rcond = _engine.DEGENERACY_RCOND
        assert not (ok & (ratio < rcond)).any()                    # never looser
        assert ok[ratio >= d ** 1.5 * rcond].all()                 # at most d^{3/2} stricter
        # both sides of the cut are sampled
        assert ok.sum() >= 10 and (ratio < rcond).sum() >= 10
        # a failed element solves against the identity
        np.testing.assert_array_equal(x[~ok], R[~ok])
        want = np.linalg.solve(S[ok], R[ok])
        err = np.abs(x[ok] - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
        assert np.all(err <= 1e-14 / ratio[ok])
        # the bound does not depend on the scale of S: scaling S by 4^k scales
        # its factor by 2^k exactly, and no scale overflows the bound
        for k in (260, -260):
            _, (xk,), okk = _engine._factor_solve(S * 4.0 ** k, (R,), np.ones(len(S), dtype=bool))
            np.testing.assert_array_equal(okk, ok)
            np.testing.assert_array_equal(xk[ok] * 4.0 ** k, x[ok])

    def test_tiny_pivot_fails_without_overflow(self):
        # L^{-1} of diag(1, 1e-310) holds 1e155, whose square overflows
        S = np.array([[[1.0, 0.0], [0.0, 1e-310]], [[2.0, 1.0], [1.0, 2.0]]])
        R = np.ones((2, 2, 1))
        _, (x,), ok = _engine._factor_solve(S, (R,), np.ones(2, dtype=bool))
        np.testing.assert_array_equal(ok, [False, True])
        np.testing.assert_array_equal(x[0], R[0])


class TestCompleteDataLoglik:
    def test_zero_residual(self):
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[1.0]],
                      mu0=[0.0], R0=[[1.0]])
        val = complete_data_loglik(p, np.array([[0.7]]), SequenceData(Y=[0.7]))
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_hand_evaluated_two_step(self):
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[0.5]],
                      mu0=[0.0], R0=[[1.0]])
        means = np.array([[0.0], [0.0]])
        data = SequenceData(Y=[0.1, -0.2])
        expected = 2 * (-0.5 * np.log(np.pi)) - (0.01 + 0.04) / 1.0
        assert complete_data_loglik(p, means, data) == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx(-1.1947, abs=1e-4)

    def test_residual_doubling_quadratic_scaling(self):
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[1.0]],
                      mu0=[0.0], R0=[[1.0]])
        r = np.array([0.3, -0.1, 0.2])
        means = np.zeros((3, 1))
        base = complete_data_loglik(p, means, SequenceData(Y=r))
        doubled = complete_data_loglik(p, means, SequenceData(Y=2 * r))
        assert base - doubled == pytest.approx(np.sum(r ** 2) * 3 / 2)

    def test_singular_r2_raises(self):
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[0.0]],
                      mu0=[0.0], R0=[[1.0]])
        with pytest.raises(DegeneracyError):
            complete_data_loglik(p, np.zeros((2, 1)), SequenceData(Y=[0.0, 0.0]))
