import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ldsmdl import (DegeneracyError, DimensionError, KAPPA_UNIFORM, LdsParams,
                    SequenceData, aic, bic, complete_data_loglik, count_params,
                    empirical_fisher_log_det, fia, kalman_filter,
                    mdl_description_length, mme, normalize_values, rts_smooth,
                    simulate)
from ldsmdl import _engine
from ldsmdl._engine import OBSERVABLE_MODE_NOISE
from ldsmdl.criteria import _directions, mdl_order_penalty
from ldsmdl.datagen import RandomLdsConfig, random_stable_lds
from ldsmdl.em import EmConfig, default_init, em_fit

from .oracles import reference_tangent_fisher, textbook_step_logliks


class TestCountParams:
    def test_scalar(self):
        assert count_params(1, 1).n_theta == 6

    def test_d2(self):
        assert count_params(2, 1).n_theta == 15

    def test_d4(self):
        pc = count_params(4, 1)
        assert pc.n_theta == 45
        assert pc.breakdown == {"A": 16, "C": 4, "R1": 10, "R2": 1,
                                "mu0": 4, "R0": 10}

    def test_fix_observation_drops_c_and_r2(self):
        pc = count_params(3, 3, fix_observation=True)
        assert pc.breakdown["C"] == 0 and pc.breakdown["R2"] == 0
        assert pc.n_theta == 9 + 6 + 3 + 6

    def test_invalid(self):
        with pytest.raises(DimensionError):
            count_params(0, 1)


class TestKappa:
    def test_uniform_reference(self):
        assert KAPPA_UNIFORM == pytest.approx(1 / 12)


class TestFormulas:
    def test_aic(self):
        assert aic(-100.0, 10).value == pytest.approx(220.0)
        assert aic(0.0, 0).value == 0.0
        assert aic(-55.5, 15).value == pytest.approx(141.0)

    def test_bic(self):
        assert bic(-100.0, 10, 100).value == pytest.approx(200 + 10 * math.log(100))
        assert bic(-5.0, 10, 1).value == pytest.approx(10.0)
        # BIC is AIC with the per-parameter penalty 2 swapped for ln n
        assert bic(-100.0, 10, 7).value == pytest.approx(
            aic(-100.0, 10).value + 10 * (math.log(7) - 2))

    def test_fia(self):
        v = fia(-100.0, 10, 100, 0.0)
        assert v.value == pytest.approx(100 + 5 * math.log(100 / (2 * math.pi)))
        assert v.value == pytest.approx(113.8387, abs=5e-3)
        v = fia(-1.0, 7, round(2 * math.pi), 0.3)
        assert v.components["dimension_penalty"] == pytest.approx(0.0, abs=0.2)

    def test_mme(self):
        assert mme(-100.0, 10, 12).value == pytest.approx(105.0)
        assert mme(-100.0, 10, 120).value == pytest.approx(100 + 5 * math.log(10) + 5)
        assert mme(-100.0, 0, 50).value == pytest.approx(100.0)

    def test_value_is_component_sum(self):
        for v in (aic(-3.0, 4), bic(-3.0, 4, 7), fia(-3.0, 4, 7, 0.2),
                  mme(-3.0, 4, 7)):
            assert v.value == pytest.approx(sum(v.components.values()), abs=1e-10)

    def test_monotone_in_negative_loglik(self):
        for fn in (lambda ll: aic(ll, 5).value,
                   lambda ll: bic(ll, 5, 50).value,
                   lambda ll: fia(ll, 5, 50, 0.1).value,
                   lambda ll: mme(ll, 5, 50).value):
            assert fn(-11.0) > fn(-10.0)


class FitStub:
    def __init__(self, params, loglik=0.0):
        self.params = params
        self.loglik = loglik


class TestMdl:
    @staticmethod
    def _scalar_case():
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[1.0]],
                      mu0=[0.0], R0=[[1.0]])
        data = simulate(p, T=10, seed=3)
        post = rts_smooth(p, kalman_filter(p, data))
        return p, data, post

    def test_component_composition(self):
        p, data, post = self._scalar_case()
        v = mdl_description_length(FitStub(p), post.means, data, N=100)
        cdl = complete_data_loglik(p, post.means, data)
        assert v.components["fit"] == pytest.approx(-cdl, abs=1e-12)
        assert v.components["stability"] == pytest.approx(0.5 * math.log(7 / 3))
        assert v.components["stability"] == pytest.approx(0.4236, abs=1e-4)
        assert v.components["order_penalty"] == pytest.approx(
            0.5 * math.log(2 * 100 ** 2 / (2 * math.pi) ** 2))
        assert v.components["order_penalty"] == pytest.approx(3.1139, abs=1e-4)
        assert v.value == pytest.approx(sum(v.components.values()), abs=1e-10)
        # with a fit term pinned at 10 the three terms compose to 13.5375
        assert 10 + v.components["stability"] + v.components["order_penalty"] \
            == pytest.approx(13.5375, abs=1e-4)

    def test_penalty_linear_in_order(self):
        assert mdl_order_penalty(5, 100) - mdl_order_penalty(4, 100) \
            == pytest.approx(3.1139, abs=1e-4)

    def test_zero_observability_limit(self):
        p = LdsParams(A=[[0.5]], C=[[0.0]], R1=[[1.0]], R2=[[2.0]],
                      mu0=[0.0], R0=[[1.0]])
        data = SequenceData(Y=np.zeros(4))
        post = rts_smooth(p, kalman_filter(p, data))
        v = mdl_description_length(FitStub(p), post.means, data, N=50)
        assert v.components["stability"] == pytest.approx(0.5 * math.log(2.0))

    def test_stability_coupling_increases_with_transition(self):
        p, data, post = self._scalar_case()
        vals = []
        for a in np.linspace(0.0, 0.95, 12):
            v = mdl_description_length(FitStub(p.replace(A=[[a]])), post.means, data,
                                       N=100)
            vals.append(v.components["stability"])
        assert np.all(np.diff(vals) > 0)

    def test_bic_recovery_identity(self):
        for N in (10 ** 2, 10 ** 4, 10 ** 6):
            for d in range(1, 13):
                c_d = 0.5 * d * math.log(2.0 / (2 * math.pi) ** 2)
                assert abs(mdl_order_penalty(d, N) - d * math.log(N) - c_d) <= 1e-10


class TestNormalize:
    def test_affine_map(self):
        assert normalize_values([10, 20, 30]) == pytest.approx([0, 0.5, 1])

    def test_constant_convention(self):
        assert normalize_values([5, 5, 5]) == [0.0, 0.0, 0.0]

    def test_requires_two(self):
        with pytest.raises(DimensionError):
            normalize_values([1.0])


def with_switch(fr, switch):
    """The filter result ``fr`` read as a pass that froze at ``switch``: its
    covariances of every step stand for the pass's steps 0 .. k - 1."""
    return dataclasses.replace(fr, switch=switch, pred_cov_steps=fr.pred_covs,
                               filt_cov_steps=fr.filt_covs)


class TestEmpiricalFisher:
    def test_matches_naive_finite_difference_oracle(self):
        gen = random_stable_lds(RandomLdsConfig(d=1, d_out=1, seed=2))
        data = simulate(gen, T=30, seed=2)
        fit = em_fit(data, default_init(data, 1, seed=0),
                     EmConfig(eps=1e-6, max_iters=100))
        p = fit.params

        def step_logliks(q):
            fr = kalman_filter(q, data)
            out = np.empty(data.T)
            for t in range(data.T):
                S = q.C @ fr.pred_covs[t] @ q.C.T + q.R2
                r = data.Y[t] - q.C @ fr.pred_means[t]
                out[t] = -0.5 * (np.log(2 * np.pi * S[0, 0]) + r[0] ** 2 / S[0, 0])
            return out

        names = [("A", 0, 0), ("C", 0, 0), ("R1", 0, 0), ("R2", 0, 0),
                 ("mu0", 0), ("R0", 0, 0)]
        scores = []
        for spec in names:
            name = spec[0]
            base = getattr(p, name).copy()
            h = 1e-5 * max(1.0, abs(base[spec[1:]]))
            hi, lo = base.copy(), base.copy()
            hi[spec[1:]] += h
            lo[spec[1:]] -= h
            scores.append((step_logliks(p.replace(**{name: hi}))
                           - step_logliks(p.replace(**{name: lo}))) / (2 * h))
        S = np.array(scores)
        F = S @ S.T
        # the scale non-identifiability of a scalar LDS makes F singular;
        # both sides use the pseudo-determinant over the nonzero spectrum
        w = np.linalg.eigvalsh(0.5 * (F + F.T))
        w = w[w > max(w.max(), 0.0) * 1e-12]
        expected = 0.5 * np.sum(np.log(w))
        got = empirical_fisher_log_det(p, data)
        assert got == pytest.approx(expected, abs=1e-3)

    def test_rank_deficient_falls_back_to_pseudo_determinant(self):
        gen = random_stable_lds(RandomLdsConfig(d=3, d_out=1, seed=4))
        data = simulate(gen, T=10, seed=4)   # fewer timesteps than parameters
        val = empirical_fisher_log_det(gen, data)
        assert np.isfinite(val)

    def test_small_variance_row_enters_like_any_other(self):
        # y_2 carries no state and has variance 5e-6: a central difference
        # of 1e-5 made S indefinite there, while the exact score needs no
        # step; the oracle runs at a step of 1e-8, where no perturbed
        # filter fails and the step is 1/500 of R2[1, 1]
        p = LdsParams(A=[[0.8, 0.1], [0.0, 0.5]], C=[[1.0, 0.5], [0.0, 0.0]],
                      R1=0.5 * np.eye(2), R2=np.diag([1.0, 5e-6]),
                      mu0=np.zeros(2), R0=np.eye(2))
        data = simulate(p, T=40, seed=1)
        expected, failed = fisher_oracle(p, data.Y, ("A", "C", "R1", "R2", "mu0", "R0"),
                                         step=1e-8)
        assert failed == []
        got = empirical_fisher_log_det(p, data)
        assert got == pytest.approx(expected, abs=1e-5)

    def test_observable_mode_perturbs_only_the_state_blocks(self):
        # C = I and R2 = OBSERVABLE_MODE_NOISE * I are pinned: the oracle
        # perturbs A, R1, mu0 and R0 and carries C and R2 as they are
        p = LdsParams(A=[[0.8, 0.1], [-0.2, 0.5]], C=np.eye(2),
                      R1=[[0.5, 0.1], [0.1, 0.3]], R2=OBSERVABLE_MODE_NOISE * np.eye(2),
                      mu0=[0.3, -0.1], R0=[[1.0, 0.2], [0.2, 0.8]])
        data = simulate(p, T=40, seed=2)
        expected, failed = fisher_oracle(p, data.Y, ("A", "R1", "mu0", "R0"))
        assert failed == []
        got = empirical_fisher_log_det(p, data, fix_observation=True)
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("fix_observation", [False, True])
    def test_exact_scores_match_central_differences(self, monkeypatch, fix_observation):
        # the central-difference error falls with the step, towards the
        # exact F of the tangent pass
        p = LdsParams(A=[[0.8, 0.1], [-0.2, 0.5]], C=[[1.0, 0.5], [0.3, -1.0]],
                      R1=[[0.5, 0.1], [0.1, 0.3]], R2=[[0.4, 0.05], [0.05, 0.6]],
                      mu0=[0.3, -0.1], R0=[[1.0, 0.2], [0.2, 0.8]])
        names = ("A", "C", "R1", "R2", "mu0", "R0")
        if fix_observation:
            p = p.replace(C=np.eye(2), R2=OBSERVABLE_MODE_NOISE * np.eye(2))
            names = ("A", "R1", "mu0", "R0")
        data = simulate(p, T=40, seed=2)
        infos = capture(monkeypatch, "tangent_fisher", result=True)
        empirical_fisher_log_det(p, data, fix_observation=fix_observation)
        [F] = infos
        errors = []
        for step in (1e-4, 1e-5, 1e-6):
            S, failed = fisher_oracle_scores(p, data.Y, names, step)
            assert failed == []
            errors.append(np.abs(S @ S.T - F).max() / np.abs(F).max())
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-9

    def test_frozen_derivatives_match_a_pass_that_never_freezes(self):
        for d, d_out, seed in ((3, 2, 60), (3, 1, 61), (2, 2, 5)):
            p = random_stable_lds(RandomLdsConfig(d=d, d_out=d_out, seed=seed))
            Y = simulate(p, T=300, seed=2).Y
            fr = kalman_filter(p, SequenceData(Y=Y))
            assert fr.switch < len(Y) // 2
            dirs = _directions(p, fix_observation=False)
            frozen = _engine.tangent_fisher(p, fr, Y, dirs)
            stepped = _engine.tangent_fisher(p, with_switch(fr, len(Y)), Y, dirs)
            np.testing.assert_allclose(frozen, stepped, rtol=0,
                                       atol=1e-8 * np.abs(stepped).max())

    @pytest.mark.parametrize("freezes", [True, False])
    @pytest.mark.parametrize("d, d_out, fix_observation", [
        (1, 1, False), (3, 1, False), (4, 3, False), (3, 3, True), (10, 10, True)])
    def test_matches_the_reference_pass(self, monkeypatch, d, d_out, fix_observation,
                                        freezes):
        # the reference takes every product of a direction stack matrix by
        # matrix, lets every block enter and updates F once per block of
        # steps: the same terms, summed in another order
        p = random_stable_lds(RandomLdsConfig(d=d, d_out=d_out, seed=d))
        if fix_observation:
            p = p.replace(C=np.eye(d), R2=OBSERVABLE_MODE_NOISE * np.eye(d))
        Y = simulate(p, T=60, seed=d).Y
        fr = kalman_filter(p, SequenceData(Y=Y))
        dirs = _directions(p, fix_observation)
        fr = with_switch(fr, fr.switch if freezes else len(Y))
        want = reference_tangent_fisher(p, fr, Y, dirs)
        # two-row panels of scores: both stretches span several
        monkeypatch.setattr(_engine, "SCAN_CHUNK", 2 * dirs.B)
        assert 2 < fr.switch and (len(Y) - fr.switch > 2 or not freezes)
        got = _engine.tangent_fisher(p, fr, Y, dirs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    # frozen steps and rows per score panel (None: SCAN_CHUNK // n)
    @pytest.mark.parametrize("frozen, panel", [
        (1, None),     # switch = T - 1: one step
        (2, None),     # one block of two steps
        (9, None),     # L = 3: three full blocks
        (10, None),    # L = 4: blocks of 4, 4 and 2
        (6, 4),        # panels of 4 and 2 rows (d = 3), each one block of its own
        (23, 10),      # panels of 10, 10 and 3 rows: blocks of 4, 4 and 2, then 2 and 1
    ])
    @pytest.mark.parametrize("d_out, fix_observation", [(1, False), (2, False), (3, True)])
    def test_blocked_frozen_stretch_matches_the_reference(self, monkeypatch, frozen, panel,
                                                          d_out, fix_observation):
        d = 3
        p = random_stable_lds(RandomLdsConfig(d=d, d_out=d_out, seed=40 + d_out))
        if fix_observation:
            p = p.replace(C=np.eye(d), R2=OBSERVABLE_MODE_NOISE * np.eye(d))
        Y = simulate(p, T=40, seed=d_out).Y
        dirs = _directions(p, fix_observation)
        assert (dirs.C is None) == fix_observation
        fr = with_switch(kalman_filter(p, SequenceData(Y=Y)), len(Y) - frozen)
        want = reference_tangent_fisher(p, fr, Y, dirs)
        if panel is not None:
            monkeypatch.setattr(_engine, "SCAN_CHUNK", panel * dirs.B)
        got = _engine.tangent_fisher(p, fr, Y, dirs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("fix_observation", [False, True])
    def test_a_handed_filter_pass_gives_the_same_value(self, fix_observation):
        p = random_stable_lds(RandomLdsConfig(d=3, d_out=3, seed=7))
        if fix_observation:
            p = p.replace(C=np.eye(3), R2=OBSERVABLE_MODE_NOISE * np.eye(3))
        data = simulate(p, T=50, seed=7)
        handed = empirical_fisher_log_det(p, data, fix_observation=fix_observation,
                                          filter_result=kalman_filter(p, data))
        assert handed == empirical_fisher_log_det(p, data, fix_observation=fix_observation)

    @pytest.mark.parametrize("d, d_out, fix_observation", [
        (1, 1, False), (3, 1, False), (4, 3, False), (1, 1, True), (3, 3, True)])
    def test_one_direction_per_free_parameter(self, monkeypatch, d, d_out, fix_observation):
        p = random_stable_lds(RandomLdsConfig(d=d, d_out=d_out, seed=d))
        if fix_observation:
            p = p.replace(C=np.eye(d), R2=OBSERVABLE_MODE_NOISE * np.eye(d))
        data = simulate(p, T=10, seed=d)
        calls = capture(monkeypatch, "tangent_fisher")
        empirical_fisher_log_det(p, data, fix_observation=fix_observation)
        [(params, _fr, _Y, dirs)] = calls
        assert params is p
        assert dirs.B == count_params(d, d_out, fix_observation).n_theta
        pinned = ("C", "R2") if fix_observation else ()
        # a pinned block gets no array
        assert [f for f in _engine.PARAM_FIELDS if getattr(dirs, f) is None] == list(pinned)
        units = np.concatenate([getattr(dirs, f).reshape(dirs.B, -1)
                                for f in _engine.PARAM_FIELDS if f not in pinned], axis=1)
        assert set(np.unique(units)) <= {0.0, 1.0}
        # one entry per direction, or a covariance entry and its mirror
        assert set(units.sum(axis=1)) <= {1.0, 2.0}
        # every entry of an unpinned block is moved by exactly one direction
        for f in _engine.PARAM_FIELDS:
            if f not in pinned:
                assert (getattr(dirs, f).sum(axis=0) == 1.0).all()

    def test_degenerate_filter_raises(self):
        p = LdsParams(A=[[0.5]], C=[[0.0]], R1=[[1.0]], R2=[[0.0]],
                      mu0=[0.0], R0=[[1.0]])
        data = SequenceData(Y=np.ones((5, 1)))
        with pytest.raises(DegeneracyError):
            empirical_fisher_log_det(p, data)

    def test_data_width_must_match_the_model(self):
        p = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=0))
        with pytest.raises(DimensionError):
            empirical_fisher_log_det(p, SequenceData(Y=np.ones((20, 2))))


def capture(monkeypatch, name, result=False):
    """Record the arguments (or, with ``result``, the return value) of every
    call of the engine function ``name`` made through the engine module."""
    calls = []
    real = getattr(_engine, name)

    def recording(*args):
        out = real(*args)
        calls.append(out if result else args)
        return out

    monkeypatch.setattr(_engine, name, recording)
    return calls


def fisher_oracle(p, Y, names, step=1e-5):
    """Pseudo-log-det of the empirical Fisher of ``fisher_oracle_scores``;
    returns the value and the entries whose perturbed filter failed, whose
    scores are left out."""
    S, failed = fisher_oracle_scores(p, Y, names, step)
    w = np.linalg.eigvalsh(S @ S.T)
    return 0.5 * np.sum(np.log(w[w > w.max() * 1e-12])), failed


def fisher_oracle_scores(p, Y, names, step):
    """Score rows of every free entry of the named fields, one textbook
    filter per central-difference perturbation of relative size ``step``
    (an off-diagonal entry of a covariance moves together with its mirror),
    and the entries whose perturbed filter failed, which get no row."""
    fields = ("A", "C", "R1", "R2", "mu0", "R0")
    entries = []
    for name in names:
        shape = getattr(p, name).shape
        if name in ("R1", "R2", "R0"):
            entries += [(name,) + ij for ij in zip(*np.tril_indices(shape[0]))]
        else:
            entries += [(name,) + ij for ij in np.ndindex(shape)]
    rows, failed = [], []
    for name, *ij in entries:
        h = step * max(1.0, abs(getattr(p, name)[tuple(ij)]))
        lls = []
        for sign in (1.0, -1.0):
            q = {f: getattr(p, f).copy() for f in fields}
            q[name][tuple(ij)] += sign * h
            if len(ij) == 2 and name in ("R1", "R2", "R0") and ij[0] != ij[1]:
                q[name][ij[1], ij[0]] += sign * h
            lls.append(textbook_step_logliks(SimpleNamespace(**q), Y))
        if any(ll is None for ll in lls):
            failed.append((name, *ij))
            continue
        rows.append((lls[0] - lls[1]) / (2 * h))
    return np.array(rows), failed
