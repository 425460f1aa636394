import math
from types import SimpleNamespace

import numpy as np
import pytest

from ldsmdl import (DimensionError, KAPPA_UNIFORM, LdsParams, SequenceData,
                    aic, bic, complete_data_loglik, count_params,
                    empirical_fisher_log_det, fia, kalman_filter,
                    mdl_description_length, mme, normalize_values, rts_smooth,
                    simulate)
from ldsmdl import _engine
from ldsmdl._engine import OBSERVABLE_MODE_NOISE
from ldsmdl.criteria import mdl_order_penalty
from ldsmdl.datagen import RandomLdsConfig, random_stable_lds
from ldsmdl.em import EmConfig, default_init, em_fit

from .oracles import textbook_step_logliks


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
        # ln(e^2) = 2 makes BIC equal AIC here
        assert bic(-100.0, 10, math.e ** 2).value == pytest.approx(
            aic(-100.0, 10).value)

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
        v = mdl_description_length(FitStub(p), post, data, N=100)
        cdl = complete_data_loglik(p, post, data)
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
        v = mdl_description_length(FitStub(p), post, data, N=50)
        assert v.components["stability"] == pytest.approx(0.5 * math.log(2.0))

    def test_stability_coupling_increases_with_transition(self):
        p, data, post = self._scalar_case()
        vals = []
        for a in np.linspace(0.0, 0.95, 12):
            v = mdl_description_length(FitStub(p.replace(A=[[a]])), post, data, N=100)
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

    def test_failed_perturbation_drops_its_score_row(self):
        # y_2 carries no state and has variance 5e-6, below the 1e-5 step:
        # the minus perturbation of R2[1, 1] makes S indefinite, so exactly
        # that filter fails and its parameter must drop out of F
        p = LdsParams(A=[[0.8, 0.1], [0.0, 0.5]], C=[[1.0, 0.5], [0.0, 0.0]],
                      R1=0.5 * np.eye(2), R2=np.diag([1.0, 5e-6]),
                      mu0=np.zeros(2), R0=np.eye(2))
        data = simulate(p, T=40, seed=1)
        expected, failed = fisher_oracle(p, data.Y, ("A", "C", "R1", "R2", "mu0", "R0"))
        assert failed == [("R2", 1, 1)]
        got = empirical_fisher_log_det(p, data)
        assert np.isfinite(got)
        assert got == pytest.approx(expected, abs=1e-6)

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

    @pytest.mark.parametrize("d, d_out, fix_observation", [
        (1, 1, False), (3, 1, False), (4, 3, False), (1, 1, True), (3, 3, True)])
    def test_batch_perturbs_each_free_parameter_twice(self, monkeypatch, d, d_out,
                                                      fix_observation):
        p = random_stable_lds(RandomLdsConfig(d=d, d_out=d_out, seed=d))
        if fix_observation:
            p = p.replace(C=np.eye(d), R2=OBSERVABLE_MODE_NOISE * np.eye(d))
        data = simulate(p, T=10, seed=d)
        batches = []
        real = _engine.filter_batch

        def capturing(pb, *args, **kwargs):
            batches.append(pb)
            return real(pb, *args, **kwargs)

        monkeypatch.setattr(_engine, "filter_batch", capturing)
        empirical_fisher_log_det(p, data, fix_observation=fix_observation)
        [pb] = batches
        assert pb.B == 2 * count_params(d, d_out, fix_observation).n_theta
        for name in ("C", "R2") if fix_observation else ():
            assert (getattr(pb, name) == getattr(p, name)).all()   # carried, not perturbed
        # the two elements of a pair differ in one entry, or in a mirrored pair
        moved = sum((getattr(pb, f)[0::2] != getattr(pb, f)[1::2]).reshape(pb.B // 2, -1).sum(1)
                    for f in _engine.PARAM_FIELDS)
        assert set(moved) <= {1, 2}


def fisher_oracle(p, Y, names):
    """Pseudo-log-det of the empirical Fisher over every free entry of the
    named fields, one textbook filter per central-difference perturbation
    (an off-diagonal entry of a covariance moves together with its mirror);
    returns the value and the entries whose perturbed filter failed, whose
    scores are left out."""
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
        h = 1e-5 * max(1.0, abs(getattr(p, name)[tuple(ij)]))
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
    S = np.array(rows)
    w = np.linalg.eigvalsh(S @ S.T)
    return 0.5 * np.sum(np.log(w[w > w.max() * 1e-12])), failed
