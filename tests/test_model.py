import dataclasses
import json
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ldsmdl import _engine
from ldsmdl import (DimensionError, EmConfig, InstabilityError, LdsParams,
                    NarmaSpec, RandomLdsConfig, SequenceData, SingularityError, bic,
                    complete_data_loglik, count_params, default_init, delay_embed,
                    enforce_stability, fia, kalman_filter, mdl_description_length, mme,
                    multi_restart_fit, random_stable_lds, read_sequence_csv, rts_smooth,
                    sample_inverse_wishart, simulate, solve_discrete_lyapunov,
                    spectral_radius, stationary_obs_log_det, write_sequence_csv)
from ldsmdl.criteria import mdl_order_penalty
from ldsmdl.em import _params_from_batch
from ldsmdl.model import (PARAM_FIELDS, STABILITY_MARGIN, ModelOrderBounds,
                          enforce_stability_batch)

from .oracles import eigvals_stability, lyapunov_series


def scalar_params(a=0.5, c=1.0, r1=1.0, r2=1.0, mu0=1.0, r0=1.0):
    return LdsParams(A=[[a]], C=[[c]], R1=[[r1]], R2=[[r2]],
                     mu0=[mu0], R0=[[r0]])


square = arrays(float, (3, 3), elements=st.floats(-5, 5))


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius([[0.5]]) == 0.5

    def test_nilpotent(self):
        assert spectral_radius([[0, 1], [0, 0]]) == 0.0

    def test_rotation(self):
        # eigenvalues are +-i
        assert spectral_radius([[0, -1], [1, 0]]) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            spectral_radius([[np.nan]])


class TestEnforceStability:
    def test_stable_unchanged(self):
        np.testing.assert_array_equal(enforce_stability([[0.5]]), [[0.5]])

    def test_unstable_rescaled(self):
        out = enforce_stability([[2.0]])
        assert out[0, 0] == pytest.approx(2.0 / (1.1 * 2.0))
        assert spectral_radius(out) == pytest.approx(1 / 1.1)

    def test_boundary_is_unstable(self):
        out = enforce_stability([[1.0]])
        assert out[0, 0] == pytest.approx(1 / 1.1)

    @settings(max_examples=50, deadline=None)
    @given(square)
    def test_idempotent(self, A):
        once = enforce_stability(A)
        twice = enforce_stability(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(square)
    def test_result_is_stable(self, A):
        assert spectral_radius(enforce_stability(A)) < 1.0


class TestStabilityPretest:
    """``enforce_stability_batch`` takes eigvals only of the matrices that
    its bound rho(A)^16 <= ||A^16||_inf cannot clear, and returns the bits
    and the fired mask of the eigvals-only path."""

    @staticmethod
    def batches():
        rng = np.random.default_rng(5)
        edge = 1.0 - STABILITY_MARGIN
        # spectral radius within a few ulps of 1 - STABILITY_MARGIN, as a
        # diagonal, a scaled rotation and a non-normal triangle
        # (at an eighth of a turn A^16 is r^16 I, where the bound is tight)
        for k in range(-4, 5):
            r = edge + k * np.spacing(edge)
            turns = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
                     for a in (0.3, np.pi / 8)]
            yield f"edge{k:+d}", np.array([np.diag([r, 0.5, -0.25])]
                                          + [np.pad(r * R, (0, 1)) for R in turns]
                                          + [np.triu(np.full((3, 3), 0.7))
                                             - np.diag([0.7 - r] * 3)])
        # non-normal, with ||A||_inf >> 1 and rho < 1
        yield "non-normal", np.array([[[0.5, b], [0.0, -0.9]] for b in (3.0, 20.0, 1e3, 1e8)])
        # nilpotent, from small to large entries
        yield "nilpotent", np.array([np.triu(10.0 ** e * rng.uniform(0.5, 1.0, (8, 8)), 1)
                                     for e in (-1, 1, 3, 6, 12)])
        for d in range(1, 13):
            A = rng.standard_normal((40, d, d))
            A *= rng.uniform(0.2, 1.6, 40)[:, None, None] / np.sqrt(d)
            yield f"random-d{d}", A

    def test_same_bits_as_eigvals_alone(self, monkeypatch):
        real, taken = np.linalg.eigvals, []

        def eigvals(A):
            taken.append(len(A))
            return real(A)

        cleared = total = 0
        for name, A in self.batches():
            want, want_fired = eigvals_stability(A)
            monkeypatch.setattr(np.linalg, "eigvals", eigvals)
            got, fired = enforce_stability_batch(A)
            monkeypatch.setattr(np.linalg, "eigvals", real)
            np.testing.assert_array_equal(fired, want_fired, err_msg=name)
            assert np.array_equal(got, want), name
            cleared += len(A) - sum(taken)
            total += len(A)
            taken.clear()
        # both paths are taken
        assert 0 < cleared < total


class TestLyapunov:
    def test_zero_transition(self):
        W = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(solve_discrete_lyapunov(np.zeros((2, 2)), W), W)

    def test_scalar_geometric(self):
        Q = solve_discrete_lyapunov([[0.5]], [[1.0]])
        assert Q[0, 0] == pytest.approx(4.0 / 3.0)

    def test_diagonal_matches_series(self):
        A = np.diag([0.5, 0.9])
        Q = solve_discrete_lyapunov(A, np.eye(2))
        np.testing.assert_allclose(np.diag(Q), [1 / 0.75, 1 / 0.19], rtol=1e-12)
        np.testing.assert_allclose(Q, lyapunov_series(A, np.eye(2)), atol=1e-8)

    def test_random_stable_residual_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = enforce_stability(rng.uniform(-1, 1, (4, 4)))
            W = rng.standard_normal((4, 4))
            W = W @ W.T
            Q = solve_discrete_lyapunov(A, W)
            resid = np.linalg.norm(A @ Q @ A.T - Q + W, "fro")
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(W, "fro"))
            assert np.min(np.linalg.eigvalsh(Q)) >= -1e-10
            np.testing.assert_allclose(Q, Q.T, atol=1e-12)

    # the doubling must stop on a rule relative to Q, whatever the scale of W
    @pytest.mark.parametrize("w_scale", [1.0, 1e-20])
    def test_large_dimension_branch(self, w_scale):
        rng = np.random.default_rng(3)
        d = 40
        A = enforce_stability(rng.uniform(-1, 1, (d, d)))
        W = w_scale * np.eye(d)
        Q = solve_discrete_lyapunov(A, W)
        resid = np.linalg.norm(A @ Q @ A.T - Q + W, "fro")
        assert resid <= 1e-8 * np.linalg.norm(Q, "fro")

    @pytest.mark.parametrize("d", [*range(1, 13), 33, 40])
    def test_matches_scipy(self, d):
        # the equation's condition grows as 1 / (1 - rho^2), 5e3 at 0.9999,
        # and scipy's bilinear method (d >= 10) adds its own error to that
        rng = np.random.default_rng(d)
        for rho in (0.5, 0.9, 0.99, 0.9999):
            M = rng.standard_normal((d, d))
            A = rho / spectral_radius(M) * M
            W = rng.standard_normal((d, d))
            W = W @ W.T
            Q = solve_discrete_lyapunov(A, W)
            scale = np.linalg.norm(Q, "fro")
            assert np.linalg.norm(A @ Q @ A.T - Q + W, "fro") <= 1e-13 * scale
            ref = scipy.linalg.solve_discrete_lyapunov(A, W)
            assert np.linalg.norm(Q - ref, "fro") <= 1e-9 * scale

    def test_zero_noise_gives_exact_zero(self):
        A = enforce_stability(np.random.default_rng(0).uniform(-1, 1, (5, 5)))
        Q = solve_discrete_lyapunov(A, np.zeros((5, 5)))
        assert not Q.any()

    def test_radius_next_to_one_ends(self):
        # 56 passes: the term falls below eps |Q| once A^(2^k) does
        U, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        start = time.perf_counter()
        Q = solve_discrete_lyapunov((1 - 1e-15) * U, np.eye(3))
        assert time.perf_counter() - start < 1.0
        assert np.all(np.isfinite(Q)) and np.min(np.linalg.eigvalsh(Q)) > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_orthogonal_transition_ends(self, seed):
        # the computed radius of an orthogonal A lands on either side of 1;
        # below it, Q doubles every pass until it overflows
        U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        try:
            Q = solve_discrete_lyapunov(U, np.eye(4))
        except InstabilityError:
            return
        assert np.all(np.isfinite(Q))

    def test_unstable_raises(self):
        with pytest.raises(InstabilityError):
            solve_discrete_lyapunov([[1.0]], [[1.0]])

    # a stable A whose stationary covariance overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [2, 40])
    def test_overflowing_solution_raises(self, d):
        A = 0.5 * np.eye(d)
        A[0, -1] = 1e200
        with pytest.raises(InstabilityError, match="no finite stationary covariance"):
            solve_discrete_lyapunov(A, np.eye(d))


class TestStationaryObsLogDet:
    def test_scalar(self):
        p = scalar_params()
        assert stationary_obs_log_det(p, [[4.0 / 3.0]]) == pytest.approx(np.log(7 / 3))

    def test_zero_observability(self):
        p = LdsParams(A=0.5 * np.eye(2), C=np.zeros((2, 2)),
                      R1=np.eye(2), R2=np.diag([2.0, 3.0]),
                      mu0=np.zeros(2), R0=np.eye(2))
        expected = np.log(2.0) + np.log(3.0)
        assert stationary_obs_log_det(p, np.eye(2)) == pytest.approx(expected)

    def test_two_dim_diagonal(self):
        p = LdsParams(A=np.diag([0.5, 0.9]), C=np.eye(2), R1=np.eye(2),
                      R2=np.eye(2), mu0=np.zeros(2), R0=np.eye(2))
        Q = np.diag([1 / 0.75, 1 / 0.19])
        expected = np.log(1 + 1 / 0.75) + np.log(1 + 1 / 0.19)
        assert stationary_obs_log_det(p, Q) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(2.682, abs=1e-3)

    def test_singular_raises(self):
        p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[0.0]],
                      mu0=[0.0], R0=[[1.0]])
        with pytest.raises(SingularityError):
            stationary_obs_log_det(p, [[0.0]])


class TestSimulate:
    def test_deterministic_collapse(self):
        p = scalar_params(a=0.0, r1=0.0, r2=0.0, r0=0.0)
        out = simulate(p, T=3, burn_in=0, seed=0)
        np.testing.assert_allclose(out.Y[:, 0], [1.0, 0.0, 0.0])

    def test_geometric_decay(self):
        p = scalar_params(r1=0.0, r2=0.0, r0=0.0)
        out = simulate(p, T=3, burn_in=0, seed=0)
        np.testing.assert_allclose(out.Y[:, 0], [1.0, 0.5, 0.25])

    def test_burn_in_shift(self):
        p = scalar_params(r1=0.0, r2=0.0, r0=0.0)
        out = simulate(p, T=2, burn_in=2, seed=0)
        np.testing.assert_allclose(out.Y[:, 0], [0.25, 0.125])

    def test_zero_noise_matches_power_iteration(self):
        rng = np.random.default_rng(11)
        A = enforce_stability(rng.uniform(-1, 1, (3, 3)))
        C = rng.standard_normal((2, 3))
        mu0 = rng.standard_normal(3)
        p = LdsParams(A=A, C=C, R1=np.zeros((3, 3)), R2=np.zeros((2, 2)),
                      mu0=mu0, R0=np.zeros((3, 3)))
        out = simulate(p, T=6, seed=0)
        x = mu0
        for t in range(6):
            np.testing.assert_allclose(out.Y[t], C @ x, atol=1e-12)
            x = A @ x

    def test_bit_reproducible(self):
        p = scalar_params()
        a = simulate(p, T=50, burn_in=5, seed=42)
        b = simulate(p, T=50, burn_in=5, seed=42)
        np.testing.assert_array_equal(a.Y, b.Y)
        c = simulate(p, T=50, burn_in=5, seed=43)
        assert not np.array_equal(a.Y, c.Y)

    def test_unstable_raises(self):
        with pytest.raises(InstabilityError):
            simulate(scalar_params(a=1.5), T=10)

    @pytest.mark.parametrize("kwargs", [dict(T=0), dict(T=5, burn_in=-1), dict(T=60.7),
                                        dict(T=True), dict(T="60"),
                                        dict(T=5, burn_in=3.5)])
    def test_bad_lengths_rejected(self, kwargs):
        # a length that is not an integer is not truncated
        with pytest.raises(DimensionError):
            simulate(scalar_params(), **kwargs)


class TestLdsParams:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            LdsParams(A=np.eye(2), C=[[1.0]], R1=np.eye(2), R2=[[1.0]],
                      mu0=[0.0], R0=np.eye(2))

    def test_asymmetric_covariance(self):
        with pytest.raises(DimensionError):
            LdsParams(A=np.eye(2), C=np.eye(2),
                      R1=[[1.0, 0.5], [0.0, 1.0]], R2=np.eye(2),
                      mu0=np.zeros(2), R0=np.eye(2))

    def test_negative_eigenvalue(self):
        with pytest.raises(DimensionError):
            scalar_params(r2=-1.0)

    def test_huge_finite_covariance_is_accepted_and_filtered(self):
        # sym(M) halves M before the add: 0.5 (M + M^T) overflowed for an entry
        # above about 9e307, and the filter judged S = 1e308 + 1 singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = LdsParams(A=[[0.5]], C=[[1.0]], R1=[[1.0]], R2=[[1e308]], mu0=[0.0],
                          R0=[[1.0]])
            data = SequenceData(Y=np.random.default_rng(0).standard_normal(50))
            fr = kalman_filter(p, data)
            sm = rts_smooth(p, fr)
        assert np.isfinite(fr.loglik) and fr.switch < data.T
        for moments in (fr.filt_means, fr.filt_covs, sm.means, sm.covs, sm.cross_covs):
            assert np.isfinite(moments).all()

    # zero-size fields reached the covariance checks and failed there with a
    # bare ValueError from np.max
    @pytest.mark.parametrize("d, d_out, field", [(0, 1, "d"), (2, 0, "d_out")])
    def test_zero_size_rejected(self, d, d_out, field):
        with pytest.raises(DimensionError, match=f"^{field} must be >= 1"):
            LdsParams(A=np.eye(d), C=np.zeros((d_out, d)), R1=np.eye(d),
                      R2=np.eye(d_out), mu0=np.zeros(d), R0=np.eye(d))

    def test_json_round_trip(self):
        p = scalar_params(a=0.3, c=-0.7, r1=2.0, r2=0.5, mu0=1.5, r0=0.25)
        q = LdsParams.from_json(p.to_json())
        for name in ("A", "C", "R1", "R2", "mu0", "R0"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))

    def test_json_declared_dims_checked(self):
        doc = json.loads(scalar_params().to_json())
        doc["d"] = 3
        with pytest.raises(DimensionError):
            LdsParams.from_dict(doc)


class TestParamFields:
    def test_one_field_list(self):
        assert tuple(f.name for f in dataclasses.fields(LdsParams)) == PARAM_FIELDS
        assert tuple(f.name for f in dataclasses.fields(_engine.ParamsBatch)) == PARAM_FIELDS
        assert _engine.PARAM_FIELDS is PARAM_FIELDS

    def test_stack_and_unstack_round_trip_bitwise(self):
        params = [random_stable_lds(RandomLdsConfig(d=3, d_out=2, seed=s))
                  for s in range(3)]
        pb = _engine.stack_params(params)
        for b, p in enumerate(params):
            q = _params_from_batch(pb, b)
            for f in PARAM_FIELDS:
                a, c = getattr(p, f), getattr(q, f)
                assert (a.dtype, a.shape, a.tobytes()) == (c.dtype, c.shape, c.tobytes())

    def test_replace_validates(self):
        p = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=0))
        q = p.replace(A=0.5 * np.eye(2))
        np.testing.assert_array_equal(q.A, 0.5 * np.eye(2))
        for f in PARAM_FIELDS[1:]:
            np.testing.assert_array_equal(getattr(q, f), getattr(p, f))
        with pytest.raises(DimensionError):
            p.replace(R1=-np.eye(p.d))


class TestSequenceData:
    def test_one_dim_coerced(self):
        s = SequenceData(Y=[1.0, 2.0, 3.0])
        assert s.Y.shape == (3, 1)
        assert s.T == 3 and s.d_out == 1

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionError):
            SequenceData(Y=[[np.inf]])

    @pytest.mark.parametrize("T", [0, 5])
    def test_no_columns_rejected(self, T):
        with pytest.raises(DimensionError, match="at least one column"):
            SequenceData(Y=np.zeros((T, 0)))

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        data = SequenceData(Y=rng.standard_normal((20, 3)))
        path = tmp_path / "seq.csv"
        write_sequence_csv(data, path)
        back = read_sequence_csv(path)
        np.testing.assert_array_equal(back.Y, data.Y)


class TestModelOrderBounds:
    def test_valid(self):
        b = ModelOrderBounds(2, 12)
        assert (b.d_min, b.d_max) == (2, 12)

    def test_invalid(self):
        with pytest.raises(DimensionError):
            ModelOrderBounds(5, 3)
        with pytest.raises(DimensionError):
            ModelOrderBounds(0, 3)

    @pytest.mark.parametrize("d_min, d_max", [(1.5, 3), (1, 3.0), (True, 3), (1, "3")])
    def test_orders_must_be_integers(self, d_min, d_max):
        # a float order reached range() and failed there with a TypeError
        with pytest.raises(DimensionError, match="integer"):
            ModelOrderBounds(d_min, d_max)


# Each public entry point with the bad values it met before the shared
# integer and square-matrix checks covered it: each failed with numpy's
# TypeError, IndexError or ValueError, with math's domain error, or was
# scored (True taken as 1, a fractional sample size as it stands).
_SCALAR = SequenceData(Y=np.linspace(0.0, 1.0, 20))
_D2 = LdsParams(A=0.5 * np.eye(2), C=[[1.0, 0.0]], R1=np.eye(2), R2=[[1.0]],
                mu0=np.zeros(2), R0=np.eye(2))
_EMPTY = np.zeros((0, 0))
_BAD_ARGUMENTS = {
    "delay_embed d=2.5": lambda: delay_embed(_SCALAR, 2.5),
    "delay_embed d=True": lambda: delay_embed(_SCALAR, True),
    "default_init d=2.5": lambda: default_init(_SCALAR, 2.5, 0),
    "multi_restart_fit d=2.0": lambda: multi_restart_fit(_SCALAR, 2.0, EmConfig()),
    "count_params d=2.5": lambda: count_params(2.5, 1),
    "sample_inverse_wishart dim=2.5": lambda: sample_inverse_wishart(2.5, 5, 0),
    **{f"{entry} seed={seed}": call
       for seed in (-1, 1.5, True)
       for entry, call in (
           ("RandomLdsConfig", lambda s=seed: RandomLdsConfig(d=2, d_out=1, seed=s)),
           ("NarmaSpec", lambda s=seed: NarmaSpec(order=10, length=50, seed=s)),
           ("simulate", lambda s=seed: simulate(_D2, T=5, seed=s)),
           ("sample_inverse_wishart", lambda s=seed: sample_inverse_wishart(2, 4, s)))},
    "EmConfig eps=True": lambda: EmConfig(eps=True),
    "EmConfig eps='0.1'": lambda: EmConfig(eps="0.1"),
    "stationary_obs_log_det Q 3x3": lambda: stationary_obs_log_det(_D2, np.eye(3)),
    "stationary_obs_log_det Q 1x1": lambda: stationary_obs_log_det(_D2, np.eye(1)),
    "spectral_radius 0x0": lambda: spectral_radius(_EMPTY),
    "enforce_stability 0x0": lambda: enforce_stability(_EMPTY),
    "solve_discrete_lyapunov 0x0": lambda: solve_discrete_lyapunov(_EMPTY, _EMPTY),
    "bic n=True": lambda: bic(0.0, 3, True),
    "bic n=2.5": lambda: bic(0.0, 3, 2.5),
    "mme n=2.5": lambda: mme(0.0, 3, 2.5),
    "fia n=0": lambda: fia(0.0, 3, 0, 1.0),
    "mdl_order_penalty N=0": lambda: mdl_order_penalty(2, 0),
    "mdl_order_penalty N=True": lambda: mdl_order_penalty(2, True),
    "mdl_description_length N=2.5": lambda: mdl_description_length(
        SimpleNamespace(params=_D2), rts_smooth(_D2, kalman_filter(_D2, _SCALAR)).means,
        _SCALAR, N=2.5),
    # means of one step broadcast over the whole sequence and were scored
    "complete_data_loglik means wrong T": lambda: complete_data_loglik(
        _D2, np.zeros((1, 2)), _SCALAR),
    "complete_data_loglik means wrong d": lambda: complete_data_loglik(
        _D2, np.zeros((20, 1)), _SCALAR),
    "mdl_description_length means wrong T": lambda: mdl_description_length(
        SimpleNamespace(params=_D2), np.zeros((1, 2)), _SCALAR, N=20),
}


@pytest.mark.parametrize("call", _BAD_ARGUMENTS.values(), ids=_BAD_ARGUMENTS.keys())
def test_bad_argument_raises_dimension_error(call):
    with pytest.raises(DimensionError):
        call()


def test_generator_and_none_seeds_still_accepted():
    assert simulate(_D2, T=5, seed=None).T == 5
    assert sample_inverse_wishart(2, 4, np.random.default_rng(0)).shape == (2, 2)
    assert RandomLdsConfig(d=2, d_out=1, seed=np.int64(3)).seed == 3
