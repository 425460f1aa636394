import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ldsmdl import _engine
from ldsmdl import (DimensionError, InstabilityError, LdsParams,
                    RandomLdsConfig, SequenceData, SingularityError,
                    enforce_stability, random_stable_lds, read_sequence_csv,
                    simulate, solve_discrete_lyapunov, spectral_radius,
                    stationary_obs_log_det, write_sequence_csv)
from ldsmdl.em import _params_from_batch
from ldsmdl.model import PARAM_FIELDS, ModelOrderBounds

from .oracles import lyapunov_series


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

    # the doubling branch (d > 32) must stop on a rule relative to Q,
    # whatever the scale of W
    @pytest.mark.parametrize("w_scale", [1.0, 1e-20])
    def test_large_dimension_branch(self, w_scale):
        rng = np.random.default_rng(3)
        d = 40
        A = enforce_stability(rng.uniform(-1, 1, (d, d)))
        W = w_scale * np.eye(d)
        Q = solve_discrete_lyapunov(A, W)
        resid = np.linalg.norm(A @ Q @ A.T - Q + W, "fro")
        assert resid <= 1e-8 * np.linalg.norm(Q, "fro")

    def test_unstable_raises(self):
        with pytest.raises(InstabilityError):
            solve_discrete_lyapunov([[1.0]], [[1.0]])

    # a stable A whose stationary covariance overflows, in both branches
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
