import numpy as np
import pytest
from scipy import stats

from ldsmdl import (DegenerateDataError, DimensionError, DivergenceError,
                    InsufficientDataError, NarmaSpec, RandomLdsConfig,
                    SequenceData, delay_embed, narma_generate,
                    preprocess_center_trim, random_stable_lds,
                    sample_inverse_wishart, spectral_radius)
from ldsmdl.datagen import narma_trajectory


class TestInverseWishart:
    def test_positive_definite(self):
        for seed in range(50):
            S = sample_inverse_wishart(3, 6, seed)
            assert np.min(np.linalg.eigvalsh(S)) > 0
            np.testing.assert_allclose(S, S.T)

    def test_deterministic(self):
        np.testing.assert_array_equal(sample_inverse_wishart(2, 5, 3),
                                      sample_inverse_wishart(2, 5, 3))

    def test_dof_domain(self):
        with pytest.raises(DimensionError):
            sample_inverse_wishart(3, 2, 0)

    def test_monte_carlo_mean(self):
        # E[IW(I, dof)] = I / (dof - dim - 1) = I/2 for dim=2, dof=5
        rng = np.random.default_rng(0)
        acc = np.zeros((2, 2))
        n = 100_000
        for _ in range(n):
            acc += sample_inverse_wishart(2, 5, rng)
        np.testing.assert_allclose(acc / n, np.eye(2) / 2, atol=0.02)

    def test_scalar_matches_inverse_gamma(self):
        # dim=1, dof=3: 1/chi2(3) = inv-gamma(3/2, scale 1/2)
        rng = np.random.default_rng(1)
        draws = np.array([sample_inverse_wishart(1, 3, rng)[0, 0]
                          for _ in range(100_000)])
        ks = stats.kstest(draws, stats.invgamma(a=1.5, scale=0.5).cdf)
        assert ks.statistic < 0.02


class TestRandomStableLds:
    def test_always_stable(self):
        for seed in range(1000):
            p = random_stable_lds(RandomLdsConfig(d=3, d_out=1, seed=seed))
            assert spectral_radius(p.A) < 1.0

    def test_raw_entries_in_range(self):
        for seed in range(50):
            cfg = RandomLdsConfig(d=3, d_out=2, seed=seed)
            p = random_stable_lds(cfg)
            # C is never rescaled; A only ever shrinks
            assert np.all(np.abs(p.C) <= 1.0)
            assert np.all(np.abs(p.A) <= 1.0)
            rng = np.random.default_rng(seed)
            raw_A = rng.uniform(-1, 1, (3, 3))
            assert np.all(np.abs(raw_A) <= 1.0)

    def test_deterministic(self):
        a = random_stable_lds(RandomLdsConfig(d=2, d_out=2, seed=9))
        b = random_stable_lds(RandomLdsConfig(d=2, d_out=2, seed=9))
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.R1, b.R1)

    def test_valid_params(self):
        p = random_stable_lds(RandomLdsConfig(d=4, d_out=2, seed=5))
        assert p.d == 4 and p.d_out == 2
        np.testing.assert_array_equal(p.mu0, np.zeros(4))

    def test_config_validation(self):
        with pytest.raises(DimensionError):
            RandomLdsConfig(d=0, d_out=1)
        with pytest.raises(DimensionError):
            RandomLdsConfig(d=2, d_out=1, entry_range=(1.0, -1.0))
        with pytest.raises(DimensionError):
            RandomLdsConfig(d=3, d_out=1, iw_dof=3)
        # a dimension that is not an integer is not truncated
        for bad in (dict(d=2.9, d_out=1), dict(d=2, d_out=1.0), dict(d=True, d_out=1),
                    dict(d="2", d_out=1)):
            with pytest.raises(DimensionError):
                RandomLdsConfig(**bad)


class TestNarma:
    def test_order10_zero_input_hand_values(self):
        x = narma_trajectory(10, np.zeros(3))
        assert x[0] == pytest.approx(0.1)
        assert x[1] == pytest.approx(0.3 * 0.1 + 0.05 * 0.1 * 0.1 + 0.1)
        assert x[1] == pytest.approx(0.1305)

    def test_order20_zero_input_hand_values(self):
        x = narma_trajectory(20, np.zeros(3))
        assert x[0] == pytest.approx(np.tanh(0.01) + 0.2)
        assert x[0] == pytest.approx(0.21000, abs=1e-5)
        assert x[1] == pytest.approx(np.tanh(0.3 * x[0] + 0.05 * x[0] ** 2 + 0.01) + 0.2)
        assert x[1] == pytest.approx(0.27506, abs=1e-4)

    def test_order30_zero_input_hand_values(self):
        x = narma_trajectory(30, np.zeros(3))
        assert x[0] == pytest.approx(0.201)
        assert x[1] == pytest.approx(0.2 * 0.201 + 0.004 * 0.201 ** 2 + 0.201)
        assert x[1] == pytest.approx(0.24136, abs=1e-4)

    def test_warm_up_discarded(self):
        spec = NarmaSpec(order=10, length=50, seed=3)
        data = narma_generate(spec)
        assert data.T == 50
        u = np.random.default_rng(3).uniform(0, 0.5, 60)
        full = narma_trajectory(10, u)
        np.testing.assert_array_equal(data.Y[:, 0], full[10:])

    def test_prefix_property(self):
        a = narma_generate(NarmaSpec(order=10, length=100, seed=7))
        b = narma_generate(NarmaSpec(order=10, length=60, seed=7))
        np.testing.assert_array_equal(a.Y[:60], b.Y)

    def test_deterministic(self):
        a = narma_generate(NarmaSpec(order=20, length=40, seed=2))
        b = narma_generate(NarmaSpec(order=20, length=40, seed=2))
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            narma_trajectory(10, np.full(200, 40.0))

    def test_spec_validation(self):
        with pytest.raises(DimensionError):
            NarmaSpec(order=15, length=100)
        with pytest.raises(DimensionError):
            NarmaSpec(order=10, length=10)
        for bad in (dict(order=10.0, length=100), dict(order=10, length=60.7),
                    dict(order=10, length=True), dict(order=10, length="60")):
            with pytest.raises(DimensionError):
                NarmaSpec(**bad)


class TestPreprocess:
    def test_hand_computed(self):
        data = SequenceData(Y=[0.1, 0.9, -0.2])
        out = preprocess_center_trim(data)
        np.testing.assert_allclose(out.Y[:, 0], [-0.1667, -0.4667], atol=1e-4)

    def test_identity_on_clean_data(self):
        y = np.array([0.2, -0.2, 0.1, -0.1])
        out = preprocess_center_trim(SequenceData(Y=y))
        np.testing.assert_allclose(out.Y[:, 0], y, atol=1e-12)

    def test_constant_sequence_kept_as_zeros(self):
        out = preprocess_center_trim(SequenceData(Y=np.full(5, 3.0)))
        np.testing.assert_array_equal(out.Y[:, 0], np.zeros(5))

    def test_everything_trimmed_raises(self):
        with pytest.raises(DegenerateDataError):
            preprocess_center_trim(SequenceData(Y=[-10.0, 10.0]))

    def test_scalar_only(self):
        with pytest.raises(DimensionError):
            preprocess_center_trim(SequenceData(Y=np.zeros((4, 2))))


class TestDelayEmbed:
    def test_window_construction(self):
        out = delay_embed(SequenceData(Y=[1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(out.Y, [[2, 1], [3, 2], [4, 3]])

    def test_identity_for_d1(self):
        y = np.array([5.0, 6.0, 7.0])
        out = delay_embed(SequenceData(Y=y), 1)
        np.testing.assert_array_equal(out.Y[:, 0], y)

    def test_row_count(self):
        out = delay_embed(SequenceData(Y=np.arange(100.0)), 10)
        assert out.Y.shape == (91, 10)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            delay_embed(SequenceData(Y=[1.0, 2.0]), 2)
