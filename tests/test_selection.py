import csv
import json
import math

import numpy as np
import pytest

from ldsmdl import (DimensionError, EmConfig, ModelOrderBounds,
                    RandomLdsConfig, SequenceData, annihilation_search,
                    count_params, grid_search, kalman_filter,
                    random_stable_lds, simulate)
from ldsmdl.criteria import mdl_order_penalty

CFG = EmConfig(eps=1e-3, max_iters=40, n_restarts=3, seed=0)


def d2_data(seed=0):
    gen = random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=seed))
    return simulate(gen, T=80, burn_in=10, seed=seed)


class TestGridSearch:
    def test_degenerate_bounds(self):
        trace = grid_search(d2_data(), ModelOrderBounds(2, 2), CFG)
        assert trace.chosen_order == 2
        assert len(trace.per_order) == 1
        assert not trace.stopped_early

    def test_unknown_criterion_rejected(self):
        with pytest.raises(DimensionError):
            grid_search(d2_data(), ModelOrderBounds(2, 3), CFG, criterion="cv")

    def test_chosen_order_minimizes_requested_criterion(self):
        trace = grid_search(d2_data(), ModelOrderBounds(1, 4), CFG, criterion="bic")
        vals = {r.order: r.criterion("bic").value for r in trace.per_order}
        assert trace.chosen_order == min(vals, key=vals.get)

    def test_sweep_reconstructs_from_logliks(self):
        data = d2_data(3)
        trace = grid_search(data, ModelOrderBounds(1, 4), CFG)
        n = data.T
        for r in trace.per_order:
            nt = count_params(r.order, data.d_out).n_theta
            assert r.criterion("aic").value == pytest.approx(
                -2 * r.fit.loglik + 2 * nt, abs=1e-10)
            assert r.criterion("bic").value == pytest.approx(
                -2 * r.fit.loglik + nt * math.log(n), abs=1e-10)
            assert r.criterion("mme").value == pytest.approx(
                -r.fit.loglik + 0.5 * nt * math.log(n / 12) + 0.5 * nt, abs=1e-10)
            assert r.criterion("mdl").components["order_penalty"] == pytest.approx(
                mdl_order_penalty(r.order, n), abs=1e-12)
            assert r.dl == r.criterion("mdl").value

    def test_fit_loglik_is_the_loglik_of_its_params(self):
        # the d=4 protocol's EM budget, which most fits use up
        gen = random_stable_lds(RandomLdsConfig(d=4, d_out=1, seed=0))
        data = simulate(gen, T=100, burn_in=20, seed=0)
        trace = grid_search(data, ModelOrderBounds(2, 6),
                            EmConfig(eps=1e-2, max_iters=35, n_restarts=10, seed=0))
        assert any(not r.fit.converged for r in trace.per_order)
        for r in trace.per_order:
            assert kalman_filter(r.fit.params, data).loglik == pytest.approx(
                r.fit.loglik, rel=1e-9)

    @pytest.mark.parametrize("search", [grid_search, annihilation_search])
    @pytest.mark.parametrize("Y, observable", [(np.zeros((0, 1)), False),
                                               (np.ones((1, 1)), False),
                                               (np.ones((50, 2)), True)])
    def test_unfittable_data_rejected_before_the_orders(self, search, Y, observable):
        with pytest.raises(DimensionError):
            search(SequenceData(Y=Y), ModelOrderBounds(1, 3), CFG,
                   observable_mode=observable)

    def test_seeds_do_not_alias_modulo_2_31(self):
        dls = [[r.dl for r in grid_search(d2_data(), ModelOrderBounds(1, 2),
                                          EmConfig(eps=1e-2, max_iters=5, n_restarts=2,
                                                   seed=seed)).per_order]
               for seed in (0, 2 ** 31)]
        assert dls[0] != dls[1]

    def test_large_units_lose_no_order(self):
        # in units 1e4 times larger the fitted covariances are near 1e8, where
        # they are symmetric only to roundoff at that scale
        gen = random_stable_lds(RandomLdsConfig(d=4, d_out=1, seed=1))
        data = simulate(gen, T=100, burn_in=20, seed=1)
        trace = grid_search(SequenceData(Y=1e4 * data.Y), ModelOrderBounds(2, 8),
                            EmConfig(eps=1e-2, max_iters=30, n_restarts=4, seed=0))
        assert [r.error for r in trace.per_order] == [None] * 7

    def test_strong_scalar_signal_low_order(self):
        gen = random_stable_lds(RandomLdsConfig(d=1, d_out=1, seed=3))
        gen = gen.replace(A=[[0.9]])
        data = simulate(gen, T=150, burn_in=10, seed=3)
        trace = grid_search(data, ModelOrderBounds(1, 4),
                            EmConfig(eps=1e-2, max_iters=20, n_restarts=5, seed=0))
        assert trace.chosen_order in (1, 2)

    def test_trace_serialization_deterministic(self):
        a = grid_search(d2_data(1), ModelOrderBounds(1, 3), CFG)
        b = grid_search(d2_data(1), ModelOrderBounds(1, 3), CFG)
        assert a.to_json() == b.to_json()


class TestAnnihilationSearch:
    def test_degenerate_bounds(self):
        trace = annihilation_search(d2_data(), ModelOrderBounds(2, 2), CFG)
        assert trace.chosen_order == 2

    def test_orders_descend_from_dmax(self):
        trace = annihilation_search(d2_data(2), ModelOrderBounds(1, 5), CFG)
        orders = [r.order for r in trace.per_order]
        assert orders == sorted(orders, reverse=True)
        assert orders[0] == 5

    def test_chosen_minimizes_dl_over_evaluated(self):
        trace = annihilation_search(d2_data(4), ModelOrderBounds(1, 6), CFG)
        dls = {r.order: r.dl for r in trace.per_order if r.fit is not None}
        assert trace.chosen_order == min(dls, key=dls.get)

    def test_early_stop_flag_and_rule(self):
        trace = annihilation_search(d2_data(5), ModelOrderBounds(1, 8), CFG)
        if trace.stopped_early:
            scored = [r for r in trace.per_order if r.fit is not None]
            assert scored[-1].dl > scored[-2].dl

    def test_dl_equals_grid_on_every_visited_order(self):
        data = d2_data(6)
        bounds = ModelOrderBounds(1, 5)
        walk = annihilation_search(data, bounds, CFG)
        grid_dl = {r.order: r.dl for r in grid_search(data, bounds, CFG).per_order}
        for r in walk.per_order:
            assert r.dl == grid_dl[r.order]

    def test_error_rows_have_infinite_dl_and_null_json(self):
        # orders 4 and 3 cannot be fitted to three rows
        data = SequenceData(Y=[[1.0], [2.0], [3.0]])
        trace = annihilation_search(data, ModelOrderBounds(1, 4), CFG,
                                    observable_mode=True)
        rows = {r.order: r for r in trace.per_order}
        doc = {r["order"]: r for r in json.loads(trace.to_json())["per_order"]}
        for order in (4, 3):
            assert rows[order].error and rows[order].dl == math.inf
            assert doc[order]["dl"] is None
        assert doc[trace.chosen_order]["dl"] == rows[trace.chosen_order].dl


class TestSweepCsv:
    def test_columns_and_normalization(self, tmp_path):
        from ldsmdl import write_sweep_csv
        trace = grid_search(d2_data(7), ModelOrderBounds(1, 4), CFG)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:2] == ["order", "loglik"]
        for name in ("aic", "bic", "fia", "mme", "mdl"):
            assert name in header and f"{name}_norm" in header
        body = np.array(rows[1:], dtype=float)
        for name in ("aic", "bic", "fia", "mme", "mdl"):
            norm = body[:, header.index(f"{name}_norm")]
            assert norm.min() == 0.0 and norm.max() == 1.0
            raw = body[:, header.index(name)]
            np.testing.assert_allclose(
                norm, (raw - raw.min()) / (raw.max() - raw.min()), atol=1e-12)
        # loglik column reconstructs the AIC column exactly
        ll = body[:, 1]
        for i, order in enumerate(body[:, 0].astype(int)):
            nt = count_params(order, 1).n_theta
            assert body[i, header.index("aic")] == pytest.approx(
                -2 * ll[i] + 2 * nt, abs=1e-9)
