import csv
import json
import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from ldsmdl import _engine, selection
from ldsmdl import (DimensionError, EmConfig, ModelOrderBounds,
                    RandomLdsConfig, SequenceData, annihilation_search,
                    count_params, delay_embed, em, grid_search, kalman_filter,
                    mdl_description_length, random_stable_lds, rts_smooth, simulate)
from ldsmdl.criteria import mdl_order_penalty
from ldsmdl.selection import BUCKET_CELL_RATIO, BUCKET_DOUBLES, _buckets

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
                                               (np.ones((50, 2)), True),
                                               (np.zeros((50, 0)), False)])
    def test_unfittable_data_rejected_before_the_orders(self, search, Y, observable):
        with pytest.raises(DimensionError):
            search(SequenceData(Y=Y), ModelOrderBounds(1, 3), CFG,
                   observable_mode=observable)

    def test_one_filter_pass_per_scored_order(self, monkeypatch):
        # the Fisher reads the pass that scored the order; with two restarts
        # every EM pass has B >= 2, so the B=1 passes are the scoring ones
        sizes = []
        real = _engine.filter_batch

        def counting(pb, *args, **kwargs):
            sizes.append(pb.B)
            return real(pb, *args, **kwargs)

        monkeypatch.setattr(_engine, "filter_batch", counting)
        # on one CPU every bucket runs in this process, where the calls are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        trace = grid_search(d2_data(), ModelOrderBounds(1, 2),
                            EmConfig(eps=1e-3, max_iters=5, n_restarts=2, seed=0))
        assert [r.order for r in trace.per_order if r.fit is not None] == [1, 2]
        assert all(r.criterion("fia") is not None for r in trace.per_order)
        assert sizes.count(1) == 2

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


def d2_two_output_data(seed=0):
    gen = random_stable_lds(RandomLdsConfig(d=2, d_out=2, seed=seed))
    return simulate(gen, T=80, burn_in=10, seed=seed)


def exact(trace) -> tuple:
    """Everything a trace reports, with every float as ``float.hex``."""
    rows = [(r.order, r.error, r.fit is None or float.hex(r.fit.loglik),
             [(cv.name, float.hex(cv.value)) for cv in r.criteria])
            for r in trace.per_order]
    return rows, trace.chosen_order, trace.stopped_early


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the number of CPUs the bucket runner sees, as ``usable_cpus(n)``."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return pin


def wait_for(path, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestBucketPool:
    """The buckets shared among forked workers (``selection._run_jobs``)."""

    @pytest.mark.parametrize("search, data, bounds, kwargs", [
        pytest.param(grid_search, d2_data, (1, 4), {}, id="grid-d_out-1"),
        pytest.param(grid_search, d2_two_output_data, (1, 4), {}, id="grid-d_out-2"),
        pytest.param(grid_search, d2_data, (1, 4), {"observable_mode": True},
                     id="grid-observable"),
        pytest.param(annihilation_search, lambda: d2_data(0), (1, 8), {}, id="walk-stops"),
        pytest.param(annihilation_search, lambda: d2_data(1), (1, 4), {}, id="walk-runs-out"),
    ])
    def test_pool_equals_the_serial_path_bit_for_bit(self, usable_cpus, search, data,
                                                     bounds, kwargs):
        data = data()
        usable_cpus(1)
        serial = search(data, ModelOrderBounds(*bounds), CFG, **kwargs)
        usable_cpus(2)
        pooled = search(data, ModelOrderBounds(*bounds), CFG, **kwargs)
        assert multiprocessing.active_children() == []
        assert (serial.workers, pooled.workers) == (1, 2)
        assert exact(pooled) == exact(serial)
        assert pooled.to_json() == serial.to_json()
        if search is annihilation_search:
            assert serial.stopped_early == (bounds == (1, 8))

    def test_more_workers_than_cores_fit_each_bucket_once(self, usable_cpus, monkeypatch,
                                                          tmp_path):
        # eight workers on however many cores there are share one counter: a
        # lost update would fit a bucket twice or never
        log = tmp_path / "fitted"
        real = selection._fit_bucket

        def logged(data, orders, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{orders}\n")
            return real(data, orders, *args, **kwargs)

        monkeypatch.setattr(selection, "_fit_bucket", logged)
        usable_cpus(1)
        serial = grid_search(d2_data(), ModelOrderBounds(1, 8), CFG, observable_mode=True)
        log.unlink()
        usable_cpus(8)
        pooled = grid_search(d2_data(), ModelOrderBounds(1, 8), CFG, observable_mode=True)
        assert pooled.workers == 8
        assert sorted(log.read_text().split("\n")[:-1]) == sorted(f"[{d}]" for d in range(1, 9))
        assert exact(pooled) == exact(serial)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_instead_of_hanging(self, usable_cpus, monkeypatch, tmp_path):
        usable_cpus(2)
        parent, marker = os.getpid(), tmp_path / "child-started"
        real = selection._fit_bucket

        def dies_in_the_child(*args, **kwargs):
            if os.getpid() != parent:
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            wait_for(marker)
            return real(*args, **kwargs)

        def hung(signum, frame):
            raise TimeoutError("the search hung on a dead worker")

        monkeypatch.setattr(selection, "_fit_bucket", dies_in_the_child)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            with pytest.raises(RuntimeError, match="exit code -9"):
                grid_search(d2_data(), ModelOrderBounds(1, 2), CFG)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert marker.exists()
        assert multiprocessing.active_children() == []

    def test_error_of_a_child_bucket_is_raised_here(self, usable_cpus, monkeypatch, tmp_path):
        usable_cpus(2)
        parent, marker = os.getpid(), tmp_path / "child-started"
        real = selection._fit_bucket

        def fails_in_the_child(*args, **kwargs):
            if os.getpid() != parent:
                marker.touch()
                raise MemoryError("Unable to allocate 6.94 EiB")
            wait_for(marker)
            return real(*args, **kwargs)

        monkeypatch.setattr(selection, "_fit_bucket", fails_in_the_child)
        with pytest.raises(MemoryError, match="6.94 EiB"):
            annihilation_search(d2_data(1), ModelOrderBounds(1, 4), CFG)
        assert multiprocessing.active_children() == []


class TestScoringPath:
    """An order is scored from the compact smoother's means over its one B=1
    filter pass, and the walk scores each order when it reaches it."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_stopped_walk_scores_only_the_orders_it_visits(self, usable_cpus, monkeypatch,
                                                           cpus):
        scored = []
        real = selection.mdl_description_length

        def counting(fit, *args, **kwargs):
            scored.append(fit.params.d)
            return real(fit, *args, **kwargs)

        monkeypatch.setattr(selection, "mdl_description_length", counting)
        usable_cpus(cpus)
        data, bounds = d2_data(0), ModelOrderBounds(1, 8)
        trace = annihilation_search(data, bounds, CFG)
        visited = [r.order for r in trace.per_order]
        stop_bucket = next(b for b in _buckets(bounds, CFG.n_restarts, data.T, False)
                           if visited[-1] in b)
        # the walk stops above the lowest order of the bucket it stops in
        assert trace.stopped_early and visited[-1] > stop_bucket[0]
        assert scored == visited

    @pytest.mark.parametrize("search", [grid_search, annihilation_search])
    @pytest.mark.parametrize("observable", [False, True])
    def test_no_search_expands_the_posterior(self, monkeypatch, search, observable):
        calls = []

        def spy(name, real):
            def called(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return called

        for module, name in ((_engine, "smoothed_covariances"), (selection, "rts_smooth"),
                             (selection, "multi_restart_fit"), (em, "multi_restart_fit")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        # on one CPU every bucket runs in this process, where the calls are seen
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        trace = search(d2_data(), ModelOrderBounds(1, 4), CFG, observable_mode=observable)
        assert all(r.fit is not None for r in trace.per_order)
        assert calls == []

    @pytest.mark.parametrize("search, bounds, observable", [
        pytest.param(grid_search, (2, 6), False, id="grid-multi-order-buckets"),
        pytest.param(grid_search, (1, 4), True, id="grid-observable"),
        pytest.param(annihilation_search, (1, 8), False, id="walk"),
        pytest.param(annihilation_search, (1, 4), True, id="walk-observable"),
    ])
    def test_dl_is_that_of_the_public_posterior_means(self, search, bounds, observable):
        data = d2_data(0)
        trace = search(data, ModelOrderBounds(*bounds), CFG, observable_mode=observable)
        if not observable:
            assert any(len(b) > 1 for b in _buckets(ModelOrderBounds(*bounds),
                                                    CFG.n_restarts, data.T, False))
        for r in trace.per_order:
            data_d = delay_embed(data, r.order) if observable else data
            means = rts_smooth(r.fit.params, kalman_filter(r.fit.params, data_d)).means
            want = mdl_description_length(r.fit, means, data_d, N=data_d.T)
            got = r.criterion("mdl")
            assert float.hex(got.value) == float.hex(want.value)
            assert got.components == want.components


def d4_protocol_data(seed=0):
    gen = random_stable_lds(RandomLdsConfig(d=4, d_out=1, seed=seed))
    return simulate(gen, T=100, burn_in=20, seed=seed)


#: the d=4 protocol's restarts and length with a short EM budget: at 10
#: restarts and T = 100 the memory cap cuts the cell 7-10 into 7-8 | 9 | 10
SHORT_PROTOCOL = EmConfig(eps=1e-2, max_iters=4, n_restarts=10, seed=0)


class TestBuckets:
    def test_d4_protocol_partition(self):
        assert _buckets(ModelOrderBounds(2, 12), 10, 100, False) == [
            [2, 3], [4, 5, 6], [7, 8], [9], [10], [11], [12]]

    def test_cells_grow_by_half(self):
        # with room for every cell, the buckets are the cells themselves
        assert _buckets(ModelOrderBounds(1, 25), 1, 2, False) == [
            [1], [2, 3], list(range(4, 7)), list(range(7, 11)), list(range(11, 17)),
            list(range(17, 26))]

    def test_observable_mode_fits_one_order_per_bucket(self):
        assert _buckets(ModelOrderBounds(2, 10), 2, 1000, True) == [[d] for d in range(2, 11)]

    @pytest.mark.parametrize("n_restarts, T", [(10, 100), (3, 80), (2, 1000), (1, 2)])
    def test_bucket_of_an_order_does_not_depend_on_the_range(self, n_restarts, T):
        full = _buckets(ModelOrderBounds(1, 30), n_restarts, T, False)
        for lo in range(1, 31):
            for hi in range(lo, 31):
                cut = [[d for d in b if lo <= d <= hi] for b in full]
                assert _buckets(ModelOrderBounds(lo, hi), n_restarts, T, False) == [
                    b for b in cut if b]

    def test_range_starting_above_the_cap_keeps_the_partition(self):
        # at one restart and T = 2 the cap cuts buckets from order 182 on
        full = _buckets(ModelOrderBounds(1, 400), 1, 2, False)
        for lo in range(1, 401, 3):
            assert _buckets(ModelOrderBounds(lo, 400), 1, 2, False) == [
                b for b in ([d for d in b if d >= lo] for b in full) if b]

    def test_huge_order_is_bucketed_without_walking_up_to_it(self):
        assert _buckets(ModelOrderBounds(10 ** 9, 10 ** 9), 10, 100, False) == [[10 ** 9]]
        assert _buckets(ModelOrderBounds(10 ** 9, 10 ** 9 + 2), 1, 2, True) == [
            [10 ** 9], [10 ** 9 + 1], [10 ** 9 + 2]]

    @pytest.mark.parametrize("n_restarts, T", [(10, 100), (3, 80), (2, 1000)])
    def test_buckets_respect_the_cap_and_the_cells(self, n_restarts, T):
        for b in _buckets(ModelOrderBounds(1, 30), n_restarts, T, False):
            assert b == list(range(b[0], b[-1] + 1))
            assert b[-1] <= BUCKET_CELL_RATIO * b[0]
            if len(b) > 1:
                assert len(b) * n_restarts * T * b[-1] ** 2 <= BUCKET_DOUBLES

    def test_grid_range_reproduces_a_wider_grid(self):
        data = d4_protocol_data()
        narrow = grid_search(data, ModelOrderBounds(7, 8), SHORT_PROTOCOL)
        wide = grid_search(data, ModelOrderBounds(7, 10), SHORT_PROTOCOL)
        assert [(r.order, r.dl, r.fit.loglik) for r in narrow.per_order] == [
            (r.order, r.dl, r.fit.loglik) for r in wide.per_order[:2]]

    @pytest.mark.parametrize("d_max", [8, 10])
    def test_walk_range_reproduces_the_top_of_a_full_walk(self, d_max):
        data = d4_protocol_data()
        top = annihilation_search(data, ModelOrderBounds(d_max - 1, d_max), SHORT_PROTOCOL)
        full = annihilation_search(data, ModelOrderBounds(2, d_max), SHORT_PROTOCOL)
        assert [(r.order, r.dl) for r in top.per_order] == [
            (r.order, r.dl) for r in full.per_order[:2]]

    def test_order_whose_restarts_all_fail_is_an_error_row(self, monkeypatch):
        real = em.default_init

        def degenerate_at_3(data, d, seed, fix_observation=False):
            init = real(data, d, seed, fix_observation)
            # S = C P C^T + R2 = 0 at the first step: every restart of order 3 fails
            return init.replace(C=0 * init.C, R2=0 * init.R2) if d == 3 else init

        monkeypatch.setattr(em, "default_init", degenerate_at_3)
        data = d2_data()
        assert _buckets(ModelOrderBounds(2, 3), CFG.n_restarts, data.T, False) == [[2, 3]]
        trace = grid_search(data, ModelOrderBounds(2, 3), CFG)
        rows = {r.order: r for r in trace.per_order}
        assert rows[3].fit is None and rows[3].error == "every EM restart degenerated"
        alone = grid_search(data, ModelOrderBounds(2, 2), CFG).per_order[0]
        assert rows[2].fit.iterations == alone.fit.iterations
        assert rows[2].fit.loglik == pytest.approx(alone.fit.loglik, rel=1e-10)
        assert trace.chosen_order == 2


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
