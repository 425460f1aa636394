"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions of the
package by name, where their callers look them up.  Renaming or moving one
of those names must fail here rather than in a traced benchmark run."""
import os
import time

import numpy as np
import pytest

import ldsmdl
import ldsmdl.cli
from ldsmdl import (EmConfig, ModelOrderBounds, RandomLdsConfig,
                    random_stable_lds, simulate, write_sequence_csv)
from perfbench.tracing import Tracer, install_all, layer_metrics

#: the modules whose attributes ``install_all`` replaces
TRACED_MODULES = ("_engine", "selection", "criteria", "cli")


@pytest.fixture
def tracer():
    saved = {name: dict(vars(getattr(ldsmdl, name))) for name in TRACED_MODULES}
    tracer = Tracer(time.perf_counter)
    try:
        install_all(tracer, ldsmdl)
        yield tracer
    finally:
        for name, attrs in saved.items():
            vars(getattr(ldsmdl, name)).update(attrs)


def span_names(tracer) -> set:
    return {span[0] for span in tracer.spans}


def test_observable_grid_reaches_every_fitting_layer(tracer, monkeypatch):
    # on one CPU every bucket runs in this process, where the tracer sees it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    data = simulate(random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=0)), T=60, seed=0)
    ldsmdl.selection.grid_search(data, ModelOrderBounds(1, 2),
                                 EmConfig(eps=1e-2, max_iters=5, n_restarts=2),
                                 observable_mode=True)
    assert span_names(tracer) >= {
        "selection.grid_search", "datagen.delay_embed",
        "engine.em_loop", "engine.filter_batch", "engine.smooth_batch",
        "engine.m_step_batch", "inference.kalman_filter",
        "criteria.mdl_description_length", "model.solve_discrete_lyapunov",
        "criteria.empirical_fisher_log_det"}
    metrics = layer_metrics(tracer.spans)
    perturbed = metrics["criteria.empirical_fisher_log_det.perturbed_elements"]["value"]
    assert perturbed == 0      # the Fisher reads the pass that scored the order
    assert metrics["engine.em_loop.restarts"]["value"] == 4


def test_cli_annihilation_reaches_its_layers(tracer, tmp_path, capsys):
    data = simulate(random_stable_lds(RandomLdsConfig(d=2, d_out=1, seed=1)), T=60, seed=1)
    seq = tmp_path / "seq.csv"
    write_sequence_csv(data, seq)
    code = ldsmdl.cli.main(["select", str(seq), "--mode", "annihilate",
                            "--dmin", "1", "--dmax", "2", "--restarts", "2",
                            "--max-iters", "5", "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert span_names(tracer) >= {"cli.main", "model.read_sequence_csv",
                                  "selection.annihilation_search", "engine.em_loop"}
    assert np.isfinite(layer_metrics(tracer.spans)["cli.main.self_s"]["value"])

