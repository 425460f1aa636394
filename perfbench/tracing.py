"""In-memory spans around the public functions of each ldsmdl layer.

Wrappers are installed where each caller looks the name up: ``selection``
and ``cli`` import functions by name, ``em`` calls ``_engine.em_loop``
through the module, and ``em_loop``, ``inference`` and ``criteria`` reach
``filter_batch``/``smooth_batch``/``m_step_batch`` through ``_engine``'s
globals.  A span records its name, start, end, parent and, for some layers,
work counts.  Self time is a span's duration minus that of its children.
"""
from __future__ import annotations

import functools
from collections import defaultdict


class Tracer:
    def __init__(self, clock):
        #: [name, start, end, parent index or -1, counts dict or None]
        self.spans = []
        self._stack = []
        self._clock = clock
        self.enabled = True

    def install(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span named
        ``name``; ``counts(args, kwargs, result)`` adds work counts."""
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer._clock()
                tracer._stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        setattr(module, attr, traced)


def _filter_counts(args, kwargs, result):
    pb, Y = args[0], args[1]
    return {"B": pb.B, "element_steps": pb.B * Y.shape[0]}


def _smooth_counts(args, kwargs, result):
    B, T = result["means"].shape[:2]
    return {"element_steps": B * T}


def _em_counts(args, kwargs, result):
    return {"restarts": len(result["converged"]),
            "converged_restarts": int(result["converged"].sum()),
            "failed_restarts": int(result["failed"].sum()),
            "active_element_iterations": int(result["iterations"].sum())}


def install_all(tracer: Tracer, ldsmdl) -> None:
    """Wrap every traced layer of an imported ``ldsmdl`` package."""
    engine, selection, criteria, cli = (ldsmdl._engine, ldsmdl.selection,
                                        ldsmdl.criteria, ldsmdl.cli)
    tracer.install(engine, "filter_batch", "engine.filter_batch", _filter_counts)
    tracer.install(engine, "smooth_batch", "engine.smooth_batch", _smooth_counts)
    tracer.install(engine, "m_step_batch", "engine.m_step_batch")
    tracer.install(engine, "em_loop", "engine.em_loop", _em_counts)
    tracer.install(selection, "multi_restart_fit", "em.multi_restart_fit")
    tracer.install(selection, "empirical_fisher_log_det", "criteria.empirical_fisher_log_det")
    tracer.install(selection, "kalman_filter", "inference.kalman_filter")
    tracer.install(selection, "rts_smooth", "inference.rts_smooth")
    tracer.install(selection, "mdl_description_length", "criteria.mdl_description_length")
    tracer.install(criteria, "solve_discrete_lyapunov", "model.solve_discrete_lyapunov")
    tracer.install(selection, "delay_embed", "datagen.delay_embed")
    tracer.install(selection, "grid_search", "selection.grid_search")
    tracer.install(selection, "annihilation_search", "selection.annihilation_search")
    tracer.install(cli, "grid_search", "selection.grid_search")
    tracer.install(cli, "annihilation_search", "selection.annihilation_search")
    tracer.install(cli, "read_sequence_csv", "model.read_sequence_csv")
    tracer.install(cli, "main", "cli.main")


#: (metric, unit) of every per-layer figure, in report order
LAYER_METRICS = (
    ("engine.filter_batch.self_s", "s"),
    ("engine.filter_batch.calls", "count"),
    ("engine.filter_batch.element_steps", "count"),
    ("engine.filter_batch.us_per_element_step", "us"),
    ("engine.smooth_batch.self_s", "s"),
    ("engine.smooth_batch.element_steps", "count"),
    ("engine.smooth_batch.us_per_element_step", "us"),
    ("engine.m_step_batch.self_s", "s"),
    ("engine.m_step_batch.calls", "count"),
    ("engine.em_loop.time_s", "s"),
    ("engine.em_loop.self_s", "s"),
    ("engine.em_loop.iterations", "count"),
    ("engine.em_loop.restarts", "count"),
    ("engine.em_loop.converged_restarts", "count"),
    ("engine.em_loop.failed_restarts", "count"),
    ("engine.em_loop.active_share", "ratio"),
    ("em.multi_restart_fit.self_s", "s"),
    ("criteria.empirical_fisher_log_det.time_s", "s"),
    ("criteria.empirical_fisher_log_det.self_s", "s"),
    ("criteria.empirical_fisher_log_det.perturbed_elements", "count"),
    ("inference.kalman_filter.time_s", "s"),
    ("inference.rts_smooth.time_s", "s"),
    ("criteria.mdl_description_length.time_s", "s"),
    ("model.solve_discrete_lyapunov.time_s", "s"),
    ("datagen.delay_embed.time_s", "s"),
    ("selection.grid_search.self_s", "s"),
    ("selection.annihilation_search.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("model.read_sequence_csv.time_s", "s"),
)


def layer_metrics(spans) -> dict:
    """Aggregate spans into the LAYER_METRICS figures, as
    ``{metric: {"value": v, "unit": u}}``."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    time_s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    em_filter_elements = 0
    for i, (name, start, end, parent, c) in enumerate(spans):
        time_s[name] += end - start
        self_s[name] += end - start - child_s[i]
        calls[name] += 1
        for key, value in (c or {}).items():
            counts[f"{name}.{key}"] += value
        if parent < 0 or name != "engine.filter_batch":
            continue
        parent_name = spans[parent][0]
        if parent_name == "engine.em_loop":
            calls["engine.em_loop.iterations"] += 1
            em_filter_elements += c["B"]
        elif parent_name == "criteria.empirical_fisher_log_det":
            counts["criteria.empirical_fisher_log_det.perturbed_elements"] += c["B"]

    def per_step(layer):
        steps = counts[f"{layer}.element_steps"]
        return 1e6 * self_s[layer] / steps if steps else 0.0

    active = counts["engine.em_loop.active_element_iterations"]
    out = {}
    for metric, unit in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            value = self_s[layer]
        elif field == "time_s":
            value = time_s[layer]
        elif field == "calls":
            value = calls[layer]
        elif field == "iterations":
            value = calls[metric]
        elif field == "us_per_element_step":
            value = per_step(layer)
        elif field == "active_share":
            value = active / em_filter_elements if em_filter_elements else 0.0
        else:
            value = counts[metric]
        out[metric] = {"value": value, "unit": unit}
    return out
