"""Order-selection drivers: top-down annihilation and a full grid sweep.

Both fit the candidate orders bucket by bucket (``_buckets``), the walk from
the highest bucket down, one EM loop per bucket on the usable CPUs
(``_run_jobs``), and score each order alone, the walk each as it reaches it."""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _engine
from .criteria import (CRITERION_NAMES, CriterionValue, aic, bic,
                       count_params, empirical_fisher_log_det, fia,
                       mdl_description_length, mme, normalize_values)
from .datagen import delay_embed
# multi_restart_fit and rts_smooth are not called here; the benchmark's tracer
# (perfbench/tracing.py) wraps them by these names (ROADMAP item 4b)
from .em import EmConfig, FitResult, multi_order_fit, multi_restart_fit
from .errors import DegeneracyError, DimensionError, LdsError
from .inference import kalman_filter, rts_smooth
from .model import LdsParams, ModelOrderBounds, SequenceData

#: an order bucket's cell runs from a to floor(BUCKET_CELL_RATIO * a) = a + a // 2,
#: so no member pays more than BUCKET_CELL_RATIO**3 of its own flops
BUCKET_CELL_RATIO = 1.5
#: doubles in a bucket's (B, T, D, D) covariance trajectory, at most
BUCKET_DOUBLES = 2 ** 17


@dataclass(frozen=True)
class OrderResult:
    """Fit outcome and criterion scores at one latent dimension."""

    order: int
    fit: Optional[FitResult]
    criteria: list = field(default_factory=list)
    error: Optional[str] = None

    @property
    def dl(self) -> float:
        """The description length: the ``mdl`` criterion's value, or inf for
        an order with no fit."""
        return self.criterion("mdl").value if self.fit is not None else math.inf

    def criterion(self, name: str) -> Optional[CriterionValue]:
        for cv in self.criteria:
            if cv.name == name:
                return cv
        return None


@dataclass(frozen=True)
class SelectionTrace:
    """Per-order results of a selection run plus the chosen model."""

    per_order: list
    chosen_order: int
    chosen_params: LdsParams
    stopped_early: bool
    #: processes that fitted the buckets (``_workers``); not part of the JSON
    workers: int = 1

    def to_dict(self) -> dict:
        rows = []
        for r in self.per_order:
            rows.append({
                "order": r.order,
                "dl": r.dl if r.fit is not None else None,   # JSON has no Infinity
                "loglik": r.fit.loglik if r.fit is not None else None,
                "converged": r.fit.converged if r.fit is not None else None,
                "iterations": r.fit.iterations if r.fit is not None else None,
                "criteria": {cv.name: {"value": cv.value, "components": cv.components}
                             for cv in r.criteria},
                "error": r.error,
            })
        return {
            "per_order": rows,
            "chosen_order": self.chosen_order,
            "chosen_params": self.chosen_params.to_dict(),
            "stopped_early": self.stopped_early,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _check_data(data: SequenceData, observable_mode: bool) -> None:
    """Raise DimensionError for a sequence that no order can be fitted to."""
    if data.T < 2:
        raise DimensionError(f"fitting requires T >= 2, got T={data.T}")
    if observable_mode and data.d_out != 1:
        raise DimensionError(f"observable mode needs a scalar sequence, got {data.d_out} columns")


def _buckets(bounds: ModelOrderBounds, n_restarts: int, T: int,
             observable_mode: bool) -> list:
    """The orders of ``bounds``, ascending, in the buckets that are fitted
    through one EM loop.

    The buckets cut a fixed partition of the order axis, so the bucket of an
    order never depends on the range: cells [a, floor(3a/2)] (1 | 2-3 | 4-6
    | 7-10 | 11-16 | ..), each cut greedily upward so that a bucket's
    (B, T, D, D) covariance trajectory holds at most BUCKET_DOUBLES doubles,
    with B = members * n_restarts.  Observable mode keeps one order per
    bucket, since each order has its own delay-embedded data.  The walk
    begins at the start of d_min's cell, or at d_min itself where that
    order is alone in its bucket anyway.
    """
    d_min = bounds.d_min
    a = 1                                       # the start of d_min's cell
    while math.floor(BUCKET_CELL_RATIO * a) < d_min:
        a = math.floor(BUCKET_CELL_RATIO * a) + 1
    cell_end = math.floor(BUCKET_CELL_RATIO * a)
    # d_min starts its own bucket where two members would pass the cap
    start = d_min if observable_mode or 2 * n_restarts * T * d_min ** 2 > BUCKET_DOUBLES else a
    buckets = {}
    for d in range(start, bounds.d_max + 1):
        if d > cell_end:
            cell_end = math.floor(BUCKET_CELL_RATIO * d)
            start = d
        elif observable_mode or (d - start + 1) * n_restarts * T * d * d > BUCKET_DOUBLES:
            start = d
        if d >= d_min:
            buckets.setdefault(start, []).append(d)
    return list(buckets.values())


def _fit_bucket(data: SequenceData, orders: list, config: EmConfig,
                observable_mode: bool) -> tuple:
    """Fit the orders of one bucket through one ``multi_order_fit``.  Returns
    the data they were fitted to (delay-embedded in observable mode) and a
    map of each order to its FitResult, or to the LdsError that stopped it."""
    # each order draws its restarts from its own seed: the low 31 bits of one
    # draw keyed by (seed, order)
    seeds = {d: int(np.random.SeedSequence([config.seed, d]).generate_state(1)[0] % 2 ** 31)
             for d in orders}
    try:
        data_d = delay_embed(data, orders[0]) if observable_mode else data
        fits = multi_order_fit(data_d, seeds, config, fix_observation=observable_mode)
    except LdsError as exc:
        return data, {d: exc for d in orders}
    return data_d, fits


def _order_result(data_d: SequenceData, fit, order: int, observable_mode: bool,
                  all_criteria: bool) -> OrderResult:
    """Score one order's entry of ``_fit_bucket`` on the data it was fitted
    to: the description length and, with ``all_criteria``, the other four
    criteria before it.  One filter pass at the fitted parameters serves the
    DL, through the compact smoother's means alone, and the Fisher of FIA.
    A fitting or scoring failure becomes an error row."""
    if isinstance(fit, LdsError):
        return OrderResult(order=order, fit=None, error=str(fit))
    try:
        fr = kalman_filter(fit.params, data_d)
        sm = _engine.smooth_batch(_engine.stack_params([fit.params]), fr.engine_pass)
        dl_value = mdl_description_length(fit, sm["means"][0], data_d, N=data_d.T)
        values = [dl_value]
        if all_criteria:
            n = data_d.T
            n_theta = count_params(order, data_d.d_out,
                                   fix_observation=observable_mode).n_theta
            fisher = empirical_fisher_log_det(fit.params, data_d,
                                              fix_observation=observable_mode,
                                              filter_result=fr)
            values = [aic(fit.loglik, n_theta), bic(fit.loglik, n_theta, n),
                      fia(fit.loglik, n_theta, n, fisher), mme(fit.loglik, n_theta, n),
                      dl_value]
    except LdsError as exc:
        return OrderResult(order=order, fit=None, error=str(exc))
    return OrderResult(order=order, fit=fit, criteria=values)


def _scored_bucket(data: SequenceData, orders: list, config: EmConfig,
                   observable_mode: bool) -> list:
    """The grid's job: ``_fit_bucket``, then all five criteria of each order."""
    data_d, fits = _fit_bucket(data, orders, config, observable_mode)
    return [_order_result(data_d, fits[d], d, observable_mode, True) for d in orders]


def _workers(n_jobs: int) -> int:
    """Processes that share ``n_jobs`` jobs: one per usable CPU, at most one
    per job, and one where the usable CPUs cannot be asked for."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(usable, n_jobs)


def _run_jobs(run, jobs: list, workers: int):
    """Yield ``run(job)`` for each of ``jobs``, in their order.

    With one worker the jobs run here, one after another.  Otherwise this
    process and ``workers - 1`` forked children each take the next job from
    one shared counter; a child sends each result back over its own pipe,
    and this process runs a job whenever the result due next has not come
    in.  A job that raises raises here when its result is due, and a child
    that dies raises RuntimeError.  Leaving the generator, by exhausting,
    raising or closing it, stops and joins the children.
    """
    if workers <= 1:
        for job in jobs:
            yield run(job)
        return
    import multiprocessing
    from multiprocessing.connection import wait
    # fork: a child starts as a copy of this process, so neither the data
    # nor ``run`` is pickled and nothing is imported again
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)

    def take() -> int:
        with counter.get_lock():
            counter.value += 1
            return counter.value - 1

    def attempt(i: int) -> tuple:
        try:
            return True, run(jobs[i])
        except Exception as exc:
            return False, exc

    def child(conn) -> None:
        while (i := take()) < len(jobs):
            conn.send((i, *attempt(i)))

    children = {}                                  # receiving end -> child
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send,), daemon=True)
            proc.start()
            send.close()
            children[recv] = proc
        done = {}
        for due in range(len(jobs)):
            while due not in done:
                ready = wait(list(children), timeout=0)
                if not ready:
                    if (i := take()) < len(jobs):
                        done[i] = attempt(i)
                        continue
                    if not children:            # a child left without its result
                        raise RuntimeError(f"no worker holds job {due}")
                    ready = wait(list(children))
                for conn in ready:
                    try:
                        i, *result = conn.recv()
                        done[i] = result
                    except EOFError:
                        proc = children.pop(conn)
                        proc.join()
                        if proc.exitcode != 0:
                            raise RuntimeError(f"a bucket worker ended with exit code "
                                               f"{proc.exitcode}")
            ok, value = done.pop(due)
            if not ok:
                raise value
            yield value
    finally:
        for conn, proc in children.items():
            proc.kill()
            proc.join()
            conn.close()


def grid_search(data: SequenceData, bounds: ModelOrderBounds, config: EmConfig,
                criterion: str = "mdl", observable_mode: bool = False) -> SelectionTrace:
    """Fit every order in [d_min, d_max], score all five criteria, and pick
    the minimizer of the requested one.  The orders are fitted bucket by
    bucket (``_buckets``), the buckets shared among the usable CPUs
    (``_run_jobs``), the largest D^3 * members first."""
    if criterion not in CRITERION_NAMES:
        raise DimensionError(f"unknown criterion {criterion!r}")
    _check_data(data, observable_mode)
    jobs = sorted(_buckets(bounds, config.n_restarts, data.T, observable_mode),
                  key=lambda b: -b[-1] ** 3 * len(b))
    workers = _workers(len(jobs))
    rows = _run_jobs(lambda b: _scored_bucket(data, b, config, observable_mode),
                     jobs, workers)
    per_order = sorted((r for bucket in rows for r in bucket), key=lambda r: r.order)
    return _finish(per_order, criterion, stopped_early=False, workers=workers)


def annihilation_search(data: SequenceData, bounds: ModelOrderBounds,
                        config: EmConfig, observable_mode: bool = False) -> SelectionTrace:
    """Top-down order reduction: the grid's buckets from the highest down,
    each fitted as ``grid_search`` fits it, and their orders scored here by
    the description length alone, highest first, as the walk reaches them.

    The walk stops at the first order whose DL rises relative to the
    previously evaluated (next-higher) order and keeps the DL minimizer; a
    walk that never stops is ``grid_search`` scored by the DL alone.  It
    scores and reports only the orders it visits, but it fits buckets
    whole, and with several usable CPUs it fits the buckets below the one
    being read ahead of it (``_run_jobs``).
    """
    _check_data(data, observable_mode)
    jobs = _buckets(bounds, config.n_restarts, data.T, observable_mode)[::-1]
    workers = _workers(len(jobs))
    per_order = []
    prev_dl = math.inf
    with contextlib.closing(_run_jobs(
            lambda b: _fit_bucket(data, b, config, observable_mode),
            jobs, workers)) as fitted:
        for orders, (data_d, fits) in zip(jobs, fitted):
            for d in reversed(orders):
                r = _order_result(data_d, fits[d], d, observable_mode, False)
                per_order.append(r)
                if r.fit is None:
                    continue
                if r.dl > prev_dl:
                    return _finish(per_order, "mdl", stopped_early=True, workers=workers)
                prev_dl = r.dl
    return _finish(per_order, "mdl", stopped_early=False, workers=workers)


def _finish(per_order: list, criterion: str, stopped_early: bool,
            workers: int) -> SelectionTrace:
    scored = [r for r in per_order if r.fit is not None]
    if not scored:
        raise DegeneracyError("every candidate order failed to fit")
    best = min(scored, key=lambda r: r.criterion(criterion).value)
    return SelectionTrace(per_order=per_order, chosen_order=best.order,
                          chosen_params=best.fit.params, stopped_early=stopped_early,
                          workers=workers)


def criterion_table(trace: SelectionTrace) -> tuple[list, dict]:
    """The fitted orders of a trace, ascending, and for each criterion they
    carry its (raw values, min-max normalized values, argmin order)."""
    rows = sorted((r for r in trace.per_order if r.fit is not None),
                  key=lambda r: r.order)
    table = {}
    for name in CRITERION_NAMES:
        if not rows or rows[0].criterion(name) is None:
            continue
        raw = [r.criterion(name).value for r in rows]
        norm = normalize_values(raw) if len(raw) >= 2 else [0.0] * len(raw)
        argmin = rows[min(range(len(raw)), key=raw.__getitem__)].order
        table[name] = (raw, norm, argmin)
    return rows, table


def write_sweep_csv(trace: SelectionTrace, path) -> None:
    """Write the per-order criterion table with raw and min-max normalized columns."""
    rows, table = criterion_table(trace)
    names = list(table)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["order", "loglik"] + names + [f"{n}_norm" for n in names])
        for i, r in enumerate(rows):
            w.writerow([r.order, repr(float(r.fit.loglik))]
                       + [repr(float(table[n][0][i])) for n in names]
                       + [repr(float(table[n][1][i])) for n in names])
