"""Order-selection drivers: top-down annihilation and a full grid sweep.

Both fit the candidate orders bucket by bucket (``_buckets``), the walk from
the highest bucket down, one EM loop per bucket, and score each order alone."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .criteria import (CRITERION_NAMES, CriterionValue, aic, bic,
                       count_params, empirical_fisher_log_det, fia,
                       mdl_description_length, mme, normalize_values)
from .datagen import delay_embed
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
    bucket, since each order has its own delay-embedded data.
    """
    starts, cell_end = [], 0
    for d in range(1, bounds.d_max + 1):
        if d > cell_end:
            cell_end = math.floor(BUCKET_CELL_RATIO * d)
            start = d
        elif observable_mode or (d - start + 1) * n_restarts * T * d * d > BUCKET_DOUBLES:
            start = d
        starts.append(start)
    buckets = {}
    for d in range(bounds.d_min, bounds.d_max + 1):
        buckets.setdefault(starts[d - 1], []).append(d)
    return list(buckets.values())


def _fit_bucket(data: SequenceData, orders: list, config: EmConfig,
                observable_mode: bool) -> tuple:
    """Fit the orders of one bucket together.  Returns the data they were
    fitted to (delay-embedded in observable mode) and a map of each order to
    its FitResult, or to the LdsError that stopped its fit."""
    # each order draws its restarts from its own seed: the low 31 bits of one
    # draw keyed by (seed, order)
    seeds = {d: int(np.random.SeedSequence([config.seed, d]).generate_state(1)[0] % 2 ** 31)
             for d in orders}
    try:
        data_d = delay_embed(data, orders[0]) if observable_mode else data
        if len(orders) > 1:
            fits = multi_order_fit(data_d, seeds, config)
        else:
            # multi_order_fit's one-order case, called by the name that the
            # benchmark's tracer wraps (tests/test_tracing.py)
            d = orders[0]
            fits = {d: multi_restart_fit(data_d, d, replace(config, seed=seeds[d]),
                                         fix_observation=observable_mode)}
    except LdsError as exc:
        return data, {d: exc for d in orders}
    return data_d, fits


def _order_result(data_d: SequenceData, fit, order: int, observable_mode: bool,
                  all_criteria: bool) -> OrderResult:
    """Score one order's entry of ``_fit_bucket`` on the data it was fitted
    to: the description length and, with ``all_criteria``, the other four
    criteria before it.  One filter pass at the fitted parameters serves the
    smoother of the DL and the Fisher of FIA.  A fitting or scoring failure
    becomes an error row."""
    if isinstance(fit, LdsError):
        return OrderResult(order=order, fit=None, error=str(fit))
    try:
        fr = kalman_filter(fit.params, data_d)
        posterior = rts_smooth(fit.params, fr)
        dl_value = mdl_description_length(fit, posterior, data_d, N=data_d.T)
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


def grid_search(data: SequenceData, bounds: ModelOrderBounds, config: EmConfig,
                criterion: str = "mdl", observable_mode: bool = False) -> SelectionTrace:
    """Fit every order in [d_min, d_max], score all five criteria, and pick
    the minimizer of the requested one.  The orders are fitted bucket by
    bucket (``_buckets``)."""
    if criterion not in CRITERION_NAMES:
        raise DimensionError(f"unknown criterion {criterion!r}")
    _check_data(data, observable_mode)
    per_order = []
    for bucket in _buckets(bounds, config.n_restarts, data.T, observable_mode):
        data_d, fits = _fit_bucket(data, bucket, config, observable_mode)
        per_order += [_order_result(data_d, fits[d], d, observable_mode, all_criteria=True)
                      for d in bucket]
    return _finish(per_order, criterion, stopped_early=False)


def annihilation_search(data: SequenceData, bounds: ModelOrderBounds,
                        config: EmConfig, observable_mode: bool = False) -> SelectionTrace:
    """Top-down order reduction: the grid's buckets from the highest down,
    each fitted as ``grid_search`` fits it and its orders scored by the
    description length alone, highest first.

    The walk stops at the first order whose DL rises relative to the
    previously evaluated (next-higher) order and keeps the DL minimizer; a
    walk that never stops is ``grid_search`` scored by the DL alone.  A
    bucket is fitted whole, so the walk may fit orders below the one at
    which it stops; it scores only the orders it visits.
    """
    _check_data(data, observable_mode)
    per_order = []
    prev_dl = math.inf
    for bucket in reversed(_buckets(bounds, config.n_restarts, data.T, observable_mode)):
        data_d, fits = _fit_bucket(data, bucket, config, observable_mode)
        for order in reversed(bucket):
            r = _order_result(data_d, fits[order], order, observable_mode, all_criteria=False)
            per_order.append(r)
            if r.fit is None:
                continue
            if r.dl > prev_dl:
                return _finish(per_order, "mdl", stopped_early=True)
            prev_dl = r.dl
    return _finish(per_order, "mdl", stopped_early=False)


def _finish(per_order: list, criterion: str, stopped_early: bool) -> SelectionTrace:
    scored = [r for r in per_order if r.fit is not None]
    if not scored:
        raise DegeneracyError("every candidate order failed to fit")
    best = min(scored, key=lambda r: r.criterion(criterion).value)
    return SelectionTrace(per_order=per_order, chosen_order=best.order,
                          chosen_params=best.fit.params, stopped_early=stopped_early)


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
