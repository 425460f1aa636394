"""Order-selection drivers: top-down annihilation and a full grid sweep."""
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
from .em import EmConfig, FitResult, multi_restart_fit
from .errors import DegeneracyError, DimensionError, LdsError
from .inference import kalman_filter, rts_smooth
from .model import LdsParams, ModelOrderBounds, SequenceData


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


def _evaluate_order(data_d: SequenceData, fit: FitResult, order: int,
                    observable_mode: bool, all_criteria: bool) -> list:
    """The description length (always) and, optionally, the other four
    criteria of one fitted order."""
    posterior = rts_smooth(fit.params, kalman_filter(fit.params, data_d))
    dl_value = mdl_description_length(fit, posterior, data_d, N=data_d.T)
    if not all_criteria:
        return [dl_value]
    n = data_d.T
    n_theta = count_params(order, data_d.d_out, fix_observation=observable_mode).n_theta
    fisher = empirical_fisher_log_det(fit.params, data_d,
                                      fix_observation=observable_mode)
    return [
        aic(fit.loglik, n_theta),
        bic(fit.loglik, n_theta, n),
        fia(fit.loglik, n_theta, n, fisher),
        mme(fit.loglik, n_theta, n),
        dl_value,
    ]


def _check_data(data: SequenceData, observable_mode: bool) -> None:
    """Raise DimensionError for a sequence that no order can be fitted to."""
    if data.T < 2:
        raise DimensionError(f"fitting requires T >= 2, got T={data.T}")
    if observable_mode and data.d_out != 1:
        raise DimensionError(f"observable mode needs a scalar sequence, got {data.d_out} columns")


def _order_result(data: SequenceData, order: int, config: EmConfig,
                  observable_mode: bool, all_criteria: bool) -> OrderResult:
    """Fit and score one order; a fitting failure becomes an error row."""
    try:
        data_d = delay_embed(data, order) if observable_mode else data
        # each order draws its restarts from its own seed: the low 31 bits
        # of one draw keyed by (seed, order)
        seed = np.random.SeedSequence([config.seed, order]).generate_state(1)[0] % 2 ** 31
        fit = multi_restart_fit(data_d, order, replace(config, seed=int(seed)),
                                fix_observation=observable_mode)
        values = _evaluate_order(data_d, fit, order, observable_mode, all_criteria)
    except LdsError as exc:
        return OrderResult(order=order, fit=None, error=str(exc))
    return OrderResult(order=order, fit=fit, criteria=values)


def grid_search(data: SequenceData, bounds: ModelOrderBounds, config: EmConfig,
                criterion: str = "mdl", observable_mode: bool = False) -> SelectionTrace:
    """Fit every order in [d_min, d_max], score all five criteria, and pick
    the minimizer of the requested one."""
    if criterion not in CRITERION_NAMES:
        raise DimensionError(f"unknown criterion {criterion!r}")
    _check_data(data, observable_mode)
    per_order = [_order_result(data, order, config, observable_mode, all_criteria=True)
                 for order in range(bounds.d_min, bounds.d_max + 1)]
    return _finish(per_order, criterion, stopped_early=False)


def annihilation_search(data: SequenceData, bounds: ModelOrderBounds,
                        config: EmConfig, observable_mode: bool = False) -> SelectionTrace:
    """Top-down order reduction: refit at successively smaller orders and
    keep the description-length minimizer.

    The walk stops once the description length rises relative to the
    previously evaluated (next-higher) order; a walk that never stops is
    ``grid_search`` scored by the DL alone.
    """
    _check_data(data, observable_mode)
    per_order = []
    prev_dl = math.inf
    stopped = False
    for order in range(bounds.d_max, bounds.d_min - 1, -1):
        r = _order_result(data, order, config, observable_mode, all_criteria=False)
        per_order.append(r)
        if r.fit is None:
            continue
        if r.dl > prev_dl:
            stopped = True
            break
        prev_dl = r.dl
    return _finish(per_order, "mdl", stopped_early=stopped)


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
