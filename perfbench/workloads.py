"""The three workloads: their inputs, their timed call, and the checks on
each result.

Every workload follows an acceptance-test protocol and cycles through that
protocol's sequences: sequence ``i`` of a run started with ``--seed n`` is
protocol seed ``(n + i) % protocol_seeds``.  The protocol seed also seeds the
EM restarts, as in the acceptance tests.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import inputs, reference

#: relative tolerance between the program's DL and the reference DL
DL_RTOL = 1e-9


class Problems(list):
    """Check failures of one selection, as readable strings."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _dl_check(problems, params, Y, order, dl) -> None:
    ref = reference.description_length(params, Y, order)
    problems.expect(math.isfinite(dl) and abs(dl - ref) <= DL_RTOL * abs(ref),
                    f"order {order}: DL {dl!r} != reference {ref!r}")


def _argmin_order(orders, dls) -> int:
    return orders[int(np.argmin(dls))]


@dataclass
class Selection:
    """What a check reports about one timed call."""

    seed: int
    orders: list
    dls: list
    chosen: Optional[int]
    problems: list
    #: orders that came back without a fit
    errors: list
    #: candidate orders the call visited
    attempted: int

    def fingerprint(self) -> dict:
        return {"seed": self.seed, "chosen_order": self.chosen,
                "dl": {str(o): round(d, 8) for o, d in zip(self.orders, self.dls)}}


class GridWorkload:
    """``grid_search`` over a fixed order range of one sequence per call."""

    def __init__(self, ldsmdl, workdir):
        self.m = ldsmdl

    def config(self, seed):
        return self.m.EmConfig(eps=self.eps, max_iters=self.max_iters,
                               n_restarts=self.restarts, seed=seed)

    def prepare(self, seed):
        Y = self.sequence(seed)
        return {"seed": seed, "Y": Y, "data": self.m.SequenceData(Y=Y)}

    def call(self, inp, d_min=None, d_max=None):
        bounds = self.m.ModelOrderBounds(d_min or self.d_min, d_max or self.d_max)
        return self.m.selection.grid_search(inp["data"], bounds, self.config(inp["seed"]),
                                            observable_mode=self.observable)

    def expected_orders(self) -> int:
        return self.d_max - self.d_min + 1

    def observations(self, Y, order):
        return Y

    def check(self, inp, trace) -> Selection:
        problems = Problems()
        rows = trace.per_order
        orders = [r.order for r in rows]
        problems.expect(orders == list(range(self.d_min, self.d_max + 1)),
                        f"grid visited orders {orders}")
        errors = [r.order for r in rows if r.fit is None or r.error is not None]
        scored = [r for r in rows if r.fit is not None]
        for r in scored:
            _dl_check(problems, r.fit.params, self.observations(inp["Y"], r.order),
                      r.order, r.dl)
            problems.expect(r.criterion("mdl").value == r.dl,
                            f"order {r.order}: mdl criterion differs from dl")
        dls = [r.dl for r in scored]
        scored_orders = [r.order for r in scored]
        if scored:
            problems.expect(trace.chosen_order == _argmin_order(scored_orders, dls),
                            f"chosen order {trace.chosen_order} is not the DL argmin")
        return Selection(inp["seed"], scored_orders, dls, trace.chosen_order,
                         problems, errors, len(rows))

    def repeat(self, inp, first: Selection) -> list:
        """Refit the two lowest orders of the run's first sequence; the DL
        and the pick among them must be bit-identical to the first call's."""
        lo = self.d_min
        trace = self.call(inp, lo, lo + 1)
        again = {r.order: r.dl for r in trace.per_order}
        before = {o: d for o, d in zip(first.orders, first.dls) if o in (lo, lo + 1)}
        problems = Problems()
        problems.expect(again == before, f"repeat DL {again} != first {before}")
        problems.expect(trace.chosen_order == min(before, key=before.get),
                        f"repeat pick {trace.chosen_order} differs")
        return problems


class GridD4(GridWorkload):
    """Acceptance 4: orders 2-12 on T=100 sequences of random d=4 systems."""

    name = "grid-d4"
    protocol_seeds = 20
    d_min, d_max = 2, 12
    eps, max_iters, restarts = 1e-2, 35, 10
    observable = False
    true_order = 4
    traced_calls = 2

    def sequence(self, seed):
        return inputs.random_lds_sequence(self.true_order, seed)


class Narma10Observable(GridWorkload):
    """Acceptance 8: observable-mode orders 2-10 on centred, trimmed
    NARMA-10 sequences of length 1000."""

    name = "narma10-observable"
    protocol_seeds = 10
    d_min, d_max = 2, 10
    eps, max_iters, restarts = 1e-2, 3, 2
    observable = True
    traced_calls = 1

    def sequence(self, seed):
        return inputs.narma10_sequence(seed)

    def observations(self, Y, order):
        return inputs.delay_embed(Y, order)


class CliAnnihilateD6:
    """Acceptance 6 through the command line: ``ldsmdl select --mode
    annihilate`` on T=100 sequences of random d=6 systems."""

    name = "cli-annihilate-d6"
    protocol_seeds = 20
    d_min, d_max = 2, 12
    true_order = 6
    traced_calls = 5

    def __init__(self, ldsmdl, workdir):
        self.m = ldsmdl
        self.workdir = workdir

    def prepare(self, seed):
        Y = inputs.random_lds_sequence(self.true_order, seed)
        path = os.path.join(self.workdir, f"seq-{seed}.csv")
        np.savetxt(path, Y, delimiter=",", fmt="%.17g")
        return {"seed": seed, "Y": Y, "csv": path}

    def call(self, inp, d_min=None, tag="run"):
        base = os.path.join(self.workdir, f"{tag}-{inp['seed']}")
        argv = ["select", inp["csv"], "--mode", "annihilate",
                "--dmin", str(d_min or self.d_min), "--dmax", str(self.d_max),
                "--restarts", "10", "--eps", "1e-2", "--max-iters", "35",
                "--seed", str(inp["seed"]), "--out", base + ".json",
                "--sweep", base + ".sweep.csv"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.m.cli.main(argv)
        return {"code": code, "stdout": out.getvalue(), "base": base}

    def expected_orders(self) -> int:
        return 1

    def check(self, inp, res, d_min=None) -> Selection:
        d_min = d_min or self.d_min
        problems = Problems()
        base = res["base"]
        problems.expect(res["code"] == 0, f"exit code {res['code']}")
        for suffix in (".json", ".sweep.csv", ".json.manifest.json"):
            problems.expect(os.path.isfile(base + suffix), f"missing {base + suffix}")
        if problems:
            return Selection(inp["seed"], [], [], None, problems, [], 1)
        with open(base + ".json") as fh:
            doc = json.load(fh)
        rows = doc["per_order"]
        chosen = doc["chosen_order"]
        problems.expect(res["stdout"].strip() == str(chosen),
                        f"printed {res['stdout']!r}, trace chose {chosen}")
        errors = [r["order"] for r in rows if r["error"] is not None]
        orders = [r["order"] for r in rows]
        problems.expect(orders == list(range(self.d_max, self.d_max - len(rows), -1)),
                        f"walk visited orders {orders}")
        scored = [r["order"] for r in rows if r["error"] is None]
        dls = [r["dl"] for r in rows if r["error"] is None]
        rises = [i for i in range(1, len(dls)) if dls[i] > dls[i - 1]]
        if doc["stopped_early"]:
            problems.expect(rises == [len(dls) - 1] and orders[-1] == scored[-1],
                            f"walk did not stop at its first rise: DL {dls}")
        else:
            problems.expect(not rises and orders[-1] == d_min,
                            f"walk ran on past a rise or stopped short: DL {dls}")
        if scored:
            problems.expect(chosen == _argmin_order(scored, dls),
                            f"chosen order {chosen} is not the DL argmin")
        if chosen in scored:
            params = SimpleNamespace(**{k: np.asarray(v)
                                        for k, v in doc["chosen_params"].items()})
            _dl_check(problems, params, inp["Y"], chosen, dls[scored.index(chosen)])
        with open(base + ".json.manifest.json") as fh:
            manifest = json.load(fh)
        problems.expect(manifest["command"] == "select"
                        and manifest["outputs"] == [base + ".json", base + ".sweep.csv"],
                        "manifest does not list the trace and sweep")
        with open(base + ".sweep.csv") as fh:
            swept = sorted(int(line.split(",")[0]) for line in list(fh)[1:])
        problems.expect(swept == sorted(scored), f"sweep rows {swept} != walk {scored}")
        return Selection(inp["seed"], scored, dls, chosen, problems, errors, len(rows))

    def repeat(self, inp, first: Selection) -> list:
        """Walk the run's first sequence again over its two top orders; the
        DLs and the pick must be bit-identical to the first walk's."""
        lo = self.d_max - 1
        res = self.call(inp, d_min=lo, tag="repeat")
        again = self.check(inp, res, d_min=lo)
        before = {o: d for o, d in zip(first.orders, first.dls) if o >= lo}
        problems = Problems(again.problems)
        now = dict(zip(again.orders, again.dls))
        problems.expect(now == before, f"repeat DL {now} != first {before}")
        if before:
            problems.expect(again.chosen == min(before, key=before.get),
                            f"repeat pick {again.chosen} differs")
        return problems


WORKLOADS = {w.name: w for w in (GridD4, Narma10Observable, CliAnnihilateD6)}
