"""Time the EM layers and the Fisher of two source checkouts in one
process, alternately.

    python3 tools/layer_pairs.py PARENT_DIR CHANGE_DIR [--runs 40] [--seed 0] [--memory]

The ``src/ldsmdl`` package of each checkout is copied into a temporary
directory as ``ldsmdl_parent`` and ``ldsmdl_change`` and both are imported
here, so that both sides are timed in the same machine phase.  Each side
runs each call in turn, the parent and the change taking turns at going
first (the change first on odd runs), and keeps the minimum of ``--runs``
calls.

EM layers: for each ``grid-d4`` bucket shape in ``BUCKETS`` the change's
``em_loop`` runs ``EM_ITERS`` EM iterations from the bucket's seeded
restarts on the benchmark's ``grid-d4`` input of ``--seed`` (the
change's ``perfbench``), as ``grid_search`` seeds them; both sides then
time ``filter_batch``, ``smooth_batch``, ``m_step_batch`` and the EM
pass on those parameters.  The filter is handed the pass of the
iteration before as ``reuse``, as ``em_loop`` hands it over, so that its
settle test meets the switch of that pass.  Each filter pass is timed a
second time on the observations cut to the change's switch + 1 steps
(the ``filter [:s+1]`` row, whose T is that length), handed the pass
before on the same cut: nearly all of that pass is its transient, so the
row shows the transient's own cost beside the full pass.  The EM pass is
that filter pass, then ``smooth_batch``, ``m_step_batch`` and
``enforce_stability_batch``: one iteration of ``em_loop``.  Each side
calls ``smooth_batch`` as its own ``em_loop`` does: with the result of
the pass before as ``reuse`` where ``smooth_batch`` takes one, and
``m_step_batch`` reads that side's smoother result.  For each order of
``narma10-observable`` (2-10, observable mode, B = 2 restarts, T about
1000, where most of each pass is the frozen stretch) the change's
``em_loop`` runs the workload's own EM budget from its seeded restarts
on the delay-embedded input of ``--seed``, and both sides time
``filter_batch`` and ``smooth_batch`` the same way.  Each line gives the
workload, the layer, (B, D), T, the switch of the pass before and the
filter's switch step, each side's time, and change / parent.

Fisher: the change's ``grid_search`` fits the ``narma10-observable`` input
of ``--seed`` (orders 2-10, observable mode, T about 1000) and the
``grid-d4`` input of ``--seed`` (orders 2-12, of which the orders of
``BUCKETS`` are kept), as the benchmark calls it; both sides then time
``criteria.empirical_fisher_log_det`` on each fitted order, called the same
way on both (the public call, which filters at the parameters itself).
Each line gives the workload, the call, d, the number n of free
parameters, T, the filter's switch step, each side's time, and change /
parent.

With ``--memory`` each side's ``tracemalloc`` peak of one call, in KB,
takes the place of its time, at the same shapes and on the same inputs:
``filter_batch`` handed no pass (the ``filter (new)`` row, whose peak
holds the arrays the pass stores) and handed the pass before,
``smooth_batch`` and the EM pass of every EM shape, and ``kalman_filter`` and
``empirical_fisher_log_det`` of every fitted order.  The peak counts what
the call allocates, its result included, and not what it is handed.

Needs numpy.
"""
import argparse
import importlib
import inspect
import os
import shutil
import sys
import tempfile
import time
import tracemalloc

import numpy as np

#: the orders of the grid-d4 buckets timed: (B, D) = (20, 3), (30, 6), (20, 8)
#: and (10, 12) at 10 restarts
BUCKETS = ([2, 3], [4, 5, 6], [7, 8], [12])
#: EM iterations run before the layers are timed
EM_ITERS = 10
SIDES = ("parent", "change")
#: the layer row of a filter pass on the observations cut to its switch + 1 steps
CUT = "filter [:s+1]"
#: the layer row of a filter pass handed no earlier pass, as em_loop's first
NEW = "filter (new)"
#: the layers whose traced peak ``--memory`` reports, of an EM shape and of a fitted order
MEMORY_LAYERS = (NEW, "filter_batch", "smooth_batch", "EM pass")
SCORING = ("kalman_filter", "empirical_fisher_log_det")
#: the orders whose Fisher is timed, per workload (None: every fitted order)
FISHER_ORDERS = {"narma10-observable": None,
                 "grid-d4": [d for bucket in BUCKETS for d in bucket]}


def import_side(checkout, name, into):
    shutil.copytree(os.path.join(checkout, "src", "ldsmdl"), os.path.join(into, name))
    return importlib.import_module(name)


def bucket_params(m, wl, Y, orders, seed, iters):
    """The parameters after ``iters`` EM iterations of one bucket's restarts,
    seeded and stacked as ``selection._fit_bucket`` and ``em.multi_order_fit``
    do, as a tuple of arrays."""
    data = m.SequenceData(Y=Y)
    inits = []
    for d in orders:
        order_seed = int(np.random.SeedSequence([seed, d]).generate_state(1)[0] % 2 ** 31)
        inits += [m.em.default_init(data, d, m.em.restart_seed(order_seed, r),
                                    fix_observation=wl.observable)
                  for r in range(wl.restarts)]
    res = m._engine.em_loop(m._engine.stack_params(inits), Y, eps=wl.eps, max_iters=iters,
                            fix_observation=wl.observable)
    return tuple(getattr(res["params"], f) for f in m.model.PARAM_FIELDS)


def em_shapes(grid, narma, seed):
    """(workload, observations, orders, EM iterations, layers) of every EM
    layer shape timed: the grid-d4 buckets, then each NARMA order."""
    Y = grid.sequence(seed)
    shapes = [(grid, Y, orders, EM_ITERS,
               ("filter_batch", CUT, "smooth_batch", "m_step_batch", "EM pass"))
              for orders in BUCKETS]
    Y = narma.sequence(seed)
    return shapes + [(narma, narma.observations(Y, d), [d], narma.max_iters,
                      ("filter_batch", CUT, "smooth_batch"))
                     for d in range(narma.d_min, narma.d_max + 1)]


def alternate(calls, runs):
    """The minimum time of each side's call over ``runs`` alternating turns."""
    best = dict.fromkeys(SIDES, np.inf)
    for i in range(runs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            calls[side]()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best


def peaks(calls):
    """The tracemalloc peak of one call of each side, in bytes."""
    best = {}
    for side in SIDES:
        tracemalloc.start()
        try:
            calls[side]()
            best[side] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return best


def fisher_cases(m, workloads, seed):
    """(workload, order, params arrays, observations, observable) of every
    order whose Fisher is timed, fitted by ``m``'s ``grid_search``."""
    cases = []
    for wl in workloads:
        Y = wl.sequence(seed)
        trace = wl.call({"seed": seed, "Y": Y, "data": m.SequenceData(Y=Y)})
        keep = FISHER_ORDERS[wl.name]
        for r in trace.per_order:
            if r.fit is None or (keep is not None and r.order not in keep):
                continue
            arrays = {f: getattr(r.fit.params, f) for f in m.model.PARAM_FIELDS}
            cases.append((wl.name, r.order, arrays, wl.observations(Y, r.order), wl.observable))
    return cases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--runs", type=int, default=40, help="timed calls per side and layer")
    ap.add_argument("--seed", type=int, default=0, help="the input seed of both workloads")
    ap.add_argument("--memory", action="store_true",
                    help="report each call's tracemalloc peak in KB instead of its time")
    args = ap.parse_args(argv)
    if args.memory:
        unit, scale = "KB", 1 / 1024
        measure = peaks
    else:
        unit, scale = "ms", 1e3
        measure = lambda calls: alternate(calls, args.runs)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sys.path.insert(0, checkouts["change"])
    from perfbench.workloads import GridD4, Narma10Observable

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mods = {side: import_side(checkouts[side], f"ldsmdl_{side}", tmp) for side in SIDES}
        m = mods["change"]
        wl, narma = GridD4(m, None), Narma10Observable(m, None)
        print(f"{'EM layers':<19} {'layer':<13} {'(B, D)':>8} {'T':>5} {'hint':>5} {'switch':>6} "
              f"{'parent ' + unit:>10} {'change ' + unit:>10} {'ratio':>6}")
        for shape_wl, Y, orders, iters, layers in em_shapes(wl, narma, args.seed):
            before = bucket_params(m, shape_wl, Y, orders, args.seed, iters - 1)
            arrays = bucket_params(m, shape_wl, Y, orders, args.seed, iters)
            # the change's switch on these parameters, where the cut ends
            cut = Y[:m._engine.filter_batch(m._engine.ParamsBatch(*arrays), Y)["switch"] + 1]
            calls, switch = {}, {}
            for side, ms in mods.items():
                eng = ms._engine
                pb = eng.ParamsBatch(*(a.copy() for a in arrays))
                # the pass before: each timed filter call overwrites its arrays,
                # but reads the switch it was handed
                prev = eng.filter_batch(eng.ParamsBatch(*(a.copy() for a in before)), Y)
                prev_cut = eng.filter_batch(eng.ParamsBatch(*(a.copy() for a in before)), cut)
                fr = eng.filter_batch(pb, Y)
                sm = eng.smooth_batch(pb, fr)
                switch[side] = (prev["switch"], fr["switch"])
                # the smoother's own earlier result, where it takes one
                smooth_kw = ({"reuse": sm} if "reuse" in inspect.signature(
                    eng.smooth_batch).parameters else {})

                def em_pass(eng=eng, pb=pb, prev=prev, kw=smooth_kw, Y=Y,
                            obs=shape_wl.observable):
                    f = eng.filter_batch(pb, Y, reuse=prev)
                    new, _, _ = eng.m_step_batch(eng.smooth_batch(pb, f, **kw), Y,
                                                 fix_observation=obs)
                    eng.enforce_stability_batch(new.A)

                calls[side] = {
                    NEW: lambda eng=eng, pb=pb, Y=Y: eng.filter_batch(pb, Y),
                    "filter_batch": lambda eng=eng, pb=pb, prev=prev, Y=Y:
                        eng.filter_batch(pb, Y, reuse=prev),
                    CUT: lambda eng=eng, pb=pb, prev=prev_cut, Y=cut:
                        eng.filter_batch(pb, Y, reuse=prev),
                    "smooth_batch": lambda eng=eng, pb=pb, fr=fr, kw=smooth_kw:
                        eng.smooth_batch(pb, fr, **kw),
                    "m_step_batch": lambda eng=eng, sm=sm, Y=Y, obs=shape_wl.observable:
                        eng.m_step_batch(sm, Y, fix_observation=obs),
                    "EM pass": em_pass,
                }
            shape = f"({arrays[0].shape[0]}, {arrays[0].shape[1]})"
            hint, sw = (str(v) if v == switch["change"][i] else f"{v}/{switch['change'][i]}"
                        for i, v in enumerate(switch["parent"]))
            for layer in ((NEW,) + layers if args.memory else layers):
                if args.memory and layer not in MEMORY_LAYERS:
                    continue
                best = measure({side: calls[side][layer] for side in SIDES})
                p, c = best["parent"] * scale, best["change"] * scale
                T = len(cut if layer == CUT else Y)
                print(f"{shape_wl.name:<19} {layer:<13} {shape:>8} {T:>5} {hint:>5} {sw:>6} "
                      f"{p:>10.3f} {c:>10.3f} {c / p:>6.3f}", flush=True)
        print(f"\n{'Fisher':<19} {'call':<24} {'d':>3} {'n':>4} {'T':>5} {'switch':>6} "
              f"{'parent ' + unit:>10} {'change ' + unit:>10} {'ratio':>6}")
        for name, d, arrays, Yd, observable in fisher_cases(m, (narma, wl), args.seed):
            calls = {call: {} for call in SCORING}
            for side, ms in mods.items():
                params, data = ms.LdsParams(**arrays), ms.SequenceData(Y=Yd)
                calls["kalman_filter"][side] = lambda ms=ms, params=params, data=data: \
                    ms.kalman_filter(params, data)
                calls["empirical_fisher_log_det"][side] = lambda ms=ms, params=params, data=data: \
                    ms.criteria.empirical_fisher_log_det(params, data,
                                                         fix_observation=observable)
            n = m.count_params(d, Yd.shape[1], fix_observation=observable).n_theta
            switch = m.kalman_filter(m.LdsParams(**arrays), m.SequenceData(Y=Yd)).switch
            for call in SCORING if args.memory else SCORING[1:]:
                best = measure(calls[call])
                p, c = best["parent"] * scale, best["change"] * scale
                print(f"{name:<19} {call:<24} {d:>3} {n:>4} {len(Yd):>5} {switch:>6} "
                      f"{p:>10.3f} {c:>10.3f} {c / p:>6.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
