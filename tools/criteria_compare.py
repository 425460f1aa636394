"""Compare the loglik and the five criteria of every fitted order, and the
annihilation walk, between two source checkouts.

    python3 tools/criteria_compare.py PARENT_DIR CHANGE_DIR \\
        [--grid-seeds 0 1 2] [--narma-seeds 0 1] [--walk-seeds 0 1 2]

Each checkout runs, in a subprocess that imports ``ldsmdl`` from that
checkout's ``src/`` and ``perfbench`` from the checkout:

- ``grid_search`` on the ``grid-d4`` and ``narma10-observable`` protocol
  sequences.  Every order's loglik and criterion values are compared bit
  for bit (as ``float.hex``).  One line per workload, seed and quantity
  gives how many orders differ, the largest relative change and each
  side's argmin (argmax for the loglik).
- ``annihilation_search`` on the ``cli-annihilate-d6`` protocol sequences
  (``perfbench.inputs.random_lds_sequence(6, seed)``) with that
  workload's settings: orders 2-12, 10 restarts, eps 1e-2, 35 iterations
  and the sequence seed as the seed.  The visited orders, each visited
  order's DL (as ``float.hex``), ``stopped_early`` and the pick are
  compared; one line per seed gives them for both sides, with the
  largest relative change of a DL.

The exit code is 0 when every value agrees and 1 otherwise.

Standard library only; the runs themselves need numpy.
"""
import argparse
import json
import os
import subprocess
import sys

#: run inside a checkout: prints {"grid": {workload: {seed: {order:
#: {quantity: hex}}}}, "walk": {seed: {"dl": [[order, hex], ..],
#: "stopped_early": bool, "chosen": order}}}
PROBE = """
import json, sys
import ldsmdl
from perfbench.inputs import random_lds_sequence
from perfbench.workloads import WORKLOADS
plan = json.loads(sys.argv[1])
out = {"grid": {}, "walk": {}}
for name, seeds in plan["grid"].items():
    wl = WORKLOADS[name](ldsmdl, None)
    out["grid"][name] = {}
    for seed in seeds:
        trace = wl.call(wl.prepare(seed))
        out["grid"][name][str(seed)] = {
            str(r.order): {"loglik": r.fit.loglik.hex(),
                           **{cv.name: cv.value.hex() for cv in r.criteria}}
            for r in trace.per_order if r.fit is not None}
for seed in plan["walk"]:
    # the settings of perfbench's CliAnnihilateD6.call
    trace = ldsmdl.annihilation_search(
        ldsmdl.SequenceData(Y=random_lds_sequence(6, seed)), ldsmdl.ModelOrderBounds(2, 12),
        ldsmdl.EmConfig(eps=1e-2, max_iters=35, n_restarts=10, seed=seed))
    out["walk"][str(seed)] = {"dl": [[r.order, r.dl.hex()] for r in trace.per_order],
                              "stopped_early": trace.stopped_early,
                              "chosen": trace.chosen_order}
print(json.dumps(out))
"""

#: the compared quantities, in print order
QUANTITIES = ("loglik", "aic", "bic", "fia", "mme", "mdl")


def values(checkout, plan):
    checkout = os.path.abspath(checkout)   # the subprocess runs inside it
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(plan)], cwd=checkout,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summary(old, new, quantity):
    """How many of the orders both sides fitted differ in ``quantity``, the
    largest relative change, and each side's best order."""
    a = {int(k): float.fromhex(v[quantity]) for k, v in old.items()}
    b = {int(k): float.fromhex(v[quantity]) for k, v in new.items()}
    common = sorted(a.keys() & b.keys())
    differ = sum(a[k] != b[k] for k in common)
    change = max((abs(b[k] - a[k]) / abs(a[k]) for k in common if a[k]), default=0.0)
    best = max if quantity == "loglik" else min
    pick = {side: best(v, key=v.get, default=None) for side, v in (("old", a), ("new", b))}
    kind = "argmax" if quantity == "loglik" else "argmin"
    return differ, len(common), (f"{quantity}: {differ} of {len(common)} differ, largest "
                                 f"relative change {change:.3g}, {kind} {pick['old']} -> "
                                 f"{pick['new']}")


def walk_summary(old, new):
    """How many of the walk's compared values differ between two runs: the
    visited orders, each DL both visited, ``stopped_early`` and the pick."""
    a, b = dict(old["dl"]), dict(new["dl"])     # visited order -> DL, in visiting order
    common = a.keys() & b.keys()
    dl_differ = sum(a[k] != b[k] for k in common)
    dl = {k: (float.fromhex(a[k]), float.fromhex(b[k])) for k in common}
    change = max((abs(y - x) / abs(x) for x, y in dl.values() if x), default=0.0)
    differ = (dl_differ + (list(a) != list(b))
              + (old["stopped_early"] != new["stopped_early"])
              + (old["chosen"] != new["chosen"]))
    return differ, len(common) + 3, (
        f"visited {list(a)} -> {list(b)}, DL: {dl_differ} of {len(common)} differ, "
        f"largest relative change {change:.3g}, "
        f"stopped_early {old['stopped_early']} -> {new['stopped_early']}, "
        f"pick {old['chosen']} -> {new['chosen']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--grid-seeds", type=int, nargs="*", default=[0, 1, 2])
    ap.add_argument("--narma-seeds", type=int, nargs="*", default=[0, 1])
    ap.add_argument("--walk-seeds", type=int, nargs="*", default=[0, 1, 2])
    args = ap.parse_args(argv)
    plan = {"grid": {"grid-d4": args.grid_seeds, "narma10-observable": args.narma_seeds},
            "walk": args.walk_seeds}
    old, new = values(args.parent, plan), values(args.change, plan)
    compared = differ = 0
    for name in plan["grid"]:
        grid_old, grid_new = old["grid"][name], new["grid"][name]
        for seed, orders in grid_old.items():
            if orders.keys() != grid_new[seed].keys():
                print(f"{name} seed {seed}: fitted orders {sorted(orders, key=int)} -> "
                      f"{sorted(grid_new[seed], key=int)}")
                differ += 1
            for quantity in QUANTITIES:
                n_differ, n, line = summary(orders, grid_new[seed], quantity)
                compared += n
                differ += n_differ
                print(f"{name} seed {seed} {line}")
    for seed, walk in old["walk"].items():
        n_differ, n, line = walk_summary(walk, new["walk"][seed])
        compared += n
        differ += n_differ
        print(f"walk seed {seed} {line}")
    print(f"{compared} values compared, {differ} differ")
    return 1 if differ or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
