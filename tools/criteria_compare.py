"""Compare the loglik and the five criteria of every fitted order between
two source checkouts.

    python3 tools/criteria_compare.py PARENT_DIR CHANGE_DIR \\
        [--grid-seeds 0 1 2] [--narma-seeds 0 1]

Each checkout runs ``grid_search`` on the ``grid-d4`` and
``narma10-observable`` protocol sequences of its own ``perfbench``, in a
subprocess that imports ``ldsmdl`` from that checkout's ``src/``.  Every
order's loglik and criterion values are compared bit for bit (as
``float.hex``).  One line per workload, seed and quantity gives how many
orders differ, the largest relative change and each side's argmin (argmax
for the loglik).  The exit code is 0 when every value agrees and 1
otherwise.

Standard library only; the runs themselves need numpy.
"""
import argparse
import json
import os
import subprocess
import sys

#: run inside a checkout: prints {workload: {seed: {order: {quantity: hex}}}}
PROBE = """
import json, sys
import ldsmdl
from perfbench.workloads import WORKLOADS
out = {}
for name, seeds in json.loads(sys.argv[1]).items():
    wl = WORKLOADS[name](ldsmdl, None)
    out[name] = {}
    for seed in seeds:
        trace = wl.call(wl.prepare(seed))
        out[name][str(seed)] = {
            str(r.order): {"loglik": r.fit.loglik.hex(),
                           **{cv.name: cv.value.hex() for cv in r.criteria}}
            for r in trace.per_order if r.fit is not None}
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--grid-seeds", type=int, nargs="*", default=[0, 1, 2])
    ap.add_argument("--narma-seeds", type=int, nargs="*", default=[0, 1])
    args = ap.parse_args(argv)
    plan = {"grid-d4": args.grid_seeds, "narma10-observable": args.narma_seeds}
    old, new = values(args.parent, plan), values(args.change, plan)
    compared = differ = 0
    for name in plan:
        for seed, orders in old[name].items():
            if orders.keys() != new[name][seed].keys():
                print(f"{name} seed {seed}: fitted orders {sorted(orders, key=int)} -> "
                      f"{sorted(new[name][seed], key=int)}")
                differ += 1
            for quantity in QUANTITIES:
                n_differ, n, line = summary(orders, new[name][seed], quantity)
                compared += n
                differ += n_differ
                print(f"{name} seed {seed} {line}")
    print(f"{compared} values compared, {differ} differ")
    return 1 if differ or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
