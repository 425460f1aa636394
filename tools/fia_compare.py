"""Compare the FIA value of every fitted order between two source checkouts.

    python3 tools/fia_compare.py PARENT_DIR CHANGE_DIR \\
        [--grid-seeds 0 1 2] [--narma-seeds 0 1]

Each checkout runs ``grid_search`` on the ``grid-d4`` and
``narma10-observable`` protocol sequences of its own ``perfbench``, in a
subprocess that imports ``ldsmdl`` from that checkout's ``src/``.  Every
order's FIA value is compared bit for bit (as ``float.hex``).  The exit
code is 0 when all of them agree and 1 otherwise.

Standard library only; the runs themselves need numpy.
"""
import argparse
import json
import os
import subprocess
import sys

#: run inside a checkout: prints {workload: {seed: {order: fia hex}}}
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
        out[name][str(seed)] = {str(r.order): r.criterion("fia").value.hex()
                                for r in trace.per_order if r.fit is not None}
print(json.dumps(out))
"""


def fia_values(checkout, plan):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(plan)], cwd=checkout,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--grid-seeds", type=int, nargs="*", default=[0, 1, 2])
    ap.add_argument("--narma-seeds", type=int, nargs="*", default=[0, 1])
    args = ap.parse_args(argv)
    plan = {"grid-d4": args.grid_seeds, "narma10-observable": args.narma_seeds}
    old, new = fia_values(args.parent, plan), fia_values(args.change, plan)
    compared = differ = 0
    for name in plan:
        for seed, values in old[name].items():
            for order in sorted(set(values) | set(new[name][seed]), key=int):
                a, b = values.get(order), new[name][seed].get(order)
                compared += 1
                if a != b:
                    differ += 1
                    print(f"{name} seed {seed} order {order}: FIA "
                          f"{a and float.fromhex(a)!r} -> {b and float.fromhex(b)!r}")
    print(f"{compared} order fits compared, {differ} FIA values differ")
    return 1 if differ or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
