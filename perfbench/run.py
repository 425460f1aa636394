"""Order-selection benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload grid-d4 --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``ldsmdl`` from its
``src``.  Each run starts fresh processes with BLAS fixed to one thread: a
few that only set up (import ldsmdl and make the first inputs) and one that
sets up, makes timed calls for ``--seconds`` seconds, checks every result
against computations made apart from the program, and reports.  With
``--trace 1`` the run instead makes a fixed number of calls with spans
around every layer and reports per-layer figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment block and the behaviour fingerprint (picks and
per-order DL), is written under ``perfbench/results/``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("grid-d4", "narma10-observable", "cli-annihilate-d6")
#: fresh processes per untraced run that only set up, half of them before
#: the measured process and half after it, so that the setup_s median spans
#: the run rather than one moment of it
SETUP_PROBES = 4
#: every run must end within this many seconds
DEADLINE_S = 175
#: one thread for every BLAS a numpy build may carry: a second OpenBLAS
#: thread competes for the other CPU without lowering wall time
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def worker(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker did not finish before the run deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def measure(args):
    deadline = time.monotonic() + DEADLINE_S

    def setup_probes():
        return [worker(args, ["--setup-only"], deadline)
                for _ in range(0 if args.trace else SETUP_PROBES // 2)]

    setups = setup_probes()
    res = worker(args, [], deadline)
    setups += setup_probes()
    speed = res["speed"]
    rate_raw = res["orders"] / res["timed_s"]
    rate = res["orders"] / res["reference_s"]
    if args.trace:
        metrics = dict(res["layers"])
        metrics["traced.orders_per_s"] = {"value": rate, "unit": "1/s"}
        metrics["traced.orders_per_s_raw"] = {"value": rate_raw, "unit": "1/s"}
        metrics["probe.speed"] = {"value": speed, "unit": "ratio"}
    else:
        setups.append(res)
        metrics = {
            "orders_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    res["raw"] = {"orders_per_s": rate_raw, "speed": speed,
                  "setup_s": [s["setup_s"] for s in setups]}
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    try:
        res, metrics = measure(args)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, f"fingerprint-{stem}.json"), "w") as fh:
        json.dump({"workload": args.workload, "selections": res.pop("fingerprint")},
                  fh, indent=1, sort_keys=True)
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(RESULTS, f"{stem}.json"), "w") as fh:
        json.dump(dict(res, settings=vars(args), metrics=metrics), fh, indent=1)
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": res["environment"], "raw": res["raw"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
