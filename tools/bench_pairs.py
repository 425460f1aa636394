"""Alternating parent/change pairs of the order-selection benchmark.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pr 4 \\
        --change "what the change does" --pairs 10 \\
        --claim narma10-observable/orders_per_s --claim-ratio 1.5

PARENT_DIR and CHANGE_DIR are two source checkouts, each with its own copy
of ``perfbench/``.  Make the parent with ``git worktree add --detach
PARENT_DIR <commit>`` (or a ``git clone`` checked out at it): the commit is
recorded only for a directory that is itself the top of a git work tree,
so a ``git archive`` copy records ``"parent_commit": null``.  The
command, the run length, the workloads and the end-to-end metrics come
from the change's ``BENCHMARK.json``; ``--pairs`` is at least 10.  Pair
i runs the command with ``--seed i`` on both sides, the parent first in
even pairs and the change first in odd pairs, with the workloads
interleaved within each pair.  After the pairs, each
side makes one traced run per workload at ``--seed 0``.  The behaviour
fingerprints of every pair are compared with the change's
``perfbench/compare_fingerprints.py``, whose per-seed differences are kept
and whose count of differing selections is printed.  Everything is written to
``BENCH_<pr>.json``: medians, quartiles and every run of the
end-to-end metrics, pair wins, the traced per-layer figures, fingerprint
results and the ``src/`` line count of both sides.

Standard library only; the runs themselves need numpy.
"""
import argparse
import glob
import json
import math
import os
import re
import statistics
import subprocess
import sys

MIN_PAIRS = 10


def run(checkout, bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    head, summary = json.loads(lines[-2]), json.loads(lines[-1])
    summary["environment"] = head["environment"]
    summary["fingerprint"] = os.path.join(
        checkout, "perfbench", "results",
        f"fingerprint-{workload}-seed{seed}-trace{trace}.json")
    return summary


def compare(change, old, new):
    """The fingerprint comparison: its exit code, its summary line, the
    per-seed "chosen order" and "DL" lines before it, and the number of
    common selections and of those that differ, read from the summary."""
    proc = subprocess.run([sys.executable, "perfbench/compare_fingerprints.py", old, new],
                          cwd=change, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    counts = re.search(r"(\d+) common selections, (\d+) differ", lines[-1])
    common, differ = map(int, counts.groups()) if counts else (0, 0)
    return {"exit": proc.returncode, "report": lines[-1], "differences": lines[:-1],
            "common": common, "differ": differ}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def wins(parent, change, better):
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def regression(m, bound):
    """The change median's relative move in the worse direction against the
    metric's bound.  The metric is unresolved when either side's quartile
    distance over median exceeds the bound, unless every change run beats
    every parent run."""
    p, c = m["parent"], m["change"]
    move = (c["median"] - p["median"]) / p["median"]
    if m["better"] == "higher":
        move = -move
        all_beat = min(c["runs"]) > max(p["runs"])
    else:
        all_beat = max(c["runs"]) < min(p["runs"])
    spreads = {side: (s["q3"] - s["q1"]) / s["median"] for side, s in (("parent", p),
                                                                          ("change", c))}
    return {"worse_move": move, "bound": bound, "exceeded": move > bound,
            "quartile_distance_over_median": spreads, "change_runs_all_better": all_beat,
            "unresolved": max(spreads.values()) > bound and not all_beat}


def src_lines(checkout):
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def git_head(checkout):
    """HEAD of ``checkout`` when it is itself a git toplevel, else None, as
    ``perfbench/worker.py:git_commit`` decides: a copy inside another
    repository must not report that repository's commit."""
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    lines = proc.stdout.split()
    if (proc.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(checkout)):
        return None
    return lines[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--change", dest="summary", required=True,
                    help="one line saying what the change does")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--claim", help="WORKLOAD/METRIC the change claims to improve")
    ap.add_argument("--claim-ratio", type=float, default=1.0,
                    help="least change/parent ratio of the medians the claim needs")
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end_metrics = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    untraced = {w: {"parent": [], "change": []} for w in workloads}
    fingerprints = {w: [] for w in workloads}
    environment = None
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            got = {}
            for side in order:
                got[side] = run(sides[side], bench, w, i, 0)
                print(f"pair {i} {w} {side}: orders_per_s "
                      f"{got[side]['metrics']['orders_per_s']['value']:.4g} "
                      f"correct {got[side]['correct']}", file=sys.stderr, flush=True)
                untraced[w][side].append(got[side])
            environment = got["change"]["environment"]
            fingerprints[w].append(dict(seed=i, **compare(
                sides["change"], got["parent"]["fingerprint"], got["change"]["fingerprint"])))

    end_to_end = {}
    for w, runs in untraced.items():
        entry = {"pairs": args.pairs, "seeds": list(range(args.pairs)),
                 "all_correct": all(r["correct"] for side in runs.values() for r in side),
                 "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()},
                 "failed": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()}}
        for metric, (unit, better) in end_to_end_metrics.items():
            values = {s: [r["metrics"][metric]["value"] for r in rs] for s, rs in runs.items()}
            entry[metric] = {
                "unit": unit, "better": better,
                "parent": spread(values["parent"]), "change": spread(values["change"]),
                "change_over_parent_median": (statistics.median(values["change"])
                                              / statistics.median(values["parent"])),
                "change_wins": f"{wins(values['parent'], values['change'], better)}/{args.pairs}"}
        end_to_end[w] = entry

    traced = {}
    for w in workloads:
        got = {side: run(sides[side], bench, w, 0, 1) for side in ("parent", "change")}
        traced[w] = {side: {k: m["value"] for k, m in got[side]["metrics"].items()}
                     for side in got}
        traced[w]["fingerprint"] = compare(sides["change"], got["parent"]["fingerprint"],
                                           got["change"]["fingerprint"])

    doc = {"pr": args.pr, "change": args.summary, "parent_commit": git_head(sides["parent"]),
           "environment": {k: v for k, v in environment.items() if k != "git_commit"},
           "method": {
               "command": " ".join(bench["command"]) + " --workload W --seed N "
                          f"--seconds {bench['run_seconds']:g} --trace 0",
               "pairs_per_workload": args.pairs, "seeds": list(range(args.pairs)),
               "order": "pair i uses --seed i on both sides; the parent runs first in "
                        "even pairs, the change first in odd pairs; the workloads are "
                        "interleaved within each pair",
               "machine": "orders_per_s is at the benchmark's reference speed",
               "quartiles": "statistics.quantiles(method='inclusive') over the runs per side",
               "tool": "tools/bench_pairs.py"},
           "end_to_end": end_to_end}
    if args.claim:
        w, metric = args.claim.split("/")
        m = end_to_end[w][metric]
        p, c = m["parent"], m["change"]
        ratio = c["median"] / p["median"]
        if m["better"] == "lower":
            ratio = 1 / ratio
        n_wins = int(m["change_wins"].split("/")[0])
        need_wins = math.ceil(0.9 * args.pairs)
        doc["claim"] = {
            "metric": args.claim,
            "required": f"change median >= {args.claim_ratio:g}x parent median, change "
                        f"better in >= {need_wins} of {args.pairs} pairs, median gap > "
                        f"parent quartile distance",
            "parent_median": p["median"], "change_median": c["median"], "ratio": ratio,
            "wins": m["change_wins"],
            "met": bool(ratio >= args.claim_ratio and n_wins >= need_wins
                        and abs(c["median"] - p["median"]) > p["q3"] - p["q1"])}
    doc["regressions"] = {w: {metric: regression(end_to_end[w][metric], bounds[metric])
                              for metric in end_to_end_metrics} for w in workloads}
    flagged = {kind: [f"{w}/{metric} {r['worse_move']:+.1%} (bound {r['bound']:.0%})"
                      for w, rs in doc["regressions"].items() for metric, r in rs.items()
                      if r[kind]]
               for kind in ("exceeded", "unresolved")}
    print("regressions: exceeded its bound: " + (", ".join(flagged["exceeded"]) or "none")
          + "; unresolved: " + (", ".join(flagged["unresolved"]) or "none"), file=sys.stderr)
    doc["traced_seed0"] = traced
    doc["fingerprints"] = {w: {"untraced_pairs": f, "all_exit_0": all(x["exit"] == 0 for x in f)}
                           for w, f in fingerprints.items()}
    print("fingerprints: " + ", ".join(
        f"{w} {sum(x['differ'] for x in f)} of {sum(x['common'] for x in f)} selections differ"
        f" (traced {traced[w]['fingerprint']['differ']})"
        for w, f in fingerprints.items()), file=sys.stderr)
    doc["src_lines"] = {side: src_lines(path) for side, path in sides.items()}
    print("src/ lines: " + ", ".join(f"{side} {n}" for side, n in doc["src_lines"].items()),
          file=sys.stderr)
    out = f"BENCH_{args.pr}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
