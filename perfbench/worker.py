"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last line of output.
With ``--setup-only`` it stops once the first timed call's inputs are ready.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")
#: problems quoted in the output, at most
MAX_QUOTED = 5


def import_program():
    """Import ldsmdl from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, ROOT)
    import ldsmdl
    import ldsmdl.cli
    if not os.path.abspath(ldsmdl.__file__).startswith(src + os.sep):
        raise ImportError(f"ldsmdl was imported from {ldsmdl.__file__}, not {src}")
    return ldsmdl


def timed_calls(wl, inp, seed, seconds, traced_calls, probe):
    """Call the workload ``traced_calls`` times or, when that is 0, as long
    as the next call is expected to end within ``seconds`` of call time (at
    least once, and at most once per protocol sequence).  Probe chunks are
    not call time."""
    calls = []
    elapsed = 0.0
    while True:
        t0, p0 = time.perf_counter(), probe.total_s
        with probe:
            try:
                result, error = wl.call(inp), None
            except Exception:
                result, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        wall = t1 - t0 - (probe.total_s - p0)
        calls.append({"inp": inp, "result": result, "error": error, "wall_s": wall,
                      "ref_s": probe.reference_s(t0, t1)})
        elapsed += wall
        if traced_calls:
            if len(calls) >= traced_calls:
                return calls
        elif (elapsed * (len(calls) + 1) / len(calls) > seconds
              or len(calls) >= wl.protocol_seeds):
            return calls
        inp = wl.prepare((seed + len(calls)) % wl.protocol_seeds)


def check_calls(wl, calls):
    """Check every call's selection; returns (attempted, failed, problems,
    selections).  A call that raised fails all its orders but is no check
    failure."""
    from perfbench.workloads import Selection
    attempted = failed = 0
    problems, selections = [], []
    for c in calls:
        if c["error"] is not None:
            n = wl.expected_orders()
            attempted += n
            failed += n
            print(f"seed {c['inp']['seed']}: {c['error']}", file=sys.stderr)
            c["orders"] = 0
            continue
        try:
            sel = wl.check(c["inp"], c["result"])
        except Exception:
            sel = Selection(c["inp"]["seed"], [], [], None, [traceback.format_exc()],
                            [], wl.expected_orders())
        attempted += sel.attempted
        call_failed = sel.attempted if sel.problems else len(sel.errors)
        failed += call_failed
        problems.extend(f"seed {sel.seed}: {p}" for p in sel.problems)
        c["orders"] = sel.attempted - call_failed
        selections.append(sel)
    return attempted, failed, problems, selections


def environment():
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    import subprocess
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ldsmdl = import_program()
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import WORKLOADS
    workdir = os.path.join(RESULTS, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](ldsmdl, workdir)
        first_seed = args.seed % wl.protocol_seeds
        inp = wl.prepare(first_seed)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probe = SpeedProbe()
        tracer = None
        if args.trace:
            from perfbench.tracing import Tracer, install_all
            tracer = Tracer(clock=lambda: time.perf_counter() - probe.total_s)
            install_all(tracer, ldsmdl)
        calls = timed_calls(wl, inp, first_seed, args.seconds,
                            wl.traced_calls if args.trace else 0, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = None
        if tracer is not None:
            tracer.enabled = False
            from perfbench.tracing import layer_metrics
            layers = layer_metrics(tracer.spans)
        attempted, failed, problems, selections = check_calls(wl, calls)
        if selections and calls[0]["error"] is None:
            try:
                repeat = wl.repeat(calls[0]["inp"], selections[0])
            except Exception:
                repeat = [traceback.format_exc()]
            problems.extend(f"repeat of seed {first_seed}: {p}" for p in repeat)
        timed_s = sum(c["wall_s"] for c in calls)
        orders = sum(c["orders"] for c in calls)
        out = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:MAX_QUOTED],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "timed_s": timed_s,
            "orders": orders,
            "speed": probe.speed(),
            "reference_s": sum(c["ref_s"] for c in calls),
            "calls": [{"seed": c["inp"]["seed"], "wall_s": c["wall_s"], "ref_s": c["ref_s"],
                       "orders": c["orders"]} for c in calls],
            "fingerprint": [s.fingerprint() for s in selections],
            "layers": layers,
            "environment": environment(),
        }
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
