"""Command-line harness: sequence generation, order selection, criterion tables.

Exit codes, from the ``STAGES`` table: 0 success, 2 config error, 3
generation error, 4 fitting failure, 5 I/O error.  The environment
variable LDSMDL_SEED overrides --seed when set; a negative seed is a
config error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import os
import sys

from .criteria import CRITERION_NAMES
from .datagen import (NarmaSpec, RandomLdsConfig, narma_generate,
                      preprocess_center_trim, random_stable_lds)
from .em import EmConfig
from .errors import LdsError
from .model import (LdsParams, ModelOrderBounds, read_sequence_csv, simulate,
                    write_sequence_csv)
from .selection import (annihilation_search, criterion_table, grid_search,
                        write_sweep_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_FITTING = 4
EXIT_IO = 5

_BAD_VALUE = (ValueError, KeyError, TypeError, OverflowError)
#: stage -> (exception types, exit code, stderr label)
STAGES = {
    "config": ((OSError,) + _BAD_VALUE, EXIT_CONFIG, "config error"),
    "generation": ((LdsError,) + _BAD_VALUE, EXIT_GENERATION, "generation error"),
    "fitting": ((LdsError,), EXIT_FITTING, "fitting failure"),
    "io": ((OSError,), EXIT_IO, "I/O error"),
}


class _StageFailure(Exception):
    """A failure matched to a ``STAGES`` row: (exit code, stderr line)."""


@contextlib.contextmanager
def _stage(*names):
    """Raise the first of the ``names`` rows that matches a failure."""
    try:
        yield
    except Exception as exc:
        for name in names:
            types, code, label = STAGES[name]
            if isinstance(exc, types):
                raise _StageFailure(code, f"{label}: {exc}") from exc
        raise


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(path, command: str, config_snapshot: dict, master_seed,
                    outputs: list, started: str) -> None:
    manifest = {
        "command": command,
        "config_snapshot": config_snapshot,
        "master_seed": master_seed,
        "outputs": [str(p) for p in outputs],
        "timestamps": {"started": started, "finished": _now()},
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _master_seed(seed: int) -> int:
    """LDSMDL_SEED when set, else ``seed``; a negative seed is a ValueError."""
    env = os.environ.get("LDSMDL_SEED")
    seed = int(env) if env is not None else seed
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def cmd_simulate(args) -> None:
    started = _now()
    with _stage("config"):
        with open(args.config) as fh:
            cfg = json.load(fh)
        kind = cfg["type"]
        if kind not in ("lds", "narma"):
            raise ValueError(f"unknown generator type {kind!r}")
        seed = cfg["seed"] = _master_seed(int(cfg.get("seed", 0)))
    with _stage("generation"):
        if kind == "lds":
            if "params" in cfg:
                params = LdsParams.from_dict(cfg["params"])
            else:
                params = random_stable_lds(RandomLdsConfig(
                    d=int(cfg["d"]), d_out=int(cfg.get("d_out", 1)),
                    entry_range=tuple(cfg.get("entry_range", (-1.0, 1.0))),
                    iw_dof=cfg.get("iw_dof"), seed=seed))
            data = simulate(params, T=int(cfg["length"]),
                            burn_in=int(cfg.get("burn_in", 0)), seed=seed)
        else:
            data = narma_generate(NarmaSpec(
                order=int(cfg["order"]), length=int(cfg["length"]),
                input_range=tuple(cfg.get("input_range", (0.0, 0.5))), seed=seed))
            if cfg.get("preprocess", False):
                data = preprocess_center_trim(data)
    with _stage("io"):
        write_sequence_csv(data, args.out)
        _write_manifest(args.out + ".manifest.json", "simulate", cfg, seed,
                        [args.out], started)


def _selection_snapshot(args, seed: int) -> dict:
    keys = ("input", "dmin", "dmax", "mode", "criterion", "restarts", "eps",
            "max_iters", "observable")
    return {**{k: getattr(args, k) for k in keys}, "seed": seed}


def _run_selection(args):
    """Read the input and run the selection; returns (trace, master seed)."""
    with _stage("config", "fitting"):
        seed = _master_seed(args.seed)
        bounds = ModelOrderBounds(d_min=args.dmin, d_max=args.dmax)
        if args.mode == "annihilate" and args.criterion != "mdl":
            raise ValueError(f"--mode annihilate picks by mdl, not by {args.criterion}")
        config = EmConfig(eps=args.eps, max_iters=args.max_iters,
                          n_restarts=args.restarts, seed=seed)
        data = read_sequence_csv(args.input)
        if args.mode == "annihilate":
            trace = annihilation_search(data, bounds, config,
                                        observable_mode=args.observable)
        else:
            trace = grid_search(data, bounds, config, criterion=args.criterion,
                                observable_mode=args.observable)
    return trace, seed


def cmd_select(args) -> None:
    started = _now()
    trace, seed = _run_selection(args)
    with _stage("io"):
        outputs = [args.out]
        with open(args.out, "w") as fh:
            fh.write(trace.to_json())
            fh.write("\n")
        if args.sweep:
            write_sweep_csv(trace, args.sweep)
            outputs.append(args.sweep)
        _write_manifest(args.out + ".manifest.json", "select",
                        _selection_snapshot(args, seed), seed, outputs, started)
    print(trace.chosen_order)


def cmd_compare(args) -> None:
    started = _now()
    trace, seed = _run_selection(args)
    rows, table = criterion_table(trace)
    with _stage("io"):
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["criterion", "argmin_order"]
                       + [f"d={r.order}" for r in rows])
            for name, (raw, norm, argmin) in table.items():
                w.writerow([name, argmin]
                           + [f"{nv:.4f} ({rv:.2f})" for nv, rv in zip(norm, raw)])
                print(f"{name}: {argmin}")
        _write_manifest(args.out + ".manifest.json", "compare",
                        _selection_snapshot(args, seed), seed, [args.out], started)


def _add_fit_options(p) -> None:
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=100)
    p.add_argument("--observable", action="store_true",
                   help="delay-embed a scalar sequence and fit with C = I fixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldsmdl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sequence CSV")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output sequence CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select", help="run order selection on a sequence CSV")
    p.add_argument("input", help="input sequence CSV")
    p.add_argument("--mode", choices=("annihilate", "grid"), default="grid")
    p.add_argument("--criterion", choices=CRITERION_NAMES, default="mdl")
    _add_fit_options(p)
    p.add_argument("--out", required=True, help="output SelectionTrace JSON")
    p.add_argument("--sweep", default=None, help="optional sweep CSV path")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("compare", help="normalized five-criterion table")
    p.add_argument("input", help="input sequence CSV")
    _add_fit_options(p)
    p.add_argument("--out", required=True, help="output comparison CSV")
    p.set_defaults(func=cmd_compare, mode="grid", criterion="mdl")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _StageFailure as failure:
        print(failure.args[1], file=sys.stderr)
        return failure.args[0]
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
