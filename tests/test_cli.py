import csv
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from ldsmdl import count_params
from ldsmdl.cli import (EXIT_CONFIG, EXIT_FITTING, EXIT_GENERATION, EXIT_IO,
                        EXIT_OK, main)
from ldsmdl.errors import DegeneracyError


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def simulate_lds(tmp_path, seed=0, length=100, d=4):
    cfg = write_config(tmp_path, {"type": "lds", "d": d, "d_out": 1,
                                  "length": length, "burn_in": 20, "seed": seed})
    out = str(tmp_path / "seq.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    return out


class TestSimulate:
    def test_lds_shape(self, tmp_path):
        out = simulate_lds(tmp_path)
        rows = open(out).read().strip().splitlines()
        assert len(rows) == 100
        assert all(len(r.split(",")) == 1 for r in rows)

    def test_narma_shape(self, tmp_path):
        cfg = write_config(tmp_path, {"type": "narma", "order": 10,
                                      "length": 1000, "seed": 1})
        out = str(tmp_path / "n10.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        assert len(open(out).read().strip().splitlines()) == 1000

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, {"type": "lds", "d": 3, "d_out": 2,
                                      "length": 50, "seed": 7})
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", a]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", b]) == EXIT_OK
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_explicit_params(self, tmp_path):
        params = {"A": [[0.5]], "C": [[1.0]], "R1": [[0.0]], "R2": [[0.0]],
                  "mu0": [1.0], "R0": [[0.0]]}
        cfg = write_config(tmp_path, {"type": "lds", "params": params,
                                      "length": 3, "seed": 0})
        out = str(tmp_path / "det.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        np.testing.assert_allclose(np.loadtxt(out), [1.0, 0.5, 0.25])

    def test_manifest_written(self, tmp_path):
        out = simulate_lds(tmp_path, seed=3)
        doc = json.loads(open(out + ".manifest.json").read())
        assert doc["command"] == "simulate"
        assert doc["master_seed"] == 3
        assert doc["outputs"] == [out]
        assert "started" in doc["timestamps"]

    def test_bad_config_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"type": "mystery"})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize("seed", ["x1", None, -5, float("inf"), 1.5, True, "3"])
    def test_bad_config_seed_exit(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, {"type": "lds", "d": 1, "d_out": 1,
                                      "length": 5, "seed": seed})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_bad_env_seed_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LDSMDL_SEED", "abc")
        cfg = write_config(tmp_path, {"type": "lds", "d": 1, "d_out": 1,
                                      "length": 5, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_negative_env_seed_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LDSMDL_SEED", "-5")
        cfg = write_config(tmp_path, {"type": "lds", "d": 1, "d_out": 1,
                                      "length": 5, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_generation_error_exit(self, tmp_path):
        # NARMA length below order + 1 cannot be generated
        cfg = write_config(tmp_path, {"type": "narma", "order": 10, "length": 5})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_GENERATION

    @pytest.mark.parametrize("bad", [{"d": None}, {"d": 2, "length": [3]},
                                     {"d": 2, "length": float("inf")},
                                     {"d": float("inf")},
                                     {"d": 2, "burn_in": float("inf")},
                                     {"type": "narma", "order": float("inf")},
                                     {"d": 2, "length": 60.7}, {"d": 2.9},
                                     {"d": 2, "burn_in": 3.5}, {"d": 2, "length": True},
                                     {"d": 2, "length": "60"}, {"d": 2, "d_out": 1.0},
                                     {"type": "narma", "order": 10.0},
                                     {"type": "narma", "order": 10, "length": 60.7}])
    def test_wrongly_typed_generator_value_exit(self, tmp_path, capsys, bad):
        # a value that is not an integer where one is needed is not truncated
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, {"type": "lds", "length": 10, **bad})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_GENERATION
        err = capsys.readouterr().err
        assert err.startswith("generation error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("length", [60.7, "60", 0, -3])
    def test_bad_length_is_named_as_in_the_config(self, tmp_path, capsys, length):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, {"type": "lds", "d": 2, "length": length})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_GENERATION
        err = capsys.readouterr().err
        assert err.startswith("generation error: length ") and err.count("\n") == 1
        assert "T" not in err
        assert not out.exists()

    def test_io_error_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"type": "lds", "d": 1, "d_out": 1,
                                      "length": 5, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "no" / "such" / "dir.csv")]) == EXIT_IO

    @pytest.mark.parametrize("text", ["{}", "[1, 2]", "{"])
    def test_malformed_config_exit(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("size", [
        pytest.param({"d": 1000000000}, id="d-6.94EiB"),
        pytest.param({"d": 2, "length": 200000000000000000}, id="length-1.39EiB")])
    def test_unallocatable_generator_exit(self, tmp_path, capsys, size):
        # the first array asked for is over 1 EiB, beyond the user address space
        # of a 64-bit machine (at most 2^57 bytes), so it fails at once, and
        # under numpy's 2^63-byte limit, above which numpy raises ValueError
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, {"type": "lds", "length": 10, "seed": 0, **size})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_GENERATION
        err = capsys.readouterr().err
        assert err.startswith("generation error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_length_is_a_generation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"type": "lds", "d": 1, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_GENERATION
        err = capsys.readouterr().err
        assert err.startswith("generation error: ") and err.count("\n") == 1


class TestSelect:
    @staticmethod
    def run_select(tmp_path, seq, extra=()):
        out = str(tmp_path / "trace.json")
        sweep = str(tmp_path / "sweep.csv")
        code = main(["select", seq, "--dmin", "2", "--dmax", "2",
                     "--restarts", "2", "--eps", "1e-2", "--max-iters", "15",
                     "--out", out, "--sweep", sweep, *extra])
        return code, out, sweep

    def test_degenerate_bounds_print_and_trace(self, tmp_path, capsys):
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
        code, out, sweep = self.run_select(tmp_path, seq)
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"
        doc = json.loads(open(out).read())
        assert doc["chosen_order"] == 2
        assert doc["per_order"][0]["order"] == 2

    def test_sweep_csv_recomputes_from_loglik(self, tmp_path):
        seq = simulate_lds(tmp_path, seed=2, length=80, d=2)
        out = str(tmp_path / "t.json")
        sweep = str(tmp_path / "s.csv")
        assert main(["select", seq, "--dmin", "1", "--dmax", "3",
                     "--restarts", "2", "--eps", "1e-2", "--max-iters", "15",
                     "--out", out, "--sweep", sweep]) == EXIT_OK
        with open(sweep) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        for row in rows[1:]:
            order = int(row[header.index("order")])
            ll = float(row[header.index("loglik")])
            nt = count_params(order, 1).n_theta
            assert float(row[header.index("aic")]) == pytest.approx(
                -2 * ll + 2 * nt, abs=1e-10)
            assert float(row[header.index("bic")]) == pytest.approx(
                -2 * ll + nt * math.log(80), abs=1e-10)

    def test_invalid_bounds_exit(self, tmp_path):
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
        out = str(tmp_path / "t.json")
        assert main(["select", seq, "--dmin", "3", "--dmax", "2",
                     "--out", out]) == EXIT_CONFIG

    def test_unreadable_input_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a\nnumber,table,x\n")
        out = str(tmp_path / "t.json")
        assert main(["select", str(bad), "--dmin", "2", "--dmax", "2",
                     "--out", out]) == EXIT_CONFIG

    def test_fitting_failure_exit(self, tmp_path, monkeypatch):
        import ldsmdl.cli as cli
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)

        def boom(*a, **k):
            raise DegeneracyError("every candidate order failed to fit")

        monkeypatch.setattr(cli, "grid_search", boom)
        assert main(["select", seq, "--dmin", "2", "--dmax", "2",
                     "--out", str(tmp_path / "t.json")]) == EXIT_FITTING

    def test_out_of_memory_fitting_exit(self, tmp_path, monkeypatch, capsys):
        import ldsmdl.cli as cli
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)

        def boom(*a, **k):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "grid_search", boom)
        assert main(["select", seq, "--dmin", "2", "--dmax", "2",
                     "--out", str(tmp_path / "t.json")]) == EXIT_FITTING
        assert capsys.readouterr().err == "fitting failure: Unable to allocate 74.5 GiB\n"

    def test_out_of_memory_in_a_bucket_worker_exit(self, tmp_path, monkeypatch, capsys):
        import ldsmdl.selection as selection
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
        parent, marker = os.getpid(), tmp_path / "child-started"
        real = selection._fit_bucket

        def fails_in_the_child(*args, **kwargs):
            if os.getpid() != parent:
                marker.touch()
                raise MemoryError("Unable to allocate 74.5 GiB")
            # hold this process's bucket until the child has taken the other one
            deadline = time.monotonic() + 60
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return real(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(selection, "_fit_bucket", fails_in_the_child)
        assert main(["select", seq, "--dmin", "1", "--dmax", "2",
                     "--out", str(tmp_path / "t.json")]) == EXIT_FITTING
        assert capsys.readouterr().err == "fitting failure: Unable to allocate 74.5 GiB\n"
        assert marker.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows, extra, reason", [
        pytest.param("", (), "T >= 2", id="empty"),
        pytest.param("1.5\n", (), "T >= 2", id="one-row"),
        pytest.param("1,2\n3,4\n5,6\n", ("--observable",), "scalar", id="observable-two-columns"),
    ])
    def test_unfittable_input_exit(self, tmp_path, capsys, rows, extra, reason):
        seq = tmp_path / "seq.csv"
        seq.write_text(rows)
        assert main(["select", str(seq), "--dmin", "1", "--dmax", "2", *extra,
                     "--out", str(tmp_path / "t.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert reason in err and "failed to fit" not in err

    # a finite sequence whose second moments overflow, by design
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_input_is_a_fitting_failure(self, tmp_path, capsys):
        seq = tmp_path / "seq.csv"
        signs = np.random.default_rng(0).choice([-1.0, 1.0], size=50)
        np.savetxt(seq, 1e200 * signs, fmt="%.17g")
        code, _out, _sweep = self.run_select(tmp_path, str(seq))
        assert code == EXIT_FITTING
        assert capsys.readouterr().err == (
            "fitting failure: every candidate order failed to fit\n")

    def test_non_finite_eps_exit(self, tmp_path):
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
        assert main(["select", seq, "--dmin", "2", "--dmax", "2", "--eps", "nan",
                     "--out", str(tmp_path / "t.json")]) == EXIT_CONFIG

    # the walk picks by the DL alone
    @pytest.mark.parametrize("criterion", ["aic", "bic", "fia", "mme"])
    def test_annihilate_with_other_criterion_exit(self, tmp_path, capsys, criterion):
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
        before = set(tmp_path.iterdir())
        code, _out, _sweep = self.run_select(
            tmp_path, seq, ("--mode", "annihilate", "--criterion", criterion))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert set(tmp_path.iterdir()) == before

    def test_error_rows_write_valid_json(self, tmp_path):
        # orders 4 and 3 cannot be fitted to three rows
        seq = tmp_path / "seq.csv"
        seq.write_text("1\n2\n3\n")
        out = tmp_path / "t.json"
        assert main(["select", str(seq), "--observable", "--mode", "annihilate",
                     "--dmin", "1", "--dmax", "4", "--restarts", "2",
                     "--out", str(out)]) == EXIT_OK

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=reject)
        rows = {r["order"]: r for r in doc["per_order"]}
        assert rows[4]["error"] and rows[3]["error"]
        assert rows[4]["dl"] is None and rows[3]["dl"] is None
        assert all(math.isfinite(r["dl"]) for r in rows.values() if r["error"] is None)

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        seq = simulate_lds(tmp_path, seed=4, length=60, d=2)
        monkeypatch.setenv("LDSMDL_SEED", "123")
        code, out_a, _ = self.run_select(tmp_path, seq, extra=("--seed", "1"))
        assert code == EXIT_OK
        a = open(out_a).read()
        code, out_b, _ = self.run_select(tmp_path, seq, extra=("--seed", "2"))
        assert code == EXIT_OK
        assert open(out_b).read() == a
        doc = json.loads(open(out_a + ".manifest.json").read())
        assert doc["master_seed"] == 123

    def test_manifest_reproduces_run(self, tmp_path):
        seq = simulate_lds(tmp_path, seed=5, length=60, d=2)
        code, out, sweep = self.run_select(tmp_path, seq)
        assert code == EXIT_OK
        doc = json.loads(open(out + ".manifest.json").read())
        snap = doc["config_snapshot"]
        first = open(out, "rb").read() + open(sweep, "rb").read()
        out2 = str(tmp_path / "t2.json")
        sweep2 = str(tmp_path / "s2.csv")
        assert main(["select", snap["input"],
                     "--mode", snap["mode"], "--criterion", snap["criterion"],
                     "--dmin", str(snap["dmin"]), "--dmax", str(snap["dmax"]),
                     "--restarts", str(snap["restarts"]),
                     "--seed", str(snap["seed"]), "--eps", str(snap["eps"]),
                     "--max-iters", str(snap["max_iters"]),
                     "--out", out2, "--sweep", sweep2]) == EXIT_OK
        second = open(out2, "rb").read() + open(sweep2, "rb").read()
        assert first == second


    @pytest.mark.parametrize("mode", ["grid", "annihilate"])
    def test_manifest_records_the_workers_and_the_trace_does_not(self, tmp_path,
                                                                 monkeypatch, mode):
        seq = simulate_lds(tmp_path, seed=5, length=60, d=2)
        texts = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = str(tmp_path / f"t{cpus}.json")
            # orders 1-3 are the two buckets [1] and [2, 3]
            assert main(["select", seq, "--mode", mode, "--dmin", "1", "--dmax", "3",
                         "--restarts", "2", "--max-iters", "10", "--out", out]) == EXIT_OK
            manifest = json.loads(open(out + ".manifest.json").read())
            assert manifest["workers"] == min(cpus, 2)
            texts[cpus] = open(out).read()
        assert texts[1] == texts[2] == texts[8]
        assert "workers" not in texts[1]


class TestCompare:
    def test_structure_and_ranges(self, tmp_path, capsys):
        seq = simulate_lds(tmp_path, seed=6, length=80, d=2)
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", seq, "--dmin", "1", "--dmax", "3",
                     "--restarts", "2", "--eps", "1e-2", "--max-iters", "15",
                     "--out", out]) == EXIT_OK
        printed = capsys.readouterr().out.strip().splitlines()
        names = [line.split(":")[0] for line in printed]
        assert names == ["aic", "bic", "fia", "mme", "mdl"]
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["criterion", "argmin_order"]
        assert len(rows) == 6
        for row in rows[1:]:
            assert int(row[1]) in (1, 2, 3)
            for cell in row[2:]:
                norm = float(cell.split(" ")[0])
                assert 0.0 <= norm <= 1.0

    def test_invalid_bounds_exit(self, tmp_path):
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
        for dmin, dmax in (("3", "2"), ("0", "2")):
            assert main(["compare", seq, "--dmin", dmin, "--dmax", dmax,
                         "--out", str(tmp_path / "cmp.csv")]) == EXIT_CONFIG

    def test_fitting_failure_exit(self, tmp_path, monkeypatch):
        import ldsmdl.cli as cli
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)

        def boom(*a, **k):
            raise DegeneracyError("every candidate order failed to fit")

        monkeypatch.setattr(cli, "grid_search", boom)
        assert main(["compare", seq, "--dmin", "2", "--dmax", "2",
                     "--out", str(tmp_path / "cmp.csv")]) == EXIT_FITTING

    def test_non_finite_eps_exit(self, tmp_path):
        seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
        assert main(["compare", seq, "--dmin", "2", "--dmax", "2", "--eps", "inf",
                     "--out", str(tmp_path / "cmp.csv")]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["select", "compare"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_negative_seed_exit(tmp_path, monkeypatch, capsys, command, via):
    seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
    capsys.readouterr()
    if via == "env":
        monkeypatch.setenv("LDSMDL_SEED", "-3")
    extra = ("--seed", "-3") if via == "flag" else ()
    assert main([command, seq, "--dmin", "2", "--dmax", "2", *extra,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "seed" in err


@pytest.mark.parametrize("command, missing", [("select", "--out"), ("select", "--sweep"),
                                              ("compare", "--out")])
def test_output_into_missing_directory_exit(tmp_path, capsys, command, missing):
    seq = simulate_lds(tmp_path, seed=1, length=60, d=2)
    outputs = {"--out": str(tmp_path / "out")}
    if command == "select":
        outputs["--sweep"] = str(tmp_path / "sweep.csv")
    outputs[missing] = str(tmp_path / "no" / "such" / "file")
    capsys.readouterr()
    assert main([command, seq, "--dmin", "2", "--dmax", "2", "--restarts", "2",
                 "--eps", "1e-2", "--max-iters", "15",
                 *[a for kv in outputs.items() for a in kv]]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("I/O error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
