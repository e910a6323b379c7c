"""CLI behavior: configs, reports, exit codes, reproducibility."""

import csv
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coupledsk import cli, free_energy, interpolation, parallel
from coupledsk.cli import main
from coupledsk.configurations import nearest_admissible
from coupledsk.disorder import ExplicitSystemSampler, RostFieldSampler, get_sampler
from coupledsk.free_energy import NumericalError
from coupledsk.mixture import ConvexityWarning
from coupledsk.reference import build_explicit_rost


def run_cli(*args) -> int:
    return main(list(args))


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "mixture": {"a1": [0.0, 0.5], "a2": [0.0, 0.5], "h1": 0.0, "h2": 0.0},
        "n_list": [4],
        "m": 3,
        "u": 0.0,
        "eps_grid": [0.0, 0.5, 1.0],
        "t_grid": [0.5],
        "n_rep": 40,
        "seed": 7,
        "rost": {"m": 3, "delta": 0.05},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class WorkerReached(Exception):
    """Raised by a patched replica worker: the run got past its preconditions."""


def test_cli_import_leaves_scipy_and_pools_out():
    # scipy serves only the tests' oracles, and only a run on more than one
    # thread needs an executor; a CLI process must not pay for them on import
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, coupledsk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'multiprocessing', 'concurrent')))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_package_import_loads_no_submodule():
    # every import names a submodule, so `import coupledsk.bits` loads bits alone
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import coupledsk, sys; print(sorted(m for m in sys.modules if m.startswith('coupledsk.')))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("validate", "--config", str(tmp_path / "nope.json")) == 2

    def test_replica_floor(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_rep": 1}))
        assert run_cli("validate", "--config", str(path)) == 2

    def test_size_cap(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 18}))
        assert run_cli("free-energy", "--config", str(path)) == 2

    def test_unknown_sampler(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sampler": "quantum"}))
        assert run_cli("validate", "--config", str(path)) == 2

    def test_missing_rost_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rost_file": str(tmp_path / "ghost.json")}))
        assert run_cli("rost-eval", "--config", str(path)) == 2


MONTE_CARLO = ("overlap_logz_replicas", "estimate_F", "estimate_G", "structure_bound_check",
               "run_lemma2_curve", "run_lemma3_curve", "window_gap_profile",
               "superadditivity_check")


@pytest.fixture
def no_monte_carlo(monkeypatch):
    """Replace every estimator the CLI calls; the returned list records calls."""
    calls = []
    for name in MONTE_CARLO:
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    return calls


class TestPreconditions:
    @pytest.mark.parametrize("command", ["lemma3", "interp"])
    def test_nonconvex_mixture_exits_2_before_monte_carlo(self, command, tmp_path,
                                                          no_monte_carlo):
        path = tmp_path / "nonconvex.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [1.0, 0.0, -1.0], "a2": [1.0, 0.0, -1.0]},
            "n": 4, "m": 3, "n_rep": 10, "rost": {"m": 3, "delta": 0.05},
        }))
        with pytest.warns(ConvexityWarning):
            code = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert no_monte_carlo == []

    def test_interp_split_cap_exits_2(self, tmp_path, no_monte_carlo):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 8, "m": 6, "n_rep": 10}))
        assert run_cli("interp", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert no_monte_carlo == []

    @pytest.fixture(params=[("interp", {"n_list": [8], "m": 4}), ("lemma3", {"n_list": [12]})],
                    ids=["interp", "lemma3"])
    def p7_run(self, request, tmp_path, monkeypatch):
        """(run, workers) for a p = 7 config whose sizes, M + N = 12 for
        interp and N = 12 for lemma3, exceed the tensor route's budget: run
        takes a sampler and returns the exit code; workers records every
        replica worker reached, each of which stops the run."""
        command, sizes = request.param
        workers = []

        def reached(*args, _name):
            workers.append(_name)
            raise WorkerReached(_name)

        for module, name in ((free_energy, "_logz_worker"), (interpolation, "_curve_worker")):
            monkeypatch.setattr(module, name, functools.partial(reached, _name=name))

        def run(sampler):
            path = tmp_path / f"p7_{sampler}.json"
            path.write_text(json.dumps({
                "mixture": {"a1": [0, 0.5, 0, 0, 0, 0, 0.1], "a2": [0, 0.5]}, **sizes,
                "sampler": sampler, "t_grid": [0.5], "n_rep": 4, "rost": {"m": 3, "delta": 0.05},
            }))
            return run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))

        return run, workers

    def test_tensor_budget_exits_2_before_monte_carlo(self, p7_run, capsys):
        run, workers = p7_run
        assert run("tensor") == 2
        assert workers == []
        err = capsys.readouterr().err
        assert "312713952 bytes > budget 268435456; use the process sampler" in err

    def test_explicit_tensor_budget_exits_2_before_monte_carlo(self, tmp_path, capsys,
                                                               monkeypatch):
        # order 7 at M + n = 14 would draw a 14**7-double (843 MB) tensor a replica
        def reached(self, seeds):
            raise WorkerReached("ExplicitSystemSampler.sample_block")

        monkeypatch.setattr(ExplicitSystemSampler, "sample_block", reached)
        path = tmp_path / "p7_explicit.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [0, 0.5, 0, 0, 0, 0, 0.1], "a2": [0, 0.5]}, "n": 12, "m": 2,
            "n_rep": 4,
        }))
        out = tmp_path / "out"
        assert run_cli("explicit-rost", "--config", str(path), "--out", str(out)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "908179904 bytes a replica > budget 268435456" in lines[0]
        assert not out.exists()

    def test_process_route_takes_the_tensor_budget_sizes(self, p7_run):
        run, workers = p7_run
        with pytest.raises(WorkerReached):
            run("process")
        assert len(workers) == 1

    @pytest.mark.parametrize("command", ["lemma3", "interp"])
    @pytest.mark.parametrize("t_grid", [[1.5], [-0.2], [], ["0.5"], 0.5])
    def test_bad_t_grid_exits_2_before_monte_carlo(self, command, t_grid, small_config,
                                                   tmp_path, no_monte_carlo):
        data = json.loads(small_config.read_text())
        path = tmp_path / "bad_t.json"
        path.write_text(json.dumps({**data, "t_grid": t_grid}))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert no_monte_carlo == []

    @pytest.mark.parametrize("bad", [
        {"n_rep": "many"}, {"n_rep": 2.5}, {"seed": "x"}, {"seed": -1}, {"u": "0"},
        {"u": 1.5}, {"m": "three"}, {"m": [3]}, {"n_list": [4, "x"]}, {"n_list": 4},
        {"n_list": [4.5]}, {"eps_grid": [0, 0.5, "x"]}, {"eps_grid": [0, None]},
        {"eps_grid": [0, -0.5]}, {"eps_grid": 0.5},
        {"mixture": {"a1": [0, "x"], "a2": [0, 0.5]}}, {"mixture": {"a2": [0, 0.5]}},
        {"rost": {"m": "four", "delta": 0.05}}, {"rost": {"m": 0, "delta": 0.05}},
        {"rost": {"m": 3, "delta": 0.05, "gamma": 0}}, {"rost": {"m": 3, "delta": -0.1}},
        {"rost_file": 5},
        # coefficients whose copy products, or whose xi values' second
        # differences, overflow a double
        {"mixture": {"a1": [0, 1e200], "a2": [0, 0.5]}},
        {"mixture": {"a1": [0, 1e154], "a2": [0, 0.5]}},
    ], ids=lambda bad: json.dumps(bad).replace(" ", ""))
    def test_malformed_value_exits_2_before_monte_carlo(self, bad, small_config, tmp_path,
                                                        no_monte_carlo):
        data = json.loads(small_config.read_text())
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps({**data, **bad}))
        assert run_cli("free-energy", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert no_monte_carlo == []

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_empty_n_list_exits_2_before_monte_carlo(self, command, small_config, tmp_path,
                                                     no_monte_carlo, capsys):
        path = tmp_path / "no_sizes.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), "n_list": []}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: ") and "n_list" in lines[0]
        assert not out.exists()
        assert no_monte_carlo == []

    @pytest.mark.parametrize("command", ["free-energy", "lemma1", "superadd"])
    def test_repeated_size_exits_2_before_monte_carlo(self, command, tmp_path, no_monte_carlo,
                                                      capsys):
        # a repeated size would be run, and its rows written, twice, and lemma1
        # would fit a size trend through two distinct sizes
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps({"n_list": [4, 4, 6], "n_rep": 10, "seed": 1}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert lines == ["error: n_list must hold distinct sizes, got [4, 4, 6]"]
        assert not out.exists()
        assert no_monte_carlo == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2_before_monte_carlo(self, threads, small_config, tmp_path,
                                                         no_monte_carlo, capsys):
        out = tmp_path / "out"
        assert run_cli("free-energy", "--config", str(small_config), "--threads", threads,
                       "--out", str(out)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--threads" in lines[0]
        assert not out.exists()
        assert no_monte_carlo == []

    def test_config_that_is_not_json_exits_2(self, tmp_path, no_monte_carlo):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("free-energy", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert no_monte_carlo == []

    @pytest.mark.parametrize("command", ["rost-eval", "lemma3", "interp"])
    @pytest.mark.parametrize("structure", [
        "{bad",
        json.dumps({"q11": [[1.0]], "q12": [[0.0]], "q22": [[1.0]], "delta": 0.1, "u": 0.0}),
        json.dumps({"weights": {"kind": "dirichlet"}, "delta": 0.1, "u": 0.0}),
        json.dumps([1, 2]),
        json.dumps({"q11": [[1.0]], "q12": [[0.0]], "q22": [[1.0]], "delta": 0.1, "u": 0.0,
                    "weights": {"kind": "zipf"}}),
        json.dumps({"q11": [[1.0]], "q12": [[0.0]], "q22": [[1.0]], "delta": 0.1, "u": 0.0,
                    "weights": {"w": [1.0]}}),
        json.dumps({"q11": [[1.0]], "q12": [[0.0]], "q22": [[1.0]], "delta": 0.1, "u": 0.0,
                    "weights": {"kind": "fixed"}}),
        json.dumps({"q11": [[1.0]], "q12": [[0.0]], "q22": [[1.0]], "delta": 0.1, "u": 0.0,
                    "weights": {"kind": "fixed", "w": [0.5, 0.5]}}),
        json.dumps({"q11": [[1.0]], "q12": [[0.0]], "q22": [[1.0]], "delta": 0.1, "u": 0.0,
                    "weights": {"kind": "dirichlet", "gamma": -1.0}}),
    ], ids=["not-json", "no-weights", "no-q-matrices", "not-an-object", "unknown-kind",
            "no-kind", "fixed-without-w", "fixed-wrong-length", "negative-gamma"])
    def test_malformed_structure_file_exits_2_before_monte_carlo(
            self, command, structure, small_config, tmp_path, no_monte_carlo, capsys):
        rost_path = tmp_path / "rost.json"
        rost_path.write_text(structure)
        data = json.loads(small_config.read_text())
        del data["rost"]  # the file is the run's structure
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**data, "rost_file": str(rost_path)}))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert "structure file" in capsys.readouterr().err
        assert no_monte_carlo == []

    @pytest.mark.parametrize("command", ["rost-eval", "lemma3", "interp"])
    def test_structure_without_fields_exits_2_before_monte_carlo(
            self, command, small_config, tmp_path, no_monte_carlo, capsys):
        # a valid structure file whose q11 has the eigenvalue -0.8, so its
        # xi'(q) block admits no Gaussian fields for the pure p = 2 mixture
        q11 = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        rost_path = tmp_path / "rost.json"
        rost_path.write_text(json.dumps({
            "q11": q11, "q12": np.zeros((3, 3)).tolist(), "q22": np.eye(3).tolist(),
            "delta": 0.1, "u": 0.0, "weights": {"kind": "dirichlet"}}))
        data = json.loads(small_config.read_text())
        del data["rost"]  # the file is the run's structure
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**data, "rost_file": str(rost_path)}))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert "admits no Gaussian fields" in capsys.readouterr().err
        assert no_monte_carlo == []

    @pytest.mark.parametrize("eps_grid", [[0.0], []])
    def test_lemma1_without_positive_eps_exits_2_before_monte_carlo(
            self, eps_grid, small_config, tmp_path, no_monte_carlo):
        data = json.loads(small_config.read_text())
        path = tmp_path / "eps.json"
        path.write_text(json.dumps({**data, "eps_grid": eps_grid}))
        assert run_cli("lemma1", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert no_monte_carlo == []

    @pytest.mark.parametrize("config, sizes", [
        ({"n_list": [1, 2, 3], "n_rep": 200}, "1"),
        ({"n_list": [4, 6, 8, 10], "eps_grid": [0, 0.25], "n_rep": 50}, "4, 6"),
    ])
    def test_lemma1_window_of_the_exact_class_alone_exits_2_before_monte_carlo(
            self, config, sizes, tmp_path, no_monte_carlo, capsys):
        # such a size's excess constant is exactly 0 with standard error 0,
        # which pins the trend fit
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(config))
        assert run_cli("lemma1", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"holds d alone at n_list size(s) {sizes}")
        assert no_monte_carlo == []

    def test_largest_coefficients_a_double_holds_run_clean(self, small_config, tmp_path):
        data = json.loads(small_config.read_text())
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**data, "mixture": {"a1": [0, 1e153], "a2": [0, 0.5]}}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("free-energy", "--config", str(path), "--out", str(out)) == 0
        rows = (out / "free_energy.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(r.split(",")[-1])) for r in rows)

    @pytest.mark.parametrize("eps_grid", [[0.0], []])
    def test_free_energy_needs_no_positive_eps(self, eps_grid, small_config, tmp_path):
        data = json.loads(small_config.read_text())
        path = tmp_path / "eps.json"
        path.write_text(json.dumps({**data, "eps_grid": eps_grid}))
        assert run_cli("free-energy", "--config", str(path), "--out", str(tmp_path / "out")) == 0

    def test_numerical_error_exits_2(self, tmp_path, monkeypatch):
        def lost(*args, **kwargs):
            raise NumericalError("a disagreement class summed to a non-positive value")

        monkeypatch.setattr(cli, "overlap_logz_replicas", lost)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "n_rep": 10}))
        assert run_cli("free-energy", "--config", str(path), "--out", str(tmp_path / "out")) == 2

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def too_big(cfg):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setitem(cli.COMMANDS, "rost-eval", too_big)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "n_rep": 10}))
        assert run_cli("rost-eval", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert lines == ["error: Unable to allocate 74.5 GiB for an array"]

    def test_lost_cavity_class_exits_2(self, tmp_path, capsys):
        # fields too large for a double overflow the cavity ladder, which
        # would otherwise be reported as a nan G
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [0, 0.5], "a2": [0, 0.5], "h1": 1e308, "h2": 1e308},
            "n_list": [8], "n_rep": 4, "seed": 1, "rost": {"m": 3, "delta": 0.05},
        }))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning above the error
            assert run_cli("rost-eval", "--config", str(path), "--out", str(out)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "cavity ladder lost" in lines[0]
        assert not (out / "manifest.json").exists()

    def test_strong_cavity_fields_give_a_finite_g(self, tmp_path, capsys):
        # fields of several hundred per site put the ladder's classes
        # thousands of nats apart; the log-domain ladder keeps them all
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [0, 300], "a2": [0, 300]}, "n_list": [8], "n_rep": 4, "seed": 1,
            "rost": {"m": 3, "delta": 0.05},
        }))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("rost-eval", "--config", str(path), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert math.isfinite(results["g"]) and math.isfinite(results["stderr"])

    @pytest.mark.parametrize("command, m, h", [
        ("free-energy", 3, 1e308), ("lemma1", 3, 1e308), ("superadd", 3, 1e308),
        ("lemma3", 3, 1e308), ("validate", 3, 1e308), ("explicit-rost", 3, 1e308),
        ("interp", 3, 1e308), ("interp", None, 1e308),
        # fields of 1e5 leave only the all-up configuration a nonzero weight,
        # so the interpolation paths' class pair sums underflow to 0
        ("interp", 3, 1e5), ("interp", None, 1e5),
    ])
    def test_fields_that_lose_precision_exit_2(self, command, m, h, tmp_path, capsys):
        # one error line: no numpy warning above a traceback, no nan report
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [0, 0.5], "a2": [0, 0.5], "h1": h, "h2": h},
            "n": 6, "m": m, "n_rep": 4, "seed": 1, "t_grid": [0.5],
            "rost": {"m": 3, "delta": 0.05},
        }))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key, patch", [
        ("n_reps", {"n_reps": 3}),
        ("H1", {"mixture": {"a1": [0.0, 0.5], "a2": [0.0, 0.5], "H1": 0.3}}),
        ("Delta", {"rost": {"m": 3, "Delta": 0.05}}),
    ], ids=["top-level", "mixture", "rost"])
    def test_unknown_key_exits_2_before_monte_carlo(self, key, patch, small_config, tmp_path,
                                                    no_monte_carlo, capsys):
        # a misspelt key would otherwise run on its default
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), **patch}))
        assert run_cli("lemma3", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert repr(key) in capsys.readouterr().err
        assert no_monte_carlo == []

    @pytest.mark.parametrize("command, key, pair", [("free-energy", "n", "n and n_list"),
                                                    ("rost-eval", "rost_file", "rost and rost_file")],
                             ids=["n", "rost"])
    def test_two_keys_for_one_input_exit_2_before_monte_carlo(self, command, key, pair,
                                                               small_config, tmp_path,
                                                               no_monte_carlo, capsys):
        # small_config's n_list [4] beside n 5, or its rost generator beside a
        # 6-element structure file: neither may be dropped without a word
        rost_path = tmp_path / "rost.json"
        rost_path.write_text(json.dumps({
            "q11": np.eye(6).tolist(), "q12": np.zeros((6, 6)).tolist(),
            "q22": np.eye(6).tolist(), "delta": 0.05, "u": 0.0,
            "weights": {"kind": "dirichlet"}}))
        value = {"n": 5, "rost_file": str(rost_path)}[key]
        path = tmp_path / "both.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), key: value}))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "out")) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"both {pair}" in lines[0]
        assert no_monte_carlo == []

    @pytest.mark.parametrize("out", [5, None, ["reports"]])
    def test_out_that_is_not_a_path_exits_2_before_monte_carlo(self, out, small_config,
                                                               tmp_path, no_monte_carlo, capsys):
        path = tmp_path / "bad_out.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), "out": out}))
        assert run_cli("free-energy", "--config", str(path)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: out must be a path string")
        assert no_monte_carlo == []

    @pytest.mark.parametrize("key", ["n_rep", "seed", "u"])
    def test_integer_beyond_a_double_exits_2_before_monte_carlo(self, key, small_config,
                                                                tmp_path, no_monte_carlo, capsys):
        # json reads 10**400 as a Python int, which no double holds
        data = json.loads(small_config.read_text())
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**data, key: 10**400}))
        assert run_cli("free-energy", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be")
        assert no_monte_carlo == []

    @pytest.mark.parametrize("command", ["lemma3", "interp", "validate"])
    def test_estimate_that_overflows_exits_2(self, command, tmp_path, capsys):
        # a1 = 1e153 fits a double, but the derivative statistics and the
        # covariance products near 1e306 overflow their squares, so a standard
        # error would be inf (lemma3 passed its verdict on one)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [0, 1e153], "a2": [0, 0.5]}, "n": 4, "n_rep": 6, "m": 2,
            "rost": {"m": 3, "delta": 0.05},
        }))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "overflow" in lines[0]
        assert not out.exists()


class TestFreeEnergyCommand:
    def test_closed_form_row(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mixture": {"a1": [0.0], "a2": [0.0]},
            "n": 4, "u": 0.5, "eps_grid": [0.0], "n_rep": 2, "seed": 0,
        }))
        out = tmp_path / "out"
        assert run_cli("free-energy", "--config", str(cfg), "--out", str(out)) == 0
        import csv

        with open(out / "free_energy.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["mean"]) == pytest.approx(math.log(64) / 4, abs=1e-13)
        assert float(rows[0]["stderr"]) == 0.0
        assert rows[0]["k"] == "2"

    def test_manifest_embeds_config_and_seed(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("free-energy", "--config", str(small_config), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["mixture"]["a1"] == [0.0, 0.5]
        assert "timestamp" in manifest

    @pytest.mark.parametrize("structure", ["rost_file", "rost"])
    @pytest.mark.parametrize("sizes", [{"n": 5}, {"n_list": [5, 4]}], ids=["n", "n_list"])
    def test_manifest_config_is_the_input(self, sizes, structure, tmp_path):
        # every key off its default, of the two structure keys the one given:
        # the manifest records each as given, the one size n as n_list, the
        # structure key not given as null, and neither out nor --threads
        rost_path = tmp_path / "rost.json"
        rost_path.write_text(json.dumps({
            "q11": [[1.0]], "q12": [[0.25]], "q22": [[1.0]], "delta": 0.1, "u": 0.25,
            "weights": {"kind": "dirichlet"}}))
        out = tmp_path / "reports_of_the_config"
        cfg = {
            "mixture": {"a1": [0.1, 0.5, 0.25], "a2": [0.2, 0.5, 0.25], "h1": 0.1, "h2": -0.2},
            **sizes, "m": 2, "u": 0.25, "eps_grid": [0.0, 0.75], "t_grid": [0.4], "n_rep": 3,
            "seed": 11, "sampler": "process", "out": str(out),
        }
        structures = {"rost_file": str(rost_path), "rost": {"m": 2, "delta": 0.1, "gamma": 2.5}}
        cfg[structure] = structures[structure]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("free-energy", "--config", str(path), "--threads", "2") == 0
        expected = {key: value for key, value in cfg.items() if key not in ("n", "out")}
        expected["n_list"] = cfg.get("n_list", [cfg.get("n")])
        expected.update({key: None for key in structures if key != structure})
        assert json.loads((out / "manifest.json").read_text())["config"] == expected


class TestDeterminism:
    @pytest.mark.parametrize("command", ["free-energy", "validate", "lemma1"])
    def test_byte_identical_reruns(self, command, small_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(command, "--config", str(small_config), "--out", str(out1)) == 0
        assert run_cli(command, "--config", str(small_config), "--out", str(out2)) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            if f1.suffix == ".csv":
                assert f1.read_bytes() == f2.read_bytes()
            else:
                l1 = [l for l in f1.read_text().splitlines() if "timestamp" not in l]
                l2 = [l for l in f2.read_text().splitlines() if "timestamp" not in l]
                assert l1 == l2

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_threads_change_no_report(self, command, small_config, tmp_path, monkeypatch):
        # --threads changes wall time, never results.  The two-thread run
        # also cuts replica blocks small, so every Monte Carlo pass spans
        # several blocks and the pool runs two threads
        outs = {}
        for threads, block_doubles in ((1, parallel.BLOCK_DOUBLES), (2, 64)):
            monkeypatch.setattr(parallel, "BLOCK_DOUBLES", block_doubles)
            out = outs[threads] = tmp_path / f"threads{threads}"
            assert run_cli(command, "--config", str(small_config), "--threads", str(threads),
                           "--out", str(out)) == 0
        files = sorted(p.name for p in outs[1].iterdir())
        assert files == sorted(p.name for p in outs[2].iterdir())
        for name in files:
            one, two = ((outs[t] / name).read_bytes().splitlines() for t in (1, 2))
            if name == "manifest.json":
                one, two = ([l for l in lines if b'"timestamp":' not in l] for lines in (one, two))
            assert one == two, name

    def test_seed_override_changes_results(self, small_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli("free-energy", "--config", str(small_config), "--out", str(out1))
        run_cli("free-energy", "--config", str(small_config), "--out", str(out2),
                "--seed", "99")
        assert (out1 / "free_energy.csv").read_text() != (out2 / "free_energy.csv").read_text()


class TestStructureCommands:
    def test_rost_eval_from_file(self, tmp_path):
        q = [[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.0]]
        rost_path = tmp_path / "rost.json"
        rost_path.write_text(json.dumps({
            "q11": q, "q12": [[0.02, 0.0, 0.0], [0.0, -0.01, 0.0], [0.0, 0.0, 0.0]], "q22": q,
            "weights": {"kind": "dirichlet", "gamma": 1.0}, "delta": 0.05, "u": 0.0,
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mixture": {"a1": [0.0, 0.5], "a2": [0.0, 0.5]},
            "n": 4, "u": 0.0, "n_rep": 30, "seed": 2,
            "rost_file": str(rost_path),
        }))
        out = tmp_path / "out"
        assert run_cli("rost-eval", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "rost_eval.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + difference + both terms

    def test_explicit_rost_dual_path_verdict_is_relative(self, tmp_path):
        # terms near 8.6e152 whose ladder and brute-force sums agree to about
        # 4e-16 relative, an absolute gap near 4e137, which is reported
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [0, 1e153], "a2": [0, 0.5]}, "n": 4, "n_rep": 6, "m": 2,
        }))
        out = tmp_path / "out"
        assert run_cli("explicit-rost", "--config", str(path), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] and manifest["results"]["dual_path_gap"] > 1e-10

    @pytest.mark.parametrize("sampler", ["tensor", "process"])
    def test_interpolation_commands_draw_on_the_configured_route(self, sampler, small_config,
                                                                 tmp_path, monkeypatch):
        drawn = []

        def recorded(spec, n, kind):
            drawn.append((n, kind))
            return get_sampler(spec, n, kind)

        for module in (free_energy, interpolation):
            monkeypatch.setattr(module, "get_sampler", recorded)
        path = tmp_path / "route.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), "sampler": sampler,
                                    "n_rep": 4}))
        for command in ("interp", "lemma3"):
            run_cli(command, "--config", str(path), "--out", str(tmp_path / command))
        # interp draws M = 3, N = 4 and M + N = 7 spins, lemma3 N = 4
        assert {n for n, _ in drawn} == {3, 4, 7}
        assert {kind for _, kind in drawn} == {sampler}

    @pytest.mark.parametrize("command", ["rost-eval", "lemma3", "interp"])
    def test_a_run_factors_its_structure_once(self, command, small_config, tmp_path,
                                              monkeypatch):
        # the pre-Monte-Carlo check, the structure functional and the
        # structure-comparison path all read one field sampler
        builds = []
        init = RostFieldSampler.__init__

        def counted(self, *args):
            builds.append(command)
            init(self, *args)

        monkeypatch.setattr(RostFieldSampler, "__init__", counted)
        assert run_cli(command, "--config", str(small_config), "--out", str(tmp_path / "out")) == 0
        assert len(builds) == 1

    def test_lemma3_pass(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("lemma3", "--config", str(small_config), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is True

    def test_explicit_rost(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("explicit-rost", "--config", str(small_config), "--out", str(out)) == 0
        res = json.loads((out / "manifest.json").read_text())["results"]
        assert res["diag_exact"] and res["psd_ok"]
        assert res["dual_path_gap"] < 1e-10
        # the reported size, tolerance and diagonal are the structure's
        u_m = nearest_admissible(3, 0.0)
        rost = build_explicit_rost(u_m, 0.0)
        assert (res["elements"], res["delta"]) == (rost.m, rost.delta)
        assert res["diag_exact"] == bool(np.all(np.diag(rost.q12) == u_m.u))

    def test_explicit_rost_draws_each_replica_once(self, tmp_path, monkeypatch):
        # the dual-path check reads replicas 0..4 from the estimate's own draws;
        # the config is the structure benchmark's shape (M = 5, n = 6, 120 replicas)
        drawn = []
        draw = ExplicitSystemSampler.sample_block

        def counted(self, seeds):
            drawn.extend(seed.spawn_key for seed in seeds)
            return draw(self, seeds)

        monkeypatch.setattr(ExplicitSystemSampler, "sample_block", counted)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mixture": {"a1": [0, 0.5, 0, 0.2], "a2": [0, 0.4, 0, 0.3], "h1": 0.1, "h2": -0.2},
            "n_list": [6], "m": 5, "u": 0.2, "n_rep": 120, "seed": 1,
        }))
        assert run_cli("explicit-rost", "--config", str(path), "--out", str(tmp_path / "o")) == 0
        assert sorted(drawn) == [(rep, 0) for rep in range(120)]

    def test_explicit_rost_pair_cap_exits_2(self, small_config, tmp_path, capsys):
        # M = 8 at u = 0 has C(8, 4) * 2**8 = 17,920 pairs, beyond the cap
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), "m": 8}))
        assert run_cli("explicit-rost", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "pair set has 17920 elements" in capsys.readouterr().err

    def test_pair_cap_is_checked_before_any_pair_is_built(self, small_config, tmp_path,
                                                          capsys, monkeypatch):
        # M = 20 at u = 0 would have C(20, 10) * 2**20, about 1.9e11, pairs
        def built(m, d):
            raise AssertionError(f"pairs built for m={m}, d={d}")

        monkeypatch.setattr(free_energy, "_constrained_pairs", built)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), "m": 20}))
        assert run_cli("explicit-rost", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert f"pair set has {math.comb(20, 10) << 20} elements > cap" in capsys.readouterr().err


class TestSingleSizeCommands:
    @pytest.mark.parametrize("command, n_list, used, ignored", [
        ("rost-eval", [4, 6], [4], "6"),
        ("lemma3", [4, 6, 8], [4], "6, 8"),
        ("explicit-rost", [4, 6], [4], "6"),
        ("interp", [4, 6], [4], "6"),
        ("validate", [4, 6], [4], "6"),
        ("validate", [8], [6], "8"),
    ])
    def test_ignored_sizes_get_a_note(self, command, n_list, used, ignored, small_config,
                                      tmp_path, capsys):
        data = {**json.loads(small_config.read_text()), "n_rep": 10}
        reports = []
        for sizes in (n_list, used):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**data, "n_list": sizes}))
            out = tmp_path / "-".join(map(str, sizes))
            assert run_cli(command, "--config", str(path), "--out", str(out)) == 0
            reports.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
            lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
            if sizes == used:
                assert lines == []
            else:
                assert lines == [f"note: {command} runs at n = {used[0]} only; "
                                 f"it ignores n_list size(s) {ignored}"]
        assert reports[0] and reports[0] == reports[1]


class TestValidateCommand:
    def test_zero_disorder_exact(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mixture": {"a1": [0.0], "a2": [0.0]},
            "n": 4, "n_rep": 10, "seed": 0,
        }))
        out = tmp_path / "out"
        assert run_cli("validate", "--config", str(cfg), "--out", str(out)) == 0
        res = json.loads((out / "manifest.json").read_text())["results"]
        assert res["engine_oracle"]["max_rel_gap"] <= 1e-10
        assert res["covariance"]["max_sigmas"] == 0.0

    def test_interp_command(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("interp", "--config", str(small_config), "--out", str(out)) == 0
        lines = (out / "interp.csv").read_text().strip().splitlines()
        assert lines[0] == "kind,t,mean,stderr,d_fd,d_gibbs"
        assert len(lines) >= 3


class TestSuperaddCommand:
    def test_superadd_runs_and_reports(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("superadd", "--config", str(small_config), "--out", str(out)) == 0
        res = json.loads((out / "manifest.json").read_text())["results"]
        assert res["check"] == "superadditivity"
        assert "implied_shift_threshold" in res
        assert (out / "superadd.csv").exists()

    def test_superadd_reports_each_deficits_stderr(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("superadd", "--config", str(small_config), "--out", str(out)) == 0
        res = json.loads((out / "manifest.json").read_text())["results"]
        with open(out / "superadd.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["stderr"]) for r in rows] == res["normalized_deficit_stderrs"]
        assert len(rows) == len(res["sizes"]) and all(float(r["stderr"]) > 0 for r in rows)

    @pytest.mark.parametrize("command", ["superadd", "lemma1"])
    @pytest.mark.parametrize("n_list, assessed", [([4], False), ([3, 4, 5], True)])
    def test_an_untested_trend_gets_a_note(self, command, n_list, assessed, small_config,
                                           tmp_path, capsys):
        # n_list [4] leaves lemma1 one size and superadd the one pair (4, 4),
        # whose sum is one size: no trend is fitted, and the run says so but
        # still exits 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**json.loads(small_config.read_text()), "n_list": n_list,
                                    "n_rep": 10}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 0
        res = json.loads((out / "manifest.json").read_text())["results"]
        assert res["trend_assessed"] is assessed
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        note = f"note: {command} tested no size trend: that needs 3 or more sizes"
        assert lines == ([] if assessed else [note])
