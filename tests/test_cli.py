"""CLI behavior: configs, reports, exit codes, reproducibility."""

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from coupledsk import cli, free_energy, interpolation
from coupledsk.cli import main
from coupledsk.disorder import get_sampler
from coupledsk.free_energy import NumericalError
from coupledsk.mixture import ConvexityWarning


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


def test_cli_import_leaves_scipy_out():
    # scipy serves only the tests' oracles; a CLI process must not pay for it
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, coupledsk.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
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
               "run_lemma2_curve", "run_lemma3_curve", "window_gap_profile")


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

        for module, name in ((free_energy, "_logz_worker"), (interpolation, "_lemma2_worker"),
                             (interpolation, "_lemma3_worker")):
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
        {"rost_file": 5},
    ], ids=lambda bad: json.dumps(bad).replace(" ", ""))
    def test_malformed_value_exits_2_before_monte_carlo(self, bad, small_config, tmp_path,
                                                        no_monte_carlo):
        data = json.loads(small_config.read_text())
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps({**data, **bad}))
        assert run_cli("free-energy", "--config", str(path), "--out", str(tmp_path / "out")) == 2
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
    ], ids=["not-json", "no-weights", "no-q-matrices", "not-an-object", "unknown-kind",
            "no-kind", "fixed-without-w", "fixed-wrong-length"])
    def test_malformed_structure_file_exits_2_before_monte_carlo(
            self, command, structure, small_config, tmp_path, no_monte_carlo, capsys):
        rost_path = tmp_path / "rost.json"
        rost_path.write_text(structure)
        data = json.loads(small_config.read_text())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**data, "rost_file": str(rost_path)}))
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert "structure file" in capsys.readouterr().err
        assert no_monte_carlo == []

    @pytest.mark.parametrize("eps_grid", [[0.0], []])
    def test_lemma1_without_positive_eps_exits_2_before_monte_carlo(
            self, eps_grid, small_config, tmp_path, no_monte_carlo):
        data = json.loads(small_config.read_text())
        path = tmp_path / "eps.json"
        path.write_text(json.dumps({**data, "eps_grid": eps_grid}))
        assert run_cli("lemma1", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert no_monte_carlo == []

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
