"""CLI behavior: configs, reports, exit codes, reproducibility."""

import json
import math

import numpy as np
import pytest

from coupledsk import cli
from coupledsk.cli import main
from coupledsk.disorder import random_gram_rost
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
               "run_lemma2_curve", "run_lemma3_curve")


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

    def test_numerical_error_exits_2(self, tmp_path, monkeypatch):
        def lost(*args, **kwargs):
            raise NumericalError("a disagreement class summed to a non-positive value")

        monkeypatch.setattr(cli, "overlap_logz_replicas", lost)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "n_rep": 10}))
        assert run_cli("free-energy", "--config", str(path), "--out", str(tmp_path / "out")) == 2


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
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(4))
        rost_path = tmp_path / "rost.json"
        rost_path.write_text(json.dumps(rost.to_dict()))
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
