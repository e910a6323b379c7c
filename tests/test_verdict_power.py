"""What the statistical verdicts catch: each is run with the fault it exists
to detect injected into the estimator its subcommand calls, at a stated
size, and must exit 1 there and 0 without the fault.

lemma3 asserts F <= G + first-sum bound + 4 sigma.  On the README config at
n_rep 200 its random Gram structure leaves G + bound - F = 0.209 with a
margin of 0.086, so a bias added to F's mean is caught between +0.2 and
+0.3.  superadd fits the trend of the normalized deficit
-((m+n) F_{m+n} - m F_m - n F_n) / sqrt(m+n) over m + n; lowering each F_n
by gamma n adds 2 gamma m n to that, which grows with the size.

lemma1 fits the trend of the window constant in excess of the zero-disorder
counting gaps over n.  On the README mixture at n 6, 8 and 10 and n_rep 20
it reads 0.052, 0.036 and 0.029, falling by about 0.005 a spin, with
standard errors of 0.008, 0.005 and 0.002, so a constant that grows by
0.005 a spin passes and one that grows by 0.01 a spin is caught.  (The raw
constant, 0.246, 0.258 and 0.208, rises and falls with the lattice of
admissible overlaps, and its trend let 0.02 a spin pass.)  interp asserts that
the structure-comparison second line is nonpositive and that the Gibbs
derivative agrees with the finite differences.  On the README config at
n = 6 and n_rep 20 the second line sits 0.16-0.22 below zero with standard
errors under 0.01, and the finite differences carry about 0.05, so a
second line shifted by +0.1 passes and one shifted by +0.2 fails both.
"""

import dataclasses
import json

import pytest

from coupledsk import cli, interpolation
from coupledsk.cli import main

README = {
    "mixture": {"a1": [0.0, 0.5], "a2": [0.0, 0.5], "h1": 0.0, "h2": 0.0},
    "n_list": [6, 8],
    "m": 4,
    "u": 0.0,
    "eps_grid": [0.0, 0.25, 0.5, 1.0],
    "t_grid": [0.25, 0.5, 0.75],
    "n_rep": 500,
    "seed": 1,
    "rost": {"m": 4, "delta": 0.05, "gamma": 1.0},
}


def _exit_code(tmp_path, command: str, config: dict) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def _shifted(estimate_F, shift):
    """estimate_F with shift(n) added to each estimate's mean."""

    def shifted(spec, c, *args):
        est = estimate_F(spec, c, *args)
        return dataclasses.replace(est, mean=est.mean + shift(c.n))

    return shifted


@pytest.mark.parametrize("bias, code", [(0.0, 0), (0.2, 0), (0.3, 1)])
def test_lemma3_catches_f_too_large(bias, code, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "estimate_F", _shifted(cli.estimate_F, lambda n: bias))
    assert _exit_code(tmp_path, "lemma3", {**README, "n_rep": 200}) == code


@pytest.mark.parametrize("gamma, code", [(0.0, 0), (0.05, 1)])
def test_superadd_catches_a_growing_deficit(gamma, code, tmp_path, monkeypatch):
    monkeypatch.setattr(interpolation, "estimate_F",
                        _shifted(interpolation.estimate_F, lambda n: -gamma * n))
    assert _exit_code(tmp_path, "superadd", {**README, "n_list": [3, 4, 5, 6], "n_rep": 20}) == code


@pytest.mark.parametrize("gamma, code",
                         [(0.0, 0), (0.005, 0), (0.01, 1), (0.02, 1), (0.05, 1)])
def test_lemma1_catches_a_growing_window_constant(gamma, code, tmp_path, monkeypatch):
    profile = cli.window_gap_profile

    def grown(spec, c, *args):
        prof = profile(spec, c, *args)
        return {**prof, "fitted_constant": prof["fitted_constant"] + gamma * c.n,
                "excess_constant": prof["excess_constant"] + gamma * c.n}

    monkeypatch.setattr(cli, "window_gap_profile", grown)
    assert _exit_code(tmp_path, "lemma1", {**README, "n_list": [6, 8, 10], "n_rep": 20}) == code


@pytest.mark.parametrize("shift, code", [(0.0, 0), (0.1, 0), (0.2, 1)])
def test_interp_catches_a_positive_second_line(shift, code, tmp_path, monkeypatch):
    # the first-sum column is held to first_sum_bound, past which the pass
    # raises instead of failing a verdict, so only the second line moves
    derivative = interpolation.lemma3_derivative_block

    def shifted(*args):
        out = derivative(*args)
        out[:, 2] += shift
        return out

    monkeypatch.setattr(interpolation, "lemma3_derivative_block", shifted)
    assert _exit_code(tmp_path, "interp", {**README, "n_list": [6], "n_rep": 20}) == code
