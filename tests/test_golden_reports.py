"""Golden reports: every subcommand on a small fixed config against stored output.

Each subcommand runs on the same config as ``test_cli.small_config``, and
``free-energy``, ``interp``, ``lemma3`` and ``validate`` run once more on it
with the process-route sampler.  Every
CSV cell and every manifest ``results`` value is compared with the fixtures
under ``tests/data/golden/<command>/``: integers and strings exactly, other
numbers to a relative 1e-12.  The manifests of ``lemma1``, ``lemma3`` and
``superadd`` carry a shared check-dict shape, so for them the stored values
must be present and equal while extra keys are allowed.

Regenerate the fixtures (only when a report change is intended) with
``PYTHONPATH=src python tests/test_golden_reports.py [CASE ...]``; without a
case name every fixture is rewritten.
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from coupledsk.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIG = {
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
# fixture directory -> (subcommand, config)
CASES = {command: (command, CONFIG) for command in COMMANDS}
for command in ("free-energy", "interp", "lemma3", "validate"):
    CASES[f"{command}.process"] = (command, {**CONFIG, "sampler": "process"})
CHECK_SHAPED = {"lemma1", "lemma3", "superadd"}
REL = 1e-12


def _run(case: str, tmp: Path) -> Path:
    command, config = CASES[case]
    cfg = tmp / f"{case}.json"
    cfg.write_text(json.dumps(config))
    out = tmp / case
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _same(expected, actual, where: str, extra_keys_ok: bool = False) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        if not extra_keys_ok:
            assert set(actual) == set(expected), where
        for key, val in expected.items():
            assert key in actual, f"{where}.{key} missing"
            _same(val, actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            _same(e, a, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, (bool, str)):
        if math.isfinite(expected):
            assert actual == pytest.approx(expected, rel=REL, abs=0.0), where
        else:
            assert actual == expected, where
    else:
        assert type(actual) is type(expected) and actual == expected, where


def _cell(text: str):
    """A CSV cell as an int, a float, a JSON document, or the string itself."""
    for parse in (int, float, json.loads):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _csv(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden(case, tmp_path):
    out = _run(case, tmp_path)
    golden = GOLDEN / case
    csvs = sorted(p.name for p in golden.glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in out.glob("*.csv"))
    for name in csvs:
        _same(_csv(golden / name), _csv(out / name), f"{case}/{name}")
    manifest = json.loads((out / "manifest.json").read_text())
    stored = json.loads((golden / "results.json").read_text())
    assert manifest["pass"] is stored["pass"]
    _same(stored["results"], manifest["results"], f"{case}/results",
          extra_keys_ok=CASES[case][0] in CHECK_SHAPED)


def _regenerate(tmp: Path, cases: list[str]) -> None:
    for case in cases:
        out = _run(case, tmp)
        dest = GOLDEN / case
        dest.mkdir(parents=True, exist_ok=True)
        for path in out.glob("*.csv"):
            (dest / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        stored = {"results": manifest["results"], "pass": manifest["pass"]}
        (dest / "results.json").write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp), sys.argv[1:] or sorted(CASES))
    sys.exit(0)
