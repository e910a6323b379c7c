"""Experiment runner: every check as a subcommand with JSON configs.

Reports are flat CSV plus a JSON manifest; the manifest embeds the resolved
config and root seed, and its timestamp is the single line that may differ
between identical reruns.  Exit codes: 0 all asserted checks pass, 1 a check
failed, 2 config or resource error (see main for the errors mapped to 2).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bits import CONFIG_CAP
from .configurations import admissible_sequence, construct_u_prime, nearest_admissible
from .disorder import (
    DirichletWeights,
    NumericalError,
    ResourceError,
    RostInvalidError,
    RostSpec,
    get_field_sampler,
    random_gram_rost,
)
from .free_energy import (
    WHT_CAP,
    Estimate,
    estimate_F,
    estimate_G,
    overlap_logz_replicas,
    window_estimate,
)
from .interpolation import (
    run_lemma2_curve,
    run_lemma3_curve,
    structure_bound_check,
    superadditivity_check,
    window_constant_check,
    window_gap_profile,
)
from .mixture import MixtureSpec, NonConvexMixtureError, require_convex
from .parallel import rng_for
from .reference import explicit_rost_check, validate_check


class ConfigError(ValueError):
    pass


# the rost generator's keys, each with the bounds _number checks it against
ROST_GEN = {"m": {"integral": True, "lo": 1}, "delta": {"lo": 0},
            "gamma": {"lo": 0, "lo_open": True}}


def _known_keys(obj: dict, known, where: str) -> None:
    """ConfigError naming every key of obj outside known: a misspelt key
    would otherwise fall back to its default without a word."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"expected some of {', '.join(sorted(known))}")


def _number(value, name: str, integral: bool = False, lo: float = -math.inf,
            hi: float = math.inf, lo_open: bool = False):
    """value unchanged if it is a JSON number that a double holds finitely
    (integral if asked), in [lo, hi], or in (lo, hi] if lo_open."""
    ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
          and abs(value) <= sys.float_info.max and (not integral or float(value).is_integer())
          and (lo < value if lo_open else lo <= value) and value <= hi)
    if not ok:
        kind = "an integer" if integral else "a finite number"
        if lo > -math.inf or hi < math.inf:
            kind += f" in {'(' if lo_open else '['}{lo:g}, {hi:g}{']' if hi < math.inf else ')'}"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def _numbers(values, name: str, nonempty: bool = False, **bounds) -> tuple:
    """values as a tuple if they are a list (nonempty if asked) of numbers
    _number accepts within bounds."""
    if not isinstance(values, (list, tuple)) or (nonempty and not values):
        kind = "a nonempty list" if nonempty else "a list"
        raise ConfigError(f"{name} must be {kind}, got {values!r}")
    return tuple(_number(v, f"{name} entry", **bounds) for v in values)


def _path(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return value


def _mixture(mix) -> MixtureSpec:
    if not isinstance(mix, dict) or not {"a1", "a2"} <= mix.keys():
        raise ConfigError(f"mixture must be an object with lists a1 and a2, got {mix!r}")
    _known_keys(mix, [f.name for f in fields(MixtureSpec)], "mixture")
    a1, a2 = _numbers(mix["a1"], "mixture a1"), _numbers(mix["a2"], "mixture a2")
    h1, h2 = _number(mix.get("h1", 0.0), "mixture h1"), _number(mix.get("h2", 0.0), "mixture h2")
    try:
        return MixtureSpec(a1=a1, a2=a2, h1=h1, h2=h2)
    except ValueError as exc:  # coefficients too large for a double
        raise ConfigError(str(exc)) from exc


def _generator(gen) -> dict | None:
    """The rost generator as given, each entry within its ROST_GEN bounds."""
    if gen is not None:
        if not isinstance(gen, dict):
            raise ConfigError(f"rost must be an object, got {gen!r}")
        _known_keys(gen, ROST_GEN, "rost")
        for key, value in gen.items():
            _number(value, f"rost {key}", **ROST_GEN[key])
    return gen


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; all randomness stems from seed.

    The fields are the config file's keys, except that threads comes from
    the --threads flag alone and a key n stands for the one-size n_list
    [n].  The manifest records every field but out and threads."""

    mixture: MixtureSpec
    n_list: tuple[int, ...]
    m: int | None
    u: float
    eps_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    n_rep: int
    seed: int
    sampler: str
    rost_file: str | None
    rost: dict | None
    out: Path
    threads: int

    @classmethod
    def load(cls, path: str | None, overrides: argparse.Namespace) -> "ExperimentConfig":
        """The config in the JSON file at path (every default if None) with
        the --seed, --out and --threads flags applied.  Each value's type and
        range are checked as it is read: a bad one is a ConfigError."""
        data: dict = {}
        if path is not None:
            p = Path(path)
            if not p.exists():
                raise ConfigError(f"config file {path} does not exist")
            try:
                data = json.loads(p.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError(f"config file {path} must hold a JSON object")
            _known_keys(data, {f.name for f in fields(cls)} - {"threads"} | {"n"}, "config")
        for key, other in (("n", "n_list"), ("rost", "rost_file")):
            if data.get(key) is not None and data.get(other) is not None:
                raise ConfigError(f"config sets both {key} and {other}, which give one input; "
                                  "keep one")
        eps_grid = _numbers(data.get("eps_grid", [0.0, 0.25, 0.5, 1.0]), "eps_grid", lo=0)
        if eps_grid and eps_grid[0] != 0.0:
            raise ConfigError("eps_grid must start at 0")
        sampler = data.get("sampler", "tensor")
        if sampler not in ("tensor", "process"):
            raise ConfigError(f"unknown sampler {sampler!r}")
        rost_file = data.get("rost_file")
        if rost_file is not None and not Path(_path(rost_file, "rost_file")).exists():
            raise ConfigError(f"structure file {rost_file} does not exist")
        sizes = data.get("n_list")
        if sizes is None:
            sizes = [data.get("n", 6)]
        sizes = _numbers(sizes, "n_list", nonempty=True, integral=True, lo=1, hi=WHT_CAP)
        if len(set(sizes)) < len(sizes):  # a repeat would run, and count, a size twice
            raise ConfigError(f"n_list must hold distinct sizes, got {list(sizes)}")
        m = data.get("m")
        seed = overrides.seed if overrides.seed is not None else data.get("seed", 0)
        out = overrides.out if overrides.out is not None else data.get("out", "reports")
        return cls(
            mixture=_mixture(data.get("mixture", {"a1": [0.0, 0.5], "a2": [0.0, 0.5]})),
            n_list=tuple(int(n) for n in sizes),
            m=None if m is None else int(_number(m, "m", integral=True, lo=1, hi=CONFIG_CAP)),
            u=float(_number(data.get("u", 0.0), "u", lo=-1, hi=1)),
            eps_grid=eps_grid,
            t_grid=_numbers(data.get("t_grid", [0.25, 0.5, 0.75]), "t_grid", nonempty=True,
                            lo=0, hi=1),
            n_rep=int(_number(data.get("n_rep", 200), "n_rep", integral=True, lo=2)),
            seed=int(_number(seed, "seed", integral=True, lo=0)),
            sampler=sampler,
            rost_file=rost_file,
            rost=_generator(data.get("rost")),
            out=Path(_path(out, "out")),
            threads=_number(overrides.threads, "--threads", integral=True, lo=1),
        )

    def resolved(self) -> dict:
        """The manifest's copy of the config: n as n_list, the mixture as
        MixtureSpec holds it, no out or threads."""
        config = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("out", "threads")}
        return {**config, "mixture": json.loads(self.mixture.to_json())}

    def load_rost(self) -> RostSpec:
        """The structure of the config, checked to admit Gaussian fields for
        its mixture (RostInvalidError if not) before any Monte Carlo."""
        if self.rost_file is not None:
            rost = _structure_file(self.rost_file)
        else:
            gen = self.rost or {}
            rost = random_gram_rost(int(gen.get("m", 4)), self.u, float(gen.get("delta", 0.05)),
                                    rng_for(self.seed, 0, stream=9),
                                    DirichletWeights(float(gen.get("gamma", 1.0))))
        get_field_sampler(rost, self.mixture)  # the run's one factorisation
        return rost


def _structure_file(path: str) -> RostSpec:
    """The structure a JSON file describes; a malformed file is a ConfigError."""
    try:
        return RostSpec.from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"structure file {path} is not JSON: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"structure file {path} lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:  # includes RostInvalidError
        raise ConfigError(f"structure file {path} is invalid: {exc}") from exc


ESTIMATE_FIELDS = ["label", "n", "k", "eps", "n_rep", "seed", "mean", "stderr"]


def _json_default(obj):
    """json.dumps' hook for what it cannot write: numpy arrays and scalars."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _estimate_row(est: Estimate, n: int, k: int, eps: float) -> list:
    return [est.label, n, k, f"{eps:.17g}", est.n_rep, est.seed,
            f"{est.mean:.17g}", f"{est.stderr:.17g}"]


def _write_manifest(out: Path, command: str, cfg: ExperimentConfig, results: dict,
                    ok: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.resolved(),
        "results": results,
        "pass": bool(ok),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, default=_json_default)
    (out / "manifest.json").write_text(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _one_size(cfg: ExperimentConfig, command: str, cap: int | None = None) -> int:
    """The one size a single-size command runs at: n_list[0], at most cap.
    A note on stderr names it and the n_list sizes it leaves out."""
    n = cfg.n_list[0] if cap is None else min(cfg.n_list[0], cap)
    ignored = list(cfg.n_list[1:]) if n == cfg.n_list[0] else list(cfg.n_list)
    if ignored:
        print(f"note: {command} runs at n = {n} only; it ignores n_list size(s) "
              f"{', '.join(map(str, ignored))}", file=sys.stderr)
    return n


# A subcommand returns its reports, {csv name: (header, rows)}, the manifest's
# results and whether every asserted check passed; main writes them.
Reports = tuple[dict[str, tuple[list[str], list[list]]], dict, bool]


def cmd_free_energy(cfg: ExperimentConfig) -> Reports:
    rows, resolved_rows = [], []
    for n in cfg.n_list:
        c = nearest_admissible(n, cfg.u)
        log_z = overlap_logz_replicas(cfg.mixture, n, cfg.n_rep, cfg.seed, cfg.sampler,
                                      cfg.threads)
        for eps in cfg.eps_grid:
            est = window_estimate(log_z, replace(c, eps=eps), cfg.seed)
            rows.append(_estimate_row(est, n, c.k, eps))
        # count-resolved dump for the first replica's table
        resolved_rows.extend([n, d, f"{v:.17g}"] for d, v in enumerate(log_z[0]))
    return ({"free_energy.csv": (ESTIMATE_FIELDS, rows),
             "overlap_resolved.csv": (["n", "d", "log_z"], resolved_rows)},
            {"rows": len(rows)}, True)


def cmd_lemma1(cfg: ExperimentConfig) -> Reports:
    if not any(eps > 0.0 for eps in cfg.eps_grid):
        raise ConfigError("lemma1 fits its window constant over eps > 0, "
                          f"but eps_grid {list(cfg.eps_grid)} has no positive entry")
    widest = max(cfg.eps_grid)
    constraints = {n: nearest_admissible(n, cfg.u) for n in cfg.n_list}
    windows = {n: replace(c, eps=widest).window_disagreement_range()
               for n, c in constraints.items()}
    exact_only = ", ".join(str(n) for n, (d_lo, d_hi) in windows.items() if d_lo == d_hi)
    if exact_only:
        raise ConfigError(f"lemma1 fits its constant over windows wider than the class d, but "
                          f"eps {widest:g} holds d alone at n_list size(s) {exact_only}")
    rows, profiles = [], {}
    for n, c in constraints.items():
        prof = profiles[n] = window_gap_profile(cfg.mixture, c, cfg.eps_grid, cfg.n_rep,
                                                cfg.seed, cfg.sampler, cfg.threads)
        for eps, gm, gs in zip(prof["eps"], prof["gap_mean"], prof["gap_stderr"]):
            rows.append(["window_gap", n, c.k, f"{eps:.17g}", cfg.n_rep, cfg.seed,
                         f"{gm:.17g}", f"{gs:.17g}"])
    check = window_constant_check(cfg.n_list, profiles)
    return {"lemma1.csv": (ESTIMATE_FIELDS, rows)}, check, check["pass"]


def cmd_superadd(cfg: ExperimentConfig) -> Reports:
    sup = superadditivity_check(cfg.mixture, cfg.u, cfg.n_list, cfg.n_rep, cfg.seed,
                                cfg.sampler, cfg.threads)
    rows = [
        ["normalized_deficit", str(sz), "", "", cfg.n_rep, cfg.seed, f"{v:.17g}", f"{se:.17g}"]
        for sz, v, se in zip(sup["sizes"], sup["normalized_deficits"],
                             sup["normalized_deficit_stderrs"])
    ]
    return {"superadd.csv": (ESTIMATE_FIELDS, rows)}, sup, sup["pass"]


def cmd_rost_eval(cfg: ExperimentConfig) -> Reports:
    rost = cfg.load_rost()
    n = _one_size(cfg, "rost-eval")
    c = nearest_admissible(n, cfg.u)
    g = estimate_G(rost, cfg.mixture, c, cfg.n_rep, cfg.seed, cfg.threads)
    rows = [
        _estimate_row(g.diff, n, c.k, 0.0),
        _estimate_row(g.term1, n, c.k, 0.0),
        _estimate_row(g.term2, n, c.k, 0.0),
    ]
    return ({"rost_eval.csv": (ESTIMATE_FIELDS, rows)},
            {"g": g.diff.mean, "stderr": g.diff.stderr, "elements": rost.m}, True)


def cmd_lemma3(cfg: ExperimentConfig) -> Reports:
    require_convex(cfg.mixture, "the structure upper bound")
    rost = cfg.load_rost()
    n = _one_size(cfg, "lemma3")
    c = nearest_admissible(n, cfg.u)
    f_est = estimate_F(cfg.mixture, c, cfg.n_rep, cfg.seed, cfg.sampler, cfg.threads)
    g_est = estimate_G(rost, cfg.mixture, c, cfg.n_rep, cfg.seed, cfg.threads)
    check = structure_bound_check(rost, cfg.mixture, c, f_est, g_est, cfg.t_grid,
                                  cfg.n_rep, cfg.seed, cfg.sampler, cfg.threads)
    rows = [
        _estimate_row(f_est, n, c.k, 0.0),
        _estimate_row(g_est.diff, n, c.k, 0.0),
    ]
    return {"lemma3.csv": (ESTIMATE_FIELDS, rows)}, check, check["pass"]


def cmd_explicit_rost(cfg: ExperimentConfig) -> Reports:
    if cfg.m is None:
        raise ConfigError("explicit-rost requires m (base size)")
    n = _one_size(cfg, "explicit-rost")
    u_m = nearest_admissible(cfg.m, cfg.u)
    derived = construct_u_prime(n, admissible_sequence(cfg.u), m_max=max(40, 4 * n), u=cfg.u)
    check, ok, (g_lim, g_fin) = explicit_rost_check(cfg.mixture, u_m, cfg.u, derived.constraint,
                                                    cfg.n_rep, cfg.seed, cfg.threads)
    rows = [
        _estimate_row(g_lim.diff, n, derived.constraint.k, 0.0),
        _estimate_row(g_fin.diff, n, derived.constraint.k, 0.0),
    ]
    return {"explicit_rost.csv": (ESTIMATE_FIELDS, rows)}, {
        **check,
        "derived_overlap": {"k": derived.constraint.k,
                            "recurrence_head": list(derived.recurrence[:8])},
        "g_limit": g_lim.diff.mean, "g_finite": g_fin.diff.mean,
    }, ok


def cmd_interp(cfg: ExperimentConfig) -> Reports:
    require_convex(cfg.mixture, "the interpolation derivative decompositions")
    n = _one_size(cfg, "interp")
    if cfg.m is not None and cfg.m + n > WHT_CAP:
        raise ConfigError(f"size splitting needs m + n <= {WHT_CAP}, got {cfg.m} + {n}")
    rost = cfg.load_rost()
    runs = {}
    if cfg.m is not None:
        runs["size-splitting"] = run_lemma2_curve(cfg.mixture, cfg.m, n, cfg.u, cfg.t_grid,
                                                  cfg.n_rep, cfg.seed, cfg.sampler, cfg.threads)
    c = nearest_admissible(n, cfg.u)
    runs["structure-comparison"] = run_lemma3_curve(rost, cfg.mixture, c, cfg.t_grid,
                                                    cfg.n_rep, cfg.seed, cfg.sampler, cfg.threads)
    rows = [[kind, f"{t:.17g}", f"{p.mean:.17g}", f"{p.stderr:.17g}", f"{dfd.mean:.17g}",
             f"{dgb.mean:.17g}"]
            for kind, run in runs.items()
            for t, p, dfd, dgb in zip(run.t_grid, run.phi, run.dphi_fd, run.dphi_gibbs)]
    results = {kind.replace("-", "_"): run.verdicts for kind, run in runs.items()}
    return ({"interp.csv": (["kind", "t", "mean", "stderr", "d_fd", "d_gibbs"], rows)}, results,
            all(run.passed for run in runs.values()))


def cmd_validate(cfg: ExperimentConfig) -> Reports:
    n = _one_size(cfg, "validate", cap=6)
    results, ok = validate_check(cfg.mixture, n, cfg.n_rep, cfg.seed, cfg.sampler)
    # a check without a pass entry (convexity) is reported, not asserted
    rows = [[k, json.dumps(v, default=_json_default), bool(v.get("pass", True))]
            for k, v in results.items()]
    return {"validate.csv": (["check", "value", "pass"], rows)}, results, ok


COMMANDS = {
    "free-energy": cmd_free_energy,
    "lemma1": cmd_lemma1,
    "superadd": cmd_superadd,
    "rost-eval": cmd_rost_eval,
    "lemma3": cmd_lemma3,
    "explicit-rost": cmd_explicit_rost,
    "interp": cmd_interp,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coupledsk",
        description="Finite-size checks for the overlap-coupled pair system",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="root seed override")
    parser.add_argument("--threads", type=int, default=1, help="replica worker count")
    parser.add_argument("--out", default=None, help="report directory override")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, args)
        reports, results, ok = COMMANDS[args.command](cfg)
        if results.get("trend_assessed") is False:  # lemma1 or superadd with too few sizes
            print(f"note: {args.command} tested no size trend: that needs 3 or more sizes",
                  file=sys.stderr)
        for name, (header, rows) in reports.items():
            _write_csv(cfg.out / name, header, rows)
        _write_manifest(cfg.out, args.command, cfg, results, ok)
        return 0 if ok else 1
    except (ConfigError, ResourceError, MemoryError, RostInvalidError, FileNotFoundError,
            NonConvexMixtureError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
