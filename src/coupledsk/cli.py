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
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bits import CONFIG_CAP, magnetizations
from .configurations import OverlapConstraint, admissible_sequence, construct_u_prime, nearest_admissible
from .disorder import (
    CovarianceProbe,
    DirichletWeights,
    ResourceError,
    RostFieldSampler,
    RostInvalidError,
    RostSpec,
    empirical_covariance,
    get_sampler,
    random_gram_rost,
)
from .free_energy import (
    WHT_CAP,
    Estimate,
    NumericalError,
    build_explicit_rost,
    cavity_logz_by_count,
    estimate_F,
    estimate_G,
    estimate_G_MN,
    explicit_terms,
    overlap_logz_replicas,
    partition_by_overlap,
    require_finite_fields,
    window_estimate,
    _constrained_pairs,
    _cached_explicit_sampler,
)
from .interpolation import (
    require_convex,
    run_lemma2_curve,
    run_lemma3_curve,
    structure_bound_check,
    superadditivity_check,
    window_constant_check,
    window_gap_profile,
)
from .mixture import (
    MixtureSpec,
    NonConvexMixtureError,
    check_convexity,
    check_positivity,
    mixture_functions,
)
from .parallel import replica_seed
from .reference import brute_cavity_logz, brute_explicit_terms, brute_overlap_logz


class ConfigError(ValueError):
    pass


CONFIG_KEYS = frozenset({"mixture", "n_list", "n", "m", "u", "eps_grid", "t_grid", "n_rep",
                         "seed", "sampler", "out", "rost_file", "rost"})
MIXTURE_KEYS = frozenset({"a1", "a2", "h1", "h2"})
ROST_GEN_KEYS = frozenset({"m", "delta", "gamma"})


def _known_keys(obj: dict, known: frozenset, where: str) -> None:
    """ConfigError naming every key of obj outside known: a misspelt key
    would otherwise fall back to its default without a word."""
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"expected some of {', '.join(sorted(known))}")


def _number(value, name: str, integral: bool = False):
    """value unchanged if it is a finite JSON number (integral if asked)."""
    ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
          and math.isfinite(value) and (not integral or float(value).is_integer()))
    if not ok:
        kind = "an integer" if integral else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def _numbers(values, name: str, integral: bool = False) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return tuple(_number(v, f"{name} entry", integral) for v in values)


def _mixture(mix) -> MixtureSpec:
    if not isinstance(mix, dict) or not {"a1", "a2"} <= mix.keys():
        raise ConfigError(f"mixture must be an object with lists a1 and a2, got {mix!r}")
    _known_keys(mix, MIXTURE_KEYS, "mixture")
    return MixtureSpec(
        a1=_numbers(mix["a1"], "mixture a1"),
        a2=_numbers(mix["a2"], "mixture a2"),
        h1=_number(mix.get("h1", 0.0), "mixture h1"),
        h2=_number(mix.get("h2", 0.0), "mixture h2"),
    )


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; all randomness stems from seed."""

    mixture: MixtureSpec
    n_list: tuple[int, ...]
    m: int | None
    u: float
    eps_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    n_rep: int
    seed: int
    sampler: str
    threads: int
    out: Path
    rost_file: str | None
    rost_gen: dict | None

    @classmethod
    def load(cls, path: str | None, overrides: argparse.Namespace) -> "ExperimentConfig":
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
            _known_keys(data, CONFIG_KEYS, "config")
        mix = data.get("mixture", {"a1": [0.0, 0.5], "a2": [0.0, 0.5], "h1": 0.0, "h2": 0.0})
        n_list = data.get("n_list")
        if n_list is None:
            n_list = [data.get("n", 6)]
        seed = overrides.seed if overrides.seed is not None else data.get("seed", 0)
        out = Path(overrides.out if overrides.out is not None else data.get("out", "reports"))
        m = data.get("m")
        cfg = cls(
            mixture=_mixture(mix),
            n_list=tuple(int(v) for v in _numbers(n_list, "n_list", integral=True)),
            m=None if m is None else int(_number(m, "m", integral=True)),
            u=float(_number(data.get("u", 0.0), "u")),
            eps_grid=_numbers(data.get("eps_grid", [0.0, 0.25, 0.5, 1.0]), "eps_grid"),
            t_grid=_numbers(data.get("t_grid", [0.25, 0.5, 0.75]), "t_grid"),
            n_rep=int(_number(data.get("n_rep", 200), "n_rep", integral=True)),
            seed=int(_number(seed, "seed", integral=True)),
            sampler=data.get("sampler", "tensor"),
            threads=overrides.threads,
            out=out,
            rost_file=data.get("rost_file"),
            rost_gen=data.get("rost"),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.n_rep < 2:
            raise ConfigError("n_rep must be >= 2 (standard errors need variance)")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not -1.0 <= self.u <= 1.0:
            raise ConfigError(f"u={self.u} outside [-1, 1]")
        for n in self.n_list:
            if not 1 <= n <= WHT_CAP:
                raise ConfigError(f"n={n} outside [1, {WHT_CAP}]")
        if self.m is not None and not 1 <= self.m <= CONFIG_CAP:
            raise ConfigError(f"m={self.m} outside [1, {CONFIG_CAP}]")
        if self.sampler not in ("tensor", "process"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.eps_grid and self.eps_grid[0] != 0.0:
            raise ConfigError("eps_grid must start at 0")
        if any(e < 0 for e in self.eps_grid):
            raise ConfigError(f"eps_grid entries must be nonnegative, got {list(self.eps_grid)}")
        if not self.t_grid or not all(0.0 <= t <= 1.0 for t in self.t_grid):
            raise ConfigError(f"t_grid must be a nonempty list of t in [0, 1], "
                              f"got {list(self.t_grid)}")
        if self.rost_file is not None:
            if not isinstance(self.rost_file, str):
                raise ConfigError(f"rost_file must be a path string, got {self.rost_file!r}")
            if not Path(self.rost_file).exists():
                raise ConfigError(f"structure file {self.rost_file} does not exist")
        if self.rost_gen is not None:
            if not isinstance(self.rost_gen, dict):
                raise ConfigError(f"rost must be an object, got {self.rost_gen!r}")
            _known_keys(self.rost_gen, ROST_GEN_KEYS, "rost")
            for key, value in self.rost_gen.items():
                _number(value, f"rost {key}", integral=key == "m")
            if self.rost_gen.get("m", 1) < 1:
                raise ConfigError(f"rost m must be at least 1, got {self.rost_gen['m']}")

    def resolved(self) -> dict:
        return {
            "mixture": json.loads(self.mixture.to_json()),
            "n_list": list(self.n_list),
            "m": self.m,
            "u": self.u,
            "eps_grid": list(self.eps_grid),
            "t_grid": list(self.t_grid),
            "n_rep": self.n_rep,
            "seed": self.seed,
            "sampler": self.sampler,
            "rost_file": self.rost_file,
            "rost": self.rost_gen,
        }

    def load_rost(self) -> RostSpec:
        if self.rost_file is not None:
            return _structure_file(self.rost_file)
        gen = self.rost_gen or {"m": 4, "delta": 0.05}
        rng = np.random.Generator(np.random.PCG64(replica_seed(self.seed, 0, stream=9)))
        return random_gram_rost(
            m=int(gen.get("m", 4)),
            u=self.u,
            delta=float(gen.get("delta", 0.05)),
            rng=rng,
            weights=DirichletWeights(float(gen.get("gamma", 1.0))),
        )


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


def _jsonable(obj):
    """Recursively convert numpy scalars and arrays to plain Python types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


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
        "results": _jsonable(results),
        "pass": bool(ok),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# A subcommand returns its reports, {csv name: (header, rows)}, the manifest's
# results and whether every asserted check passed; main writes them.
Reports = tuple[dict[str, tuple[list[str], list[list]]], dict, bool]


def cmd_free_energy(cfg: ExperimentConfig) -> Reports:
    rows = []
    resolved_rows = []
    for n in cfg.n_list:
        c = nearest_admissible(n, cfg.u)
        log_z = overlap_logz_replicas(cfg.mixture, n, cfg.n_rep, cfg.seed, cfg.sampler,
                                      cfg.threads)
        for eps in cfg.eps_grid:
            est = window_estimate(log_z, OverlapConstraint(n=n, k=c.k, eps=eps), cfg.seed)
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
    rows = []
    profiles = {}
    for n in cfg.n_list:
        k = nearest_admissible(n, cfg.u).k
        prof = profiles[n] = window_gap_profile(
            cfg.mixture, n, k, cfg.eps_grid, cfg.n_rep, cfg.seed, cfg.sampler, cfg.threads
        )
        for eps, gm, gs in zip(prof["eps"], prof["gap_mean"], prof["gap_stderr"]):
            rows.append(["window_gap", n, k, f"{eps:.17g}", cfg.n_rep, cfg.seed,
                         f"{gm:.17g}", f"{gs:.17g}"])
    check = window_constant_check(cfg.n_list, profiles)
    return {"lemma1.csv": (ESTIMATE_FIELDS, rows)}, check, check["pass"]


def cmd_superadd(cfg: ExperimentConfig) -> Reports:
    sup = superadditivity_check(cfg.mixture, cfg.u, cfg.n_list, cfg.n_rep, cfg.seed,
                                cfg.sampler, cfg.threads)
    rows = [
        ["normalized_deficit", str(sz), "", "", cfg.n_rep, cfg.seed, f"{v:.17g}", ""]
        for sz, v in zip(sup["sizes"], sup["normalized_deficits"])
    ]
    return {"superadd.csv": (ESTIMATE_FIELDS, rows)}, sup, sup["pass"]


def cmd_rost_eval(cfg: ExperimentConfig) -> Reports:
    rost = cfg.load_rost()
    n = cfg.n_list[0]
    c = nearest_admissible(n, cfg.u)
    g = estimate_G(rost, cfg.mixture, n, c, cfg.n_rep, cfg.seed, cfg.threads)
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
    n = cfg.n_list[0]
    c = nearest_admissible(n, cfg.u)
    f_est = estimate_F(cfg.mixture, n, c, cfg.n_rep, cfg.seed, cfg.sampler, cfg.threads)
    g_est = estimate_G(rost, cfg.mixture, n, c, cfg.n_rep, cfg.seed, cfg.threads)
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
    n = cfg.n_list[0]
    u_m = nearest_admissible(cfg.m, cfg.u)
    derived = construct_u_prime(n, admissible_sequence(cfg.u), m_max=max(40, 4 * n), u=cfg.u)
    rost = build_explicit_rost(cfg.mixture, cfg.m, u_m, n, cfg.u)
    diag_exact = bool(np.all(np.diag(rost.q12) == u_m.u))
    funcs = mixture_functions(cfg.mixture)
    try:
        RostFieldSampler(rost, funcs)
        psd_ok = True
    except RostInvalidError:
        psd_ok = False
    g_lim, g_fin = estimate_G_MN(cfg.mixture, cfg.m, n, u_m, derived.constraint,
                                 cfg.n_rep, cfg.seed, cfg.threads)
    worst_dual = 0.0
    sampler = _cached_explicit_sampler(cfg.mixture, cfg.m, n)
    r1, r2 = _constrained_pairs(cfg.m, u_m.d)
    for rep in range(min(cfg.n_rep, 5)):
        draw = sampler.sample(replica_seed(cfg.seed, rep))
        t = explicit_terms(draw, cfg.mixture, u_m, derived.constraint, "limit")
        bt1, bt2 = brute_explicit_terms(draw, r1, r2, cfg.mixture, derived.constraint, "limit")
        worst_dual = max(worst_dual, abs(t.term1 + t.log_norm - bt1),
                         abs(t.term2 + t.log_norm - bt2))
    ok = bool(diag_exact and psd_ok and worst_dual < 1e-10)
    rows = [
        _estimate_row(g_lim.diff, n, derived.constraint.k, 0.0),
        _estimate_row(g_fin.diff, n, derived.constraint.k, 0.0),
    ]
    return {"explicit_rost.csv": (ESTIMATE_FIELDS, rows)}, {
        "elements": rost.m, "delta": rost.delta, "diag_exact": diag_exact,
        "psd_ok": psd_ok, "dual_path_gap": worst_dual,
        "derived_overlap": {"k": derived.constraint.k,
                            "recurrence_head": list(derived.recurrence[:8])},
        "g_limit": g_lim.diff.mean, "g_finite": g_fin.diff.mean,
    }, ok


def cmd_interp(cfg: ExperimentConfig) -> Reports:
    require_convex(cfg.mixture, "the interpolation derivative decompositions")
    n = cfg.n_list[0]
    if cfg.m is not None and cfg.m + n > WHT_CAP:
        raise ConfigError(f"size splitting needs m + n <= {WHT_CAP}, got {cfg.m} + {n}")
    rost = cfg.load_rost()
    results = {}
    ok = True
    rows = []
    if cfg.m is not None:
        run = run_lemma2_curve(cfg.mixture, cfg.m, n, cfg.u, cfg.t_grid,
                               cfg.n_rep, cfg.seed, cfg.sampler, cfg.threads)
        results["size_splitting"] = run.verdicts
        ok = ok and run.verdicts["fd_gibbs_pass"] and run.verdicts["convexity_term_nonpositive"]
        for t, p, dfd, dgb in zip(run.t_grid, run.phi, run.dphi_fd, run.dphi_gibbs):
            rows.append(["size-splitting", f"{t:.17g}", f"{p.mean:.17g}", f"{p.stderr:.17g}",
                         f"{dfd.mean:.17g}", f"{dgb.mean:.17g}"])
    c = nearest_admissible(n, cfg.u)
    run3 = run_lemma3_curve(rost, cfg.mixture, n, c, cfg.t_grid, cfg.n_rep,
                            cfg.seed, cfg.sampler, cfg.threads)
    results["structure_comparison"] = run3.verdicts
    ok = ok and run3.verdicts["fd_gibbs_pass"] and run3.verdicts["second_line_nonpositive"]
    for t, p, dfd, dgb in zip(run3.t_grid, run3.phi, run3.dphi_fd, run3.dphi_gibbs):
        rows.append(["structure-comparison", f"{t:.17g}", f"{p.mean:.17g}",
                     f"{p.stderr:.17g}", f"{dfd.mean:.17g}", f"{dgb.mean:.17g}"])
    return {"interp.csv": (["kind", "t", "mean", "stderr", "d_fd", "d_gibbs"], rows)}, results, ok


def cmd_validate(cfg: ExperimentConfig) -> Reports:
    spec = cfg.mixture
    n = min(cfg.n_list[0], 6)
    require_finite_fields(n, spec.h1, spec.h2)
    results = {}
    conv = check_convexity(spec)
    results["convexity"] = {
        "convex": conv.convex,
        "structural": conv.structural,
        "worst_second_difference": conv.worst_second_difference,
    }
    ok = True
    if conv.convex:
        pos = check_positivity(spec, grid_size=201)
        results["positivity"] = {"min": min(pos.minima.values()), "pass": pos.passed}
        ok = ok and pos.passed

    rng = np.random.Generator(np.random.PCG64(replica_seed(cfg.seed, 0, stream=5)))
    probes = []
    for _ in range(6):
        m1, m2 = int(rng.integers(1 << n)), int(rng.integers(1 << n))
        probes.append(CovarianceProbe(m1, m2, 1, 1))
        probes.append(CovarianceProbe(m1, m2, 1, 2))
    cov = empirical_covariance(spec, n, max(cfg.n_rep, 2000), probes, cfg.seed, cfg.sampler)
    results["covariance"] = {"max_sigmas": cov.max_sigmas, "pass": cov.max_sigmas <= 4.0}
    ok = ok and cov.max_sigmas <= 4.0

    worst = 0.0
    for rep in range(3):
        table = get_sampler(spec, n, cfg.sampler).sample(replica_seed(cfg.seed, rep, stream=6))
        log_z = partition_by_overlap(table, spec.h1, spec.h2)
        mag = magnetizations(n)
        brute = brute_overlap_logz(table.values[0] + spec.h1 * mag,
                                   table.values[1] + spec.h2 * mag)
        worst = max(worst, float(np.max(np.abs(np.expm1(log_z - brute)))))
    results["engine_oracle"] = {"max_rel_gap": worst, "pass": worst <= 1e-10}
    ok = ok and worst <= 1e-10

    worst_dp = 0.0
    n_small = min(n, 5)
    for rep in range(3):
        rng = np.random.Generator(np.random.PCG64(replica_seed(cfg.seed, rep, stream=7)))
        a = rng.standard_normal(n_small)
        b = rng.standard_normal(n_small)
        ladder = cavity_logz_by_count(a, b)
        for d in range(n_small + 1):
            worst_dp = max(worst_dp, abs(ladder[d] - brute_cavity_logz(a, b, d)))
    results["cavity_oracle"] = {"max_gap": worst_dp, "pass": worst_dp <= 1e-10}
    ok = ok and worst_dp <= 1e-10

    rows = [[k, json.dumps(_jsonable(v)), bool(v.get("pass", True))] for k, v in results.items()]
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
        for name, (header, rows) in reports.items():
            _write_csv(cfg.out / name, header, rows)
        _write_manifest(cfg.out, args.command, cfg, results, ok)
        return 0 if ok else 1
    except (ConfigError, ResourceError, RostInvalidError, FileNotFoundError,
            NonConvexMixtureError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
