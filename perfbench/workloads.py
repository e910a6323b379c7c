"""Seeded inputs for the three benchmark workloads.

Every input the program sees -- mixture coefficients, fields, the root seed
and any structure file -- is drawn from the workload seed alone and written
to a directory; the program receives only those files.  Reasons for each
workload are in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("engine", "gibbs", "structure")
# every invocation label any workload runs; each names a cli.<label>.s metric
LABELS = ("free-energy", "lemma1", "superadd", "free-energy.process",
          "lemma3", "interp", "rost-eval", "explicit-rost")


@dataclass(frozen=True)
class Invocation:
    """One CLI subcommand of a pass: ``label`` names it in metrics and
    report directories (the same subcommand may run twice on two routes)."""

    label: str
    command: str
    config: Path


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    n_rep: int
    invocations: tuple[Invocation, ...]


def _mixture(coeffs: dict[int, tuple[float, float]], h1: float, h2: float) -> dict:
    p_max = max(coeffs)
    a1 = [coeffs.get(p, (0.0, 0.0))[0] for p in range(1, p_max + 1)]
    a2 = [coeffs.get(p, (0.0, 0.0))[1] for p in range(1, p_max + 1)]
    return {"a1": a1, "a2": a2, "h1": h1, "h2": h2}


def _fields(rng: np.random.Generator) -> tuple[float, float]:
    h = rng.uniform(-0.3, 0.3, size=2)
    return float(h[0]), float(h[1])


def gram_structure(rng: np.random.Generator, m: int, u: float, delta: float,
                   gamma: float, dim: int = 8) -> dict:
    """A structure file whose q-matrices are Gram matrices of unit vectors,
    so its field covariances are PSD for the mixtures drawn here."""
    v1 = rng.standard_normal((m, dim))
    v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
    c = u + 0.9 * rng.uniform(-delta, delta, size=m)
    w = rng.standard_normal((m, dim))
    w -= np.sum(w * v1, axis=1, keepdims=True) * v1
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    v2 = c[:, None] * v1 + np.sqrt(1.0 - c * c)[:, None] * w
    q11, q12, q22 = (np.clip(a @ b.T, -1.0, 1.0) for a, b in ((v1, v1), (v1, v2), (v2, v2)))
    for q in (q11, q22):
        np.fill_diagonal(q, 1.0)
    return {
        "q11": q11.tolist(), "q12": q12.tolist(), "q22": q22.tolist(),
        "weights": {"kind": "dirichlet", "gamma": gamma},
        "delta": delta, "u": u,
    }


def _convex_p2_mixture(rng: np.random.Generator) -> dict:
    """A p <= 2 mixture that the library's convexity scan accepts.

    The second copy's p = 2 coefficient may come out negative, which makes
    xi_12 concave; such draws are rejected and redrawn from the same stream.
    """
    from coupledsk.mixture import ConvexityWarning, MixtureSpec, check_convexity

    while True:
        lin = rng.uniform(0.0, 0.3, size=2)
        quad = (rng.uniform(0.3, 0.7), rng.uniform(-0.3, 0.7))
        mix = _mixture({1: (float(lin[0]), float(lin[1])), 2: (float(quad[0]), float(quad[1]))},
                       *_fields(rng))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvexityWarning)
            if check_convexity(MixtureSpec.from_json(mix)).convex:
                return mix


def _write(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def generate(name: str, seed: int, workdir: Path, n_rep: int | None = None) -> Workload:
    """Write the workload's inputs under ``workdir`` and describe its pass.

    ``n_rep`` overrides the replica count only (the set-up passes use 2);
    every other input depends on ``name`` and ``seed`` alone.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, NAMES.index(name)])))
    root = int(rng.integers(0, 2**31 - 1))
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "engine":
        quad = rng.uniform(0.3, 0.7, size=2)
        mix = _mixture({2: (float(quad[0]), float(quad[1]))}, *_fields(rng))
        n_rep = n_rep or 200
        base = {"mixture": mix, "n_rep": n_rep, "seed": root, "u": 0.0}
        wht = _write(workdir / "engine.json", {
            **base, "n_list": [6, 8, 10, 12], "eps_grid": [0.0, 0.25, 0.5, 1.0]})
        proc = _write(workdir / "engine_process.json", {
            **base, "n_list": [8, 10], "eps_grid": [0.0], "sampler": "process"})
        inv = (
            Invocation("free-energy", "free-energy", wht),
            Invocation("lemma1", "lemma1", wht),
            Invocation("superadd", "superadd", wht),
            Invocation("free-energy.process", "free-energy", proc),
        )
        return Workload(name, 2, n_rep, inv)
    if name == "gibbs":
        mix = _convex_p2_mixture(rng)
        gamma = float(rng.uniform(0.5, 2.0))
        rost = _write(workdir / "gibbs_rost.json", gram_structure(rng, 6, 0.0, 0.05, gamma))
        n_rep = n_rep or 60
        cfg = _write(workdir / "gibbs.json", {
            "mixture": mix, "n_rep": n_rep, "seed": root, "u": 0.0, "m": 4,
            "n_list": [8], "t_grid": [0.25, 0.5, 0.75], "rost_file": str(rost)})
        inv = (Invocation("lemma3", "lemma3", cfg), Invocation("interp", "interp", cfg))
        return Workload(name, 1, n_rep, inv)
    if name == "structure":
        even = rng.uniform([0.3, 0.3, 0.1, 0.1], [0.7, 0.7, 0.4, 0.4])
        mix = _mixture({2: (float(even[0]), float(even[1])), 4: (float(even[2]), float(even[3]))},
                       *_fields(rng))
        gamma = float(rng.uniform(0.5, 2.0))
        u = 0.2  # M = 5 base pairs at disagreement 2: 32 * C(5, 2) = 320 elements
        rost = _write(workdir / "structure_rost.json", gram_structure(rng, 32, u, 0.05, gamma))
        n_rep = n_rep or 120
        base = {"mixture": mix, "n_rep": n_rep, "seed": root, "u": u}
        ev = _write(workdir / "rost_eval.json", {**base, "n_list": [10], "rost_file": str(rost)})
        ex = _write(workdir / "explicit_rost.json", {**base, "n_list": [6], "m": 5})
        inv = (Invocation("rost-eval", "rost-eval", ev),
               Invocation("explicit-rost", "explicit-rost", ex))
        return Workload(name, 1, n_rep, inv)
    raise ValueError(f"unknown workload {name!r}")
