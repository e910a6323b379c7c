"""Oracle spot-checks of one run's inputs and reports against ``coupledsk.reference``.

Each check recomputes a quantity the program reported, by a slow route that
shares no fast transform or ladder with the program, and returns its gap.
Two kinds are made:

- a table dump or a single replica against the brute-force oracles of
  ``coupledsk.reference``;
- a reported Monte Carlo estimate (a CSV row's ``mean`` and ``stderr``)
  against the average over all ``n_rep`` replicas of the same seeded draws,
  each evaluated by the slow route.  A report that skips replicas or
  aggregates them wrongly fails here.

A gap above ``TOL`` counts as a failed operation.  The amplitudes the
workloads draw are weak (README regime), where the transform engine is
exact to rounding.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

TOL = 1e-10


def _cfg(path):
    from coupledsk.mixture import MixtureSpec

    data = json.loads(Path(path).read_text())
    return data, MixtureSpec.from_json(data["mixture"])


def _invocation(wl, label):
    return next(i for i in wl.invocations if i.label == label)


def _rows(reports, label: str, name: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(reports[label][name].decode())))


def _rel_gap(log_a: float, log_b: float) -> float:
    """|a/b - 1| for two quantities given as logs."""
    return abs(math.expm1(log_a - log_b))


def _value_gap(a: float, b: float) -> float:
    """Relative gap, absolute for values below 1 in size (means near 0)."""
    return abs(a - b) / max(abs(b), 1.0)


def _estimate_gap(row: dict, values: list[float], n_rep: int, mean: str = "mean",
                  stderr: str = "stderr") -> float:
    """Gap between a reported estimate and the mean and standard error
    (ddof = 1) of the recomputed per-replica values; infinite when the row
    does not claim all ``n_rep`` replicas."""
    if "n_rep" in row and int(row["n_rep"]) != n_rep:
        return math.inf
    vals = np.asarray(values)
    return max(_value_gap(float(row[mean]), float(vals.mean())),
               _value_gap(float(row[stderr]), float(vals.std(ddof=1) / math.sqrt(vals.size))))


def _brute_table_logz(spec, table) -> np.ndarray:
    from coupledsk.bits import magnetizations
    from coupledsk.reference import brute_overlap_logz

    mag = magnetizations(table.n)
    return brute_overlap_logz(table.values[0] + spec.h1 * mag, table.values[1] + spec.h2 * mag)


def _brute_f(spec, n: int, sampler: str, root: int, n_rep: int, constraints) -> list[list[float]]:
    """(1/n) log of the windowed pair sum of every replica, for each
    constraint, from ``brute_overlap_logz`` on the seeded tables."""
    from coupledsk.disorder import get_sampler
    from coupledsk.parallel import replica_seed

    draw = get_sampler(spec, n, sampler)
    per_c = [[] for _ in constraints]
    for rep in range(n_rep):
        logz = _brute_table_logz(spec, draw.sample(replica_seed(root, rep)))
        for vals, c in zip(per_c, constraints):
            lo, hi = c.window_disagreement_range()
            vals.append(float(logsumexp(logz[lo:hi + 1])) / n)
    return per_c


def engine(wl, reports) -> list[tuple[str, float]]:
    """Report rows of ``overlap_resolved.csv`` (replica 0's table, every d)
    against ``brute_overlap_logz`` on the same table, at n <= 10; and the
    ``free_energy.csv`` estimates at n = 6 (tensor, every eps) and n = 8
    (process) against the brute-force average over all replicas."""
    from coupledsk.configurations import OverlapConstraint, nearest_admissible
    from coupledsk.disorder import get_sampler
    from coupledsk.parallel import replica_seed

    out = []
    for label, sampler, sizes, f_size in (("free-energy", "tensor", (6, 8, 10), 6),
                                          ("free-energy.process", "process", (8,), 8)):
        data, spec = _cfg(_invocation(wl, label).config)
        rows = _rows(reports, label, "overlap_resolved.csv")
        for n in sizes:
            logz = np.array([float(r["log_z"]) for r in rows if int(r["n"]) == n])
            brute = _brute_table_logz(spec, get_sampler(spec, n, sampler).sample(
                replica_seed(data["seed"], 0)))
            gap = max(_rel_gap(a, b) for a, b in zip(logz, brute)) if logz.size == n + 1 else math.inf
            out.append((f"{label}.overlap_resolved.n{n}", gap))

        k = nearest_admissible(f_size, data["u"]).k
        f_rows = [r for r in _rows(reports, label, "free_energy.csv") if int(r["n"]) == f_size]
        constraints = [OverlapConstraint(n=f_size, k=k, eps=float(r["eps"])) for r in f_rows]
        per_c = _brute_f(spec, f_size, sampler, data["seed"], data["n_rep"], constraints)
        for row, vals in zip(f_rows, per_c):
            out.append((f"{label}.free_energy.n{f_size}.eps{row['eps']}",
                        _estimate_gap(row, vals, data["n_rep"])))
        if not f_rows:
            out.append((f"{label}.free_energy.n{f_size}", math.inf))
    return out


def _brute_lemma3_phi(state, spec, n: int, c, t: float) -> float:
    """The structure-comparison path value of one replica at t, from
    per-element ``brute_overlap_logz`` sums."""
    from coupledsk.bits import spin_matrix
    from coupledsk.reference import brute_overlap_logz

    s = spin_matrix(n)
    rt, rs = math.sqrt(t), math.sqrt(1.0 - t)
    per_element = []
    for a in range(state.w.size):
        g1 = rt * state.table.values[0] + s @ (rs * state.z[:, 0, a] + spec.h1)
        g2 = rt * state.table.values[1] + s @ (rs * state.z[:, 1, a] + spec.h2)
        per_element.append(brute_overlap_logz(g1, g2)[c.d]
                           + math.sqrt(t * n) * (state.y[0, a] + state.y[1, a]))
    return float(logsumexp(per_element, b=state.w)) / n


def gibbs(wl, reports) -> list[tuple[str, float]]:
    """Every replica's lemma-3 state at t = 0.5, its path value from
    per-element ``brute_overlap_logz`` sums, against ``interp.csv``'s
    structure-comparison row; replica 0's against the library's path value;
    and ``lemma3.csv``'s free-energy row against the brute-force average."""
    from coupledsk.configurations import nearest_admissible
    from coupledsk.disorder import RostFieldSampler, RostSpec
    from coupledsk.interpolation import lemma3_phi_replica, lemma3_state
    from coupledsk.mixture import mixture_functions

    data, spec = _cfg(_invocation(wl, "interp").config)
    rost = RostSpec.from_dict(json.loads(Path(data["rost_file"]).read_text()))
    n, t, n_rep = data["n_list"][0], 0.5, data["n_rep"]
    c = nearest_admissible(n, data["u"])
    fields = RostFieldSampler(rost, mixture_functions(spec))
    out, phi = [], []
    for rep in range(n_rep):
        state = lemma3_state(rost, fields, spec, n, data["seed"], rep)
        phi.append(_brute_lemma3_phi(state, spec, n, c, t))
        if rep == 0:
            fast = lemma3_phi_replica(state, spec, n, c, t)
            out.append(("lemma3.phi.rep0.t0.5", _rel_gap(n * fast, n * phi[0])))
    row = next((r for r in _rows(reports, "interp", "interp.csv")
                if r["kind"] == "structure-comparison" and float(r["t"]) == t), None)
    out.append(("interp.structure-comparison.t0.5",
                math.inf if row is None else _estimate_gap(row, phi, n_rep)))

    data, spec = _cfg(_invocation(wl, "lemma3").config)
    row = next((r for r in _rows(reports, "lemma3", "lemma3.csv") if r["label"].startswith("F(")),
               None)
    (vals,) = _brute_f(spec, n, data.get("sampler", "tensor"), data["seed"], n_rep, [c])
    out.append(("lemma3.free_energy", math.inf if row is None else _estimate_gap(row, vals, n_rep)))
    return out


def _flat_explicit_terms(draw, r1, r2, spec, u_prime, variant: str) -> tuple[float, float]:
    """``brute_explicit_terms`` vectorised over the base pairs: the same flat
    enumeration of every increment-spin pair, no cavity ladder.  Its Python
    loop over pairs would add about 7 s to every run at n_rep = 120."""
    from coupledsk.bits import magnetizations, popcounts, spin_matrix

    m, n = draw.m, draw.n
    mag = magnetizations(m)
    z = draw.z if variant == "limit" else draw.z_finite
    y = draw.y if variant == "limit" else draw.y_finite
    s, pop = spin_matrix(n), popcounts(n)
    pair_ok = pop[np.arange(1 << n)[:, None] ^ np.arange(1 << n)[None, :]] == u_prime.d
    log_w = draw.trunc[0, r1] + draw.trunc[1, r2] + spec.h1 * mag[r1] + spec.h2 * mag[r2]
    e1 = (z[:, 0, r1].T + spec.h1) @ s.T  # (pairs, 2**n)
    e2 = (z[:, 1, r2].T + spec.h2) @ s.T
    energies = (e1[:, :, None] + e2[:, None, :])[:, pair_ok]
    term1 = logsumexp(log_w + logsumexp(energies, axis=1))
    term2 = logsumexp(log_w + np.sqrt(n) * (y[0, r1] + y[1, r2]))
    return float(term1) / n, float(term2) / n


def structure(wl, reports) -> list[tuple[str, float]]:
    """Cavity ladders of rost-eval's replica 0 (two elements, n = 10) against
    ``brute_cavity_logz``; rost-eval's compensator row against its average
    over all replicas; the explicit-structure terms of replica 5 (the CLI
    itself checks replicas 0-4) against ``brute_explicit_terms``; and
    ``explicit_rost.csv``'s limit row against the flat enumeration over all
    replicas."""
    from coupledsk.configurations import (admissible_sequence, construct_u_prime,
                                          nearest_admissible)
    from coupledsk.disorder import ExplicitSystemSampler, RostFieldSampler, RostSpec
    from coupledsk.free_energy import cavity_logz_by_count, explicit_terms_replica
    from coupledsk.mixture import mixture_functions
    from coupledsk.parallel import replica_seed, rng_for
    from coupledsk.reference import brute_cavity_logz, brute_explicit_terms

    out = []
    data, spec = _cfg(_invocation(wl, "rost-eval").config)
    rost = RostSpec.from_dict(json.loads(Path(data["rost_file"]).read_text()))
    n, root, n_rep = data["n_list"][0], data["seed"], data["n_rep"]
    c = nearest_admissible(n, data["u"])
    sampler = RostFieldSampler(rost, mixture_functions(spec))
    term2 = []
    for rep in range(n_rep):
        w = rost.weights.sample(rng_for(root, rep, 0), rost.m)
        fields = sampler.sample(rng_for(root, rep, 1), n)
        term2.append(float(logsumexp(math.sqrt(n) * (fields.y[0] + fields.y[1]), b=w)) / n)
        if rep == 0:
            for a in range(2):
                za, zb = fields.z[:, 0, a] + spec.h1, fields.z[:, 1, a] + spec.h2
                out.append((f"rost-eval.cavity.element{a}",
                            _rel_gap(float(cavity_logz_by_count(za, zb)[c.d]),
                                     brute_cavity_logz(za, zb, c.d))))
    row = next((r for r in _rows(reports, "rost-eval", "rost_eval.csv")
                if r["label"] == "G_term2"), None)
    out.append(("rost-eval.G_term2", math.inf if row is None else _estimate_gap(row, term2, n_rep)))

    data, spec = _cfg(_invocation(wl, "explicit-rost").config)
    m, n, u, root = data["m"], data["n_list"][0], data["u"], data["seed"]
    u_m = nearest_admissible(m, u)
    u_prime = construct_u_prime(n, admissible_sequence(u), m_max=max(40, 4 * n), u=u).constraint
    draws = ExplicitSystemSampler(spec, m, n)
    masks_d = np.array([x for x in range(1 << m) if x.bit_count() == u_m.d], dtype=np.int64)
    r1 = np.repeat(np.arange(1 << m, dtype=np.int64), masks_d.size)
    r2 = r1 ^ np.tile(masks_d, 1 << m)
    seed = replica_seed(root, 5)
    for variant in ("limit", "finite"):
        fast = explicit_terms_replica(spec, m, n, u_m, u_prime, variant, seed)
        slow = brute_explicit_terms(draws.sample(seed), r1, r2, spec, u_prime, variant)
        gap = max(_rel_gap(n * (fast.term1 + fast.log_norm), n * slow[0]),
                  _rel_gap(n * (fast.term2 + fast.log_norm), n * slow[1]))
        out.append((f"explicit-rost.terms.{variant}.rep5", gap))
    diff = [t1 - t2 for t1, t2 in (
        _flat_explicit_terms(draws.sample(replica_seed(root, rep)), r1, r2, spec, u_prime, "limit")
        for rep in range(n_rep))]
    row = next((r for r in _rows(reports, "explicit-rost", "explicit_rost.csv")
                if r["label"].endswith(",limit)")), None)
    out.append(("explicit-rost.G_MN.limit", math.inf if row is None else _estimate_gap(row, diff, n_rep)))
    return out


CHECKS = {"engine": engine, "gibbs": gibbs, "structure": structure}
