"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (visible with -v or -s).  Statistical
criteria use pinned seeds, so a green run is reproducible.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from coupledsk.bits import magnetizations
from coupledsk.cli import main as cli_main
from coupledsk.configurations import OverlapConstraint, nearest_admissible
from coupledsk.disorder import (
    empirical_covariance,
    explicit_fields_psd,
    get_explicit_sampler,
    get_sampler,
    random_gram_rost,
)
from coupledsk.free_energy import (
    estimate_F,
    estimate_G,
    explicit_terms_replica,
    partition_by_overlap,
    _constrained_pairs,
)
from coupledsk.interpolation import (
    first_sum_bound,
    run_lemma2_curve,
    window_gap_profile,
    _lemma3_pass,
    size_trend,
)
from coupledsk.mixture import MixtureSpec, check_positivity, mixture_functions
from coupledsk.parallel import replica_seed
from coupledsk.reference import (
    brute_cavity_logz,
    brute_explicit_terms,
    brute_overlap_logz,
    build_explicit_rost,
)
from coupledsk.free_energy import cavity_logz_by_count

PURE_P2 = MixtureSpec(a1=(0.0, 0.5), a2=(0.0, 0.5))
EVEN_FIELDS = MixtureSpec(a1=(0.0, 0.6, 0.0, 0.2), a2=(0.0, 0.4, 0.0, 0.3), h1=0.2, h2=-0.1)


def report(num: int, name: str, elapsed: float, limit: float) -> None:
    print(f"criterion {num:02d} {name}: PASS ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


@pytest.fixture(scope="module")
def window_fits():
    """Window-gap profiles at N in {6, 8, 10}, shared by criteria 7 and 11."""
    t0 = time.perf_counter()
    fits = {}
    for n in (6, 8, 10):
        fits[n] = window_gap_profile(
            PURE_P2, OverlapConstraint(n, 0), (0.0, 0.25, 0.5, 1.0), n_rep=2000, seed=700 + n
        )
    fits["elapsed"] = time.perf_counter() - t0
    return fits


def test_criterion_01_exact_combinatorics():
    start = time.perf_counter()
    for n in range(1, 13):
        for k in range(-n, n + 1, 2):
            c = OverlapConstraint(n, k)
            zero = MixtureSpec(a1=(0.0,), a2=(0.0,))
            est = estimate_F(zero, c, n_rep=2, seed=0)
            expected = (n * math.log(2.0) + math.log(math.comb(n, c.d))) / n
            assert est.mean == pytest.approx(expected, abs=1e-12)
            assert est.stderr == 0.0
    report(1, "exact combinatorics", time.perf_counter() - start, 1.0)


def test_criterion_02_engine_oracle():
    start = time.perf_counter()
    sizes = [4] * 17 + [5] * 17 + [6] * 16
    for i, n in enumerate(sizes):
        table = get_sampler(EVEN_FIELDS, n, "tensor").sample(2000 + i)
        log_z = partition_by_overlap(table, EVEN_FIELDS.h1, EVEN_FIELDS.h2)
        mag = magnetizations(n)
        brute = brute_overlap_logz(
            table.values[0] + EVEN_FIELDS.h1 * mag,
            table.values[1] + EVEN_FIELDS.h2 * mag,
        )
        assert np.max(np.abs(np.expm1(log_z - brute))) <= 1e-10
    report(2, "transform engine oracle", time.perf_counter() - start, 30.0)


def test_criterion_03_cavity_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    count = 0
    while count < 100:
        n = int(rng.integers(3, 6))
        a = rng.standard_normal(n) * 1.2
        b = rng.standard_normal(n) * 1.2
        ladder = cavity_logz_by_count(a, b)
        for d in range(n + 1):
            ref = brute_cavity_logz(a, b, d)
            assert abs(ladder[d] - ref) <= 1e-10 * max(1.0, abs(ref))
        count += 1
    report(3, "cavity ladder oracle", time.perf_counter() - start, 10.0)


def test_criterion_04_covariance_identity():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # odd orders: convexity not needed here
        spec = MixtureSpec(a1=(0.3, 0.5, 0.4), a2=(0.2, 0.4, 0.3))
    masks = [(0, 0), (0, 255), (0, 15), (0, 3)]
    probes = [
        (m1, m2, ell, ellp)
        for (m1, m2) in masks
        for (ell, ellp) in ((1, 1), (1, 2), (2, 2))
    ]
    rep = empirical_covariance(spec, 8, 10_000, probes, seed=4)
    assert rep.max_sigmas <= 4.0, rep.max_sigmas
    report(4, "covariance identity", time.perf_counter() - start, 120.0)


def test_criterion_05_dual_sampler_agreement():
    start = time.perf_counter()
    c = OverlapConstraint(6, 0)
    a = estimate_F(PURE_P2, c, 20_000, seed=101, sampler="tensor")
    b = estimate_F(PURE_P2, c, 20_000, seed=202, sampler="process")
    sigma = math.hypot(a.stderr, b.stderr)
    assert abs(a.mean - b.mean) <= 3.0 * sigma, (a.mean, b.mean, sigma)
    report(5, "dual-sampler agreement", time.perf_counter() - start, 120.0)


def test_criterion_06_positivity_grid():
    start = time.perf_counter()
    specs = [
        MixtureSpec(a1=(0.0, 1.0), a2=(0.0, 1.0)),
        MixtureSpec(a1=(0.0, 1.0, 0.0, 0.3), a2=(0.0, 1.0, 0.0, 0.3)),
        MixtureSpec(a1=(0.0, 0.5, 0.0, 0.2, 0.0, 0.1), a2=(0.0, 0.4, 0.0, 0.3, 0.0, 0.2)),
    ]
    for spec in specs:
        rep = check_positivity(spec)
        assert rep.passed
        assert min(rep.minima.values()) >= -1e-10
    report(6, "positivity grid", time.perf_counter() - start, 1.0)


def test_criterion_07_window_constant(window_fits):
    start = time.perf_counter() - window_fits["elapsed"]
    for n in (6, 8, 10):
        prof = window_fits[n]
        assert prof["min_gap"] >= -1e-12  # window value >= point value per replica
    lhat = np.array([window_fits[n]["fitted_constant"] for n in (6, 8, 10)])
    lse = np.array([window_fits[n]["fitted_constant_stderr"] for n in (6, 8, 10)])
    tstat, assessed = size_trend((6, 8, 10), lhat, lse)
    assert assessed and tstat < 2.0, (lhat.tolist(), tstat)
    report(7, "window constant fit", time.perf_counter() - start, 600.0)


def test_criterion_08_split_derivative():
    start = time.perf_counter()
    for m, n in ((4, 4), (6, 3)):
        run = run_lemma2_curve(PURE_P2, m, n, 0.0, (0.25, 0.5, 0.75), 1000, seed=80)
        for g, fd in zip(run.gibbs, run.dphi_fd):
            assert g.convexity_term.mean <= 3.0 * g.convexity_term.stderr
            sigma = math.hypot(g.phi_prime.stderr, fd.stderr)
            assert abs(g.phi_prime.mean - fd.mean) <= 3.0 * sigma
    report(8, "split-path derivative", time.perf_counter() - start, 600.0)


def test_criterion_09_structure_upper_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    n = 4
    c = OverlapConstraint(n, 0)
    funcs = mixture_functions(PURE_P2)
    for trial in range(10):
        m = int(rng.integers(2, 7))
        rost = random_gram_rost(m, 0.0, 0.05, rng)
        f_est = estimate_F(PURE_P2, c, 2000, seed=900 + trial)
        g_est = estimate_G(rost, PURE_P2, c, 2000, seed=950 + trial)
        bound = first_sum_bound(rost, funcs, c.u)
        margin = 4.0 * math.hypot(f_est.stderr, g_est.diff.stderr)
        assert f_est.mean <= g_est.diff.mean + bound + margin, (
            trial, f_est.mean, g_est.diff.mean, bound, margin
        )
        _, derivs = _lemma3_pass(rost, PURE_P2, c, (), (0.25, 0.5, 0.75), 500,
                                 seed=990 + trial)
        for der in derivs:
            assert der.second_line.mean <= 3.0 * der.second_line.stderr
    report(9, "structure upper bound", time.perf_counter() - start, 900.0)


def test_criterion_10_explicit_structure():
    start = time.perf_counter()
    u_m6 = nearest_admissible(6, 0.0)
    rost = build_explicit_rost(u_m6, 0.0)
    assert np.all(np.diag(rost.q12) == u_m6.u)
    assert np.all(np.diag(rost.q11) == 1.0) and np.all(np.diag(rost.q22) == 1.0)
    # explicit-rost's psd_ok; the field-sampler verdict test factors the
    # dense blocks of this same (mixture, M = 6, u = 0) input
    assert explicit_fields_psd(mixture_functions(PURE_P2), u_m6)

    m = n = 4
    u_m = nearest_admissible(m, 0.0)
    u_p = OverlapConstraint(n, 0)
    sampler = get_explicit_sampler(PURE_P2, m, n)
    r1, r2 = _constrained_pairs(m, u_m.d)
    for rep in range(5):
        seed = replica_seed(1000, rep)
        t = explicit_terms_replica(PURE_P2, m, n, u_m, u_p, "limit", seed)
        draw = sampler.sample(seed)
        bt1, bt2 = brute_explicit_terms(draw, r1, r2, PURE_P2, u_p, "limit")
        assert abs(t.term1 + t.log_norm - bt1) <= 1e-10
        assert abs(t.term2 + t.log_norm - bt2) <= 1e-10
    report(10, "explicit structure", time.perf_counter() - start, 300.0)


def test_criterion_11_sequence_independence(window_fits):
    start = time.perf_counter()
    for n in (6, 8, 10):
        k0 = 0
        k1 = 2
        diffs = np.empty(2000)
        for rep in range(2000):
            table = get_sampler(PURE_P2, n, "tensor").sample(replica_seed(1100 + n, rep))
            part = partition_by_overlap(table, 0.0, 0.0)
            diffs[rep] = (
                part[(n - k0) // 2] - part[(n - k1) // 2]
            ) / n
        mean = float(diffs.mean())
        se = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
        lhat = window_fits[n]["fitted_constant"]
        bound = lhat * math.sqrt(2.0 / n) + 3.0 * se
        assert abs(mean) <= bound, (n, mean, bound)
    report(11, "sequence independence", time.perf_counter() - start, 300.0)


def test_criterion_12_determinism(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mixture": {"a1": [0.0, 0.5], "a2": [0.0, 0.5]},
        "n_list": [4], "m": 3, "u": 0.0, "eps_grid": [0.0, 0.5, 1.0],
        "t_grid": [0.5], "n_rep": 40, "seed": 12, "rost": {"m": 3, "delta": 0.05},
    }))
    for command in ("free-energy", "validate", "lemma1"):
        out1 = tmp_path / f"{command}-1"
        out2 = tmp_path / f"{command}-2"
        assert cli_main([command, "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            if f1.suffix == ".csv":
                assert f1.read_bytes() == f2.read_bytes(), f1.name
            else:
                l1 = [l for l in f1.read_text().splitlines() if "timestamp" not in l]
                l2 = [l for l in f2.read_text().splitlines() if "timestamp" not in l]
                assert l1 == l2, f1.name
    report(12, "determinism", time.perf_counter() - start, 120.0)
