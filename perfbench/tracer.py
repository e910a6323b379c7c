"""Span recorder installed from outside the program.

Wrappers go on the public functions listed in ``TARGETS``, in every
``coupledsk`` namespace that bound the name (``xor_correlation``, for one,
is bound in ``bits``, ``free_energy`` and ``interpolation``).  Each call
records a span -- name, start, end, parent, and an optional tag such as the
spin count -- in memory; ``Tracer.dump`` writes them out when the pass ends
and ``summarize`` turns a dump into per-layer metrics.

A few hooks also count work from the arguments.  Counts marked "computed"
(``bits.fwht.flop``, ``bits.fwht.bytes``, ``disorder.ProcessSampler.sample.bytes``)
are derived from array shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (layer, qualified name inside the module); "ProcessSampler.init" means
# ProcessSampler.__init__.  Metric names are "<layer>.<qualname>.calls|self_s".
TARGETS = {
    "bits": ("fwht", "xor_correlation", "bucket_by_popcount", "bucket_by_split_popcount"),
    "disorder": ("TensorSampler.sample", "ProcessSampler.init", "ProcessSampler.sample",
                 "RostFieldSampler.init", "RostFieldSampler.sample",
                 "ExplicitSystemSampler.sample", "psd_factor"),
    "free_energy": ("overlap_resolved_logz", "partition_by_overlap",
                    "OverlapResolvedPartition.log_window", "cavity_logz_by_count",
                    "g_terms_replica", "explicit_terms_replica", "build_explicit_rost"),
    "interpolation": ("lemma2_phi_replica", "lemma2_derivative_replica", "lemma3_state",
                      "lemma3_phi_replica", "lemma3_derivative_replica",
                      "window_gap_profile", "verdict_suite"),
    "mixture": ("check_convexity", "MixtureFunctions.xi", "MixtureFunctions.xi_prime",
                "MixtureFunctions.theta"),
    "parallel": ("pmap", "replica_seed"),
    "cli": ("ExperimentConfig.load",),
    "reference": ("brute_overlap_logz", "brute_cavity_logz", "brute_explicit_terms"),
}
SIZES = (6, 8, 10, 12)
ENVELOPE = "cli.run"  # prefix of the per-subcommand spans the pass runner opens
COMPUTED = ("bits.fwht.flop", "bits.fwht.bytes", "disorder.ProcessSampler.sample.bytes")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _seed_key(seed):
    spawn = getattr(seed, "spawn_key", None)
    return (repr(getattr(seed, "entropy", seed)), tuple(spawn or ()))


class Tracer:
    """In-memory span list plus counters; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # [name id, start, end, parent index, tag]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.context = ""
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, hook=None):
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = hook(self, args, kwargs) if hook is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent, tag)
                stack.pop()

        return wrapper

    def run(self, name: str, fn, *args):
        """Call fn inside a span that is not a program function (an envelope)."""
        return self.span(name, fn)(*args)

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap every target (or the ``only`` subset) in every coupledsk namespace."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "coupledsk" or k.startswith("coupledsk."))]
        for layer, quals in TARGETS.items():
            mod = sys.modules.get(f"coupledsk.{layer}")
            for qual in quals:
                name = f"{layer}.{qual}"
                if only is not None and name not in only:
                    continue
                hook = HOOKS.get(name)
                owner_name, _, attr = qual.rpartition(".")
                attr = "__init__" if attr == "init" else attr
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if owner_name:  # method on a class: one patch serves every namespace
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self.span(name, raw.__func__, hook)))
                    else:
                        setattr(owner, attr, self.span(name, raw, hook))
                    continue
                wrapped = self.span(name, raw, hook)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is raw:
                            setattr(m, key, wrapped)

    def dump(self, path, **extra) -> None:
        if self._stack:
            raise RuntimeError("dump called with spans still open")
        data = {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "missing": self.missing,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# Argument hooks: count work where it happens, and tag spans by size
# ---------------------------------------------------------------------------


def _fwht_hook(tr, args, kwargs):
    shape = getattr(args[0], "shape", ())
    axis = _arg(args, kwargs, 1, "axis", -1)
    if not shape:
        return None
    length = shape[axis]
    vectors = math.prod(shape) // max(length, 1)
    work = vectors * length * max(length.bit_length() - 1, 0)
    tr.counters["bits.fwht.vectors"] += vectors
    tr.counters["bits.fwht.flop"] += work  # one add or subtract per element per stage
    tr.counters["bits.fwht.bytes"] += 16 * work  # each stage reads and writes every float64
    return None


def _draw_hook(tr, args, kwargs):
    sampler = args[0]
    tr.counters["disorder.tables_drawn"] += 1
    tr.keys["disorder.tables"].add((tr.context, sampler.n, _seed_key(_arg(args, kwargs, 1, "seed"))))
    return sampler.n


def _process_draw_hook(tr, args, kwargs):
    n = _draw_hook(tr, args, kwargs)
    tr.counters["disorder.ProcessSampler.sample.bytes"] += 8 * (2 * 2**n) ** 2
    return n


def _orlz_hook(tr, args, kwargs):
    return getattr(args[0], "size", 1).bit_length() - 1


def _ladder_hook(tr, args, kwargs):
    shape = getattr(args[0], "shape", None) or (len(args[0]),)
    tr.counters["free_energy.cavity_logz_by_count.rows"] += math.prod(shape[:-1])
    return None


def _state_hook(tr, args, kwargs):
    root, rep = _arg(args, kwargs, 4, "root"), _arg(args, kwargs, 5, "rep")
    tr.keys["interpolation.replicas"].add((tr.context, root, rep))
    return None


def _pmap_hook(tr, args, kwargs):
    tr.counters["parallel.pmap.items"] += len(_arg(args, kwargs, 1, "items", ()))
    return None


HOOKS = {
    "bits.fwht": _fwht_hook,
    "disorder.TensorSampler.sample": _draw_hook,
    "disorder.ProcessSampler.sample": _process_draw_hook,
    "free_energy.overlap_resolved_logz": _orlz_hook,
    "free_energy.cavity_logz_by_count": _ladder_hook,
    "interpolation.lemma3_state": _state_hook,
    "parallel.pmap": _pmap_hook,
}


# ---------------------------------------------------------------------------
# Dump -> metrics
# ---------------------------------------------------------------------------


def span_table(dump: dict) -> dict:
    """Per span name: calls, total time, self time, and total time per tag."""
    names, spans = dump["names"], dump["spans"]
    child = [0.0] * len(spans)
    dur = [s[2] - s[1] for s in spans]
    for pos, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[pos]
    table: dict = {}
    for pos, s in enumerate(spans):
        row = table.setdefault(names[s[0]], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "by_tag": defaultdict(lambda: [0, 0.0])})
        row["calls"] += 1
        row["total_s"] += dur[pos]
        row["self_s"] += dur[pos] - child[pos]
        if s[4] is not None:
            acc = row["by_tag"][s[4]]
            acc[0] += 1
            acc[1] += dur[pos]
    return table


def top_level_s(dump: dict) -> float:
    """Time covered by program-layer spans whose parent is an envelope or none."""
    names, spans = dump["names"], dump["spans"]
    total = 0.0
    for s in spans:
        if names[s[0]].startswith(ENVELOPE):
            continue
        parent = s[3]
        if parent < 0 or names[spans[parent][0]].startswith(ENVELOPE):
            total += s[2] - s[1]
    return total


def summarize(dump: dict, labels: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one fully traced pass, as name -> (value, unit)."""
    table = span_table(dump)
    counters, distinct = dump["counters"], dump["distinct"]
    out: dict[str, tuple[float, str]] = {}
    for layer, quals in TARGETS.items():
        for qual in quals:
            row = table.get(f"{layer}.{qual}", {"calls": 0, "self_s": 0.0, "by_tag": {}})
            out[f"{layer}.{qual}.calls"] = (row["calls"], "count")
            out[f"{layer}.{qual}.self_s"] = (row["self_s"], "s")
    for key in ("bits.fwht.vectors", "free_energy.cavity_logz_by_count.rows", "parallel.pmap.items"):
        out[key] = (counters.get(key, 0), "count")
    out["bits.fwht.flop"] = (counters.get("bits.fwht.flop", 0), "flop.computed")
    out["bits.fwht.bytes"] = (counters.get("bits.fwht.bytes", 0), "B.computed")
    out["disorder.ProcessSampler.sample.bytes"] = (
        counters.get("disorder.ProcessSampler.sample.bytes", 0), "B.computed")
    for base in ("disorder.TensorSampler.sample", "free_energy.overlap_resolved_logz"):
        by_tag = table.get(base, {}).get("by_tag", {})
        for n in SIZES:
            calls, total = by_tag.get(n, (0, 0.0))
            out[f"{base}.us_per_call.n{n}"] = (1e6 * total / calls if calls else 0.0, "us")
    drawn, tables = counters.get("disorder.tables_drawn", 0), distinct.get("disorder.tables", 0)
    out["disorder.tables_per_seed"] = (drawn / tables if tables else 0.0, "ratio")
    states = table.get("interpolation.lemma3_state", {"calls": 0})["calls"]
    reps = distinct.get("interpolation.replicas", 0)
    out["interpolation.states_per_replica"] = (states / reps if reps else 0.0, "ratio")
    for label in labels:
        row = table.get(f"{ENVELOPE}.{label}")
        out[f"cli.{label}.s"] = (row["total_s"] if row else 0.0, "s")
    return out
