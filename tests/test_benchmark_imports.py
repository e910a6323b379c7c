"""Every coupledsk name the benchmark harness in perfbench/ imports or traces resolves."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imports() -> list[tuple[str, str, str]]:
    """(file, module, name) for each coupledsk import in perfbench/*.py;
    name is "" for a plain module import."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coupledsk":
                found.update((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((path.name, alias.name, "") for alias in node.names
                             if alias.name.split(".")[0] == "coupledsk")
    return sorted(found)


IMPORTS = _imports()


def test_harness_imports_were_found():
    names = {name for _, _, name in IMPORTS}
    assert {"explicit_terms_replica", "construct_u_prime", "admissible_sequence", "get_sampler",
            "lemma3_state", "brute_overlap_logz", "brute_cavity_logz",
            "brute_explicit_terms"} <= names


@pytest.mark.parametrize("where,module,name", IMPORTS,
                         ids=[f"{f}:{m}.{n}" if n else f"{f}:{m}" for f, m, n in IMPORTS])
def test_benchmark_import_resolves(where, module, name):
    mod = importlib.import_module(module)
    if name:
        # "from package import submodule" binds the submodule
        found = hasattr(mod, name) or (
            hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None)
        assert found, f"perfbench/{where} imports {name} from {module}, which does not define it"


def _traced() -> list[tuple[str, str]]:
    """(layer, qualified name) for each entry of perfbench/tracer.py's TARGETS,
    read from the source without importing the harness."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            targets = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in targets.items() for name in names]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


# traced names whose code was deleted from coupledsk; they read 0 calls
STALE_TARGETS = {("free_energy", "OverlapResolvedPartition.log_window"),
                 ("interpolation", "verdict_suite"),
                 ("bits", "bucket_by_split_popcount"),
                 ("free_energy", "g_terms_replica"),
                 ("free_energy", "build_explicit_rost"),
                 ("interpolation", "lemma2_phi_replica"),
                 ("interpolation", "lemma2_derivative_replica"),
                 ("interpolation", "lemma3_derivative_replica")}
TRACED = [t for t in _traced() if t not in STALE_TARGETS]


def test_traced_targets_were_found():
    assert ("bits", "fwht") in TRACED and ("interpolation", "lemma3_phi_replica") in TRACED


@pytest.mark.parametrize("layer,qualname", TRACED,
                         ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_traced_target_resolves(layer, qualname):
    obj = importlib.import_module(f"coupledsk.{layer}")
    for part in qualname.split("."):
        # the tracer names a method __init__ as "init"
        part = "__init__" if part == "init" else part
        assert hasattr(obj, part), f"perfbench/tracer.py traces {layer}.{qualname}, which is gone"
        obj = getattr(obj, part)
    assert callable(obj)
