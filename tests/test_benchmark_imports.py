"""Every coupledsk name the benchmark harness in perfbench/ imports resolves."""

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
