"""Every public top-level function and class in coupledsk has a caller in
the package, apart from the names allowlisted below with their reasons.
Code that only the tests or the benchmark reach gets a real caller or is
deleted with its tests.  No module imports a name it never reads, and no
function takes a size beside the OverlapConstraint that already holds it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coupledsk"

# one-replica wrappers that perfbench/oracle.py pins against its own sums
BENCHMARK_PINNED = {
    "interpolation.lemma3_state",
    "interpolation.lemma3_phi_replica",
    "free_energy.explicit_terms_replica",
}
# one-replica wrappers whose n or m duplicates a constraint's size: they keep
# it because perfbench/oracle.py calls them positionally
SIZE_BESIDE_CONSTRAINT = {
    "interpolation.lemma3_phi_replica",
    "free_energy.explicit_terms_replica",
}
# oracles and closed forms in reference.py that only the tests compare with
TEST_ORACLES = {
    "reference.finite_z_covariance",
    "reference.finite_y_covariance",
    "reference.dense_process_covariance",
    "reference.build_explicit_rost",
    "reference.explicit_full_table",
}


def _uncalled() -> set[str]:
    """module.name of each public top-level def that no code in the package
    refers to outside its own body."""
    trees = [(p.stem, ast.parse(p.read_text(), filename=str(p))) for p in sorted(SRC.glob("*.py"))]
    refs = [(n.id if isinstance(n, ast.Name) else n.attr, n)
            for _, tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    uncalled = set()
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = {id(n) for n in ast.walk(node)}
                if not any(name == node.name and id(ref) not in own for name, ref in refs):
                    uncalled.add(f"{module}.{node.name}")
    return uncalled


def test_every_public_name_has_a_caller():
    assert _uncalled() - BENCHMARK_PINNED - TEST_ORACLES == set()


def test_allowlist_names_only_uncalled_code():
    assert BENCHMARK_PINNED | TEST_ORACLES <= _uncalled()


def test_every_imported_name_is_read():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    unused = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in imported - read}
    assert unused == set()


def _size_beside_a_constraint() -> set[str]:
    """module.name of each function with a parameter annotated
    OverlapConstraint and an int parameter named n or m."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            kinds = {(a.arg, ast.unparse(a.annotation)) for a in params if a.annotation}
            if any(kind == "OverlapConstraint" for _, kind in kinds) and (
                    {("n", "int"), ("m", "int")} & kinds):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_no_size_beside_a_constraint():
    assert _size_beside_a_constraint() == SIZE_BESIDE_CONSTRAINT
