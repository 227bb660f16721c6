"""src/ holds what the CLI and the benchmark run: every public top-level
function and class of a powerwalk module is read by code outside its own
definition. A definition only tests read belongs in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

def referenced_names(nodes) -> set[str]:
    """Every identifier a name, an attribute or an import among ``nodes`` reads."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def unreferenced_definitions() -> list[str]:
    # __init__ re-exports names, which is not a use of them.
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "powerwalk").glob("*.py"))
        if path.stem != "__init__"
    }
    bench_files = sorted((ROOT / "perfbench").glob("*.py"))
    bench = referenced_names(ast.parse(path.read_text()) for path in bench_files)
    unused = []
    for name, tree in modules.items():
        outside = bench | referenced_names(t for n, t in modules.items() if n != name)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in outside:
                continue
            if node.name not in referenced_names(n for n in tree.body if n is not node):
                unused.append(f"{name}.{node.name}")
    return unused


def test_every_public_definition_in_src_is_run_outside_the_tests():
    assert unreferenced_definitions() == []


def imported_modules(tree) -> set[str]:
    """The top-level package of every import in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_budgets_and_warnings_are_the_cli_s_policy():
    # The numerical modules only compute: no function of src/ takes a budget,
    # and only cli.py names the budget default or could warn.
    for path in sorted((ROOT / "src" / "powerwalk").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert "budget" not in [a.arg for a in args], path.name
        if path.stem != "cli":
            assert "warnings" not in imported_modules(tree), path.name
            assert "DEFAULT_DENSE_BUDGET" not in referenced_names([tree]), path.name
