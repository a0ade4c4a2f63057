"""The package exports exactly the library API that the README lists, the
README's library quick start runs as written, and no module imports a name it
never uses."""

import ast
import re
from pathlib import Path

import gossipsim

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_all_equals_readme_list():
    items = [line for line in _section("Library API").splitlines()
             if line.startswith(("- ", "  "))]  # list items and their wrapped lines
    names = re.findall(r"`(\w+)`", "\n".join(items))
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(gossipsim.__all__)


def test_quick_start_imports_are_exported():
    imports = re.search(r"from gossipsim import \(([^)]*)\)",
                        _section("Quick start (library)")).group(1)
    assert set(re.findall(r"\w+", imports)) <= set(gossipsim.__all__)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from gossipsim import *", namespace)
    for name in gossipsim.__all__:
        assert namespace[name] is getattr(gossipsim, name)


def test_quick_start_runs_as_written():
    code = re.search(r"```python\n(.*?)```", _section("Quick start (library)"),
                     re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["report"].as_dict() == {
        "estimator": "first_sent", "num_msg": 200, "num_unobserved": 0,
        "hit_ratio": 0.35, "inverse_rank": 0.4425846587136264,
        "entropy": 1.879647467607768, "ndcg": 0.529893443263828,
        "message_spread_ratio": 0.9998849999999997}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # a package __init__ imports names to re-export them
    files = [path for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"]
    assert [entry for path in files for entry in _unused_imports(path)] == []
