"""The package exports exactly the library API that the README lists."""

import re
from pathlib import Path

import gossipsim

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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
