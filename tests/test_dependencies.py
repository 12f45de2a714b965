"""Every third-party package the program imports is a declared dependency.

A fresh ``pip install -e ".[dev]"`` installs exactly what ``pyproject.toml``
lists, so an undeclared import works on a box that happens to have the
package and fails on a clean one — for a function-local import, only on
the code path that reaches it.  This walks the AST of every module under
``src/repro``, function bodies included.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Import names that differ from their distribution's name.
_DISTRIBUTION_FOR = {}


def _declared_dependencies():
    """Distribution names in ``[project].dependencies`` (normalized)."""
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    listing = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.S | re.M)
    assert listing is not None, "pyproject.toml declares no [project].dependencies"
    names = set()
    for requirement in re.findall(r"[\"']([^\"']+)[\"']", listing.group(1)):
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        names.add(re.sub(r"[-_.]+", "-", name).lower())
    return names


def _imported_packages():
    """Top-level package of every absolute import, with one importing file."""
    packages = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                packages.setdefault(top, path.relative_to(ROOT).as_posix())
    return packages


def test_every_third_party_import_is_declared():
    stdlib = getattr(sys, "stdlib_module_names", None)
    if stdlib is None:
        pytest.skip("sys.stdlib_module_names needs Python >= 3.10")
    declared = _declared_dependencies()
    undeclared = {
        package: where
        for package, where in _imported_packages().items()
        if package not in stdlib
        and package != "repro"
        and _DISTRIBUTION_FOR.get(package, package).lower() not in declared
    }
    assert not undeclared, (
        "imported but not in pyproject.toml [project].dependencies: "
        + ", ".join(f"{package} ({where})" for package, where in sorted(undeclared.items()))
    )
