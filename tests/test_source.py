"""Source checks that need no linter: syntax of the oldest supported Python, unused imports,
and what importing the CLI loads."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
# __init__ imports names only to re-export them
MODULES = sorted(p for p in (ROOT / "src" / "ordens").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses loads inspect, ast and dis; without it `import ordens.cli` is about 30%
    # faster (Python 3.11).
    # -S keeps site hooks from loading either of them.
    code = "import ordens.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_scan_imports_only_field():
    # the prime scan checks the density code, so it must not share any of it
    tree = ast.parse((ROOT / "src" / "ordens" / "scan.py").read_text())
    ours = {"." * node.level + (node.module or "") for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ordens"))}
    assert ours == {".field"}
