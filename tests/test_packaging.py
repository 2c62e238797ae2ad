"""The declared dependencies and the import-time contract of ``repro``.

NumPy is a required dependency, declared in ``pyproject.toml``, but it is
imported lazily: ``import repro`` only locates it, and a missing install
fails there with a message naming the package.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_missing_numpy_fails_at_import_naming_the_dependency():
    result = run_python("import sys; sys.modules['numpy'] = None; import repro")
    assert result.returncode != 0
    assert "ImportError" in result.stderr
    assert "numpy" in result.stderr
    assert "pyproject.toml" in result.stderr


def test_importing_every_package_leaves_numpy_unimported():
    result = run_python(
        "import sys\n"
        "import repro, repro.core, repro.verify, repro.experiments, repro.jobs\n"
        "import repro.scenarios, repro.mutex, repro.unison, repro.baselines\n"
        "print('numpy' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def third_party_imports() -> set:
    """Top-level names of every absolute non-stdlib import under ``src/``."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro", "__future__"}


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    imported = third_party_imports()
    assert "numpy" in imported
    assert imported <= declared, sorted(imported - declared)
