"""The demo scripts import only names the library has, and the quick ones run.

Every ``demos/*.py`` is parsed, and each name it imports from ``bihm`` must
resolve.  The demos that finish in about a second are run in a scratch
directory; ``gibbs_and_inpainting.py`` (tens of seconds) and
``train_toy_bars.py`` (a full training run) are only parsed.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import bihm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(bihm.__file__)))


def bihm_imports(path):
    """``(module, name)`` for every ``from bihm... import name`` in a script."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bihm"
        for alias in node.names
    ]


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_imported_names_resolve(path):
    imports = bihm_imports(path)
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"names not found in bihm: {missing}"


@pytest.mark.parametrize("name", ["model_basics.py", "exact_vs_estimated.py", "file_formats.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
