"""The package namespace re-exports each module's public names once,
importing it loads no scipy, and one function owns the block loop."""

import ast
import os
import subprocess
import sys

import bihm
from bihm import estimators, io, model, oracle, sampling, training

MODULES = (estimators, io, model, oracle, sampling, training)


def test_every_public_name_is_listed_once_and_is_the_module_object():
    assert len(bihm.__all__) == len(set(bihm.__all__))
    assert sorted(bihm.__all__) == sorted(n for m in MODULES for n in m.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bihm, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_no_scipy():
    # A fresh interpreter, so that modules the tests import do not count.
    src = os.path.dirname(os.path.dirname(bihm.__file__))
    code = "import sys, bihm, bihm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "[]\n"


def test_only_the_block_loop_starts_threads_or_builds_seed_sequences():
    # How a parallel loop is cut, seeded and scheduled is decided in one
    # place, estimators._each_block: no other code of the package starts a
    # thread or builds a generator's seed sequence.
    src = os.path.dirname(bihm.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        for top in tree.body:
            owner = f"{name[:-3]}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if called in ("Thread", "SeedSequence"):
                        found.append((owner, called))
    assert sorted(found) == [("estimators._each_block", "SeedSequence"), ("estimators._each_block", "Thread")]
