"""The package namespace re-exports each module's public names once, and
importing it loads no scipy."""

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
