"""The benchmark's traced call sites still exist in the library.

``perfbench/tracing.py`` rebinds each ``(owner, attribute)`` of its
``TARGETS`` to a timing wrapper.  A function renamed or moved in ``bihm``
would make that fail at benchmark time; this catches it in the unit tests.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing.TARGETS
        if not callable(vars(owner).get(attr))
    ]
    assert not missing, f"traced call sites not found: {missing}"
