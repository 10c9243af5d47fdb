"""The package namespace re-exports each module's public names once."""

import bihm
from bihm import estimators, io, model, oracle, sampling, training

MODULES = (estimators, io, model, oracle, sampling, training)


def test_every_public_name_is_listed_once_and_is_the_module_object():
    assert len(bihm.__all__) == len(set(bihm.__all__))
    assert sorted(bihm.__all__) == sorted(n for m in MODULES for n in m.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bihm, name) is getattr(module, name), f"{module.__name__}.{name}"
