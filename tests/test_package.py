"""The layer modules' public names: tools that wrap the public API read each
module's ``__all__`` and look every name up with ``getattr``."""

import importlib

import pytest

LAYERS = ("chain", "ensemble", "integrability", "lax", "reductions")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_resolves_and_lists_every_public_definition(layer):
    mod = importlib.import_module(f"pfaffchain.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    defined = {name for name, obj in vars(mod).items()
               if not name.startswith("_") and callable(obj)
               and getattr(obj, "__module__", None) == mod.__name__}
    assert sorted(defined - set(mod.__all__)) == []
