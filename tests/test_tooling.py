"""The benchmark tracer rebinds package attributes by name
(``perfbench/layers.py``); a rename in the package must fail here, not there."""
import importlib
import importlib.util
from pathlib import Path

import greente

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    wraps = _load_layers().WRAPS
    assert wraps
    missing = [
        (module, attr) for module, attr, _ in wraps
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in greente.__all__ if not hasattr(greente, name)] == []
