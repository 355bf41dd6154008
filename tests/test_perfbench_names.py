"""The benchmark's traced callables exist under the names it patches.

``perfbench/suite.py`` traces public functions and methods of ``gmbayes`` by
``module`` plus ``attribute`` path; a rename in the program would otherwise
surface only in a traced benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("suite").LAYERS


def test_every_traced_layer_resolves(layers):
    assert layers
    for layer in layers:
        target = importlib.import_module(layer.module)
        for part in layer.attribute.split("."):
            assert hasattr(target, part), f"{layer.module}.{layer.attribute}: no {part!r}"
            target = getattr(target, part)
        assert callable(target), f"{layer.module}.{layer.attribute} is not callable"
