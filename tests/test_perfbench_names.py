"""The benchmark's traced callables exist under the names it patches.

``perfbench/suite.py`` traces public functions and methods of ``gmbayes`` by
``module`` plus ``attribute`` path; a rename in the program would otherwise
surface only in a traced benchmark run.
"""

import importlib


def test_every_traced_layer_resolves(suite):
    assert suite.LAYERS
    for layer in suite.LAYERS:
        target = importlib.import_module(layer.module)
        for part in layer.attribute.split("."):
            assert hasattr(target, part), f"{layer.module}.{layer.attribute}: no {part!r}"
            target = getattr(target, part)
        assert callable(target), f"{layer.module}.{layer.attribute} is not callable"
