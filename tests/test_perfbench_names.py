"""The benchmark's traced callables exist under the names it patches, and it
pins the figure-1 CSV digest that the acceptance test pins.

``perfbench/suite.py`` traces public functions and methods of ``gmbayes`` by
``module`` plus ``attribute`` path; a rename in the program would otherwise
surface only in a traced benchmark run. Both ``perfbench/suite.py`` and
``tests/test_acceptance.py`` hold ``FIGURE1_CSV_SHA256``; a deliberate
re-record must change both.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def suite(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("suite")


def test_every_traced_layer_resolves(suite):
    assert suite.LAYERS
    for layer in suite.LAYERS:
        target = importlib.import_module(layer.module)
        for part in layer.attribute.split("."):
            assert hasattr(target, part), f"{layer.module}.{layer.attribute}: no {part!r}"
            target = getattr(target, part)
        assert callable(target), f"{layer.module}.{layer.attribute} is not callable"


def test_figure1_digest_pinned_alike(suite):
    acceptance = importlib.import_module("test_acceptance")
    assert acceptance.FIGURE1_CSV_SHA256 == suite.FIGURE1_CSV_SHA256
