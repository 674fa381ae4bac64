"""The benchmark's layer table against the package.

perfbench/layertrace.py wraps every traced name where its callers look it
up, by owner.__dict__[attr], so a name deleted or renamed in the package
breaks the traced benchmark run. These tests load the table by file path,
as the benchmark does, and install it on the package's own modules.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from orbit_locator import linalg

_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _TABLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(layertrace):
    """The package's modules by name, and (owner, attr, layer) per row."""
    modules = {name: importlib.import_module(f"orbit_locator.{name}")
               for name in {row[0] for row in layertrace.LAYERS}}
    rows = [(getattr(modules[mod], owner) if owner else modules[mod], attr, layer)
            for mod, owner, attr, layer, _, _ in layertrace.LAYERS]
    return modules, rows


def test_layer_table_wraps_every_row_and_restores_it():
    # install wraps each row's own attribute; remove puts the very
    # object back
    layertrace = _layertrace()
    modules, rows = _rows(layertrace)
    before = [owner.__dict__[attr] for owner, attr, _ in rows]
    tracer = layertrace.Tracer()
    tracer.install(modules)
    try:
        for (owner, attr, layer), original in zip(rows, before):
            assert owner.__dict__[attr].__wrapped__ is original, layer
    finally:
        tracer.remove()
    for (owner, attr, layer), original in zip(rows, before):
        assert owner.__dict__[attr] is original, layer


def test_retired_rows_wrap_the_one_stub():
    # the six names no route calls are one stub that refuses; their rows
    # still trace it, one call each
    layertrace = _layertrace()
    modules, rows = _rows(layertrace)
    retired = {"linalg.sym_eigh_desc", "linalg.top_singular_triple",
               "linalg.top_singular_pairs", "linalg.clip_spectral", "located.compass_min",
               "located.project"}
    assert {layer for owner, attr, layer in rows
            if owner.__dict__[attr] is linalg.retired} == retired
    tracer = layertrace.Tracer()
    tracer.install(modules)
    try:
        for owner, attr, layer in rows:
            if layer in retired:
                with pytest.raises(NotImplementedError):
                    getattr(owner, attr)(np.eye(2))
    finally:
        tracer.remove()
    assert set(tracer.calls) == retired
    assert all(tracer.calls[layer] == 1 for layer in retired)
