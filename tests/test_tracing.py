"""The benchmark reads the package by name: its tracer (`perfbench/tracing.py`)
wraps package attributes, and its `dictionary-large` check rebuilds every
dictionary column from the addresses in `PeriodicDictionary.columns`. These
tests keep both contracts."""

import importlib
import pkgutil

import numpy as np
import pytest

import ccpt
import ccpt.transform as tr
from ccpt.period import build_dictionary
from perfbench import oracles
from perfbench.tracing import Tracer, _targets


def test_tracer_install_and_uninstall_restore_every_original():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in _targets()]
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, fn in originals:
            assert vars(owner)[attr] is not fn, attr
        tr.analyze(np.ones(8), "rpt")
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn, attr
    assert [span[0] for span in tracer.spans] == ["transform.analyze.rpt"]


@pytest.mark.parametrize("family", ["occpt", "farey"])
def test_dictionary_columns_rebuild_the_entries(family):
    d = build_dictionary(54, 50, family)
    F = np.column_stack([oracles.column(c.p, c.k, c.kind, c.shift, d.N) for c in d.columns])
    np.testing.assert_allclose(F, d.entries, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(ccpt.__path__)))
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"ccpt.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
