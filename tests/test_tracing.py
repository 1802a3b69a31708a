"""The benchmark's tracer (`perfbench/tracing.py`) wraps package attributes
by name: installing it must find every one of them, and uninstalling it must
put every original back."""

import numpy as np

import ccpt.transform as tr
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
