"""What a cached size holds, measured with tracemalloc at N = 2**16.

Every per-N cache is cleared first, so each measurement starts from no
cached size. The long-records pipeline (analysis, period strengths,
frequency components, DFT bridge, shift, energy, band filter and
synthesis) keeps the occpt layout's address arrays, its block index and
pair positions, the packed slots and the rotation table: 88 bytes per
sample, held under a bound of 96 (README, "Per-N caches"). Once the layout
and the packed slots are built, the column lookups and the JSON view keep
nothing more: no per-column object or dict stays cached.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from ccpt import cli, matrices, period, transform
from ccpt.ccps import SIN
from ccpt.matrices import OCCPT

N = 2 ** 16

_PER_N_CACHES = (matrices._column_layout, matrices.cached_matrix, transform._occpt_slots,
                 transform._dft_bins, transform._rotations, transform._rpt_plan,
                 period._candidate_dictionary)


def _clear():
    for cache in _PER_N_CACHES:
        cache.cache_clear()
    gc.collect()


def _held(call) -> int:
    """Bytes still allocated once `call` has run and its result is dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def x():
    yield np.random.default_rng(0).standard_normal(N)
    _clear()


def test_the_long_records_pipeline_holds_under_96_bytes_per_sample(x):
    _clear()

    def pipeline():
        c = transform.occpt_analysis(x)
        period.period_strengths(c).estimated_period
        period.frequency_components(c, fs=1.0)
        transform.dft_from_occpt(c)
        transform.shift_coefficients(c, 7)
        transform.parseval_energy(c)
        cli.band_filter(c, 1.0, 0.05, 0.25)
        transform.occpt_synthesis(c)

    assert _held(pipeline) <= 96 * N


@pytest.mark.parametrize("lookup", [
    lambda c: c.value(N, 1, SIN),
    lambda c: c.pair(N, 3),
    lambda c: c.items(),
    lambda c: transform.coefficients_to_dict(c),
], ids=["value", "pair", "items", "coefficients_to_dict"])
def test_lookups_and_the_json_view_keep_no_column_objects(x, lookup):
    c = transform.occpt_analysis(x)
    _clear()
    matrices.column_layout(OCCPT, N)
    transform._occpt_slots(N)
    # one byte per sample leaves room for an interpreter free list, not
    # for one object per column
    assert _held(lambda: lookup(c)) < N
