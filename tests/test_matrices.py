import dataclasses
import json

import numpy as np
import pytest

from ccpt.ccps import COS, SIN, ccps1, ccps2, ramanujan_sum
from ccpt.matrices import (CCPT1, CCPT2, DFT_NPM, FAMILIES, OCCPT, RPT,
                           SubspaceIndex, block_layout, build_columns,
                           build_matrix, column_layout, export_matrix_csv,
                           export_matrix_metadata, matrix_rank,
                           subspace_block, validate_npm)
from ccpt import period
from ccpt.numtheory import divisors, residue_sets, totient

from oracles import block_columns, block_entries, column_entries, minimal_period, tile_to


def test_dft_npm_column_periods_n4():
    m = build_matrix(DFT_NPM, 4)
    assert [c.p for c in m.layout.columns] == [1, 2, 4, 4]
    for j, c in enumerate(m.layout.columns):
        assert minimal_period(m.entries[:, j], c.p) == c.p


def test_dft_npm_trivial():
    m = build_matrix(DFT_NPM, 1)
    np.testing.assert_allclose(m.entries, [[1.0]])


def test_dft_npm_block_ranks_n6():
    m = build_matrix(DFT_NPM, 6)
    ranks = [matrix_rank(m.entries[:, m.subspace_columns(p)]) for p in divisors(6)]
    assert ranks == [1, 1, 2, 2]


def test_dft_npm_columns_match_classical_dft():
    """Each column (p, k) is the classical DFT column N*k/p; together they
    exhaust all N columns, i.e. the matrix is a column permutation of the
    classical DFT matrix."""
    for N in range(1, 33):
        m = build_matrix(DFT_NPM, N)
        n = np.arange(N)
        seen = set()
        for j, c in enumerate(m.layout.columns):
            k_classical = (N // c.p) * c.k % N
            expected = np.exp(2j * np.pi * k_classical * n / N)
            np.testing.assert_allclose(m.entries[:, j], expected, atol=1e-10)
            seen.add(k_classical)
        assert seen == set(range(N))


def test_rpt_examples():
    np.testing.assert_allclose(build_matrix(RPT, 2).entries, [[1, 1], [1, -1]], atol=1e-12)
    m = build_matrix(RPT, 4)
    j = m.layout.column_index(4, 0, "ram", shift=0)
    np.testing.assert_allclose(m.entries[:, j], [2, 0, -2, 0], atol=1e-12)
    assert matrix_rank(build_matrix(RPT, 12).entries) == 12


def test_rpt_entries_are_exact_integers():
    for N in (*range(1, 129), 2310):
        entries = build_matrix(RPT, N).entries
        np.testing.assert_array_equal(entries, np.rint(entries), err_msg=f"N={N}")


def test_rpt_columns_are_shifted_ramanujan_sums():
    m = build_matrix(RPT, 12)
    for j, c in enumerate(m.layout.columns):
        pattern = ramanujan_sum(c.p)
        expected = pattern[(np.arange(12) - c.shift) % c.p]
        np.testing.assert_allclose(m.entries[:, j], expected, atol=1e-12)


def test_ccpt1_examples():
    m = build_matrix(CCPT1, 3)
    np.testing.assert_allclose(m.entries[:, 0], [1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(m.entries[:, 1], [2, -1, -1], atol=1e-12)
    np.testing.assert_allclose(m.entries[:, 2], [-1, 2, -1], atol=1e-12)
    assert matrix_rank(build_matrix(CCPT1, 10).entries) == 10


def test_ccpt1_block_ranks_n9():
    m = build_matrix(CCPT1, 9)
    for p in divisors(9):
        block = m.entries[:, m.subspace_columns(p)]
        assert matrix_rank(block) == totient(p)


def test_ccpt2_examples():
    m = build_matrix(CCPT2, 4)
    j = m.layout.column_index(4, 1, SIN, shift=0)
    np.testing.assert_allclose(m.entries[:, j], [0, 2, 0, -2], atol=1e-12)
    np.testing.assert_allclose(m.entries[:, j + 1], [-2, 0, 2, 0], atol=1e-12)
    b2 = m.entries[:, m.subspace_columns(2)]
    b4 = m.entries[:, m.subspace_columns(4)]
    np.testing.assert_allclose(b2.T @ b4, 0, atol=1e-12)
    assert matrix_rank(build_matrix(CCPT2, 12).entries) == 12


def test_occpt_examples():
    np.testing.assert_allclose(build_matrix(OCCPT, 2).entries, [[1, 1], [1, -1]], atol=1e-12)
    m = build_matrix(OCCPT, 6)
    gram = m.entries.T @ m.entries
    np.testing.assert_allclose(gram, np.diag([6, 6, 12, 12, 12, 12]), atol=1e-9)
    assert [(c.p, c.k, c.kind) for c in m.layout.columns] == [
        (1, 1, COS), (2, 1, COS), (3, 1, COS), (3, 1, SIN), (6, 1, COS), (6, 1, SIN)]
    assert matrix_rank(build_matrix(OCCPT, 54).entries) == 54


def test_occpt_columns_pairwise_orthogonal():
    for N in (6, 12, 18, 54):
        m = build_matrix(OCCPT, N)
        gram = m.entries.T @ m.entries
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-9 * N
        np.testing.assert_allclose(np.diag(gram), 2 * N * m.scales(), atol=1e-9 * N)


def test_block_widths_and_minimal_periods():
    for family in FAMILIES:
        for N in (1, 2, 6, 12, 24, 54, 64):
            m = build_matrix(family, N)
            assert sum(totient(p) for p in divisors(N)) == N
            assert len(m.layout.columns) == N
            for j, c in enumerate(m.layout.columns):
                assert minimal_period(m.entries[:, j], c.p) == c.p


def test_ccpt_cross_subspace_orthogonality_and_shift_independence():
    for family, gen in ((CCPT1, ccps1), (CCPT2, ccps2)):
        m = build_matrix(family, 12)
        for p in divisors(12):
            rng_p = m.subspace_columns(p)
            for q in divisors(12):
                if p >= q:
                    continue
                rng_q = m.subspace_columns(q)
                cross = m.entries[:, rng_p].T @ m.entries[:, rng_q]
                np.testing.assert_allclose(cross, 0, atol=1e-9)
        # within one conjugate subspace the shifted pair is independent
        for c in m.layout.columns:
            if c.p >= 3 and c.shift == 0:
                j = m.layout.column_index(c.p, c.k, c.kind, 0)
                pair = m.entries[:, [j, j + 1]]
                g = pair.T @ pair
                assert np.linalg.det(g) > 1e-6


def test_cross_ccs_orthogonality_within_subspace():
    m = build_matrix(CCPT1, 16)
    cols = m.entries[:, m.subspace_columns(16)]
    meta = [c for c in m.layout.columns if c.p == 16]
    for i, ci in enumerate(meta):
        for j, cj in enumerate(meta):
            if ci.k != cj.k:
                assert abs(np.dot(cols[:, i], cols[:, j])) < 1e-9


def test_validate_npm_passes():
    assert validate_npm(build_matrix(OCCPT, 18)).passed
    assert validate_npm(build_matrix(RPT, 16)).passed
    for family in FAMILIES:
        assert validate_npm(build_matrix(family, 12)).passed


def test_validate_npm_catches_duplicate_column():
    m = build_matrix(OCCPT, 6)
    entries = np.array(m.entries)
    entries[:, 3] = entries[:, 2]
    broken = dataclasses.replace(m, entries=entries)
    report = validate_npm(broken)
    assert not report.passed
    assert not report.full_rank


def test_type2_circulant_rank_and_column_space():
    """The p x p circulant of a type-2 pair sum has rank 2 and its columns
    live in the span of the two conjugate exponentials."""
    for p in range(3, 25):
        for k in residue_sets(p).half:
            seq = ccps2(p, k, p)
            circ = np.column_stack([np.roll(seq, j) for j in range(p)])
            assert matrix_rank(circ) == 2
            n = np.arange(p)
            basis = np.column_stack([np.exp(2j * np.pi * k * n / p),
                                     np.exp(-2j * np.pi * k * n / p)])
            proj, *_ = np.linalg.lstsq(basis, circ.astype(complex), rcond=None)
            residual = np.max(np.abs(basis @ proj - circ))
            assert residual <= 1e-9


def test_column_lookup_examples():
    m = build_matrix(OCCPT, 6)
    assert m.layout.column_index(3, 1, COS) == 2
    assert m.subspace_columns(6) == range(4, 6)
    m = build_matrix(CCPT1, 4)
    assert m.layout.column_index(4, 1, COS, shift=1) == 3
    with pytest.raises(KeyError):
        m.layout.column_index(4, 3, COS)
    with pytest.raises(KeyError):
        m.subspace_columns(5)


def test_subspace_block_tiling_and_truncation():
    block, meta = subspace_block(OCCPT, 8, 54)
    assert block.shape == (54, totient(8))
    for j, c in enumerate(meta):
        col = block[:, j]
        np.testing.assert_allclose(col, tile_to(col[:8], 54), atol=1e-12)


LAYOUT_SIZES = (*range(1, 131), 360, 625, 1024, 2310)


@pytest.mark.parametrize("family", FAMILIES)
def test_layout_arrays_match_block_loop(family):
    """The vectorised address arrays equal the block-by-block addresses over
    every divisor set of the size grid and two dictionary period sets, and
    the one builder's entries equal the per-period blocks bit for bit."""
    period_sets = [divisors(N) for N in LAYOUT_SIZES] + [range(1, 51), (1, 2, 4, 5, 8)]
    for periods in period_sets:
        layout = block_layout(family, periods)
        want = [a for p in periods for a in block_columns(family, p)]
        rows = zip(layout.periods.tolist(), layout.k.tolist(), layout.kind.tolist(),
                   layout.shift.tolist())
        assert list(rows) == want
        assert layout.columns == tuple(SubspaceIndex(*a) for a in want)
        assert [layout.column_index(*a) for a in want] == list(range(len(want)))
        assert layout.kind.dtype == np.dtype("<U3")
        for a in (layout.periods, layout.k, layout.kind, layout.shift):
            assert not a.flags.writeable
    for N in LAYOUT_SIZES:
        assert column_layout(family, N).columns == tuple(
            SubspaceIndex(*a) for p in divisors(N) for a in block_columns(family, p))
        if N <= 400:
            want = np.hstack([block_entries(family, p, N) for p in divisors(N)])
            np.testing.assert_array_equal(build_matrix(family, N).entries, want, strict=True)
    for periods in period_sets[-2:]:
        for length in (54, 512):
            want = np.hstack([block_entries(family, p, length) for p in periods])
            got = build_columns(block_layout(family, periods), length)
            np.testing.assert_array_equal(got, want, strict=True)
    for p in range(1, 80):
        for length in (p, 54, 512):
            block, cols = subspace_block(family, p, length)
            np.testing.assert_array_equal(block, block_entries(family, p, length), strict=True)
            assert cols == tuple(SubspaceIndex(*a) for a in block_columns(family, p))


@pytest.mark.parametrize("family", FAMILIES)
def test_build_columns_match_column_by_column_build(family):
    """The shared-segment table gives every column bit for bit as building it
    alone from its own period: dictionaries (54, 1..50) and (512, 1..64) and
    a candidate set at N = 12."""
    candidate = period._candidate_dictionary((5, 8), family, 12)[1]
    cases = [(block_layout(family, range(1, 51)), 54, None),
             (block_layout(family, range(1, 65)), 512, None),
             (candidate.layout, 12, candidate.entries)]
    for layout, length, built in cases:
        want = np.column_stack([column_entries(family, *a, length) for a in zip(
            layout.periods.tolist(), layout.k.tolist(), layout.kind.tolist(),
            layout.shift.tolist())])
        got = build_columns(layout, length) if built is None else built
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_column_layout_size_check_ignores_cache():
    assert len(column_layout(OCCPT, 12).periods) == 12
    for N in (12.0, 12.5, "12", 0):
        with pytest.raises(ValueError, match="matrix size must be an integer >= 1"):
            column_layout(OCCPT, N)
    assert column_layout(OCCPT, np.int64(12)) is column_layout(OCCPT, 12)


def test_block_layout_guards():
    with pytest.raises(ValueError, match="unknown family"):
        block_layout("hadamard", [1, 2])
    for periods in ([], [0, 1], [2, 1], [1, 1]):
        with pytest.raises(ValueError, match="positive and ascending"):
            block_layout(OCCPT, periods)


def test_matrix_export_roundtrip(tmp_path):
    m = build_matrix(OCCPT, 6)
    csv_path = tmp_path / "m.csv"
    meta_path = tmp_path / "m.json"
    export_matrix_csv(m, csv_path)
    export_matrix_metadata(m, meta_path)
    rows = [[float(v) for v in line.split(",")]
            for line in csv_path.read_text().strip().splitlines()]
    np.testing.assert_array_equal(np.array(rows), m.entries)
    meta = json.loads(meta_path.read_text())
    assert meta["N"] == 6 and meta["family"] == OCCPT
    assert meta["columns"][2] == {"p": 3, "k": 1, "kind": COS, "shift": 0}


def test_complex_matrix_export(tmp_path):
    m = build_matrix(DFT_NPM, 4)
    path = tmp_path / "dft.csv"
    export_matrix_csv(m, path)
    rows = [[complex(v.strip("()")) for v in line.split(",")]
            for line in path.read_text().strip().splitlines()]
    np.testing.assert_allclose(np.array(rows), m.entries, atol=1e-15)


@pytest.mark.parametrize("N", [0, -3, 2.0, 2.5], ids=["0", "-3", "2.0", "2.5"])
def test_builder_rejects_bad_size(N):
    with pytest.raises(ValueError, match=f"matrix size must be an integer >= 1, got {N}"):
        build_matrix(OCCPT, N)


def test_builder_guards():
    with pytest.raises(ValueError):
        build_matrix("hadamard", 4)
    with pytest.raises(ValueError):
        build_matrix(OCCPT, 0)
    with pytest.raises(ValueError):
        build_matrix(OCCPT, 4097)
