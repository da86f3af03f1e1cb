"""Properties of the vectorized reverse-fidelity kernel and the bitmask build."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcomp import (
    Alphabet,
    ClassicalChannel,
    IndistinguishabilityGraph,
    compress,
    graph_from_fidelity_matrix,
    make_erasure,
    partition,
    reverse_fidelity,
    reverse_fidelity_matrix,
)
from revcomp.channels import EQUALITY_TOL, ROW_TILE, _fidelity_kernel, _pair_fidelities
from revcomp.partition import (
    _bits,
    _block_certificates,
    _cover,
    _partition_of,
    _screened_masks,
)

from oracles import adjacency_bitmasks, plain_fidelity, random_adjacency


@st.composite
def kernel_channels(draw):
    """Random channels with duplicate rows, rows within 1e-13 of each other,
    all-zero columns, sparse rows and disjoint supports."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrix = rng.random((n, m)) ** draw(st.sampled_from([1, 4, 16]))
    live = np.ones(m, dtype=bool)
    live[rng.permutation(m)[:draw(st.integers(0, m - 1))]] = False
    cols = np.flatnonzero(live)
    if draw(st.booleans()) and cols.size >= 2:
        # odd rows live on the first half of the columns, even rows on the rest
        half = cols.size // 2
        live_rows = np.tile(live, (n, 1))
        live_rows[1::2, cols[half:]] = False
        live_rows[0::2, cols[:half]] = False
    else:
        live_rows = np.tile(live, (n, 1))
    live_rows &= rng.random((n, m)) >= draw(st.sampled_from([0.0, 0.5, 0.9]))
    matrix[~live_rows] = 0.0
    for i in np.flatnonzero(matrix.sum(axis=1) == 0):
        matrix[i, rng.choice(np.flatnonzero(live))] = 1.0
    matrix /= matrix.sum(axis=1, keepdims=True)
    for _ in range(draw(st.integers(0, n))):
        src, dst = rng.integers(n, size=2)
        matrix[dst] = matrix[src]
    for _ in range(draw(st.integers(0, n))):
        src, dst = rng.integers(n, size=2)
        matrix[dst] = matrix[src] * (1.0 + rng.uniform(-1e-13, 1e-13, m))
    return ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(m), matrix)


class TestFidelityKernel:
    @settings(max_examples=60, deadline=None)
    @given(kernel_channels())
    def test_matrix_properties(self, ch):
        fid = reverse_fidelity_matrix(ch)
        rows, labels = ch.matrix, ch.input.labels
        n = ch.num_inputs
        assert np.array_equal(fid, fid.T)
        assert np.all(np.diag(fid) == 1.0)
        assert np.all((fid >= 0.0) & (fid <= 1.0))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert fid[i, j] == reverse_fidelity(ch, labels[i], labels[j])
                if np.max(np.abs(rows[i] - rows[j])) <= EQUALITY_TOL:
                    assert fid[i, j] == 1.0
                else:
                    assert fid[i, j] == min(1.0, plain_fidelity(rows[i], rows[j]))

    @pytest.mark.parametrize("n", [ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 2 * ROW_TILE + 1])
    def test_row_tile_boundaries(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.dirichlet(np.full(8, 0.5), size=n)
        matrix[:, 7] = 0.0
        matrix[n // 2, :] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        matrix[-1] = matrix[0]
        matrix[-2] = matrix[1] * (1.0 + rng.uniform(-1e-13, 1e-13, 8))
        matrix[ROW_TILE // 2] = matrix[0] * (1.0 + rng.uniform(-1e-13, 1e-13, 8))
        ch = ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(8),
                              matrix / matrix.sum(axis=1, keepdims=True))
        fid = reverse_fidelity_matrix(ch)
        rows, labels = ch.matrix, ch.input.labels
        assert np.array_equal(fid, fid.T)
        assert np.all(np.diag(fid) == 1.0)
        assert fid[0, -1] == fid[1, -2] == fid[0, ROW_TILE // 2] == 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if np.max(np.abs(rows[i] - rows[j])) <= EQUALITY_TOL:
                    assert fid[i, j] == 1.0
                else:
                    assert fid[i, j] == min(1.0, plain_fidelity(rows[i], rows[j]))
        for j in range(1, n):
            assert fid[0, j] == reverse_fidelity(ch, labels[0], labels[j])

    @pytest.mark.parametrize("m", [2, 4, 16, 64])
    def test_equality_snap_at_the_candidate_cut(self, m):
        """Rows apart by EQUALITY_TOL in every column, with half the columns
        zero in one row, have the lowest overlap a snapping pair can have."""
        for delta, snaps in ((np.nextafter(EQUALITY_TOL, 0.0), True), (EQUALITY_TOL, True),
                             (np.nextafter(EQUALITY_TOL, 1.0), False)):
            p, q = np.zeros(m), np.zeros(m)
            p[1::2] = delta
            q[2::2] = delta
            p[0] = 1.0 - delta * (m // 2)
            q[0] = p[0] + EQUALITY_TOL
            while q[0] - p[0] > EQUALITY_TOL:
                q[0] = np.nextafter(q[0], 0.0)
            gaps = np.abs(p - q)
            assert np.all(gaps <= EQUALITY_TOL) == snaps and np.min(gaps) > 0.99 * EQUALITY_TOL
            assert plain_fidelity(p, q) < 1.0 - (m - 1) * EQUALITY_TOL / 2
            rows = np.vstack([p, np.random.default_rng(m).dirichlet(np.ones(m), ROW_TILE), q])
            fid = _fidelity_kernel(rows)
            assert fid[0, -1] == fid[-1, 0]
            assert (fid[0, -1] == 1.0) == snaps
            assert fid[0, -1] == 1.0 or fid[0, -1] == min(1.0, plain_fidelity(p, q))
            # At epsilon 0 only the snap merges the pair, far below the Gram band.
            assert bool(_screened_masks(rows, 0.0)[0] >> (len(rows) - 1) & 1) == snaps

    def test_near_duplicate_rows_snap_to_one(self):
        base = np.array([0.2, 0.3, 0.5])
        matrix = np.vstack([base, base * (1 + 1e-13), [0.5, 0.5, 0.0]])
        fid = reverse_fidelity_matrix(ClassicalChannel(Alphabet.numbered(3),
                                                       Alphabet.numbered(3), matrix))
        assert fid[0, 1] == fid[1, 0] == 1.0
        assert fid[0, 2] < 1.0

    def test_matrix_is_read_only(self):
        fid = reverse_fidelity_matrix(ClassicalChannel(Alphabet.numbered(2), Alphabet.numbered(2),
                                                       np.eye(2)))
        with pytest.raises(ValueError):
            fid[0, 1] = 0.5


class TestPairFidelities:
    @settings(max_examples=60, deadline=None)
    @given(kernel_channels())
    def test_pairs_have_the_bits_of_the_kernel_entries(self, ch):
        rows = ch.matrix
        n = rows.shape[0]
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        got = _pair_fidelities(rows, i, j)
        assert got.tobytes() == _fidelity_kernel(rows)[i, j].tobytes()

    def test_pairs_across_row_tiles(self):
        rows = np.random.default_rng(3).dirichlet(np.full(8, 0.5), size=2 * ROW_TILE + 5)
        rows[-1] = rows[0] * (1.0 + 1e-13)
        rows /= rows.sum(axis=1, keepdims=True)
        i, j = np.nonzero(~np.eye(rows.shape[0], dtype=bool))
        assert _pair_fidelities(rows, i, j).tobytes() == _fidelity_kernel(rows)[i, j].tobytes()


def _threshold_epsilons(fid, i, j):
    """0, 1, and ``1 - F[i, j]`` with the floats on either side of it."""
    at = 1.0 - float(fid[i, j])
    near = (at, float(np.nextafter(at, -1.0)), float(np.nextafter(at, 2.0)))
    return [0.0, 1.0] + [e for e in near if 0.0 <= e <= 1.0]


class TestScreenedCompress:
    @settings(max_examples=80, deadline=None)
    @given(kernel_channels(), st.data())
    def test_graph_and_certificates_match_the_exact_matrix(self, ch, data):
        fid = reverse_fidelity_matrix(ch)
        n = ch.num_inputs
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        for eps in _threshold_epsilons(fid, i, j):
            exact = graph_from_fidelity_matrix(fid, eps)
            assert _screened_masks(ch.matrix, eps) == adjacency_bitmasks(
                exact.adjacency, self_loops=True)
            report = compress(ch, eps)
            assert report.partition == _partition_of(_cover(_bits(exact.adjacency), "auto")[0])
            certs = _block_certificates(report.partition, ch.matrix)
            assert report.certificates == certs
            assert certs == tuple(
                min([1.0] + [float(fid[a, b]) for a in block for b in block if a < b])
                for block in report.partition.blocks)

    @pytest.mark.parametrize("n", [ROW_TILE + 1, 2 * ROW_TILE + 3])
    def test_graph_across_row_tiles(self, n):
        rng = np.random.default_rng(n)
        rows = rng.dirichlet(np.full(4, 0.3), size=n)
        rows[n // 2:n // 2 + 6] = rows[:6] * (1.0 + rng.uniform(-1e-13, 1e-13, (6, 4)))
        ch = ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(4),
                              rows / rows.sum(axis=1, keepdims=True))
        fid = reverse_fidelity_matrix(ch)
        for i, j in [(0, n - 1), (1, ROW_TILE), (ROW_TILE, n - 1)]:
            for eps in _threshold_epsilons(fid, i, j):
                assert _screened_masks(ch.matrix, eps) == adjacency_bitmasks(
                    graph_from_fidelity_matrix(fid, eps).adjacency, self_loops=True)

    def test_pairs_at_the_threshold_take_the_exact_path(self, monkeypatch):
        """The erasure fidelity 0.25 is sqrt(0.5) * sqrt(0.5) = 0.5000000000000001
        in the Gram product, whose square rounds above 0.25; only the exact
        fidelities of the band decide these pairs."""
        calls = []

        def recorded(rows, first, second):
            calls.append(sorted(zip(first.tolist(), second.tolist())))
            return _pair_fidelities(rows, first, second)

        monkeypatch.setattr(partition, "_pair_fidelities", recorded)
        rows = make_erasure(3, 0.5).matrix
        assert _screened_masks(rows, 0.75) == adjacency_bitmasks(np.ones((3, 3), dtype=bool),
                                                                 self_loops=True)
        above = 1.0 - float(np.nextafter(0.75, 0.0))
        assert above > 0.25 and (np.sqrt(0.5) * np.sqrt(0.5)) ** 2 >= above
        assert _screened_masks(rows, np.nextafter(0.75, 0.0)) == [1, 2, 4]
        assert calls == [[(0, 1), (0, 2), (1, 2)]] * 2

    def test_band_pairs_across_row_tiles_are_decided_once(self, monkeypatch):
        """Erasure rows repeated past two row tiles: every pair of different
        rows has fidelity 0.25 and lies in the band at both thresholds, in
        and across tiles.  Each such pair (i, j) with i < j gets one exact
        fidelity, and the pair (j, i) copies its bit."""
        calls = []

        def recorded(rows, first, second):
            calls.extend(zip(first.tolist(), second.tolist()))
            return _pair_fidelities(rows, first, second)

        monkeypatch.setattr(partition, "_pair_fidelities", recorded)
        erasure = make_erasure(3, 0.5)
        n = 2 * ROW_TILE + 5
        ch = ClassicalChannel(Alphabet.numbered(n), erasure.output,
                              erasure.matrix[np.arange(n) % 3])
        fid = reverse_fidelity_matrix(ch)
        band = [(i, j) for i in range(n) for j in range(i + 1, n) if i % 3 != j % 3]
        for eps in (0.75, float(np.nextafter(0.75, 0.0))):
            del calls[:]
            assert _screened_masks(ch.matrix, eps) == _bits(fid >= 1.0 - eps)
            assert sorted(calls) == band

    def test_screen_builds_no_fidelity_matrix(self, monkeypatch):
        def refused(*args):
            raise AssertionError("compress built a fidelity matrix")

        monkeypatch.setattr("revcomp.channels._fidelity_kernel", refused)
        rows = np.random.default_rng(5).dirichlet(np.full(8, 0.5), size=300)
        ch = ClassicalChannel(Alphabet.numbered(300), Alphabet.numbered(8), rows)
        assert compress(ch, 0.2).partition.num_blocks > 1

    def test_screen_holds_one_boolean_adjacency(self):
        # The n-by-n boolean adjacency is n**2 bytes and the masks about
        # n**2 / 8, so a second n-by-n boolean copy does not fit the bound.
        n = 4000
        rows = np.random.default_rng(4000).dirichlet(np.full(8, 0.5), size=n)
        ch = ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(8), rows)
        tracemalloc.start()
        try:
            compress(ch, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * n ** 2


class TestBitmasks:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 65])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_packbits_masks_match_bit_loop(self, n, p):
        adj = random_adjacency(np.random.default_rng(n * 100 + int(p * 10)), n, p)
        # The reflexive graph's rows with their self-loop bits kept.
        want = adjacency_bitmasks(adj, self_loops=True)
        assert _bits(IndistinguishabilityGraph(adj).adjacency) == want
        assert _bits(adj) == want
