import itertools
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from revcomp import (
    Alphabet,
    ClassicalChannel,
    ExactSolverCapError,
    GammaKResult,
    IndistinguishabilityGraph,
    Partition,
    ValidationError,
    closed_form_letter_partition,
    compress,
    compressibility,
    conjecture_report,
    delta_estimate,
    gamma_k,
    generalized_erasure_bound_partition,
    generalized_erasure_gamma_bound,
    graph_from_fidelity_matrix,
    make_constant,
    make_erasure,
    make_generalized_erasure,
    make_identity,
    min_s_bounded_partition_size,
    partition_is_clique_cover,
    product_fidelity_matrix,
    product_reverse_fidelity,
    reverse_fidelity_matrix,
    s_bound_partition,
    solve_exact,
    solve_greedy,
)
from revcomp import asymptotic, channels, cli, partition
from revcomp.asymptotic import (
    DEFAULT_GRAPH_CAP,
    _letter_certificate,
    _observed_trend,
    _sequence_masks,
)
from revcomp.partition import _bits, _cover, _exact_coloring, _partition_of, default_exact_cap

from oracles import (
    adjacency_bitmasks,
    cartesian_power_cover,
    clique_classes,
    kron_chain,
    min_clique_cover_brute,
    product_partition,
    random_channel,
)


def hamming_graph(n, k, s):
    import itertools

    seqs = list(itertools.product(range(n), repeat=k))
    size = len(seqs)
    adj = np.zeros((size, size), dtype=bool)
    for i, x in enumerate(seqs):
        for j, y in enumerate(seqs):
            adj[i, j] = sum(a != b for a, b in zip(x, y)) <= s
    return adj


class TestProductFidelityMatrix:
    def test_matches_letterwise_queries_bitwise(self):
        rng = np.random.default_rng(20)
        for n, k in [(3, 2), (2, 7)]:
            ch = random_channel(rng, n, 4)
            fid = product_fidelity_matrix(ch, k)
            seqs = list(itertools.product(ch.input.labels, repeat=k))
            for i, xs in enumerate(seqs):
                for j, xhats in enumerate(seqs):
                    assert fid[i, j] == product_reverse_fidelity(ch, xs, xhats)

    def test_sequence_cap(self):
        assert product_fidelity_matrix(make_identity(4), 5).shape == (1024, 1024)
        # 4**6 = 4096 sequences exceed the constant cap; nothing is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                product_fidelity_matrix(make_identity(4), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_kron_chain_bitwise(self, n):
        rng = np.random.default_rng(21 + n)
        for ch in (random_channel(rng, n, 4), make_identity(n)):
            base = reverse_fidelity_matrix(ch)
            k = 1
            while n ** k <= DEFAULT_GRAPH_CAP and k <= 12:
                got = product_fidelity_matrix(ch, k)
                want = kron_chain(base, k)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                k += 1

    @pytest.mark.parametrize("fid_shape, n", [
        ((1, 1), 5), ((2, 2), 3), ((1, 3), 2),  # few entries in fid
        ((3, 3), 1), ((3, 4), 2), ((2, 2), 2), ((1, 1), 1),  # few letter pairs
    ])
    def test_kron_step_loops_give_the_broadcast_bits(self, fid_shape, n):
        """The ``np.kron`` step of product_fidelity_matrix gives the bits of
        the broadcast product on any shape of running matrix, and two steps
        from the letter matrix give the library's k = 2 matrix."""
        rng = np.random.default_rng(n * 10 + fid_shape[1])
        fid = rng.random(fid_shape)
        ch = random_channel(rng, n, 3)
        base = reverse_fidelity_matrix(ch)
        out = np.kron(fid, base)
        assert out.shape == (fid_shape[0] * n, fid_shape[1] * n)
        assert out.tobytes() == (fid[:, None, :, None] * base[None, :, None, :]).tobytes()
        pair = (base[:, None, :, None] * base[None, :, None, :]).reshape(n * n, n * n)
        assert product_fidelity_matrix(ch, 2).tobytes() == pair.tobytes()

    def test_letter_matrix_is_computed_once_per_channel(self, monkeypatch):
        calls = []
        original = channels.reverse_fidelity_matrix
        monkeypatch.setattr(channels, "reverse_fidelity_matrix",
                            lambda ch: calls.append(ch) or original(ch))
        ch = make_erasure(2, 0.9)
        sweep = delta_estimate(ch, 0.2, 12)
        assert {r.method for r in sweep.results} == {"exact", "letter_product"}
        # The graph rows and the closed-form rows of the same channel.
        assert {r.method for r in delta_estimate(ch, 0.2, 11, solver="greedy").results} == {
            "greedy_lower_bound"}
        assert {r.method for r in delta_estimate(ch, 0.2, 12, solver="closed_form").results} == {
            "closed_form"}
        assert calls == [ch]
        assert ch.fidelity_matrix.tobytes() == original(ch).tobytes()
        assert not ch.fidelity_matrix.flags.writeable
        delta_estimate(make_erasure(2, 0.9), 0.2, 3)
        assert len(calls) == 2


def grouped_erasure(n, rng):
    """A generalized erasure channel on ``n`` letters in two groups (one
    when ``n == 1``): letters of different groups have fidelity exactly 0."""
    labels = [str(i) for i in range(n)]
    half = (n + 1) // 2
    blocks = [labels[:half], labels[half:]] if n > 1 else [labels]
    return make_generalized_erasure(blocks, [float(e) for e in rng.uniform(0.6, 0.95, len(blocks))])


def class_product_cover(fid, eps, k):
    """The ``k``-fold product of the letter classes when the letter graph at
    ``eps`` is a disjoint union of cliques whose worst in-class letter
    value, multiplied ``k`` times from 1.0, still reaches ``1 - eps``;
    else ``None``.  Such a product is a minimum clique cover of the
    length-``k`` sequence graph."""
    classes = clique_classes(graph_from_fidelity_matrix(fid, eps).adjacency)
    if classes is None:
        return None
    worst = min(float(fid[i, j]) for c in classes for i in c for j in c)
    product = 1.0
    for _ in range(k):
        product *= worst
    if product < 1.0 - eps:
        return None
    return Partition(tuple(product_partition(classes, fid.shape[0], k)))


def tie_epsilons(fid, base):
    """For each distinct letter value, epsilons whose ``1 - eps`` is one
    ``k``-fold entry of that value's slots or one ulp either side of it.

    Of the entries whose ``1 - (1 - f)`` gives ``f`` back, the smallest is
    taken.  Returns the epsilons and the letter values that got one.
    """
    n = base.shape[0]
    m = fid.shape[0] // n
    grid = fid.reshape(m, n, m, n)
    epsilons, values = [], []
    for v in np.unique(base):
        slot = np.broadcast_to((base == v)[None, :, None, :], grid.shape)
        entries = grid[slot]
        entries = entries[1.0 - (1.0 - entries) == entries]
        if entries.size:
            f = float(entries.min())
            values.append(float(v))
            epsilons.extend(1.0 - t for t in (np.nextafter(f, 0.0), f, np.nextafter(f, 2.0)))
    return epsilons, values


class TestProductAdjacency:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_block_built_graph_equals_the_thresholded_product(self, n):
        # Every k from 1 to the graph cap, from a fresh memo and from one
        # memo shared along the sweep.  The grouped erasure channel's zero
        # cross-group letter fidelities give empty blocks.
        rng = np.random.default_rng(40 + n)
        ch = random_channel(rng, n, 3)
        erasure = grouped_erasure(n, rng)
        if n > 1:
            assert np.any(erasure.fidelity_matrix == 0.0)
        memos = {}
        k = 1
        while n ** k <= DEFAULT_GRAPH_CAP and k <= 12:
            for channel in (ch, erasure):
                base = channel.fidelity_matrix
                fid = product_fidelity_matrix(channel, k)
                # An epsilon whose threshold equals an entry exactly: that pair
                # ties with 1 - eps and must stay adjacent.
                exact = np.flatnonzero(1.0 - (1.0 - fid) == fid)
                pair = np.unravel_index(exact[np.argmin(fid.flat[exact])], fid.shape)
                tie = 1.0 - float(fid[pair])
                ties, values = tie_epsilons(fid, base)
                # The unit diagonal gives every letter value itself as an
                # entry, and 1 - (1 - v) == v for v >= 0.5.
                assert set(values) >= {float(v) for v in base.flat if v >= 0.5}
                # A tie one ulp above an entry of 1.0 has epsilon < 0, which
                # every caller rejects; _sequence_masks assumes 1 - eps <= 1.
                for eps in (0.05, 0.3, 0.7, tie, 0.0, 1.0, *(e for e in ties if e >= 0.0)):
                    want = adjacency_bitmasks(fid >= 1.0 - eps, self_loops=True)
                    assert _sequence_masks(base, eps, k, {}) == want
                    memo = memos.setdefault((id(channel), eps), {})
                    assert _sequence_masks(base, eps, k, memo) == want
                i, j = pair
                if i != j:
                    assert _sequence_masks(base, tie, k, {})[i] >> int(j) & 1
            k += 1

    def test_greedy_row_at_the_cap_never_holds_the_product(self):
        # The 2048-sequence float product alone is 32 MiB.
        tracemalloc.start()
        try:
            result = gamma_k(make_erasure(2, 0.9), 0.2, 11, solver="greedy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.method == "greedy_lower_bound"
        assert peak < 20 << 20

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count_only_rows_equal_covers_of_the_full_product(self, n):
        rng = np.random.default_rng(50 + n)
        ch = random_channel(rng, n, 3)
        k_max = 1
        while n ** (k_max + 1) <= DEFAULT_GRAPH_CAP and k_max < 12:
            k_max += 1
        fid_top = product_fidelity_matrix(ch, k_max)
        exact = np.flatnonzero((1.0 - (1.0 - fid_top) == fid_top) & (fid_top < 1.0))
        tie = 1.0 - float(fid_top.flat[exact[0]]) if exact.size else 0.5
        for eps in (0.05, 0.3, 0.7, tie):
            greedy = delta_estimate(ch, eps, k_max, solver="greedy").results
            auto = delta_estimate(ch, eps, k_max).results
            for k in range(1, k_max + 1):
                graph = graph_from_fidelity_matrix(product_fidelity_matrix(ch, k), eps)
                part = solve_greedy(graph)
                assert partition_is_clique_cover(part, graph)
                assert greedy[k - 1].block_count == part.num_blocks
                assert greedy[k - 1] == gamma_k(ch, eps, k, solver="greedy")
                assert auto[k - 1] == gamma_k(ch, eps, k)
                if graph.size <= 20:
                    assert auto[k - 1].block_count == solve_exact(graph).num_blocks
                    assert auto[k - 1].method == "exact"

    def test_rows_form_no_products_and_build_no_graph(self, monkeypatch):
        # All eleven rows of this sweep are materialized (2**11 = 2048).
        def refuse(*args):
            raise AssertionError("a materialized row formed a product matrix or a graph")

        monkeypatch.setattr(IndistinguishabilityGraph, "__post_init__", refuse)
        monkeypatch.setattr(Partition, "__post_init__", refuse)
        monkeypatch.setattr(asymptotic, "product_fidelity_matrix", refuse)
        ch = make_erasure(2, 0.9)
        sweep = delta_estimate(ch, 0.2, 11)
        assert [r.block_count for r in sweep.results] == [2 ** (k - 1) for k in range(1, 12)]
        assert [gamma_k(ch, 0.2, k) for k in range(1, 12)] == list(sweep.results)

    def test_sweep_past_the_cap_never_holds_the_product(self):
        # Rows past k = 11 are closed form and add nothing to the memo.  At
        # epsilon 0.35 two differing letters merge (0.81**2 >= 0.65), so the
        # letter graph proves nothing and the auto sweep builds its graphs;
        # at epsilon 0.2 the letter graph proves every row past the exact cap.
        tracemalloc.start()
        try:
            sweep = delta_estimate(make_erasure(2, 0.9), 0.35, 13)
            proved = delta_estimate(make_erasure(2, 0.9), 0.2, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.method for r in sweep.results][-3:] == [
            "greedy_lower_bound", "closed_form", "closed_form"]
        assert [r.method for r in proved.results][-3:] == ["letter_product"] * 3
        assert peak < 20 << 20

    @pytest.mark.parametrize("row", [
        lambda: delta_estimate(make_erasure(2, 0.9), 0.2, 11, solver="greedy").results[10],
        lambda: gamma_k(make_erasure(2, 0.9), 0.2, 11, solver="greedy"),
    ], ids=["sweep", "standalone"])
    def test_rows_at_the_cap_hold_only_their_masks(self, row):
        # The k = 11 graph's 2048 masks of 2048 bits are 0.5 MiB, and its
        # memo of shorter blocks about as much again.
        tracemalloc.start()
        try:
            result = row()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.k, result.method) == (11, "greedy_lower_bound")
        assert peak < 4 << 20

    def test_one_letter_rows_reach_deep_k(self):
        # The exact solver builds 3000 levels of memo entries, without
        # recursion; the auto row is proved by the letter classes.
        ch = make_identity(1)
        for solver in ("exact", "auto"):
            assert gamma_k(ch, 0.2, 3000, solver) == GammaKResult(
                k=3000, block_count=1, gamma=1.0, method="exact", proved=True)
        sweep = delta_estimate(ch, 0.2, 3000)
        assert [r.block_count for r in sweep.results] == [1] * 3000
        assert sweep.trend == "constant"

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), grouped=st.booleans(),
           data=st.data())
    def test_sequence_masks_equal_the_thresholded_product(self, seed, n, grouped, data):
        rng = np.random.default_rng(seed)
        matrix = rng.random((n, 6)) + 1e-3
        if grouped:  # letters of different groups share no output: fidelity exactly 0
            half = (n + 1) // 2
            matrix[:half, 3:] = 0.0
            matrix[half:, :3] = 0.0
        matrix /= matrix.sum(axis=1, keepdims=True)
        ch = ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(6), matrix)
        k_cap = 12 if n == 1 else int(math.log(DEFAULT_GRAPH_CAP, n) + 1e-9)
        k = data.draw(st.integers(1, k_cap), label="k")
        fid = product_fidelity_matrix(ch, k)
        # Thresholds at one product value or one ulp either side of it.
        f = float(fid.flat[data.draw(st.integers(0, fid.size - 1), label="entry")])
        t = data.draw(st.sampled_from([np.nextafter(f, 0.0), f, np.nextafter(f, 2.0)]), label="t")
        eps = data.draw(st.sampled_from([0.0, 1.0, float(min(1.0, max(0.0, 1.0 - t)))]),
                        label="epsilon")
        want = adjacency_bitmasks(fid >= 1.0 - eps, self_loops=True)
        base = ch.fidelity_matrix
        assert _sequence_masks(base, eps, k, {}) == want
        memo = {}
        for j in range(1, k + 1):
            masks = _sequence_masks(base, eps, j, memo)
        assert masks == want

    @pytest.fixture
    def packs(self, monkeypatch):
        """Sizes of the boolean arrays that ``_sequence_masks`` packs."""
        sizes = []

        def counted(adj):
            sizes.append(adj.size)
            return partition._bits(adj)

        monkeypatch.setattr(asymptotic, "_bits", counted)
        return sizes

    @pytest.mark.parametrize("eps", [1.0, 0.2])
    def test_leaves_of_a_level_packed_in_one_call(self, eps, packs):
        # At epsilon 1 every running product is kept, so a sweep to k = 4
        # needs hundreds of distinct one-letter leaves.
        ch = random_channel(np.random.default_rng(7), 5, 4)
        base = ch.fidelity_matrix
        memo = {}
        for k in range(1, 5):
            del packs[:]
            masks = _sequence_masks(base, eps, k, memo)
            assert masks == adjacency_bitmasks(product_fidelity_matrix(ch, k) >= 1.0 - eps,
                                               self_loops=True)
            assert len(packs) <= 1
        leaves = [v for m, v in memo if m == 1]
        assert len(leaves) > 100 if eps == 1.0 else len(leaves) > 1

    def test_leaf_compares_stay_within_their_tile(self, packs):
        # 45 letters have up to 991 distinct letter values, each a leaf of
        # 45 rows at k = 2: the compares run in tiles of LEAF_TILE_ENTRIES.
        ch = random_channel(np.random.default_rng(7), 45, 4)
        masks = _sequence_masks(ch.fidelity_matrix, 0.3, 2, {})
        assert masks == adjacency_bitmasks(product_fidelity_matrix(ch, 2) >= 1.0 - 0.3,
                                           self_loops=True)
        assert len(packs) > 1 and max(packs) <= asymptotic.LEAF_TILE_ENTRIES


class TestLetterMatrixCheck:
    def bad_matrices(self):
        base = make_erasure(3, 0.9).fidelity_matrix.copy()
        asymmetric = base.copy()
        asymmetric[0, 1] = np.nextafter(asymmetric[0, 1], 0.0)
        diagonal = base.copy()
        diagonal[1, 1] = np.nextafter(1.0, 0.0)
        # Symmetric with a unit diagonal, but one pair's fidelity exceeds 1.
        over = base.copy()
        over[0, 1] = over[1, 0] = np.nextafter(1.0, 2.0)
        return {"symmetric": asymmetric, "diagonal": diagonal, "range": over}

    @pytest.mark.parametrize("kind", ["symmetric", "diagonal", "range"])
    def test_gamma_k_and_sweeps_reject_the_letter_matrix(self, kind):
        bad = self.bad_matrices()[kind]
        # k = 2 is within the exact cap, k = 5 and k = 8 past it and the
        # last past the graph cap.
        for call in (lambda ch: gamma_k(ch, 0.2, 2), lambda ch: gamma_k(ch, 0.2, 5),
                     lambda ch: gamma_k(ch, 0.2, 8), lambda ch: delta_estimate(ch, 0.2, 3),
                     lambda ch: delta_estimate(ch, 0.2, 3, solver="closed_form")):
            ch = make_erasure(3, 0.9)
            vars(ch)["fidelity_matrix"] = bad  # the cached_property slot
            with pytest.raises(ValidationError, match=kind):
                call(ch)

    @pytest.mark.parametrize("kind", ["symmetric", "diagonal", "range"])
    def test_cli_exits_2(self, kind, tmp_path, capsys, monkeypatch):
        bad = self.bad_matrices()[kind]
        monkeypatch.setattr(channels, "reverse_fidelity_matrix", lambda ch: bad)
        path = tmp_path / "ch.json"
        path.write_text('{"type": "erasure", "r": 3, "eta": 0.9}')
        assert cli.main(["asymptotic", "--channel", str(path), "--epsilon", "0.2",
                         "--k-max", "3"]) == 2
        assert kind in capsys.readouterr().err


class TestGammaK:
    def test_matches_single_shot_at_k1(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ch = random_channel(rng, int(rng.integers(2, 6)), 3)
            eps = float(rng.uniform(0.1, 0.9))
            got = gamma_k(ch, eps, 1)
            assert got.gamma == compress(ch, eps).compressibility
            assert got.method == "exact"

    def test_identity_stays_incompressible(self):
        for k in (1, 2):
            got = gamma_k(make_identity(3), 0.5, k)
            assert got.gamma == 0.0
            assert got.block_count == 3 ** k

    def test_constant_fully_compressible_every_route(self):
        ch = make_constant(3)
        assert gamma_k(ch, 0.0, 2).method == "exact"
        assert gamma_k(ch, 0.0, 2).gamma == 1.0
        # 27 sequences exceed the exact cap, 2187 exceed the graph cap; on
        # "auto" the one-clique letter graph proves both rows at 1**k blocks
        assert gamma_k(ch, 0.0, 3, solver="greedy").method == "greedy_lower_bound"
        assert gamma_k(ch, 0.0, 3, solver="greedy").gamma == 1.0
        assert gamma_k(ch, 0.0, 7, solver="closed_form").method == "closed_form"
        assert gamma_k(ch, 0.0, 7, solver="closed_form").gamma == 1.0
        for k in (3, 7):
            assert gamma_k(ch, 0.0, k) == GammaKResult(k, 1, 1.0, "letter_product", True)

    def test_erasure_sweep_frozen_values(self):
        sweep = delta_estimate(make_erasure(2, 0.9), 0.2, 5)
        greedy = delta_estimate(make_erasure(2, 0.9), 0.2, 5, solver="greedy")
        for rows in (sweep.results, greedy.results):
            assert [r.gamma for r in rows] == [1.0, 2 / 3, 4 / 7, 8 / 15, 16 / 31]
            assert [r.block_count for r in rows] == [1, 2, 4, 8, 16]
        assert [r.method for r in sweep.results] == ["exact"] * 4 + ["letter_product"]
        assert [r.proved for r in sweep.results] == [True] * 5
        assert [r.method for r in greedy.results] == ["greedy_lower_bound"] * 5
        assert [r.proved for r in greedy.results] == [False] * 5
        assert sweep.trend == greedy.trend == "nonincreasing"

    def test_erasure_sweep_below_threshold(self):
        # 0.25 < 1 - 0.5, nothing ever merges
        sweep = delta_estimate(make_erasure(2, 0.5), 0.5, 3)
        assert [r.gamma for r in sweep.results] == [0.0, 0.0, 0.0]
        assert [r.block_count for r in sweep.results] == [2, 4, 8]
        assert sweep.trend == "constant"

    def test_exact_cap_raises(self):
        with pytest.raises(ExactSolverCapError):
            gamma_k(make_erasure(2, 0.9), 0.2, 5, solver="exact")

    def test_greedy_graph_cap_raises(self):
        with pytest.raises(ValidationError):
            gamma_k(make_erasure(2, 0.9), 0.2, 12, solver="greedy")

    def test_exact_route_keeps_the_graph_cap(self, monkeypatch):
        # A raised exact cap does not lift the graph cap: 2**12 = 4096
        # sequences fit the exact cap but not the pairwise matrix, which is
        # refused before anything of 4096**2 entries is allocated.
        monkeypatch.setenv("REVCOMP_EXACT_CAP", "4096")
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="graph cap 2048"):
                gamma_k(make_erasure(2, 0.9), 0.2, 12, solver="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_greedy_never_beats_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            ch = random_channel(rng, 2, 3)
            eps = float(rng.uniform(0.1, 0.9))
            exact = gamma_k(ch, eps, 2, solver="exact")
            greedy = gamma_k(ch, eps, 2, solver="greedy")
            assert greedy.gamma <= exact.gamma

    def test_closed_form_is_a_valid_lower_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ch = random_channel(rng, 2, 3)
            eps = float(rng.uniform(0.1, 0.9))
            exact = gamma_k(ch, eps, 2, solver="exact")
            closed = gamma_k(ch, eps, 2, solver="closed_form")
            assert closed.method == "closed_form"
            assert closed.gamma <= exact.gamma + 1e-12

    def test_closed_form_merges_above_tightened_threshold(self):
        # per-letter fidelity 0.9025 beats (1 - 0.2)**(1/2), so both letters
        # merge and the whole sequence space collapses to one block
        got = gamma_k(make_erasure(2, 0.95), 0.2, 2, solver="closed_form")
        assert got.block_count == 1
        assert got.gamma == 1.0
        got = gamma_k(make_erasure(2, 0.9), 0.2, 2, solver="closed_form")
        assert got.block_count == 4
        assert got.gamma == 0.0

    def test_closed_form_scales_to_huge_k(self):
        got = gamma_k(make_identity(4), 0.5, 100, solver="closed_form")
        assert got.block_count == 4 ** 100
        assert got.gamma == 0.0

    def test_result_json_shape(self):
        sweep = delta_estimate(make_erasure(2, 0.9), 0.2, 2)
        data = sweep.to_json_data()
        assert data == [
            {"k": 1, "gamma": 1.0, "method": "exact", "blocks": 1, "lower": 1, "proved": True},
            {"k": 2, "gamma": 2 / 3, "method": "exact", "blocks": 2, "lower": 2, "proved": True},
        ]

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            gamma_k(make_identity(2), 1.5, 1)
        with pytest.raises(ValidationError):
            gamma_k(make_identity(2), 0.5, 0)
        with pytest.raises(ValidationError):
            gamma_k(make_identity(2), 0.5, 1, solver="magic")
        with pytest.raises(ValidationError):
            delta_estimate(make_identity(2), 0.5, 0)

    def test_trend_labels(self):
        assert _observed_trend([0.5, 0.5, 0.5]) == "constant"
        assert _observed_trend([0.9, 0.5, 0.5]) == "nonincreasing"
        assert _observed_trend([0.1, 0.5, 0.5]) == "nondecreasing"
        assert _observed_trend([0.1, 0.5, 0.2]) == "mixed"


class TestSBoundedPartitions:
    def test_prefix_grouping_shape(self):
        p = s_bound_partition(2, 3, 1)
        assert p.blocks == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert s_bound_partition(2, 3, 0).num_blocks == 8
        assert s_bound_partition(2, 3, 3).blocks == (tuple(range(8)),)

    def test_prefix_grouping_diameter(self):
        import itertools

        for n, k, s in [(2, 3, 1), (2, 3, 2), (3, 2, 1)]:
            seqs = list(itertools.product(range(n), repeat=k))
            for block in s_bound_partition(n, k, s).blocks:
                for a in block:
                    for b in block:
                        d = sum(u != v for u, v in zip(seqs[a], seqs[b]))
                        assert d <= s

    def test_prefix_grouping_covers_erasure_graph(self):
        fid = product_fidelity_matrix(make_erasure(2, 0.9), 3)
        graph = graph_from_fidelity_matrix(fid, 0.2)
        # eta**2 = 0.81 clears 0.8, eta**4 = 0.6561 does not
        assert partition_is_clique_cover(s_bound_partition(2, 3, 1), graph)
        assert not partition_is_clique_cover(s_bound_partition(2, 3, 2), graph)

    def test_minimum_matches_exact_solver(self):
        # solve_exact is the code under test, so the reference is the
        # exhaustive set-partition oracle on an independently built graph.
        for n in range(2, 11):
            for k in range(1, 5):
                if n ** k > 27:
                    continue
                for s in range(k + 1):
                    minimum = min_s_bounded_partition_size(n, k, s, max_sequences=27)
                    assert minimum == min_clique_cover_brute(hamming_graph(n, k, s))
                    assert minimum == n ** (k - s)

    @pytest.mark.parametrize("alphabet_size, k, s, minimum", [
        (2, 5, 0, 32), (2, 5, 1, 16), (2, 5, 2, 7), (2, 5, 3, 4), (2, 5, 4, 2), (2, 5, 5, 1),
        (2, 6, 3, 7), (2, 6, 4, 4), (3, 4, 1, 27), (3, 4, 2, 9),
    ])
    def test_minimum_beyond_the_brute_force_oracle(self, alphabet_size, k, s, minimum):
        # Minima on 32-81 sequences, past the reach of min_clique_cover_brute;
        # each was confirmed by an independent DSATUR search.  Two of them
        # beat the prefix bound: 7 < 2**3 at (2, 5, 2) and 7 < 2**3 at (2, 6, 3).
        # (3, 4, 1) = 27 is proved by counting: two words at distance <= 1
        # agree outside one position, so a clique has at most 3 words, and
        # 81 / 3 = 27 blocks are reached by the prefix partition.
        total = alphabet_size ** k
        assert min_s_bounded_partition_size(alphabet_size, k, s, total) == minimum

    def test_prefix_bound_is_not_minimal_at_a2_k5_s2(self):
        # Seven blocks of Hamming diameter <= 2 cover all 32 binary words of
        # length 5, one fewer than the conjectured 2 ** (5 - 2).
        words = [
            "00000,00001,00010,00011",
            "00100,00101,00110,01100,10100",
            "00111,01011,01101,01110,01111,11111",
            "01000,10000,11000,11001,11010,11100",
            "01001,10001,11011,11101",
            "01010,10010,11110",
            "10011,10101,10110,10111",
        ]
        cover = Partition(tuple(tuple(int(w, 2) for w in b.split(",")) for b in words))
        graph = IndistinguishabilityGraph(hamming_graph(2, 5, 2))
        assert partition_is_clique_cover(cover, graph)
        assert cover.num_blocks == 7 < 2 ** (5 - 2)

    def test_anticode_condition_gives_the_prefix_bound_without_a_search(self, monkeypatch):
        # Where s is 0, 1 or k, or q >= k - s + 2 (Frankl-Furedi), a block
        # of diameter <= s holds at most q**s words, so q**(k - s) blocks are
        # the minimum; the search on the Hamming graph agrees on every such
        # case of at most 81 words.
        cases = [(q, k, s) for q in range(2, 11) for k in range(1, 7) if q ** k <= 81
                 for s in range(k + 1) if s in (0, 1, k) or q >= k - s + 2]
        assert len(cases) == 66
        for q, k, s in cases:
            assert len(_exact_coloring(_bits(hamming_graph(q, k, s)))) == q ** (k - s), (q, k, s)

        def unreachable(masks):
            raise AssertionError("a search ran on a row the anticode bound proves")

        monkeypatch.setattr(asymptotic, "_exact_coloring", unreachable)
        for q, k, s in cases:
            assert min_s_bounded_partition_size(q, k, s, q ** k) == q ** (k - s)
        rows = conjecture_report(5, 4, max_sequences=625)
        assert [(r.s, r.minimum, r.equal) for r in rows] == [
            (s, 5 ** (4 - s), True) for s in range(5)]

    def test_rows_outside_the_condition_search_once(self, monkeypatch):
        # q = 2 < k - s + 2 = 4 at (2, 4, 2): the Hamming graph is searched.
        calls = []
        exact_coloring = asymptotic._exact_coloring

        def counted(masks):
            calls.append(len(masks))
            return exact_coloring(masks)

        monkeypatch.setattr(asymptotic, "_exact_coloring", counted)
        assert min_s_bounded_partition_size(2, 4, 2, 16) == 4
        assert calls == [16]

    def test_minimum_cap(self):
        with pytest.raises(ValidationError):
            min_s_bounded_partition_size(2, 4, 1)
        # The cap is checked before anything of 2**16 entries is built.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                min_s_bounded_partition_size(2, 16, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("cap", [0, -5])
    def test_a_cap_below_one_is_refused_by_name(self, monkeypatch, cap):
        def unreachable(masks):
            raise AssertionError("a search started under a cap below 1")

        monkeypatch.setattr(asymptotic, "_exact_coloring", unreachable)
        message = f"^max_sequences must be >= 1, got {cap}$"
        with pytest.raises(ValidationError, match=message):
            min_s_bounded_partition_size(2, 3, 1, max_sequences=cap)
        with pytest.raises(ValidationError, match=message):
            conjecture_report(2, 3, max_sequences=cap)
        # refused before any row, even when no row would run
        with pytest.raises(ValidationError, match=message):
            conjecture_report(2, 3, s_values=[], max_sequences=cap)

    def test_conjecture_rows_binary(self):
        rows = conjecture_report(2, 3)
        assert [r.minimum for r in rows] == [8, 4, 2, 1]
        assert [r.bound for r in rows] == [8, 4, 2, 1]
        assert all(r.equal for r in rows)

    def test_conjecture_rows_ternary(self):
        rows = conjecture_report(3, 2)
        assert [(r.s, r.minimum, r.bound) for r in rows] == [(0, 9, 9), (1, 3, 3), (2, 1, 1)]

    def test_conjecture_row_json(self):
        row = conjecture_report(2, 2, s_values=(1,))[0]
        assert row.to_json_dict() == {"s": 1, "minimum": 2, "bound": 2, "equal": True}


class TestGeneralizedErasureBound:
    def test_frozen_values(self):
        assert generalized_erasure_gamma_bound((2, 2), 1) == 2 / 3
        assert generalized_erasure_gamma_bound((2, 2), 2) == 0.4

    def test_strictly_decreasing_to_zero(self):
        values = [generalized_erasure_gamma_bound((2, 2), k) for k in range(1, 36)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[7] < 1e-2
        assert values[34] < 1e-10

    def test_single_group_is_fully_compressible(self):
        assert generalized_erasure_gamma_bound((3,), 5) == 1.0
        assert generalized_erasure_gamma_bound((1,), 2) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            generalized_erasure_gamma_bound((), 1)
        with pytest.raises(ValidationError):
            generalized_erasure_gamma_bound((2, 0), 1)
        with pytest.raises(ValidationError):
            generalized_erasure_gamma_bound((2, 2), 0)

    @pytest.mark.parametrize("sizes, message", [
        ([2.7, 2], "block size 0 must be an integer, got 2.7"),
        ([2, True], "block size 1 must be an integer, got True"),
        ([2, 2.0], "block size 1 must be an integer, got 2.0"),
        ([np.float64(2.0)], "block size 0 must be an integer"),
        (["2"], "block size 0 must be an integer, got '2'"),
    ])
    def test_non_integer_sizes_are_refused(self, sizes, message):
        # [2.7, 2] once gave the value of [2, 2], and [True, 2] that of [1, 2].
        for function in (generalized_erasure_gamma_bound, generalized_erasure_bound_partition):
            with pytest.raises(ValidationError, match="^" + re.escape(message)):
                function(sizes, 2)

    def test_numpy_integer_sizes_are_accepted(self):
        sizes = np.array([2, 3])
        assert generalized_erasure_gamma_bound(sizes, 2) == generalized_erasure_gamma_bound([2, 3], 2)
        assert (generalized_erasure_bound_partition(sizes, 2)
                == generalized_erasure_bound_partition([2, 3], 2))

    def test_value_is_the_compressibility_of_the_partition(self):
        # One gamma formula: the exact rational, correctly rounded once.
        for sizes in ([2, 2], [2, 3], [1, 4, 2], [5]):
            for k in range(1, 12):
                total = sum(sizes) ** k
                blocks = total - sum(a ** k for a in sizes) + len(sizes)
                want = 1.0 if total == 1 else (total - blocks) / (total - 1)
                assert generalized_erasure_gamma_bound(sizes, k) == want

    def test_bound_partition_structure(self):
        p = generalized_erasure_bound_partition((2, 2), 2)
        assert p.num_blocks == 10
        assert (0, 1, 4, 5) in p.blocks
        assert (10, 11, 14, 15) in p.blocks
        singles = [b for b in p.blocks if len(b) == 1]
        assert len(singles) == 8

    def test_bound_partition_value_is_the_closed_form(self):
        for sizes, k in [((2, 2), 2), ((2, 3), 2), ((2, 2, 2), 2)]:
            p = generalized_erasure_bound_partition(sizes, k)
            total = sum(sizes) ** k
            assert compressibility(total, p.num_blocks) == pytest.approx(
                generalized_erasure_gamma_bound(sizes, k), abs=1e-15
            )

    def test_bound_partition_feasibility_depends_on_eta(self):
        p = generalized_erasure_bound_partition((2, 2), 2)
        strong = make_generalized_erasure((("1", "2"), ("3", "4")), (0.95, 0.95))
        weak = make_generalized_erasure((("1", "2"), ("3", "4")), (0.9, 0.95))
        for ch, want in ((strong, True), (weak, False)):
            fid = product_fidelity_matrix(ch, 2)
            graph = graph_from_fidelity_matrix(fid, 0.2)
            assert partition_is_clique_cover(p, graph) == want

    def test_exact_solution_can_beat_the_closed_form(self):
        # mixed sequences with a shared group pattern still merge, which the
        # block-diagonal construction gives away; k=2 shows a strict gap
        ch = make_generalized_erasure((("1", "2"), ("3", "4")), (0.9, 0.95))
        exact1 = gamma_k(ch, 0.2, 1, solver="exact")
        exact2 = gamma_k(ch, 0.2, 2, solver="exact")
        assert exact1.gamma == generalized_erasure_gamma_bound((2, 2), 1)
        assert exact2.gamma == 0.6
        assert exact2.block_count == 7
        assert exact2.gamma > generalized_erasure_gamma_bound((2, 2), 2)


class TestClosedFormCertificate:
    """The k-fold product of the closed-form letter partition is a clique
    cover of the sequence graph in the library's own arithmetic."""

    @staticmethod
    def assert_product_is_clique_cover(ch, eps, k):
        letter = closed_form_letter_partition(ch, eps, k)
        product = Partition(tuple(product_partition(letter.blocks, ch.num_inputs, k)))
        fid = product_fidelity_matrix(ch, k)
        assert partition_is_clique_cover(product, graph_from_fidelity_matrix(fid, eps))
        got = gamma_k(ch, eps, k, solver="closed_form")
        assert got.block_count == product.num_blocks == letter.num_blocks ** k

    def test_one_ulp_below_the_boundary_is_not_merged(self):
        ch = make_erasure(2, 0.9554650330615831)
        eps = 0.5979352879761461
        self.assert_product_is_clique_cover(ch, eps, 10)
        assert gamma_k(ch, eps, 10, solver="closed_form").block_count == 1024

    def test_clear_margin_still_merges(self):
        got = gamma_k(make_erasure(2, 0.9554650330615831), 0.6, 10, solver="closed_form")
        assert got.block_count == 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(2, 2), (2, 5), (2, 8), (3, 2), (3, 4)]),
           st.booleans(), st.integers(-3, 3))
    def test_boundary_epsilons(self, seed, shape, erasure, ulps):
        n, k = shape
        rng = np.random.default_rng(seed)
        ch = make_erasure(n, float(rng.uniform(0.5, 1.0))) if erasure else random_channel(rng, n, 3)
        letter_fid = float(reverse_fidelity_matrix(ch)[0, 1])
        target = 1.0
        for _ in range(k):
            target *= letter_fid
        for _ in range(abs(ulps)):
            target = float(np.nextafter(target, 2.0 if ulps > 0 else 0.0))
        self.assert_product_is_clique_cover(ch, 1.0 - target, k)


@st.composite
def regime_instances(draw):
    """A random channel on at most 6 letters, some rows repeated so that
    fidelity ties at 1.0 occur, a length k <= 3, and an epsilon at one of
    the k-fold product fidelities or one float away from it."""
    n = draw(st.integers(1, 6), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ch = random_channel(rng, n, draw(st.integers(1, 4), label="outputs"))
    copies = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="rows")
    ch = ClassicalChannel(ch.input, ch.output, ch.matrix[copies])
    k = draw(st.integers(1, 3), label="k")
    fid = product_fidelity_matrix(ch, k)
    at = 1.0 - float(fid.flat[draw(st.integers(0, fid.size - 1), label="pair")])
    eps = draw(st.sampled_from([at, float(np.nextafter(at, -1.0)),
                                float(np.nextafter(at, 2.0))]), label="eps")
    return ch, k, min(max(eps, 0.0), 1.0), fid


class TestEveryRegimeCovers:
    """Every partition the library returns, in every regime, is a clique
    cover of the thresholded product_fidelity_matrix at the requested
    epsilon."""

    @settings(max_examples=150, deadline=None)
    @given(regime_instances())
    def test_every_regime_returns_a_clique_cover(self, instance):
        ch, k, eps, fid = instance
        n = ch.num_inputs
        graph = graph_from_fidelity_matrix(fid, eps)
        covers = [Partition(tuple(product_partition(
            closed_form_letter_partition(ch, eps, k).blocks, n, k))), solve_greedy(graph)]
        if graph.size <= default_exact_cap():
            covers.append(solve_exact(graph))
        letters = graph_from_fidelity_matrix(product_fidelity_matrix(ch, 1), eps)
        for solver in ("exact", "greedy", "auto"):
            part = compress(ch, eps, solver).partition
            assert partition_is_clique_cover(part, letters), solver
            if solver == "exact" and graph.size > default_exact_cap():
                continue
            row = _partition_of(_cover(_sequence_masks(ch.fidelity_matrix, eps, k, {}),
                                       solver)[0])
            got = gamma_k(ch, eps, k, solver)
            if got.method == "letter_product":
                # A proved optimum, which first fit need not reach: the
                # product of the letter classes, or else the recursive cover
                # of the Cartesian power from a minimum letter cover.
                best = class_product_cover(ch.fidelity_matrix, eps, k)
                if best is None:
                    best = Partition(tuple(cartesian_power_cover(solve_exact(letters).blocks, n, k)))
                assert got.block_count == best.num_blocks <= row.num_blocks
                covers.append(best)
            else:
                assert row.num_blocks == got.block_count, solver
            covers.append(row)
        for part in covers:
            assert partition_is_clique_cover(part, graph)


class TestLetterCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 12))
    def test_matches_the_per_block_minimum(self, seed, n, k):
        # The labelled mask takes the same minimum as one submatrix per
        # block, with 1.0 when every block is a singleton.
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, n, 3)
        ch = ClassicalChannel(ch.input, ch.output, ch.matrix[rng.integers(0, n, n)])
        fid = ch.fidelity_matrix
        labels = rng.integers(0, n, n)
        blocks = [tuple(np.flatnonzero(labels == b).tolist()) for b in np.unique(labels)]
        want = min(float(fid[np.ix_(b, b)].min()) for b in blocks)
        worst, product = _letter_certificate(fid, blocks, k)
        assert worst == want
        assert product == math.prod([want] * k)


@st.composite
def router_instances(draw):
    """A random channel on at most 5 letters, some rows repeated, a sweep
    length K <= 5, and an epsilon at one letter fidelity or one float away
    from it."""
    n = draw(st.integers(1, 5), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ch = random_channel(rng, n, draw(st.integers(1, 4), label="outputs"))
    copies = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="rows")
    ch = ClassicalChannel(ch.input, ch.output, ch.matrix[copies])
    at = 1.0 - float(ch.fidelity_matrix.flat[draw(st.integers(0, n * n - 1), label="pair")])
    eps = draw(st.sampled_from([at, float(np.nextafter(at, -1.0)),
                                float(np.nextafter(at, 2.0))]), label="eps")
    return ch, min(max(eps, 0.0), 1.0), draw(st.integers(1, 5), label="K")


class TestOneRowRoutine:
    """gamma_k and delta_estimate reach their rows through one routine."""

    @settings(max_examples=60, deadline=None)
    @given(router_instances())
    def test_gamma_k_is_the_sweep_row(self, instance):
        ch, eps, K = instance
        n = ch.num_inputs
        caps = {"exact": default_exact_cap(), "greedy": DEFAULT_GRAPH_CAP}
        for solver in ("auto", "exact", "greedy", "closed_form"):
            top = K
            while top and n ** top > caps.get(solver, n ** top):
                top -= 1
            if top == 0:
                continue
            sweep = delta_estimate(ch, eps, top, solver).results
            assert [r.k for r in sweep] == list(range(1, top + 1))
            for k in range(1, top + 1):
                assert gamma_k(ch, eps, k, solver) == sweep[k - 1], (solver, k)

    def test_gamma_k_refuses_the_first_unprintable_k(self):
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not digits:
            pytest.skip("this Python prints ints of any length")
        k = (10 ** digits).bit_length()  # the least k with 2**k >= 10**digits
        for solver in ("auto", "closed_form"):
            with pytest.raises(ValidationError, match=f"^k={k}: the sequence count 2\\*\\*{k} "):
                gamma_k(make_erasure(2, 0.9), 0.2, k, solver)
        row = gamma_k(make_erasure(2, 0.9), 0.2, k - 1, solver="closed_form")
        assert row.method == "closed_form" and str(row.block_count)
        row = gamma_k(make_erasure(2, 0.9), 0.2, k - 1)
        assert (row.method, row.block_count) == ("letter_product", 2 ** (k - 2))
        assert str(row.block_count)

    def test_exact_cap_is_checked_before_the_search(self, monkeypatch):
        def unreachable(masks):
            raise AssertionError("exact search started above the cap")
        monkeypatch.setattr(partition, "_exact_coloring", unreachable)
        masks = _bits(np.eye(default_exact_cap() + 1, dtype=bool))
        with pytest.raises(ExactSolverCapError, match="above the cap"):
            _cover(masks, "exact")
        assert len(_cover(masks, "greedy")[0]) == len(masks)

    @pytest.mark.parametrize("solver", ["closed_form", "auto"])
    def test_a_sweep_checks_the_letter_matrix_once(self, monkeypatch, solver):
        checked = []
        letter_matrix = asymptotic._letter_matrix

        def counted(channel):
            checked.append(channel)
            return letter_matrix(channel)

        monkeypatch.setattr(asymptotic, "_letter_matrix", counted)
        ch = make_erasure(2, 0.9)
        # past the exact cap the auto rows are letter products
        sweep = delta_estimate(ch, 0.2, 14, solver)
        assert len(checked) == 1
        monkeypatch.undo()
        assert [r.block_count for r in sweep.results] == [
            gamma_k(ch, 0.2, k, solver).block_count for k in range(1, 15)]


# Product graphs up to this many sequences are checked against the
# exhaustive set-partition oracle.  On the proved rows its label-order
# independent set meets the minimum, so it stops at the first cover that
# size, in under 0.2 s on 32 sequences.
BRUTE_SEQUENCES = 32


@st.composite
def letter_check_instances(draw):
    """A channel on 2 to 5 letters (random rows with some repeated, an
    erasure, or a two-group generalized erasure) and an epsilon whose
    ``1 - eps`` is one letter value or the float square of the largest
    off-diagonal one, or one float either side of either."""
    n = draw(st.integers(2, 5), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    kind = draw(st.sampled_from(["random", "erasure", "grouped"]), label="kind")
    if kind == "random":
        ch = random_channel(rng, n, draw(st.integers(1, 4), label="outputs"))
        copies = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="rows")
        ch = ClassicalChannel(ch.input, ch.output, ch.matrix[copies])
    elif kind == "erasure":
        ch = make_erasure(n, float(rng.uniform(0.5, 1.0)))
    else:
        ch = grouped_erasure(n, rng)
    fid = ch.fidelity_matrix
    top = float(fid[~np.eye(n, dtype=bool)].max())
    t = draw(st.one_of(st.just(top * top), st.sampled_from(sorted({float(v) for v in fid.flat}))),
             label="t")
    t = draw(st.sampled_from([float(np.nextafter(t, 0.0)), t, float(np.nextafter(t, 2.0))]),
             label="ulp")
    return ch, min(max(1.0 - t, 0.0), 1.0)


@st.composite
def class_check_instances(draw):
    """A channel on 2 to 5 letters and an epsilon at a letter-class boundary.

    The channel is a block channel (the letters of one block share an
    output support that no other block uses, each row its block's row
    scaled by up to ``noise``, so letters of one block have fidelity near
    or exactly 1 and letters of different blocks exactly 0), a random
    channel, or a random channel with repeated rows.  ``1 - eps`` is the
    ``k``-fold product of one letter value, for a ``k`` with ``n**k <= 64``,
    or one float either side of it; or ``eps`` is 1."""
    n = draw(st.integers(2, 5), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    kind = draw(st.sampled_from(["blocks", "random", "duplicates"]), label="kind")
    if kind == "blocks":
        blocks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="blocks")
        noise = draw(st.sampled_from([0.0, 0.02, 0.3]), label="noise")
        shapes = rng.random((n, 3)) + 0.1
        matrix = np.zeros((n, 3 * n))
        for i, b in enumerate(blocks):
            row = shapes[b] * (1.0 + noise * rng.random(3))
            matrix[i, 3 * b:3 * b + 3] = row / row.sum()
        ch = ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(3 * n), matrix)
    else:
        ch = random_channel(rng, n, draw(st.integers(1, 4), label="outputs"))
        if kind == "duplicates":
            copies = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="rows")
            ch = ClassicalChannel(ch.input, ch.output, ch.matrix[copies])
    if draw(st.booleans(), label="eps = 1"):
        return ch, 1.0
    w = draw(st.sampled_from(sorted({float(v) for v in ch.fidelity_matrix.flat})), label="w")
    k = draw(st.integers(1, max(k for k in range(1, 7) if n ** k <= 64)), label="k")
    t = math.prod([w] * k)
    t = draw(st.sampled_from([float(np.nextafter(t, 0.0)), t, float(np.nextafter(t, 2.0))]),
             label="ulp")
    return ch, min(max(1.0 - t, 0.0), 1.0)


def isolated_oracle(fid, eps):
    """How many letters the letter graph at ``eps`` joins to no other letter."""
    letters = graph_from_fidelity_matrix(fid, eps).adjacency
    return int((letters.sum(axis=1) == 1).sum())


def tight_letter_cover(adj, omega):
    """A clique cover of the reflexive graph ``adj`` whose blocks all have
    size ``omega`` but at most one singleton, found by exhaustive search,
    or ``None`` when there is none."""
    def place(rest, singleton):
        if not rest:
            return []
        v = rest[0]
        for size in sorted({omega} if singleton else {omega, 1}, reverse=True):
            for others in itertools.combinations(rest[1:], size - 1):
                block = (v, *others)
                if adj[np.ix_(block, block)].all():
                    tail = place([u for u in rest if u not in block], singleton or size < omega)
                    if tail is not None:
                        return [block, *tail]
        return None

    return place(list(range(len(adj))), False)


def cartesian_oracle(fid, eps):
    """``theta`` and ``omega`` of the letter graph at ``eps`` by brute
    force, a cover of it by cliques of size ``omega`` with at most one
    singleton (``None`` when there is none), and whether the Cartesian
    certificate holds: the largest off-diagonal letter value squared is
    below ``1 - eps`` and that cover exists."""
    n = fid.shape[0]
    adj = graph_from_fidelity_matrix(fid, eps).adjacency
    theta = min_clique_cover_brute(adj)
    omega = max(len(c) for size in range(1, n + 1)
                for c in itertools.combinations(range(n), size) if adj[np.ix_(c, c)].all())
    cover = tight_letter_cover(adj, omega)
    top = float(fid[~np.eye(n, dtype=bool)].max()) if n > 1 else 1.0
    return theta, omega, cover, top * top < 1.0 - eps and cover is not None


@st.composite
def in_cap_instances(draw):
    """A channel on 1 to 5 letters (random rows, rows copied with tiny
    noise or none, or an erasure), the longest sweep within the exact cap,
    and an epsilon whose ``1 - eps`` is a letter value, the ``k``-fold
    product of one, or the float square of the largest off-diagonal one,
    or one float either side of it."""
    n = draw(st.integers(1, 5), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    kind = draw(st.sampled_from(["random", "near-duplicate", "erasure"]), label="kind")
    if kind == "erasure":
        ch = make_erasure(n, float(rng.uniform(0.5, 1.0)))
    else:
        ch = random_channel(rng, n, draw(st.integers(1, 4), label="outputs"))
        if kind == "near-duplicate":
            copies = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="rows")
            noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]), label="noise")
            matrix = ch.matrix[copies] * (1.0 + noise * rng.random(ch.matrix.shape))
            ch = ClassicalChannel(ch.input, ch.output, matrix / matrix.sum(axis=1, keepdims=True))
    k_max = max(k for k in range(1, 7) if n ** k <= default_exact_cap())
    fid = ch.fidelity_matrix
    w = draw(st.sampled_from(sorted({float(v) for v in fid.flat})), label="w")
    candidates = [w, math.prod([w] * draw(st.integers(2, 6), label="power"))]
    if n > 1:
        top = float(fid[~np.eye(n, dtype=bool)].max())
        candidates.append(top * top)
    t = draw(st.sampled_from(candidates), label="t")
    t = draw(st.sampled_from([float(np.nextafter(t, 0.0)), t, float(np.nextafter(t, 2.0))]),
             label="ulp")
    return ch, min(max(1.0 - t, 0.0), 1.0), k_max


class TestProvedRowsWithinTheCap:
    """Auto rows within the exact cap that a letter certificate proves take
    its count and build no sequence graph; every auto row there equals the
    exact solver's row."""

    @settings(max_examples=300, deadline=None)
    @given(in_cap_instances())
    def test_auto_rows_equal_the_exact_rows(self, instance):
        ch, eps, k_max = instance
        n = ch.num_inputs
        fid = ch.fidelity_matrix
        one_letter = cartesian_oracle(fid, eps)[3]
        # The one-letter check searches the letter graph when M * M < 1 - eps,
        # and that count is row 1 even when the certificate fails.
        searched = n > 1 and float(fid[~np.eye(n, dtype=bool)].max()) ** 2 < 1.0 - eps
        proved = [k for k in range(1, k_max + 1)
                  if one_letter or class_product_cover(fid, eps, k) is not None
                  or (k == 1 and searched)]
        graph_rows = [k for k in range(1, k_max + 1) if k not in proved]
        isolated = isolated_oracle(fid, eps)
        built, covered = [], []
        sequence_masks, cover = asymptotic._sequence_masks, asymptotic._cover

        def counted_masks(base, epsilon, k, memo):
            built.append(k)
            return sequence_masks(base, epsilon, k, memo)

        def counted_cover(masks, solver):
            covered.append(len(masks))
            return cover(masks, solver)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(asymptotic, "_sequence_masks", counted_masks)
            mp.setattr(asymptotic, "_cover", counted_cover)
            rows = delta_estimate(ch, eps, k_max).results
        assert rows == delta_estimate(ch, eps, k_max, solver="exact").results
        assert all((r.method, r.proved) == ("exact", True) for r in rows)
        if 0 < isolated < n:  # G'_1 .. G'_k of the other letters, each built and covered once
            assert built == list(range(1, max(graph_rows, default=0) + 1))
            assert covered == [(n - isolated) ** j for j in built]
            event("isolated letters factored out")
        else:
            assert built == graph_rows
            assert covered == [n ** k for k in built]
        event(f"{len(proved)} of {k_max} rows proved")


@st.composite
def isolated_instances(draw):
    """A channel on 3 to 5 letters whose letter graph at ``eps`` has between
    1 and ``n - 1`` isolated letters.  Its rows are random, some of them
    repeated, and some moved mostly onto an output of their own; ``1 -
    eps`` is an off-diagonal letter value or one float either side of it."""
    n = draw(st.integers(3, 5), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    matrix = random_channel(rng, n, draw(st.integers(1, 4), label="outputs")).matrix
    matrix = matrix[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="rows")]
    far = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n), label="far"))
    matrix = np.hstack([np.where(far[:, None], 0.1, 1.0) * matrix, 0.9 * np.diag(far)])
    ch = ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(matrix.shape[1]), matrix)
    fid = ch.fidelity_matrix
    t = draw(st.sampled_from(sorted({float(v) for v in fid[~np.eye(n, dtype=bool)]})), label="t")
    t = draw(st.sampled_from([float(np.nextafter(t, 0.0)), t, float(np.nextafter(t, 2.0))]),
             label="ulp")
    eps = min(max(1.0 - t, 0.0), 1.0)
    isolated = isolated_oracle(fid, eps)
    assume(0 < isolated < n)
    return ch, eps, isolated


class TestIsolatedLetters:
    """A letter below ``1 - eps`` to every other letter never merges, so a
    materialized row is ``sum(C(k, j) * S**(k - j) * blocks(G'_j))`` over
    covers of the other letters' sequence graphs ``G'_j``."""

    @settings(max_examples=150, deadline=None)
    @given(isolated_instances())
    def test_factored_rows_equal_covers_of_the_product(self, instance):
        ch, eps, isolated = instance
        n = ch.num_inputs
        cap = default_exact_cap()
        covered = []
        cover = asymptotic._cover

        def counted(masks, solver):
            covered.append(len(masks))
            return cover(masks, solver)

        for k in range(1, max(k for k in range(1, 6) if n ** k <= 256) + 1):
            graph = graph_from_fidelity_matrix(product_fidelity_matrix(ch, k), eps)
            greedy = solve_greedy(graph).num_blocks
            exact = solve_exact(graph).num_blocks if n ** k <= cap else None
            for solver in ("auto", "greedy", "exact"):
                if solver == "exact" and exact is None:
                    continue
                covered.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(asymptotic, "_cover", counted)
                    row = gamma_k(ch, eps, k, solver)
                assert all(size <= (n - isolated) ** k for size in covered)
                if row.method == "letter_product":
                    assert solver == "auto" and row.proved and covered == []
                    assert row.block_count <= greedy
                elif solver == "greedy" or n ** k > cap:
                    assert (row.method, row.block_count) == ("greedy_lower_bound", greedy)
                else:
                    assert (row.method, row.block_count) == ("exact", exact)
        event(f"{isolated} of {n} letters isolated")

    @staticmethod
    def random3_shape():
        # The shape the bench's random3-1 channel is drawn around: at
        # 1 - eps = 0.7 letters 0 and 1 join (about 0.87) and letter 2
        # (about 0.47 and 0.50 to them) is isolated.
        matrix = np.array([[0.7, 0.2, 0.1], [0.37, 0.53, 0.1], [0.1, 0.1, 0.8]])
        ch = ClassicalChannel(Alphabet.numbered(3), Alphabet.numbered(3), matrix)
        fid = ch.fidelity_matrix
        assert fid[0, 1] >= 0.7 > max(fid[0, 2], fid[1, 2])
        return ch

    @staticmethod
    def covers(monkeypatch, ch, *args):
        covered = []
        cover = asymptotic._cover

        def counted(masks, solver):
            covered.append((len(masks), solver))
            return cover(masks, solver)

        monkeypatch.setattr(asymptotic, "_cover", counted)
        rows = delta_estimate(ch, *args).results
        monkeypatch.undo()
        return rows, covered

    def test_random3_rows_cover_only_the_other_letters_graphs(self, monkeypatch):
        ch = self.random3_shape()
        rows, covered = self.covers(monkeypatch, ch, 0.3, 8)
        # Rows 1-2 are the letter classes {0, 1} and {2} (0.87**2 >= 0.7);
        # rows 3-6 run first fit on G'_1 to G'_6 (2 to 64 sequences), never
        # on their 27- to 729-sequence graphs.  Rows 7-8 cover only the
        # closed form's 3-letter graph.
        assert covered == [(2 ** j, "greedy") for j in range(1, 7)] + [(3, "auto")] * 2
        assert [(r.block_count, r.method) for r in rows] == (
            [(2, "exact"), (4, "exact")]
            + [(b, "greedy_lower_bound") for b in (9, 23, 64, 186)]
            + [(3 ** k, "closed_form") for k in (7, 8)])
        for row in rows[2:6]:
            graph = graph_from_fidelity_matrix(product_fidelity_matrix(ch, row.k), 0.3)
            assert row.block_count == solve_greedy(graph).num_blocks

    def test_exact_row_at_81_sequences_searches_16(self, monkeypatch):
        ch = self.random3_shape()
        monkeypatch.setenv("REVCOMP_EXACT_CAP", "100")
        rows, covered = self.covers(monkeypatch, ch, 0.3, 4, "exact")
        assert covered == [(2 ** j, "exact") for j in range(1, 5)]
        assert [(r.k, r.block_count, r.method, r.proved) for r in rows] == [
            (1, 2, "exact", True), (2, 4, "exact", True), (3, 9, "exact", True),
            (4, 23, "exact", True)]

    def test_no_or_every_letter_isolated_builds_the_full_graph(self, monkeypatch):
        ch = self.random3_shape()
        for eps, size in ((0.6, 3), (0.05, 3)):  # every letter joined / none joined
            rows, covered = self.covers(monkeypatch, ch, eps, 3, "greedy")
            assert covered == [(size ** k, "greedy") for k in (1, 2, 3)]


class TestLetterProductRows:
    """Rows past the exact cap that the letter graph proves: blocks
    ``n**(k - 1) * theta`` when ``M * M < 1 - eps`` and ``theta * omega == n``,
    and ``c**k`` when the letter graph is ``c`` disjoint cliques whose worst
    in-class value multiplied ``k`` times reaches ``1 - eps``."""

    @staticmethod
    def assert_letter_rows(ch, eps):
        """Every auto row past k = 1, with the exact cap at ``n``, is the
        greedy row's cover unless an oracle proves it; a proved row is
        ``letter_product`` at the oracle's count, and that oracle's cover is
        a clique cover of the thresholded product matrix and, up to
        ``BRUTE_SEQUENCES``, the exhaustive minimum."""
        n = ch.num_inputs
        fid = ch.fidelity_matrix
        theta, omega, letter_cover, proved = cartesian_oracle(fid, eps)
        k_max = max(k for k in range(1, 7) if n ** k <= 64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REVCOMP_EXACT_CAP", str(n))  # every row past k = 1 is past the cap
            rows = delta_estimate(ch, eps, k_max).results
            greedy = delta_estimate(ch, eps, k_max, solver="greedy").results
        assert (rows[0].method, rows[0].proved) == ("exact", True)
        assert rows[0].block_count == theta
        kinds = []
        for row, plain in zip(rows[1:], greedy[1:]):
            k = row.k
            classes = class_product_cover(fid, eps, k)
            if not proved and classes is None:  # the sequence graph was built and covered
                assert (row.block_count, row.method) == (plain.block_count, plain.method)
                kinds.append("graph")
                continue
            assert (row.method, row.proved) == ("letter_product", True)
            covers = []
            if proved:
                covers.append(Partition(tuple(cartesian_power_cover(letter_cover, n, k))))
                assert row.block_count == covers[-1].num_blocks == -(-n ** k // omega)
            if classes is not None:
                covers.append(classes)
                assert row.block_count == classes.num_blocks == theta ** k
            kinds.append("one letter" if proved else "classes")
            graph = graph_from_fidelity_matrix(product_fidelity_matrix(ch, k), eps)
            for cover in covers:
                assert partition_is_clique_cover(cover, graph)
            assert row.block_count <= plain.block_count
            if n ** k <= BRUTE_SEQUENCES:
                assert row.block_count == min_clique_cover_brute(graph.adjacency)
        return kinds

    @settings(max_examples=200, deadline=None)
    @given(letter_check_instances())
    def test_letter_product_rows_are_proved_optima(self, instance):
        ch, eps = instance
        for kind in set(self.assert_letter_rows(ch, eps)):
            event(kind)

    @settings(max_examples=200, deadline=None)
    @given(class_check_instances())
    def test_letter_class_rows_are_proved_optima(self, instance):
        ch, eps = instance
        kinds = self.assert_letter_rows(ch, eps)
        for kind in set(kinds):
            event(kind)
        if eps == 1.0:  # one class: every pair is joined
            assert set(kinds) == {"classes"}

    @staticmethod
    def graph_rows(monkeypatch, ch, eps, k_max):
        """The auto sweep's rows and how many sequence graphs it built."""
        built = []
        sequence_masks = asymptotic._sequence_masks

        def counted(base, epsilon, k, memo):
            built.append(k)
            return sequence_masks(base, epsilon, k, memo)

        monkeypatch.setattr(asymptotic, "_sequence_masks", counted)
        rows = delta_estimate(ch, eps, k_max).results
        monkeypatch.undo()
        return rows, built

    def test_duplicate_letters_build_the_graph(self, monkeypatch):
        # Two equal rows have letter fidelity exactly 1.0, so M * M = 1.0
        # is never below 1 - eps, and at 1 - eps = 0.9 letter 2 (0.958 to
        # both) joins letter 3 (0.933), which they do not (0.797): no
        # disjoint cliques either.
        matrix = np.array([[0.7, 0.3], [0.7, 0.3], [0.5, 0.5], [0.25, 0.75]])
        ch = ClassicalChannel(Alphabet.numbered(4), Alphabet.numbered(2), matrix)
        fid = ch.fidelity_matrix
        assert fid[0, 1] == 1.0 and min(fid[0, 2], fid[2, 3]) >= 0.9 > fid[0, 3]
        rows, built = self.graph_rows(monkeypatch, ch, 0.1, 4)
        assert built == [1, 2, 3, 4]
        assert [r.method for r in rows] == ["exact"] * 2 + ["greedy_lower_bound"] * 2
        greedy = delta_estimate(ch, 0.1, 4, solver="greedy").results[2:]
        assert [r.block_count for r in rows[2:]] == [r.block_count for r in greedy]

    def test_duplicate_letters_in_classes_build_no_graph(self, monkeypatch):
        # Two equal rows and a far one are the classes {0, 1} and {2} at
        # 1 - eps = 0.95, with worst in-class value exactly 1.0, so every
        # row is 2**k blocks, within the exact cap and past the graph cap
        # alike, and no row builds its graph.
        matrix = np.array([[0.7, 0.3], [0.7, 0.3], [0.1, 0.9]])
        ch = ClassicalChannel(Alphabet.numbered(3), Alphabet.numbered(2), matrix)
        assert ch.fidelity_matrix[0, 1] == 1.0
        rows, built = self.graph_rows(monkeypatch, ch, 0.05, 9)
        assert built == []
        assert [(r.method, r.proved) for r in rows] == (
            [("exact", True)] * 2 + [("letter_product", True)] * 7)
        assert [r.block_count for r in rows] == [2 ** k for k in range(1, 10)]
        greedy = delta_estimate(ch, 0.05, 6, solver="greedy").results
        assert [r.block_count for r in rows[:6]] == [r.block_count for r in greedy]

    def test_path_letter_graph_builds_no_graph(self, monkeypatch):
        # Letters 0 - 1 - 2 form a path at 1 - eps = 0.45 (fidelities
        # 0.557 and 0.48, and 0.04 between the ends), and M * M = 0.310 is
        # below it: theta = omega = 2, a near-perfect matching, so every row
        # is ceil(3**k / 2) blocks, proved, and no row builds its graph.
        matrix = np.array([[0.8, 0.2, 0.0, 0.0], [0.2, 0.6, 0.2, 0.0], [0.0, 0.2, 0.6, 0.2]])
        ch = ClassicalChannel(Alphabet.numbered(3), Alphabet.numbered(4), matrix)
        fid = ch.fidelity_matrix
        assert fid[0, 1] ** 2 < 0.45 <= min(fid[0, 1], fid[1, 2]) and fid[0, 2] < 0.45
        rows, built = self.graph_rows(monkeypatch, ch, 0.55, 8)
        assert built == []
        assert [r.block_count for r in rows] == [(3 ** k + 1) // 2 for k in range(1, 9)]
        assert [(r.method, r.proved) for r in rows] == (
            [("exact", True)] * 2 + [("letter_product", True)] * 6)

    def test_proved_rows_build_no_graph(self, monkeypatch):
        # Past the exact cap no sequence graph, cover or closed form runs,
        # past the graph cap included, and the erasure optimum 2**(k - 1)
        # holds on every row.
        def refuse(*args):
            raise AssertionError("a letter-product row built a graph or a closed form")

        ch = make_erasure(2, 0.9)
        within = delta_estimate(ch, 0.2, 4).results
        for name in ("_sequence_masks", "_cover", "_closed_form_partition"):
            monkeypatch.setattr(asymptotic, name, refuse)
        past = [gamma_k(ch, 0.2, k) for k in range(5, 15)]
        assert [r.block_count for r in within + tuple(past)] == [2 ** (k - 1) for k in range(1, 15)]
        assert [(r.method, r.proved) for r in past] == [("letter_product", True)] * 10
        assert past[-1].gamma == compressibility(2 ** 14, 2 ** 13)

    def test_letter_graph_is_checked_once_per_call(self, monkeypatch):
        built = []
        letter_graph = asymptotic._LetterGraph

        class Counted(letter_graph):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(asymptotic, "_LetterGraph", Counted)
        ch = make_erasure(3, 0.9)
        assert [r.method for r in delta_estimate(ch, 0.2, 7).results].count("letter_product") == 5
        assert len(built) == 1
        # A check that proves nothing is also made once: 0.81**2 >= 0.65.
        assert "letter_product" not in {r.method for r in delta_estimate(ch, 0.35, 7).results}
        assert len(built) == 2
        # An auto sweep within the exact cap makes one check too.
        delta_estimate(ch, 0.2, 2)
        assert len(built) == 3
        # Every explicit solver thresholds the letters once and searches no letter graph.
        for solver in ("exact", "greedy", "closed_form"):
            delta_estimate(ch, 0.2, 2 if solver == "exact" else 6, solver)
        assert len(built) == 6
        assert all(g.cover == [] and {"classes", "alpha"}.isdisjoint(vars(g)) for g in built[3:])

    def test_letter_graph_is_searched_once(self, monkeypatch):
        # The path channel at 1 - eps = 0.45: the one-letter check searches
        # the letter graph once (theta = 2, a near-perfect matching), and
        # every row is proved from it, so no sequence graph is searched.
        matrix = np.array([[0.8, 0.2, 0.0, 0.0], [0.2, 0.6, 0.2, 0.0], [0.0, 0.2, 0.6, 0.2]])
        ch = ClassicalChannel(Alphabet.numbered(3), Alphabet.numbered(4), matrix)
        searched = []

        def counted(masks):
            searched.append(len(masks))
            return _exact_coloring(masks)

        monkeypatch.setattr(asymptotic, "_exact_coloring", counted)
        monkeypatch.setattr(partition, "_exact_coloring", counted)
        rows = delta_estimate(ch, 0.55, 2).results
        assert searched == [3]
        assert [(r.block_count, r.method, r.proved) for r in rows] == [
            (2, "exact", True), (5, "exact", True)]
        searched.clear()
        assert delta_estimate(ch, 0.55, 2, "exact").results == rows
        assert searched == [3, 9]  # the explicit solver makes no letter check

    def test_table_and_json_carry_proved(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text('{"type": "erasure", "r": 2, "eta": 0.9}')
        argv = ["asymptotic", "--channel", str(path), "--epsilon", "0.2", "--k-max", "13"]
        assert cli.main([*argv, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [(r["blocks"], r["method"], r["proved"]) for r in data[-2:]] == [
            (2048, "letter_product", True), (4096, "letter_product", True)]
        assert cli.main([*argv, "--solver", "greedy", "--format", "json"]) == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["k", "gamma", "method", "blocks", "lower", "proved"]
        assert lines[14].split()[2:] == ["letter_product", "4096", "4096", "True"]


def graph_channel(n, edges, rng=None):
    """A channel on ``n`` letters whose letter fidelities are ``a_i * a_j``
    on the pairs in ``edges`` and 0 on every other pair: letter ``i`` puts
    mass ``a_i`` on one output per edge it lies on and the rest on an output
    of its own.  ``a_i`` is ``1 / (d + 1)`` for the largest degree ``d``,
    times a factor in [0.6, 1] drawn from ``rng`` when one is given, so
    every joined pair lies above the largest letter value squared."""
    degree = max([sum(i in e for e in edges) for i in range(n)])
    a = np.full(n, 1.0 / (degree + 1))
    if rng is not None:
        a *= rng.uniform(0.6, 1.0, n)
    matrix = np.zeros((n, len(edges) + n))
    for col, (i, j) in enumerate(edges):
        matrix[i, col], matrix[j, col] = a[i], a[j]
    matrix[np.arange(n), len(edges) + np.arange(n)] = 1.0 - matrix.sum(axis=1)
    return ClassicalChannel(Alphabet.numbered(n), Alphabet.numbered(matrix.shape[1]), matrix)


@st.composite
def cartesian_instances(draw):
    """A channel on 2 to 5 letters and an epsilon at which two differing
    letters never join: ``fl(M * M) < 1 - eps`` for the largest
    off-diagonal letter value ``M``.  The channel is a drawn letter graph
    (:func:`graph_channel`) or a random channel; ``1 - eps`` is an
    off-diagonal letter value above ``M * M``, ``M * M`` itself or 0.5, or
    one float either side of it."""
    n = draw(st.integers(2, 5), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if draw(st.booleans(), label="drawn graph"):
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
        ch = graph_channel(n, sorted(edges), rng)
    else:
        ch = random_channel(rng, n, draw(st.integers(2, 4), label="outputs"))
    fid = ch.fidelity_matrix
    values = sorted({float(v) for v in fid[~np.eye(n, dtype=bool)]})
    top = values[-1]
    t = draw(st.sampled_from([v for v in values if v > top * top] + [top * top, 0.5]), label="t")
    t = draw(st.sampled_from([float(np.nextafter(t, 0.0)), t, float(np.nextafter(t, 2.0))]),
             label="ulp")
    eps = min(max(1.0 - t, 0.0), 1.0)
    assume(top * top < 1.0 - eps)
    return ch, eps


class TestCartesianPowerRows:
    """When two differing letters never join (``fl(M * M) < 1 - eps``), the
    length-``k`` graph is the Cartesian power of the letter graph ``G_1``:
    a row needs at least ``ceil(n**k / omega)`` blocks, and it is exactly
    that, proved, when the minimum letter cover is cliques of size
    ``omega`` with at most one singleton.  Past the graph cap any other
    row is the prefix grouping times that letter cover."""

    @staticmethod
    def assert_cartesian_rows(ch, eps, k_max, cap):
        """Checks every auto row to ``k_max`` with the exact cap at ``cap``
        and returns each row's method."""
        n = ch.num_inputs
        fid = ch.fidelity_matrix
        theta, omega, letter_cover, certified = cartesian_oracle(fid, eps)
        letters = graph_from_fidelity_matrix(fid, eps).adjacency
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REVCOMP_EXACT_CAP", str(cap))
            rows = delta_estimate(ch, eps, k_max).results
        assert (rows[0].block_count, rows[0].method, rows[0].proved) == (theta, "exact", True)
        power = letters
        for row in rows[1:]:
            k = row.k
            clique = -(-n ** k // omega)
            power = (np.kron(np.eye(n, dtype=bool), power)
                     | np.kron(letters, np.eye(n ** (k - 1), dtype=bool)))
            graph = None
            if n ** k <= 512:  # the thresholded products are the Cartesian power, bit for bit
                graph = graph_from_fidelity_matrix(product_fidelity_matrix(ch, k), eps)
                assert np.array_equal(graph.adjacency, power)
            assert clique <= row.lower <= row.block_count
            if certified:
                assert (row.block_count, row.proved) == (clique, True)
                assert row.method == ("exact" if n ** k <= cap else "letter_product")
                if graph is not None:
                    cover = Partition(tuple(cartesian_power_cover(letter_cover, n, k)))
                    assert cover.num_blocks == clique
                    assert partition_is_clique_cover(cover, graph)
            elif n ** k > DEFAULT_GRAPH_CAP:
                assert (row.method, row.block_count) == ("closed_form", n ** (k - 1) * theta)
            else:
                assert row.method == ("exact" if n ** k <= cap else "greedy_lower_bound")
            if n ** k <= 16:
                best = min_clique_cover_brute(power)
                assert row.lower <= best <= row.block_count
                if row.proved:
                    assert row.block_count == best
        return [row.method for row in rows]

    @settings(max_examples=150, deadline=None)
    @given(cartesian_instances())
    def test_rows_equal_exact_covers_of_the_product(self, instance):
        ch, eps = instance
        n = ch.num_inputs
        k_max = max(k for k in range(1, 7) if n ** k <= 256)
        for cap in (n, default_exact_cap()):  # every row past k = 1 past the cap, then the default
            self.assert_cartesian_rows(ch, eps, k_max, cap)
        event("certified" if cartesian_oracle(ch.fidelity_matrix, eps)[3] else "bracketed")

    @staticmethod
    def graph_case(n, edges):
        """The :func:`graph_channel` of ``edges`` and an epsilon that joins
        exactly those pairs."""
        ch = graph_channel(n, edges)
        t = min(float(ch.fidelity_matrix[i, j]) for i, j in edges)
        return ch, 1.0 - 0.999 * t

    def test_triangles_and_one_singleton_are_proved(self):
        # omega = 3: one triangle and a singleton, and two triangles and a
        # singleton joined to one of them, are ceil(n**k / 3) blocks at
        # every k, past the graph cap (7**4 = 2401) too.
        for n, edges, k_max in ((4, [(0, 1), (0, 2), (1, 2)], 6),
                                (7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (3, 6)], 5)):
            ch, eps = self.graph_case(n, edges)
            assert cartesian_oracle(ch.fidelity_matrix, eps)[1:4:2] == (3, True)
            methods = self.assert_cartesian_rows(ch, eps, k_max, default_exact_cap())
            assert set(methods[1:]) <= {"exact", "letter_product"}
            assert [r.block_count for r in delta_estimate(ch, eps, k_max).results] == [
                -(-n ** k // 3) for k in range(1, k_max + 1)]

    def test_triangle_and_two_edges_builds_the_graph(self):
        # theta = 3 = ceil(7 / 3), but no cover is triangles and one
        # singleton: rows 2 and 3 are first fit, row 4 the bracket
        # [ceil(7**4 / 3), 7**3 * 3] = [801, 1029].
        ch, eps = self.graph_case(7, [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)])
        methods = self.assert_cartesian_rows(ch, eps, 4, default_exact_cap())
        assert methods == ["exact", "greedy_lower_bound", "greedy_lower_bound", "closed_form"]
        row = gamma_k(ch, eps, 4)
        assert (row.lower, row.block_count, row.proved) == (801, 1029, False)

    def test_star_builds_the_graph_then_takes_the_bracket(self, monkeypatch):
        # K_{1,4}: theta = 4, omega = 2, neither a perfect nor a near-perfect
        # matching.  Rows 2-4 build and cover their graphs; rows 5 and 6,
        # past the graph cap, are the prefix grouping times the letter
        # cover, with no closed-form partition.
        ch, eps = self.graph_case(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        methods = self.assert_cartesian_rows(ch, eps, 6, default_exact_cap())
        assert methods == ["exact"] + ["greedy_lower_bound"] * 3 + ["closed_form"] * 2

        def refuse(*args):
            raise AssertionError("a bracketed row ran the closed form")

        monkeypatch.setattr(asymptotic, "_closed_form_partition", refuse)
        rows = [gamma_k(ch, eps, k) for k in (5, 6)]
        assert [(r.lower, r.block_count) for r in rows] == [(1563, 2500), (7813, 12500)]
