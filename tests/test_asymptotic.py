import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcomp import (
    ExactSolverCapError,
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
from revcomp import asymptotic, channels, cli
from revcomp.asymptotic import (
    DEFAULT_GRAPH_CAP,
    PRODUCT_TILE_ENTRIES,
    _cutoff,
    _next_power,
    _observed_trend,
    _row_masks,
)

from oracles import kron_chain, min_clique_cover_brute, product_partition, random_channel


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
        ((1, 1), 5), ((2, 2), 3), ((1, 3), 2),  # loop over the entries of fid
        ((3, 3), 1), ((3, 4), 2), ((2, 2), 2), ((1, 1), 1),  # loop over the letter pairs
    ])
    def test_kron_step_loops_give_the_broadcast_bits(self, fid_shape, n):
        rng = np.random.default_rng(n * 10 + fid_shape[1])
        fid = rng.random(fid_shape)
        base = reverse_fidelity_matrix(random_channel(rng, n, 3))
        out = _next_power(fid, base)
        assert out.shape == (fid_shape[0] * n, fid_shape[1] * n)
        assert out.tobytes() == (fid[:, None, :, None] * base[None, :, None, :]).tobytes()

    def test_letter_matrix_is_computed_once_per_channel(self, monkeypatch):
        calls = []
        original = channels.reverse_fidelity_matrix
        monkeypatch.setattr(channels, "reverse_fidelity_matrix",
                            lambda ch: calls.append(ch) or original(ch))
        ch = make_erasure(2, 0.9)
        sweep = delta_estimate(ch, 0.2, 12)
        assert {r.method for r in sweep.results} == {"exact", "greedy_lower_bound", "closed_form"}
        assert calls == [ch]
        assert ch.fidelity_matrix.tobytes() == original(ch).tobytes()
        assert not ch.fidelity_matrix.flags.writeable
        delta_estimate(make_erasure(2, 0.9), 0.2, 3)
        assert len(calls) == 2


def adjacency_masks(adj):
    """Bitmasks of a boolean adjacency with self-loops removed, each row
    read as a binary numeral whose bit ``j`` is column ``j``."""
    adj = adj.copy()
    np.fill_diagonal(adj, False)
    digits = np.where(adj[:, ::-1], ord("1"), ord("0")).astype(np.uint8)
    return [int(row.tobytes(), 2) for row in digits]


def grouped_erasure(n, rng):
    """A generalized erasure channel on ``n`` letters in two groups (one
    when ``n == 1``): letters of different groups have fidelity exactly 0."""
    labels = [str(i) for i in range(n)]
    half = (n + 1) // 2
    blocks = [labels[:half], labels[half:]] if n > 1 else [labels]
    return make_generalized_erasure(blocks, [float(e) for e in rng.uniform(0.6, 0.95, len(blocks))])


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
    def test_tiled_graph_equals_the_thresholded_product(self, n):
        # Every k from 1 to the graph cap.  At n = 3, k = 6 (729 sequences)
        # a tile is 59 rows of the 243-row 5-fold matrix, so the last of
        # five tiles is partial.  The grouped erasure channel's zero
        # cross-group letter fidelities get the cutoff inf.
        rng = np.random.default_rng(40 + n)
        ch = random_channel(rng, n, 3)
        erasure = grouped_erasure(n, rng)
        if n > 1:
            assert np.any(erasure.fidelity_matrix == 0.0)
        partial_tiles = []
        k = 1
        while n ** k <= DEFAULT_GRAPH_CAP and k <= 12:
            rows, m = max(1, PRODUCT_TILE_ENTRIES // (n * n ** k)), n ** (k - 1)
            if rows < m and m % rows:
                partial_tiles.append(k)
            for channel in (ch, erasure):
                base = channel.fidelity_matrix
                prev = product_fidelity_matrix(channel, k - 1) if k > 1 else np.ones((1, 1))
                fid = product_fidelity_matrix(channel, k)
                # An epsilon whose threshold equals an entry exactly: that pair
                # ties with 1 - eps and must stay adjacent.
                exact = np.flatnonzero(1.0 - (1.0 - fid) == fid)
                pair = np.unravel_index(exact[np.argmin(fid.flat[exact])], fid.shape)
                tie = 1.0 - float(fid[pair])
                ties, values = tie_epsilons(fid, base)
                # The unit diagonal of prev gives every letter value itself as
                # an entry, and 1 - (1 - v) == v for v >= 0.5.
                assert set(values) >= {float(v) for v in base.flat if v >= 0.5}
                for eps in (0.05, 0.3, 0.7, tie, 0.0, 1.0, *ties):
                    got = _row_masks(prev, base, eps)
                    assert got == adjacency_masks(fid >= 1.0 - eps)
                i, j = pair
                if i != j:
                    assert _row_masks(prev, base, tie)[i] >> int(j) & 1
            k += 1
        if n == 3:
            assert 6 in partial_tiles

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.one_of(st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 1.0]),
                    st.floats(0.0, 1.0)),
        t=st.one_of(st.sampled_from([0.0, 2.0 ** -53, 1.0]),
                    st.floats(2.0 ** -53, 1.0)),
    )
    def test_cutoff_is_the_smallest_float_that_reaches_the_threshold(self, v, t):
        steps = []
        nextafter = math.nextafter
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(math, "nextafter", lambda x, y: steps.append(x) or nextafter(x, y))
            c = _cutoff(v, t)
        assert len(steps) <= 8
        assert (c == math.inf) == (v < t and t > 0.0)
        if c < math.inf:
            assert 0.0 <= c <= 1.0
            assert c * v >= t
            if c > 0.0:
                assert math.nextafter(c, 0.0) * v < t
        else:
            # No entry of a product matrix, all at most 1, reaches t.
            assert 1.0 * v < t
        if t == 0.0:
            assert c == 0.0

    def test_greedy_row_at_the_cap_never_holds_the_product(self):
        # The 2048-sequence float product alone is 32 MiB.
        tracemalloc.start()
        try:
            result = gamma_k(make_erasure(2, 0.9), 0.2, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.method == "greedy_lower_bound"
        assert peak < 20 << 20

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count_only_rows_equal_covers_of_the_full_product(self, n):
        # n = 3, k = 6 has a partial last tile (see above).
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

    def test_sweep_rows_carry_the_chain_and_build_no_graph(self, monkeypatch):
        # All eleven rows of this sweep are materialized (2**11 = 2048).
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built in a sweep row")

        def refuse_chain(*args):
            raise AssertionError("a sweep row rebuilt the chain from k = 1")

        steps = []
        next_power = asymptotic._next_power
        monkeypatch.setattr(IndistinguishabilityGraph, "__post_init__", refuse)
        monkeypatch.setattr(Partition, "__post_init__", refuse)
        monkeypatch.setattr(asymptotic, "product_fidelity_matrix", refuse_chain)
        monkeypatch.setattr(asymptotic, "_next_power",
                            lambda fid, base: steps.append(fid.shape[0]) or next_power(fid, base))
        sweep = delta_estimate(make_erasure(2, 0.9), 0.2, 11)
        assert [r.block_count for r in sweep.results] == [2 ** (k - 1) for k in range(1, 12)]
        assert steps == [2 ** j for j in range(10)]

    def test_sweep_past_the_cap_never_holds_the_product(self):
        # The chain stops at the 1024-row input of the last materialized row.
        tracemalloc.start()
        try:
            sweep = delta_estimate(make_erasure(2, 0.9), 0.2, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.method for r in sweep.results][-3:] == [
            "greedy_lower_bound", "closed_form", "closed_form"]
        assert peak < 20 << 20


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
        # k = 2 is exact, k = 5 greedy and k = 8 closed form.
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
        # 27 sequences exceed the exact cap, 2187 exceed the graph cap
        assert gamma_k(ch, 0.0, 3).method == "greedy_lower_bound"
        assert gamma_k(ch, 0.0, 3).gamma == 1.0
        assert gamma_k(ch, 0.0, 7).method == "closed_form"
        assert gamma_k(ch, 0.0, 7).gamma == 1.0

    def test_erasure_sweep_frozen_values(self):
        sweep = delta_estimate(make_erasure(2, 0.9), 0.2, 5)
        gammas = [r.gamma for r in sweep.results]
        assert gammas == [1.0, 2 / 3, 4 / 7, 8 / 15, 16 / 31]
        assert [r.block_count for r in sweep.results] == [1, 2, 4, 8, 16]
        assert [r.method for r in sweep.results] == ["exact"] * 4 + ["greedy_lower_bound"]
        assert sweep.trend == "nonincreasing"

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
            {"k": 1, "gamma": 1.0, "method": "exact", "blocks": 1},
            {"k": 2, "gamma": 2 / 3, "method": "exact", "blocks": 2},
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
