import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revcomp import (
    ExactSolverCapError,
    IndistinguishabilityGraph,
    Partition,
    ReportMismatchError,
    ValidationError,
    compress,
    compressibility,
    compose,
    decompression_channel,
    default_exact_cap,
    fidelity,
    graph_from_fidelity_matrix,
    make_erasure,
    make_generalized_erasure,
    make_identity,
    partition_is_clique_cover,
    reverse_fidelity_matrix,
    solve_exact,
    solve_greedy,
)
from revcomp import io
from revcomp.channels import Distribution
from revcomp.partition import _cover, _max_clique_size

from oracles import (
    adjacency_bitmasks,
    first_fit_label_order,
    min_clique_cover_brute,
    random_adjacency,
    random_channel,
)


def graph_from_edges(n, edges):
    adj = np.eye(n, dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return IndistinguishabilityGraph(adj)


class TestGraph:
    def test_adjacency_must_be_square_symmetric_reflexive(self):
        with pytest.raises(ValidationError):
            IndistinguishabilityGraph(np.ones((2, 3), dtype=bool))
        bad = np.eye(3, dtype=bool)
        bad[0, 1] = True
        with pytest.raises(ValidationError):
            IndistinguishabilityGraph(bad)
        with pytest.raises(ValidationError):
            IndistinguishabilityGraph(np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("entries", [
        [[1.0, 0.3], [0.3, 1.0]],
        [[2, 0], [0, 5]],
        [[1.0, float("nan")], [float("nan"), 1.0]],
    ])
    def test_entries_other_than_zero_or_one_rejected(self, entries):
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            IndistinguishabilityGraph(entries)

    def test_zero_one_numbers_accepted(self):
        g = IndistinguishabilityGraph([[1, 0], [0, 1]])
        assert g.adjacency.dtype == bool and not g.are_adjacent(0, 1)
        assert IndistinguishabilityGraph(np.ones((3, 3))).are_adjacent(0, 2)

    @pytest.mark.parametrize("n", [257, 513])
    @pytest.mark.parametrize("where", [
        (255, 256), (256, 255), (254, 255), (0, 256), (256, 0),
        (0, -1), (-1, 0), (-2, -1), (-1, -2), (-1, 1), (1, -1),
    ])
    def test_asymmetry_on_tile_edges_rejected(self, n, where):
        adj = random_adjacency(np.random.default_rng(n), n, 0.5)
        IndistinguishabilityGraph(adj)
        i, j = (w % n for w in where)
        adj[i, j] = not adj[i, j]
        with pytest.raises(ValidationError, match="symmetric"):
            IndistinguishabilityGraph(adj)

    def test_threshold_rule(self):
        rng = np.random.default_rng(0)
        fid = rng.random((5, 5))
        fid = (fid + fid.T) / 2
        np.fill_diagonal(fid, 1.0)
        eps = 0.4
        g = graph_from_fidelity_matrix(fid, eps)
        for i in range(5):
            for j in range(5):
                assert g.are_adjacent(i, j) == (fid[i, j] >= 1.0 - eps)

    def test_epsilon_range(self):
        fid = np.eye(2)
        graph_from_fidelity_matrix(fid, 0.0)
        graph_from_fidelity_matrix(fid, 1.0)
        with pytest.raises(ValidationError):
            graph_from_fidelity_matrix(fid, -0.01)
        with pytest.raises(ValidationError):
            graph_from_fidelity_matrix(fid, 1.01)

    def test_erasure_channel_graph(self):
        # pairwise fidelity 0.81 >= 1 - 0.2, so everything is adjacent
        fid = reverse_fidelity_matrix(make_erasure(3, 0.9))
        g = graph_from_fidelity_matrix(fid, 0.2)
        assert all(g.are_adjacent(i, j) for i in range(3) for j in range(3))
        g = graph_from_fidelity_matrix(fid, 0.1)
        assert not g.are_adjacent(0, 1)
        assert g.are_adjacent(1, 1)


class TestPartition:
    def test_canonical_order(self):
        p = Partition(((3, 1), (0, 2)))
        assert p.blocks == ((0, 2), (1, 3))
        assert p.representatives() == (0, 1)

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(ValidationError):
            Partition(((0, 1), (1, 2)))
        with pytest.raises(ValidationError):
            Partition(((0,), ()))

    def test_rejects_repeated_member(self):
        with pytest.raises(ValidationError, match="^partition block repeats element 0$"):
            Partition(((0, 0), (1,)))
        with pytest.raises(ValidationError, match="^partition block repeats element 3$"):
            Partition(((0, 1), (3, 2, 3)))

    @pytest.mark.parametrize("blocks, message", [
        (((0.9, 1.2), (2,)), "partition block 0 member must be an integer, got 0.9"),
        (((0, 1), (True,)), "partition block 1 member must be an integer, got True"),
        (((0,), (1, "2")), "partition block 1 member must be an integer, got '2'"),
        (((0,), (np.bool_(True),)), "partition block 1 member must be an integer"),
        (((np.float64(1.0), 0),), "partition block 0 member must be an integer"),
    ])
    def test_rejects_non_integer_members(self, blocks, message):
        # Neither truncated nor counted as 0 / 1: ((0.9, 1.2), (2,)) once gave ((0, 1), (2,)).
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            Partition(blocks)

    def test_numpy_integer_members_are_plain_ints(self):
        p = Partition(((np.int64(3), np.intp(1)), (np.int32(0), 2)))
        assert p.blocks == ((0, 2), (1, 3))
        assert {type(i) for b in p.blocks for i in b} == {int}

    def test_covers(self):
        assert Partition(((0, 1), (2,))).covers(3)
        assert not Partition(((0, 1),)).covers(3)
        assert not Partition(((0, 3),)).covers(2)

    @pytest.mark.parametrize("blocks, n, defect", [
        (((0, 1), (2,)), 3, None),
        ((), 0, None),
        (((0, 1), (5,)), 3, "member 5 is outside range(3)"),
        (((0, 4), (1, 3)), 3, "member 4 is outside range(3)"),
        (((0, 1),), 3, "element 2 of range(3) is in no block"),
        (((1,), (3,)), 4, "element 0 of range(4) is in no block"),
        (((0,), (2,)), 2, "member 2 is outside range(2)"),
        ((), 2, "element 0 of range(2) is in no block"),
    ])
    def test_cover_defect_names_the_first_stray_or_missing_element(self, blocks, n, defect):
        part = Partition(blocks)
        assert part.cover_defect(n) == defect
        assert part.covers(n) == (defect is None)

    def test_block_index(self):
        p = Partition(((0, 2), (1,)))
        assert p.block_index() == {0: 0, 2: 0, 1: 1}

    def test_clique_cover_validator(self):
        g = graph_from_edges(3, [(0, 1)])
        assert partition_is_clique_cover(Partition(((0, 1), (2,))), g)
        assert not partition_is_clique_cover(Partition(((0, 2), (1,))), g)
        assert not partition_is_clique_cover(Partition(((0, 1),)), g)


class TestSolvers:
    def test_known_graphs(self):
        path3 = graph_from_edges(3, [(0, 1), (1, 2)])
        assert solve_exact(path3).num_blocks == 2
        cycle5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert solve_exact(cycle5).num_blocks == 3
        complete = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i)])
        assert solve_exact(complete).blocks == ((0, 1, 2, 3),)
        empty = graph_from_edges(4, [])
        assert solve_exact(empty).num_blocks == 4

    def test_single_vertex(self):
        g = graph_from_edges(1, [])
        assert solve_exact(g).blocks == ((0,),)
        assert solve_greedy(g).blocks == ((0,),)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for trial in range(250):  # the last 100 graphs have 9 vertices
            n = int(rng.integers(1, 9)) if trial < 150 else 9
            adj = random_adjacency(rng, n, float(rng.uniform(0.1, 0.9)))
            g = IndistinguishabilityGraph(adj)
            got = solve_exact(g)
            assert partition_is_clique_cover(got, g)
            assert got.num_blocks == min_clique_cover_brute(adj)

    def test_greedy_valid_and_never_better(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            adj = random_adjacency(rng, n, float(rng.uniform(0.2, 0.8)))
            g = IndistinguishabilityGraph(adj)
            exact = solve_exact(g)
            greedy = solve_greedy(g)
            assert partition_is_clique_cover(greedy, g)
            assert greedy.num_blocks >= exact.num_blocks

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([1, 63, 64, 65, 256, 257]), st.integers(1, 600)),
           p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, p=0.5, seed=0)
    @example(n=63, p=0.0, seed=1)
    @example(n=64, p=1.0, seed=2)
    @example(n=65, p=0.9, seed=3)
    @example(n=256, p=0.5, seed=4)
    @example(n=257, p=0.97, seed=5)
    def test_greedy_is_first_fit_in_label_order(self, n, p, seed):
        adj = random_adjacency(np.random.default_rng(seed), n, p)
        assert solve_greedy(IndistinguishabilityGraph(adj)).blocks == first_fit_label_order(adj)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_cover_ignores_self_bits(self, solver, data, p, seed):
        n = data.draw(st.integers(1, 16 if solver == "exact" else 130), label="n")
        adj = random_adjacency(np.random.default_rng(seed), n, p)
        bare = adjacency_bitmasks(adj)
        looped = adjacency_bitmasks(adj, self_loops=True)
        assert all(m >> v & 1 for v, m in enumerate(looped))
        assert _cover(looped, solver) == _cover(bare, solver)

    def test_max_clique_size_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(15)
        for trial in range(200):
            n = int(rng.integers(1, 41))
            adj = random_adjacency(rng, n, float(rng.uniform(0.05, 0.95)))
            graph = nx.from_numpy_array(adj & ~np.eye(n, dtype=bool))
            want = max(len(c) for c in nx.find_cliques(graph))
            assert _max_clique_size(adjacency_bitmasks(adj), n) == want

    def test_greedy_can_be_suboptimal(self):
        # first-fit merges 0 with 1 and then strands 2 and 3
        g = graph_from_edges(4, [(0, 1), (0, 2), (1, 3)])
        assert solve_exact(g).num_blocks == 2
        assert solve_greedy(g).num_blocks == 3

    def test_exact_deterministic(self):
        rng = np.random.default_rng(14)
        adj = random_adjacency(rng, 8, 0.5)
        g1 = IndistinguishabilityGraph(adj)
        g2 = IndistinguishabilityGraph(adj.copy())
        assert solve_exact(g1).blocks == solve_exact(g2).blocks

    def test_cap_enforced(self):
        g = graph_from_edges(21, [])
        with pytest.raises(ExactSolverCapError):
            solve_exact(g)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("REVCOMP_EXACT_CAP", "25")
        assert default_exact_cap() == 25
        g = graph_from_edges(22, [])
        assert solve_exact(g).num_blocks == 22
        monkeypatch.setenv("REVCOMP_EXACT_CAP", "zero")
        with pytest.raises(ValidationError):
            default_exact_cap()


class TestCompressibility:
    def test_edge_cases(self):
        assert compressibility(1, 1) == 1.0
        assert compressibility(5, 5) == 0.0
        assert compressibility(5, 1) == 1.0
        assert compressibility(4, 2) == pytest.approx(2 / 3, abs=0)

    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            compressibility(0, 1)
        with pytest.raises(ValidationError):
            compressibility(3, 4)
        with pytest.raises(ValidationError):
            compressibility(3, 0)


class TestCompress:
    def test_full_merge_erasure(self):
        report = compress(make_erasure(2, 0.9), 0.2)
        assert report.solver == "exact"
        assert report.optimal
        assert report.partition.blocks == ((0, 1),)
        assert report.compressibility == 1.0
        assert report.certificates[0] == pytest.approx(0.81, abs=1e-12)

    def test_identity_never_merges(self):
        report = compress(make_identity(5), 0.9)
        assert report.partition.num_blocks == 5
        assert report.compressibility == 0.0
        assert report.certificates == (1.0,) * 5

    def test_generalized_erasure_two_blocks(self):
        ch = make_generalized_erasure((("1", "2"), ("3", "4")), (0.9, 0.95))
        report = compress(ch, 0.2)
        assert report.to_json_dict()["blocks"] == [["1", "2"], ["3", "4"]]
        assert report.to_json_dict()["representatives"] == ["1", "3"]
        assert report.compressibility == 2 / 3
        assert report.certificates == (
            pytest.approx(0.81, abs=1e-12),
            pytest.approx(0.9025, abs=1e-12),
        )

    def test_epsilon_zero_merges_only_equal_rows(self):
        ch = make_erasure(2, 0.9)
        assert compress(ch, 0.0).partition.num_blocks == 2
        const = make_identity(3)
        fid = reverse_fidelity_matrix(const)
        assert compress(const, 0.0).partition.num_blocks == 3
        assert np.all(np.diag(fid) == 1.0)

    def test_constant_channel_all_epsilon(self):
        from revcomp import make_constant

        for eps in (0.0, 0.3, 1.0):
            report = compress(make_constant(4), eps)
            assert report.partition.blocks == ((0, 1, 2, 3),)
            assert report.compressibility == 1.0

    def test_blocks_grow_with_epsilon(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            ch = random_channel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
            epsilons = sorted(rng.uniform(0.0, 1.0, size=3))
            counts = [compress(ch, e).partition.num_blocks for e in epsilons]
            assert counts == sorted(counts, reverse=True)

    def test_certificates_clear_threshold(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            ch = random_channel(rng, 5, 3)
            eps = float(rng.uniform(0.05, 0.95))
            report = compress(ch, eps)
            assert all(c >= 1.0 - eps for c in report.certificates)

    def test_auto_falls_back_to_greedy(self):
        report = compress(make_identity(25), 0.5)
        assert report.solver == "greedy"
        assert not report.optimal
        assert report.partition.num_blocks == 25

    def test_exact_solver_cap_error(self):
        with pytest.raises(ExactSolverCapError):
            compress(make_identity(25), 0.5, solver="exact")

    def test_unknown_solver(self):
        with pytest.raises(ValidationError):
            compress(make_identity(2), 0.5, solver="fast")

    @pytest.mark.parametrize("eps", [-0.01, 1.01, float("nan")])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValidationError, match=r"epsilon must lie in \[0, 1\]"):
            compress(make_identity(2), eps)

    def test_report_json_round_trip(self):
        report = compress(make_erasure(3, 0.5), 0.8)
        data = json.loads(io.dump_json(report.to_json_dict()))
        assert list(data.keys()) == [
            "epsilon",
            "solver",
            "optimal",
            "blocks",
            "representatives",
            "compressibility",
            "certificates",
        ]
        assert data["epsilon"] == 0.8
        assert data["blocks"] == [["1", "2", "3"]]

    def test_byte_identical_reports(self):
        a = io.dump_json(compress(make_erasure(4, 0.7), 0.6).to_json_dict())
        b = io.dump_json(compress(make_erasure(4, 0.7), 0.6).to_json_dict())
        assert a == b


class TestDecompression:
    def test_round_trip_stays_within_epsilon(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ch = random_channel(rng, 6, 4)
            eps = float(rng.uniform(0.1, 0.9))
            report = compress(ch, eps)
            dec = decompression_channel(report, ch)
            effective = compose(dec, ch)
            index = report.partition.block_index()
            for i, x in enumerate(ch.input.labels):
                row = Distribution(ch.output, ch.matrix[i])
                eff = Distribution(ch.output, effective.matrix[index[i]])
                assert fidelity(row, eff) >= 1.0 - eps - 1e-12

    def test_decompression_structure(self):
        ch = make_generalized_erasure((("1", "2"), ("3", "4")), (0.9, 0.95))
        dec = decompression_channel(compress(ch, 0.2), ch)
        assert dec.input.labels == ("z1", "z2")
        assert dec.output.labels == ch.input.labels
        assert np.array_equal(dec.matrix, np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=float))

    def test_mismatched_channel_rejected(self):
        report = compress(make_erasure(3, 0.5), 0.8)
        with pytest.raises(ReportMismatchError):
            decompression_channel(report, make_identity(4))

    @pytest.mark.parametrize("blocks, message", [
        (((0,), (1,), (5,)), "report partition member 5 is outside range(3)"),
        (((0, 1),), "report partition element 2 of range(3) is in no block"),
    ])
    def test_partition_off_the_inputs_is_named(self, blocks, message):
        ch = make_erasure(3, 0.5)
        part = Partition(blocks)
        report = dataclasses.replace(compress(ch, 0.0), partition=part,
                                     representatives=part.representatives())
        with pytest.raises(ReportMismatchError, match="^" + re.escape(message) + "$"):
            decompression_channel(report, ch)


class TestArgumentChecks:
    """Each integer argument of the partition API refuses a float, a bool and
    an int below its range by name and takes a numpy int; each epsilon
    refuses NaN; and each malformed input is refused by its own message."""

    @pytest.mark.parametrize("call, valid, name, below, message", [
        (lambda v: compressibility(v, 2), 4, "num_inputs", 0, "num_inputs must be >= 1, got 0"),
        (lambda v: compressibility(4, v), 2, "num_blocks", 0, "block count 0 not in [1, 4]"),
        (lambda v: Partition.single_block(v).blocks, 3, "n", 0, "n must be >= 1, got 0"),
        (lambda v: IndistinguishabilityGraph(np.eye(3, dtype=bool)).are_adjacent(v, 0), 2,
         "vertex", -1, "vertex -1 not in [0, 3)"),
        (lambda v: IndistinguishabilityGraph(np.eye(3, dtype=bool)).are_adjacent(0, v), 2,
         "vertex", 3, "vertex 3 not in [0, 3)"),
    ], ids=["num-inputs", "num-blocks", "single-block", "adjacent-i", "adjacent-j"])
    def test_integer_argument(self, refuses_bad_integers, call, valid, name, below, message):
        refuses_bad_integers(call, valid, name, below, message)

    def test_cover_size_is_an_integer(self):
        part = Partition(((0, 1), (2,)))
        for bad in (3.5, 3.0, True):
            with pytest.raises(ValidationError, match=f"^n must be an integer, got {bad!r}$"):
                part.covers(bad)
        assert part.covers(np.int64(3)) and part.cover_defect(2) == "member 2 is outside range(2)"

    @pytest.mark.parametrize("call", [
        lambda v: graph_from_fidelity_matrix(np.eye(2), v),
        lambda v: compress(make_identity(2), v),
    ], ids=["graph", "compress"])
    def test_epsilon(self, refuses_outside_unit_interval, call):
        refuses_outside_unit_interval(call, "epsilon")

    def test_exact_cap_below_one_is_refused(self, monkeypatch):
        monkeypatch.setenv("REVCOMP_EXACT_CAP", "0")
        with pytest.raises(ValidationError, match="^REVCOMP_EXACT_CAP must be >= 1, got 0$"):
            default_exact_cap()

    def test_graph_without_vertices_is_refused(self):
        with pytest.raises(ValidationError, match="^graph must have at least one vertex$"):
            IndistinguishabilityGraph(np.zeros((0, 0), dtype=bool))

    def test_negative_member_is_refused(self):
        with pytest.raises(ValidationError, match="^partition members must be >= 0, got -1$"):
            Partition(((0, 1), (-1, 2)))

    def test_report_with_other_representatives_is_refused(self):
        ch = make_erasure(3, 0.5)
        report = compress(ch, 0.8)
        assert report.partition.blocks == ((0, 1, 2),)
        wrong = dataclasses.replace(report, representatives=(2,))
        with pytest.raises(ReportMismatchError,
                           match="^report representatives do not match its partition$"):
            decompression_channel(wrong, ch)
