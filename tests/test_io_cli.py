import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcomp import (
    ClassicalChannel,
    IndistinguishabilityGraph,
    KrausChannel,
    ValidationError,
    make_erasure,
    make_generalized_erasure,
    make_identity,
    make_quantum_erasure,
    verify_erasure_theorem,
)
from revcomp import asymptotic, cli, io, quantum
from revcomp.cli import _build_parser, main


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# Strings with raw newlines, the row boundary "],\n  [" the emitter rewrites,
# brackets and non-ASCII text, next to any text.
TRICKY_TEXT = st.sampled_from(["", "\n", "],\n  [", "],\n    [", "[", "]", "],", "α β", "\u2028", '"', "\\"])
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200)
                | st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0)
                | st.text() | TRICKY_TEXT)
JSON_KEYS = (st.text() | TRICKY_TEXT | st.integers() | st.floats()
             | st.booleans() | st.none())


def json_trees():
    """JSON-encodable trees: lists, tuples and dicts (keys of every kind
    ``json.dumps`` converts) of scalars, empty and nested empty containers,
    and lists of nonempty scalar rows."""
    rows = st.lists(st.lists(JSON_SCALARS, min_size=1, max_size=4)
                    | st.tuples(JSON_SCALARS, JSON_SCALARS), min_size=1, max_size=4)

    def nest(children):
        return (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                | st.dictionaries(JSON_KEYS, children, max_size=4)
                | st.dictionaries(st.text(), children, max_size=4) | rows)

    return st.recursive(JSON_SCALARS | rows | st.just([[]]) | st.just({"a": [[], {}]}),
                        nest, max_leaves=30)


class TestLoadDump:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="nope.json"):
            io.load_json(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="bad.json"):
            io.load_json(path)

    def test_dump_json_layout(self):
        text = io.dump_json({"a": 1, "sym": "α"})
        assert text.endswith("\n")
        assert '"sym": "α"' in text
        assert io.dump_json({"a": 1}) == io.dump_json({"a": 1})

    @settings(max_examples=200, deadline=None)
    @given(json_trees())
    def test_dump_json_is_json_dumps_byte_for_byte(self, tree):
        assert io.dump_json(tree) == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"

    def test_dump_json_rejects_what_json_dumps_rejects(self):
        for bad in ([1, object()], {"a": [[1, object()]]}, {(1, 2): 3}, {"a": {(1,): [1]}}):
            with pytest.raises(TypeError):
                json.dumps(bad, indent=2)
            with pytest.raises(TypeError):
                io.dump_json(bad)


class TestChannelParsing:
    def test_full_matrix_round_trip(self):
        ch = make_generalized_erasure((("1", "2"), ("3",)), (0.3, 0.6))
        back = io.parse_channel_data(io.channel_to_data(ch))
        assert isinstance(back, ClassicalChannel)
        assert back.input.labels == ch.input.labels
        assert back.output.labels == ch.output.labels
        assert np.allclose(back.matrix, ch.matrix, atol=1e-15)

    def test_ragged_matrix(self):
        data = {"input_labels": ["a", "b"], "output_labels": ["u", "v"],
                "matrix": [[1.0, 0.0], [1.0]]}
        with pytest.raises(ValidationError, match="unequal length"):
            io.parse_channel_data(data)

    def test_non_numeric_matrix(self):
        data = {"input_labels": ["a"], "output_labels": ["u"], "matrix": [["x"]]}
        with pytest.raises(ValidationError, match="numbers"):
            io.parse_channel_data(data)

    def test_missing_field_is_named(self):
        with pytest.raises(ValidationError, match="output_labels"):
            io.parse_channel_data({"input_labels": ["a"], "matrix": [[1.0]]})

    def test_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            io.parse_channel_data([1, 2])

    def test_shorthand_identity(self):
        ch = io.parse_channel_data({"type": "identity", "n": 3})
        assert np.array_equal(ch.matrix, make_identity(3).matrix)

    def test_shorthand_constant(self):
        ch = io.parse_channel_data({"type": "constant", "n": 2, "masses": [0.5, 0.5],
                                    "output_labels": ["u", "v"]})
        assert ch.output.labels == ("u", "v")
        assert np.allclose(ch.matrix, 0.5, atol=1e-15)

    def test_shorthand_erasure(self):
        ch = io.parse_channel_data({"type": "erasure", "r": 2, "eta": 0.25})
        assert np.allclose(ch.matrix, make_erasure(2, 0.25).matrix, atol=1e-15)

    def test_shorthand_generalized(self):
        ch = io.parse_channel_data({
            "type": "generalized_erasure",
            "blocks": [["1", "2"], ["3", "4"]],
            "etas": [0.9, 0.95],
        })
        want = make_generalized_erasure((("1", "2"), ("3", "4")), (0.9, 0.95))
        assert np.allclose(ch.matrix, want.matrix, atol=1e-15)

    def test_unknown_shorthand(self):
        with pytest.raises(ValidationError, match="depolarizing"):
            io.parse_channel_data({"type": "depolarizing", "n": 2})

    def test_shorthand_missing_parameter(self):
        with pytest.raises(ValidationError, match="eta"):
            io.parse_channel_data({"type": "erasure", "r": 2})


class TestQuantumSerialization:
    def test_kraus_round_trip(self):
        ch = make_quantum_erasure(2, 0.5)
        back = io.parse_kraus_data(io.kraus_to_data(ch))
        assert isinstance(back, KrausChannel)
        assert back.in_dim == 2 and back.out_dim == 3
        for a, b in zip(ch.kraus, back.kraus):
            assert np.max(np.abs(a - b)) < 1e-15

    def test_kraus_bad_operator_shape(self):
        data = io.kraus_to_data(make_quantum_erasure(2, 0.5))
        data["out_dim"] = 2
        with pytest.raises(ValidationError, match="operator 0"):
            io.parse_kraus_data(data)

    @pytest.mark.parametrize("field", ["in_dim", "out_dim"])
    def test_kraus_dimension_below_one(self, field):
        data = {"in_dim": 2, "out_dim": 2, "kraus": [{"re": [[], []], "im": [[], []]}]}
        for value in (0, -1):
            data[field] = value
            with pytest.raises(ValidationError, match=rf"'{field}'.*>= 1, got {value}"):
                io.parse_kraus_data(data)

    def test_kraus_needs_operator_list(self):
        with pytest.raises(ValidationError, match="kraus"):
            io.parse_kraus_data({"in_dim": 2, "out_dim": 2, "kraus": []})

    def test_complex_matrix_shape_mismatch(self):
        data = {"re": [[1.0, 0.0]], "im": [[0.0]]}
        with pytest.raises(ValidationError, match="mismatched"):
            io.complex_matrix_from_data(data, "test matrix")

    def test_density_round_trip(self):
        from revcomp import DensityMatrix

        rho = DensityMatrix.pure([1.0, 1j])
        back = io.parse_density_matrix_data(io.density_matrix_to_data(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_verdict_serialization(self):
        verdict = verify_erasure_theorem(2, 0.5, 0.5, seed=0, n_random=5)
        data = io.verdict_to_data(verdict)
        assert list(data.keys()) == [
            "dim", "eta", "epsilon", "threshold", "compressible", "gamma",
            "seed", "probe_count", "min_fidelity", "witness", "rejections",
        ]
        assert data["compressible"] is False
        assert len(data["rejections"]) == 2


class TestCliCompress:
    def test_json_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        code = main(["compress", "--channel", path, "--epsilon", "0.2", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data.keys()) == [
            "epsilon", "solver", "optimal", "blocks", "representatives",
            "compressibility", "certificates",
        ]
        assert data["blocks"] == [["1", "2"]]
        assert data["compressibility"] == 1.0
        assert data["optimal"] is True

    def test_table_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        assert main(["compress", "--channel", path, "--epsilon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "compressibility" in out
        assert "{1, 2}" in out

    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 3, "eta": 0.7})
        main(["compress", "--channel", path, "--epsilon", "0.6", "--format", "json"])
        first = capsys.readouterr().out
        main(["compress", "--channel", path, "--epsilon", "0.6", "--format", "json"])
        assert capsys.readouterr().out == first

    def test_json_report_builds_no_table(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 3, "eta": 0.7})
        main(["compress", "--channel", path, "--epsilon", "0.6", "--format", "table"])
        table = capsys.readouterr().out
        assert table.startswith("epsilon ")
        monkeypatch.setattr(cli, "_report_table", lambda data: pytest.fail("table built"))
        assert main(["compress", "--channel", path, "--epsilon", "0.6", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == 0.6

    def test_out_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "identity", "n": 2})
        dest = tmp_path / "report.json"
        code = main(["compress", "--channel", path, "--epsilon", "0.5",
                     "--format", "json", "--out", str(dest)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["compressibility"] == 0.0

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "identity", "n": 2})
        dest = tmp_path / "missing" / "report.json"
        code = main(["compress", "--channel", path, "--epsilon", "0.5",
                     "--format", "json", "--out", str(dest)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out: cannot write {dest}: No such file or directory\n")

    def test_invalid_channel_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {
            "input_labels": ["a", "b"], "output_labels": ["u", "v"],
            "matrix": [[0.9, 0.0], [0.5, 0.5]],
        })
        code = main(["compress", "--channel", path, "--epsilon", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["compress", "--channel", str(tmp_path / "ghost.json"),
                     "--epsilon", "0.5"])
        assert code == 2

    def test_exact_cap_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path, "big.json", {"type": "identity", "n": 25})
        code = main(["compress", "--channel", path, "--epsilon", "0.5",
                     "--solver", "exact"])
        assert code == 3
        assert "REVCOMP_EXACT_CAP" in capsys.readouterr().err

    def test_exact_cap_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REVCOMP_EXACT_CAP", "30")
        path = write_json(tmp_path, "big.json", {"type": "identity", "n": 25})
        code = main(["compress", "--channel", path, "--epsilon", "0.5",
                     "--solver", "exact", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["solver"] == "exact"

    def test_kraus_file_rejected_for_classical_command(self, tmp_path, capsys):
        path = write_json(tmp_path, "q.json", io.kraus_to_data(make_quantum_erasure(2, 0.5)))
        code = main(["compress", "--channel", path, "--epsilon", "0.5"])
        assert code == 2
        assert "classical" in capsys.readouterr().err

    def test_bad_flag_value_exits_2(self, tmp_path):
        path = write_json(tmp_path, "ch.json", {"type": "identity", "n": 2})
        with pytest.raises(SystemExit) as exc:
            main(["compress", "--channel", path, "--epsilon", "abc"])
        assert exc.value.code == 2


class TestCliQueries:
    def test_fidelity(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.5})
        code = main(["fidelity", "--channel", path, "--x", "1", "--xhat", "2",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"x": "1", "xhat": "2", "reverse_fidelity": 0.25}

    def test_product(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.5})
        code = main(["product", "--channel", path, "--xs", "1,1", "--xhats", "2,1",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k"] == 2
        assert data["reverse_fidelity"] == 0.25

    def test_product_length_mismatch_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.5})
        code = main(["product", "--channel", path, "--xs", "1,1", "--xhats", "2"])
        assert code == 2

    def test_erasure_thresholds(self, capsys):
        code = main(["erasure", "--r", "2", "--eta", "0.5", "--epsilon", "0.75",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["thresholds"][1] == {
            "differences": 1, "fidelity": 0.25, "epsilon_threshold": 0.75,
        }
        assert data["max_mergeable_differences"] == 1
        assert any("0.85" in note for note in data["notes"])
        assert all(t["epsilon_threshold"] != 0.85 for t in data["thresholds"])

    def test_erasure_table_mentions_note(self, capsys):
        assert main(["erasure", "--r", "2", "--eta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "0.75" in out
        assert "0.85" in out
        assert "note:" in out

    def test_gen_erasure_report_and_bounds(self, capsys):
        code = main(["gen-erasure", "--blocks", "1,2;3,4", "--etas", "0.9,0.95",
                     "--epsilon", "0.2", "--k-max", "2", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"]["blocks"] == [["1", "2"], ["3", "4"]]
        assert data["report"]["compressibility"] == 2 / 3
        assert data["gamma_bound"] == [
            {"k": 1, "bound": 2 / 3, "feasible": True},
            {"k": 2, "bound": 0.4, "feasible": False},
        ]

    def test_gen_erasure_bound_infeasible_at_epsilon_zero(self, capsys):
        argv = ["gen-erasure", "--blocks", "1,2;3,4", "--etas", "0.9,0.92",
                "--epsilon", "0", "--k-max", "2"]
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"]["compressibility"] == 0.0
        assert [(e["bound"], e["feasible"]) for e in data["gamma_bound"]] == [
            (2 / 3, False), (0.4, False)]
        assert main(argv) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[-4].split() == ["k", "gamma_bound", "feasible"]
        assert table[-1].split() == ["2", "0.4", "False"]

    def test_gen_erasure_bound_without_epsilon_has_no_feasible_field(self, capsys):
        argv = ["gen-erasure", "--blocks", "1,2;3,4", "--etas", "0.9,0.95", "--k-max", "2"]
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["gamma_bound"] == [
            {"k": 1, "bound": 2 / 3}, {"k": 2, "bound": 0.4}]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-4].split() == ["k", "gamma_bound"]

    def test_gen_erasure_bad_eta_exits_2(self, capsys):
        code = main(["gen-erasure", "--blocks", "1,2", "--etas", "abc"])
        assert code == 2

    def test_conjecture(self, capsys):
        code = main(["conjecture", "--alphabet-size", "2", "--k", "3",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["minimum"] for r in data["rows"]] == [8, 4, 2, 1]
        assert all(r["equal"] for r in data["rows"])

    def test_asymptotic(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        code = main(["asymptotic", "--channel", path, "--epsilon", "0.2",
                     "--k-max", "3", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["k"] for r in data] == [1, 2, 3]
        assert [r["gamma"] for r in data] == [1.0, 2 / 3, 4 / 7]

    def test_asymptotic_on_a_one_letter_channel(self, tmp_path, capsys):
        # One letter has no off-diagonal fidelity; the letter classes prove
        # every row at one block.
        path = write_json(tmp_path, "ch.json", {"type": "identity", "n": 1})
        code = main(["asymptotic", "--channel", path, "--epsilon", "0.2",
                     "--k-max", "5", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [(r["k"], r["blocks"], r["method"], r["proved"]) for r in data] == [
            (k, 1, "exact", True) for k in range(1, 6)]

    def test_asymptotic_table_shows_trend(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        assert main(["asymptotic", "--channel", path, "--epsilon", "0.2",
                     "--k-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "observed trend: nonincreasing" in out
        assert "not a limit" in out

    def test_raised_exact_cap_keeps_the_graph_cap(self, tmp_path, capsys, monkeypatch):
        # 2**12 = 4096 sequences fit the raised exact cap but not the graph
        # cap.  The sweep is refused before any row runs: no product matrix
        # is built, not even for the rows k < 12 that would fit.
        monkeypatch.setenv("REVCOMP_EXACT_CAP", "4096")
        def unreachable(*args, **kwargs):
            raise AssertionError("product_fidelity_matrix called")
        monkeypatch.setattr(asymptotic, "product_fidelity_matrix", unreachable)
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        code = main(["asymptotic", "--channel", path, "--epsilon", "0.2",
                     "--k-max", "12", "--solver", "exact"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 4096 sequences exceed the graph cap 2048 for k=12\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_block_count_past_the_int_string_limit_exits_2(self, tmp_path, capsys, fmt):
        # The first k whose 2**k sequences print with more digits than Python
        # allows is refused before any row runs; the row below it still prints.
        digits = sys.get_int_max_str_digits()
        k = (10 ** digits).bit_length()  # the least k with 2**k >= 10**digits
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        code = main(["asymptotic", "--channel", path, "--epsilon", "0.2",
                     "--k-max", str(k), "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: k={k}: the sequence count 2**{k} has more than {digits} decimal "
            "digits, past Python's int-to-string limit\n")
        assert str(asymptotic.gamma_k(make_erasure(2, 0.9), 0.2, k - 1).block_count)


class TestCliQuantum:
    def test_blocks_route(self, capsys):
        code = main(["quantum-compress", "--dim", "4", "--blocks", "0,1;2,3",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"dim": 4, "blocks": [[0, 1], [2, 3]], "kernel_dim": 2,
                        "compressibility": 2 / 3}

    def test_kraus_route(self, tmp_path, capsys):
        path = write_json(tmp_path, "q.json", io.kraus_to_data(make_quantum_erasure(2, 0.5)))
        code = main(["quantum-compress", "--kraus", path, "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"in_dim": 2, "out_dim": 3, "kernel_dim": 0,
                        "compressibility": 0.0}

    def test_kraus_route_computes_one_kernel(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = quantum.vector_kernel

        def counting(channel):
            calls.append(channel)
            return original(channel)

        monkeypatch.setattr(quantum, "vector_kernel", counting)
        path = write_json(tmp_path, "q.json", io.kraus_to_data(make_quantum_erasure(3, 1.0)))
        assert main(["quantum-compress", "--kraus", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kernel_dim"] == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("data", [
        {"type": "erasure", "r": 2, "eta": 0.5},
        {"input_labels": ["a", "b"], "output_labels": ["u"], "matrix": [[1.0], [1.0]]},
    ], ids=["shorthand", "full-matrix"])
    def test_kraus_route_refuses_a_classical_channel(self, tmp_path, capsys, data):
        path = write_json(tmp_path, "ch.json", data)
        assert main(["quantum-compress", "--kraus", path, "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} holds a classical channel; this command needs a Kraus channel\n")

    def test_kraus_file_without_operators_names_the_field(self, tmp_path, capsys):
        path = write_json(tmp_path, "q.json", {"in_dim": 2, "out_dim": 3})
        assert main(["quantum-compress", "--kraus", path, "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            "error: Kraus channel file is missing required field 'kraus'\n")

    def test_classical_commands_refuse_a_kraus_channel(self, tmp_path, capsys):
        path = write_json(tmp_path, "q.json", io.kraus_to_data(make_quantum_erasure(2, 0.5)))
        assert main(["compress", "--channel", path, "--epsilon", "0.2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} holds a Kraus channel; this command needs a classical channel\n")

    def test_needs_exactly_one_route(self, tmp_path, capsys):
        assert main(["quantum-compress", "--dim", "4"]) == 2
        path = write_json(tmp_path, "q.json", io.kraus_to_data(make_quantum_erasure(2, 0.5)))
        assert main(["quantum-compress", "--kraus", path, "--dim", "4",
                     "--blocks", "0,1;2,3"]) == 2

    def test_bad_block_index_exits_2(self, capsys):
        assert main(["quantum-compress", "--dim", "4", "--blocks", "0,x;2,3"]) == 2

    def test_verify_compressible(self, capsys):
        code = main(["quantum-verify", "--dim", "2", "--eta", "0.9",
                     "--epsilon", "0.2", "--probes", "50", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["compressible"] is True
        assert data["gamma"] == 1.0
        assert data["rejections"] == []
        assert data["min_fidelity"] >= 0.8

    def test_verify_incompressible(self, capsys):
        code = main(["quantum-verify", "--dim", "3", "--eta", "0.5",
                     "--epsilon", "0.5", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["compressible"] is False
        assert data["probe_count"] == 0
        kinds = [r["kind"] for r in data["rejections"]]
        assert kinds == ["partition", "partition", "partition", "general"]
        for r in data["rejections"]:
            assert r["witness_fidelity"] == pytest.approx(0.25, abs=1e-8)

    def test_verify_deterministic(self, capsys):
        args = ["quantum-verify", "--dim", "3", "--eta", "0.9", "--epsilon", "0.2",
                "--probes", "40", "--seed", "7", "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_verify_table_lists_rejections(self, capsys):
        assert main(["quantum-verify", "--dim", "3", "--eta", "0.5",
                     "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "compressor" in out
        assert "witness_fidelity" in out

    def test_negative_probes_exits_2(self, capsys):
        assert main(["quantum-verify", "--dim", "2", "--eta", "0.5",
                     "--epsilon", "0.5", "--probes", "-1"]) == 2


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliMalformedInput:
    """Malformed files exit 2 with a message naming the field or literal."""

    MATRIX = '{"input_labels": ["a", "b"], "output_labels": ["u", "v"], "matrix": [[%s, 1.0], [0.5, 0.5]]}'

    @pytest.mark.parametrize("literal, shown", [
        ("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
        ("1e400", "row 0 ('a'), column 0 ('u') is inf"),
    ])
    def test_non_finite_matrix_entry(self, tmp_path, capsys, literal, shown):
        path = write_text(tmp_path, "ch.json", self.MATRIX % literal)
        code = main(["compress", "--channel", path, "--epsilon", "0.2", "--format", "json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not a finite number" in err and shown in err

    @pytest.mark.parametrize("matrix, shown", [
        ("[[1e308, 0.0], [0.5, 0.5]]", "row 0 ('a'), column 0 ('u') is 1e+308, outside [0, 1]"),
        ("[[-1.0, 2.0], [0.5, 0.5]]", "row 0 ('a'), column 0 ('u') is -1.0, outside [0, 1]"),
    ])
    def test_out_of_range_entry_is_a_plain_number(self, tmp_path, capsys, matrix, shown):
        data = '{"input_labels": ["a", "b"], "output_labels": ["u", "v"], "matrix": %s}' % matrix
        path = write_text(tmp_path, "ch.json", data)
        assert main(["compress", "--channel", path, "--epsilon", "0.2"]) == 2
        assert capsys.readouterr().err == f"error: channel entry at {shown}\n"

    def test_out_of_range_masses_are_plain_numbers(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "constant", "n": 2, "masses": [-1.0, 2.0]})
        assert main(["compress", "--channel", path, "--epsilon", "0.2"]) == 2
        assert capsys.readouterr().err == ("error: constant channel output distribution has "
                                           "entries outside [0, 1]: min -1.0, max 2.0\n")

    def test_repeated_gen_erasure_label_names_the_flag(self, capsys):
        assert main(["gen-erasure", "--blocks", "1,2;2", "--etas", "0.9,0.92"]) == 2
        assert capsys.readouterr().err == "error: --blocks entry 2 repeats the label '2'\n"

    @pytest.mark.parametrize("data, message", [
        ({"input_labels": ["a"], "output_labels": ["u"], "matrix": [[1.0]], "output_label": "u"},
         "channel file has unknown field 'output_label'"),
        ({"type": "identity", "n": 2, "labels": ["a", "b"]},
         "identity shorthand has unknown field 'labels'"),
        ({"type": "constant", "n": 3, "mass": [0.5, 0.5]},
         "constant shorthand has unknown field 'mass'"),
        ({"type": "erasure", "r": 2, "eta": 0.9, "epsilon": 0.2},
         "erasure shorthand has unknown field 'epsilon'"),
        ({"type": "generalized_erasure", "blocks": [["1"], ["2"]], "etas": [0.5, 0.5], "eta": 0.5},
         "generalized erasure shorthand has unknown field 'eta'"),
    ])
    def test_unknown_channel_field(self, tmp_path, capsys, data, message):
        # A misspelt "masses" once compressed a channel with one output symbol.
        path = write_json(tmp_path, "ch.json", data)
        assert main(["compress", "--channel", path, "--epsilon", "0.2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("where, message", [
        ("file", "Kraus channel file has unknown field 'dim'"),
        ("operator", "Kraus operator 1 has unknown field 'imag'"),
    ])
    def test_unknown_kraus_field(self, tmp_path, capsys, where, message):
        data = io.kraus_to_data(make_quantum_erasure(2, 0.5))
        if where == "file":
            data["dim"] = 2
        else:
            data["kraus"][1]["imag"] = data["kraus"][1]["im"]
        path = write_json(tmp_path, "q.json", data)
        assert main(["quantum-compress", "--kraus", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_density_matrix_field(self):
        data = dict(io.density_matrix_to_data(quantum.DensityMatrix(np.eye(2) / 2)), trace=1.0)
        with pytest.raises(ValidationError, match="^density matrix has unknown field 'trace'$"):
            io.parse_density_matrix_data(data)

    def test_overflowing_shorthand_number(self, tmp_path, capsys):
        path = write_text(tmp_path, "ch.json", '{"type": "erasure", "r": 2, "eta": 1e400}')
        assert main(["compress", "--channel", path, "--epsilon", "0.2"]) == 2
        assert "'eta'" in capsys.readouterr().err

    @pytest.mark.parametrize("data, field", [
        ({"type": "erasure", "r": 2.7, "eta": 0.9}, "'r'"),
        ({"type": "erasure", "r": "abc", "eta": 0.9}, "'r'"),
        ({"type": "erasure", "r": True, "eta": 0.9}, "'r'"),
        ({"type": "erasure", "r": 2, "eta": "0.9"}, "'eta'"),
        ({"type": "erasure", "r": 2, "eta": False}, "'eta'"),
        ({"type": "identity", "n": 3.0}, "'n'"),
        ({"type": "identity", "n": True}, "'n'"),
        ({"type": "constant", "n": "2"}, "'n'"),
        ({"type": "constant", "n": 2, "masses": ["0.5", "0.5"]}, "'masses'"),
        ({"type": "generalized_erasure", "blocks": [["1"], ["2"]], "etas": [0.5, "x"]}, "'etas'"),
        ({"type": "generalized_erasure", "blocks": [["1"], ["2"]], "etas": 0.5}, "'etas'"),
        ({"type": "generalized_erasure", "blocks": 5, "etas": [0.5]}, "'blocks'"),
        ({"input_labels": "ab", "output_labels": ["u"], "matrix": [[1.0], [1.0]]},
         "'input_labels'"),
        ({"input_labels": ["a"], "output_labels": ["u", "v"], "matrix": [[True, False]]},
         "'matrix'"),
        ({"input_labels": ["a"], "output_labels": ["u", "v"], "matrix": [["0.5", "0.5"]]},
         "'matrix'"),
        ({"input_labels": [None, {"a": 1}], "output_labels": ["u"], "matrix": [[1.0], [1.0]]},
         "field 'input_labels' of channel file entry 0 must be a string, got None"),
        ({"input_labels": ["1", 1], "output_labels": ["u"], "matrix": [[1.0], [1.0]]},
         "field 'input_labels' of channel file entry 1 must be a string, got 1"),
        ({"input_labels": ["a"], "output_labels": ["u", 2.5], "matrix": [[0.5, 0.5]]},
         "field 'output_labels' of channel file entry 1 must be a string, got 2.5"),
        ({"type": "constant", "n": 2, "output_labels": [True]},
         "field 'output_labels' of constant shorthand entry 0 must be a string, got True"),
        ({"type": "generalized_erasure", "blocks": [["1"], ["2", None]], "etas": [0.5, 0.5]},
         "field 'blocks' of generalized erasure shorthand, block 1, entry 1 must be a string"),
        ({"input_labels": ["a", "b", "a"], "output_labels": ["u"], "matrix": [[1.0]] * 3},
         "field 'input_labels' of channel file entry 2 repeats the label 'a'"),
        ({"input_labels": ["a"], "output_labels": ["u", "u"], "matrix": [[0.5, 0.5]]},
         "field 'output_labels' of channel file entry 1 repeats the label 'u'"),
        ({"type": "generalized_erasure", "blocks": [["1", "2"], ["3", "1"]], "etas": [0.5, 0.5]},
         "field 'blocks' of generalized erasure shorthand, block 1, entry 1 repeats the label '1'"),
        ({"input_labels": [], "output_labels": ["u"], "matrix": []},
         "field 'input_labels' of channel file must list at least one label"),
        ({"input_labels": ["a"], "output_labels": [], "matrix": [[]]},
         "field 'output_labels' of channel file must list at least one label"),
        ({"type": "constant", "n": 2, "output_labels": []},
         "field 'output_labels' of constant shorthand must list at least one label"),
    ])
    def test_mistyped_channel_field(self, tmp_path, capsys, data, field):
        path = write_json(tmp_path, "ch.json", data)
        code = main(["compress", "--channel", path, "--epsilon", "0.2", "--format", "json"])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("in_dim", "2"), ("in_dim", 2.0), ("out_dim", True), ("out_dim", 3.5),
    ])
    def test_mistyped_kraus_dimension(self, tmp_path, capsys, field, value):
        data = io.kraus_to_data(make_quantum_erasure(2, 0.5))
        data[field] = value
        path = write_json(tmp_path, "q.json", data)
        assert main(["quantum-compress", "--kraus", path, "--format", "json"]) == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["in_dim", "out_dim"])
    def test_zero_kraus_dimension(self, tmp_path, capsys, field):
        data = {"in_dim": 0, "out_dim": 3, "kraus": [{"re": [[], [], []], "im": [[], [], []]}]}
        if field == "out_dim":
            data = {"in_dim": 3, "out_dim": 0, "kraus": [{"re": [], "im": []}]}
        path = write_json(tmp_path, "q.json", data)
        assert main(["quantum-compress", "--kraus", path, "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert repr(field) in err and "internal error" not in err

    def test_non_finite_kraus_entry(self, tmp_path, capsys):
        text = json.dumps(io.kraus_to_data(make_quantum_erasure(2, 0.5)))
        path = write_text(tmp_path, "q.json", text.replace("0.0", "NaN", 1))
        assert main(["quantum-compress", "--kraus", path, "--format", "json"]) == 2
        assert "NaN" in capsys.readouterr().err

    def test_overlong_integer_literal(self, tmp_path, capsys):
        path = write_text(tmp_path, "ch.json", '{"type": "identity", "n": %s}' % ("9" * 5000))
        assert main(["compress", "--channel", path, "--epsilon", "0.2"]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestCliArgumentChecks:
    @pytest.mark.parametrize("argv, message", [
        (["erasure", "--r", "2", "--eta", "0.5", "--max-differences", "-1"],
         "--max-differences must be >= 0, got -1"),
        (["quantum-compress"],
         "quantum-compress needs either --kraus, or both --dim and --blocks"),
        (["product", "--channel", "CHANNEL", "--xs", ",", "--xhats", "1"],
         "--xs: expected a comma-separated list, got ','"),
        (["gen-erasure", "--blocks", ";", "--etas", "0.9"],
         "--blocks: expected semicolon-separated blocks, got ';'"),
        (["quantum-compress", "--dim", "4", "--blocks", ";"],
         "--blocks: expected semicolon-separated blocks, got ';'"),
        (["product", "--channel", "CHANNEL", "--xs", "1", "--xhats", " , "],
         "--xhats: expected a comma-separated list, got ' , '"),
        (["gen-erasure", "--blocks", "1;2", "--etas", ","],
         "--etas: expected a comma-separated list, got ','"),
        (["gen-erasure", "--blocks", "1;,", "--etas", "0.9"],
         "--blocks: expected a comma-separated list, got ','"),
        (["quantum-compress", "--kraus", "KRAUS", "--blocks", "0,1"],
         "quantum-compress takes --kraus alone, not with --blocks"),
        (["quantum-compress", "--kraus", "KRAUS", "--dim", "2"],
         "quantum-compress takes --kraus alone, not with --dim"),
        (["product", "--channel", "CHANNEL", "--xs", "1,,2", "--xhats", "2,1"],
         "--xs: empty item in comma-separated list '1,,2'"),
        (["product", "--channel", "CHANNEL", "--xs", "1,2", "--xhats", "2,1,"],
         "--xhats: empty item in comma-separated list '2,1,'"),
        (["gen-erasure", "--blocks", "1;2", "--etas", "0.9,,0.95"],
         "--etas: empty item in comma-separated list '0.9,,0.95'"),
        (["gen-erasure", "--blocks", "1,,2;3", "--etas", "0.9,0.95"],
         "--blocks: empty item in comma-separated list '1,,2'"),
        (["quantum-compress", "--dim", "4", "--blocks", "0,1;;2,3"],
         "--blocks: empty block in semicolon-separated blocks '0,1;;2,3'"),
        (["gen-erasure", "--blocks", "1;2;", "--etas", "0.9,0.95"],
         "--blocks: empty block in semicolon-separated blocks '1;2;'"),
        (["gen-erasure", "--blocks", "1;2", "--etas", "0.9,0.95", "--k-max", "0"],
         "--k-max must be >= 1, got 0"),
        (["gen-erasure", "--blocks", "1;2", "--etas", "0.9,0.95", "--k-max", "-3"],
         "--k-max must be >= 1, got -3"),
        (["conjecture", "--alphabet-size", "2", "--k", "3", "--max-sequences", "-5"],
         "--max-sequences must be >= 1, got -5"),
        (["conjecture", "--alphabet-size", "2", "--k", "3", "--max-sequences", "0"],
         "--max-sequences must be >= 1, got 0"),
        (["quantum-verify", "--dim", "4", "--eta", "0.9", "--epsilon", "0.3", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["quantum-compress", "--dim", "4", "--blocks", "0,1;2,3,3"],
         "partition block repeats element 3"),
        (["quantum-compress", "--dim", "3", "--blocks", "0,1;5"],
         "partition member 5 is outside range(3)"),
        (["quantum-compress", "--dim", "3", "--blocks", "0,1"],
         "partition element 2 of range(3) is in no block"),
        (["quantum-compress", "--dim", "0", "--blocks", "0"], "--dim must be >= 1, got 0"),
        (["quantum-compress", "--dim", "-2", "--blocks", "0"], "--dim must be >= 1, got -2"),
        (["quantum-verify", "--dim", "4", "--eta", "0.9", "--epsilon", "0.3", "--probes", "-1"],
         "--probes must be >= 0, got -1"),
        (["quantum-verify", "--dim", "1", "--eta", "0.9", "--epsilon", "0.3"],
         "criterion needs input dimension >= 2, got 1"),
        (["erasure", "--r", "0", "--eta", "0.5"], "erasure channel needs >= 1 symbols, got 0"),
        (["erasure", "--r", "2", "--eta", "nan"], "erasure probability must lie in [0, 1], got nan"),
    ])
    def test_argument_error_exits_2(self, tmp_path, capsys, argv, message):
        files = {"CHANNEL": write_json(tmp_path, "ch.json", {"type": "identity", "n": 2}),
                 "KRAUS": write_json(tmp_path, "q.json",
                                     io.kraus_to_data(make_quantum_erasure(2, 0.5)))}
        argv = [files.get(a, a) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCliBuildsNoGraph:
    def test_subcommands_cover_bitmasks_only(self, tmp_path, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("a subcommand built an IndistinguishabilityGraph")

        monkeypatch.setattr(IndistinguishabilityGraph, "__post_init__", refuse)
        erasure = write_json(tmp_path, "e.json", {"type": "erasure", "r": 2, "eta": 0.9})
        full = write_json(tmp_path, "f.json", io.channel_to_data(make_erasure(4, 0.7)))
        runs = [
            ["compress", "--channel", full, "--epsilon", "0.6"],
            ["compress", "--channel", full, "--epsilon", "0.6", "--solver", "greedy"],
            ["gen-erasure", "--blocks", "1,2;3", "--etas", "0.9,0.95", "--epsilon", "0.2"],
            ["asymptotic", "--channel", erasure, "--epsilon", "0.2", "--k-max", "3",
             "--solver", "exact"],
            ["asymptotic", "--channel", erasure, "--epsilon", "0.2", "--k-max", "3",
             "--solver", "greedy"],
            ["asymptotic", "--channel", erasure, "--epsilon", "0.2", "--k-max", "3",
             "--solver", "closed_form"],
            ["conjecture", "--alphabet-size", "2", "--k", "3"],
        ]
        for argv in runs:
            assert main([*argv, "--format", "json"]) == 0, capsys.readouterr().err
        capsys.readouterr()


class TestCliInProcess:
    """``main`` called repeatedly in one process, as the benchmark and library
    callers do, behaves as separate runs of the command."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_subcommand_dispatch_matches_the_full_parser(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        channel = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        compress = ["compress", "--channel", channel, "--epsilon", "0.2"]
        argvs = [
            [], ["-h"], ["--help"], ["compress", "-h"], ["asymptotic", "--help"],
            ["compress", "--channel", channel],  # a required flag missing
            [*compress, "--solver", "fastest"],  # a bad choice
            [*compress, "--bogus"], [*compress, "stray", "--bogus", "1"],  # unknown words
            ["compres", *compress[1:]],  # an unknown command
            ["--format", "json", *compress],  # an option before the command
            [*compress, "--format", "json"], [*compress, "--form", "table"],
            ["erasure", "--r", "two", "--eta", "0.9"],  # a bad type
            ["erasure", "--r", "2", "--eta", "0.9", "--epsilon", "-0.5"],
            ["product", "--channel", channel, "--xs", "0", "--xhats", "1", "--x", "0"],
            ["conjecture", "--alphabet-size", "2", "--k", "2", "--", "x"],
            ["conjecture", "--alphabet-size", "2", "--k", "2", "--format=json"],
        ]

        def outcomes():
            seen = []
            for argv in argvs:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err))
            return seen

        dispatched = outcomes()
        parser = _build_parser()[0]
        monkeypatch.setattr(cli, "_parse", parser.parse_args)
        assert dispatched == outcomes()
        assert {code for code, _, _ in dispatched} == {0, 2}
        # A named subcommand never reaches the full parser.
        monkeypatch.undo()
        monkeypatch.setattr(parser, "parse_known_args", None)
        assert main([*compress, "--format", "json"]) == 0

    def test_repeated_main_matches_separate_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        channel = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.9})
        runs = [
            ["compress", "--channel", channel, "--epsilon", "0.2", "--format", "json"],
            ["erasure", "--r", "2"],
            ["asymptotic", "--channel", channel, "--epsilon", "0.2", "--k-max", "3"],
            ["quantum-compress", "--dim", "4"],
            ["compress", "--channel", channel, "--epsilon", "0.2", "--format", "json"],
        ]
        in_process = []
        for argv in runs:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
        separate = {}
        for argv in map(tuple, runs):
            if argv not in separate:
                proc = subprocess.run([sys.executable, "-m", "revcomp.cli", *argv],
                                      capture_output=True, text=True, env=env, timeout=60)
                separate[argv] = (proc.returncode, proc.stdout, proc.stderr)
        assert in_process == [separate[tuple(argv)] for argv in runs]
        assert [code for code, _, _ in in_process] == [0, 2, 0, 2, 0]


class TestMalformedFileMessages:
    """Each malformed channel or Kraus file is refused by its own message."""

    HUGE = "1" + "0" * 400  # a JSON integer too large for a float

    @pytest.mark.parametrize("text, message", [
        ('{"input_labels": ["a"], "output_labels": ["u"], "matrix": [[%s]]}' % HUGE,
         "field 'matrix' of channel file must contain finite numbers"),
        ('{"type": "erasure", "r": 2, "eta": %s}' % HUGE,
         f"field 'eta' of erasure shorthand must be a finite number, got {HUGE}"),
        ('{"input_labels": ["a"], "output_labels": ["u"], "matrix": [1.0]}',
         "field 'matrix' of channel file must be a list of rows"),
        ('{"type": "generalized_erasure", "blocks": ["1", ["2"]], "etas": [0.5, 0.5]}',
         "field 'blocks' of generalized erasure shorthand must be a list of label lists"),
        ('{"in_dim": 1, "out_dim": 1, "kraus": [[[1.0]]]}',
         "Kraus operator 0 must be an object with 're' and 'im' parts"),
        ('{"type": "identity", "n": 0}', "field 'n' of identity shorthand must be >= 1, got 0"),
        ('{"type": "erasure", "r": 0, "eta": 0.5}',
         "field 'r' of erasure shorthand must be >= 1, got 0"),
        ('{"in_dim": 0, "out_dim": 1, "kraus": []}',
         "field 'in_dim' of Kraus channel file must be >= 1, got 0"),
    ], ids=["matrix-overflow", "number-overflow", "matrix-not-rows", "blocks-not-lists",
            "operator-not-an-object", "identity-n", "erasure-r", "kraus-in-dim"])
    def test_refused_by_its_message(self, tmp_path, capsys, text, message):
        path = write_text(tmp_path, "ch.json", text)
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            io.parse_channel_file(path)
        assert main(["quantum-compress", "--kraus", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCliTables:
    """The table layout of each report, line for line."""

    def run(self, capsys, argv):
        assert main([*argv, "--format", "table"]) == 0
        return capsys.readouterr().out

    def test_conjecture(self, capsys):
        assert self.run(capsys, ["conjecture", "--alphabet-size", "2", "--k", "2",
                                 "--max-sequences", "4"]) == (
            "s  minimum  bound  equal\n"
            "-  -------  -----  -----\n"
            "0  4        4      True\n"
            "1  2        2      True\n"
            "2  1        1      True\n")

    def test_product(self, tmp_path, capsys):
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": 0.5})
        assert self.run(capsys, ["product", "--channel", path, "--xs", "1,1",
                                 "--xhats", "2,1"]) == (
            "k                 2\n"
            "xs                1,1\n"
            "xhats             2,1\n"
            "reverse_fidelity  0.25\n")

    def test_quantum_compress_blocks(self, capsys):
        assert self.run(capsys, ["quantum-compress", "--dim", "4", "--blocks", "0,1;2,3"]) == (
            "dim              4\n"
            "blocks           {0, 1} | {2, 3}\n"
            "kernel_dim       2\n"
            "compressibility  0.6666666666666666\n")

    def test_erasure_with_epsilon(self, capsys):
        assert self.run(capsys, ["erasure", "--r", "2", "--eta", "0.5", "--epsilon", "0.75",
                                 "--max-differences", "2"]) == (
            "differences  fidelity  epsilon_threshold\n"
            "-----------  --------  -----------------\n"
            "0            1.0       0.0\n"
            "1            0.25      0.75\n"
            "2            0.0625    0.9375\n"
            "max mergeable differences at epsilon=0.75: 1\n"
            f"note: {cli.ERASURE_THRESHOLD_NOTE}\n")

    def test_erasure_count_agrees_with_the_sweep_at_a_boundary(self, tmp_path, capsys):
        # The closed form eta**4 passes 1 - epsilon here; the product of the
        # letter fidelity, which every graph compares, does not.
        eta, epsilon = "0.9536156242276501", "0.17302299804988008"
        out = self.run(capsys, ["erasure", "--r", "2", "--eta", eta, "--epsilon", epsilon])
        assert f"max mergeable differences at epsilon={epsilon}: 1\n" in out
        path = write_json(tmp_path, "ch.json", {"type": "erasure", "r": 2, "eta": float(eta)})
        assert main(["asymptotic", "--channel", path, "--epsilon", epsilon, "--k-max", "2",
                     "--format", "json"]) == 0
        assert [row["blocks"] for row in json.loads(capsys.readouterr().out)] == [1, 2]
