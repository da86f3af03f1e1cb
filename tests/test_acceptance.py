"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdicts (add ``-s`` to see the printed summary lines as well).  Every
tolerance here is pinned; loosening one is a contract change, not a fix.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from revcomp import (
    DensityMatrix,
    compress,
    erasure_epsilon_threshold,
    erasure_max_mergeable_differences,
    erasure_sequence_fidelity,
    fidelity,
    generalized_erasure_gamma_bound,
    make_constant,
    make_erasure,
    make_generalized_erasure,
    make_identity,
    min_s_bounded_partition_size,
    product_reverse_fidelity,
    quantum_fidelity,
    solve_exact,
    verify_erasure_theorem,
)
from revcomp.partition import IndistinguishabilityGraph, partition_is_clique_cover
from revcomp.quantum import erasure_output_fidelity, make_quantum_erasure
from revcomp.cli import main
from revcomp.channels import Alphabet, Distribution

from oracles import (
    joint_reverse_fidelity,
    min_clique_cover_brute,
    plain_fidelity,
    random_adjacency,
    random_channel,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {title}")
        raise
    print(f"criterion {num:2d} PASS  {title}")


def test_criterion_01_limit_cases():
    with criterion(1, "identity channels give gamma 0, constant channels give gamma 1"):
        start = time.monotonic()
        for n in range(2, 11):
            ident = make_identity(n)
            for eps in [0.1 * i for i in range(1, 10)]:
                report = compress(ident, eps)
                assert report.optimal
                assert report.compressibility == 0.0
            const = compress(make_constant(n), 0.0)
            assert const.optimal
            assert const.compressibility == 1.0
        assert time.monotonic() - start < 1.0


def test_criterion_02_generalized_erasure_single_shot():
    with criterion(2, "generalized erasure merges into two blocks with gamma 2/3"):
        start = time.monotonic()
        ch = make_generalized_erasure((("1", "2"), ("3", "4")), (0.9, 0.95))
        report = compress(ch, 0.2, solver="exact")
        assert report.optimal
        assert report.to_json_dict()["blocks"] == [["1", "2"], ["3", "4"]]
        assert report.compressibility == 2 / 3
        assert time.monotonic() - start < 1.0


def test_criterion_03_erasure_closed_form():
    with criterion(3, "product fidelity equals eta**(2*differences) on 1000 random pairs"):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            eta = float(rng.uniform(0.0, 1.0))
            r = int(rng.integers(2, 5))
            k = int(rng.integers(1, 7))
            ch = make_erasure(r, eta)
            labels = ch.input.labels
            xs = tuple(labels[i] for i in rng.integers(0, r, size=k))
            xhats = tuple(labels[i] for i in rng.integers(0, r, size=k))
            got = product_reverse_fidelity(ch, xs, xhats)
            want = erasure_sequence_fidelity(eta, sum(a != b for a, b in zip(xs, xhats)))
            assert abs(got - want) <= 1e-12


def test_criterion_04_factorization():
    with criterion(4, "letterwise fidelity matches the joint-distribution route"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(200):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            ch = random_channel(rng, n_in, n_out)
            labels = ch.input.labels
            xs = tuple(labels[i] for i in rng.integers(0, n_in, size=k))
            xhats = tuple(labels[i] for i in rng.integers(0, n_in, size=k))
            got = product_reverse_fidelity(ch, xs, xhats)
            want = min(1.0, joint_reverse_fidelity(ch, xs, xhats))
            assert abs(got - want) <= 1e-10
        assert time.monotonic() - start < 30.0


def test_criterion_05_bounded_diameter_minima():
    with criterion(5, "diameter-bounded partition minima equal n**(k-s) up to 10 sequences"):
        start = time.monotonic()
        binary = [min_s_bounded_partition_size(2, 3, s) for s in range(4)]
        assert binary == [8, 4, 2, 1]
        for n in range(2, 11):
            for k in range(1, 4):
                if n ** k > 10:
                    continue
                for s in range(k + 1):
                    assert min_s_bounded_partition_size(n, k, s) == n ** (k - s)
        assert time.monotonic() - start < 300.0


def test_criterion_06_gamma_bound_decay():
    with criterion(6, "closed-form bound for blocks (2,2) decays from 2/3 to below 1e-10"):
        values = [generalized_erasure_gamma_bound((2, 2), k) for k in range(1, 36)]
        assert values[0] == 2 / 3
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[7] < 1e-2
        assert values[34] < 1e-10


def test_criterion_07_exact_solver_oracle():
    with criterion(7, "exact solver matches exhaustive minima on 500 seeded graphs"):
        start = time.monotonic()
        rng = np.random.default_rng(102)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            p = float(rng.uniform(0.05, 0.95))
            adj = random_adjacency(rng, n, p)
            graph = IndistinguishabilityGraph(adj)
            part = solve_exact(graph)
            assert partition_is_clique_cover(part, graph)
            assert part.num_blocks == min_clique_cover_brute(adj)
        assert time.monotonic() - start < 120.0


def test_criterion_08_erasure_criterion_both_directions():
    with criterion(8, "compressible grid certified and incompressible grid rejected"):
        start = time.monotonic()
        dims = (2, 3, 5, 8)
        compressible_grid = [(1.0, 0.1), (0.95, 0.2), (0.9, 0.2), (0.8, 0.4), (0.5, 0.75)]
        incompressible_grid = [(0.0, 0.5), (0.3, 0.5), (0.5, 0.5), (0.7, 0.3), (0.9, 0.1)]
        for dim in dims:
            for eta, eps in compressible_grid:
                assert eta * eta >= 1.0 - eps
                verdict = verify_erasure_theorem(dim, eta, eps, seed=dim, n_random=120)
                assert verdict.compressible
                assert verdict.gamma == 1.0
                assert verdict.min_fidelity >= 1.0 - eps - 1e-9
            for eta, eps in incompressible_grid:
                assert eta * eta < 1.0 - eps
                verdict = verify_erasure_theorem(dim, eta, eps, seed=dim)
                assert not verdict.compressible
                assert verdict.gamma == 0.0
                assert len(verdict.rejections) == (2 if dim == 2 else 4)
                for rej in verdict.rejections:
                    assert rej.kernel_dim >= 1
                    assert abs(rej.witness_fidelity - eta * eta) <= 1e-8
        assert time.monotonic() - start < 60.0


def test_criterion_09_erasure_output_fidelity_identity():
    with criterion(9, "erasure output fidelity matches the closed form on 500 triples"):
        rng = np.random.default_rng(103)
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            eta = float(rng.uniform(0.0, 1.0))
            rho = random_density_matrix(dim, rng)
            lam = random_kraus_channel(dim, dim, int(rng.integers(1, 4)), rng)
            sigma = lam.apply(rho)
            erasure = make_quantum_erasure(dim, eta)
            measured = quantum_fidelity(erasure.apply(rho), erasure.apply(sigma))
            want = erasure_output_fidelity(eta, quantum_fidelity(rho, sigma))
            assert abs(measured - want) <= 1e-8


def test_criterion_10_quantum_classical_consistency():
    with criterion(10, "quantum fidelity agrees with classical and pure-overlap routes"):
        rng = np.random.default_rng(104)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            p = rng.random(dim) + 1e-3
            q = rng.random(dim) + 1e-3
            p, q = p / p.sum(), q / q.sum()
            got = quantum_fidelity(DensityMatrix.diagonal(p), DensityMatrix.diagonal(q))
            alpha = Alphabet.numbered(dim)
            want = fidelity(Distribution(alpha, p), Distribution(alpha, q))
            assert abs(got - want) <= 1e-10
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            u = random_pure_state(dim, rng)
            v = random_pure_state(dim, rng)
            got = quantum_fidelity(DensityMatrix.pure(u), DensityMatrix.pure(v))
            assert abs(got - abs(np.vdot(u, v)) ** 2) <= 1e-10


def test_criterion_11_documented_discrepancy(capsys):
    with criterion(11, "threshold at eta=0.5 is 0.75; 0.85 appears only as a flagged note"):
        assert erasure_epsilon_threshold(0.5, differences=1) == 0.75
        assert erasure_max_mergeable_differences(0.5, 0.75, limit=5) == 1
        assert main(["erasure", "--r", "2", "--eta", "0.5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        one_diff = [t for t in data["thresholds"] if t["differences"] == 1]
        assert one_diff[0]["epsilon_threshold"] == 0.75
        assert all(t["epsilon_threshold"] != 0.85 for t in data["thresholds"])
        assert any("0.85" in note and "flagged" in note for note in data["notes"])
