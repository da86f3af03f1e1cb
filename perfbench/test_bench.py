"""Tests of the benchmark itself: the smoke mode passes, and every
independent check rejects a corrupted output.

Run from the root of the repository with ``python -m pytest perfbench``.
"""
from __future__ import annotations

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from revcomp import cli  # noqa: E402


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    return {job.name: job for w in workloads.WORKLOADS
            for job in workloads.prepare(w, 0, root / w)}


def output_of(job, capsys):
    assert cli.main(list(job.argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "quantum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("n", range(1, 9))
def test_min_clique_cover_matches_brute_force(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    adj = upper | upper.T | np.eye(n, dtype=bool)
    best = n
    for labels in itertools.product(range(n), repeat=n):
        used = set(labels)
        if len(used) < best and all(adj[a, b] for a, b in itertools.combinations(range(n), 2)
                                    if labels[a] == labels[b]):
            best = len(used)
    assert checks.min_clique_cover(adj) == best


def _split_first_merged_block(out, job):
    fid = checks.fidelity_matrix(job.meta["matrix"])
    block = next(b for b in out["blocks"] if len(b) > 1)
    i = out["blocks"].index(block)
    out["blocks"][i:i + 1] = [block[:1], block[1:]]
    n = job.meta["matrix"].shape[0]
    out["compressibility"] = (n - len(out["blocks"])) / (n - 1)
    members = [[int(label) - 1 for label in b] for b in out["blocks"]]
    out["certificates"] = [min((fid[a, b] for a, b in itertools.combinations(m, 2)),
                               default=1.0) for m in members]


def _merge_first_two_blocks(out, job):
    out["blocks"][0:2] = [out["blocks"][0] + out["blocks"][1]]


def _set_row(k, blocks):
    def mutate(out, job):
        row = out[k - 1]
        total = (job.meta.get("erasure_r") or job.meta["matrix"].shape[0]) ** k
        row["blocks"] = blocks(row["blocks"])
        row["gamma"] = (total - row["blocks"]) / (total - 1)
    return mutate


def _field(path, change):
    def mutate(out, job):
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = change(target[path[-1]])
    return mutate


CORRUPTIONS = [
    ("compress-n20-eps0.4", _field(["blocks", 0], lambda b: b + ["1"]), "exactly once"),
    ("compress-n20-eps0.05", _merge_first_two_blocks, "below 1 - epsilon"),
    ("compress-n300-eps0.4", _field(["certificates", 0], lambda c: c - 1e-6), "certificates"),
    ("compress-n300-eps0.2", _field(["compressibility"], lambda g: g + 1e-9), "(n - B)/(n - 1)"),
    ("compress-n20-eps0.4", _split_first_merged_block, "claims optimal"),
    ("asymptotic-erasure-r3", _field([4, "gamma"], lambda g: g * 0.5), "(N - B)/(N - 1)"),
    ("asymptotic-erasure-r3", _set_row(2, lambda b: b + 1), "exact row"),
    ("asymptotic-erasure-r3", _set_row(5, lambda b: b - 1), "below the minimum"),
    ("asymptotic-random3-0", _set_row(2, lambda b: b + 1), "exact row"),
    ("asymptotic-random3-0", _set_row(3, lambda b: 1), "below the minimum"),
    ("conjecture-a3-k3", _field(["rows", 1, "minimum"], lambda m: m - 1), "differs"),
    ("conjecture-a3-k3", _field(["rows", 2, "minimum"], lambda m: m + 1), "exceeds bound"),
    ("verify-compressible-d4", _field(["min_fidelity"], lambda f: f + 1e-6), "min_fidelity"),
    ("verify-compressible-d4", _field(["gamma"], lambda g: 0.0), "gamma 1"),
    ("verify-compressible-d4", _field(["probe_count"], lambda c: c + 1), "probe_count"),
    ("verify-rejecting-d12", _field(["rejections", 0, "witness_fidelity"], lambda f: f + 0.2),
     "witness"),
    ("verify-rejecting-d12", _field(["rejections", 1, "kernel_dim"], lambda d: 0), "witness"),
    ("verify-rejecting-d12", _field(["gamma"], lambda g: 1.0), "gamma 0"),
    ("quantum-compress-d24", _field(["kernel_dim"], lambda d: d + 1), "kernel_dim"),
]


@pytest.mark.parametrize("name,mutate,expected", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[2]}" for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(jobs, capsys, name, mutate, expected):
    job = jobs[name]
    out = output_of(job, capsys)
    assert checks.CHECKS[job.kind](job.meta, out) == []
    bad = copy.deepcopy(out)
    mutate(bad, job)
    problems = checks.CHECKS[job.kind](job.meta, bad)
    assert any(expected in p for p in problems), problems
