"""Seeded job lists of the three workloads.

A job is one ``revcomp`` subcommand invocation: its argv, the kind of output
it produces and the facts an independent check needs (``meta``).  Channel
inputs are written as JSON files into a work directory; the same seed always
gives the same files and the same argv.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("single-shot", "multi-use", "quantum")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    kind: str
    meta: dict


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _matrix_channel(matrix: np.ndarray) -> dict:
    n, m = matrix.shape
    return {
        "input_labels": [str(i) for i in range(1, n + 1)],
        "output_labels": [f"y{j}" for j in range(1, m + 1)],
        "matrix": matrix.tolist(),
    }


def _compress_job(name: str, path: str, matrix: np.ndarray, eps: float) -> Job:
    argv = ("compress", "--channel", path, "--epsilon", repr(eps), "--format", "json")
    return Job(name, argv, "compress", {"matrix": matrix, "epsilon": eps})


def single_shot(rng: np.random.Generator, workdir: Path) -> list[Job]:
    """Greedy-regime channels (300 and 400 inputs) and exact-regime ones (20).

    Sizes and epsilons are fixed so every seed does the same amount of work;
    the seed draws the rows (Dirichlet(0.5) over 8 outputs).
    """
    jobs = []
    for n in (20, 300, 400):
        for eps in (0.05, 0.2, 0.4):
            matrix = rng.dirichlet(np.full(8, 0.5), size=n)
            name = f"compress-n{n}-eps{eps}"
            path = _write(workdir / f"{name}.json", _matrix_channel(matrix))
            jobs.append(_compress_job(name, path, matrix, eps))
    return jobs


def _erasure_regime(eta: float) -> float:
    """Epsilon midway in ``eta**4 < 1 - eps <= eta**2``: one differing letter merges."""
    return 1.0 - (eta ** 2 + eta ** 4) / 2.0


def _asymptotic_job(name: str, path: str, eps: float, k_max: int, meta: dict) -> Job:
    argv = ("asymptotic", "--channel", path, "--epsilon", repr(eps),
            "--k-max", str(k_max), "--format", "json")
    return Job(name, argv, "asymptotic", dict(meta, epsilon=eps, k_max=k_max))


# Rows of the random 3-input channels are drawn around these shapes.  Their
# pairwise fidelities (about 0.99/0.57/0.66, 0.87/0.47/0.50 and 0.81/0.75/0.44)
# keep every sequence product at least 3 % away from 1 - epsilon = 0.7, so each
# seed gives the same graphs, the same work and the same block counts.
RANDOM3_SHAPES = (
    ((0.6, 0.3, 0.1), (0.5, 0.35, 0.15), (0.1, 0.2, 0.7)),
    ((0.7, 0.2, 0.1), (0.37, 0.53, 0.1), (0.1, 0.1, 0.8)),
    ((0.38, 0.22, 0.4), (0.09, 0.09, 0.82), (0.21, 0.7, 0.09)),
)
RANDOM3_CONCENTRATION = 10000.0


def multi_use(rng: np.random.Generator, workdir: Path) -> list[Job]:
    """``asymptotic`` sweeps across the exact, greedy and closed-form regimes,
    plus one exhaustive ``conjecture`` check."""
    jobs = []
    for r, k_max in ((2, 13), (3, 8)):
        eta = float(rng.uniform(0.85, 0.95))
        eps = _erasure_regime(eta)
        path = _write(workdir / f"erasure-r{r}.json", {"type": "erasure", "r": r, "eta": eta})
        jobs.append(_asymptotic_job(f"asymptotic-erasure-r{r}", path, eps, k_max,
                                    {"erasure_r": r}))
    # eta**2 >= 0.8 > eta**4: sequences in one group merge when they differ in one letter.
    etas = [float(e) for e in rng.uniform(0.90, 0.94, size=2)]
    blocks = [["1", "2"], ["3", "4"]]
    path = _write(workdir / "gen-erasure.json",
                  {"type": "generalized_erasure", "blocks": blocks, "etas": etas})
    matrix = np.zeros((4, 6))
    for i in range(4):
        matrix[i, i] = 1.0 - etas[i // 2]
        matrix[i, 4 + i // 2] = etas[i // 2]
    jobs.append(_asymptotic_job("asymptotic-gen-erasure", path, 0.2, 6, {"matrix": matrix}))
    for c, shape in enumerate(RANDOM3_SHAPES):
        matrix = np.array([rng.dirichlet(RANDOM3_CONCENTRATION * np.array(row)) for row in shape])
        path = _write(workdir / f"random3-{c}.json", _matrix_channel(matrix))
        jobs.append(_asymptotic_job(f"asymptotic-random3-{c}", path, 0.3, 8, {"matrix": matrix}))
    jobs.append(Job("conjecture-a3-k3",
                    ("conjecture", "--alphabet-size", "3", "--k", "3",
                     "--max-sequences", "27", "--format", "json"),
                    "conjecture", {"alphabet_size": 3, "k": 3}))
    return jobs


PROBES = 200


def _verify_job(name: str, dim: int, eta: float, eps: float,
                rng: np.random.Generator) -> Job:
    seed = int(rng.integers(0, 2 ** 31))
    argv = ("quantum-verify", "--dim", str(dim), "--eta", repr(eta), "--epsilon", repr(eps),
            "--seed", str(seed), "--probes", str(PROBES), "--format", "json")
    return Job(name, argv, "quantum-verify",
               {"dim": dim, "eta": eta, "epsilon": eps, "probes": PROBES})


def quantum(rng: np.random.Generator, workdir: Path) -> list[Job]:
    """Both branches of ``quantum-verify`` and one ``quantum-compress``."""
    jobs = []
    for dim in (4, 6, 8, 10, 12):
        eta = float(rng.uniform(0.85, 0.95))
        eps = 1.0 - eta ** 2 + 0.05
        jobs.append(_verify_job(f"verify-compressible-d{dim}", dim, eta, eps, rng))
    for dim in (12, 14, 16):
        eta = float(rng.uniform(0.5, 0.7))
        eps = 1.0 - eta ** 2 - 0.1
        jobs.append(_verify_job(f"verify-rejecting-d{dim}", dim, eta, eps, rng))
    dim, num_blocks = 24, 8
    cuts = np.sort(rng.choice(np.arange(1, dim), size=num_blocks - 1, replace=False))
    order = rng.permutation(dim)
    groups = [sorted(int(i) for i in g) for g in np.split(order, cuts)]
    spec = ";".join(",".join(str(i) for i in g) for g in groups)
    jobs.append(Job("quantum-compress-d24", ("quantum-compress", "--dim", str(dim),
                                             "--blocks", spec, "--format", "json"),
                    "quantum-compress", {"dim": dim, "blocks": num_blocks}))
    return jobs


_JOB_LISTS = {"single-shot": single_shot, "multi-use": multi_use, "quantum": quantum}


def prepare(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's input files for ``seed`` and return its job list."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _JOB_LISTS[workload](rng, workdir)
