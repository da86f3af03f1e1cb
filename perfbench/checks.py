"""Correctness checks of ``revcomp`` outputs, made apart from the program.

Nothing here imports ``revcomp``: fidelities come from the Bhattacharyya
Gram form and minimum partitions from a separate exhaustive search.  Every
check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import itertools

import numpy as np

FIDELITY_TOL = 1e-12
QUANTUM_TOL = 1e-9
# Minimum partitions are searched for only up to this many vertices.
EXHAUSTIVE_LIMIT = 27


def fidelity_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pairwise squared Bhattacharyya overlaps of the rows of a channel matrix."""
    p = np.asarray(matrix, dtype=float)
    root = np.sqrt(p / p.sum(axis=1, keepdims=True))
    return np.clip((root @ root.T) ** 2, 0.0, 1.0)


def product_fidelity(base: np.ndarray, k: int) -> np.ndarray:
    """Fidelities of all length-``k`` sequences, letters in lexicographic order."""
    n = base.shape[0]
    seqs = np.array(list(itertools.product(range(n), repeat=k))).reshape(n ** k, k)
    out = np.ones((n ** k, n ** k))
    for j in range(k):
        out = out * base[np.ix_(seqs[:, j], seqs[:, j])]
    return out


def hamming_graph(alphabet_size: int, k: int, s: int) -> np.ndarray:
    seqs = np.array(list(itertools.product(range(alphabet_size), repeat=k)))
    dist = (seqs[:, None, :] != seqs[None, :, :]).sum(axis=2)
    return dist <= s


def min_clique_cover(adjacency: np.ndarray) -> int:
    """Fewest cliques covering a graph, by DSATUR branch and bound on its complement.

    Stops as soon as a colouring meets the largest independent set found,
    which is a lower bound on the number of cliques.
    """
    n = len(adjacency)
    conflicts = [sum(1 << j for j in range(n) if j != i and not adjacency[i][j])
                 for i in range(n)]
    lower = _max_clique(conflicts)
    best = n
    colour = [-1] * n

    def saturation(v: int) -> int:
        return len({colour[u] for u in range(n) if conflicts[v] >> u & 1 and colour[u] >= 0})

    def search(used: int, done: int) -> bool:
        nonlocal best
        if used >= best:
            return False
        if done == n:
            best = used
            return best == lower
        v = max((u for u in range(n) if colour[u] < 0),
                key=lambda u: (saturation(u), conflicts[u].bit_count()))
        taken = {colour[u] for u in range(n) if conflicts[v] >> u & 1}
        for c in range(used + 1):
            if c in taken:
                continue
            colour[v] = c
            if search(max(used, c + 1), done + 1):
                return True
            colour[v] = -1
        return False

    search(0, 0)
    return best


def _max_clique(neighbours: list[int]) -> int:
    best = 0

    def grow(size: int, candidates: int) -> None:
        nonlocal best
        if candidates == 0:
            best = max(best, size)
        while candidates and size + candidates.bit_count() > best:
            v = candidates.bit_length() - 1
            candidates &= ~(1 << v)
            grow(size + 1, candidates & neighbours[v])

    grow(0, (1 << len(neighbours)) - 1)
    return best


def check_compress(meta: dict, out: dict) -> list[str]:
    problems = []
    matrix, eps = meta["matrix"], meta["epsilon"]
    n = matrix.shape[0]
    index = {str(i): i - 1 for i in range(1, n + 1)}
    blocks = [[index.get(label, -1) for label in block] for block in out["blocks"]]
    members = sorted(i for block in blocks for i in block)
    if members != list(range(n)):
        problems.append("blocks do not cover every label exactly once")
        return problems
    fid = fidelity_matrix(matrix)
    minima = [min((fid[a, b] for a, b in itertools.combinations(block, 2)), default=1.0)
              for block in blocks]
    if min(minima) < 1.0 - eps - FIDELITY_TOL:
        problems.append(f"an in-block pair has fidelity {min(minima)!r} below 1 - epsilon")
    certs = out["certificates"]
    if len(certs) != len(blocks) or any(abs(c - m) > FIDELITY_TOL for c, m in zip(certs, minima)):
        problems.append("certificates differ from the recomputed in-block minima")
    if out["compressibility"] != (n - len(blocks)) / (n - 1):
        problems.append(f"compressibility {out['compressibility']!r} is not (n - B)/(n - 1)")
    if out["optimal"]:
        best = min_clique_cover(fid >= 1.0 - eps)
        if len(blocks) != best:
            problems.append(f"claims optimal with {len(blocks)} blocks, minimum is {best}")
    return problems


def check_asymptotic(meta: dict, out: list) -> list[str]:
    problems = []
    if [row["k"] for row in out] != list(range(1, meta["k_max"] + 1)):
        return ["rows do not run over k = 1 .. k_max"]
    r = meta.get("erasure_r") or meta["matrix"].shape[0]
    for row in out:
        k, blocks = row["k"], row["blocks"]
        total = r ** k
        if not 1 <= blocks <= total or row["gamma"] != (total - blocks) / (total - 1):
            problems.append(f"k={k}: gamma {row['gamma']!r} is not (N - B)/(N - 1) for B={blocks}")
        if "erasure_r" in meta:
            best = r ** (k - 1)
        elif total <= EXHAUSTIVE_LIMIT:
            fid = product_fidelity(fidelity_matrix(meta["matrix"]), k)
            best = min_clique_cover(fid >= 1.0 - meta["epsilon"])
        else:
            continue
        if row["method"] == "exact" and blocks != best:
            problems.append(f"k={k}: exact row has {blocks} blocks, minimum is {best}")
        if blocks < best:
            problems.append(f"k={k}: {row['method']} row has {blocks} blocks, below the minimum {best}")
    return problems


def check_conjecture(meta: dict, out: dict) -> list[str]:
    problems = []
    a, k = meta["alphabet_size"], meta["k"]
    if [row["s"] for row in out["rows"]] != list(range(k + 1)):
        return ["rows do not run over s = 0 .. k"]
    for row in out["rows"]:
        s = row["s"]
        best = min_clique_cover(hamming_graph(a, k, s))
        if row["minimum"] != best:
            problems.append(f"s={s}: minimum {row['minimum']} differs from {best}")
        if row["bound"] != a ** (k - s) or row["minimum"] > row["bound"]:
            problems.append(f"s={s}: minimum {row['minimum']} exceeds bound {row['bound']}")
    return problems


def check_quantum_verify(meta: dict, out: dict) -> list[str]:
    problems = []
    d, eta, eps = meta["dim"], meta["eta"], meta["epsilon"]
    threshold = eta * eta
    if threshold >= 1.0 - eps:
        if not out["compressible"] or out["gamma"] != 1:
            problems.append("compressible case not reported with gamma 1")
        if abs(out["min_fidelity"] - threshold) > QUANTUM_TOL or out["min_fidelity"] < 1.0 - eps:
            problems.append(f"min_fidelity {out['min_fidelity']!r} is not eta**2 >= 1 - epsilon")
        if out["probe_count"] != d + 2 * d * (d - 1) + meta["probes"]:
            problems.append(f"probe_count {out['probe_count']} does not match the probe family")
    else:
        if out["compressible"] or out["gamma"] != 0:
            problems.append("rejecting case not reported with gamma 0")
        if not out["rejections"]:
            problems.append("rejecting case has no rejections")
        for rej in out["rejections"]:
            f = rej["witness_fidelity"]
            if abs(f - threshold) > QUANTUM_TOL or f >= 1.0 - eps or rej["kernel_dim"] < 1:
                problems.append(f"rejection {rej} is not an eta**2 witness with a kernel")
    return problems


def check_quantum_compress(meta: dict, out: dict) -> list[str]:
    dim, blocks = meta["dim"], meta["blocks"]
    if out["kernel_dim"] != dim - blocks or out["compressibility"] != (dim - blocks) / (dim - 1):
        return [f"kernel_dim {out['kernel_dim']} is not dim - blocks = {dim - blocks}"]
    return []


CHECKS = {
    "compress": check_compress,
    "asymptotic": check_asymptotic,
    "conjecture": check_conjecture,
    "quantum-verify": check_quantum_verify,
    "quantum-compress": check_quantum_compress,
}


def lower_bound_gamma(kind: str, out) -> float:
    """Compressibility in one output that the program does not claim optimal."""
    if kind == "compress":
        return 0.0 if out["optimal"] else out["compressibility"]
    if kind == "asymptotic":
        return sum(row["gamma"] for row in out if row["method"] != "exact")
    if kind == "quantum-verify":
        return out["gamma"]
    if kind == "quantum-compress":
        return out["compressibility"]
    return 0.0
