"""Independent reference implementations the tests check the library against.

Deliberately written with different algorithms than the library: scalar
loops instead of vectorized kernels, exhaustive enumeration instead of
branch and bound, Kraus adjoints instead of operator-basis images.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from revcomp import Alphabet, ClassicalChannel


def plain_fidelity(p, q) -> float:
    """Scalar evaluation of the squared Bhattacharyya overlap.

    Terms are added one at a time, left to right; the builtin ``sum`` is
    avoided because it adds floats with compensation from Python 3.12 on.
    """
    bc = 0.0
    for a, b in zip(p, q):
        bc += math.sqrt(a * b)
    return bc * bc


def joint_conditional(channel: ClassicalChannel, xs) -> list[float]:
    """Output distribution of an input sequence, built term by term."""
    rows = [channel.row(x) for x in xs]
    out = []
    for ys in itertools.product(range(channel.num_outputs), repeat=len(xs)):
        p = 1.0
        for row, y in zip(rows, ys):
            p *= float(row[y])
        out.append(p)
    return out


def joint_reverse_fidelity(channel: ClassicalChannel, xs, xhats) -> float:
    """Reverse fidelity through the explicit joint distributions."""
    return plain_fidelity(joint_conditional(channel, xs), joint_conditional(channel, xhats))


def adjacency_bitmasks(adjacency) -> list[int]:
    """Adjacency rows as integer bitmasks, self-loops removed, bit by bit."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    masks = []
    for i in range(n):
        m = 0
        for j in range(n):
            if j != i and adj[i, j]:
                m |= 1 << j
        masks.append(m)
    return masks


def product_partition(letter_blocks, alphabet_size: int, k: int) -> list[tuple[int, ...]]:
    """Blocks of the ``k``-fold product of a letter partition, as indices of
    lexicographically ordered length-``k`` sequences."""
    blocks = []
    for choice in itertools.product(letter_blocks, repeat=k):
        blocks.append(tuple(
            sum(x * alphabet_size ** (k - 1 - j) for j, x in enumerate(seq))
            for seq in itertools.product(*choice)
        ))
    return blocks


def min_clique_cover_brute(adjacency) -> int:
    """Exhaustive minimum clique cover over all set partitions.

    Restricted-growth enumeration with sound pruning: a branch is cut only
    when it already uses at least as many blocks as the best complete
    partition found, so the minimum is exact.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    best = n
    blocks: list[list[int]] = []

    def place(i: int) -> None:
        nonlocal best
        if len(blocks) >= best:
            return
        if i == n:
            best = len(blocks)
            return
        for block in blocks:
            if all(adj[i, j] for j in block):
                block.append(i)
                place(i + 1)
                block.pop()
        if len(blocks) + 1 < best:
            blocks.append([i])
            place(i + 1)
            blocks.pop()

    place(0)
    return best


def kernel_via_kraus_adjoints(channel) -> tuple[int, np.ndarray]:
    """Kernel as the common null space of the Kraus adjoints.

    A vector is annihilated by every channel output exactly when every
    Kraus operator's adjoint kills it, which needs no operator basis.
    """
    stacked = np.vstack([k.conj().T for k in channel.kraus])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.sum(svals > 1e-9))
    basis = vh[rank:].conj().T
    return basis.shape[1], basis


def random_channel(rng: np.random.Generator, n_in: int, n_out: int) -> ClassicalChannel:
    m = rng.random((n_in, n_out)) + 1e-3
    m = m / m.sum(axis=1, keepdims=True)
    return ClassicalChannel(Alphabet.numbered(n_in), Alphabet.numbered(n_out), m)


def random_adjacency(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Random symmetric reflexive adjacency matrix."""
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, 1)
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    return adj
